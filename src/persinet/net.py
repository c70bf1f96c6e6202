"""Petri net data model: the firing rule, structural class predicates, and
net-level constructions (reverse dual, disjoint sum, sequence projection).

A net is a bipartite structure of places and transitions joined by weighted
flow arcs, together with an initial marking.  Markings are plain tuples of
token counts in net place order, so they hash fast and can be shared freely.
Nets are immutable after construction and every operation in this module is
a pure function; concurrent analysis workers need no coordination.

Identifiers are strings.  Internally each id maps to a dense index assigned
in declaration order; all enumerations (witness search, canonical firing
order) iterate in that order so results are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .errors import (
    InputError,
    NotEnabledError,
    UnknownIdError,
    UnsupportedClassError,
)

Marking = tuple  # token counts, one entry per place, in net place order


class Net:
    """An initially marked, arc-weighted place/transition net.

    Arcs are given as (source, target, weight) triples; the direction of an
    arc disambiguates input weights F(p,t) from output weights F(t,p).
    Absent arcs mean weight zero, explicit zero weights are rejected.
    """

    def __init__(self, name, places, transitions, arcs=(), marking=None,
                 structural_only=False, components=None):
        places = tuple(places)
        transitions = tuple(transitions)
        if len(set(places)) != len(places):
            raise InputError(f"net '{name}': duplicate place ids")
        if len(set(transitions)) != len(transitions):
            raise InputError(f"net '{name}': duplicate transition ids")
        overlap = set(places) & set(transitions)
        if overlap:
            raise InputError(
                f"net '{name}': ids used both as place and transition: {sorted(overlap)}")

        self.name = name
        self.places = places
        self.transitions = transitions
        self._pidx = {p: i for i, p in enumerate(places)}
        self._tidx = {t: i for i, t in enumerate(transitions)}
        # sparse weights per transition index: {place index: weight}
        self._pre = [dict() for _ in transitions]
        self._post = [dict() for _ in transitions]
        for src, dst, w in arcs:
            if not isinstance(w, int) or w < 1:
                raise InputError(f"net '{name}': arc {src} -> {dst} weight must be >= 1")
            if src in self._pidx and dst in self._tidx:
                tgt = self._pre[self._tidx[dst]]
                key = self._pidx[src]
            elif src in self._tidx and dst in self._pidx:
                tgt = self._post[self._tidx[src]]
                key = self._pidx[dst]
            else:
                raise UnknownIdError(
                    f"net '{name}': arc {src} -> {dst} does not join a declared "
                    f"place and transition")
            if key in tgt:
                raise InputError(f"net '{name}': duplicate arc {src} -> {dst}")
            tgt[key] = w
        # the same weights as (place index, weight) pairs, which the firing
        # primitives iterate faster than dicts
        self._inputs = tuple(tuple(pre.items()) for pre in self._pre)
        self._outputs = tuple(tuple(post.items()) for post in self._post)

        marking = dict(marking or {})
        for p in marking:
            if p not in self._pidx:
                raise UnknownIdError(f"net '{name}': marked place '{p}' not declared")
        tokens = []
        for p in places:
            n = marking.get(p, 0)
            if not isinstance(n, int) or n < 0:
                raise InputError(f"net '{name}': marking of '{p}' must be a natural")
            tokens.append(n)
        self.initial = tuple(tokens)
        #: True for nets produced by reverse_dual: the marking carries no
        #: semantics and behavioural operations must reject the net.
        self.structural_only = bool(structural_only)
        #: id -> component tag, present only on disjoint sums.
        self.components = dict(components) if components else None

    # -- id/index bookkeeping ------------------------------------------------

    def place_index(self, p):
        try:
            return self._pidx[p]
        except KeyError:
            raise UnknownIdError(f"unknown place '{p}'") from None

    def transition_index(self, t):
        try:
            return self._tidx[t]
        except KeyError:
            raise UnknownIdError(f"unknown transition '{t}'") from None

    def pre_weight(self, p, t):
        return self._pre[self.transition_index(t)].get(self.place_index(p), 0)

    def post_weight(self, t, p):
        return self._post[self.transition_index(t)].get(self.place_index(p), 0)

    def arcs(self):
        """All arcs as (source, target, weight), inputs first, declaration order."""
        out = []
        for ti, t in enumerate(self.transitions):
            for pi in sorted(self._pre[ti]):
                out.append((self.places[pi], t, self._pre[ti][pi]))
        for ti, t in enumerate(self.transitions):
            for pi in sorted(self._post[ti]):
                out.append((t, self.places[pi], self._post[ti][pi]))
        return out

    def preset(self, t):
        ti = self.transition_index(t)
        return tuple(self.places[pi] for pi in sorted(self._pre[ti]))

    def postset(self, t):
        ti = self.transition_index(t)
        return tuple(self.places[pi] for pi in sorted(self._post[ti]))

    def place_preset(self, p):
        """Transitions producing into p, in declaration order."""
        pi = self.place_index(p)
        return tuple(t for ti, t in enumerate(self.transitions) if pi in self._post[ti])

    def place_postset(self, p):
        """Transitions consuming from p, in declaration order."""
        pi = self.place_index(p)
        return tuple(t for ti, t in enumerate(self.transitions) if pi in self._pre[ti])

    def marking_from(self, tokens: Mapping[str, int]) -> Marking:
        for p in tokens:
            self.place_index(p)
        return tuple(tokens.get(p, 0) for p in self.places)

    def marking_dict(self, m: Marking) -> dict:
        return {p: m[i] for i, p in enumerate(self.places) if m[i]}

    def _check_behavioural(self):
        if self.structural_only:
            raise UnsupportedClassError(
                f"net '{self.name}' is structural-only (reverse dual); "
                f"its marking carries no semantics")

    def _check_marking(self, m):
        if len(m) != len(self.places):
            raise InputError(
                f"marking has {len(m)} entries, net '{self.name}' has "
                f"{len(self.places)} places")

    def __repr__(self):
        return (f"Net({self.name!r}, |P|={len(self.places)}, "
                f"|T|={len(self.transitions)})")

    def __eq__(self, other):
        # component tags and the structural-only flag are analysis metadata,
        # not part of net identity (they do not survive printing)
        if not isinstance(other, Net):
            return NotImplemented
        return (self.name == other.name and self.initial == other.initial
                and self.structurally_equal(other))

    __hash__ = None

    def structurally_equal(self, other: "Net") -> bool:
        return (self.places == other.places
                and self.transitions == other.transitions
                and self._pre == other._pre
                and self._post == other._post)


# -- firing rule --------------------------------------------------------------
#
# The index-level primitives validate nothing: the searches validate their
# input once and then call them at every node.  The public string-keyed
# functions validate, then call them.

def _enabled_i(net: Net, m: Marking, among=None) -> list:
    """Indices of the transitions enabled at m, in declaration order.

    among, an increasing sequence of indices, restricts the test to them.
    """
    inputs = net._inputs
    out = []
    for ti in range(len(inputs)) if among is None else among:
        for pi, w in inputs[ti]:
            if m[pi] < w:
                break
        else:
            out.append(ti)
    return out


def _fire_i(net: Net, m: Marking, ti: int) -> Optional[Marking]:
    """The marking after firing transition index ti at m, or None when m
    does not enable ti."""
    out = list(m)
    for pi, w in net._inputs[ti]:
        if m[pi] < w:
            return None
        out[pi] -= w
    for pi, w in net._outputs[ti]:
        out[pi] += w
    return tuple(out)


def _disabled_by(net: Net, before, ti: int, m2: Marking) -> Optional[int]:
    """The persistent-step test.  before are the indices enabled at a marking
    and m2 the marking after firing ti there; returns the first of them,
    other than ti, that m2 no longer enables, or None if the step is
    persistent."""
    still = _enabled_i(net, m2, before)
    return next((u for u in before if u != ti and u not in still), None)


def enabled(net: Net, m: Marking, t: str) -> bool:
    """True iff every place holds at least the input weight of t."""
    net._check_behavioural()
    net._check_marking(m)
    return bool(_enabled_i(net, m, (net.transition_index(t),)))


def deficient_place(net: Net, m: Marking, t: str) -> Optional[str]:
    """First place (declaration order) blocking t at m, or None if enabled."""
    ti = net.transition_index(t)
    for pi in sorted(net._pre[ti]):
        if m[pi] < net._pre[ti][pi]:
            return net.places[pi]
    return None


def fire(net: Net, m: Marking, t: str) -> Marking:
    """Fire t at m; raises NotEnabledError naming the deficient place."""
    net._check_behavioural()
    net._check_marking(m)
    m2 = _fire_i(net, m, net.transition_index(t))
    if m2 is None:
        raise NotEnabledError(t, place=deficient_place(net, m, t))
    return m2


def fire_sequence(net: Net, m: Marking, seq: Sequence[str]) -> Marking:
    """Fold the firing rule over seq; the empty sequence returns m unchanged.

    The first disabled step raises NotEnabledError carrying its index.
    """
    cur = m
    for i, t in enumerate(seq):
        try:
            cur = fire(net, cur, t)
        except NotEnabledError as exc:
            raise NotEnabledError(t, place=exc.place, index=i) from None
    return cur


def firable(net: Net, m: Marking, seq: Sequence[str]) -> bool:
    try:
        fire_sequence(net, m, seq)
        return True
    except NotEnabledError:
        return False


def enabled_transitions(net: Net, m: Marking):
    """Transitions enabled at m, in declaration order."""
    net._check_behavioural()
    net._check_marking(m)
    return tuple(net.transitions[ti] for ti in _enabled_i(net, m))


def concurrently_enables(net: Net, m: Marking, t: str, u: str) -> bool:
    """True iff the plain net enables t and u concurrently at m.

    Shared pre-places need two tokens, exclusive pre-places one.
    """
    report = classify_structure(net)
    if not report.plain:
        raise UnsupportedClassError(
            "concurrent enabling is defined for plain nets only")
    if t == u:
        raise InputError("concurrent enabling needs two distinct transitions")
    net._check_behavioural()
    net._check_marking(m)
    pre_t = set(net._pre[net.transition_index(t)])
    pre_u = set(net._pre[net.transition_index(u)])
    for pi in pre_t & pre_u:
        if m[pi] < 2:
            return False
    for pi in pre_t ^ pre_u:
        if m[pi] < 1:
            return False
    return True


# -- structural classification ------------------------------------------------

@dataclass
class ClassReport:
    """Structural class flags with a witness for every flag that fails.

    dissymmetric_choice, asymmetric_choice and dc_tilde are defined for
    plain nets only and read None ("not applicable") otherwise.
    """

    plain: bool
    pure: bool
    choice_free: bool
    free_choice: bool
    equal_conflict: bool
    dissymmetric_choice: Optional[bool]
    asymmetric_choice: Optional[bool]
    dc_tilde: Optional[bool]
    witnesses: dict = field(default_factory=dict)

    def flag(self, name):
        return getattr(self, name)


def _input_vector(net, ti):
    return tuple(net._pre[ti].get(pi, 0) for pi in range(len(net.places)))


def classify_structure(net: Net) -> ClassReport:
    """Evaluate the structural class predicates from their definitions.

    Nothing is assumed: plainness and pureness are recomputed even for nets
    that were generated to satisfy them.  Witnesses are the first offending
    pair in declaration order.  Nets are immutable, so the report is cached.
    """
    cached = net.__dict__.get("_class_report")
    if cached is not None:
        return cached
    witnesses = {}

    plain = True
    for ti, t in enumerate(net.transitions):
        for pi in sorted(net._pre[ti]):
            if net._pre[ti][pi] > 1 and plain:
                plain = False
                witnesses["plain"] = (net.places[pi], t, net._pre[ti][pi])
        for pi in sorted(net._post[ti]):
            if net._post[ti][pi] > 1 and plain:
                plain = False
                witnesses["plain"] = (t, net.places[pi], net._post[ti][pi])

    pure = True
    for pi, p in enumerate(net.places):
        for ti, t in enumerate(net.transitions):
            if pi in net._pre[ti] and pi in net._post[ti]:
                pure = False
                witnesses.setdefault("pure", (p, t))

    choice_free = True
    for p in net.places:
        consumers = net.place_postset(p)
        if len(consumers) > 1:
            choice_free = False
            witnesses.setdefault("choice_free", (p, consumers[0], consumers[1]))
            break

    equal_conflict = True
    free_choice = plain
    nt = len(net.transitions)
    for i in range(nt):
        for j in range(i + 1, nt):
            if not (set(net._pre[i]) & set(net._pre[j])):
                continue
            if _input_vector(net, i) != _input_vector(net, j):
                if equal_conflict:
                    equal_conflict = False
                    witnesses["equal_conflict"] = (net.transitions[i], net.transitions[j])
                if free_choice:
                    free_choice = False
                    witnesses["free_choice"] = (net.transitions[i], net.transitions[j])
    if not plain:
        free_choice = False
        witnesses.setdefault("free_choice", witnesses.get("plain"))

    dissymmetric = asymmetric = dc_tilde = None
    if plain:
        dissymmetric = True
        for i in range(nt):
            for j in range(i + 1, nt):
                pre_i, pre_j = set(net._pre[i]), set(net._pre[j])
                if pre_i & pre_j and not (pre_i <= pre_j or pre_j <= pre_i):
                    dissymmetric = False
                    witnesses["dissymmetric_choice"] = (net.transitions[i], net.transitions[j])
                    break
            if not dissymmetric:
                break

        asymmetric = True
        np_ = len(net.places)
        post = [set(net.place_postset(p)) for p in net.places]
        prod = [set(net.place_preset(p)) for p in net.places]
        for i in range(np_):
            for j in range(i + 1, np_):
                if post[i] & post[j] and not (post[i] <= post[j] or post[j] <= post[i]):
                    asymmetric = False
                    witnesses["asymmetric_choice"] = (net.places[i], net.places[j])
                    break
            if not asymmetric:
                break

        # ordered-pair condition: shared consumers force either postset
        # inclusion one way or producer inclusion the other way
        dc_tilde = True
        for i in range(np_):
            for j in range(np_):
                if i == j or not (post[i] & post[j]):
                    continue
                if not (post[i] <= post[j] or prod[j] <= prod[i]):
                    dc_tilde = False
                    witnesses["dc_tilde"] = (net.places[i], net.places[j])
                    break
            if not dc_tilde:
                break

    report = ClassReport(
        plain=plain, pure=pure, choice_free=choice_free, free_choice=free_choice,
        equal_conflict=equal_conflict, dissymmetric_choice=dissymmetric,
        asymmetric_choice=asymmetric, dc_tilde=dc_tilde, witnesses=witnesses)
    net.__dict__["_class_report"] = report
    return report


def replay_class_witness(net: Net, flag: str, witness) -> bool:
    """Re-falsify a flag from its witness; True iff the witness is genuine."""
    if flag == "plain":
        x, y, w = witness
        if x in net._pidx:
            return net.pre_weight(x, y) == w and w > 1
        return net.post_weight(x, y) == w and w > 1
    if flag == "pure":
        p, t = witness
        return net.pre_weight(p, t) > 0 and net.post_weight(t, p) > 0
    if flag == "choice_free":
        p, t1, t2 = witness
        return t1 != t2 and net.pre_weight(p, t1) > 0 and net.pre_weight(p, t2) > 0
    if flag in ("free_choice", "equal_conflict"):
        if flag == "free_choice" and len(witness) == 3:
            return replay_class_witness(net, "plain", witness)
        t1, t2 = witness
        i, j = net.transition_index(t1), net.transition_index(t2)
        return bool(set(net._pre[i]) & set(net._pre[j])) and \
            _input_vector(net, i) != _input_vector(net, j)
    if flag == "dissymmetric_choice":
        t1, t2 = witness
        a, b = set(net._pre[net.transition_index(t1)]), set(net._pre[net.transition_index(t2)])
        return bool(a & b) and not (a <= b or b <= a)
    if flag == "asymmetric_choice":
        p1, p2 = witness
        a, b = set(net.place_postset(p1)), set(net.place_postset(p2))
        return bool(a & b) and not (a <= b or b <= a)
    if flag == "dc_tilde":
        p1, p2 = witness
        a, b = set(net.place_postset(p1)), set(net.place_postset(p2))
        pa, pb = set(net.place_preset(p1)), set(net.place_preset(p2))
        return bool(a & b) and not (a <= b or pb <= pa)
    raise InputError(f"unknown class flag '{flag}'")


# -- constructions -------------------------------------------------------------

def reverse_dual(net: Net) -> Net:
    """Swap the roles of places and transitions and reverse every arc.

    The result has no meaningful marking; it is flagged structural-only and
    behavioural operations reject it.
    """
    arcs = []
    for ti, t in enumerate(net.transitions):
        for pi, w in net._pre[ti].items():
            arcs.append((t, net.places[pi], w))      # old p->t becomes t->p
        for pi, w in net._post[ti].items():
            arcs.append((net.places[pi], t, w))      # old t->p becomes p->t
    return Net(f"rd({net.name})", places=net.transitions, transitions=net.places,
               arcs=arcs, marking={}, structural_only=True)


def _sum_rename(n1: Net, n2: Net):
    left_ids = set(n1.places) | set(n1.transitions)
    right_ids = set(n2.places) | set(n2.transitions)
    clash = left_ids & right_ids

    def left(x):
        return f"l.{x}" if x in clash else x

    def right(x):
        return f"r.{x}" if x in clash else x

    return left, right


def disjoint_sum(n1: Net, n2: Net, name=None) -> Net:
    """Place the two nets side by side with no shared elements.

    Ids colliding across the two nets are prefixed "l." / "r."; every element
    of the result is tagged with its component so runs can be projected back.
    """
    left, right = _sum_rename(n1, n2)
    places = [left(p) for p in n1.places] + [right(p) for p in n2.places]
    transitions = [left(t) for t in n1.transitions] + [right(t) for t in n2.transitions]
    arcs = [(left(s), left(d), w) for s, d, w in n1.arcs()] + \
           [(right(s), right(d), w) for s, d, w in n2.arcs()]
    marking = {left(p): n1.initial[i] for i, p in enumerate(n1.places) if n1.initial[i]}
    marking.update(
        {right(p): n2.initial[i] for i, p in enumerate(n2.places) if n2.initial[i]})
    components = {left(x): "l" for x in (*n1.places, *n1.transitions)}
    components.update({right(x): "r" for x in (*n2.places, *n2.transitions)})
    return Net(name or f"{n1.name}+{n2.name}", places, transitions, arcs, marking,
               components=components)


def project_sequence(net: Net, seq, component: str):
    """Erase the other component's transitions from a run over a sum net.

    Accepts a finite sequence (any iterable of transition ids) or a lasso
    (an object with .prefix and .cycle); a lasso whose cycle projects to
    nothing collapses to a finite sequence.
    """
    if net.components is None:
        raise InputError(f"net '{net.name}' carries no component tags")
    tags = set(net.components.values())
    if component not in tags:
        raise InputError(f"unknown component '{component}' (have {sorted(tags)})")

    def keep(word):
        out = []
        for t in word:
            net.transition_index(t)
            if net.components.get(t) == component:
                out.append(t)
        return tuple(out)

    if hasattr(seq, "prefix") and hasattr(seq, "cycle"):
        prefix, cycle = keep(seq.prefix), keep(seq.cycle)
        if not cycle:
            return prefix
        return type(seq)(prefix=prefix, cycle=cycle)
    return keep(seq)


def restrict_to_component(net: Net, component: str, name=None) -> Net:
    """The sub-net of a disjoint sum consisting of one component."""
    if net.components is None:
        raise InputError(f"net '{net.name}' carries no component tags")
    places = [p for p in net.places if net.components.get(p) == component]
    transitions = [t for t in net.transitions if net.components.get(t) == component]
    keep = set(places) | set(transitions)
    arcs = [(s, d, w) for s, d, w in net.arcs() if s in keep and d in keep]
    marking = {p: net.initial[net.place_index(p)] for p in places}
    return Net(name or f"{net.name}[{component}]", places, transitions, arcs, marking)
