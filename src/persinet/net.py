"""Petri net data model: the firing rule, structural class predicates, and
net-level constructions (reverse dual, disjoint sum, sequence projection).

A net is a bipartite structure of places and transitions joined by weighted
flow arcs, together with an initial marking.  Markings are plain tuples of
token counts in net place order, so they hash fast and can be shared freely.
Nets are immutable after construction and every operation in this module is
a pure function; concurrent analysis workers need no coordination.  A net
does carry caches (its class report and its compiled firing kernel), each
derived from the immutable parts alone: workers that race to fill one may
each compute it, which wastes time only, since every result is correct.

Identifiers are strings.  Internally each id maps to a dense index assigned
in declaration order; all enumerations (witness search, canonical firing
order) iterate in that order so results are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Optional, Sequence

from .errors import (
    InputError,
    NotEnabledError,
    UnknownIdError,
    UnsupportedClassError,
)

Marking = tuple  # token counts, one entry per place, in net place order

#: prefix -> the ids prefix0, prefix1, ... made so far, one tuple that grows
#: to the longest run asked for (see _numbered)
_NUMBERED = {}


def _numbered(prefix: str, n: int) -> tuple:
    """The ids prefix0 .. prefix{n-1}, sliced from one shared tuple, so that
    the generator's places and transitions and build_rg's states M0.. are
    named without making a string per net or per graph.  The tuple grows
    on demand; workers that race to grow it each build the same strings,
    which wastes time only."""
    ids = _NUMBERED.get(prefix, ())
    if len(ids) < n:
        ids = _NUMBERED[prefix] = ids + tuple([f"{prefix}{i}" for i in range(len(ids), n)])
    return ids[:n]


class Net:
    """An initially marked, arc-weighted place/transition net.

    Arcs are given as (source, target, weight) triples; the direction of an
    arc disambiguates input weights F(p,t) from output weights F(t,p).
    Absent arcs mean weight zero, explicit zero weights are rejected.

    The constructor validates everything it is given.  Code that holds a
    valid net, or builds one from its own ids and weights, constructs it at
    index level with Net._of_indices instead.  Both paths end in _finish,
    which derives the index tables.
    """

    def __init__(self, name, places, transitions, arcs=(), marking=None,
                 structural_only=False, components=None):
        places = tuple(places)
        transitions = tuple(transitions)
        pidx = {p: i for i, p in enumerate(places)}
        tidx = {t: i for i, t in enumerate(transitions)}
        if len(pidx) != len(places):
            raise InputError(f"net '{name}': duplicate place ids")
        if len(tidx) != len(transitions):
            raise InputError(f"net '{name}': duplicate transition ids")
        overlap = pidx.keys() & tidx.keys()
        if overlap:
            raise InputError(
                f"net '{name}': ids used both as place and transition: {sorted(overlap)}")

        pre = [{} for _ in transitions]
        post = [{} for _ in transitions]
        for src, dst, w in arcs:
            if not isinstance(w, int) or w < 1:
                raise InputError(f"net '{name}': arc {src} -> {dst} weight must be >= 1")
            if src in pidx and dst in tidx:
                tgt = pre[tidx[dst]]
                key = pidx[src]
            elif src in tidx and dst in pidx:
                tgt = post[tidx[src]]
                key = pidx[dst]
            else:
                raise UnknownIdError(
                    f"net '{name}': arc {src} -> {dst} does not join a declared "
                    f"place and transition")
            if key in tgt:
                raise InputError(f"net '{name}': duplicate arc {src} -> {dst}")
            tgt[key] = w

        marking = dict(marking or {})
        for p in marking:
            if p not in pidx:
                raise UnknownIdError(f"net '{name}': marked place '{p}' not declared")
        tokens = []
        for p in places:
            n = marking.get(p, 0)
            if not isinstance(n, int) or n < 0:
                raise InputError(f"net '{name}': marking of '{p}' must be a natural")
            tokens.append(n)
        self._finish(name, places, transitions, pre, post, tuple(tokens),
                     structural_only, components)

    @classmethod
    def _of_indices(cls, name, places, transitions, pre, post, initial) -> "Net":
        """The net of per-transition {place index: weight} dicts pre and post
        and the token tuple initial, which it keeps as given.

        Nothing is validated: places and transitions must be tuples of
        distinct ids, disjoint from each other, every weight an int >= 1 and
        initial one natural per place.  So only code that starts from a
        valid net (_sub_net) or from its own construction (the generator)
        may call it.
        """
        net = cls.__new__(cls)
        net._finish(name, places, transitions, pre, post, initial)
        return net

    def _finish(self, name, places, transitions, pre, post, initial,
                structural_only=False, components=None):
        """Store a valid net's parts and derive its index tables: the one
        place where the id indices, the firing rows and _max_out are made."""
        self.name = name
        self.places = places
        self.transitions = transitions
        self._pidx = dict(zip(places, range(len(places))))
        self._tidx = dict(zip(transitions, range(len(transitions))))
        # sparse weights per transition index: {place index: weight}
        self._pre = pre
        self._post = post
        # the same weights as (place index, weight) pairs, which the firing
        # primitives iterate faster than dicts
        self._inputs = tuple([tuple(row.items()) for row in pre])
        self._outputs = tuple([tuple(row.items()) for row in post])
        #: the largest output arc weight: no firing adds more to a place
        self._max_out = max([max(row.values()) for row in post if row], default=0)
        self.initial = initial
        #: True for nets produced by reverse_dual: the marking carries no
        #: semantics and behavioural operations must reject the net.
        self.structural_only = bool(structural_only)
        #: id -> component tag, present only on disjoint sums.
        self.components = dict(components) if components else None
        # Every per-net cache is declared here, so that all nets share one
        # attribute layout from construction on: CPython specialises the
        # attribute loads of the firing loops on that layout, and an
        # attribute added later slows every load on the net.
        #: classify_structure's report, made on first call
        self._class_report = None
        #: calls into the generic firing loops, counted up to _KERNEL_RENT
        self._calls = 0
        #: the compiled firing kernel (_compile_kernel), None until the net
        #: has made _KERNEL_RENT calls: the enabling function of a marking
        #: and the successor function per transition index, and, on
        #: behavioural nets only, the enabling function naming what it finds
        #: and the successor per transition name
        self._k_enabled = None
        self._k_succ = None
        self._k_names = None
        self._k_fire = None

    # -- id/index bookkeeping ------------------------------------------------

    def place_index(self, p):
        try:
            return self._pidx[p]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise UnknownIdError(f"unknown place '{p}'") from None

    def transition_index(self, t):
        try:
            return self._tidx[t]
        except (KeyError, TypeError):  # TypeError: an unhashable id
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

    def place_preset(self, p):
        """Transitions producing into p, in declaration order."""
        pi = self.place_index(p)
        return tuple(t for ti, t in enumerate(self.transitions) if pi in self._post[ti])

    def place_postset(self, p):
        """Transitions consuming from p, in declaration order."""
        pi = self.place_index(p)
        return tuple(t for ti, t in enumerate(self.transitions) if pi in self._pre[ti])

    def marking_dict(self, m: Marking) -> dict:
        return {p: m[i] for i, p in enumerate(self.places) if m[i]}

    def _check_behavioural(self):
        if self.structural_only:
            raise UnsupportedClassError(
                f"net '{self.name}' is structural-only (reverse dual); "
                f"its marking carries no semantics")

    def _check_marking(self, m):
        if type(m) is not tuple:
            raise InputError(
                f"marking must be a tuple of token counts, got {type(m).__name__}")
        if len(m) != len(self.places):
            raise InputError(
                f"marking has {len(m)} entries, net '{self.name}' has "
                f"{len(self.places)} places")

    def _check_state(self, m):
        """The check of every public entry point taking a marking:
        _check_behavioural, then _check_marking, behind one test of their
        conditions so that valid input costs one branch."""
        if self.structural_only or type(m) is not tuple or len(m) != len(self.places):
            self._check_behavioural()
            self._check_marking(m)

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
#
# _enabled_i and _fire_i first run the generic loops below, which read the
# arc tables.  Once a net has made _KERNEL_RENT calls into them it gets a
# compiled firing kernel (_compile_kernel): straight-line Python with the
# net's place indices and weights written in as literals, over the marking
# unpacked into locals, which the primitives use from then on.  fire and
# enabled_transitions go to the kernel first, by transition name, and
# validate only what it does not take: since every kernel function starts
# by unpacking the marking, a tuple of the wrong length cannot pass it.
# The generic loops stay the reference the kernel is tested against.

#: A net's firing kernel is compiled once the net has made this many calls
#: into the generic loops of _enabled_i (the full test) and _fire_i.  The
#: rent follows the ski-rental rule: buy once the rent paid so far would
#: have paid for the purchase.  Under CPython 3.11, compiling fig1_basic
#: (5 places, 4 transitions) costs about 0.4 ms and its kernel saves about
#: 0.25 us a firing and 0.35 us an enabling test, and 0.3 and 0.75 us a
#: call to fire and enabled_transitions, so it breaks even after some 1,000
#: calls; bigger nets cost more to compile and save more a call
#: (fig1_basic + par4: 1.25 ms, and 0.2 us a firing, 0.8 us an enabling
#: test, 0.5 and 1.3 us a call to fire and enabled_transitions).  Of the
#: about 8,000 nets of a theorem-lab benchmark round, 23 reach 512 calls
#: and two or three 1,024.
_KERNEL_RENT = 1024

#: A compiled successor is one tuple display of the next marking on nets
#: of at most this many places, and a list patched at the changed places
#: above: the display costs a term per place, the list a copy and one
#: statement per changed place, beside the unpacking both pay.  CPython
#: compiles a display of more than 30 terms through a list, which costs
#: the display its lead.  Timed per call under CPython 3.11, a successor
#: changing two places, display against list: 210 against 390 ns at 13
#: places, 390 against 610 ns at 29, 400 against 630 ns at 30, 690 against
#: 650 ns at 31, 730 against 690 ns at 32.
_DISPLAY_PLACES = 30


def _compile_kernel(net: Net):
    """Compile the net's firing kernel, store it on the net and return it as
    (enabled, successors).

    enabled(m) is _enabled_i(net, m): one straight-line test per transition,
    in declaration order.  successors[ti](m) is _fire_i(net, m, ti): the
    test of ti, then its next marking (m itself when firing changes
    nothing).  Every function first unpacks m into the locals x0, x1, ...,
    so a tuple of the wrong length raises ValueError in any of them.  On a
    behavioural net the same exec also makes what fire and
    enabled_transitions call: enabled_names(m), the enabling tests giving
    a tuple of transition names, stored as net._k_names, and the dict from
    transition name to successor, net._k_fire.  The source holds integer
    literals only, place indices and weights passed through int(), never
    an id: the names are bound in the exec namespace as N0, N1, ....
    """
    n_places = len(net.places)
    unpack = f"    {''.join([f'x{pi}, ' for pi in range(n_places)]) or '() '}= m"
    tests = [" and ".join([f"x{int(pi)} >= {int(w)}" for pi, w in inputs])
             for inputs in net._inputs]
    lines = []
    for name, item, result in (("enabled", "{}", "out"),
                               ("enabled_names", "N{}", "tuple(out)")):
        lines += [f"def {name}(m):", unpack, "    out = []", "    app = out.append"]
        for ti, test in enumerate(tests):
            app = f"app({item.format(ti)})"
            lines.append(f"    if {test}: {app}" if test else f"    {app}")
        lines.append(f"    return {result}")
    display = n_places <= _DISPLAY_PLACES
    for ti, (pre, post) in enumerate(zip(net._pre, net._post)):
        lines += [f"def s{ti}(m):", unpack]
        if pre:
            test = " or ".join([f"x{int(pi)} < {int(w)}" for pi, w in pre.items()])
            lines.append(f"    if {test}: return None")
        change = {}  # place index -> the token change, for the places that change
        for pi in sorted({*pre, *post}):
            d = int(post.get(pi, 0)) - int(pre.get(pi, 0))
            if d:
                change[int(pi)] = d
        if not change:
            lines.append("    return m")
        elif display:
            terms = "".join([f"x{pi} {change[pi]:+d}, " if pi in change else f"x{pi}, "
                             for pi in range(n_places)])
            lines.append(f"    return ({terms})")
        else:
            lines.append("    out = list(m)")
            lines.extend([f"    out[{pi}] = x{pi} {d:+d}" for pi, d in change.items()])
            lines.append("    return tuple(out)")
    successors = "".join([f"s{ti}, " for ti in range(len(net.transitions))])
    lines.append(f"successors = ({successors})")
    by_name = "".join([f"N{ti}: s{ti}, " for ti in range(len(net.transitions))])
    lines.append(f"by_name = {{{by_name}}}")
    namespace = {f"N{ti}": t for ti, t in enumerate(net.transitions)}
    exec(compile("\n".join(lines), "<persinet firing kernel>", "exec"), namespace)
    net._k_succ = namespace["successors"]
    net._k_enabled = namespace["enabled"]
    if not net.structural_only:
        net._k_names = namespace["enabled_names"]
        net._k_fire = namespace["by_name"]
    return namespace["enabled"], namespace["successors"]


def _enabled_i(net: Net, m: Marking, among=None) -> list:
    """Indices of the transitions enabled at m, in declaration order.

    among, an increasing sequence of indices, restricts the test to them;
    it always runs the generic loop.
    """
    inputs = net._inputs
    if among is None:
        kernel = net._k_enabled
        if kernel is not None:
            return kernel(m)
        net._calls = calls = net._calls + 1
        if calls >= _KERNEL_RENT:
            return _compile_kernel(net)[0](m)
        among = range(len(inputs))
    out = []
    for ti in among:
        for pi, w in inputs[ti]:
            if m[pi] < w:
                break
        else:
            out.append(ti)
    return out


def _fire_i(net: Net, m: Marking, ti: int) -> Optional[Marking]:
    """The marking after firing transition index ti at m, or None when m
    does not enable ti."""
    successors = net._k_succ
    if successors is not None:
        return successors[ti](m)
    net._calls = calls = net._calls + 1
    if calls >= _KERNEL_RENT:
        return _compile_kernel(net)[1][ti](m)
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


def _may_disable(net: Net) -> list:
    """The may-disable table: per transition index t, the increasing indices
    u != t that firing t can disable.  Firing t lowers the tokens on p only
    if post_t(p) < pre_t(p), and it can disable u only by lowering a place
    of u's preset, so every other u keeps its enabling.  A self-loop on p
    (post_t(p) >= pre_t(p)) lists none of p's other consumers."""
    consumers = [[] for _ in net.places]
    for ui, pre in enumerate(net._pre):
        for pi in pre:
            consumers[pi].append(ui)
    table = []
    for ti, (pre, post) in enumerate(zip(net._pre, net._post)):
        hit = {ui for pi, w in pre.items() if post.get(pi, 0) < w
               for ui in consumers[pi]}
        hit.discard(ti)
        table.append(sorted(hit))
    return table


def _joined(place_sets) -> tuple:
    """Union-find joining transitions that share a place of place_sets (the
    place indices of each transition, in index order).  Returns each
    transition's least joined transition and each place's first transition.
    A union hangs the larger root under the smaller and a find halves its
    path (Tarjan and van Leeuwen, JACM 31(2), 1984), so parent[x] <= x, and
    one pass in index order points every transition at its root."""
    parent, first = [], {}
    for ti, places in enumerate(place_sets):
        parent.append(ti)
        r = ti  # the root of ti's tree: only this transition's unions move it
        for pi in places:
            a = first.setdefault(pi, ti)
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            if a < r:
                parent[r] = r = a
            elif a > r:
                parent[a] = r
    for x, p in enumerate(parent):
        parent[x] = parent[p]  # p <= x, and p already points at its root
    return parent, first


def _components(net: Net) -> list:
    """The connected components of the net as (transition indices, place
    indices) pairs, both increasing, ordered by least transition index:
    _joined over the places of each transition's arcs, in either direction.
    A place with no arc lies in none.  Like _may_disable it is built per
    call and stored on no Net."""
    root, owner = _joined(map(chain, net._pre, net._post))
    groups = {}
    for ti, r in enumerate(root):
        groups.setdefault(r, ([], []))[0].append(ti)
    for pi in sorted(owner):
        groups[root[owner[pi]]][1].append(pi)
    return list(groups.values())


def _sub_net(net: Net, transitions, places, m: Marking, name=None) -> Net:
    """The net of the given transition and place indices, with every arc
    between them and marking m restricted to the places."""
    P, T = net.places, net.transitions
    sub = {pi: i for i, pi in enumerate(places)}  # place index -> sub-net index
    pre = [{sub[pi]: w for pi, w in net._inputs[ti] if pi in sub} for ti in transitions]
    post = [{sub[pi]: w for pi, w in net._outputs[ti] if pi in sub} for ti in transitions]
    return Net._of_indices(name or f"{net.name}[{T[transitions[0]]}]",
                           tuple([P[pi] for pi in places]),
                           tuple([T[ti] for ti in transitions]), pre, post,
                           tuple([m[pi] for pi in places]))


def enabled(net: Net, m: Marking, t: str) -> bool:
    """True iff every place holds at least the input weight of t."""
    net._check_state(m)
    return bool(_enabled_i(net, m, (net.transition_index(t),)))


def deficient_place(net: Net, m: Marking, t: str) -> Optional[str]:
    """First place (declaration order) blocking t at m, or None if enabled."""
    net._check_state(m)
    ti = net.transition_index(t)
    for pi in sorted(net._pre[ti]):
        if m[pi] < net._pre[ti][pi]:
            return net.places[pi]
    return None


def fire(net: Net, m: Marking, t: str) -> Marking:
    """Fire t at m; raises NotEnabledError naming the deficient place.

    On a net with a compiled kernel a tuple goes straight to the successor
    of t by name.  Any input that does not fire there falls through to the
    validating path, which raises its errors: a marking of the wrong length
    fails the kernel's unpacking, an unknown or unhashable id misses the
    dict and a disabled step gets None.  An unknown id, hashable or not,
    raises UnknownIdError.
    """
    kernel = net._k_fire
    if kernel is not None and type(m) is tuple:
        try:
            m2 = kernel[t](m)
        except (KeyError, TypeError, ValueError):
            m2 = None
        if m2 is not None:
            return m2
    if net.structural_only or type(m) is not tuple or len(m) != len(net.places):
        net._check_state(m)  # _check_state's test, inlined: it raises here
    try:
        ti = net._tidx[t]
    except (KeyError, TypeError):
        ti = net.transition_index(t)  # raises UnknownIdError
    m2 = _fire_i(net, m, ti)
    if m2 is None:
        raise NotEnabledError(t, place=deficient_place(net, m, t))
    return m2


def _replay(net: Net, m: Marking, seq: Sequence[str]) -> list:
    """The markings m_0 .. m_n that seq visits from m, each step fired by
    fire: the one replay of a given word.  The empty sequence gives [m]
    unchecked; the first disabled step raises NotEnabledError carrying its
    index."""
    marks = [m]
    for i, t in enumerate(seq):
        try:
            m = fire(net, m, t)
        except NotEnabledError as exc:
            raise NotEnabledError(t, place=exc.place, index=i) from None
        marks.append(m)
    return marks


def fire_sequence(net: Net, m: Marking, seq: Sequence[str]) -> Marking:
    """The last marking of _replay: m itself for the empty sequence."""
    return _replay(net, m, seq)[-1]


def firable(net: Net, m: Marking, seq: Sequence[str]) -> bool:
    try:
        fire_sequence(net, m, seq)
        return True
    except NotEnabledError:
        return False


def enabled_transitions(net: Net, m: Marking):
    """Transitions enabled at m, in declaration order.

    On a net with a compiled kernel a tuple goes straight to its enabling
    test that names what it finds; one of the wrong length fails the
    kernel's unpacking and falls through to the validating path, as in fire.
    """
    kernel = net._k_names
    if kernel is not None and type(m) is tuple:
        try:
            return kernel(m)
        except ValueError:
            pass
    net._check_state(m)
    names = net.transitions
    return tuple([names[ti] for ti in _enabled_i(net, m)])


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
    net._check_state(m)
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


#: the ClassReport flag names, in field order: the last _PLAIN_ONLY of
#: them are defined for plain nets only
_FLAGS = tuple(f.name for f in fields(ClassReport) if f.name != "witnesses")
_PLAIN_ONLY = 3


# The pairwise class conditions, each defined once, as the search for its
# first offending pair: over a list of elements (the input-weight dicts of
# the transitions, or the (consumers, producers) index sets of the places)
# each returns the first index pair in declaration order on which the
# condition fails, or None.  Unordered pairs are tried as i < j, ordered
# ones as i != j.  The condition is written out inside the loop, so trying
# a pair makes no Python call.  "Tangled" sets meet, yet neither contains
# the other.

def _equal_conflict_pair(pre):
    """Conflicting transitions (sharing an input place) have one input vector."""
    for i, x in enumerate(pre):
        for j in range(i + 1, len(pre)):
            y = pre[j]
            if not x.keys().isdisjoint(y) and x != y:
                return i, j
    return None


def _dissymmetric_choice_pair(pre):
    """The presets of two transitions are never tangled."""
    for i, x in enumerate(pre):
        x = x.keys()
        for j in range(i + 1, len(pre)):
            y = pre[j].keys()
            if not x.isdisjoint(y) and not (x <= y or y <= x):
                return i, j
    return None


def _asymmetric_choice_pair(sides):
    """The postsets of two places are never tangled."""
    for i, (x, _) in enumerate(sides):
        for j in range(i + 1, len(sides)):
            y = sides[j][0]
            if not x.isdisjoint(y) and not (x <= y or y <= x):
                return i, j
    return None


def _dc_tilde_pair(sides):
    """Places with shared consumers show consumer inclusion one way or
    producer inclusion the other way (ordered pairs)."""
    for i, (xc, xp) in enumerate(sides):
        for j, (yc, yp) in enumerate(sides):
            if i != j and not xc.isdisjoint(yc) and not (xc <= yc or yp <= xp):
                return i, j
    return None


#: flag -> (elements compared: "transitions" or "places", the search for
#: its first offending pair).  replay_class_witness runs the same search
#: on the two elements of a witness.
_PAIR_CLASSES = {
    "equal_conflict": ("transitions", _equal_conflict_pair),
    "dissymmetric_choice": ("transitions", _dissymmetric_choice_pair),
    "asymmetric_choice": ("places", _asymmetric_choice_pair),
    "dc_tilde": ("places", _dc_tilde_pair),
}


def _place_sides(net: Net) -> list:
    """Per place, in declaration order, its (consumers, producers) as sets of
    transition indices."""
    sides = [(set(), set()) for _ in net.places]
    for ti, (ins, outs) in enumerate(zip(net._pre, net._post)):
        for pi in ins:
            sides[pi][0].add(ti)
        for pi in outs:
            sides[pi][1].add(ti)
    return sides


def classify_structure(net: Net) -> ClassReport:
    """Evaluate the structural class predicates from their definitions.

    Nothing is assumed: plainness and pureness are recomputed even for nets
    that were generated to satisfy them.  A witness is the first offending
    arc, pair or place in declaration order.  Nets are immutable, so the
    report is cached in the net's _class_report slot, which _finish declares
    with the net's other caches.

    One pass over the arcs builds the place sides, one over the places
    finds the pure and choice-free witnesses, and each pairwise flag is one
    call of its search in _PAIR_CLASSES.  The arcs are sorted for the plain
    witness only when some weight exceeds 1.
    """
    cached = net._class_report
    if cached is not None:
        return cached
    pre, post = net._pre, net._post
    witnesses = {}
    if net._max_out > 1 or any(w > 1 for ins in pre for w in ins.values()):
        for ti, t in enumerate(net.transitions):
            for pi in sorted(pre[ti]):
                if pre[ti][pi] > 1:
                    witnesses.setdefault("plain", (net.places[pi], t, pre[ti][pi]))
            for pi in sorted(post[ti]):
                if post[ti][pi] > 1:
                    witnesses.setdefault("plain", (t, net.places[pi], post[ti][pi]))
    plain = not witnesses

    sides = _place_sides(net)
    for p, (consumers, producers) in zip(net.places, sides):
        if not consumers.isdisjoint(producers):
            witnesses.setdefault("pure", (p, net.transitions[min(consumers & producers)]))
        if len(consumers) > 1:
            t1, t2 = sorted(consumers)[:2]
            witnesses.setdefault("choice_free", (p, net.transitions[t1], net.transitions[t2]))

    elements = {"transitions": pre, "places": sides}
    for flag, (kind, first_pair) in _PAIR_CLASSES.items():
        if plain or flag == "equal_conflict":  # the others: plain nets only
            pair = first_pair(elements[kind])
            if pair is not None:
                names = getattr(net, kind)
                witnesses[flag] = (names[pair[0]], names[pair[1]])
    # free choice is equal conflict on a plain net, and fails off plain nets
    if not plain or "equal_conflict" in witnesses:
        witnesses["free_choice"] = witnesses["equal_conflict" if plain else "plain"]

    # every flag holds iff it has no witness; plain-only flags read None
    # ("not applicable") off plain nets
    holds = [flag not in witnesses for flag in _FLAGS]
    if not plain:
        holds[-_PLAIN_ONLY:] = [None] * _PLAIN_ONLY
    report = net._class_report = ClassReport(*holds, witnesses=witnesses)
    return report


def replay_class_witness(net: Net, flag: str, witness) -> bool:
    """Re-falsify a flag from its witness; True iff the witness is genuine.

    A pairwise flag runs the very search classify_structure uses on the
    witness's two elements, which offend iff (0, 1) is their first pair.
    """
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
    if flag == "free_choice":
        if len(witness) == 3:
            return replay_class_witness(net, "plain", witness)
        flag = "equal_conflict"
    if flag not in _PAIR_CLASSES:
        raise InputError(f"unknown class flag '{flag}'")
    kind, first_pair = _PAIR_CLASSES[flag]
    if kind == "transitions":
        x, y = (net._pre[net.transition_index(t)] for t in witness)
    else:
        sides = _place_sides(net)
        x, y = (sides[net.place_index(p)] for p in witness)
    return first_pair([x, y]) == (0, 1)


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
    tag = net.components.get
    return _sub_net(net, [ti for ti, t in enumerate(net.transitions) if tag(t) == component],
                    [pi for pi, p in enumerate(net.places) if tag(p) == component],
                    net.initial, name or f"{net.name}[{component}]")
