"""LTS patterns with mandatory arcs and excluded enablings, a complete
backtracking embedding search, the two built-in diagnostic patterns, and the
constructive derivation of a non-DC witness from a nonpersistent state.

A pattern is a partial LTS shape: its arcs must map onto actual edges and
its exclusions onto (state, label) pairs with no outgoing edge.  The label
part of an embedding is injective (two pattern labels may not fuse); the
state part may fuse states, and how much fusion occurs is reported rather
than restricted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Optional

from .errors import (
    InputError,
    InvariantError,
    PreconditionError,
    ResourceExceededError,
    UnknownIdError,
    UnsupportedClassError,
    check_budgets,
)
from .lts import Lts, complete_rg, persistence_check, shortest_path
from .net import Net, classify_structure, fire, fire_sequence
from .sequences import (
    SPE_PARIKH,
    _realisations,
    parikh,
    spe_check,
    unify_parikh_equivalent,
)


class Pattern:
    """A quadruple of states, labels, mandatory arcs and excluded enablings."""

    def __init__(self, name, states, labels, arcs, exclusions):
        states = tuple(states)
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise InputError(f"pattern '{name}': duplicate labels")
        if len(set(states)) != len(states):
            raise InputError(f"pattern '{name}': duplicate states")
        sset, lset = set(states), set(labels)
        arcs = tuple(arcs)
        exclusions = tuple(exclusions)
        for s, a, s2 in arcs:
            if s not in sset or s2 not in sset or a not in lset:
                raise UnknownIdError(f"pattern '{name}': arc ({s},{a},{s2}) undeclared id")
        for s, a in exclusions:
            if s not in sset or a not in lset:
                raise UnknownIdError(f"pattern '{name}': exclusion ({s},{a}) undeclared id")
        self.name = name
        self.states = states
        self.labels = labels
        self.arcs = arcs
        self.exclusions = exclusions

    def __repr__(self):
        return (f"Pattern({self.name!r}, |S|={len(self.states)}, "
                f"arcs={len(self.arcs)}, excl={len(self.exclusions)})")

    def __eq__(self, other):
        if not isinstance(other, Pattern):
            return NotImplemented
        return (self.name == other.name and self.states == other.states
                and self.labels == other.labels and self.arcs == other.arcs
                and self.exclusions == other.exclusions)

    __hash__ = None


@dataclass
class Embedding:
    """A structure-preserving map of a pattern into an LTS.

    state_map need not be injective; label_map must be.
    """

    state_map: dict
    label_map: dict


def builtin_pattern(name: str) -> Pattern:
    """The two shipped diagnostic patterns.

    "nonpers": a state enabling two labels where executing one disables the
    other; its presence in a reachability graph shows the net nonpersistent.

    "nonDC": a choice state with both legs disabled across the diamond plus
    two one-sided enablings; its presence shows the net is not dissymmetric
    choice.
    """
    if name == "nonpers":
        return Pattern(
            "nonpers",
            states=("1", "2", "3"),
            labels=("a", "b"),
            arcs=(("1", "a", "2"), ("1", "b", "3")),
            exclusions=(("2", "b"),),
        )
    if name == "nonDC":
        return Pattern(
            "nonDC",
            states=("s1", "s2", "s3", "s4", "s5", "s6", "s7"),
            labels=("a", "b"),
            arcs=(("s1", "a", "s3"), ("s2", "b", "s5"),
                  ("s4", "a", "s6"), ("s4", "b", "s7")),
            exclusions=(("s1", "b"), ("s2", "a"), ("s6", "b"), ("s7", "a")),
        )
    raise InputError(f"unknown builtin pattern '{name}' (have: nonpers, nonDC)")


def validate_embedding(pattern: Pattern, lts: Lts, emb: Embedding) -> list:
    """All violations of the embedding conditions; empty means valid."""
    problems = []
    for s in pattern.states:
        if emb.state_map.get(s) not in lts.states:
            problems.append(f"state '{s}' unmapped or mapped outside the LTS")
    for a in pattern.labels:
        if emb.label_map.get(a) not in lts.labels:
            problems.append(f"label '{a}' unmapped or mapped outside the LTS")
    if problems:
        return problems
    values = [emb.label_map[a] for a in pattern.labels]
    if len(set(values)) != len(values):
        problems.append("label map fuses labels (must be injective)")
    for s, a, s2 in pattern.arcs:
        edge = (emb.state_map[s], emb.label_map[a], emb.state_map[s2])
        if edge[2] not in lts.successors(edge[0], edge[1]):
            problems.append(f"mandatory arc ({s},{a},{s2}) maps to missing edge {edge}")
    for s, a in pattern.exclusions:
        if lts.successors(emb.state_map[s], emb.label_map[a]):
            problems.append(
                f"exclusion ({s},{a}) maps to an enabled pair "
                f"({emb.state_map[s]},{emb.label_map[a]})")
    return problems


def _candidate_plan(pattern, state_order):
    """For each state of the search order, where its candidates come from.

    ("succ", p, a): targets of the arc p -a-> s from an earlier state p;
    ("pred", q, a): sources of the arc s -a-> q into an earlier state q;
    ("enab", a): states enabling the label of an arc leaving s;
    ("all",): every state.  Each is a superset of the states that can
    complete an embedding, so the search visits the same solutions.
    """
    plan = []
    for i, s in enumerate(state_order):
        earlier = set(state_order[:i])
        step = next((("succ", p, a) for p, a, q in pattern.arcs
                     if q == s and p in earlier), None)
        step = step or next((("pred", q, a) for p, a, q in pattern.arcs
                             if p == s and q in earlier), None)
        step = step or next((("enab", a) for p, a, _ in pattern.arcs if p == s), None)
        plan.append(step or ("all",))
    return plan


def _disable_triangles(pattern):
    """The pattern's disable triangles, as pairs (x, y) of positions in
    pattern.labels: some arc p -x-> q ends at a state q that excludes y,
    and p has an arc labelled y."""
    position = {a: i for i, a in enumerate(pattern.labels)}
    leaving: dict = {}
    for p, a, _ in pattern.arcs:
        leaving.setdefault(p, set()).add(a)
    excluded = set(pattern.exclusions)
    return sorted({(position[x], position[y]) for p, x, q in pattern.arcs
                   for y in leaving[p] if (q, y) in excluded})


def _disable_pairs(lts):
    """Per label index a, the bitset of the label indices b that some edge
    s -a-> t disables: b is enabled at s and not at t.  One pass over the
    index rows, after a bitset of the enabled labels per state."""
    rows = lts._rows
    bit = [1 << a for a in range(len(lts.labels))]
    enabled = [sum(map(bit.__getitem__, row)) for row in rows]
    disables = [0] * len(lts.labels)
    for row, here in zip(rows, enabled):
        for a, targets in row.items():
            for t in targets:
                disables[a] |= here & ~enabled[t]
    return disables


def find_embedding(pattern: Pattern, lts: Lts) -> Optional[Embedding]:
    """Complete backtracking search for an embedding; None if there is none.

    Labels are assigned before states, injectively and in LTS label order;
    states are ordered most-constrained first (by how many arcs and
    exclusions mention them) with declaration order as the tie-break, so
    the returned embedding is canonical.  Each state's candidates come from
    the index rows of the states already placed (see _candidate_plan) and
    are tried in LTS state order.

    A label map is skipped before any state is placed when it puts a
    disable triangle of the pattern on a label pair the LTS never disables
    (see _disable_triangles and _disable_pairs).  Lemma: if arc p -x-> q
    ends at a state q that excludes y and p has an arc labelled y, any
    embedding h has the edge h(p) -h(x)-> h(q) with h(y) enabled at h(p)
    and not at h(q), so some edge s -h(x)-> t disables h(y).  This holds
    for y = x and for any of several h(x)-successors of h(p).  Skipping
    such a map loses no embedding and keeps the order of the others, so
    the first embedding found is the same.  The LTS's disable pairs cost
    one pass over its edges, made only for a pattern with a triangle.
    """
    weight = {s: 0 for s in pattern.states}
    for s, _, s2 in pattern.arcs:
        weight[s] += 1
        weight[s2] += 1
    for s, _ in pattern.exclusions:
        weight[s] += 1
    decl = {s: i for i, s in enumerate(pattern.states)}
    state_order = sorted(pattern.states, key=lambda s: (-weight[s], decl[s]))
    plan = _candidate_plan(pattern, state_order)
    rows = lts._rows
    enablers: dict = {}

    def candidates(step, state_map, label_map):
        kind = step[0]
        if kind == "succ":
            return sorted(rows[state_map[step[1]]].get(label_map[step[2]], ()))
        if kind == "pred":
            rev = lts._reverse_rows()
            return sorted(rev[state_map[step[1]]].get(label_map[step[2]], ()))
        if kind == "enab":
            a = label_map[step[1]]
            if a not in enablers:
                enablers[a] = [i for i, row in enumerate(rows) if a in row]
            return enablers[a]
        return range(len(rows))

    triangles = _disable_triangles(pattern)
    disables = _disable_pairs(lts) if triangles else None

    for combo in permutations(range(len(lts.labels)), len(pattern.labels)):
        if not all(disables[combo[x]] >> combo[y] & 1 for x, y in triangles):
            continue
        label_map = dict(zip(pattern.labels, combo))
        state_map: dict = {}

        def consistent(s):
            for (p, a, q) in pattern.arcs:
                if p in state_map and q in state_map:
                    if state_map[q] not in rows[state_map[p]].get(label_map[a], ()):
                        return False
            for (p, a) in pattern.exclusions:
                if p in state_map and label_map[a] in rows[state_map[p]]:
                    return False
            return True

        def assign(i):
            if i == len(state_order):
                return True
            s = state_order[i]
            for cand in candidates(plan[i], state_map, label_map):
                state_map[s] = cand
                if consistent(s) and assign(i + 1):
                    return True
                del state_map[s]
            return False

        if assign(0):
            emb = Embedding({s: lts.states[i] for s, i in state_map.items()},
                            {a: lts.labels[i] for a, i in label_map.items()})
            if validate_embedding(pattern, lts, emb):
                raise InvariantError("embedding search returned an invalid embedding")
            return emb
    return None


def enumerate_embeddings(pattern: Pattern, lts: Lts):
    """Brute-force enumeration of every embedding (test oracle only)."""
    out = []
    for labels in permutations(lts.labels, len(pattern.labels)):
        for combo in product(lts.states, repeat=len(pattern.states)):
            emb = Embedding(dict(zip(pattern.states, combo)),
                            dict(zip(pattern.labels, labels)))
            if not validate_embedding(pattern, lts, emb):
                out.append(emb)
    return out


@dataclass
class RecognizeVerdict:
    found: bool
    embedding: Optional[Embedding]
    consequence: Optional[str]


_CONSEQUENCES = {
    "nonpers": "net is not persistent",
    "nonDC": "net is not a dissymmetric choice net",
}


def recognize(lts: Lts, name: str) -> RecognizeVerdict:
    """Search a built-in pattern in an LTS assumed to be a reachability graph.

    The caller is responsible for the assumption; the derived consequence is
    one-directional, so absence of the pattern yields no conclusion.
    """
    pattern = builtin_pattern(name)
    emb = find_embedding(pattern, lts)
    if emb is None:
        return RecognizeVerdict(False, None, None)
    return RecognizeVerdict(True, emb, _CONSEQUENCES[name])


@dataclass
class NonDcDerivation:
    """A derived non-DC witness: the embedding, the graph it lives in, and
    the named markings that build it up."""

    embedding: Embedding
    rg: Lts
    roles: dict       # pattern state -> marking
    legs: tuple       # the two conflicting transitions at the choice state
    via_construction: bool


_SEARCH_BOUND = 200000  # nodes a route search may visit


def derive_nonDC_embedding(net: Net, spe_bound: int = 8,
                           search_bound: int = _SEARCH_BOUND,
                           max_states: Optional[int] = None) -> NonDcDerivation:
    """Rebuild the non-DC pattern from a nearest nonpersistent marking.

    Requires a pure, plain, nonpersistent net on which every finite firing
    sequence up to spe_bound has a persistent Parikh equivalent.  The
    derivation finds the nearest nonpersistent marking M with conflicting
    legs a, b; persistent Parikh-equivalent routes to the two corners; and
    unifies each route with the direct one, producing the corner markings
    J1, J2 whose failed enablings complete the pattern.  The witness chosen
    for each route is whichever the canonical search returns first, with a
    preference for routes whose last letter avoids both legs; the embedding
    is re-validated, so the choice is safe.  If the unification hits its
    degenerate corner the complete pattern search stands in.  search_bound
    caps each route search, which turns pathological instances into a
    resource-exceeded report with a partial trace.
    """
    check_budgets(1, search_bound=search_bound)
    report = classify_structure(net)
    if not report.plain or not report.pure:
        raise UnsupportedClassError("the derivation needs a pure, plain net")
    rg, _ = complete_rg(net, max_states)

    # the graph is complete and its states are in BFS discovery order, so
    # the first nonpersistent state is a nearest one
    spot = persistence_check(rg).witness
    if spot is None:
        raise PreconditionError(f"net '{net.name}' is persistent; nothing to derive")

    verdict = spe_check(net, spe_bound, SPE_PARIKH)
    if verdict.refuted:
        raise PreconditionError(
            "premise failed: no persistent Parikh equivalent for "
            f"{' '.join(verdict.counterexample)}")
    return _construct_nonDC(net, rg, spot, spe_bound, search_bound)


def _construct_nonDC(net, rg, spot, spe_bound, search_bound):
    """derive_nonDC_embedding past its premise checks: rg is the net's
    complete reachability graph, spot its first persistence witness, and
    the Parikh premise holds up to spe_bound."""
    state, leg_a, leg_b = spot
    M = rg.payload[state]
    delta = shortest_path(rg, state)
    M1 = fire(net, M, leg_a)
    M2 = fire(net, M, leg_b)

    memo = {}  # one _steps memo for every route search

    def route(leg):
        target = parikh(delta + (leg,))
        # prefer a route whose last letter avoids both legs: a route ending
        # in the opposite leg cannot exclude that leg at its corner
        found = next(_realisations(net, net.initial, target, persistent=True,
                                   forbidden_last={leg_a, leg_b},
                                   node_budget=search_bound, memo=memo), None)
        if found is None:
            found = next(_realisations(net, net.initial, target, persistent=True,
                                       node_budget=search_bound, memo=memo), None)
        if found is None:
            if len(delta) + 1 > spe_bound:
                raise ResourceExceededError(
                    "no persistent Parikh equivalent found for "
                    f"{' '.join(delta + (leg,))}, which is longer than the "
                    f"verified bound {spe_bound}",
                    partial={"delta": delta, "leg": leg})
            raise InvariantError(
                "bounded check passed but the equivalent search failed for "
                f"{' '.join(delta + (leg,))}")
        return found

    alpha = route(leg_a)   # persistent, ends at M1
    beta_hat = route(leg_b)  # persistent, ends at M2

    try:
        K1 = fire_sequence(net, net.initial, alpha[:-1])
        K2 = fire_sequence(net, net.initial, beta_hat[:-1])
        if alpha[-1] == leg_a or beta_hat[-1] == leg_b or M in (K1, K2):
            raise InvariantError("persistent route to the corner passes the choice state")
        sigma1, J1 = unify_parikh_equivalent(net, alpha, delta + (leg_a,),
                                             check_premises=False)
        sigma2, J2 = unify_parikh_equivalent(net, delta + (leg_b,), beta_hat,
                                             check_premises=False)
        roles = {"s1": J1, "s2": J2, "s3": K1, "s4": M,
                 "s5": K2, "s6": M1, "s7": M2}
        emb = Embedding(
            state_map={s: rg.state_of_payload(mk) for s, mk in roles.items()},
            label_map={"a": leg_a, "b": leg_b})
        problems = validate_embedding(builtin_pattern("nonDC"), rg, emb)
        if problems:
            raise InvariantError("constructed embedding invalid: " + "; ".join(problems))
        constructed = NonDcDerivation(emb, rg, roles, (leg_a, leg_b), True)
    except (InvariantError, PreconditionError) as exc:
        # the constructive route hit a degenerate corner; the complete
        # backtracking search is slower but cannot miss an embedding
        emb = find_embedding(builtin_pattern("nonDC"), rg)
        if emb is None:
            # genuinely possible on unbounded-place conflicts: when the
            # conflicting presets are comparable and the shared place can
            # hold two tokens, persistent detours may cover every Parikh
            # vector while no state enables one leg without the other, so
            # no embedding exists although all premises hold
            raise PreconditionError(
                "the pattern is not embedded in this reachability graph "
                "although the premises hold; the conflict at the nearest "
                "nonpersistent marking does not produce the one-sided "
                f"enablings the pattern needs ({exc})") from None
        roles = {s: rg.payload[emb.state_map[s]] for s in emb.state_map}
        constructed = NonDcDerivation(
            emb, rg, roles, (emb.label_map["a"], emb.label_map["b"]), False)

    if constructed.via_construction:
        _check_near_injectivity(constructed)
    return constructed


def _check_near_injectivity(derivation: NonDcDerivation):
    """The construction's distinctness facts; failure is an internal bug."""
    r = derivation.roles
    must_differ = [("s4", "s6"), ("s1", "s3"), ("s1", "s4"), ("s3", "s6"),
                   ("s4", "s3"), ("s1", "s6"),
                   ("s4", "s7"), ("s2", "s5"), ("s2", "s4"), ("s5", "s7"),
                   ("s4", "s5"), ("s2", "s7")]
    for x, y in must_differ:
        if r[x] == r[y]:
            raise InvariantError(
                f"derived embedding fuses {x} and {y}, which the construction forbids")
