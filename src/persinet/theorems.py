"""Empirical theorem harness: a seeded random-net generator with class
constraints, per-theorem checkers with replayable reports, brute-force
oracles, and the implication matrix over the persistent-permutability
notions.

Theorems are checked, not proved: a checker confirms instances, skips nets
outside the theorem's class premise, and escalates any violation with a
full witness.  Every run records its seed and bounds so failures replay
exactly.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass, field, replace
from operator import attrgetter, itemgetter
from typing import Optional

from .errors import (
    InputError,
    InvariantError,
    PreconditionError,
    ResourceExceededError,
)
from .fairness import (
    AnalysisBounds,
    Lasso,
    PeMatrix,
    fairness_classify,
    lasso_persistence,
    pe_probe_matrix,
    search_persistent_equivalent_lasso,
)
from .lts import _bfs_tree, build_rg, complete_rg, persistence_check, shortest_path
from .net import (
    Net,
    _enabled_i,
    _fire_i,
    _numbered,
    _replay,
    classify_structure,
    enabled,
    enabled_transitions,
    fire,
    fire_sequence,
)
from .patterns import _SEARCH_BOUND, _construct_nonDC
from .sequences import (
    SPE,
    SPE_PARIKH,
    SpeVerdict,
    _class_bfs,
    _swaps,
    complete_diamond,
    parikh,
    perm_equivalent,
    persistent_parikh_equivalent,
    sequence_persistence,
    spe_check,
)
from .textio import print_net

#: generator class constraint -> the ClassReport flags its nets must show;
#: "plain" forces unit weights, "safe" is read off the reachability graph last
_CONSTRAINT_FLAGS = {
    "CF": ("choice_free",),
    "FC": ("plain", "free_choice"),
    "EC": ("equal_conflict",),
    "DC": ("plain", "dissymmetric_choice"),
    "AC": ("plain", "asymmetric_choice"),
    "pure": ("pure",),
    "plain": ("plain",),
    "pps": ("plain", "pure", "safe"),
    "safe": ("safe",),
}
CLASS_CONSTRAINTS = tuple(_CONSTRAINT_FLAGS)


def _demanded_flags(constraint) -> set:
    return {flag for c in constraint for flag in _CONSTRAINT_FLAGS[c]}


@dataclass
class GenConfig:
    """Shape of a random net; same config and seed give the identical net."""

    places: int = 4
    transitions: int = 4
    max_weight: int = 1
    arc_density: float = 0.35
    token_budget: int = 3
    class_constraint: tuple = ()
    seed: int = 0

    def __post_init__(self):
        for name in ("places", "transitions", "max_weight", "token_budget", "seed"):
            if type(getattr(self, name)) is not int:  # bool is an int subclass
                raise InputError(f"{name} must be an integer")
        if self.seed < 0:  # random.Random(-n) draws what random.Random(n) draws
            raise InputError("seed must be >= 0")
        constraint = self.class_constraint
        if isinstance(constraint, str):
            constraint = (constraint,) if constraint and constraint != "none" else ()
        try:
            constraint = tuple(constraint)
        except TypeError:
            raise InputError(
                "class_constraint must be a constraint name or a sequence of them") from None
        for c in constraint:
            if c not in CLASS_CONSTRAINTS:
                raise InputError(
                    f"unknown class constraint '{c}' (have {CLASS_CONSTRAINTS})")
        if self.max_weight != 1 and "plain" in _demanded_flags(constraint):
            raise InputError("plainness-based constraints force max_weight=1")
        try:
            density_ok = not isinstance(self.arc_density, bool) and 0.0 <= self.arc_density <= 1.0
        except TypeError:  # not a number
            density_ok = False
        if not density_ok:
            raise InputError("arc_density must be a number in [0,1]")
        if min(self.places, self.transitions, self.max_weight, self.token_budget) < 1:
            raise InputError("places, transitions, max_weight and token_budget must be >= 1")
        self.class_constraint = constraint


def _repair_equal_conflict(pre):
    """Copy one input vector across each conflict-connected component.

    Duplicating the full input-weight vector is the minimal change that
    makes conflicting transitions agree; copying can create new conflicts,
    so iterate to a fixpoint.  Each component copies the vector of its
    least transition, the root of its union-find tree.  A pass joins each
    transition to the first consumer of each of its input places, which
    joins every two transitions that share one.
    """
    nt = len(pre)
    parent = list(range(nt))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    changed = True
    while changed:
        changed = False
        parent[:] = range(nt)
        first = {}  # place index -> the least transition consuming it
        for i, ins in enumerate(pre):
            for pi in ins:
                j = first.setdefault(pi, i)
                if j != i:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
        for i in range(nt):
            rep = find(i)
            if pre[i] != pre[rep]:
                pre[i] = dict(pre[rep])
                changed = True


def gen_random_net(cfg: GenConfig, max_states: int = 4000) -> Net:
    """Sample a net honouring the class constraints, deterministically.

    Structural constraints are established constructively (CF by keeping one
    consumer per place, FC/EC by equalising the input vectors of conflicting
    transitions); behavioural ones (safe, and the safe part of pps) by
    rejection sampling with fresh draws from the same stream.  Every
    transition keeps at least one input and never produces more tokens than
    it consumes, so the sampled nets are bounded by construction.

    Each draw is built at index level, as per-transition {place index:
    weight} dicts and a token tuple, and becomes a Net through
    Net._of_indices: its ids p0.. and t0.. (shared tuples, net._numbered)
    are distinct and every weight is at least 1, so there is nothing for
    the validating constructor to check.  CF rejects a draw before any Net
    exists; the class report then re-checks every structural flag
    demanded, and a safe constraint reads the reachability graph.

    Integers are drawn with rng._randbelow, which is what randrange calls:
    randrange(a, b) is a + _randbelow(b - a), so the stream is the same
    without randrange's argument checks.
    """
    if cfg.seed < 0:  # a GenConfig is mutable, so its seed may be set after the check
        raise InputError("seed must be >= 0")
    rng = random.Random(cfg.seed)
    random_, below = rng.random, rng._randbelow
    want = set(cfg.class_constraint)
    demanded = _demanded_flags(want)
    structural = demanded - {"safe"}  # the flags the class report decides
    plain = "plain" in demanded or cfg.max_weight == 1
    pure = "pure" in demanded
    n_places, density, max_weight = cfg.places, cfg.arc_density, cfg.max_weight
    name = f"gen{cfg.seed}"
    places = _numbered("p", n_places)
    transitions = _numbered("t", cfg.transitions)

    def shuffle_key(_):  # one draw per item: sorted() by it is a shuffle
        return random_()

    for _ in range(400):
        pre, post = [], []
        for _ in transitions:
            ins, outs = {}, {}
            for pi in range(n_places):
                if random_() < density:
                    ins[pi] = 1 if plain else 1 + below(max_weight)
                if random_() < density:
                    w = 1 if plain else 1 + below(max_weight)
                    if not (pure and pi in ins):
                        outs[pi] = w
            pre.append(ins)
            post.append(outs)
        for ins, outs in zip(pre, post):
            if not ins:
                pi = below(n_places)
                ins[pi] = 1
                outs.pop(pi, None)
        if "CF" in want:
            taken = set()  # the places an earlier transition consumes from
            for ins in pre:
                for pi in ins.keys() & taken:
                    del ins[pi]
                taken.update(ins)
            free = [pi for pi in range(n_places) if pi not in taken]
            rng.shuffle(free)
            empty = [ti for ti, ins in enumerate(pre) if not ins]
            if len(empty) > len(free):
                continue
            for ti in empty:
                pi = free.pop()
                pre[ti][pi] = 1
                post[ti].pop(pi, None)
        if "FC" in want or "EC" in want:
            _repair_equal_conflict(pre)
        # cap each transition's output weight by its input weight: the total
        # token count can then never grow, which bounds the net outright
        for ti, (ins, outs) in enumerate(zip(pre, post)):
            room = sum(ins.values())
            keep = {}
            for pi in sorted(outs, key=shuffle_key):
                if not room:
                    break
                w = min(outs[pi], room)
                keep[pi] = w
                room -= w
            post[ti] = keep

        tokens = [0] * n_places
        for _ in range(cfg.token_budget):
            tokens[below(n_places)] += 1
        net = Net._of_indices(name, places, transitions, pre, post, tuple(tokens))

        if structural and not all(map(classify_structure(net).flag, structural)):
            continue
        if "safe" in demanded:
            _, bound = build_rg(net, max_states)
            if bound.status != "bounded" or not bound.safe:
                continue
        return net
    raise ResourceExceededError(
        f"rejection budget exhausted generating {sorted(want)} net for seed {cfg.seed}")


@dataclass
class TheoremReport:
    theorem: str
    instances: int = 0
    confirmations: int = 0
    skips: list = field(default_factory=list)       # (reason, payload)
    violations: list = field(default_factory=list)  # replayable witnesses
    bounds: Optional[AnalysisBounds] = None
    seed: Optional[int] = None
    wall_time: float = 0.0
    slowest: list = field(default_factory=list)     # (seed, seconds), slowest first

    @property
    def ok(self):
        return not self.violations


def _random_firable(net, rng, max_len):
    word, m = [], net.initial
    for _ in range(rng.randint(0, max_len)):
        en = enabled_transitions(net, m)
        if not en:
            break
        t = rng.choice(en)
        word.append(t)
        m = fire(net, m, t)
    return tuple(word)


def _random_permutation(net, rng, word, swaps):
    """A firable word reached from word by random firable adjacent swaps."""
    cur = tuple(word)
    marks = _replay(net, net.initial, cur)
    memo = {}  # one _steps memo for every swap
    for _ in range(swaps):
        options = _swaps(net, cur, marks, memo)
        if not options:
            break
        cur, i, m = rng.choice(options)
        marks[i + 1] = m
    return cur


# -- theorem checkers ----------------------------------------------------------
# Each takes (report, net, bounds, seed, max_states), reads only what its
# premise needs (the class report is cached on the net) and records its
# outcome in the report.

_STATE_BUDGET_SKIP = "reachability graph exceeded the state budget"
_PURE_PLAIN_SKIP = "net is not pure and plain"


def _pure_plain(cls):
    return cls.plain and cls.pure


def _nonpersistent_instance(report, net, premise, skip, max_states):
    """The class theorems' common steps: the class premise (premise reads
    the class report, skip is the text recorded when it fails), the
    instance count, the complete reachability graph and its persistence.
    Returns (rg, (state, t, u)) with the first persistence witness, a
    nearest one since states are in BFS order; None once the outcome is
    recorded: a class skip, a state-budget skip, or a persistent net, on
    which the conclusion holds."""
    if not premise(classify_structure(net)):
        report.skips.append((skip, net.name))
        return None
    report.instances += 1
    try:
        rg = complete_rg(net, max_states)[0]
    except ResourceExceededError:
        report.skips.append((_STATE_BUDGET_SKIP, net.name))
        return None
    spot = persistence_check(rg).witness
    if spot is None:
        report.confirmations += 1
        return None
    return rg, spot


def _check_ec_main(report, net, bounds, seed, max_states):
    # an equal-conflict net that is nonpersistent can have no persistent
    # Parikh equivalent for the path into its nearest conflict
    case = _nonpersistent_instance(report, net, attrgetter("equal_conflict"),
                                   "net is not equal-conflict", max_states)
    if case is None:
        return
    rg, (state, leg_a, _) = case
    delta = shortest_path(rg, state)
    found = persistent_parikh_equivalent(net, net.initial, parikh(delta + (leg_a,)))
    if found is None:
        report.confirmations += 1
    else:
        report.violations.append({"net": net.name, "delta": delta, "leg": leg_a,
                                  "equivalent": found})


def _check_dc_main(report, net, bounds, seed, max_states):
    # contrapositive form: a pure plain nonpersistent net for which the
    # bounded Parikh-equivalence check finds no refutation must not be
    # DC, and the non-DC pattern must be derivable from its conflict.
    # Unlike the equal-conflict case the refuting sequence is not pinned
    # to the conflict path, so the full bounded check is required; on
    # suspicion the bound is raised before a violation is declared.
    case = _nonpersistent_instance(report, net, _pure_plain, _PURE_PLAIN_SKIP,
                                   max_states)
    if case is None:
        return
    rg, spot = case
    dc = classify_structure(net).dissymmetric_choice
    # on DC nets the bound is raised in steps of 4 until it reaches twice
    # sequence_len; the forward pass stops at its first refuting level, so
    # one check at the final bound refutes exactly when a lower one would
    spe_bound = bounds.sequence_len
    if dc:
        spe_bound += 4 * -(-spe_bound // 4)
    if spe_check(net, spe_bound, SPE_PARIKH).refuted:
        report.confirmations += 1  # premise refuted, vacuous
    elif dc:
        # a genuine refutation of the implication: the conflict sits on a
        # multi-token shared place and the persistent detours cover every
        # Parikh vector
        report.violations.append({
            "net": net.name, "document": print_net(net), "spe_bound": spe_bound,
            "reason": "DC net, nonpersistent, with no bounded refutation of "
                      "the Parikh-equivalence premise"})
    else:
        # the derivation's premises are the ones just established, on the
        # same graph and at the same bound, so only its construction runs
        try:
            _construct_nonDC(net, rg, spot, spe_bound, _SEARCH_BOUND)
            report.confirmations += 1
        except PreconditionError as exc:
            # the implication's conclusion (not DC) holds, but the
            # companion pattern is absent; record it
            report.confirmations += 1
            report.skips.append(("pattern not embedded though premises hold",
                                 {"net": net.name, "detail": str(exc)}))
        except ResourceExceededError as exc:
            report.skips.append(("derivation hit a resource bound",
                                 {"net": net.name, "detail": str(exc)}))


def _check_cf_persistent(report, net, bounds, seed, max_states):
    case = _nonpersistent_instance(report, net, attrgetter("choice_free"),
                                   "net is not choice-free", max_states)
    if case is not None:
        report.violations.append({"net": net.name, "witness": case[1]})


def _check_perm_implies_parikh(report, net, bounds, seed, max_states):
    rng = random.Random(seed ^ 0x5EED)
    report.instances += 1
    sigma = _random_firable(net, rng, bounds.sequence_len)
    tau = _random_permutation(net, rng, sigma, swaps=4)
    # tau is sigma after firable adjacent swaps, so it is in sigma's class:
    # a search that misses it is as wrong as a class with two vectors
    if not perm_equivalent(net, net.initial, sigma, tau):
        report.violations.append({"net": net.name, "sigma": sigma, "tau": tau,
                                  "reason": "tau, made from sigma by firable "
                                            "swaps, is not found equivalent"})
    elif parikh(sigma) != parikh(tau):
        report.violations.append({"net": net.name, "sigma": sigma, "tau": tau})
    else:
        report.confirmations += 1


def _check_diamond_completion(report, net, bounds, seed, max_states):
    if not _pure_plain(classify_structure(net)):
        report.skips.append((_PURE_PLAIN_SKIP, net.name))
        return
    # the check reads the markings of the first 50 states in BFS order,
    # never an edge, so a cutoff cannot change its verdict;
    # complete_diamond checks the closing corner itself and raises
    # InvariantError when it is missing or the corners disagree
    rg, _ = build_rg(net, min(50, max_states))
    names = net.transitions
    checked = False
    for s in rg.states:
        m = rg.payload[s]
        here = _enabled_i(net, m)
        for yi in here:
            for xi in _enabled_i(net, _fire_i(net, m, yi)):
                if xi not in here:
                    continue
                checked = True
                y, x = names[yi], names[xi]
                try:
                    complete_diamond(net, m, y, x)
                except InvariantError as exc:
                    report.violations.append({"net": net.name, "marking": m, "y": y,
                                              "x": x, "message": str(exc)})
    if not checked:
        report.skips.append(("no three-quarter diamond found to complete", net.name))
        return
    report.instances += 1
    if not report.violations:
        report.confirmations += 1


def _check_persistence_factorisation(report, net, bounds, seed, max_states):
    rng = random.Random(seed ^ 0x5EED)
    report.instances += 1
    sigma = _random_firable(net, rng, bounds.sequence_len)
    cut = rng.randint(0, len(sigma))
    whole = sequence_persistence(net, net.initial, sigma).persistent
    head = sequence_persistence(net, net.initial, sigma[:cut]).persistent
    mid = fire_sequence(net, net.initial, sigma[:cut])
    tail = sequence_persistence(net, mid, sigma[cut:]).persistent
    if whole != (head and tail):
        report.violations.append({"net": net.name, "sigma": sigma, "cut": cut,
                                  "whole": whole, "head": head, "tail": tail})
    else:
        report.confirmations += 1


def _check_spe_implies_fpe_probe(report, net, bounds, seed, max_states):
    # outside the equal-conflict and pure-DC classes the implication can
    # fail; the checker records whether a fair probe run witnesses that
    report.instances += 1
    # a refuted premise leaves nothing to probe, so the search is skipped
    probe = None
    if not spe_check(net, bounds.sequence_len, SPE).refuted:
        try:
            probe = _fair_nonpersistent_lasso(net, bounds, max_states)
        except ResourceExceededError:
            report.skips.append((_STATE_BUDGET_SKIP, net.name))
            return
    if probe is None:
        report.skips.append(("no fair nonpersistent lasso found to probe", net.name))
        return
    search = search_persistent_equivalent_lasso(
        net, probe, bounds.max_prefix, bounds.max_cycle, bounds.depth)
    report.confirmations += 1
    report.skips.append(("probe outcome", {"lasso": str(probe), "search": search.status}))


#: theorem id -> checker, in the order the theorems are listed
_CHECKERS = {
    "EC-main": _check_ec_main,
    "DC-main": _check_dc_main,
    "CF-persistent": _check_cf_persistent,
    "perm-implies-parikh": _check_perm_implies_parikh,
    "diamond-completion": _check_diamond_completion,
    "persistence-factorisation": _check_persistence_factorisation,
    "spe-implies-fpe-probe": _check_spe_implies_fpe_probe,
}
THEOREM_IDS = tuple(_CHECKERS)


def check_theorem(theorem: str, net: Net,
                  bounds: Optional[AnalysisBounds] = None,
                  seed: int = 0, max_states: int = 4000) -> TheoremReport:
    """Check one theorem on one net; skips record unmet class premises."""
    checker = _CHECKERS.get(theorem)
    if checker is None:
        raise InputError(f"unknown theorem '{theorem}' (have {THEOREM_IDS})")
    bounds = bounds or AnalysisBounds()
    report = TheoremReport(theorem, bounds=bounds, seed=seed)
    t0 = time.perf_counter()
    checker(report, net, bounds, seed, max_states)
    report.wall_time = time.perf_counter() - t0
    return report


_PROBE_MAX_STATES = 2000


def _fair_nonpersistent_lasso(net, bounds, max_states=_PROBE_MAX_STATES):
    """A strongly fair, nonpersistent lasso of the net, if a short one exists.

    Entry states are taken in BFS order up to depth bounds.max_prefix, each
    behind its canonical shortest prefix.  From each entry the walks of at
    most bounds.max_cycle steps are searched depth-first; at every walk
    state the steps that return to the entry are tried in reverse
    transition order, then the others are descended in transition order.
    The first returning walk that is strongly fair and leaves the lasso
    nonpersistent is the answer.

    The search reads the rows of the reachability graph, never the net: by
    the state equation a step's enabling and its persistence depend only on
    the marking.  A cycle is strongly fair iff every label enabled at one
    of its states occurs in it, and a step is nonpersistent iff its target
    row lacks another label of its source row.  A reverse BFS from the
    entry gives each state's distance back to it, and a walk is extended
    only while it can still return within the bound, so no returning walk
    is pruned.  A graph without a nonpersistent step has no such lasso and
    is answered at once.  Only the lasso returned is replayed on the net; a
    disagreement there raises InvariantError.  The graph is capped at
    max_states, and never above 2000 states; one cut off there raises
    ResourceExceededError.
    """
    rg, _ = complete_rg(net, min(_PROBE_MAX_STATES, max_states))
    rows, back_rows = rg._rows, rg._reverse_rows()
    en = [sum(1 << a for a in row) for row in rows]  # enabled labels, as bits

    def persistent(i, a, j):
        # the target of step a enables every other label of its source
        return not en[i] & ~(1 << a) & ~en[j]

    if all(persistent(i, a, j) for i, row in enumerate(rows) for a, (j,) in row.items()):
        return None  # a graph with no nonpersistent step has no such lasso

    # the BFS tree's step into a state is the last step of its canonical
    # shortest prefix, the one shortest_path returns
    order, parent, depth = _bfs_tree(rg)
    prefix_ok = [True] * len(rows)  # the canonical prefix is persistent
    for j in order[1:]:
        i, a = parent[j]
        prefix_ok[j] = prefix_ok[i] and persistent(i, a, j)

    max_cycle = bounds.max_cycle
    for e in order:
        if depth[e] > bounds.max_prefix:
            break  # depths never decrease in discovery order
        back = {e: 0}  # distance back to e, up to max_cycle - 1
        frontier = [e]
        for d in range(1, max_cycle):
            reached = []
            for j in frontier:
                for sources in back_rows[j].values():
                    for i in sources:
                        if i not in back:
                            back[i] = d
                            reached.append(i)
            frontier = reached
        # (cycle, last state, labels fired, labels enabled, nonpersistent)
        stack = [((), e, 0, en[e], not prefix_ok[e])]
        while stack:
            word, i, fired, seen, bad = stack.pop()
            for a, (j,) in reversed(rows[i].items()):
                ok = persistent(i, a, j)
                if j == e:
                    if (bad or not ok) and not seen & ~(fired | 1 << a):
                        return _confirmed_probe(net, rg, e, word + (a,))
                elif back.get(j, max_cycle) <= max_cycle - len(word) - 1:
                    stack.append((word + (a,), j, fired | 1 << a, seen | en[j],
                                  bad or not ok))
    return None


def _confirmed_probe(net, rg, entry, cycle):
    """The lasso behind the graph walk, replayed on the net: it must return
    to its entry, be strongly fair and be nonpersistent."""
    names = net.transitions
    lasso = Lasso(shortest_path(rg, rg.states[entry]), tuple(names[a] for a in cycle))
    try:
        report = fairness_classify(net, lasso)
    except InputError as exc:
        raise InvariantError(f"probe lasso {lasso} does not replay: {exc}") from None
    if not report.strongly_fair or lasso_persistence(net, lasso).persistent:
        raise InvariantError(
            f"probe lasso {lasso} is not strongly fair and nonpersistent on the net")
    return lasso


def run_theorem_suite(theorem: str, cfg_base: GenConfig, seeds,
                      bounds: Optional[AnalysisBounds] = None) -> TheoremReport:
    """Run one theorem checker across many seeded random nets.

    Each seed's time, generation and check together, is measured, and the
    report names the five slowest seeds.
    """
    bounds = bounds or AnalysisBounds()
    total = TheoremReport(theorem, bounds=bounds, seed=None)
    times = []
    t0 = time.perf_counter()
    for seed in seeds:
        start = time.perf_counter()
        try:
            net = gen_random_net(replace(cfg_base, seed=seed))
        except ResourceExceededError:
            total.skips.append(("generation budget exhausted", seed))
        else:
            rep = check_theorem(theorem, net, bounds, seed=seed)
            total.instances += rep.instances
            total.confirmations += rep.confirmations
            total.skips.extend((reason, seed) for reason, _ in rep.skips)
            total.violations.extend({"seed": seed, **v} for v in rep.violations)
        times.append((seed, time.perf_counter() - start))
    total.wall_time = time.perf_counter() - t0
    total.slowest = heapq.nlargest(5, times, key=itemgetter(1))
    return total


# -- brute-force oracles -------------------------------------------------------

def oracle_spe_check(net: Net, bound: int, mode: str = SPE):
    """Unpruned reference for spe_check: enumerate every firable sequence up
    to the bound and, for the nonpersistent ones, decide the question by
    exhausting the whole class (or all realisations of the Parikh vector)
    with no memoisation and no persistence pruning."""
    frontier = [((), net.initial)]
    searched = 0
    for _ in range(bound):
        nxt = []
        for word, m in frontier:
            for t in enabled_transitions(net, m):
                w2 = word + (t,)
                m2 = fire(net, m, t)
                searched += 1
                nxt.append((w2, m2))
                if sequence_persistence(net, net.initial, w2).persistent:
                    continue
                if mode == SPE:
                    # the whole-word search, not equivalence_class, which
                    # splits the word by component: the split is checked
                    # against this oracle
                    members = [w for w, _ in _class_bfs(net, net.initial, w2)]
                    good = any(sequence_persistence(net, net.initial, w).persistent
                               for w in members)
                else:
                    good = any(
                        sequence_persistence(net, net.initial, w).persistent
                        for w in _all_with_parikh(net, net.initial, parikh(w2)))
                if not good:
                    return SpeVerdict(mode, bound, "refuted", w2, searched)
        frontier = nxt
    return SpeVerdict(mode, bound, "holds-up-to-bound", None, searched)


def _all_with_parikh(net, m0, target):
    """Every firable sequence realising the Parikh vector, no pruning."""
    total = sum(target.values())
    out = []

    def step(word, m, remaining):
        if len(word) == total:
            out.append(tuple(word))
            return
        for t in net.transitions:
            if remaining.get(t, 0) and enabled(net, m, t):
                remaining[t] -= 1
                step(word + [t], fire(net, m, t), remaining)
                remaining[t] += 1

    step([], m0, dict(target))
    return out


# -- implication matrix ---------------------------------------------------------

NOTIONS = ("APE", "JPE", "FPE", "SPE")
IMPLICATIONS = (("APE", "JPE"), ("APE", "SPE"), ("JPE", "FPE"))

REFUTED = "refuted"
REFUTED_IN_BOUNDS = "refuted-within-bounds"
HOLDS_EVIDENCE = "holds-evidence"
_STRENGTH = (HOLDS_EVIDENCE, REFUTED_IN_BOUNDS, REFUTED)  # weakest first


@dataclass
class ImplicationMatrix:
    evidence: dict                 # notion -> status
    witnesses: dict                # notion -> refuting run (if any)
    matrix: PeMatrix
    violations: list


def implication_matrix(net: Net, probes, bounds: Optional[AnalysisBounds] = None,
                       finite_regime: str = "maximal") -> ImplicationMatrix:
    """Assemble the evidence table over APE/JPE/FPE/SPE from probe runs.

    A probe with no (bounded) persistent equivalent refutes APE; if the
    probe is just it also refutes JPE, and if fair, FPE.  Refutations of
    finite probes are exact; lasso refutations stay bound-relative.  The
    known implications must never be violated by the assembled evidence;
    any violation is escalated in the report.
    """
    matrix = pe_probe_matrix(net, probes, bounds, finite_regime)
    evidence = {n: HOLDS_EVIDENCE for n in NOTIONS}
    witnesses = {}

    if matrix.spe.refuted:
        evidence["SPE"] = REFUTED
        witnesses["SPE"] = matrix.spe.counterexample

    def refute(notion, status, run):
        if _STRENGTH.index(status) > _STRENGTH.index(evidence[notion]):
            evidence[notion] = status
            witnesses[notion] = run

    # each notion quantifies over its own probe rows
    for notion, rows in (("APE", matrix.ape_probes), ("JPE", matrix.jpe_probes),
                         ("FPE", matrix.fpe_probes)):
        for row in rows:
            if row.equivalent != "found":
                exact = row.equivalent == "none"
                refute(notion, REFUTED if exact else REFUTED_IN_BOUNDS, row.run)

    # an exact SPE counterexample is a run, hence also an APE witness
    if evidence["SPE"] == REFUTED:
        refute("APE", REFUTED, witnesses["SPE"])

    violations = []
    for strong, weak in IMPLICATIONS:
        # if the weaker notion is refuted the stronger one must be refuted
        if _STRENGTH.index(evidence[weak]) > _STRENGTH.index(evidence[strong]):
            violations.append(
                f"{strong} => {weak} violated: {weak} is {evidence[weak]} "
                f"while {strong} is {evidence[strong]}")
    for row in matrix.probes:
        if row.fair and not row.just:
            violations.append(f"probe {row.run} is fair but not just")
        if row.just and not row.progress:
            violations.append(f"probe {row.run} is just but lacks progress")
    return ImplicationMatrix(evidence, witnesses, matrix, violations)
