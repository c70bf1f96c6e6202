"""Eventually periodic infinite runs (lassos), the fairness spectrum, lasso
persistence, depth-bounded equivalence of infinite runs, and the probe
matrix relating the persistent-permutability notions.

A lasso is a finite prefix plus a nonempty cycle whose firing returns to
its entry marking, so every step context repeats verbatim from the second
cycle on.  That is the central soundness argument of this module: one cycle
unrolling decides fairness and persistence of the whole infinite run.

Only eventually periodic runs are representable; general infinite words are
out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .errors import InputError, ResourceExceededError, UnsupportedClassError
from .net import (
    Marking,
    Net,
    _replay,
    classify_structure,
    concurrently_enables,
    enabled,
    enabled_transitions,
    fire_sequence,
)
from . import sequences
from .sequences import (
    SPE,
    SPE_PARIKH,
    SeqPersistenceVerdict,
    parikh,
    persistent_perm_equivalent,
    sequence_persistence,
    spe_check,
)

MAXIMAL_FINITE_IS_FAIR = "maximal"
FINITE_IS_FAIR = "finite"


@dataclass(frozen=True)
class Lasso:
    """prefix . cycle^infinity; the cycle must be nonempty and marking-preserving."""

    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "cycle", tuple(self.cycle))
        if not self.cycle:
            raise InputError("a lasso needs a nonempty cycle")

    def unroll(self, length: int) -> tuple:
        out = list(self.prefix)
        while len(out) < length:
            out.extend(self.cycle)
        return tuple(out[:length])

    def __str__(self):
        return f"{' '.join(self.prefix)} ; {' '.join(self.cycle)}"


Run = Union[Lasso, Sequence[str]]


def _lasso_marks(net: Net, lasso: Lasso) -> list:
    """The markings m_0 .. m_{|prefix|+|cycle|} of prefix . cycle: the one
    replay of a given lasso.  The prefix and the cycle are replayed apart,
    so a NotEnabledError index counts within the part that fails; a cycle
    that does not return to its entry marking is an input error."""
    marks = _replay(net, net.initial, lasso.prefix)
    entry = marks[-1]
    marks += _replay(net, entry, lasso.cycle)[1:]
    if marks[-1] != entry:
        raise InputError(
            f"cycle '{' '.join(lasso.cycle)}' leads from {entry} to {marks[-1]}, "
            f"not back to its entry marking")
    return marks


def validate_lasso(net: Net, lasso: Lasso) -> Marking:
    """Check firability and that the cycle returns to its entry marking."""
    return _lasso_marks(net, lasso)[len(lasso.prefix)]


# neglect diagnosis tags, one per transition, ordered by severity
FIRED = "fired-infinitely"
NEVER_ENABLED = "eventually-never-enabled"
INTERMITTENT = "intermittently-neglected"
CONTINUOUS = "continuously-neglected"
CONSTANT = "constantly-neglected"


@dataclass
class FairnessReport:
    """Fairness tiers of one run plus a per-transition neglect diagnosis.

    For infinite runs: strongly fair means every transition either fires
    infinitely often or is eventually never enabled; weakly fair (just)
    forbids continuous neglect; progress forbids constant (concurrent)
    neglect.  The notions weaken left to right, so strongly_fair implies
    weakly_fair implies progress.

    Finite runs are governed by the regime: under maximal-finite-is-fair all
    three tiers coincide with maximality (the endpoint is a deadlock); under
    finite-is-fair the fairness tiers hold by fiat while progress still
    means maximality, the one notion that admits no choice.
    """

    kind: str  # "finite" | "lasso"
    finite_regime: str
    strongly_fair: bool
    weakly_fair: bool
    progress: bool
    neglected: dict = field(default_factory=dict)
    maximal: Optional[bool] = None


def fairness_classify(net: Net, run: Run,
                      finite_regime: str = MAXIMAL_FINITE_IS_FAIR) -> FairnessReport:
    """Classify a finite run or a lasso on the fairness spectrum.

    Lassos are decided on one cycle unrolling, since cycle step contexts
    repeat verbatim.  Constant-neglect analysis uses concurrent enabling and
    is defined for plain nets only.
    """
    if finite_regime not in (MAXIMAL_FINITE_IS_FAIR, FINITE_IS_FAIR):
        raise InputError(f"unknown finite regime '{finite_regime}'")
    if not isinstance(run, Lasso):
        end = fire_sequence(net, net.initial, tuple(run))
        maximal = not enabled_transitions(net, end)
        fair = maximal if finite_regime == MAXIMAL_FINITE_IS_FAIR else True
        return FairnessReport(
            kind="finite", finite_regime=finite_regime,
            strongly_fair=fair, weakly_fair=fair, progress=maximal,
            maximal=maximal)

    marks = _lasso_marks(net, run)[len(run.prefix):-1]  # cycle step sources
    cycle_letters = set(run.cycle)
    plain = classify_structure(net).plain

    neglected = {}
    strongly = weakly = progress = True
    for t in net.transitions:
        if t in cycle_letters:
            neglected[t] = FIRED
            continue
        enabled_at = [enabled(net, m, t) for m in marks]
        if not any(enabled_at):
            neglected[t] = NEVER_ENABLED
            continue
        strongly = False
        if not all(enabled_at):
            neglected[t] = INTERMITTENT
            continue
        weakly = False
        if not plain:
            raise UnsupportedClassError(
                "progress analysis needs a plain net (concurrent enabling is "
                "undefined otherwise)")
        if all(concurrently_enables(net, m, step, t)
               for m, step in zip(marks, run.cycle)):
            neglected[t] = CONSTANT
            progress = False
        else:
            neglected[t] = CONTINUOUS
    return FairnessReport(
        kind="lasso", finite_regime=finite_regime,
        strongly_fair=strongly, weakly_fair=weakly, progress=progress,
        neglected=neglected)


def lasso_persistence(net: Net, lasso: Lasso) -> SeqPersistenceVerdict:
    """Persistence of the infinite run, decided on prefix plus one cycle."""
    return sequences._persistence_along(net, lasso.prefix + lasso.cycle,
                                        _lasso_marks(net, lasso))


def infinite_parikh_signature(lasso: Lasso):
    """(letters occurring infinitely often, finite counts of the others)."""
    support = frozenset(lasso.cycle)
    finite = {t: n for t, n in parikh(lasso.prefix).items() if t not in support}
    return support, finite


@dataclass
class LassoEquivVerdict:
    status: str  # "equivalent-at-depth" | "not-equivalent" | "unknown"
    depth: int
    window: int
    reason: str = ""

    def __bool__(self):
        return self.status == "equivalent-at-depth"


def _check_bounds(**bounds):
    """Reject a negative search bound; None stands for a default."""
    for name, value in bounds.items():
        if value is not None and value < 0:
            raise InputError(f"{name} must be >= 0, got {value}")


def _prefix_match_search(net, m0, word, want_prefix, guard):
    """Is some permutation-equivalent rearrangement of word starting with
    want_prefix reachable by firable adjacent swaps?  None means the class
    guard was hit before the search settled."""
    want = tuple(want_prefix)
    try:
        return any(w[:len(want)] == want
                   for w, _ in sequences._class_bfs(net, m0, tuple(word), guard))
    except ResourceExceededError:
        return None


def lasso_equiv_at_depth(net: Net, l1: Lasso, l2: Lasso, depth: int,
                         window: Optional[int] = None,
                         guard: Optional[int] = None) -> LassoEquivVerdict:
    """Finite-resolution decision of equivalence of two infinite runs.

    Two infinite runs are equivalent when for every n each can be permuted
    (finitely many adjacent swaps) to agree with the other on a length-n
    prefix.  This implementation verifies the condition for all n <= depth
    by permuting unrollings of length n + window; matching the full depth
    covers every smaller n.  A mismatching infinite Parikh signature is a
    proof of non-equivalence; an exhausted window is only evidence.
    """
    _check_bounds(depth=depth, window=window)
    validate_lasso(net, l1)
    validate_lasso(net, l2)
    return _equiv_at_depth(net, l1, l2, depth, window, guard)


def _equiv_at_depth(net, l1, l2, depth, window, guard=None):
    """lasso_equiv_at_depth on two lassos known to be valid.  The class
    searches replay the unrollings, so nothing is fired twice."""
    if window is None:
        window = 2 * max(len(l1.cycle), len(l2.cycle))
    if infinite_parikh_signature(l1) != infinite_parikh_signature(l2):
        return LassoEquivVerdict("not-equivalent", depth, window,
                                 "infinite Parikh signatures differ")
    m0 = net.initial
    length = depth + window
    u1, u2 = l1.unroll(length), l2.unroll(length)
    hit_guard = False
    for a, b in ((u1, u2), (u2, u1)):
        got = _prefix_match_search(net, m0, a, b[:depth], guard)
        if got is None:
            hit_guard = True
        elif not got:
            return LassoEquivVerdict(
                "not-equivalent", depth, window,
                "no permutation of one unrolling matches the other's prefix "
                "within the window (not a proof beyond these resources)")
    if hit_guard:
        return LassoEquivVerdict("unknown", depth, window, "class guard hit")
    return LassoEquivVerdict("equivalent-at-depth", depth, window, "")


@dataclass
class LassoSearchResult:
    status: str  # "found" | "none-within-bounds"
    lasso: Optional[Lasso]
    max_prefix: int
    max_cycle: int
    depth: int

    def __bool__(self):
        return self.status == "found"


def _cycles_with_parikh(net, entry, budget, persistent=False, memo=None):
    """Firable words from entry with exactly the budget Parikh vector that
    return to entry, in canonical order; persistent keeps those whose every
    step from entry is persistent.  By the state equation every word with
    the budget vector leads from entry to entry + sum budget[t] (post_t -
    pre_t), so either all realisations return to entry or none does, and
    which is known before any search.  memo is a _steps memo."""
    shift = [0] * len(entry)
    for t, n in budget.items():
        ti = net._tidx[t]
        for pi, w in net._inputs[ti]:
            shift[pi] -= n * w
        for pi, w in net._outputs[ti]:
            shift[pi] += n * w
    if any(shift):
        return []
    return list(sequences._realisations(net, entry, budget, persistent=persistent,
                                        memo=memo))


def search_persistent_equivalent_lasso(net: Net, lasso: Lasso,
                                       max_prefix: int = 4, max_cycle: int = 10,
                                       depth: int = 8,
                                       window: Optional[int] = None) -> LassoSearchResult:
    """Look for a persistent lasso equivalent to the given one.

    Candidates have a prefix of bounded length whose counts of letters
    outside the cycle support agree with the input's, and a cycle whose
    Parikh vector is a positive multiple of the input cycle's (permutations
    preserve letter frequencies).  Only persistent candidates are built: a
    lasso is persistent iff its prefix is and every cycle step from the
    entry is, so persistent prefixes are extended by persistent cycle
    realisations only, listed once per entry marking.  Each candidate is
    tested with the depth-bounded equivalence; "none-within-bounds" is
    evidence, not proof.  A persistent input is returned unchanged.
    """
    _check_bounds(max_prefix=max_prefix, max_cycle=max_cycle, depth=depth,
                  window=window)
    if lasso_persistence(net, lasso).persistent:
        return LassoSearchResult("found", lasso, max_prefix, max_cycle, depth)

    support, finite_counts = infinite_parikh_signature(lasso)
    base = parikh(lasso.cycle)
    cycles = {}  # (entry, k) -> its persistent cycles; many prefixes share an entry
    memo = {}  # one _steps memo for the prefix and cycle searches
    for prefix, entry, pers in sequences._firable_words(net, net.initial, max_prefix, memo):
        if not pers:
            continue
        pref_par = parikh(prefix)
        if any(pref_par.get(t, 0) != n for t, n in finite_counts.items()):
            continue
        if any(t not in support and t not in finite_counts
               for t in pref_par):
            continue
        for k in range(1, max_cycle // len(lasso.cycle) + 1):
            budget = {t: k * n for t, n in base.items()}
            if sum(budget.values()) > max_cycle:
                break
            if (entry, k) not in cycles:
                cycles[entry, k] = _cycles_with_parikh(net, entry, budget,
                                                       persistent=True, memo=memo)
            for cyc in cycles[entry, k]:
                # the candidate fires and returns by construction, and
                # lasso_persistence has validated the input
                cand = Lasso(prefix, cyc)
                verdict = _equiv_at_depth(net, lasso, cand, depth, window)
                if verdict.status == "equivalent-at-depth":
                    return LassoSearchResult("found", cand, max_prefix, max_cycle, depth)
    return LassoSearchResult("none-within-bounds", None, max_prefix, max_cycle, depth)


# -- probe matrix ----------------------------------------------------------------

@dataclass
class AnalysisBounds:
    """Search budgets shared by the probe matrix and the theorem harness.

    Defaults are the smallest values that reproduce the shipped corpus
    results.
    """

    sequence_len: int = 10
    max_prefix: int = 4
    max_cycle: int = 10
    depth: int = 8


@dataclass
class ProbeResult:
    run: Run
    fair: bool
    just: bool
    progress: bool
    persistent: bool
    equivalent: str  # "found" | "none" | "none-within-bounds"
    witness: Optional[Run] = None


@dataclass
class PeMatrix:
    """Evidence table for the persistent-permutability notions.

    spe / spe_parikh are bounded sequence checks; each probe contributes a
    row, and refutations are exact for finite probes (classes are finite)
    but bound-relative for lassos.  The per-notion views select the rows a
    notion quantifies over: every run for APE, the just ones for JPE, the
    fair ones for FPE.
    """

    spe: object
    spe_parikh: object
    probes: list
    bounds: AnalysisBounds
    finite_regime: str

    @property
    def ape_probes(self):
        return list(self.probes)

    @property
    def jpe_probes(self):
        return [row for row in self.probes if row.just]

    @property
    def fpe_probes(self):
        return [row for row in self.probes if row.fair]


def probe_run(net: Net, run: Run, bounds: AnalysisBounds,
              finite_regime: str = MAXIMAL_FINITE_IS_FAIR) -> ProbeResult:
    """Fairness tiers, persistence and equivalent search for one run."""
    fairness = fairness_classify(net, run, finite_regime)
    if isinstance(run, Lasso):
        search = search_persistent_equivalent_lasso(
            net, run, bounds.max_prefix, bounds.max_cycle, bounds.depth)
        # exact: the search returns a persistent run unchanged and builds
        # persistent candidates only
        persistent = search.lasso == run
        equivalent = "found" if search else "none-within-bounds"
        witness = search.lasso
    else:
        run = tuple(run)
        persistent = sequence_persistence(net, net.initial, run).persistent
        witness = persistent_perm_equivalent(net, net.initial, run)
        equivalent = "found" if witness is not None else "none"
    return ProbeResult(
        run=run, fair=fairness.strongly_fair, just=fairness.weakly_fair,
        progress=fairness.progress, persistent=persistent,
        equivalent=equivalent, witness=witness)


def pe_probe_matrix(net: Net, probes, bounds: Optional[AnalysisBounds] = None,
                    finite_regime: str = MAXIMAL_FINITE_IS_FAIR) -> PeMatrix:
    """Run both bounded sequence checks and classify every probe run."""
    bounds = bounds or AnalysisBounds()
    rows = [probe_run(net, p, bounds, finite_regime) for p in probes]
    return PeMatrix(
        spe=spe_check(net, bounds.sequence_len, SPE),
        spe_parikh=spe_check(net, bounds.sequence_len, SPE_PARIKH),
        probes=rows,
        bounds=bounds,
        finite_regime=finite_regime,
    )
