"""The embedded example corpus: seventeen small nets, three companion
transition systems, and a manifest of machine-checkable expectations per
entry.

Every entry header records the naming convention: drawings do not name
places, so documents fix p0, p1, ... in reading order, keeping the labels
p and q where the source material singles a place out.  Manifest claims
are executable facts only; verify_corpus replays each claim against the
analysis modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import InputError, ResourceExceededError, UnknownIdError, UnsupportedClassError
from .fairness import (
    fairness_classify,
    lasso_equiv_at_depth,
    lasso_persistence,
    search_persistent_equivalent_lasso,
    validate_lasso,
)
from .lts import Lts, complete_rg, isomorphic, persistence_check
from .net import Net, classify_structure, disjoint_sum, fire_sequence
from .patterns import builtin_pattern, find_embedding
from .sequences import (
    complete_diamond,
    parikh,
    perm_equivalent,
    persistent_parikh_equivalent,
    persistent_perm_equivalent,
    sequence_persistence,
    spe_check,
)
from . import textio


NET_DOCS = {
    "fig1_basic": """\
# pps net with an asymmetric confusion: a and b share p3 but have
# incomparable presets.  Places p0..p4 in reading order.
net fig1_basic
place p0 init 1
place p1 init 1
place p2
place p3 init 1
place p4
trans a
trans b
trans c
trans d
arc p0 -> c
arc c -> p2
arc p2 -> a
arc p3 -> a
arc p3 -> b
arc p1 -> d
arc d -> p4
arc p4 -> b
""",
    "fig2_confuse": """\
# impure, arc-weighted net: y consumes two tokens and returns one
net fig2_confuse
place p init 2
trans x
trans y
arc p -> x
arc p -> y 2
arc y -> p
""",
    "fig4_perslocal": """\
# the initial marking is a nonpersistent state, yet firing c alone is a
# persistent sequence
net fig4_perslocal
place p0 init 1
place p1 init 1
trans a
trans b
trans c
arc p0 -> a
arc p0 -> b
arc p1 -> c
""",
    "fig5_acbc": """\
# live, plain, pure, safe and persistent, but not choice-free: place p
# feeds both a and b.  Reachability graph is the four-cycle a c b c.
net fig5_acbc
place p init 1
place p0
place p1
place p2 init 1
trans a
trans b
trans c
arc p -> a
arc p -> b
arc a -> p0
arc p0 -> b
arc b -> p2
arc p2 -> a
arc a -> p1
arc b -> p1
arc p1 -> c
arc c -> p
""",
    "fig6_unfair": """\
# pps net whose infinite run y (x a c)^inf starves b; no finite run needs
# to enable a and b together.  Places p0..p5 in reading order.
net fig6_unfair
place p0 init 1
place p1
place p2 init 1
place p3 init 1
place p4
place p5
trans a
trans b
trans c
trans x
trans y
arc p1 -> a
arc p3 -> a
arc a -> p2
arc a -> p4
arc p3 -> b
arc p5 -> b
arc p4 -> c
arc c -> p3
arc p2 -> x
arc x -> p1
arc p0 -> y
arc y -> p5
""",
    "fig7_left": """\
# one shared place looping on both transitions; single-state graph
net fig7_left
place p init 1
trans a
trans b
arc p -> a
arc a -> p
arc p -> b
arc b -> p
""",
    "fig7_right": """\
# two private places, same single-state graph as fig7_left
net fig7_right
place p init 1
place q init 1
trans a
trans b
arc p -> a
arc a -> p
arc q -> b
arc b -> q
""",
    "fig8_variant": """\
# fig1_basic with transitions e and f looping from the two deadlocks back
# to the start, so runs become infinite; still plain, pure and safe
net fig8_variant
place p0 init 1
place p1 init 1
place p2
place p3 init 1
place p4
place p5
place p6
trans a
trans b
trans c
trans d
trans e
trans f
arc p2 -> a
arc p3 -> a
arc a -> p5
arc p3 -> b
arc p4 -> b
arc b -> p6
arc p0 -> c
arc c -> p2
arc p1 -> d
arc d -> p4
arc p4 -> e
arc p5 -> e
arc e -> p0
arc e -> p1
arc e -> p3
arc p2 -> f
arc p6 -> f
arc f -> p0
arc f -> p1
arc f -> p3
""",
    "fig10_fpe_not_spe": """\
# every maximal run permutes into a persistent one, but the short runs
# y b and y c have no persistent equivalents.  Places p1..p8.
net fig10_fpe_not_spe
place p1 init 1
place p2 init 1
place p3 init 1
place p4
place p5 init 1
place p6
place p7 init 1
place p8
trans a
trans b
trans c
trans d
trans x
trans y
trans z
arc p4 -> a
arc p5 -> a
arc p5 -> b
arc p6 -> b
arc p6 -> c
arc p7 -> c
arc p7 -> d
arc p8 -> d
arc p1 -> x
arc x -> p4
arc p2 -> y
arc y -> p6
arc p3 -> z
arc z -> p8
""",
    "fig12_spar": """\
# a b c and c b a are both firable with equal Parikh vectors but are not
# permutations of each other: neither b a c nor a c b fires
net fig12_spar
place p0 init 1
place p1
place p2 init 1
place p3 init 1
place p4 init 1
trans a
trans b
trans c
arc p0 -> a
arc p3 -> a
arc a -> p1
arc p0 -> c
arc p4 -> c
arc c -> p1
arc p1 -> b
arc p2 -> b
arc b -> p0
""",
    "fig13_impure_diamond": """\
# impure but plain, safe and free-choice; y keeps its token, so the
# three-quarter diamond y x does not close with x y
net fig13_impure_diamond
place p init 1
trans x
trans y
arc p -> x
arc p -> y
arc y -> p
""",
    "fig14_counterexample": """\
# pure, plain, 2-bounded: place q with a1 and b breaks dissymmetric
# choice, place p reaches two tokens.  Every finite run permutes into a
# persistent one, yet the fair run y (x a1 a2 b c)^inf does not.
net fig14_counterexample
place p0
place p1
place p2
place p3
place p
place p5 init 1
place p6 init 1
place q init 1
trans a1
trans a2
trans b
trans c
trans x
trans y
arc p0 -> a1
arc q -> a1
arc a1 -> p1
arc p1 -> a2
arc a2 -> p2
arc a2 -> p
arc a2 -> q
arc p -> b
arc q -> b
arc b -> p3
arc p2 -> c
arc p3 -> c
arc c -> p5
arc c -> q
arc p5 -> x
arc x -> p0
arc p6 -> y
arc y -> p
""",
    "fig15_a_star": """\
net fig15_a_star
place sa init 1
trans a
arc sa -> a
arc a -> sa
""",
    "fig15_b": """\
net fig15_b
place sb init 1
trans b
arc sb -> b
""",
    "fig15_choice": """\
# a and b compete for the one token a keeps returning; running a forever
# neglects b continuously but never concurrently
net fig15_choice
place s init 1
trans a
trans b
arc s -> a
arc a -> s
arc s -> b
""",
    "fig16_appendix": """\
# asymmetric choice, dissymmetric choice and confusion-free, yet not
# free-choice.  Places p1..p5 in reading order.
net fig16_appendix
place p1
place p2
place p3 init 1
place p4
place p5
trans a
trans b
trans c
trans d
trans e
trans f
arc p1 -> a
arc a -> p5
arc p5 -> b
arc b -> p1
arc c -> p1
arc p1 -> d
arc c -> p2
arc p2 -> d
arc d -> p3
arc p3 -> c
arc e -> p5
arc p5 -> f
arc e -> p4
arc p4 -> f
arc f -> p3
arc p3 -> e
""",
}

LTS_DOCS = {
    "fig1_basic": """\
# the eight-state transition system solved by fig1_basic
lts ts1
state M0
state M1
state M2
state M3
state M4
state M5
state M6
state M7
initial M0
edge M0 c M1
edge M0 d M2
edge M1 a M3
edge M1 d M4
edge M2 b M5
edge M2 c M4
edge M3 d M6
edge M4 a M6
edge M4 b M7
edge M5 c M7
""",
    "fig2_confuse": """\
# x and y join at s1: a nonpersistent situation with fused pattern states
lts ts2
state s0
state s1
state s2
initial s0
edge s0 x s1
edge s0 y s1
edge s1 x s2
""",
    "fig14_counterexample": """\
# twelve states; unnamed drawing states get n-prefixed names.  Mpp is the
# deadlock written M'' in discussions, Kp/Mp/Lp carry primes the same way.
lts ts9
state M0
state K
state Kp
state n3
state n4
state L
state M
state Mp
state Lp
state n9
state n10
state Mpp
initial M0
edge M0 x K
edge K a1 Kp
edge Kp a2 n3
edge n3 b n4
edge n4 c M0
edge M0 y L
edge K y M
edge Kp y Mp
edge n3 y Lp
edge n4 y n9
edge L x M
edge M a1 Mp
edge Mp a2 Lp
edge Lp b n9
edge n9 c L
edge L b n10
edge M b Mpp
edge n10 x Mpp
""",
}


@dataclass
class CorpusEntry:
    name: str
    net: Optional[Net]
    lts: Optional[Lts]
    net_text: Optional[str]
    lts_text: Optional[str]
    manifest: list = field(default_factory=list)
    probes: list = field(default_factory=list)  # runs for the probe matrix


def corpus_names():
    return sorted(set(NET_DOCS) | {"fig15_sum"})


_MANIFESTS = {
    "fig1_basic": [
        {"check": "classify", "flags": {
            "plain": True, "pure": True, "choice_free": False,
            "free_choice": False, "equal_conflict": False,
            "dissymmetric_choice": False, "asymmetric_choice": True,
            "dc_tilde": False}},
        {"check": "rg", "states": 8, "edges": 10, "safe": True, "k_bound": 1},
        {"check": "deadlocks", "states": ["M6", "M7"]},
        {"check": "net_persistent", "value": False,
         "witness_state": "M4", "witness_pair": ["a", "b"]},
        {"check": "isomorphic_rg_lts"},
        {"check": "seq_persistent", "run": "c a d", "value": True},
        {"check": "seq_persistent", "run": "d c a", "value": False,
         "failing_index": 2, "disables": "b"},
        {"check": "perm_equiv", "a": "d c a", "b": "c a d", "value": True},
        {"check": "perm_equiv", "a": "c d a", "b": "c a d", "value": True},
        {"check": "persistent_perm_equivalent", "run": "c d a", "expect": "c a d"},
        {"check": "persistent_perm_equivalent", "after": "c", "run": "d b",
         "expect": None},
        {"check": "persistent_parikh_equivalent", "of": "c d a", "expect": "c a d"},
        {"check": "spe", "mode": "perm", "bound": 8, "status": "holds-up-to-bound"},
        {"check": "spe", "mode": "parikh", "bound": 8, "status": "holds-up-to-bound"},
        {"check": "embeds", "pattern": "nonpers", "in": "rg", "found": True},
        {"check": "embeds", "pattern": "nonDC", "in": "rg", "found": True},
    ],
    "fig2_confuse": [
        {"check": "classify", "flags": {"plain": False, "pure": False,
                                        "choice_free": False,
                                        "dissymmetric_choice": None,
                                        "asymmetric_choice": None,
                                        "dc_tilde": None}},
        {"check": "rg", "states": 3, "edges": 3},
        {"check": "net_persistent", "value": False,
         "witness_state": "M0", "witness_pair": ["x", "y"]},
        {"check": "isomorphic_rg_lts"},
        {"check": "embeds", "pattern": "nonpers", "in": "lts", "found": True},
    ],
    "fig4_perslocal": [
        {"check": "net_persistent", "value": False,
         "witness_state": "M0", "witness_pair": ["a", "b"]},
        {"check": "seq_persistent", "run": "c", "value": True},
        {"check": "seq_persistent", "run": "a", "value": False},
        {"check": "seq_persistent", "run": "b", "value": False},
    ],
    "fig5_acbc": [
        {"check": "classify", "flags": {
            "plain": True, "pure": True, "choice_free": False,
            "free_choice": False, "dissymmetric_choice": False,
            "asymmetric_choice": True}},
        {"check": "rg", "states": 4, "edges": 4, "safe": True},
        {"check": "deadlocks", "states": []},
        {"check": "net_persistent", "value": True},
        {"check": "embeds", "pattern": "nonpers", "in": "rg", "found": False},
        {"check": "lasso_fairness", "lasso": " ; a c b c", "strongly_fair": True},
        {"check": "lasso_persistent", "lasso": " ; a c b c", "value": True},
    ],
    "fig6_unfair": [
        {"check": "classify", "flags": {"plain": True, "pure": True,
                                        "dissymmetric_choice": False}},
        # the companion drawing omits the two states reachable by re-firing
        # x after x a (the a step returns the token x consumes)
        {"check": "rg", "states": 10, "edges": 17, "safe": True},
        {"check": "net_persistent", "value": False,
         "witness_state": "M4", "witness_pair": ["a", "b"]},
        {"check": "spe", "mode": "perm", "bound": 8, "status": "holds-up-to-bound"},
        {"check": "lasso_valid", "lasso": "y ; x a c"},
        {"check": "lasso_fairness", "lasso": "y ; x a c",
         "strongly_fair": False, "weakly_fair": True, "progress": True},
        {"check": "lasso_persistent", "lasso": "y ; x a c", "value": False},
        {"check": "lasso_search", "lasso": "y ; x a c",
         "status": "none-within-bounds"},
        {"check": "persistent_perm_equivalent", "run": "y x a c x a c",
         "expect_some": True},
    ],
    "fig7_left": [
        {"check": "rg", "states": 1, "edges": 2},
        {"check": "rg_isomorphic_to", "other": "fig7_right"},
        {"check": "lasso_equiv", "a": " ; a b", "b": " ; b a", "depth": 10,
         "status": "equivalent-at-depth"},
        {"check": "net_persistent", "value": True},
    ],
    "fig7_right": [
        {"check": "rg", "states": 1, "edges": 2},
        {"check": "net_persistent", "value": True},
    ],
    "fig8_variant": [
        {"check": "classify", "flags": {"plain": True, "pure": True}},
        {"check": "rg", "states": 8, "safe": True},
        {"check": "net_persistent", "value": False,
         "witness_state": "M4", "witness_pair": ["a", "b"]},
        {"check": "lasso_persistent", "lasso": " ; c d a e", "value": False},
        {"check": "lasso_search", "lasso": " ; c d a e", "status": "found",
         "expect": " ; c a d e"},
        # the input run keeps enabling b at the choice state without firing
        # it, so it is unfair though just; its equivalent avoids that state
        {"check": "lasso_fairness", "lasso": " ; c d a e", "strongly_fair": False,
         "weakly_fair": True},
        {"check": "lasso_fairness", "lasso": " ; c a d e", "strongly_fair": True},
        # each period rewrites into the persistent form within two swaps
        {"check": "perm_equiv", "a": "c d a e", "b": "c a d e", "value": True},
        {"check": "perm_equiv", "a": "d c a e", "b": "c a d e", "value": True},
        {"check": "perm_equiv", "a": "d c b f", "b": "d b c f", "value": True},
        {"check": "perm_equiv", "a": "c d b f", "b": "d b c f", "value": True},
        {"check": "lasso_valid", "lasso": " ; d b c f"},
        {"check": "seq_persistent", "run": "c a d e", "value": True},
        {"check": "seq_persistent", "run": "d b c f", "value": True},
    ],
    "fig10_fpe_not_spe": [
        {"check": "classify", "flags": {"plain": True, "pure": True}},
        {"check": "rg", "safe": True},
        {"check": "net_persistent", "value": False,
         "witness_state": "M2", "witness_pair": ["b", "c"]},
        {"check": "spe", "mode": "perm", "bound": 2, "status": "refuted",
         "counterexample": "y b"},
        {"check": "spe", "mode": "parikh", "bound": 2, "status": "refuted",
         "counterexample": "y b"},
        {"check": "persistent_perm_equivalent", "run": "y b", "expect": None},
        {"check": "persistent_perm_equivalent", "run": "y c", "expect": None},
        {"check": "persistent_perm_equivalent", "run": "x y z a c",
         "expect_some": True},
        {"check": "seq_persistent", "run": "x a z d y", "value": True},
        {"check": "seq_persistent", "run": "z d y b x", "value": True},
    ],
    "fig12_spar": [
        {"check": "classify", "flags": {"plain": True, "pure": True}},
        {"check": "rg", "safe": True},
        {"check": "parikh_equal", "a": "a b c", "b": "c b a", "value": True},
        {"check": "perm_equiv", "a": "a b c", "b": "c b a", "value": False},
        {"check": "net_persistent", "value": False,
         "witness_state": "M0", "witness_pair": ["a", "c"]},
    ],
    "fig13_impure_diamond": [
        {"check": "classify", "flags": {"plain": True, "pure": False,
                                        "free_choice": True}},
        {"check": "rg", "states": 2, "safe": True},
        {"check": "diamond_unsupported", "y": "y", "x": "x"},
        {"check": "net_persistent", "value": False,
         "witness_state": "M0", "witness_pair": ["x", "y"]},
    ],
    "fig14_counterexample": [
        {"check": "classify", "flags": {
            "plain": True, "pure": True, "dissymmetric_choice": False,
            "asymmetric_choice": True, "free_choice": False}},
        {"check": "rg", "states": 12, "edges": 18, "safe": False, "k_bound": 2},
        {"check": "place_bound", "place": "p", "k": 2},
        {"check": "isomorphic_rg_lts"},
        {"check": "spe", "mode": "perm", "bound": 10, "status": "holds-up-to-bound"},
        {"check": "embeds", "pattern": "nonDC", "in": "lts", "found": True},
        {"check": "lasso_valid", "lasso": "y ; x a1 a2 b c"},
        {"check": "lasso_fairness", "lasso": "y ; x a1 a2 b c",
         "strongly_fair": True},
        {"check": "lasso_persistent", "lasso": "y ; x a1 a2 b c", "value": False},
        {"check": "lasso_search", "lasso": "y ; x a1 a2 b c",
         "status": "none-within-bounds"},
        {"check": "net_persistent", "value": False,
         "witness_state": "M4", "witness_pair": ["a1", "b"]},
    ],
    "fig15_a_star": [
        {"check": "rg", "states": 1, "edges": 1},
        {"check": "lasso_fairness", "lasso": " ; a", "strongly_fair": True},
        {"check": "net_persistent", "value": True},
    ],
    "fig15_b": [
        {"check": "rg", "states": 2, "edges": 1},
        {"check": "net_persistent", "value": True},
    ],
    "fig15_sum": [
        {"check": "rg", "states": 2, "edges": 3},
        {"check": "lasso_fairness", "lasso": " ; a", "strongly_fair": False,
         "weakly_fair": False, "progress": False},
        {"check": "net_persistent", "value": True},
    ],
    "fig15_choice": [
        {"check": "lasso_fairness", "lasso": " ; a", "strongly_fair": False,
         "weakly_fair": False, "progress": True},
        {"check": "net_persistent", "value": False,
         "witness_state": "M0", "witness_pair": ["b", "a"]},
    ],
    "fig16_appendix": [
        {"check": "classify", "flags": {
            "plain": True, "pure": True, "free_choice": False,
            "asymmetric_choice": True, "dissymmetric_choice": True,
            "dc_tilde": True}},
        {"check": "net_persistent", "value": False,
         "witness_state": "M0", "witness_pair": ["c", "e"]},
    ],
}

_PROBES = {
    "fig5_acbc": [" ; a c b c"],
    "fig6_unfair": ["y ; x a c"],
    "fig10_fpe_not_spe": ["y b", "x y z a c", "x a z d y", "z d y b x"],
    "fig14_counterexample": ["y ; x a1 a2 b c"],
    "fig8_variant": [" ; c d a e", " ; c a d e"],
}


def corpus_load(name: str) -> CorpusEntry:
    """Load one corpus entry by name; unknown names are an input error."""
    if name == "fig15_sum":
        left = textio.parse_net(NET_DOCS["fig15_a_star"])
        right = textio.parse_net(NET_DOCS["fig15_b"])
        net = disjoint_sum(left, right, name="fig15_sum")
        return CorpusEntry(
            name=name, net=net, lts=None, net_text=textio.print_net(net),
            lts_text=None, manifest=list(_MANIFESTS.get(name, [])),
            probes=list(_PROBES.get(name, [])))
    if name not in NET_DOCS:
        raise UnknownIdError(
            f"unknown corpus entry '{name}' (try: {', '.join(corpus_names())})")
    net_text = NET_DOCS[name]
    lts_text = LTS_DOCS.get(name)
    return CorpusEntry(
        name=name,
        net=textio.parse_net(net_text),
        lts=textio.parse_lts(lts_text) if lts_text else None,
        net_text=net_text,
        lts_text=lts_text,
        manifest=list(_MANIFESTS.get(name, [])),
        probes=list(_PROBES.get(name, [])),
    )


@dataclass
class ClaimResult:
    entry: str
    description: str
    ok: bool
    detail: str = ""


def _run_claim(entry: CorpusEntry, claim: dict, graph) -> ClaimResult:
    """One claim's result; graph() is the entry's complete reachability
    graph and report, built on first use and shared by its claims."""
    net = entry.net
    kind = claim["check"]
    seq = textio.parse_sequence

    def res(ok, detail=""):
        return ClaimResult(entry.name, _describe(claim), bool(ok), detail)

    if kind == "classify":
        report = classify_structure(net)
        bad = {f: (report.flag(f), want) for f, want in claim["flags"].items()
               if report.flag(f) != want}
        return res(not bad, f"mismatches: {bad}" if bad else "")
    if kind == "embeds":
        target = graph()[0] if claim["in"] == "rg" else entry.lts
        emb = find_embedding(builtin_pattern(claim["pattern"]), target)
        return res((emb is not None) == claim["found"], f"embedding: {emb}")
    if kind in ("rg", "deadlocks", "net_persistent", "place_bound",
                "isomorphic_rg_lts", "rg_isomorphic_to"):
        rg, report = graph()
        if kind == "rg":
            checks = []
            for key, actual in (("states", report.state_count),
                                ("edges", report.edge_count),
                                ("safe", report.safe),
                                ("k_bound", report.k_bound)):
                if key in claim and claim[key] != actual:
                    checks.append(f"{key}: got {actual}, want {claim[key]}")
            return res(not checks, "; ".join(checks))
        if kind == "place_bound":
            got = report.place_bounds[claim["place"]]
            return res(got == claim["k"], f"bound of {claim['place']} is {got}")
        if kind == "deadlocks":
            got = list(rg.deadlocks())
            return res(got == claim["states"], f"deadlocks: {got}")
        if kind == "net_persistent":
            verdict = persistence_check(rg)
            if verdict.persistent != claim["value"]:
                return res(False, f"persistent={verdict.persistent}")
            if not claim["value"] and "witness_state" in claim:
                s, t, u = verdict.witness
                want = (claim["witness_state"], *claim["witness_pair"])
                return res((s, t, u) == want, f"witness {verdict.witness}")
            return res(True)
        if kind == "isomorphic_rg_lts":
            verdict = isomorphic(rg, entry.lts)
            return res(verdict.isomorphic, f"mismatch: {verdict.mismatch}")
        if kind == "rg_isomorphic_to":
            other_rg, _ = complete_rg(corpus_load(claim["other"]).net)
            verdict = isomorphic(rg, other_rg)
            return res(verdict.isomorphic, f"mismatch: {verdict.mismatch}")
    if kind == "seq_persistent":
        verdict = sequence_persistence(net, net.initial, seq(claim["run"]))
        if verdict.persistent != claim["value"]:
            return res(False, f"persistent={verdict.persistent}")
        if "failing_index" in claim and verdict.failing_index != claim["failing_index"]:
            return res(False, f"failing index {verdict.failing_index}")
        if "disables" in claim and verdict.disabled_transition != claim["disables"]:
            return res(False, f"disabled {verdict.disabled_transition}")
        return res(True)
    if kind == "perm_equiv":
        got = perm_equivalent(net, net.initial, seq(claim["a"]), seq(claim["b"]))
        return res(got == claim["value"], f"equivalent={got}")
    if kind == "parikh_equal":
        got = parikh(seq(claim["a"])) == parikh(seq(claim["b"]))
        return res(got == claim["value"], f"equal={got}")
    if kind == "persistent_perm_equivalent":
        start = fire_sequence(net, net.initial, seq(claim.get("after", "")))
        got = persistent_perm_equivalent(net, start, seq(claim["run"]))
        if claim.get("expect_some"):
            return res(got is not None, f"got {got}")
        want = None if claim["expect"] is None else seq(claim["expect"])
        return res(got == want, f"got {got}")
    if kind == "persistent_parikh_equivalent":
        got = persistent_parikh_equivalent(net, net.initial, parikh(seq(claim["of"])))
        want = None if claim["expect"] is None else seq(claim["expect"])
        return res(got == want, f"got {got}")
    if kind == "spe":
        verdict = spe_check(net, claim["bound"], claim["mode"])
        if verdict.status != claim["status"]:
            return res(False, f"status={verdict.status}")
        if "counterexample" in claim:
            return res(verdict.counterexample == seq(claim["counterexample"]),
                       f"counterexample={verdict.counterexample}")
        return res(True)
    if kind == "diamond_unsupported":
        try:
            complete_diamond(net, net.initial, claim["y"], claim["x"])
        except UnsupportedClassError:
            return res(True)
        return res(False, "diamond completion did not reject the net")
    if kind == "lasso_valid":
        validate_lasso(net, textio.parse_lasso(claim["lasso"]))
        return res(True)
    if kind == "lasso_fairness":
        report = fairness_classify(net, textio.parse_lasso(claim["lasso"]))
        bad = [key for key in ("strongly_fair", "weakly_fair", "progress")
               if key in claim and getattr(report, key) != claim[key]]
        return res(not bad, f"mismatched tiers: {bad}")
    if kind == "lasso_persistent":
        verdict = lasso_persistence(net, textio.parse_lasso(claim["lasso"]))
        return res(verdict.persistent == claim["value"],
                   f"persistent={verdict.persistent}")
    if kind == "lasso_search":
        result = search_persistent_equivalent_lasso(
            net, textio.parse_lasso(claim["lasso"]))
        if result.status != claim["status"]:
            return res(False, f"status={result.status}")
        if "expect" in claim:
            want = textio.parse_lasso(claim["expect"])
            return res(result.lasso == want, f"found {result.lasso}")
        return res(True)
    if kind == "lasso_equiv":
        verdict = lasso_equiv_at_depth(
            net, textio.parse_lasso(claim["a"]),
            textio.parse_lasso(claim["b"]), claim["depth"])
        return res(verdict.status == claim["status"], f"status={verdict.status}")
    raise InputError(f"unknown manifest check '{kind}'")


def _describe(claim: dict) -> str:
    parts = [claim["check"]]
    for key, val in claim.items():
        if key not in ("check", "flags"):
            parts.append(f"{key}={val}")
    if "flags" in claim:
        parts.append(",".join(f"{k}={v}" for k, v in claim["flags"].items()))
    return " ".join(parts)


def _graph_once(net):
    """A function returning complete_rg(net), built on its first call: a
    graph cut off at its state budget raises the same ResourceExceededError
    at every call."""
    made = []

    def graph():
        if not made:
            try:
                made.append(complete_rg(net))
            except ResourceExceededError as exc:
                made.append(exc)
        if isinstance(made[0], ResourceExceededError):
            raise made[0]
        return made[0]

    return graph


def verify_entry(entry: CorpusEntry) -> list:
    results = []
    if entry.net_text:
        reparsed = textio.parse_net(textio.print_net(entry.net))
        results.append(ClaimResult(entry.name, "net round-trip",
                                   reparsed == entry.net))
    if entry.lts is not None:
        reparsed = textio.parse_lts(textio.print_lts(entry.lts))
        results.append(ClaimResult(entry.name, "lts round-trip",
                                   reparsed == entry.lts))
    graph = _graph_once(entry.net)
    for claim in entry.manifest:
        try:
            results.append(_run_claim(entry, claim, graph))
        except ResourceExceededError as exc:
            # a resource bound (a truncated graph, say) gives no verdict
            results.append(ClaimResult(entry.name, _describe(claim), False, str(exc)))
    return results


def verify_corpus(names=None) -> list:
    """Replay every manifest claim; returns a flat list of ClaimResults."""
    out = []
    for name in (names or corpus_names()):
        out.extend(verify_entry(corpus_load(name)))
    return out
