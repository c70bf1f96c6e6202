"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its wall time on success (run with
-s to see them); the stated time budgets are asserted, not advisory.
"""

import random
import time

import persinet as pn
from persinet import (
    GenConfig,
    Lasso,
    build_rg,
    builtin_pattern,
    classify_structure,
    corpus_load,
    corpus_names,
    derive_nonDC_embedding,
    emit_dot,
    find_embedding,
    fire_sequence,
    gen_random_net,
    isomorphic,
    oracle_spe_check,
    parikh,
    parse_lts,
    parse_net,
    perm_equivalent,
    persistence_check,
    print_lts,
    print_net,
    search_persistent_equivalent_lasso,
    spe_check,
    validate_embedding,
)
from persinet.fairness import fairness_classify, lasso_persistence
from persinet.theorems import run_theorem_suite


def seq(text):
    return tuple(text.split())


class _Clock:
    def __init__(self, limit, label):
        self.limit = limit
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.limit, \
                f"{self.label}: {elapsed:.2f}s exceeds the {self.limit}s budget"
            print(f"PASS {self.label} ({elapsed:.2f}s)")
        else:
            print(f"FAIL {self.label} ({elapsed:.2f}s)")
        return False


def test_criterion_1_corpus_classification():
    with _Clock(1.0, "criterion 1: corpus classification"):
        net = corpus_load("fig1_basic").net
        r = classify_structure(net)
        _, bound = build_rg(net)
        assert (r.plain, r.pure, bound.safe) == (True, True, True)
        assert r.asymmetric_choice is True
        assert r.dissymmetric_choice is False
        assert r.free_choice is False
        r16 = classify_structure(corpus_load("fig16_appendix").net)
        assert r16.asymmetric_choice is True
        assert r16.dissymmetric_choice is True
        assert r16.dc_tilde is True
        assert r16.free_choice is False


def test_criterion_2_rg_metrics():
    with _Clock(1.0, "criterion 2: reachability graph metrics"):
        rg, rep = build_rg(corpus_load("fig1_basic").net)
        assert rep.state_count == 8 and rep.edge_count == 10
        assert rg.deadlocks() == ("M6", "M7")
        _, rep14 = build_rg(corpus_load("fig14_counterexample").net)
        assert rep14.status == "bounded" and rep14.k_bound == 2
        assert rep14.safe is False


def test_criterion_3_persistence_witnesses():
    with _Clock(1.0, "criterion 3: persistence witnesses"):
        rg, _ = build_rg(corpus_load("fig1_basic").net)
        verdict = persistence_check(rg)
        assert not verdict.persistent
        state, t, u = verdict.witness
        assert state == "M4" and {t, u} == {"a", "b"}
        rg5, _ = build_rg(corpus_load("fig5_acbc").net)
        assert persistence_check(rg5).persistent


def test_criterion_4_spe_verdicts():
    with _Clock(60.0, "criterion 4: bounded permutability verdicts"):
        assert spe_check(corpus_load("fig1_basic").net, 8).status == \
            "holds-up-to-bound"
        verdict = spe_check(corpus_load("fig10_fpe_not_spe").net, 2)
        assert verdict.refuted
        assert verdict.counterexample in (seq("y b"), seq("y c"))
        assert len(verdict.counterexample) == 2
        assert spe_check(corpus_load("fig14_counterexample").net, 10).status == \
            "holds-up-to-bound"


def test_criterion_5_permutation_equivalence():
    with _Clock(1.0, "criterion 5: permutation equivalence"):
        net = corpus_load("fig1_basic").net
        assert perm_equivalent(net, net.initial, seq("d c a"), seq("c a d"))
        # and within two swaps: one swap reaches cda, a second reaches cad
        from persinet.net import _replay
        from persinet.sequences import _swaps

        def neighbours(w):
            return [w2 for w2, _, _ in _swaps(
                net, w, _replay(net, net.initial, w), {})]

        one = set(neighbours(seq("d c a")))
        two = one | {w2 for w in one for w2 in neighbours(w)}
        assert seq("c a d") in two
        spar = corpus_load("fig12_spar").net
        assert parikh(seq("a b c")) == parikh(seq("c b a"))
        assert not perm_equivalent(spar, spar.initial, seq("a b c"), seq("c b a"))


def test_criterion_6_pattern_embeddings():
    with _Clock(5.0, "criterion 6: pattern embeddings"):
        entry = corpus_load("fig1_basic")
        rg, _ = build_rg(entry.net)
        emb = find_embedding(builtin_pattern("nonpers"), rg)
        assert emb.state_map == {"1": "M4", "2": "M6", "3": "M7"}
        assert emb.label_map == {"a": "a", "b": "b"}
        f14 = corpus_load("fig14_counterexample")
        assert find_embedding(builtin_pattern("nonDC"), f14.lts) is not None
        d = derive_nonDC_embedding(entry.net, spe_bound=8)
        assert not validate_embedding(builtin_pattern("nonDC"), d.rg, d.embedding)
        r = d.roles
        for x, y in (("s4", "s6"), ("s1", "s3"), ("s1", "s4"), ("s3", "s6"),
                     ("s4", "s3"), ("s1", "s6"), ("s4", "s7"), ("s2", "s5"),
                     ("s2", "s4"), ("s5", "s7"), ("s4", "s5"), ("s2", "s7")):
            assert r[x] != r[y]


def test_criterion_7_fairness_spectrum():
    with _Clock(4.0, "criterion 7: fairness spectrum (four runs, <1s each)"):
        with _Clock(1.0, "  7a: fig6 lasso unfair toward b"):
            fig6 = corpus_load("fig6_unfair").net
            rep = fairness_classify(fig6, Lasso(("y",), seq("x a c")))
            assert not rep.strongly_fair
            assert rep.neglected["b"] in ("intermittently-neglected",
                                          "continuously-neglected")
        with _Clock(1.0, "  7b: fig14 lasso fair and nonpersistent"):
            fig14 = corpus_load("fig14_counterexample").net
            lasso = Lasso(("y",), seq("x a1 a2 b c"))
            assert fairness_classify(fig14, lasso).strongly_fair
            assert not lasso_persistence(fig14, lasso).persistent
        with _Clock(1.0, "  7c: fig15 sum fails progress"):
            s = corpus_load("fig15_sum").net
            assert not fairness_classify(s, Lasso((), ("a",))).progress
        with _Clock(1.0, "  7d: fig15 choice satisfies progress"):
            c = corpus_load("fig15_choice").net
            assert fairness_classify(c, Lasso((), ("a",))).progress


def test_criterion_8_fpe_probes():
    with _Clock(120.0, "criterion 8: persistent-equivalent probes"):
        f8 = corpus_load("fig8_variant").net
        result = search_persistent_equivalent_lasso(f8, Lasso((), seq("c d a e")))
        assert result.status == "found"
        assert result.lasso == Lasso((), seq("c a d e"))
        f14 = corpus_load("fig14_counterexample").net
        result = search_persistent_equivalent_lasso(
            f14, Lasso(("y",), seq("x a1 a2 b c")))
        assert result.status == "none-within-bounds"  # evidence, not proof


def test_criterion_9_property_suites():
    with _Clock(600.0, "criterion 9: 1000-seed property suites"):
        seeds = range(1000)

        # determinism: Parikh-equivalent firable sequences join
        rng = random.Random(0)
        for s in seeds:
            net = gen_random_net(GenConfig(seed=s, token_budget=3))
            word, m = [], net.initial
            for _ in range(rng.randint(1, 8)):
                en = pn.enabled_transitions(net, m)
                if not en:
                    break
                t = rng.choice(en)
                word.append(t)
                m = pn.fire(net, m, t)
            word = tuple(word)
            from persinet.net import _replay
            from persinet.sequences import _swaps

            cur = word
            for _ in range(3):
                opts = [w for w, _, _ in _swaps(
                    net, cur, _replay(net, net.initial, cur), {})]
                if not opts:
                    break
                cur = rng.choice(opts)
            assert fire_sequence(net, net.initial, cur) == \
                fire_sequence(net, net.initial, word)

        # DC-main's zero-violation requirement is distribution-relative:
        # multi-token comparable conflicts genuinely violate the implication
        # (see TestDcMainGenuineViolation), and this desk-scale distribution
        # does not generate them
        suites = (
            ("perm-implies-parikh", GenConfig()),
            ("persistence-factorisation", GenConfig()),
            ("CF-persistent", GenConfig(class_constraint=("CF",))),
            ("diamond-completion", GenConfig(class_constraint=("pure", "plain"),
                                             token_budget=4)),
            ("EC-main", GenConfig(class_constraint=("EC",))),
            ("DC-main", GenConfig(class_constraint=("pure", "plain"))),
        )
        for theorem, cfg in suites:
            report = run_theorem_suite(theorem, cfg, seeds)
            assert report.ok, (theorem, report.violations[:3])
            assert report.confirmations >= 200, \
                f"{theorem}: only {report.confirmations} confirmations"


def test_criterion_10_oracle_equivalence():
    with _Clock(300.0, "criterion 10: oracle equivalence on small nets"):
        compared = 0
        disagreements = []
        for s in range(500):
            net = gen_random_net(GenConfig(seed=s, places=3, transitions=3,
                                           token_budget=2))
            _, rep = build_rg(net, 200)
            if rep.status != "bounded" or rep.state_count > 9:
                continue
            bound = min(rep.state_count + 1, 6)
            for mode in (pn.SPE, pn.SPE_PARIKH):
                fast = spe_check(net, bound, mode)
                slow = oracle_spe_check(net, bound, mode)
                if (fast.status, fast.counterexample) != \
                        (slow.status, slow.counterexample):
                    disagreements.append((s, mode))
            compared += 1
        assert not disagreements
        assert compared >= 300


def test_criterion_11_round_trip_and_golden():
    with _Clock(10.0, "criterion 11: round-trip and stable output"):
        for name in corpus_names():
            entry = corpus_load(name)
            assert parse_net(print_net(entry.net)) == entry.net
            if entry.lts is not None:
                assert parse_lts(print_lts(entry.lts)) == entry.lts
            rg1, _ = build_rg(entry.net)
            rg2, _ = build_rg(entry.net)
            assert emit_dot(rg1) == emit_dot(rg2)
            if entry.lts is not None:
                assert isomorphic(rg1, entry.lts).isomorphic
