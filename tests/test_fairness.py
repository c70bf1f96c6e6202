import pytest

import persinet as pn
from persinet import (
    GenConfig,
    InputError,
    Lasso,
    corpus_load,
    disjoint_sum,
    fairness_classify,
    gen_random_net,
    lasso_equiv_at_depth,
    lasso_persistence,
    parse_lasso,
    pe_probe_matrix,
    project_sequence,
    search_persistent_equivalent_lasso,
    sequence_persistence,
    validate_lasso,
)
from persinet.fairness import FINITE_IS_FAIR, MAXIMAL_FINITE_IS_FAIR


def seq(text):
    return tuple(text.split())


class TestLassoValidation:
    def test_fig6(self, fig6):
        entry = validate_lasso(fig6, Lasso(("y",), seq("x a c")))
        assert entry == pn.fire(fig6, fig6.initial, "y")

    def test_fig14(self, fig14):
        validate_lasso(fig14, Lasso(("y",), seq("x a1 a2 b c")))

    def test_open_cycle_rejected(self, fig1):
        with pytest.raises(InputError):
            validate_lasso(fig1, Lasso((), ("c",)))

    def test_empty_cycle_rejected(self):
        with pytest.raises(InputError):
            Lasso((), ())


class TestFairnessClassify:
    def test_fig6_unfair_toward_b(self, fig6):
        rep = fairness_classify(fig6, Lasso(("y",), seq("x a c")))
        assert not rep.strongly_fair
        assert rep.neglected["b"] == "intermittently-neglected"
        assert rep.weakly_fair and rep.progress

    def test_fig14_fair(self, fig14):
        rep = fairness_classify(fig14, Lasso(("y",), seq("x a1 a2 b c")))
        assert rep.strongly_fair
        assert rep.neglected["y"] == "eventually-never-enabled"

    def test_fig15_progress_split(self):
        s = corpus_load("fig15_sum").net
        rep = fairness_classify(s, Lasso((), ("a",)))
        assert not rep.strongly_fair and not rep.weakly_fair and not rep.progress
        assert rep.neglected["b"] == "constantly-neglected"
        choice = corpus_load("fig15_choice").net
        rep = fairness_classify(choice, Lasso((), ("a",)))
        assert not rep.weakly_fair and rep.progress
        assert rep.neglected["b"] == "continuously-neglected"

    def test_tiers_weaken(self):
        # strongly fair => just => progress, across corpus and random lassos
        runs = [("fig5_acbc", " ; a c b c"), ("fig6_unfair", "y ; x a c"),
                ("fig14_counterexample", "y ; x a1 a2 b c"),
                ("fig15_sum", " ; a"), ("fig15_choice", " ; a"),
                ("fig8_variant", " ; c d a e"), ("fig8_variant", " ; c a d e")]
        for name, text in runs:
            net = corpus_load(name).net
            rep = fairness_classify(net, parse_lasso(text))
            assert not rep.strongly_fair or rep.weakly_fair
            assert not rep.weakly_fair or rep.progress

    def test_finite_regimes(self, fig1):
        maximal_run = seq("c a d")
        partial_run = seq("c")
        rep = fairness_classify(fig1, maximal_run, MAXIMAL_FINITE_IS_FAIR)
        assert rep.strongly_fair and rep.weakly_fair and rep.progress
        rep = fairness_classify(fig1, partial_run, MAXIMAL_FINITE_IS_FAIR)
        assert not rep.strongly_fair and not rep.progress
        rep = fairness_classify(fig1, partial_run, FINITE_IS_FAIR)
        assert rep.strongly_fair and rep.weakly_fair and not rep.progress


class TestLassoPersistence:
    def test_examples(self, fig5, fig14):
        assert lasso_persistence(fig5, Lasso((), seq("a c b c"))).persistent
        assert not lasso_persistence(fig14, Lasso(("y",), seq("x a1 a2 b c"))).persistent
        f8 = corpus_load("fig8_variant").net
        assert not lasso_persistence(f8, Lasso((), seq("c d a e"))).persistent

    def test_agrees_with_two_unrollings(self):
        cases = [("fig5_acbc", " ; a c b c"), ("fig6_unfair", "y ; x a c"),
                 ("fig8_variant", " ; c d a e"), ("fig8_variant", " ; c a d e"),
                 ("fig14_counterexample", "y ; x a1 a2 b c")]
        for name, text in cases:
            net = corpus_load(name).net
            lasso = parse_lasso(text)
            once = lasso_persistence(net, lasso).persistent
            twice = sequence_persistence(
                net, net.initial, lasso.prefix + lasso.cycle * 2).persistent
            assert once == twice, name


class TestLassoEquivalence:
    def test_fig7_swappable_forever(self):
        net = corpus_load("fig7_left").net
        verdict = lasso_equiv_at_depth(net, Lasso((), ("a", "b")),
                                       Lasso((), ("b", "a")), depth=10)
        assert verdict.status == "equivalent-at-depth"

    def test_self_equivalent(self, fig6):
        lasso = Lasso(("y",), seq("x a c"))
        assert lasso_equiv_at_depth(fig6, lasso, lasso, depth=8)

    def test_parikh_mismatch(self):
        net = corpus_load("fig7_right").net
        verdict = lasso_equiv_at_depth(net, Lasso((), ("a",)), Lasso((), ("b",)),
                                       depth=6)
        assert verdict.status == "not-equivalent"
        assert "signatures" in verdict.reason

    def test_equivalent_implies_equal_signature(self, fig6):
        from persinet.fairness import infinite_parikh_signature

        l1 = Lasso(("y",), seq("x a c"))
        l2 = Lasso(("y", "x", "a", "c"), seq("x a c"))
        verdict = lasso_equiv_at_depth(fig6, l1, l2, depth=6)
        if verdict.status == "equivalent-at-depth":
            assert infinite_parikh_signature(l1) == infinite_parikh_signature(l2)

    def test_rotations_denote_the_same_word(self, fig5):
        # (eps; a c b c) and (a; c b c a) unroll identically
        l1 = Lasso((), seq("a c b c"))
        l2 = Lasso(("a",), seq("c b c a"))
        assert l1.unroll(12) == l2.unroll(12)
        verdict = lasso_equiv_at_depth(fig5, l1, l2, depth=8)
        assert verdict.status == "equivalent-at-depth"

    def test_private_places_swap_like_shared_ones(self):
        # the two-place variant has the same single-state graph, and its
        # interleavings swap forever just the same
        net = corpus_load("fig7_right").net
        verdict = lasso_equiv_at_depth(net, Lasso((), ("a", "b")),
                                       Lasso((), ("b", "a")), depth=10)
        assert verdict.status == "equivalent-at-depth"

    def test_prefix_count_mismatch_is_not_equivalent(self, fig6):
        # dropping the y changes the finite part of the signature
        with_y = Lasso(("y",), seq("x a c"))
        without = Lasso((), seq("x a c"))
        verdict = lasso_equiv_at_depth(fig6, with_y, without, depth=6)
        assert verdict.status == "not-equivalent"
        assert "signatures" in verdict.reason

    def test_window_and_guard_outcomes(self):
        # fig8_variant's two corpus probes share their signature and agree at
        # depth 2 within the default window; with no window no permutation
        # of one unrolling matches the other's prefix, and a class guard of 1
        # stops the search before it can tell
        net = corpus_load("fig8_variant").net
        l1, l2 = parse_lasso(" ; c d a e"), parse_lasso(" ; c a d e")
        assert lasso_equiv_at_depth(net, l1, l2, depth=2).status == "equivalent-at-depth"
        narrow = lasso_equiv_at_depth(net, l1, l2, depth=2, window=0)
        assert narrow.status == "not-equivalent" and "within the window" in narrow.reason
        guarded = lasso_equiv_at_depth(net, l1, l2, depth=2, guard=1)
        assert (guarded.status, guarded.reason) == ("unknown", "class guard hit")


class TestNegativeBounds:
    def test_equivalence_rejects_negative_depth_and_window(self, fig6):
        lasso = Lasso(("y",), seq("x a c"))
        for bounds in ({"depth": -1}, {"depth": 8, "window": -5}):
            with pytest.raises(InputError, match="must be >= 0"):
                lasso_equiv_at_depth(fig6, lasso, lasso, **bounds)
        assert lasso_equiv_at_depth(fig6, lasso, lasso, depth=0, window=0)

    @pytest.mark.parametrize("bound", ["max_prefix", "max_cycle", "depth", "window"])
    def test_search_rejects_negative_bounds(self, fig5, fig6, bound):
        # a persistent input too, which the search returns before any bound
        # is used
        for net, lasso in ((fig6, Lasso(("y",), seq("x a c"))),
                           (fig5, Lasso((), seq("a c b c")))):
            with pytest.raises(InputError, match=f"{bound} must be >= 0"):
                search_persistent_equivalent_lasso(net, lasso, **{bound: -1})

    def test_search_accepts_zero_bounds(self):
        net = corpus_load("fig8_variant").net
        lasso = Lasso((), seq("c d a e"))
        result = search_persistent_equivalent_lasso(net, lasso, depth=0, window=0)
        assert result.status == "found"
        result = search_persistent_equivalent_lasso(net, lasso, max_prefix=0, max_cycle=0)
        assert result.status == "none-within-bounds"


class TestSearchEquivalentLasso:
    def test_fig8_found(self):
        net = corpus_load("fig8_variant").net
        result = search_persistent_equivalent_lasso(net, Lasso((), seq("c d a e")))
        assert result.status == "found"
        assert result.lasso == Lasso((), seq("c a d e"))

    def test_fig14_none(self, fig14):
        result = search_persistent_equivalent_lasso(
            net=fig14, lasso=Lasso(("y",), seq("x a1 a2 b c")),
            max_prefix=4, max_cycle=10, depth=8)
        assert result.status == "none-within-bounds"

    def test_fig6_none(self, fig6):
        result = search_persistent_equivalent_lasso(fig6, Lasso(("y",), seq("x a c")))
        assert result.status == "none-within-bounds"

    def test_persistent_input_returned(self, fig5):
        lasso = Lasso((), seq("a c b c"))
        result = search_persistent_equivalent_lasso(fig5, lasso)
        assert result.status == "found" and result.lasso == lasso

    def test_found_lassos_are_persistent_and_equivalent(self):
        net = corpus_load("fig8_variant").net
        lasso = Lasso((), seq("d c a e"))
        result = search_persistent_equivalent_lasso(net, lasso)
        assert result.status == "found"
        assert lasso_persistence(net, result.lasso).persistent
        assert lasso_equiv_at_depth(net, lasso, result.lasso, depth=8)


class TestDisjointSumFairness:
    def test_lemma_witness_finite_regime(self):
        # under finite-is-fair the sum run is unfair while both projections
        # are fair; under maximal-finite-is-fair the asymmetry disappears
        s = corpus_load("fig15_sum").net
        run = Lasso((), ("a",))
        assert not fairness_classify(s, run, FINITE_IS_FAIR).strongly_fair
        left = corpus_load("fig15_a_star").net
        right = corpus_load("fig15_b").net
        pa = project_sequence(s, run, "l")
        pb = project_sequence(s, run, "r")
        assert isinstance(pa, Lasso) and pb == ()
        assert fairness_classify(left, pa, FINITE_IS_FAIR).strongly_fair
        assert fairness_classify(right, pb, FINITE_IS_FAIR).strongly_fair
        assert not fairness_classify(right, pb, MAXIMAL_FINITE_IS_FAIR).strongly_fair

    def test_maximal_regime_compositional(self):
        # fairness of a sum run equals fairness of both projections
        import random

        rng = random.Random(3)
        checked = 0
        for s in range(40):
            a = gen_random_net(GenConfig(seed=s, places=3, transitions=2,
                                         token_budget=2))
            b = gen_random_net(GenConfig(seed=1000 + s, places=3, transitions=2,
                                         token_budget=2))
            total = disjoint_sum(a, b)
            run = _random_finite_run(total, rng, 6)
            whole = fairness_classify(total, run, MAXIMAL_FINITE_IS_FAIR)
            # ids are renamed apart in the sum, so classify the projections
            # on the restricted sub-nets, which keep the renamed ids
            left = pn.restrict_to_component(total, "l")
            right = pn.restrict_to_component(total, "r")
            pa = fairness_classify(left, project_sequence(total, run, "l"),
                                   MAXIMAL_FINITE_IS_FAIR)
            pb = fairness_classify(right, project_sequence(total, run, "r"),
                                   MAXIMAL_FINITE_IS_FAIR)
            assert whole.strongly_fair == (pa.strongly_fair and pb.strongly_fair)
            checked += 1
        assert checked == 40


def _random_finite_run(net, rng, max_len):
    word, m = [], net.initial
    for _ in range(rng.randint(0, max_len)):
        en = pn.enabled_transitions(net, m)
        if not en:
            break
        t = rng.choice(en)
        word.append(t)
        m = pn.fire(net, m, t)
    return tuple(word)


class TestProbeMatrix:
    def test_fig6(self, fig6):
        matrix = pe_probe_matrix(fig6, [Lasso(("y",), seq("x a c"))])
        assert matrix.spe.status == "holds-up-to-bound"
        row = matrix.probes[0]
        assert not row.fair and row.just and not row.persistent
        assert row.equivalent == "none-within-bounds"

    def test_fig10(self):
        net = corpus_load("fig10_fpe_not_spe").net
        probes = [seq("y b"), seq("x y z a c"), seq("x a z d y"), seq("z d y b x")]
        matrix = pe_probe_matrix(net, probes)
        assert matrix.spe.refuted
        fair_rows = [r for r in matrix.probes if r.fair]
        assert fair_rows and all(r.equivalent == "found" for r in fair_rows)
        yb = matrix.probes[0]
        assert not yb.fair and yb.equivalent == "none"

    def test_fig14(self, fig14):
        matrix = pe_probe_matrix(fig14, [Lasso(("y",), seq("x a1 a2 b c"))])
        assert matrix.spe.status == "holds-up-to-bound"
        row = matrix.probes[0]
        assert row.fair and row.equivalent == "none-within-bounds"

    def test_fig5_all_found(self, fig5):
        matrix = pe_probe_matrix(fig5, [Lasso((), seq("a c b c")), seq("a c")])
        assert all(r.equivalent == "found" for r in matrix.probes)


def _reference_lasso_search(net, lasso, max_prefix=4, max_cycle=10, depth=8):
    """The lasso search with its original candidate filter: every firable
    prefix in canonical order, every realisation of the cycle budget that
    returns to the entry, each candidate kept if lasso_persistence holds."""
    from persinet.fairness import LassoSearchResult, infinite_parikh_signature
    from persinet.theorems import _all_with_parikh

    def result(status, found):
        return LassoSearchResult(status, found, max_prefix, max_cycle, depth)

    if lasso_persistence(net, lasso).persistent:
        return result("found", lasso)
    support, finite_counts = infinite_parikh_signature(lasso)
    base = pn.parikh(lasso.cycle)
    prefixes, level = [((), net.initial)], [((), net.initial)]
    for _ in range(max_prefix):
        level = [(w + (t,), pn.fire(net, m, t))
                 for w, m in level for t in pn.enabled_transitions(net, m)]
        prefixes += level
    for prefix, entry in prefixes:
        counts = pn.parikh(prefix)
        if any(counts.get(t, 0) != n for t, n in finite_counts.items()):
            continue
        if any(t not in support and t not in finite_counts for t in counts):
            continue
        for k in range(1, max_cycle // len(lasso.cycle) + 1):
            budget = {t: k * n for t, n in base.items()}
            if sum(budget.values()) > max_cycle:
                break
            for cyc in _all_with_parikh(net, entry, budget):
                if pn.fire_sequence(net, entry, cyc) != entry:
                    continue
                cand = Lasso(prefix, cyc)
                if not lasso_persistence(net, cand).persistent:
                    continue
                if lasso_equiv_at_depth(net, lasso, cand, depth).status == \
                        "equivalent-at-depth":
                    return result("found", cand)
    return result("none-within-bounds", None)


def _seeded_lassos(count):
    """Nonpersistent lassos on small random nets and on their disjoint sums
    with fig8, fig6 and fig14: a shortest path to a reachability-graph
    state, then a shortest cycle back to it."""
    from collections import deque

    from persinet.lts import shortest_path

    out = []
    for s in range(400):
        net = gen_random_net(GenConfig(seed=s, places=3, transitions=3, token_budget=2))
        base = (None, "fig8_variant", "fig6_unfair", "fig14_counterexample")[s % 4]
        if base:
            net = disjoint_sum(corpus_load(base).net, net)
        rg, rep = pn.build_rg(net, 200)
        if rep.status != "bounded":
            continue
        succ = rg.next_states()
        for state in rg.states:
            queue, seen, cycle = deque([(state, ())]), {state}, None
            while queue and cycle is None:
                u, word = queue.popleft()
                for label, v in succ[u].items():
                    if v == state:
                        cycle = word + (label,)
                        break
                    if v not in seen and len(word) < 5:
                        seen.add(v)
                        queue.append((v, word + (label,)))
            if cycle is None:
                continue
            lasso = Lasso(shortest_path(rg, state), cycle)
            if len(lasso.prefix) <= 3 and not lasso_persistence(net, lasso).persistent:
                out.append((net, lasso))
                break
        if len(out) == count:
            return out
    raise AssertionError(f"only {len(out)} seeded lassos")


class TestLassoSearchAgainstReference:
    CORPUS = [("fig5_acbc", " ; a c b c"), ("fig5_acbc", "a ; c b c a"),
              ("fig6_unfair", "y ; x a c"), ("fig6_unfair", "y x a c ; x a c"),
              ("fig14_counterexample", "y ; x a1 a2 b c"),
              ("fig15_sum", " ; a"), ("fig15_choice", " ; a"),
              ("fig7_left", " ; a b"), ("fig7_left", " ; b a"),
              ("fig7_right", " ; a b"), ("fig7_right", " ; a"),
              ("fig8_variant", " ; c d a e"), ("fig8_variant", " ; c a d e"),
              ("fig8_variant", " ; d c a e")]

    def test_corpus_lassos(self):
        for name, text in self.CORPUS:
            net = corpus_load(name).net
            lasso = parse_lasso(text)
            validate_lasso(net, lasso)
            assert search_persistent_equivalent_lasso(net, lasso) == \
                _reference_lasso_search(net, lasso), (name, text)
        fig14 = corpus_load("fig14_counterexample").net
        lasso = Lasso(("y",), seq("x a1 a2 b c"))
        assert search_persistent_equivalent_lasso(fig14, lasso, 5, 7, 6) == \
            _reference_lasso_search(fig14, lasso, 5, 7, 6)

    def test_seeded_lassos(self):
        found = 0
        for net, lasso in _seeded_lassos(50):
            got = search_persistent_equivalent_lasso(net, lasso, 3, 8, 6)
            assert got == _reference_lasso_search(net, lasso, 3, 8, 6), (net.name, lasso)
            found += got.status == "found"
        assert 0 < found < 50


@pytest.fixture
def fires(monkeypatch):
    """count(question) is the number of net.fire calls question makes:
    every replay of a given word or lasso fires each step through it."""
    import persinet.net

    calls = []
    fire = persinet.net.fire

    def counting(net, m, t):
        calls.append(t)
        return fire(net, m, t)

    monkeypatch.setattr(persinet.net, "fire", counting)

    def count(question):
        calls.clear()
        question()
        return len(calls)
    return count


class TestOneReplayPerQuestion:
    def test_probe_run_counts(self, fires, fig6, fig14):
        from persinet.fairness import AnalysisBounds, probe_run

        bounds = AnalysisBounds()
        # one replay each for fairness_classify and the search, which finds
        # no candidate to test
        assert fires(lambda: probe_run(fig6, Lasso(("y",), seq("x a c")), bounds)) == 8
        assert fires(lambda: probe_run(fig14, Lasso(("y",), seq("x a1 a2 b c")),
                                       bounds)) == 12

    def test_cli_fairness_counts(self, fires, capsys):
        from persinet import cli

        # one replay for fairness_classify, then one for the search, which
        # also decides the persistence line; without the search,
        # lasso_persistence replays it instead
        argv = ["fairness", "fig14_counterexample", "--lasso", "y ; x a1 a2 b c"]
        assert fires(lambda: cli.main(argv + ["--search-equivalent"])) == 12
        assert "persistent: no\npersistent equivalent: none-within-bounds\n" in \
            capsys.readouterr().out
        assert fires(lambda: cli.main(argv)) == 12
        assert capsys.readouterr().out.endswith("persistent: no\n")

    def test_each_question_fires_its_lasso_once(self, fires):
        for name, text in TestLassoSearchAgainstReference.CORPUS:
            net = corpus_load(name).net
            lasso = parse_lasso(text)
            once = len(lasso.prefix) + len(lasso.cycle)
            assert fires(lambda: validate_lasso(net, lasso)) == once, text
            assert fires(lambda: fairness_classify(net, lasso)) == once, text
            assert fires(lambda: lasso_persistence(net, lasso)) == once, text
            if lasso_persistence(net, lasso).persistent:
                assert fires(lambda: search_persistent_equivalent_lasso(net, lasso)) \
                    == once, text

    def test_searches_replay_only_unrollings(self, fires, fig6):
        # both lassos once, then each class search replays one unrolling
        # of length depth + window
        lasso = Lasso(("y",), seq("x a c"))
        assert fires(lambda: lasso_equiv_at_depth(fig6, lasso, lasso, 8)) == \
            4 + 4 + 2 * (8 + 6)
        # the input once, then one candidate, c a d e, is tested without
        # validating either lasso again
        net = corpus_load("fig8_variant").net
        assert fires(lambda: search_persistent_equivalent_lasso(
            net, Lasso((), seq("c d a e")))) == 4 + 2 * (8 + 8)


class TestSearchDecidesPersistence:
    def test_input_returned_iff_persistent(self):
        cases = [(corpus_load(name).net, parse_lasso(text))
                 for name, text in TestLassoSearchAgainstReference.CORPUS]
        cases += [(corpus_load(name).net, parse_lasso(line))
                  for name in pn.corpus_names()
                  for line in corpus_load(name).probes if ";" in line]
        for net, lasso in cases:
            search = search_persistent_equivalent_lasso(net, lasso)
            assert (search.lasso == lasso) == lasso_persistence(net, lasso).persistent, \
                (net.name, lasso)
        for net, lasso in _seeded_lassos(50):
            search = search_persistent_equivalent_lasso(net, lasso, 3, 8, 6)
            assert (search.lasso == lasso) == lasso_persistence(net, lasso).persistent, \
                (net.name, lasso)
