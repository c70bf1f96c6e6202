from itertools import combinations, permutations

import pytest

import persinet as pn
from persinet import (
    GenConfig,
    InputError,
    Net,
    NotEnabledError,
    UnknownIdError,
    UnsupportedClassError,
    classify_structure,
    concurrently_enables,
    corpus_load,
    disjoint_sum,
    enabled,
    enabled_transitions,
    fire,
    fire_sequence,
    gen_random_net,
    parse_lasso,
    project_sequence,
    reverse_dual,
)
from persinet.net import (ClassReport, _components, _enabled_i, _fire_i, _may_disable,
                          _sub_net, replay_class_witness)


def seq(text):
    return tuple(text.split())


class TestFiringRule:
    def test_enabled_at_initial(self, fig1):
        assert fig1.initial == (1, 1, 0, 1, 0)
        assert enabled(fig1, fig1.initial, "c")
        assert not enabled(fig1, fig1.initial, "a")

    def test_zero_marking_enables_nothing(self, fig1):
        zero = (0,) * 5
        assert enabled_transitions(fig1, zero) == ()

    def test_unknown_transition(self, fig1):
        with pytest.raises(UnknownIdError):
            enabled(fig1, fig1.initial, "zz")

    def test_fire(self, fig1):
        assert fire(fig1, fig1.initial, "c") == (0, 1, 1, 1, 0)

    def test_fire_weighted(self):
        net = corpus_load("fig2_confuse").net
        assert net.initial == (2,)
        assert fire(net, net.initial, "y") == (1,)
        assert not enabled(net, (1,), "y")

    def test_fire_disabled_names_place(self, fig1):
        with pytest.raises(NotEnabledError) as err:
            fire(fig1, fig1.initial, "a")
        assert err.value.place == "p2"

    def test_side_condition_loop_is_identity(self):
        net = Net("loop", ["p"], ["t"], [("p", "t", 1), ("t", "p", 1)], {"p": 1})
        assert fire(net, net.initial, "t") == net.initial

    def test_public_firing_errors(self, fig1):
        # fire and enabled_transitions test every bad input in one branch;
        # each still raises its own error, with its own message, in order
        rd = reverse_dual(fig1)
        short = fig1.initial[:-1]
        cases = [
            (UnsupportedClassError, "net 'rd(fig1_basic)' is structural-only "
             "(reverse dual); its marking carries no semantics",
             [lambda: fire(rd, rd.initial, "p0"), lambda: enabled_transitions(rd, rd.initial),
              lambda: fire(rd, (), "zz"), lambda: enabled_transitions(rd, ())]),
            (InputError, "marking has 4 entries, net 'fig1_basic' has 5 places",
             [lambda: fire(fig1, short, "c"), lambda: enabled_transitions(fig1, short),
              lambda: fire(fig1, short, "zz")]),
            (UnknownIdError, "unknown transition 'zz'",
             [lambda: fire(fig1, fig1.initial, "zz")]),
        ]
        for error, message, calls in cases:
            for call in calls:
                with pytest.raises(InputError) as err:
                    call()
                assert type(err.value) is error and str(err.value) == message

    @pytest.mark.parametrize("call", [
        lambda net, m: fire(net, m, "c"),
        lambda net, m: enabled(net, m, "c"),
        lambda net, m: enabled_transitions(net, m),
        lambda net, m: fire_sequence(net, m, seq("c")),
        lambda net, m: pn.sequence_persistence(net, m, seq("c")),
        lambda net, m: pn.spe_check(net, 3, m0=m),
        lambda net, m: pn.equivalence_class(net, m, seq("c d")),
        lambda net, m: pn.perm_equivalent(net, m, seq("c d"), seq("d c")),
        lambda net, m: pn.persistent_perm_equivalent(net, m, seq("c d")),
        lambda net, m: pn.persistent_parikh_equivalent(net, m, {"c": 1}),
    ], ids=["fire", "enabled", "enabled_transitions", "fire_sequence",
            "sequence_persistence", "spe_check", "equivalence_class",
            "perm_equivalent", "persistent_perm_equivalent",
            "persistent_parikh_equivalent"])
    def test_markings_must_be_tuples(self, fig1, call):
        for m in (list(fig1.initial), 5):
            with pytest.raises(InputError, match="marking must be a tuple of "
                               f"token counts, got {type(m).__name__}"):
                call(fig1, m)

    def test_fire_sequence_reaches_m6(self, fig1):
        m6 = (0, 0, 0, 0, 1)
        assert fire_sequence(fig1, fig1.initial, seq("c d a")) == m6
        assert fire_sequence(fig1, fig1.initial, seq("d c a")) == m6
        assert fire_sequence(fig1, fig1.initial, seq("c a d")) == m6

    def test_fire_sequence_empty(self, fig1):
        assert fire_sequence(fig1, fig1.initial, ()) == fig1.initial

    def test_fire_sequence_error_index(self, fig1):
        with pytest.raises(NotEnabledError) as err:
            fire_sequence(fig1, fig1.initial, seq("a"))
        assert err.value.index == 0
        with pytest.raises(NotEnabledError) as err:
            fire_sequence(fig1, fig1.initial, seq("c d a a"))
        assert err.value.index == 3

    def test_enabling_monotone_random(self):
        for s in range(40):
            net = gen_random_net(GenConfig(seed=s, token_budget=4))
            m = net.initial
            bigger = tuple(x + 1 for x in m)
            for t in net.transitions:
                if enabled(net, m, t):
                    assert enabled(net, bigger, t)

    def test_determinism_parikh(self):
        # equal multisets of fired transitions land on the same marking
        import random

        from persinet.net import _replay
        from persinet.sequences import _swaps

        for s in range(40):
            net = gen_random_net(GenConfig(seed=s, token_budget=4))
            rng = random.Random(s)
            word, m = [], net.initial
            for _ in range(rng.randint(1, 8)):
                en = enabled_transitions(net, m)
                if not en:
                    break
                t = rng.choice(en)
                word.append(t)
                m = fire(net, m, t)
            cur = tuple(word)
            for _ in range(4):
                opts = [w for w, _, _ in _swaps(
                    net, cur, _replay(net, net.initial, cur), {})]
                if not opts:
                    break
                cur = rng.choice(opts)
            assert fire_sequence(net, net.initial, cur) == \
                fire_sequence(net, net.initial, tuple(word))


class TestClassification:
    def test_fig1(self, fig1):
        r = classify_structure(fig1)
        assert (r.plain, r.pure) == (True, True)
        assert not r.choice_free and not r.free_choice and not r.equal_conflict
        assert r.dissymmetric_choice is False
        assert r.witnesses["dissymmetric_choice"] == ("a", "b")
        assert r.asymmetric_choice is True
        assert r.dc_tilde is False

    def test_fig5_witness_is_p(self, fig5):
        r = classify_structure(fig5)
        assert r.asymmetric_choice and r.dissymmetric_choice is False
        assert not r.free_choice and not r.choice_free
        assert r.witnesses["choice_free"] == ("p", "a", "b")

    def test_fig16(self):
        r = classify_structure(corpus_load("fig16_appendix").net)
        assert r.asymmetric_choice and r.dissymmetric_choice and r.dc_tilde
        assert not r.free_choice

    def test_non_plain_flags_not_applicable(self):
        r = classify_structure(corpus_load("fig2_confuse").net)
        assert not r.plain and not r.pure
        assert r.dissymmetric_choice is None
        assert r.asymmetric_choice is None
        assert r.dc_tilde is None

    def test_fc_implies_ec_and_dc(self):
        for s in range(30):
            net = gen_random_net(GenConfig(seed=s, class_constraint=("FC",)))
            r = classify_structure(net)
            assert r.free_choice and r.equal_conflict and r.dissymmetric_choice

    def test_plain_ec_equals_fc(self):
        for s in range(40):
            net = gen_random_net(GenConfig(seed=s))
            r = classify_structure(net)
            if r.plain:
                assert r.equal_conflict == r.free_choice

    def test_witnesses_replay(self):
        nets = [corpus_load(n).net for n in
                ("fig1_basic", "fig2_confuse", "fig5_acbc", "fig14_counterexample")]
        nets += [gen_random_net(GenConfig(seed=s, max_weight=2)) for s in range(30)]
        for net in nets:
            r = classify_structure(net)
            for flag, witness in r.witnesses.items():
                assert replay_class_witness(net, flag, witness), (net.name, flag)


def _tangled(a, b):
    return bool(a & b) and not (a <= b or b <= a)


def _offends(net, flag, x, y):
    """The pairwise class conditions straight from their definitions, on ids."""
    if flag in ("equal_conflict", "dissymmetric_choice"):
        pre_x = {p: net.pre_weight(p, x) for p in net.places if net.pre_weight(p, x)}
        pre_y = {p: net.pre_weight(p, y) for p in net.places if net.pre_weight(p, y)}
        if flag == "equal_conflict":
            return bool(set(pre_x) & set(pre_y)) and pre_x != pre_y
        return _tangled(set(pre_x), set(pre_y))
    cons_x, cons_y = set(net.place_postset(x)), set(net.place_postset(y))
    if flag == "asymmetric_choice":
        return _tangled(cons_x, cons_y)
    prod_x, prod_y = set(net.place_preset(x)), set(net.place_preset(y))
    return bool(cons_x & cons_y) and not (cons_x <= cons_y or prod_y <= prod_x)


_PAIRS = {"equal_conflict": ("transitions", combinations),
          "dissymmetric_choice": ("transitions", combinations),
          "asymmetric_choice": ("places", combinations),
          "dc_tilde": ("places", permutations)}


def _reference_report(net):
    """A ClassReport written from the definitions: every witness is the first
    offender in declaration order."""
    P, T = net.places, net.transitions
    arcs = [arc for t in T for arc in [(p, t, net.pre_weight(p, t)) for p in P]
            + [(t, p, net.post_weight(t, p)) for p in P]]
    found = {
        "plain": next((arc for arc in arcs if arc[2] > 1), None),
        "pure": next(((p, t) for p in P for t in T
                      if net.pre_weight(p, t) and net.post_weight(t, p)), None),
        "choice_free": next(((p, *net.place_postset(p)[:2]) for p in P
                             if len(net.place_postset(p)) > 1), None),
    }
    for flag, (kind, pairs) in _PAIRS.items():
        found[flag] = next((pair for pair in pairs(getattr(net, kind), 2)
                            if _offends(net, flag, *pair)), None)
    plain = found["plain"] is None
    found["free_choice"] = found["equal_conflict"] if plain else found["plain"]
    flags = {flag: witness is None for flag, witness in found.items()}
    if not plain:
        for flag in ("dissymmetric_choice", "asymmetric_choice", "dc_tilde"):
            flags[flag] = None
            del found[flag]
    return ClassReport(**flags, witnesses={
        flag: witness for flag, witness in found.items() if witness is not None})


def _table_nets():
    nets = [pn.corpus_load(name).net for name in pn.corpus_names()]
    configs = ({}, {"places": 5, "transitions": 5}, {"max_weight": 2},
               {"max_weight": 3}, {"class_constraint": ("pure", "plain")})
    nets += [gen_random_net(GenConfig(seed=s, **kw)) for kw in configs for s in range(300)]
    return nets + [reverse_dual(net) for net in nets]


class TestClassTable:
    def test_against_reference(self):
        nets = _table_nets()
        assert len(nets) > 3000
        for net in nets:
            assert classify_structure(net) == _reference_report(net), net.name

    def test_replay_rejects_innocent_pairs(self):
        verdicts = {flag: set() for flag in (*_PAIRS, "free_choice")}
        for net in _table_nets()[:400]:
            for flag, (kind, _) in _PAIRS.items():
                for pair in permutations(getattr(net, kind), 2):
                    got = replay_class_witness(net, flag, pair)
                    assert got == _offends(net, flag, *pair), (net.name, flag, pair)
                    verdicts[flag].add(got)
                    if flag == "equal_conflict":
                        fc = replay_class_witness(net, "free_choice", pair)
                        assert fc == got
                        verdicts["free_choice"].add(fc)
        assert all(seen == {True, False} for seen in verdicts.values()), verdicts

    def test_replay_rejects_innocent_arcs_and_places(self, fig1):
        assert fig1.pre_weight("p3", "a") == 1
        for flag in ("plain", "free_choice"):
            assert not replay_class_witness(fig1, flag, ("p3", "a", 1))
        assert replay_class_witness(fig1, "choice_free", ("p3", "a", "b"))
        assert not replay_class_witness(fig1, "choice_free", ("p3", "a", "a"))
        assert not replay_class_witness(fig1, "choice_free", ("p2", "a", "b"))
        assert not replay_class_witness(fig1, "pure", ("p3", "a"))
        with pytest.raises(InputError):
            replay_class_witness(fig1, "safe", ("p0", "p1"))


class TestMayDisable:
    """net._may_disable lists, per transition t, every u that firing t can
    disable, by the structure alone."""

    @staticmethod
    def _nets():
        nets = [pn.corpus_load(name).net for name in pn.corpus_names()]
        for kw in ({}, {"max_weight": 2}, {"token_budget": 6}):
            nets += [gen_random_net(GenConfig(seed=s, **kw)) for s in range(80)]
        return nets

    def test_sound_at_every_reachable_marking(self):
        steps = disabling = self_loops = 0
        for net in self._nets():
            table = _may_disable(net)
            self_loops += any(pi in post for pre, post in zip(net._pre, net._post)
                              for pi in pre)
            rg, _ = pn.build_rg(net, 500)
            for m in rg.payload.values():
                before = _enabled_i(net, m)
                for t in before:
                    still = _enabled_i(net, _fire_i(net, m, t))
                    steps += 1
                    for u in before:
                        if u != t and u not in still:
                            disabling += 1
                            assert u in table[t], (net.name, m, t, u)
        assert steps > 2500 and disabling > 1000 and self_loops > 100

    def test_definition(self):
        # u != t is listed iff t removes tokens from a place of u's preset
        for net in self._nets():
            pre, post = net._pre, net._post
            assert _may_disable(net) == [
                [u for u in range(len(pre)) if u != t
                 and any(post[t].get(p, 0) < pre[t].get(p, 0) for p in pre[u])]
                for t in range(len(pre))], net.name

    def test_self_loops_and_weights(self):
        # t is a self-loop on p, u consumes p, v takes 2 from p and returns
        # 1, w returns more to q than it takes
        net = Net("loops", ["p", "q"], ["t", "u", "v", "w"],
                  [("p", "t", 1), ("t", "p", 1), ("p", "u", 1),
                   ("p", "v", 2), ("v", "p", 1), ("q", "w", 1), ("w", "q", 2)],
                  {"p": 2, "q": 1})
        assert _may_disable(net) == [[], [0, 2], [0, 1], []]
        # fig7_left's two self-loops on one place disable nothing: a
        # conflict-free net though they share their input place
        assert not any(_may_disable(pn.corpus_load("fig7_left").net))


def _components_by_search(net):
    """The components by a search from each transition over shared places:
    a reference for net._components."""
    touches = [set(pre) | set(post) for pre, post in zip(net._pre, net._post)]
    seen, out = set(), []
    for t0 in range(len(touches)):
        if t0 in seen:
            continue
        group, todo = {t0}, [t0]
        while todo:
            t = todo.pop()
            for u in range(len(touches)):
                if u not in group and touches[t] & touches[u]:
                    group.add(u)
                    todo.append(u)
        seen |= group
        out.append((sorted(group), sorted(set().union(*(touches[t] for t in group)))))
    return out


class TestComponents:
    """net._components splits the transitions into connected components,
    ordered by least transition index, each with the places its arcs reach."""

    def test_against_search(self):
        nets = [corpus_load(name).net for name in pn.corpus_names()]
        nets = [net for net in nets if net is not None]
        for s in range(150):
            a = gen_random_net(GenConfig(seed=s))
            b = gen_random_net(GenConfig(seed=s, places=3, transitions=3, token_budget=2))
            nets += [a, disjoint_sum(a, b), disjoint_sum(b, disjoint_sum(a, b))]
        split = 0
        for net in nets:
            got = _components(net)
            assert got == _components_by_search(net), net.name
            assert sorted(t for ts, _ in got for t in ts) == list(range(len(net.transitions)))
            split += len(got) > 1
        assert split > 300

    def test_sum_order_and_isolated_places(self, fig1):
        # par-like cycles interleaved by declaration order, an isolated place
        # and a transition without arcs
        net = Net("mix", ["p", "q", "z", "r"], ["a", "c", "b", "e"],
                  [("p", "a", 1), ("a", "q", 1), ("r", "c", 1), ("q", "b", 1), ("b", "p", 1)],
                  {"p": 1})
        assert _components(net) == [([0, 2], [0, 1]), ([1], [3]), ([3], [])]
        assert _components(disjoint_sum(fig1, fig1)) == [
            ([0, 1, 2, 3], [0, 1, 2, 3, 4]), ([4, 5, 6, 7], [5, 6, 7, 8, 9])]

    def test_sub_net(self, fig1):
        net = disjoint_sum(fig1, corpus_load("fig2_confuse").net)
        m = fire(net, net.initial, "c")
        (ts, ps), (ts2, ps2) = _components(net)
        left = _sub_net(net, ts, ps, m)
        assert left.places == fig1.places and left.transitions == fig1.transitions
        assert left.structurally_equal(fig1)
        assert left.initial == fire(fig1, fig1.initial, "c")
        right = pn.restrict_to_component(net, "r")
        assert right.structurally_equal(_sub_net(net, ts2, ps2, net.initial))
        assert right.initial == tuple(net.initial[pi] for pi in ps2)


class TestConstructions:
    def test_reverse_dual_involution(self, fig1):
        twice = reverse_dual(reverse_dual(fig1))
        assert twice.places == fig1.places
        assert twice.transitions == fig1.transitions
        assert twice.structurally_equal(fig1)

    def test_reverse_dual_swaps_ac_dc(self, fig1):
        r = classify_structure(fig1)
        rd = classify_structure(reverse_dual(fig1))
        assert rd.dissymmetric_choice == r.asymmetric_choice is True
        assert rd.asymmetric_choice == r.dissymmetric_choice is False

    def test_reverse_dual_of_fc_is_fc(self):
        for s in range(20):
            net = gen_random_net(GenConfig(seed=s, class_constraint=("FC",)))
            assert classify_structure(reverse_dual(net)).free_choice

    def test_reverse_dual_rejects_behaviour(self, fig1):
        rd = reverse_dual(fig1)
        assert rd.structural_only
        with pytest.raises(UnsupportedClassError):
            enabled(rd, rd.initial, "p0")

    def test_disjoint_sum_components(self):
        s = corpus_load("fig15_sum").net
        assert set(s.transitions) == {"a", "b"}
        assert s.components == {"sa": "l", "a": "l", "sb": "r", "b": "r"}

    def test_disjoint_sum_renames_collisions(self, fig1):
        s = disjoint_sum(fig1, fig1)
        assert set(s.transitions) == {f"l.{t}" for t in "abcd"} | \
            {f"r.{t}" for t in "abcd"}

    def test_sum_with_empty_net_is_identity(self, fig1):
        empty = Net("nil", ["z"], [], [], {})
        s = disjoint_sum(fig1, empty)
        assert s.places == fig1.places + ("z",)
        assert s.transitions == fig1.transitions

    def test_sum_rg_is_product(self):
        for sa, sb in ((1, 2), (3, 4), (5, 6)):
            a = gen_random_net(GenConfig(seed=sa, places=3, transitions=2, token_budget=2))
            b = gen_random_net(GenConfig(seed=sb, places=3, transitions=2, token_budget=2))
            _, ra = pn.build_rg(a)
            _, rb = pn.build_rg(b)
            _, rs = pn.build_rg(disjoint_sum(a, b))
            assert rs.state_count == ra.state_count * rb.state_count

    def test_project_sequence(self):
        s = corpus_load("fig15_sum").net
        lasso = parse_lasso(" ; a")
        assert project_sequence(s, lasso, "r") == ()
        assert project_sequence(s, lasso, "l") == lasso
        assert project_sequence(s, ("a", "a"), "r") == ()

    def test_project_untagged_rejected(self, fig1):
        with pytest.raises(InputError):
            project_sequence(fig1, ("a",), "l")


class TestConcurrentEnabling:
    def test_fig1_examples(self, fig1):
        assert concurrently_enables(fig1, fig1.initial, "c", "d")
        m4 = fire_sequence(fig1, fig1.initial, seq("c d"))
        assert not concurrently_enables(fig1, m4, "a", "b")

    def test_fig15_sum(self):
        s = corpus_load("fig15_sum").net
        assert concurrently_enables(s, s.initial, "a", "b")

    def test_errors(self, fig1):
        with pytest.raises(InputError):
            concurrently_enables(fig1, fig1.initial, "c", "c")
        weighted = corpus_load("fig2_confuse").net
        with pytest.raises(UnsupportedClassError):
            concurrently_enables(weighted, weighted.initial, "x", "y")

    def test_implies_both_orders(self):
        for s in range(40):
            net = gen_random_net(GenConfig(seed=s, token_budget=4))
            if not classify_structure(net).plain:
                continue
            m = net.initial
            en = enabled_transitions(net, m)
            for t in en:
                for u in en:
                    if t != u and concurrently_enables(net, m, t, u):
                        assert enabled(net, fire(net, m, t), u)
