import random

import pytest

from persinet import (
    GenConfig,
    InputError,
    Lts,
    ResourceExceededError,
    SPE,
    SPE_PARIKH,
    UnknownIdError,
    UnsupportedClassError,
    build_rg,
    corpus_load,
    corpus_names,
    disjoint_sum,
    enabled,
    fire,
    gen_random_net,
    isomorphic,
    lasso_persistence,
    lts_properties,
    oracle_spe_check,
    parse_lasso,
    persistence_check,
    sequence_persistence,
)
from persinet.net import Net
from persinet.patterns import builtin_pattern, find_embedding
from persinet.textio import parse_lts, print_lts
from persinet import lts as lts_mod
from persinet.lts import _parikh_spot_check, bfs_depths, shortest_path

from nets import par


def _small_random_rgs(seeds, max_states=100):
    for s in seeds:
        net = gen_random_net(GenConfig(seed=s, places=3, transitions=3, token_budget=2))
        rg, rep = build_rg(net, max_states)
        if rep.status == "bounded":
            yield rg


class TestLtsConstruction:
    def test_bad_edges_name_the_first_offender(self):
        with pytest.raises(UnknownIdError, match=r"\(s,a,z\) uses unknown state"):
            Lts("x", ["s", "t"], ["a"],
                [("s", "a", "t"), ("s", "a", "z"), ("t", "b", "s")], "s")
        with pytest.raises(UnknownIdError, match=r"\(t,b,s\) uses unknown label"):
            Lts("x", ["s", "t"], ["a"], [("s", "a", "t"), ("t", "b", "s")], "s")
        with pytest.raises(InputError, match=r"duplicate edge \(s,a,t\)"):
            Lts("x", ["s", "t"], ["a"],
                [("s", "a", "t"), ("t", "a", "s"), ("s", "a", "t")], "s")
        with pytest.raises(InputError, match="injective"):
            Lts("x", ["s", "t"], ["a"], [("s", "a", "t")], "s",
                payload={"s": (1,), "t": (1,)})
        # one edge with an unknown label and an unknown target names the state
        with pytest.raises(UnknownIdError, match=r"\(s,b,z\) uses unknown state"):
            Lts("x", ["s", "t"], ["a"], [("s", "b", "z")], "s")
        # a duplicate listed before an unknown label is the first offender
        with pytest.raises(InputError, match=r"duplicate edge \(s,a,t\)"):
            Lts("x", ["s", "t"], ["a"],
                [("s", "a", "t"), ("s", "a", "t"), ("t", "b", "s")], "s")
        # however many good edges come first
        chain = [f"s{i}" for i in range(1001)]
        good = [(chain[i], "a", chain[i + 1]) for i in range(1000)]
        with pytest.raises(UnknownIdError, match=r"\(s0,b,s1\) uses unknown label"):
            Lts("x", chain, ["a"], good + [("s0", "b", "s1")], "s0")

    @pytest.mark.parametrize("states, edges, payload, message", [
        (["s", "t"], [("s", "a")], None, r"edge \('s', 'a'\) is not a triple"),
        (["s", "t"], [("s", "a", "t", "s")], None, "is not a triple"),
        (["s", "t"], [(["s"], "a", "t")], None, "is not a triple of hashable ids"),
        (["s", ["t"]], [], None, "state ids must be hashable"),
        (["s", "t"], [("s", "a", "t")], {"s": [0], "t": [1]},
         "state payloads must be hashable"),
    ], ids=["pair-edge", "quadruple-edge", "unhashable-edge-state", "unhashable-state",
            "unhashable-payload"])
    def test_malformed_input_is_an_input_error(self, states, edges, payload, message):
        with pytest.raises(InputError, match=r"^lts 'x': .*" + message):
            Lts("x", states, ["a"], edges, "s", payload)

    def test_state_of_payload(self, fig1):
        rg, _ = build_rg(fig1)
        for s in rg.states:
            assert rg.state_of_payload(rg.payload[s]) == s
        with pytest.raises(UnknownIdError):
            rg.state_of_payload((9, 9, 9, 9, 9))
        with pytest.raises(UnknownIdError):
            rg.state_of_payload([1, 1, 0, 1, 0])
        with pytest.raises(InputError):
            Lts("one", ["s"], [], [], "s").state_of_payload((0,))


class TestBuildRg:
    def test_fig1_metrics(self, fig1):
        rg, rep = build_rg(fig1, 1000)
        assert rep.state_count == 8 and rep.edge_count == 10
        assert rep.status == "bounded" and rep.safe and rep.k_bound == 1
        assert rg.deadlocks() == ("M6", "M7")

    def test_fig1_bfs_names_match_payloads(self, fig1):
        rg, _ = build_rg(fig1)
        assert rg.payload["M0"] == (1, 1, 0, 1, 0)
        assert rg.payload["M4"] == (0, 0, 1, 1, 1)
        assert rg.payload["M7"] == (0, 0, 1, 0, 0)

    def test_fig14_bound_two(self, fig14):
        _, rep = build_rg(fig14, 1000)
        assert rep.status == "bounded" and not rep.safe
        assert rep.k_bound == 2
        assert rep.place_bounds["p"] == 2
        assert all(k <= 1 for pl, k in rep.place_bounds.items() if pl != "p")

    def test_single_state_loops(self):
        rg, rep = build_rg(corpus_load("fig7_left").net, 1000)
        assert rep.state_count == 1 and rep.edge_count == 2
        assert rg.enabled_labels("M0") == ("a", "b")

    def test_cutoff_flagged_not_raised(self, fig1):
        _, rep = build_rg(fig1, 3)
        assert rep.status == "cutoff-reached"
        assert rep.state_count == 3
        assert rep.safe is None

    def test_cutoff_state_keeps_edges_to_found_states(self):
        # g adds a token to p at every firing; at 5 states the last state
        # keeps its u and v edges back to M3 and loses g's edge to a sixth
        from persinet import Net

        gen = Net("gen", ["q", "p"], ["g", "u", "v"],
                  [("q", "g", 1), ("g", "q", 1), ("g", "p", 1),
                   ("p", "u", 1), ("p", "v", 1)], {"q": 1})
        rg, rep = build_rg(gen, 5)
        assert rep.status == "cutoff-reached"
        assert rep.state_count == 5 and rep.edge_count == 12
        assert rg.payload["M4"] == (1, 4)
        assert rg.enabled_labels("M4") == ("u", "v")
        assert rg.successors("M4", "u") == ("M3",)

    def test_byte_stable(self, fig14):
        from persinet import emit_dot

        one, _ = build_rg(fig14)
        two, _ = build_rg(fig14)
        assert one.states == two.states and one.edges == two.edges
        assert emit_dot(one) == emit_dot(two)

    def test_bounded_iff_terminates(self):
        # exploration below the cutoff certifies boundedness; hitting the
        # cutoff on an unbounded net never does
        from persinet import Net

        grower = Net("grow", ["p"], ["t"], [("p", "t", 1), ("t", "p", 1)], {"p": 1})
        grower2 = Net("grow2", ["p", "q"], ["t"],
                      [("p", "t", 1), ("t", "p", 1), ("t", "q", 1)], {"p": 1})
        _, rep = build_rg(grower2, 50)
        assert rep.status == "cutoff-reached"
        _, rep = build_rg(grower, 50)
        assert rep.status == "bounded"


def _tuple_keyed_rg(net, cutoff):
    """The reference breadth-first reachability graph: every edge fires its
    successor marking whole and looks it up by the tuple, and the place
    bounds grow with each new state."""
    from persinet.net import _enabled_i, _fire_i

    index = {net.initial: 0}
    order = [net.initial]
    names = ["M0"]
    labels = net.transitions
    edges = []
    place_bounds = list(net.initial)
    truncated = False
    for i, m in enumerate(order):
        s = names[i]
        for ti in _enabled_i(net, m):
            m2 = _fire_i(net, m, ti)
            j = index.get(m2)
            if j is None:
                if len(order) >= cutoff:
                    truncated = True
                    continue
                j = index[m2] = len(order)
                order.append(m2)
                names.append(f"M{j}")
                for pi, n in enumerate(m2):
                    if n > place_bounds[pi]:
                        place_bounds[pi] = n
            edges.append((s, labels[ti], names[j]))
    lts = Lts(name=f"rg({net.name})", states=names, labels=labels, edges=edges,
              initial=names[0], payload=dict(zip(names, order)))
    k = max(place_bounds, default=0)
    report = lts_mod.BoundReport(
        status="cutoff-reached" if truncated else "bounded", k_bound=k,
        place_bounds={p: place_bounds[i] for i, p in enumerate(net.places)},
        safe=None if truncated else k <= 1, state_count=len(order),
        edge_count=len(edges), cutoff=cutoff)
    return lts, report, (None if truncated else net)


def _same_as_tuple_keyed(net, cutoff):
    """build_rg(net, cutoff) against the reference: states, edges in order,
    payloads, every report field and the recorded net.  Returns the report."""
    rg, rep = build_rg(net, cutoff)
    ref, ref_rep, ref_net = _tuple_keyed_rg(net, cutoff)
    assert rg.states == ref.states, net.name
    assert rg.edges == ref.edges, net.name
    assert rg.payload == ref.payload, net.name
    assert vars(rep) == vars(ref_rep), net.name
    assert rg._net is ref_net, net.name
    return rep


def _generator():
    """q -> g -> q and g -> p: g puts a token on p at every firing; u and
    v take one back."""
    return Net("gen", ["q", "p"], ["g", "u", "v"],
               [("q", "g", 1), ("g", "q", 1), ("g", "p", 1),
                ("p", "u", 1), ("p", "v", 1)], {"q": 1})


class TestAgainstTupleKeyed:
    """build_rg's one search looks markings up by packed integer keys; the
    graph it builds is the graph of the tuple-keyed reference search
    (_tuple_keyed_rg), byte for byte."""

    def test_corpus_and_generated_nets(self):
        nets = [corpus_load(n).net for n in corpus_names()]
        for kw in ({}, {"max_weight": 3, "token_budget": 16},
                   {"class_constraint": ("CF",)}, {"class_constraint": ("EC",)},
                   {"class_constraint": ("pure", "plain")}):
            nets += [gen_random_net(GenConfig(seed=s, **kw)) for s in range(40)]
        cut = complete = 0
        for net in nets:
            for cutoff in (1, 2, 7, 3000):
                rep = _same_as_tuple_keyed(net, cutoff)
                if rep.status == "bounded":
                    complete += 1
                else:
                    cut += 1
        assert cut >= 300 and complete >= 300

    def test_par_families(self):
        fig1 = corpus_load("fig1_basic").net
        for k in range(1, 8):
            for cutoff in (5, 100000):
                _same_as_tuple_keyed(par(k), cutoff)
                _same_as_tuple_keyed(disjoint_sum(fig1, par(k)), cutoff)

    def test_zero_places(self):
        for transitions, arcs in (([], []), (["t", "u"], [])):
            rep = _same_as_tuple_keyed(Net("empty", [], transitions, arcs), 10)
            assert rep.state_count == 1 and rep.place_bounds == {}
            assert rep.k_bound == 0 and rep.status == "bounded"

    @pytest.mark.parametrize("cutoff", [1, 2, 3, 50])
    def test_token_generator(self, cutoff):
        # an empty preset: g fires at every state, so the graph is cut off
        # at every budget
        gen = Net("gen", ["p", "q"], ["g", "u"],
                  [("g", "p", 1), ("p", "u", 1), ("u", "q", 1)])
        rep = _same_as_tuple_keyed(gen, cutoff)
        assert rep.status == "cutoff-reached" and rep.state_count == cutoff
        rep = _same_as_tuple_keyed(_generator(), cutoff)
        assert rep.status == "cutoff-reached" and rep.state_count == cutoff

    def test_self_loops(self):
        # a self-loop's incidence is zero: its edge returns to its source
        loop = Net("loop", ["p", "q"], ["s", "t", "r"],
                   [("p", "s", 1), ("s", "p", 1), ("p", "t", 2), ("t", "p", 2),
                    ("q", "t", 1), ("q", "r", 1), ("r", "q", 1)], {"p": 2, "q": 2})
        for cutoff in (1, 2, 100):
            _same_as_tuple_keyed(loop, cutoff)
        rg, rep = build_rg(loop, 100)
        assert rep.state_count == 3 and rep.status == "bounded"
        assert {("M0", "s", "M0"), ("M0", "r", "M0"), ("M2", "s", "M2")} <= set(rg.edges)

    def test_weights_up_to_seven(self):
        rng = random.Random(7)
        for n in range(60):
            places = [f"p{i}" for i in range(rng.randint(1, 5))]
            transitions = [f"t{i}" for i in range(rng.randint(1, 4))]
            arcs = [(x, y, rng.randint(1, 7)) for t in transitions for p in places
                    for x, y in ((p, t), (t, p)) if rng.random() < 0.4]
            marking = {p: rng.randint(0, 9) for p in places}
            net = Net(f"w{n}", places, transitions, arcs, marking)
            for cutoff in (1, 4, 40):
                _same_as_tuple_keyed(net, cutoff)
        heavy = Net("heavy", ["p", "q"], ["g", "d"],
                    [("g", "p", 7), ("p", "d", 5), ("d", "q", 7)], {"p": 3})
        assert heavy._max_out == 7
        for cutoff in (1, 2, 3, 50):
            _same_as_tuple_keyed(heavy, cutoff)

    def test_initial_tokens_near_two_to_the_forty(self):
        # 2^40 - 1 tokens on p: one firing of g takes p to 2^40, and d drains
        # p whole into q, so (2^40, 0) and (0, 1) are both reached
        big = 2 ** 40 - 1
        net = Net("big", ["p", "q"], ["g", "d"],
                  [("g", "p", 1), ("p", "d", big), ("d", "q", 1)], {"p": big})
        for cutoff in (1, 2, 3, 50):
            _same_as_tuple_keyed(net, cutoff)
        rg, _ = build_rg(net, 50)
        assert {(2 ** 40, 0), (0, 1)} <= set(rg.payload.values())
        spread = Net("spread", ["p", "q", "r"], ["t"],
                     [("p", "t", 1), ("t", "q", 1), ("t", "r", 3)],
                     {"p": 2 ** 40 + 5, "q": 2 ** 40 - 3})
        _same_as_tuple_keyed(spread, 20)

    @pytest.mark.parametrize("cutoff", [1, 2, 3, 4, 50])
    def test_a_place_reaches_the_width_bound(self, cutoff):
        # M0 enables only t0, after which only g fires, each step adding
        # _max_out tokens to p: the successor of the last state kept holds
        # max(M0) + cutoff * _max_out tokens on p, the largest value the
        # packed key must hold
        w, m = 3, 5
        chain = Net("chain", ["p", "q", "r"], ["t0", "g"],
                    [("q", "t0", 1), ("t0", "r", 1), ("t0", "p", w),
                     ("r", "g", 1), ("g", "r", 1), ("g", "p", w)], {"p": m, "q": 1})
        rep = _same_as_tuple_keyed(chain, cutoff)
        assert rep.status == "cutoff-reached"
        assert rep.place_bounds["p"] == m + (cutoff - 1) * w
        rg, _ = build_rg(chain, cutoff + 1)
        assert max(mk[0] for mk in rg.payload.values()) == m + cutoff * w


class TestProperties:
    def test_fig1_report(self, fig1):
        rg, _ = build_rg(fig1)
        rep = lts_properties(rg)
        assert rep.finite and rep.totally_reachable and rep.deterministic
        assert rep.deadlocks == ("M6", "M7")

    def test_fig5_no_deadlocks(self, fig5):
        rg, _ = build_rg(fig5)
        assert lts_properties(rg).deadlocks == ()

    def test_single_state_deadlock(self):
        lone = Lts("one", ["s"], [], [], "s")
        assert lts_properties(lone).deadlocks == ("s",)

    def test_cut_off_graph_lists_only_real_deadlocks(self, fig1):
        # a state budget drops the edges into undiscovered states; a state
        # that lost one enables a transition, so it is no deadlock
        from persinet import enabled_transitions

        assert build_rg(fig1, 3)[0].deadlocks() == ()
        par2 = Net("par2", ["p0", "q0", "p1", "q1"], ["a0", "b0", "a1", "b1"],
                   [("p0", "a0", 1), ("a0", "q0", 1), ("q0", "b0", 1), ("b0", "p0", 1),
                    ("p1", "a1", 1), ("a1", "q1", 1), ("q1", "b1", 1), ("b1", "p1", 1)],
                   {"p0": 1, "p1": 1})
        fig10 = corpus_load("fig10_fpe_not_spe").net
        for net in (fig1, fig10, disjoint_sum(fig1, par2)):
            total = build_rg(net)[1].state_count
            for budget in range(1, total + 2):
                rg, rep = build_rg(net, budget)
                real = tuple(s for s in rg.states
                             if not enabled_transitions(net, rg.payload[s]))
                assert rg.deadlocks() == lts_properties(rg).deadlocks == real
                assert (rep.status == "bounded") == (budget >= total)

    def test_nondeterministic_detected(self):
        branchy = Lts("nd", ["s", "t", "u"], ["a"],
                      [("s", "a", "t"), ("s", "a", "u")], "s")
        assert not lts_properties(branchy).deterministic

    def test_parikh_nondeterminism_detected(self):
        # label-functional but two Parikh-equal paths join distinct states
        tricky = Lts("tricky", ["s", "x", "y", "p", "q"], ["a", "b"],
                     [("s", "a", "x"), ("s", "b", "y"),
                      ("x", "b", "p"), ("y", "a", "q")], "s")
        assert not lts_properties(tricky).deterministic

    def test_backward_parikh_nondeterminism_detected(self):
        # the mirror image: Parikh-equal paths from distinct states join
        joined = Lts("joined", ["s", "u", "x", "y", "t"], ["a", "b"],
                     [("s", "a", "x"), ("x", "b", "t"),
                      ("u", "b", "y"), ("y", "a", "t")], "s")
        assert joined.is_label_deterministic()
        assert not _parikh_spot_check(joined)
        assert not lts_properties(joined).deterministic

    def test_certificate_rejects_unexplained_payloads(self):
        # injective payloads, but a moves y to q by (2, 1) and s to x by
        # (1, 0), so the state equation does not hold and the spot check
        # decides
        tricky = Lts("tricky", ["s", "x", "y", "p", "q"], ["a", "b"],
                     [("s", "a", "x"), ("s", "b", "y"),
                      ("x", "b", "p"), ("y", "a", "q")], "s",
                     payload={"s": (0, 0), "x": (1, 0), "y": (0, 1),
                              "p": (1, 1), "q": (2, 2)})
        assert not lts_properties(tricky).deterministic

    @pytest.mark.parametrize("payload", [
        {"s0": (0,), "s1": (1,), "s2": (3,)},   # a moves by 1, then by 2
        {"s0": "x", "s1": "y", "s2": "z"},      # not int vectors
        {"s0": (0,), "s1": (1,), "s2": (2,)},   # the state equation holds
        None,
    ])
    def test_uncertified_falls_back_to_spot_check(self, monkeypatch, payload):
        chain = Lts("chain", ["s0", "s1", "s2"], ["a"],
                    [("s0", "a", "s1"), ("s1", "a", "s2")], "s0", payload=payload)
        calls = []

        def spy(lts, depth=3):
            calls.append(lts.name)
            return _parikh_spot_check(lts, depth)

        monkeypatch.setattr(lts_mod, "_parikh_spot_check", spy)
        assert lts_properties(chain).deterministic
        assert calls == ["chain"]

    def test_certificate_skips_spot_check_on_rgs(self, monkeypatch, fig1):
        rg, _ = build_rg(fig1)
        monkeypatch.setattr(lts_mod, "_parikh_spot_check", None)
        assert lts_properties(rg).deterministic

    def test_certificate_agrees_with_spot_check(self):
        graphs = list(_small_random_rgs(range(260)))[:200]
        assert len(graphs) == 200
        for rg in graphs:
            assert lts_properties(rg).deterministic == (
                rg.is_label_deterministic() and _parikh_spot_check(rg))

    def test_random_rgs_deterministic(self):
        for s in range(25):
            net = gen_random_net(GenConfig(seed=s, token_budget=4))
            rg, rep = build_rg(net, 3000)
            if rep.status != "bounded":
                continue
            got = lts_properties(rg)
            assert got.deterministic and got.totally_reachable


class TestPersistence:
    def test_fig1_witness(self, fig1):
        rg, _ = build_rg(fig1)
        verdict = persistence_check(rg)
        assert not verdict.persistent
        assert verdict.witness == ("M4", "a", "b")

    def test_fig5_persistent(self, fig5):
        rg, _ = build_rg(fig5)
        assert persistence_check(rg).persistent

    def test_fig6_nonpersistent(self, fig6):
        rg, _ = build_rg(fig6)
        verdict = persistence_check(rg)
        assert not verdict.persistent
        s, t, u = verdict.witness
        assert {t, u} == {"a", "b"}

    def test_open_diamond_rejected(self):
        # label-deterministic, both orders fire, but they end apart
        tricky = Lts("tricky", ["s", "x", "y", "p", "q"], ["a", "b"],
                     [("s", "a", "x"), ("s", "b", "y"),
                      ("x", "b", "p"), ("y", "a", "q")], "s")
        with pytest.raises(UnsupportedClassError, match="closes a diamond at s"):
            persistence_check(tricky)

    def test_witness_replays(self):
        for s in range(30):
            net = gen_random_net(GenConfig(seed=s, token_budget=3))
            rg, rep = build_rg(net, 3000)
            if rep.status != "bounded":
                continue
            verdict = persistence_check(rg)
            if not verdict.persistent:
                state, t, u = verdict.witness
                assert rg.succ(state, t) is not None
                assert rg.succ(state, u) is not None
                assert rg.succ(rg.succ(state, t), u) is None

    def test_agrees_with_sequence_search(self):
        # a nonpersistent graph has a nonpersistent sequence no longer than
        # its depth plus one, and conversely
        nets = [corpus_load(name).net for name in
                ("fig1_basic", "fig5_acbc", "fig6_unfair",
                 "fig12_spar", "fig14_counterexample")]
        nets += [gen_random_net(GenConfig(seed=s, places=3, transitions=3,
                                          token_budget=2)) for s in range(25)]
        for net in nets:
            rg, rep = build_rg(net, 1500)
            if rep.status != "bounded":
                continue
            net_level = persistence_check(rg).persistent
            depth = max(bfs_depths(rg).values(), default=0)
            seq_level = _all_sequences_persistent(net, depth + 1)
            assert net_level == seq_level, net.name


def _all_sequences_persistent(net, max_len):
    from persinet import enabled_transitions, fire

    frontier = [((), net.initial)]
    for _ in range(max_len):
        nxt = []
        for word, m in frontier:
            for t in enabled_transitions(net, m):
                w2 = word + (t,)
                if not sequence_persistence(net, net.initial, w2).persistent:
                    return False
                nxt.append((w2, fire(net, m, t)))
        frontier = nxt
    return True


def _full_scan(lts, lost=()):
    """The reference verdict: every ordered pair of enabled labels at every
    state, in declaration order, with no may-disable table.  A t whose
    target is in lost is passed over."""
    rows = lts._rows
    for i, out in enumerate(rows):
        for t, (j,) in out.items():
            if j in lost:
                continue
            for u in out:
                if u != t and u not in rows[j]:
                    return False, (lts.states[i], lts.labels[t], lts.labels[u])
    return True, None


def _open_diamond(lts):
    """The first (state, t, u) whose two orders both fire but end apart."""
    rows = lts._rows
    for i, out in enumerate(rows):
        for t, (j,) in out.items():
            for u, (k,) in out.items():
                if u > t and u in rows[j] and t in rows[k] and rows[j][u] != rows[k][t]:
                    return lts.states[i], lts.labels[t], lts.labels[u]
    return None


def _table_nets():
    """Corpus nets, generated nets (default config, max_weight=2 and a large
    token budget, impure, self-loops among them), par_k and fig1_basic +
    par_k."""
    nets = [corpus_load(n).net for n in corpus_names()]
    for kw in ({}, {"max_weight": 2}, {"token_budget": 16}):
        nets += [gen_random_net(GenConfig(seed=s, **kw)) for s in range(60)]
    nets += [par(k) for k in range(1, 9)]
    fig1 = corpus_load("fig1_basic").net
    nets += [disjoint_sum(fig1, par(k)) for k in range(1, 6)]
    return nets


@pytest.fixture
def table_builds(monkeypatch):
    """The nets whose may-disable table persistence_check builds."""
    built = []
    real = lts_mod._may_disable

    def spy(net):
        built.append(net)
        return real(net)

    monkeypatch.setattr(lts_mod, "_may_disable", spy)
    return built


class TestPersistenceTable:
    """persistence_check reads the may-disable table on complete
    reachability graphs, and skips the diamond check build_rg proved."""

    def test_same_answer_as_full_scan(self, table_builds):
        graphs = refuted = 0
        for net in _table_nets():
            rg, rep = build_rg(net, 3000)
            if rep.status != "bounded":
                continue
            assert rg._net is net
            verdict = persistence_check(rg)
            assert (verdict.persistent, verdict.witness) == _full_scan(rg), net.name
            graphs += 1
            if table_builds and table_builds[-1] is net and not verdict.persistent:
                refuted += 1
        assert graphs >= 100
        # the table answered many graphs, refutations among them
        assert len(table_builds) >= 30 and refuted >= 20
        assert {"par8", "fig1_basic+par5"} <= {net.name for net in table_builds}

    def test_rent_rule(self, table_builds):
        # scanning a small graph costs less than the table: fig5_acbc and
        # fig1_basic never build it.  par8 (16 labels, 8 enabled at every
        # state) has paid the table's rent of 16 * 36 pair tests after 9
        # states
        for name in ("fig5_acbc", "fig1_basic"):
            persistence_check(build_rg(corpus_load(name).net)[0])
        assert table_builds == []
        assert persistence_check(build_rg(par(8))[0]).persistent
        assert [net.name for net in table_builds] == ["par8"]

    def test_rgs_close_their_diamonds(self):
        # the state equation proves it on every graph build_rg makes, cut
        # off or not, so persistence_check does not check it there
        graphs = 0
        for net in _table_nets():
            for budget in (3000, 5):
                rg, _ = build_rg(net, budget)
                assert rg._parikh_deterministic
                assert _open_diamond(rg) is None, net.name
                graphs += 1
        assert graphs >= 200

    def test_cut_off_graph_gets_the_full_scan(self, table_builds):
        # a state that lost an edge to the budget shows the dropped labels as
        # disabled, so the scan reads only the pairs whose t leads to a state
        # that kept its edges: the persistent par3, whose unrestricted scan
        # shows the false witness (M0, a0, a1), gives no verdict instead
        rg, rep = build_rg(par(3), 3)
        assert rep.status == "cutoff-reached" and rg._net is None
        assert _full_scan(rg)[1] == ("M0", "a0", "a1")
        with pytest.raises(ResourceExceededError, match=r"'rg\(par3\)' cut off at 3 states"):
            persistence_check(rg)
        refuted = raised = 0
        for net in _table_nets():
            rg, rep = build_rg(net, 6)
            if rep.status == "bounded":
                continue
            try:
                state, t, u = persistence_check(rg).witness
            except ResourceExceededError:
                raised += 1
                continue
            # the witness replays by the firing rule
            m = rg.payload[state]
            assert enabled(net, m, t) and enabled(net, m, u), net.name
            assert not enabled(net, fire(net, m, t), u), net.name
            refuted += 1
        assert refuted >= 10 and raised >= 10
        assert table_builds == []

    def test_cut_off_first_witness_in_scan_order(self):
        # the witness is the first (state, t, u) of the full scan whose t
        # leads to a state that kept all its edges; with none there is no
        # verdict
        refuted = raised = 0
        for net in _table_nets():
            for budget in range(1, 9):
                rg, rep = build_rg(net, budget)
                if rep.status == "bounded":
                    continue
                persistent, want = _full_scan(rg, rg._cut)
                if persistent:
                    with pytest.raises(ResourceExceededError, match="gives no verdict"):
                        persistence_check(rg)
                    raised += 1
                else:
                    assert persistence_check(rg).witness == want, (net.name, budget)
                    refuted += 1
        assert refuted >= 50 and raised >= 500

    def test_cut_off_witness_at_every_budget(self):
        # q -> g -> q, g -> p, p -> u, p -> v: g pumps p without bound, and
        # firing u at M1 disables v whatever the budget
        net = Net("gen", ["q", "p"], ["g", "u", "v"],
                  [("q", "g", 1), ("g", "q", 1), ("g", "p", 1),
                   ("p", "u", 1), ("p", "v", 1)], {"q": 1})
        for budget in range(2, 51):
            rg, rep = build_rg(net, budget)
            assert rep.status == "cutoff-reached"
            assert persistence_check(rg).witness == ("M1", "u", "v"), budget

    def test_copies_without_the_record_agree(self, table_builds):
        # an LTS built from a graph's edges carries no net: it gets the full
        # scan and the diamond check, with the same answer
        for net in _table_nets()[:40]:
            rg, rep = build_rg(net, 3000)
            if rep.status != "bounded":
                continue
            copy = Lts(rg.name, rg.states, rg.labels, rg.edges, rg.initial, rg.payload)
            assert copy._net is None and not copy._parikh_deterministic
            assert persistence_check(copy) == persistence_check(rg)

    def test_sequence_questions_never_read_the_table(self, monkeypatch):
        # sequence_persistence and lasso_persistence are the references the
        # oracle decides persistence with: they test each step by the firing
        # rule alone
        import sys

        real = lts_mod._may_disable

        def refuse(net):
            raise AssertionError("the may-disable table was consulted")

        for name, module in list(sys.modules.items()):
            if name.startswith("persinet") and getattr(module, "_may_disable", None) is real:
                monkeypatch.setattr(module, "_may_disable", refuse)
        with pytest.raises(AssertionError, match="consulted"):
            persistence_check(build_rg(par(8))[0])  # the patch is in force
        for name in corpus_names():
            entry = corpus_load(name)
            net = entry.net
            for claim in entry.manifest:
                if claim["check"] == "seq_persistent":
                    sequence_persistence(net, net.initial, tuple(claim["run"].split()))
                elif claim["check"] in ("lasso_persistent", "lasso_valid"):
                    lasso_persistence(net, parse_lasso(claim["lasso"]))
            for probe in entry.probes:
                if ";" in probe:
                    lasso_persistence(net, parse_lasso(probe))
                else:
                    sequence_persistence(net, net.initial, tuple(probe.split()))
            for mode in (SPE, SPE_PARIKH):
                oracle_spe_check(net, 4, mode)


class TestIsomorphism:
    def test_fig1_vs_companion(self, fig1):
        entry = corpus_load("fig1_basic")
        rg, _ = build_rg(fig1)
        verdict = isomorphic(rg, entry.lts)
        assert verdict.isomorphic
        assert verdict.mapping["M0"] == "M0"

    def test_fig7_pair(self):
        left, _ = build_rg(corpus_load("fig7_left").net)
        right, _ = build_rg(corpus_load("fig7_right").net)
        assert isomorphic(left, right).isomorphic

    def test_permuted_transition_declarations(self):
        # one net with its transitions declared in another order has the
        # same reachability graph up to state names, and markings name the
        # states, so the only bijection sends each state to its marking
        rng = random.Random(5)
        checked = 0
        for s in range(80):
            net = gen_random_net(GenConfig(seed=s, token_budget=2 + s % 3))
            order = list(net.transitions)
            rng.shuffle(order)
            permuted = Net(net.name, net.places, order, net.arcs(),
                           net.marking_dict(net.initial))
            rg, rep = build_rg(net, 500)
            prg, _ = build_rg(permuted, 500)
            if rep.status != "bounded":
                continue
            for l1, l2 in ((rg, prg), (prg, rg)):
                verdict = isomorphic(l1, l2)
                assert verdict.isomorphic and len(verdict.mapping) == len(l1.states)
                assert all(l1.payload[x] == l2.payload[y]
                           for x, y in verdict.mapping.items())
            checked += 1
        assert checked >= 60

    def test_label_set_mismatch(self, fig1, fig5):
        a, _ = build_rg(fig1)
        b, _ = build_rg(fig5)
        verdict = isomorphic(a, b)
        assert not verdict.isomorphic
        assert verdict.mismatch == (None, "label sets differ")

    def test_divergence_witness(self, fig1):
        rg, _ = build_rg(fig1)
        pruned = Lts("pruned", rg.states[:-1], rg.labels,
                     [e for e in rg.edges if "M7" not in e], "M0")
        # drop the unreachable deadlock state to keep total reachability
        pruned = Lts("pruned", tuple(s for s in pruned.states if s != "M7"),
                     rg.labels, pruned.edges, "M0")
        verdict = isomorphic(rg, pruned)
        assert not verdict.isomorphic

    def test_equivalence_relation(self):
        graphs = []
        for s in (3, 4, 5):
            net = gen_random_net(GenConfig(seed=s, token_budget=3))
            rg, rep = build_rg(net, 2000)
            if rep.status == "bounded":
                graphs.append(rg)
        for g in graphs:
            assert isomorphic(g, g).isomorphic  # reflexive
        for g in graphs:
            for h in graphs:
                assert isomorphic(g, h).isomorphic == isomorphic(h, g).isomorphic

    def test_rejects_nondeterministic(self):
        branchy = Lts("nd", ["s", "t", "u"], ["a"],
                      [("s", "a", "t"), ("s", "a", "u")], "s")
        with pytest.raises(UnsupportedClassError):
            isomorphic(branchy, branchy)

    def test_against_networkx_matcher(self):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import DiGraphMatcher

        def digraph(lts):
            g = nx.DiGraph()
            for s in lts.states:
                g.add_node(s, initial=(s == lts.initial))
            for s, a, t in lts.edges:
                if g.has_edge(s, t):
                    g[s][t]["labels"].add(a)
                else:
                    g.add_edge(s, t, labels={a})
            return g

        def oracle(l1, l2):
            if set(l1.labels) != set(l2.labels):
                return False
            return DiGraphMatcher(
                digraph(l1), digraph(l2),
                node_match=lambda x, y: x["initial"] == y["initial"],
                edge_match=lambda x, y: x["labels"] == y["labels"]).is_isomorphic()

        graphs = [g for g in _small_random_rgs(range(60)) if len(g.states) <= 6]
        assert len(graphs) >= 20
        for g in graphs:
            renamed = Lts("renamed", [f"x{s}" for s in reversed(g.states)], g.labels,
                          [(f"x{s}", a, f"x{t}") for s, a, t in g.edges],
                          f"x{g.initial}")
            assert isomorphic(g, renamed).isomorphic and oracle(g, renamed)
        for g in graphs:
            for h in graphs:
                assert isomorphic(g, h).isomorphic == oracle(g, h)

    def test_against_bruteforce_on_small_graphs(self):
        # relabelled copies must be isomorphic, and the synchronized
        # traversal must agree with exhaustive bijection search
        import itertools
        import random

        def brute(l1, l2):
            if set(l1.labels) != set(l2.labels):
                return False
            if len(l1.states) != len(l2.states):
                return False
            e1 = set(l1.edges)
            for perm in itertools.permutations(l2.states):
                mapping = dict(zip(l1.states, perm))
                if mapping[l1.initial] != l2.initial:
                    continue
                if {(mapping[s], a, mapping[t]) for s, a, t in e1} == set(l2.edges):
                    return True
            return False

        rng = random.Random(17)
        graphs = []
        for s in range(60):
            net = gen_random_net(GenConfig(seed=s, places=3, transitions=3,
                                           token_budget=2))
            rg, rep = build_rg(net, 100)
            if rep.status == "bounded" and len(rg.states) <= 6:
                graphs.append(rg)
        assert len(graphs) >= 20
        for g in graphs[:12]:
            renamed = Lts("renamed", [f"x{s}" for s in g.states], g.labels,
                          [(f"x{s}", a, f"x{t}") for s, a, t in g.edges],
                          f"x{g.initial}")
            assert isomorphic(g, renamed).isomorphic
        for g in graphs[:8]:
            for h in graphs[:8]:
                assert isomorphic(g, h).isomorphic == brute(g, h)


def test_shortest_path_canonical(fig1):
    rg, _ = build_rg(fig1)
    assert shortest_path(rg, "M4") == ("c", "d")
    assert shortest_path(rg, "M0") == ()
    assert bfs_depths(rg)["M6"] == 3


def _by_name(g, labels):
    """The answers read off the index rows, keyed by state and label names
    (labels, a superset of g's), independent of the label declaration
    order."""
    return {
        "enabled": {s: set(g.enabled_labels(s)) for s in g.states},
        "successors": {(s, a): g.successors(s, a) for s in g.states for a in labels},
        "predecessors": {(s, a): g.predecessors(s, a)
                         for s in g.states for a in labels},
        "deadlocks": g.deadlocks(),
        "persistent": persistence_check(g).persistent,
        "depths": bfs_depths(g),
        "path_lengths": {s: len(shortest_path(g, s)) for s in g.states},
        "properties": lts_properties(g),
        "embedded": {n: find_embedding(builtin_pattern(n), g) is not None
                     for n in ("nonpers", "nonDC")},
    }


def _canonical(g):
    """The answers whose canonical choice follows the label declaration order."""
    return {
        "enabled": [g.enabled_labels(s) for s in g.states],
        "witness": persistence_check(g).witness,
        "depths": list(bfs_depths(g).items()),
        "paths": [shortest_path(g, s) for s in g.states],
        "embeddings": [find_embedding(builtin_pattern(n), g)
                       for n in ("nonpers", "nonDC")],
    }


class TestIndexRows:
    """The constructor builds the index rows from the edges, in whatever
    order they come: the answers must not depend on the edge order."""

    @staticmethod
    def _graphs():
        nets = [corpus_load(n).net for n in corpus_names()]
        for kw in ({}, {"places": 3, "transitions": 3},
                   {"class_constraint": ("pure", "plain")}):
            nets += [gen_random_net(GenConfig(seed=s, **kw)) for s in range(30)]
        for net in nets:
            if net is None or net.structural_only:
                continue
            rg, rep = build_rg(net, 300)
            if rep.status == "bounded":
                yield rg

    def test_shuffled_edges(self):
        rng = random.Random(23)
        count = 0
        for rg in self._graphs():
            edges = list(rg.edges)
            rng.shuffle(edges)
            want = (_by_name(rg, rg.labels), _canonical(rg))
            for payload in (rg.payload, None):
                copy = Lts(rg.name, rg.states, rg.labels, edges, rg.initial, payload)
                assert (_by_name(copy, rg.labels), _canonical(copy)) == want
            count += 1
        assert count >= 80

    def test_parsed_with_reversed_edge_lines(self):
        count = 0
        for rg in self._graphs():
            lines = print_lts(rg).splitlines()
            edge_lines = [x for x in lines if x.startswith("edge ")]
            text = "\n".join([x for x in lines if not x.startswith("edge ")]
                             + edge_lines[::-1])
            parsed = parse_lts(text)
            assert _by_name(parsed, rg.labels) == _by_name(rg, rg.labels)
            # parse_lts takes the labels from the document's label lines,
            # whatever the edge order, so the canonical answers follow the
            # order print_lts declared them in
            same_order = Lts(rg.name, rg.states, parsed.labels, rg.edges, rg.initial)
            assert _canonical(parsed) == _canonical(same_order)
            count += 1
        assert count >= 80

    def test_next_states_projects_the_rows(self, fig1):
        rg, _ = build_rg(fig1)
        assert rg.next_states() == {
            s: {a: rg.succ(s, a) for a in rg.enabled_labels(s)} for s in rg.states}
        branchy = Lts("nd", ["s", "t", "u"], ["a", "b"],
                      [("s", "b", "t"), ("t", "a", "u"), ("t", "a", "s")], "s")
        with pytest.raises(UnsupportedClassError, match=r"nondeterministic at \(t,a\)"):
            branchy.next_states()
        assert branchy.successors("t", "a") == ("u", "s")
        assert branchy.predecessors("s", "a") == ("t",)
        assert branchy.successors("s", "zz") == ()

    @pytest.mark.parametrize("accessor", [
        lambda g, s: g.successors(s, "a"),
        lambda g, s: g.predecessors(s, "a"),
        lambda g, s: g.enabled_labels(s),
        lambda g, s: g.succ(s, "a"),
    ], ids=["successors", "predecessors", "enabled_labels", "succ"])
    @pytest.mark.parametrize("state", ["zz", ["zz"]], ids=["undeclared", "unhashable"])
    def test_accessors_reject_undeclared_states(self, accessor, state):
        g = Lts("x", ["s"], ["a"], [("s", "a", "s")], "s")
        with pytest.raises(UnknownIdError, match=r"lts 'x': unknown state"):
            accessor(g, state)

    @pytest.mark.parametrize("label", ["zz", ["zz"]], ids=["unknown", "unhashable"])
    def test_accessors_answer_no_label(self, label):
        # a label id that names no label has no edges, hashable or not
        g = Lts("x", ["s"], ["a"], [("s", "a", "s")], "s")
        assert g.successors("s", label) == g.predecessors("s", label) == ()
        assert g.succ("s", label) is None

    def test_predecessors_in_state_order(self):
        # the reverse rows come from the forward rows, so sources follow the
        # state declaration order, not the edge order
        g = Lts("in", ["s", "t", "u"], ["a"], [("u", "a", "s"), ("t", "a", "s")], "s")
        assert g.predecessors("s", "a") == ("t", "u")
        assert g.successors("u", "a") == g.successors("t", "a") == ("s",)


def _ordered_rows(rows):
    """Index rows with the order of every row kept, for comparison."""
    return [list(row.items()) for row in rows]


class TestRowsHandOver:
    """build_rg hands its index rows to Lts._of_rows: the graph equals the
    one the validating constructor builds from its edges, and its edges
    are projected from the rows only when read."""

    @staticmethod
    def _inputs():
        """(net, budget) pairs: corpus and generated nets, and nets cut off
        at their budget, par10 among them (20 places)."""
        nets = [corpus_load(n).net for n in corpus_names()]
        for kw in ({}, {"places": 3, "transitions": 3},
                   {"class_constraint": ("pure", "plain")}):
            nets += [gen_random_net(GenConfig(seed=s, **kw)) for s in range(30)]
        return ([(net, 300) for net in nets if not net.structural_only]
                + [(_generator(), budget) for budget in (1, 5, 50)]
                + [(par(10), 100)])

    def _graphs(self):
        for net, budget in self._inputs():
            yield build_rg(net, budget)[0]

    def test_same_graph_as_the_validating_constructor(self):
        count = cut = 0
        for rg in self._graphs():
            copy = Lts(rg.name, rg.states, rg.labels, rg.edges, rg.initial, rg.payload)
            assert _ordered_rows(rg._rows) == _ordered_rows(copy._rows), rg.name
            assert (_ordered_rows(rg._reverse_rows())
                    == _ordered_rows(copy._reverse_rows())), rg.name
            assert rg.edges == copy.edges and rg == copy, rg.name
            # the order the search finds the edges in: by source state,
            # then by transition
            sidx, lidx = rg._state_index, rg._label_index
            assert list(rg.edges) == sorted(
                rg.edges, key=lambda e: (sidx[e[0]], lidx[e[1]])), rg.name
            assert repr(rg) == repr(copy)
            # the copy has no record of the budget: its deadlocks include
            # the states that lost an edge to it
            lost = rg._cut or ()
            assert rg.deadlocks() == tuple(
                s for s in copy.deadlocks() if rg._state_index[s] not in lost), rg.name
            for s, mk in rg.payload.items():
                assert rg.state_of_payload(mk) == copy.state_of_payload(mk) == s
            count += 1
            cut += bool(lost)
        assert count >= 100 and cut >= 4

    def test_build_rg_never_validates(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("build_rg entered Lts.__init__")

        inputs = self._inputs()  # corpus entries parse LTS documents
        monkeypatch.setattr(Lts, "__init__", refuse)
        with pytest.raises(AssertionError, match="entered"):
            Lts("x", ["s"], [], [], "s")  # the patch is in force
        for net, budget in inputs:
            rg, rep = build_rg(net, budget)
            assert len(rg.edges) == rep.edge_count == rg._edge_count()

    def test_edges_are_read_only(self, fig1):
        rg, _ = build_rg(fig1)
        with pytest.raises(AttributeError):
            rg.edges = ()
        copy = Lts(rg.name, rg.states, rg.labels, rg.edges, rg.initial)
        with pytest.raises(AttributeError):
            copy.edges = ()

    def test_analyses_never_project_the_edges(self):
        fig1 = corpus_load("fig1_basic").net
        for net in (fig1, par(4), disjoint_sum(fig1, par(2))):
            rg, rep = build_rg(net)
            again, _ = build_rg(net)
            persistence_check(rg)
            lts_properties(rg)
            assert isomorphic(rg, again).isomorphic
            for name in ("nonpers", "nonDC"):
                find_embedding(builtin_pattern(name), rg)
            rg.deadlocks()
            rg.state_of_payload(net.initial)
            repr(rg)
            assert rep.edge_count == rg._edge_count()
            assert rg._edges is None and again._edges is None, net.name


def _edge_equal(a, b):
    """Lts equality as the edges decide it, projecting no triples."""
    return ((a.name, a.states, a.labels, list(a._edge_iter()), a.initial)
            == (b.name, b.states, b.labels, list(b._edge_iter()), b.initial))


class TestEqualityOnRows:
    """Two LTSs that keep no edge triples compare by their rows, and keep
    none after; == and != answer as the edges would."""

    @staticmethod
    def _variants(rg):
        """rg's document parsed back, and documents that differ from it
        only in the name or in one edge: all parse to rows alone."""
        doc = print_lts(rg)
        lines = doc.splitlines()
        edges = [i for i, x in enumerate(lines) if x.startswith("edge ")]
        docs = [doc, doc.replace(f"lts {rg.name}", "lts other", 1)]
        for i in edges[:1] + edges[-1:]:
            docs.append("\n".join(lines[:i] + lines[i + 1:]) + "\n")
        return [parse_lts(d) for d in docs]

    def test_rows_decide_and_keep_no_triples(self):
        count = equal = 0
        previous = None  # the document of the graph before
        for rg in TestIndexRows._graphs():
            variants = self._variants(rg)
            # print_lts declares only the labels some edge uses
            back_equal = variants[0].labels == rg.labels
            assert (variants[0] == rg) is back_equal, rg.name
            equal += back_equal
            group = [rg] + variants + ([parse_lts(previous)] if previous else [])
            for a in group:
                for b in group:
                    want = _edge_equal(a, b)
                    assert (a == b) is want and (a != b) is (not want), (rg.name, a.name)
            assert all(x._edges is None for x in group), rg.name
            # beside an LTS that keeps its triples, the edges decide as before
            copy = Lts(rg.name, rg.states, rg.labels, rg.edges, rg.initial)
            for b in group:
                want = _edge_equal(copy, b)
                assert (copy == b) is (b == copy) is want, rg.name
            previous = print_lts(rg)
            count += 1
        assert count >= 80 and equal >= 40

    def test_target_order_within_a_row(self):
        head = "lts x\nstate s\nstate t\nstate u\ninitial s\nlabel a\n"
        one = parse_lts(head + "edge s a t\nedge s a u\n")
        other = parse_lts(head + "edge s a u\nedge s a t\n")
        assert one._edges is None and other._edges is None
        assert one != other and not one == other
        assert one == parse_lts(head + "edge s a t\nedge s a u\n")
        assert one._edges is None and other._edges is None
