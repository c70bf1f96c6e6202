import dis
import sys
import threading
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
from persinet import net as net_mod
from persinet.net import (ClassReport, _compile_kernel, _components, _enabled_i, _fire_i,
                          _joined, _may_disable, _sub_net, deficient_place, replay_class_witness)
from persinet.textio import print_lts

from nets import par


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
            # an unhashable id is an unknown id, not a raw TypeError
            (UnknownIdError, "unknown transition '['c']'",
             [lambda: fire(fig1, fig1.initial, ["c"]),
              lambda: enabled(fig1, fig1.initial, ["c"]),
              lambda: deficient_place(fig1, fig1.initial, ["c"]),
              lambda: fig1.transition_index(["c"]),
              lambda: fire_sequence(fig1, fig1.initial, ("c", ["c"]))]),
            (UnknownIdError, "unknown place '['p0']'",
             [lambda: fig1.place_index(["p0"])]),
        ]
        for error, message, calls in cases:
            for call in calls:
                with pytest.raises(InputError) as err:
                    call()
                assert type(err.value) is error and str(err.value) == message

    def test_deficient_place_checks_its_marking(self, fig1):
        # it raises what fire raises for the same marking, never IndexError
        assert deficient_place(fig1, fig1.initial, "a") == "p2"
        assert deficient_place(fig1, fig1.initial, "c") is None
        rd = reverse_dual(fig1)
        for net, m in [(fig1, (0,)), (fig1, fig1.initial + (0,)), (fig1, list(fig1.initial)),
                       (fig1, ()), (rd, rd.initial)]:
            t = net.transitions[0]
            with pytest.raises(InputError) as want:
                fire(net, m, t)
            with pytest.raises(InputError) as err:
                deficient_place(net, m, t)
            assert type(err.value) is type(want.value) and str(err.value) == str(want.value)
        with pytest.raises(UnknownIdError, match="unknown transition 'zz'"):
            deficient_place(fig1, fig1.initial, "zz")

    @pytest.mark.parametrize("call", [
        lambda net, m: fire(net, m, "c"),
        lambda net, m: enabled(net, m, "c"),
        lambda net, m: enabled_transitions(net, m),
        lambda net, m: deficient_place(net, m, "c"),
        lambda net, m: fire_sequence(net, m, seq("c")),
        lambda net, m: pn.sequence_persistence(net, m, seq("c")),
        lambda net, m: pn.spe_check(net, 3, m0=m),
        lambda net, m: pn.equivalence_class(net, m, seq("c d")),
        lambda net, m: pn.perm_equivalent(net, m, seq("c d"), seq("d c")),
        lambda net, m: pn.persistent_perm_equivalent(net, m, seq("c d")),
        lambda net, m: pn.persistent_parikh_equivalent(net, m, {"c": 1}),
    ], ids=["fire", "enabled", "enabled_transitions", "deficient_place", "fire_sequence",
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


def _hand_nets():
    """Nets at the edges of the kernel's source: a transition with no input
    arcs, one with no arcs at all, a self-loop that changes nothing, nets
    with zero places, and a net past _DISPLAY_PLACES."""
    return [
        Net("source", ["p", "q"], ["g", "u"], [("g", "p", 1), ("p", "u", 2), ("u", "q", 1)]),
        Net("idle", ["p"], ["t", "e"], [("p", "t", 1)], {"p": 2}),
        Net("loop", ["p", "q"], ["s", "t"],
            [("p", "s", 2), ("s", "p", 2), ("q", "t", 1), ("t", "p", 3)], {"p": 2, "q": 1}),
        Net("empty", [], []),
        Net("no places", [], ["t", "u"]),
        par(15),
    ]


def _kernel_nets():
    nets = [corpus_load(name).net for name in pn.corpus_names()]
    for kw in ({}, {"max_weight": 3}, {"token_budget": 6}):
        nets += [gen_random_net(GenConfig(seed=s, **kw)) for s in range(40)]
    impure = [net for net in (gen_random_net(GenConfig(seed=s, arc_density=0.7))
                              for s in range(80)) if not classify_structure(net).pure]
    assert len(impure) >= 40
    fig1_par3 = disjoint_sum(corpus_load("fig1_basic").net, par(3))
    return nets + impure[:40] + _hand_nets() + [fig1_par3]


def _twin(net):
    """A fresh net equal to net, with no kernel."""
    return Net._of_indices(net.name, net.places, net.transitions, net._pre, net._post,
                           net.initial)


class TestCompiledKernel:
    """Once a net has made _KERNEL_RENT calls into the generic firing loops
    it fires through a compiled kernel, which must answer as those loops
    do.  Every test runs with the kernel compiled at the first call, never
    compiled, and compiled at the default rent."""

    @pytest.fixture(autouse=True, params=["rent 1", "rent never", "default rent"])
    def rent(self, request, monkeypatch):
        if request.param == "rent 1":
            monkeypatch.setattr(net_mod, "_KERNEL_RENT", 1)
        elif request.param == "rent never":
            monkeypatch.setattr(net_mod, "_KERNEL_RENT", sys.maxsize)
        return request.param

    @staticmethod
    def _generic(net, monkeypatch, max_states=300):
        """The reachable markings of net (up to max_states) and, at each,
        the generic loops' enabled indices and successor (or None) per
        transition, on a twin that never compiles."""
        twin = _twin(net)
        with monkeypatch.context() as mp:
            mp.setattr(net_mod, "_KERNEL_RENT", sys.maxsize)
            marks = list(pn.build_rg(twin, max_states)[0].payload.values())
            table = [(_enabled_i(twin, m), [_fire_i(twin, m, ti)
                                            for ti in range(len(net.transitions))])
                     for m in marks]
            assert twin._k_enabled is None and twin._k_succ is None
        return marks, table

    def test_rent_counts_calls(self, rent):
        net = corpus_load("fig1_basic").net
        assert net._k_enabled is None and net._k_succ is None
        for n in range(1, 3000):
            if n % 2:
                _fire_i(net, net.initial, 2)
            else:
                _enabled_i(net, net.initial)
            if net._k_succ is not None:
                break
        # the among test (so enabled) and fire's input errors do not count
        _enabled_i(net, net.initial, [0])
        enabled(net, net.initial, "c")
        with pytest.raises(UnknownIdError):
            fire(net, net.initial, "zz")
        expected = {"rent 1": 1, "rent never": None, "default rent": 1024}[rent]
        if expected is None:
            assert net._k_succ is None and net._k_enabled is None and net._calls == 2999
        else:
            assert n == expected == net_mod._KERNEL_RENT and net._calls == n
            assert net._k_enabled is not None

    @pytest.mark.parametrize("display_places", [0, sys.maxsize],
                             ids=["list form", "tuple display"])
    def test_agrees_with_generic_loops(self, monkeypatch, display_places):
        monkeypatch.setattr(net_mod, "_DISPLAY_PLACES", display_places)
        states = 0
        for net in _kernel_nets():
            marks, table = self._generic(net, monkeypatch)
            enabled, successors = _compile_kernel(_twin(net))
            for m, (en, succ) in zip(marks, table):
                assert enabled(m) == en, (net.name, m)
                assert [s(m) for s in successors] == succ, (net.name, m)
                # and the primitives, as the rent has them dispatch
                assert _enabled_i(net, m) == en, (net.name, m)
                assert [_fire_i(net, m, ti) for ti in range(len(succ))] == succ, (net.name, m)
                names = net.transitions
                assert enabled_transitions(net, m) == tuple(names[ti] for ti in en)
                for ti in en:
                    assert fire(net, m, names[ti]) == succ[ti]
            states += len(marks)
        assert states > 1500

    def test_unchanged_marking_kept(self):
        # a self-loop, and a transition with no arcs, give back their marking
        net = Net("loop", ["p"], ["s", "e"], [("p", "s", 2), ("s", "p", 2)], {"p": 3})
        _, successors = _compile_kernel(net)
        assert successors[0](net.initial) is net.initial
        assert successors[1](net.initial) is net.initial
        assert successors[0]((1,)) is None

    def test_threads_share_a_net(self, monkeypatch):
        # threads that race to pay a net's rent compile its kernel more than
        # once at worst; every answer is still the generic loops' answer
        net = disjoint_sum(corpus_load("fig1_basic").net, par(3))
        marks, table = self._generic(net, monkeypatch)
        errors = []

        def work():
            try:
                for _ in range(3):
                    for m, (en, succ) in zip(marks, table):
                        assert _enabled_i(net, m) == en
                        assert [_fire_i(net, m, ti) for ti in range(len(succ))] == succ
            except AssertionError as exc:
                errors.append(exc)

        def work_public():
            # the public entry points, which go to the kernel by name once
            # it is compiled, and to the validating path for a disabled step
            names = net.transitions
            try:
                for _ in range(3):
                    for m, (en, succ) in zip(marks, table):
                        assert enabled_transitions(net, m) == tuple(names[ti] for ti in en)
                        for t, m2 in zip(names, succ):
                            if m2 is not None:
                                assert fire(net, m, t) == m2
                                continue
                            try:
                                fire(net, m, t)
                            except NotEnabledError:
                                continue
                            raise AssertionError(f"{t} fired at {m}")
            except AssertionError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=target)
                       for target in (work, work_public) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_graphs_and_reports_identical(self, monkeypatch):
        fig1 = corpus_load("fig1_basic").net
        nets = [fig1, disjoint_sum(fig1, par(4)), par(5), par(13),
                corpus_load("fig10_fpe_not_spe").net] + _hand_nets()
        nets += [gen_random_net(GenConfig(seed=s, max_weight=2)) for s in range(20)]
        for net in nets:
            for cutoff in (3, 5000):
                with monkeypatch.context() as mp:
                    mp.setattr(net_mod, "_KERNEL_RENT", sys.maxsize)
                    ref_rg, ref_rep = pn.build_rg(_twin(net), cutoff)
                twice = [pn.build_rg(net, cutoff) for _ in range(2)]
                for rg, rep in twice:
                    assert print_lts(rg) == print_lts(ref_rg), net.name
                    assert list(rg.edges) == list(ref_rg.edges), net.name
                    assert repr(rep) == repr(ref_rep), net.name

    def test_errors_on_a_compiled_net(self, fig1, monkeypatch):
        before = _twin(fig1)
        _compile_kernel(fig1)
        rd = reverse_dual(fig1)
        _compile_kernel(rd)
        # only a behavioural net reaches its kernel by name
        assert fig1._k_fire is not None and fig1._k_names is not None
        assert rd._k_fire is None and rd._k_names is None
        short, long = fig1.initial[:-1], fig1.initial + (0,)
        sub = type("Sub", (tuple,), {})(fig1.initial)
        cases = [
            (NotEnabledError, "transition 'a' is not enabled (place 'p2' lacks tokens)",
             [lambda: fire(fig1, fig1.initial, "a")]),
            (UnsupportedClassError, "net 'rd(fig1_basic)' is structural-only "
             "(reverse dual); its marking carries no semantics",
             [lambda: fire(rd, rd.initial, "p0"), lambda: enabled_transitions(rd, rd.initial),
              lambda: fire(rd, (), "zz")]),
            (InputError, "marking has 4 entries, net 'fig1_basic' has 5 places",
             [lambda: fire(fig1, short, "c"), lambda: enabled_transitions(fig1, short),
              lambda: fire(fig1, short, "zz")]),
            (InputError, "marking has 6 entries, net 'fig1_basic' has 5 places",
             [lambda: fire(fig1, long, "c"), lambda: enabled_transitions(fig1, long),
              lambda: fire(fig1, long, "zz"), lambda: fire(fig1, long, ["c"])]),
            (InputError, "marking must be a tuple of token counts, got list",
             [lambda: fire(fig1, list(fig1.initial), "c"),
              lambda: enabled_transitions(fig1, list(fig1.initial))]),
            (InputError, "marking must be a tuple of token counts, got Sub",
             [lambda: fire(fig1, sub, "c"), lambda: enabled_transitions(fig1, sub)]),
            (UnknownIdError, "unknown transition 'zz'",
             [lambda: fire(fig1, fig1.initial, "zz")]),
        ]
        for error, message, calls in cases:
            for call in calls:
                with pytest.raises(InputError) as err:
                    call()
                assert type(err.value) is error and str(err.value) == message
        with pytest.raises(NotEnabledError) as err:
            fire_sequence(fig1, fig1.initial, seq("c d a a"))
        assert (err.value.place, err.value.index) == ("p2", 3)

        # every outcome is the one of a net that never compiled its kernel
        def outcome(call, net):
            try:
                return "returns", call(net)
            except Exception as exc:
                return (type(exc), str(exc), getattr(exc, "place", None),
                        getattr(exc, "index", None))

        m0 = fig1.initial
        calls = [lambda n: fire(n, m0, "a"), lambda n: fire(n, m0, "c"),
                 lambda n: fire(n, short, "c"), lambda n: fire(n, long, "c"),
                 lambda n: fire(n, (), "c"), lambda n: fire(n, sub, "c"),
                 lambda n: fire(n, list(m0), "c"), lambda n: fire(n, m0, "zz"),
                 lambda n: fire(n, m0, ["c"]), lambda n: fire(n, m0, None),
                 lambda n: enabled(n, m0, ["c"]), lambda n: deficient_place(n, m0, ["c"]),
                 lambda n: fire(n, ("x",) * 5, "c"),
                 lambda n: enabled_transitions(n, m0), lambda n: enabled_transitions(n, short),
                 lambda n: enabled_transitions(n, long), lambda n: enabled_transitions(n, sub),
                 lambda n: enabled_transitions(n, ()),
                 lambda n: deficient_place(n, long, "a"),
                 lambda n: fire_sequence(n, m0, seq("c d a a")),
                 lambda n: fire_sequence(n, m0, ("c", ["d"])),
                 lambda n: fire_sequence(n, long, seq("c")),
                 lambda n: net_mod._replay(n, m0, seq("c zz")),
                 lambda n: pn.firable(n, m0, seq("c d a a"))]
        with monkeypatch.context() as mp:
            mp.setattr(net_mod, "_KERNEL_RENT", sys.maxsize)
            want = [outcome(call, before) for call in calls]
            assert before._k_fire is None
        assert [outcome(call, fig1) for call in calls] == want

    def test_ids_that_are_python_source(self, monkeypatch):
        # ids never reach the kernel's source: these compile, fire and
        # enumerate as the generic loops do, and run nothing
        evil = ["__import__('os').system('false')", "m[0]", ")", "m", "app(0)\n"]
        places = [f"{x} p" if i % 2 else x for i, x in enumerate(evil)]
        transitions = [f"{x} t" for x in evil]
        arcs = [(places[i], transitions[i], 1) for i in range(len(evil))]
        arcs += [(transitions[i], places[(i + 1) % len(evil)], 1) for i in range(len(evil))]
        arcs += [(places[0], transitions[1], 2)]
        net = Net("')\nimport os\n", places, transitions, arcs, {places[0]: 2, places[2]: 1})
        marks, table = self._generic(net, monkeypatch)
        enabled, successors = _compile_kernel(net)
        assert set(net._k_fire) == set(transitions)
        for m, (en, succ) in zip(marks, table):
            assert enabled(m) == en and [s(m) for s in successors] == succ
            assert enabled_transitions(net, m) == tuple(transitions[ti] for ti in en)
            for ti in en:
                assert fire(net, m, transitions[ti]) == succ[ti]
        assert len(marks) > 3
        with pytest.raises(NotEnabledError) as err:
            fire(net, (0,) * len(places), transitions[0])
        assert err.value.place == places[0]

    @staticmethod
    def _shape_nets():
        """Nets of 0, 1 and 29 to 32 places, each with a transition whose
        firing changes nothing: 30 places is the widest tuple display
        CPython builds directly, so the successors change form there."""
        nets = [Net("no places", [], ["t", "u"]),
                Net("one place", ["p"], ["s", "u", "d"],
                    [("p", "s", 1), ("s", "p", 1), ("u", "p", 1), ("p", "d", 2)], {"p": 1})]
        for n in (29, 30, 31, 32):
            places = [f"p{i}" for i in range(n)]
            arcs = [arc for i in range(n) for arc in (
                (places[i], f"t{i}", 1), (f"t{i}", places[(i + 1) % n], 1))]
            arcs += [("p0", "stay", 1), ("stay", "p0", 1)]
            nets.append(Net(f"ring{n}", places, [f"t{i}" for i in range(n)] + ["stay"],
                            arcs, {"p0": 2}))
        return nets

    @pytest.mark.parametrize("index", range(6),
                             ids=["0 places", "1 place", "29 places", "30 places",
                                  "31 places", "32 places"])
    def test_kernel_shapes(self, monkeypatch, index):
        net = self._shape_nets()[index]
        n = len(net.places)
        marks, table = self._generic(net, monkeypatch)
        enabled, successors = _compile_kernel(net)
        names = net.transitions
        # every function reads the marking through the locals x0, x1, ...,
        # unpacked from it first, and never subscripts it
        unpacked = ("m",) + tuple(f"x{pi}" for pi in range(n))
        for f in (enabled, net._k_names, *successors):
            code = f.__code__
            assert code.co_varnames[:n + 1] == unpacked, (net.name, code.co_name)
            assert "BINARY_SUBSCR" not in {ins.opname for ins in dis.get_instructions(code)}
        changing = [s for s, pre, post in zip(successors, net._pre, net._post) if pre != post]
        assert changing or n == 0
        for s in changing:
            assert ("list" in s.__code__.co_names) == (n > net_mod._DISPLAY_PLACES), net.name
        for m, (en, succ) in zip(marks, table):
            assert enabled(m) == en and [s(m) for s in successors] == succ, (net.name, m)
            assert net._k_names(m) == enabled_transitions(net, m) == tuple(names[ti] for ti in en)
            for ti in en:
                assert fire(net, m, names[ti]) == succ[ti]
            for ti, (pre, post) in enumerate(zip(net._pre, net._post)):
                if pre == post and ti in en:
                    assert successors[ti](m) is m  # firing changes nothing
            # a tuple of the wrong length fails the unpacking in every
            # function, and the public entry points raise their own error
            for bad in (m + (0,), m[:-1]) if m else ((0,),):
                for f in (enabled, net._k_names, *successors):
                    with pytest.raises(ValueError):
                        f(bad)
                message = f"marking has {len(bad)} entries, net '{net.name}' has {n} places"
                for t in names:
                    with pytest.raises(InputError, match=f"^{message}$"):
                        fire(net, bad, t)
                with pytest.raises(InputError, match=f"^{message}$"):
                    enabled_transitions(net, bad)
        assert len(marks) >= 2 or n == 0


class TestAttributeLayout:
    """Every per-net cache is declared at construction, so that the
    attribute layout of a net never changes."""

    def test_same_keys_through_caches(self):
        nets = [Net("n", ["p"], ["t"], [("p", "t", 1)], {"p": 1}),
                gen_random_net(GenConfig(seed=3)), par(13), reverse_dual(par(2)),
                disjoint_sum(par(1), par(2))]
        keys = list(vars(nets[0]))
        for net in nets:
            assert list(vars(net)) == keys
            classify_structure(net)
            assert list(vars(net)) == keys
            _compile_kernel(net)
            assert list(vars(net)) == keys
            if not net.structural_only:
                pn.build_rg(net, 50)
                fire_sequence(net, net.initial, ())
            assert list(vars(net)) == keys


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
    # the class distributions are where pairs share places without offending
    configs = ({}, {"places": 5, "transitions": 5}, {"max_weight": 2},
               {"max_weight": 3}, {"class_constraint": ("pure", "plain")},
               *({"class_constraint": (c,)} for c in ("CF", "EC", "FC", "DC", "AC")))
    nets += [gen_random_net(GenConfig(seed=s, **kw)) for kw in configs for s in range(300)]
    return nets + [reverse_dual(net) for net in nets]


class TestClassTable:
    def test_against_reference(self):
        nets = _table_nets()
        assert len(nets) > 6000
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

    def test_choice_free_nets_disable_nothing(self):
        # every place of a choice-free net feeds at most one transition, so
        # no firing takes tokens from another transition's preset: the table
        # is empty, and CF-persistent can record no violation
        nets = [pn.corpus_load(name).net for name in pn.corpus_names()]
        nets += [gen_random_net(GenConfig(seed=s, class_constraint=("CF",)))
                 for s in range(500)]
        free = [net for net in nets if classify_structure(net).choice_free]
        assert len(free) > 500
        for net in free:
            assert not any(_may_disable(net)), net.name


def _components_by_search(net, touches=None):
    """The components by a search from each transition over shared places
    (by default the places of its arcs): a reference for net._components
    and net._joined."""
    if touches is None:
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

    def test_joined_on_input_places(self):
        # the EC generator's repair joins transitions on input places alone:
        # each transition gets the least one of its group, each place its
        # first consumer
        split = 0
        for s in range(150):
            net = gen_random_net(GenConfig(seed=s, places=6, transitions=6))
            ins = [set(pre) for pre in net._pre]
            root, first = _joined(net._pre)
            groups = _components_by_search(net, ins)
            assert root == [next(ts[0] for ts, _ in groups if t in ts) for t in range(6)]
            assert first == {p: min(t for t in range(6) if p in ins[t]) for p in set().union(*ins)}
            split += len(groups) > 1
        assert split > 25

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
