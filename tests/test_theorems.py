import dataclasses
import hashlib
import json
import random
import signal

import pytest

import persinet as pn
from persinet import (
    GenConfig,
    InputError,
    Lasso,
    check_theorem,
    classify_structure,
    corpus_load,
    gen_random_net,
    implication_matrix,
    oracle_spe_check,
    spe_check,
)
from persinet.fairness import fairness_classify, lasso_persistence, validate_lasso
from persinet.lts import bfs_depths, complete_rg, shortest_path
from persinet.textio import print_net
from persinet.theorems import (
    CLASS_CONSTRAINTS,
    THEOREM_IDS,
    _fair_nonpersistent_lasso,
    run_theorem_suite,
)

from nets import par


def seq(text):
    return tuple(text.split())


def _safe(net):
    _, rep = pn.build_rg(net)
    return rep.status == "bounded" and rep.safe


# what each generator constraint promises of its nets, from the definitions
_PROMISES = {
    "CF": lambda net, r: all(len(net.place_postset(p)) <= 1 for p in net.places),
    "FC": lambda net, r: r.plain and r.free_choice and r.equal_conflict,
    "EC": lambda net, r: r.equal_conflict,
    "DC": lambda net, r: r.plain and r.dissymmetric_choice is True,
    "AC": lambda net, r: r.plain and r.asymmetric_choice is True,
    "pure": lambda net, r: r.pure,
    "plain": lambda net, r: r.plain,
    "pps": lambda net, r: r.plain and r.pure and _safe(net),
    "safe": lambda net, r: _safe(net),
}

# SHA-256 of print_net over seeds 0..199, per configuration.  The acceptance
# suites certify fixed seed ranges, so a moved random stream would silently
# change what they certify.
_STREAM_PINS = (
    ({}, "63a8736e79a85096acfbbb70b2f09a15a4d7933bbba80fdcc43c7ba287b5ca7d"),
    ({"max_weight": 2, "arc_density": 0.4},
     "72428b6ce670d04b594d90083df9fe4124118aebaec1ffd045f8f0b69881f67c"),
    ({"class_constraint": ("CF",)},
     "7e365361ad3d92702c206af1ace2747913d6554aaa3f599dde5fd820f03e70f7"),
    ({"class_constraint": ("FC",)},
     "57d383456a272fcfdf686074de7a7e95d3637285d47c665dd8feb672ea8d1c29"),
    ({"class_constraint": ("EC",)},
     "57d383456a272fcfdf686074de7a7e95d3637285d47c665dd8feb672ea8d1c29"),
    ({"class_constraint": ("DC",)},
     "1e8180d81dae27b91ce60782770eb235267166c0df9b57e448790c8e7d4d5cfd"),
    ({"class_constraint": ("AC",)},
     "2880dc3684582ae67ff0987c5cf12e6a0f1d23d7d6f56762b148cf655b028b5d"),
    ({"class_constraint": ("pure",)},
     "ccf133563882300ff0f4cf83b2dcca0a066504685e2681b2e3374403c722148b"),
    ({"class_constraint": ("plain",)},
     "63a8736e79a85096acfbbb70b2f09a15a4d7933bbba80fdcc43c7ba287b5ca7d"),
    ({"class_constraint": ("pps",)},
     "fde152304c17fe46a9c3600c7090a581885085bbb82503e3571faecf73773a2d"),
    ({"class_constraint": ("safe",)},
     "3e6ca262c5ad8699eef81c514b4857cd50217988b20f0cd06ccf4ddb98b72313"),
    ({"class_constraint": ("pure", "plain"), "token_budget": 4},
     "2ad6ebee66892f8fba86d505369771f5d76a8057d77d684ab277f2c19bae420e"),
    ({"class_constraint": ("EC",), "max_weight": 3},
     "1611245d316de617fe03df84448c42648a5fe3fae6b1bb8fc6601ae50c097408"),
    ({"class_constraint": ("CF",), "max_weight": 2},
     "8898f3ab316e97555aad8521700d40bb4a26baea6ad15410e9190ffc4624bc62"),
)


_COUNTS = "places, transitions, max_weight and token_budget must be >= 1"


class TestGenerator:
    @pytest.mark.parametrize("constraint", CLASS_CONSTRAINTS)
    def test_every_constraint_holds(self, constraint):
        assert set(_PROMISES) == set(CLASS_CONSTRAINTS)
        for s in range(30):
            net = gen_random_net(GenConfig(seed=s, class_constraint=(constraint,)))
            assert _PROMISES[constraint](net, classify_structure(net)), (constraint, s)

    @pytest.mark.parametrize("kw,digest", _STREAM_PINS)
    def test_stream_pinned(self, kw, digest):
        h = hashlib.sha256()
        for s in range(200):
            h.update(print_net(gen_random_net(GenConfig(seed=s, **kw))).encode())
        assert h.hexdigest() == digest

    def test_deterministic(self):
        cfg = GenConfig(seed=42, places=5, transitions=4, token_budget=3)
        assert gen_random_net(cfg) == gen_random_net(cfg)

    def test_choice_free(self):
        for s in range(30):
            net = gen_random_net(GenConfig(seed=s, class_constraint=("CF",)))
            assert classify_structure(net).choice_free
            assert all(len(net.place_postset(p)) <= 1 for p in net.places)

    def test_free_choice(self):
        for s in range(30):
            net = gen_random_net(GenConfig(seed=s, class_constraint=("FC",)))
            r = classify_structure(net)
            assert r.free_choice and r.plain

    def test_equal_conflict_weighted(self):
        for s in range(30):
            net = gen_random_net(GenConfig(seed=s, max_weight=3,
                                           class_constraint=("EC",)))
            assert classify_structure(net).equal_conflict

    def test_pure_plain(self):
        for s in range(30):
            net = gen_random_net(GenConfig(seed=s, class_constraint=("pure", "plain")))
            r = classify_structure(net)
            assert r.pure and r.plain

    def test_pps(self):
        for s in range(15):
            net = gen_random_net(GenConfig(seed=s, class_constraint=("pps",)))
            r = classify_structure(net)
            assert r.pure and r.plain
            _, rep = pn.build_rg(net)
            assert rep.safe

    def test_always_bounded(self):
        for s in range(30):
            net = gen_random_net(GenConfig(seed=s, token_budget=5))
            _, rep = pn.build_rg(net, 4000)
            assert rep.status == "bounded"

    def test_config_validation(self):
        for bad in ({"max_weight": 0}, {"max_weight": -1}, {"places": True},
                    {"seed": False}, {"token_budget": True}, {"arc_density": True}):
            with pytest.raises(InputError):
                GenConfig(**bad)
        for forced in ("FC", "DC", "AC", "plain", "pps"):
            with pytest.raises(InputError):
                GenConfig(class_constraint=(forced,), max_weight=2)
        for free in ("CF", "EC", "pure", "safe"):
            GenConfig(class_constraint=(free,), max_weight=2)
        with pytest.raises(InputError):
            GenConfig(class_constraint=("XX",))
        with pytest.raises(InputError):
            GenConfig(arc_density=2.0)
        # values of the wrong type name their field, never a raw TypeError
        for field, bad in (("arc_density", "0.3"), ("arc_density", None),
                           ("arc_density", float("nan")), ("class_constraint", 5),
                           ("class_constraint", None)):
            with pytest.raises(InputError, match=field):
                GenConfig(**{field: bad})
        # random.Random(-5) draws what random.Random(5) draws
        with pytest.raises(InputError, match="seed"):
            GenConfig(seed=-5)
        GenConfig(arc_density=1, seed=0)

    def test_negative_seed_set_after_construction(self):
        # GenConfig is mutable: a negative seed set on a built config would
        # draw the net of seed 5 under the name gen-5
        cfg = GenConfig()
        cfg.seed = -5
        with pytest.raises(InputError, match="seed must be >= 0"):
            gen_random_net(cfg)
        cfg.seed = 5
        assert gen_random_net(cfg).name == "gen5"

    @pytest.mark.parametrize("field,bad,message", [
        ("places", 0, _COUNTS),
        ("max_weight", 0, _COUNTS),
        ("transitions", 0, _COUNTS),
        ("token_budget", 0, _COUNTS),
        ("arc_density", "0.3", "arc_density must be a number in [0,1]"),
        ("class_constraint", ("XX",), "unknown class constraint 'XX'"),
    ], ids=["places", "max_weight", "transitions", "token_budget", "arc_density",
            "class_constraint"])
    def test_bad_value_set_after_construction(self, within_5s, field, bad, message):
        # a zero place or weight count used to draw forever, a zero
        # transition or token count gave an empty net, and a value of the
        # wrong type escaped as a raw TypeError or KeyError
        cfg = GenConfig()
        setattr(cfg, field, bad)
        with pytest.raises(InputError) as exc:
            gen_random_net(cfg)
        assert str(exc.value).startswith(message)

    def test_constraint_string_set_after_construction(self, within_5s):
        # normalised as the constructor normalises it, not read letter by letter
        cfg = GenConfig(seed=7)
        cfg.class_constraint = "CF"
        assert gen_random_net(cfg) == gen_random_net(GenConfig(seed=7, class_constraint="CF"))
        assert cfg.class_constraint == ("CF",)

    def test_valid_config_not_checked_again(self, monkeypatch):
        cfgs = [GenConfig(seed=s, **kw) for s in range(20)
                for kw in ({}, {"class_constraint": ("EC",), "max_weight": 2})]

        def checked(self):
            raise AssertionError("a valid config was checked again")

        monkeypatch.setattr(GenConfig, "__post_init__", checked)
        for cfg in cfgs:
            gen_random_net(cfg)


@pytest.fixture
def within_5s():
    """Fail a test still running after 5 s instead of letting it hang."""
    def expired(signum, frame):
        raise TimeoutError("no answer within 5 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _rows(pairs):
    # the firing rule reads each row's (place, weight) pairs as a set
    return [sorted(row) for row in pairs]


class TestIndexConstructor:
    """The nets made at index level, by the generator and by net._sub_net
    (and so restrict_to_component), are the nets that Net.__init__ makes of
    their names, arcs and marking."""

    @staticmethod
    def _assert_as_rebuilt(net):
        ref = pn.Net(net.name, net.places, net.transitions, net.arcs(),
                     net.marking_dict(net.initial))
        assert net == ref, net.name
        assert _rows(net._inputs) == _rows(ref._inputs), net.name
        assert _rows(net._outputs) == _rows(ref._outputs), net.name
        for attr in ("_max_out", "_pidx", "_tidx", "initial", "structural_only",
                     "components"):
            assert getattr(net, attr) == getattr(ref, attr), (net.name, attr)
        assert classify_structure(net) == classify_structure(ref), net.name
        # both paths end in Net._finish: hold its tables to their definitions
        assert net._pidx == {p: i for i, p in enumerate(net.places)}
        assert net._tidx == {t: i for i, t in enumerate(net.transitions)}
        assert _rows(net._inputs) == _rows(row.items() for row in net._pre)
        assert _rows(net._outputs) == _rows(row.items() for row in net._post)
        assert net._max_out == max((w for src, _, w in net.arcs()
                                    if src in net.transitions), default=0), net.name

    @pytest.mark.parametrize("kw", [kw for kw, _ in _STREAM_PINS])
    def test_generator(self, kw):
        for s in range(60):
            self._assert_as_rebuilt(gen_random_net(GenConfig(seed=s, **kw)))

    def test_sub_nets_of_sums(self):
        from persinet.net import _components, _sub_net

        nets = [corpus_load(name).net for name in pn.corpus_names()]
        nets = [net for net in nets if net is not None and not net.structural_only]
        nets += [gen_random_net(GenConfig(seed=s, **kw))
                 for kw in ({}, {"max_weight": 3}, {"class_constraint": ("CF",)})
                 for s in range(20)]
        sums = [pn.disjoint_sum(a, b) for a, b in zip(nets, nets[1:] + nets[:1])]
        subs = 0
        for net in sums:
            for tag in ("l", "r"):
                self._assert_as_rebuilt(pn.restrict_to_component(net, tag))
            en = pn.enabled_transitions(net, net.initial)
            m = pn.fire(net, net.initial, en[-1]) if en else net.initial
            for ts, ps in _components(net):
                self._assert_as_rebuilt(_sub_net(net, ts, ps, m))
                subs += 1
        assert len(sums) > 70 and subs > len(sums)


class TestCheckTheorem:
    def test_cf_persistent_on_samples(self):
        rep = run_theorem_suite("CF-persistent",
                                GenConfig(class_constraint=("CF",)), range(50))
        assert rep.ok and rep.confirmations == 50

    def test_ec_main_on_samples(self):
        rep = run_theorem_suite("EC-main", GenConfig(class_constraint=("EC",)),
                                range(50))
        assert rep.ok and rep.confirmations == 50

    def test_dc_main_on_fig1(self, fig1):
        rep = check_theorem("DC-main", fig1)
        assert rep.ok and rep.confirmations == 1

    def test_dc_main_on_samples(self):
        rep = run_theorem_suite("DC-main",
                                GenConfig(class_constraint=("pure", "plain")),
                                range(50))
        assert rep.ok

    def test_skips_record_reasons(self, fig14):
        rep = check_theorem("CF-persistent", fig14)
        assert rep.instances == 0
        assert rep.skips and "choice-free" in rep.skips[0][0]

    def test_spe_implies_fpe_probe_fig14(self, fig14):
        rep = check_theorem("spe-implies-fpe-probe", fig14)
        assert rep.ok
        outcome = dict(rep.skips).get("probe outcome")
        assert outcome is not None
        assert outcome["search"] == "none-within-bounds"

    def test_diamond_completion_on_unbounded_net(self, monkeypatch):
        # a: p -> q + r and b: q -> p; with two tokens on p, every a-b round
        # adds a token to r, so the graph is infinite.  The checker reads the
        # markings of the first 50 states and builds no more than those.
        net = pn.Net("grow", ["p", "q", "r"], ["a", "b"],
                     [("p", "a", 1), ("a", "q", 1), ("a", "r", 1),
                      ("q", "b", 1), ("b", "p", 1)], {"p": 2})
        assert pn.build_rg(net, 500)[1].status == "cutoff-reached"
        sizes = []
        real = pn.theorems.build_rg
        monkeypatch.setattr(pn.theorems, "build_rg",
                            lambda n, k: sizes.append(k) or real(n, k))
        rep = check_theorem("diamond-completion", net)
        assert (rep.instances, rep.confirmations, rep.violations) == (1, 1, [])
        assert sizes == [50]

    def test_diamond_completion_records_a_failed_completion(self, monkeypatch):
        # complete_diamond raises InvariantError when the closing corner is
        # missing; the checker must record that as a violation, not abort
        net = corpus_load("fig1_basic").net
        real = pn.theorems.complete_diamond
        calls = []

        def fail_first(n, m, y, x):
            calls.append((m, y, x))
            if len(calls) == 1:
                raise pn.InvariantError("diamond completion failed (injected)")
            return real(n, m, y, x)

        monkeypatch.setattr(pn.theorems, "complete_diamond", fail_first)
        rep = check_theorem("diamond-completion", net)
        m, y, x = calls[0]
        assert len(calls) > 1
        assert (rep.instances, rep.confirmations) == (1, 0)
        assert rep.violations == [{"net": net.name, "marking": m, "y": y, "x": x,
                                   "message": "diamond completion failed (injected)"}]
        calls.clear()
        suite = run_theorem_suite("diamond-completion",
                                  GenConfig(class_constraint=("pure", "plain")), range(5))
        # the suite goes on past the violation, and names its seed
        assert len(suite.violations) == 1 and len(calls) > 1
        assert suite.violations[0]["net"] == f"gen{suite.violations[0]['seed']}"

    def test_perm_implies_parikh_records_a_missed_class_member(self, monkeypatch):
        # tau is sigma after firable swaps, so a class search that misses it
        # is a violation, although the two words share their Parikh vector
        net = corpus_load("fig1_basic").net
        assert check_theorem("perm-implies-parikh", net, seed=3).confirmations == 1
        monkeypatch.setattr(pn.theorems, "perm_equivalent", lambda *args, **kw: False)
        rep = check_theorem("perm-implies-parikh", net, seed=3)
        assert (rep.instances, rep.confirmations, len(rep.violations)) == (1, 0, 1)
        violation = rep.violations[0]
        assert violation["net"] == net.name
        assert "not found equivalent" in violation["reason"]
        assert sorted(violation["sigma"]) == sorted(violation["tau"])
        suite = run_theorem_suite("perm-implies-parikh", GenConfig(), range(5))
        assert suite.confirmations == 0
        assert [v["seed"] for v in suite.violations] == list(range(5))

    def test_unknown_theorem(self, fig1):
        with pytest.raises(InputError):
            check_theorem("nope", fig1)

    def test_every_theorem_runs_on_a_corpus_net(self, fig1):
        for theorem in THEOREM_IDS:
            rep = check_theorem(theorem, fig1)
            assert rep.theorem == theorem and rep.ok, theorem
            assert rep.instances + len(rep.skips) >= 1, theorem


# The acceptance distributions of the theorem checkers: the criterion-9
# property suites of test_acceptance.py, plus the probe checker on the
# default configuration.
_REPORT_SUITES = (
    ("perm-implies-parikh", {}),
    ("persistence-factorisation", {}),
    ("CF-persistent", {"class_constraint": ("CF",)}),
    ("diamond-completion", {"class_constraint": ("pure", "plain"), "token_budget": 4}),
    ("EC-main", {"class_constraint": ("EC",)}),
    ("DC-main", {"class_constraint": ("pure", "plain")}),
    ("spe-implies-fpe-probe", {}),
)
_REPORTS_DIGEST = "b02e9ce354061af8e2d59fd0de743f34e9f47f95ad326084592f1d719fc45947"


class TestReportsPinned:
    def test_reports_pinned(self):
        # SHA-256 over the sorted-JSON reports, wall_time left out: seeds
        # 0..99 of each acceptance distribution, then every theorem at a
        # 3-state budget on 30 default nets.  A checker refactoring must
        # leave every count, skip reason and witness as it was.
        h = hashlib.sha256()

        def add(report):
            doc = dataclasses.asdict(report)
            del doc["wall_time"]
            h.update(json.dumps(doc, sort_keys=True, default=str).encode())

        for theorem, kw in _REPORT_SUITES:
            for s in range(100):
                add(check_theorem(theorem, gen_random_net(GenConfig(seed=s, **kw)),
                                  seed=s))
        for s in range(30):
            net = gen_random_net(GenConfig(seed=s))
            for theorem in THEOREM_IDS:
                add(check_theorem(theorem, net, seed=s, max_states=3))
        assert h.hexdigest() == _REPORTS_DIGEST


class TestCompleteGraphGate:
    """A reachability graph cut off at its state budget gives no verdict,
    on every path that reads one."""

    def test_complete_rg(self):
        net = par(3)
        rg, report = complete_rg(net, 8)
        assert report.status == "bounded" and len(rg.states) == 8
        with pytest.raises(pn.ResourceExceededError, match="'par3' cut off at 7 states"):
            complete_rg(net, 7)

    def test_derivation(self, fig1):
        with pytest.raises(pn.ResourceExceededError, match="cut off at 2 states"):
            pn.derive_nonDC_embedding(fig1, max_states=2)

    def test_probe_checker_skips(self):
        net = par(3)
        rep = check_theorem("spe-implies-fpe-probe", net, max_states=7)
        assert rep.skips == [("reachability graph exceeded the state budget", "par3")]
        rep = check_theorem("spe-implies-fpe-probe", net, max_states=8)
        assert rep.skips == [("no fair nonpersistent lasso found to probe", "par3")]

    @pytest.mark.parametrize("theorem", ("CF-persistent", "EC-main", "DC-main"))
    def test_checkers_skip(self, theorem):
        net = par(3)  # in every class premise, with 8 reachable markings
        rep = check_theorem(theorem, net, max_states=7)
        assert (rep.instances, rep.confirmations, rep.violations) == (1, 0, [])
        assert rep.skips == [("reachability graph exceeded the state budget", "par3")]
        rep = check_theorem(theorem, net, max_states=8)
        assert (rep.instances, rep.confirmations, rep.skips) == (1, 1, [])


def _comparable_conflict_net():
    """A pure plain DC net that is nonpersistent yet fully permutable.

    The conflict t1/t2 has comparable presets (shared place p2), so the
    net is dissymmetric choice; p2 starts with two tokens, so t1 only
    disables t2 where p2 is down to one token, and every Parikh vector is
    also realised by a persistent route through a two-token marking.  The
    p3 -> t3 -> p0 indirection keeps t1 disabled along the all-t2 runs.
    """
    return pn.Net(
        "comparable-conflict",
        ["p0", "p2", "p3", "p5"], ["t1", "t2", "t3"],
        [("p0", "t1", 1), ("p2", "t1", 1), ("p5", "t1", 1), ("t1", "p3", 1),
         ("p2", "t2", 1), ("t2", "p5", 1),
         ("p3", "t3", 1), ("t3", "p0", 1)],
        {"p2": 2, "p3": 1, "p5": 1})


def _complete_language(net):
    out, stack = [], [((), net.initial)]
    while stack:
        word, m = stack.pop()
        out.append(word)
        assert len(out) < 10000, "not a finite-language net"
        for t in net.transitions:
            if pn.enabled(net, m, t):
                stack.append((word + (t,), pn.fire(net, m, t)))
    return out


class TestDcMainGenuineViolation:
    """The DC-main implication genuinely fails on multi-token comparable
    conflicts; the checker must escalate that as a violation, not mask it."""

    def test_net_satisfies_every_premise_yet_is_dc(self):
        net = _comparable_conflict_net()
        cls = classify_structure(net)
        assert cls.pure and cls.plain
        assert cls.dissymmetric_choice is True
        rg, rep = pn.build_rg(net)
        assert not pn.persistence_check(rg).persistent
        # the complete language is tiny; check permutability exactly
        language = _complete_language(net)
        assert 4 <= max(map(len, language)) <= 6
        for word in language:
            if word and not pn.sequence_persistence(net, net.initial, word).persistent:
                assert pn.persistent_perm_equivalent(net, net.initial, word), word
        # so even the exact (unbounded) checks can never refute
        assert not spe_check(net, 12, pn.SPE).refuted
        assert not spe_check(net, 12, pn.SPE_PARIKH).refuted

    def test_pattern_genuinely_absent(self):
        net = _comparable_conflict_net()
        rg, _ = pn.build_rg(net)
        assert pn.find_embedding(pn.builtin_pattern("nonDC"), rg) is None
        with pytest.raises(pn.PreconditionError):
            pn.derive_nonDC_embedding(net, spe_bound=10)

    def test_checker_escalates(self):
        net = _comparable_conflict_net()
        rep = check_theorem("DC-main", net)
        assert len(rep.violations) == 1
        assert "DC net" in rep.violations[0]["reason"]
        assert "document" in rep.violations[0]  # replayable witness

    def test_bound_raised_before_violation(self):
        # on DC nets the bound goes up in steps of 4 until it reaches twice
        # sequence_len: 10 -> 22 and 6 -> 14
        seeded = gen_random_net(GenConfig(seed=1200101, class_constraint=("pure", "plain")))
        for net, length, bound in ((_comparable_conflict_net(), 10, 22),
                                   (_comparable_conflict_net(), 6, 14), (seeded, 10, 22)):
            rep = check_theorem("DC-main", net, pn.AnalysisBounds(sequence_len=length))
            assert [v["spe_bound"] for v in rep.violations] == [bound], net.name


def _e9301(t3_from_p0=True, t3_into_p0=False):
    """e9301, the smallest seeded DC-main violation (pure plain 3x4, 2 tokens
    on p0), and its two non-DC relatives: without the arc p0 -> t3, and
    with it reversed (t3 -> p0)."""
    arcs = [("p0", "t0", 1), ("p1", "t1", 1), ("t1", "p2", 1),
            ("p0", "t2", 1), ("p2", "t2", 1), ("p1", "t3", 1), ("p2", "t3", 1)]
    if t3_from_p0:
        arcs.append(("p0", "t3", 1))
    if t3_into_p0:
        arcs.append(("t3", "p0", 1))
    return pn.Net("e9301", ["p0", "p1", "p2"], ["t0", "t1", "t2", "t3"], arcs,
                  {"p0": 2, "p1": 1})


def _count_calls(monkeypatch, name):
    """The calls of the persinet function `name` through every module that
    holds it."""
    import sys

    real = getattr(pn, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("persinet") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, spy)
    return calls


class TestDcMainOnePass:
    """A substantive non-DC instance builds its graph once and checks the
    Parikh premise once: the derivation reuses DC-main's graph, witness
    and bounded check."""

    @pytest.mark.parametrize("relative", ({"t3_from_p0": False},
                                          {"t3_from_p0": False, "t3_into_p0": True}))
    def test_relatives(self, monkeypatch, relative):
        net = _e9301(**relative)
        cls = classify_structure(net)
        assert cls.pure and cls.plain and cls.dissymmetric_choice is False
        graphs = _count_calls(monkeypatch, "build_rg")
        checks = _count_calls(monkeypatch, "spe_check")
        rep = check_theorem("DC-main", net)
        assert (len(graphs), len(checks)) == (1, 1)
        assert (rep.instances, rep.confirmations, rep.violations) == (1, 1, [])
        assert [reason for reason, _ in rep.skips] == [
            "pattern not embedded though premises hold"]
        assert "exclusion (s2,a) maps to an enabled pair (M2,t0)" in rep.skips[0][1]["detail"]

    def test_e9301_still_violates(self):
        rep = check_theorem("DC-main", _e9301())
        assert (rep.instances, rep.confirmations, len(rep.violations)) == (1, 0, 1)
        assert rep.violations[0]["spe_bound"] == 22


def _reference_probe(net, max_prefix, max_cycle):
    """The word-level probe search: every entry state in BFS order behind
    its shortest prefix, cycles by an unpruned depth-first search over the
    firing rule, each returning cycle classified on the net."""
    rg, bound = pn.build_rg(net, 2000)
    if bound.status != "bounded":
        return None
    depths = bfs_depths(rg)
    for s in rg.states:
        if depths[s] > max_prefix:
            continue
        prefix = shortest_path(rg, s)
        entry = rg.payload[s]
        stack = [((), entry)]
        while stack:
            word, m = stack.pop()
            for t in reversed(pn.enabled_transitions(net, m)):
                m2 = pn.fire(net, m, t)
                w2 = word + (t,)
                if m2 == entry:
                    lasso = Lasso(prefix, w2)
                    validate_lasso(net, lasso)
                    if (fairness_classify(net, lasso).strongly_fair
                            and not lasso_persistence(net, lasso).persistent):
                        return lasso
                elif len(w2) < max_cycle:
                    stack.append((w2, m2))
    return None


class TestProbeSearchAgainstReference:
    """The probe search on graph rows, with return-distance pruning, gives
    the lasso of the word-level search, or None where that gives None."""

    BOUNDS = ((4, 10), (2, 6), (6, 8))
    CONFIGS = ({}, {"places": 3, "transitions": 3},
               {"places": 4, "transitions": 5, "arc_density": 0.3},
               {"class_constraint": ("pure", "plain")})

    def _found(self, net):
        found = 0
        for max_prefix, max_cycle in self.BOUNDS:
            bounds = pn.AnalysisBounds(max_prefix=max_prefix, max_cycle=max_cycle)
            got = _fair_nonpersistent_lasso(net, bounds)
            assert got == _reference_probe(net, max_prefix, max_cycle), \
                (net.name, max_prefix, max_cycle)
            found += got is not None
        return found

    def test_seeded_plain_nets(self):
        found = 0
        for cfg in self.CONFIGS:
            for s in range(100):
                net = gen_random_net(GenConfig(seed=s, **cfg))
                assert classify_structure(net).plain
                found += self._found(net)
        assert found >= 30

    def test_corpus(self):
        # fig14 at every bound, fig16 at every bound, fig8 at two
        assert sum(self._found(corpus_load(name).net)
                   for name in pn.corpus_names()) >= 8


class TestProbeChecker:
    WEIGHTED = {"max_weight": 2, "arc_density": 0.4}

    def test_no_probe_on_refuted_net(self, monkeypatch):
        net = corpus_load("fig10_fpe_not_spe").net
        assert spe_check(net, 10, pn.SPE).refuted

        def probe(*args):
            raise AssertionError("the probe ran on a refuted net")

        monkeypatch.setattr(pn.theorems, "_fair_nonpersistent_lasso", probe)
        rep = check_theorem("spe-implies-fpe-probe", net)
        assert rep.ok and (rep.instances, rep.confirmations) == (1, 0)
        assert rep.skips == [("no fair nonpersistent lasso found to probe", net.name)]

    def test_cut_off_graph_is_a_cut_off(self):
        # par11 has 2048 reachable markings, past the probe's 2000-state cap
        net = par(11)
        assert not spe_check(net, 10, pn.SPE).refuted
        with pytest.raises(pn.ResourceExceededError, match="cut off at 2000 states"):
            _fair_nonpersistent_lasso(net, pn.AnalysisBounds())
        rep = check_theorem("spe-implies-fpe-probe", net)
        assert rep.ok and (rep.instances, rep.confirmations) == (1, 0)
        assert rep.skips == [("reachability graph exceeded the state budget", "par11")]

    def test_persistent_net_has_no_probe(self):
        # a persistent graph has no nonpersistent step, hence no nonpersistent
        # lasso; par5's 32 states are answered without walking a cycle
        net = par(5)
        assert _fair_nonpersistent_lasso(net, pn.AnalysisBounds()) is None
        rep = check_theorem("spe-implies-fpe-probe", net)
        assert rep.ok and (rep.instances, rep.confirmations) == (1, 0)
        assert rep.skips == [("no fair nonpersistent lasso found to probe", "par5")]

    def test_weighted_net_answers(self):
        # the probe needs only strong fairness, which is defined on every net
        net = gen_random_net(GenConfig(seed=3, **self.WEIGHTED))
        assert not classify_structure(net).plain
        rep = check_theorem("spe-implies-fpe-probe", net)
        assert rep.ok and rep.instances == 1
        assert rep.skips == [("no fair nonpersistent lasso found to probe", net.name)]

    def test_weighted_lasso_is_fair_and_nonpersistent(self):
        net = gen_random_net(GenConfig(seed=80, **self.WEIGHTED))
        assert not classify_structure(net).plain
        lasso = _fair_nonpersistent_lasso(net, pn.AnalysisBounds())
        assert lasso == Lasso(("t3",), ("t2",))
        assert fairness_classify(net, lasso).strongly_fair
        assert not lasso_persistence(net, lasso).persistent

    def test_suite_names_slowest_seeds(self):
        rep = run_theorem_suite("spe-implies-fpe-probe", GenConfig(**self.WEIGHTED),
                                range(12))
        assert rep.ok and len(rep.slowest) == 5
        assert {seed for seed, _ in rep.slowest} <= set(range(12))
        times = [seconds for _, seconds in rep.slowest]
        assert times == sorted(times, reverse=True) and times[-1] >= 0


class TestOracleEquivalence:
    def test_small_nets_agree(self):
        agree = 0
        for s in range(120):
            net = gen_random_net(GenConfig(seed=s, places=3, transitions=3,
                                           token_budget=2))
            _, rep = pn.build_rg(net, 200)
            if rep.status != "bounded" or rep.state_count > 9:
                continue
            bound = min(rep.state_count + 1, 6)
            for mode in (pn.SPE, pn.SPE_PARIKH):
                fast = spe_check(net, bound, mode)
                slow = oracle_spe_check(net, bound, mode)
                assert fast.status == slow.status, (net.name, mode)
                assert fast.counterexample == slow.counterexample, (net.name, mode)
            agree += 1
        assert agree >= 60

    def test_corpus_agree(self):
        for name, bound in (("fig1_basic", 5), ("fig10_fpe_not_spe", 3),
                            ("fig12_spar", 4), ("fig4_perslocal", 3)):
            net = corpus_load(name).net
            for mode in (pn.SPE, pn.SPE_PARIKH):
                fast = spe_check(net, bound, mode)
                slow = oracle_spe_check(net, bound, mode)
                assert fast.status == slow.status
                assert fast.counterexample == slow.counterexample


def _reference_assembly(matrix):
    """implication_matrix's evidence assembly written as one pass over the
    probe rows: each row refutes APE and, when just or fair, JPE or FPE."""
    evidence = {n: "holds-evidence" for n in pn.theorems.NOTIONS}
    witnesses = {}
    if matrix.spe.refuted:
        evidence["SPE"] = "refuted"
        witnesses["SPE"] = matrix.spe.counterexample

    def refute(notion, status, run):
        order = ("holds-evidence", "refuted-within-bounds", "refuted")
        if order.index(status) > order.index(evidence[notion]):
            evidence[notion] = status
            witnesses[notion] = run

    for row in matrix.probes:
        if row.equivalent == "found":
            continue
        status = "refuted" if row.equivalent == "none" else "refuted-within-bounds"
        refute("APE", status, row.run)
        if row.just:
            refute("JPE", status, row.run)
        if row.fair:
            refute("FPE", status, row.run)
    if evidence["SPE"] == "refuted":
        refute("APE", "refuted", witnesses["SPE"])

    violations = []
    rank = {"refuted": 0, "refuted-within-bounds": 1, "holds-evidence": 2}
    for strong, weak in pn.theorems.IMPLICATIONS:
        if rank[evidence[weak]] < rank[evidence[strong]]:
            violations.append(
                f"{strong} => {weak} violated: {weak} is {evidence[weak]} "
                f"while {strong} is {evidence[strong]}")
    for row in matrix.probes:
        if row.fair and not row.just:
            violations.append(f"probe {row.run} is fair but not just")
        if row.just and not row.progress:
            violations.append(f"probe {row.run} is just but lacks progress")
    return evidence, witnesses, violations


def _seeded_probes(net, rng):
    """Three random finite runs of the net, then the lassos through up to
    four random states, each closing the shortest cycle back to its state."""
    rg, _ = complete_rg(net, 200)
    nxt = rg.next_states()
    runs = []
    for _ in range(3):
        s, word = rg.initial, []
        for _ in range(rng.randint(0, 5)):
            if not nxt[s]:
                break
            a = rng.choice(sorted(nxt[s]))
            word.append(a)
            s = nxt[s][a]
        runs.append(tuple(word))
    for s in rng.sample(rg.states, min(4, len(rg.states))):
        paths, queue, cycles = {s: ()}, [s], []  # paths: shortest word from s
        for u in queue:  # queue grows while it is read
            for a, v in nxt[u].items():
                if v == s:
                    cycles.append(paths[u] + (a,))
                elif v not in paths:
                    paths[v] = paths[u] + (a,)
                    queue.append(v)
        if cycles:
            runs.append(Lasso(shortest_path(rg, s), min(cycles, key=len)))
    return runs


class TestImplicationMatrix:
    SMALL = pn.AnalysisBounds(sequence_len=4, max_prefix=3, max_cycle=4, depth=4)

    def _agrees(self, net, probes, bounds=None):
        result = implication_matrix(net, probes, bounds)
        assert (result.evidence, result.witnesses, result.violations) == \
            _reference_assembly(result.matrix), net.name
        return result

    def test_assembly_on_corpus_probes(self):
        refuted = 0
        for name in pn.corpus_names():
            entry = corpus_load(name)
            probes = [pn.parse_lasso(l) if ";" in l else seq(l)
                      for l in entry.probes]
            result = self._agrees(entry.net, probes)
            refuted += sum(v != "holds-evidence" for v in result.evidence.values())
        assert refuted >= 5

    def test_assembly_on_seeded_probes(self):
        statuses = set()
        for s in range(40):
            net = gen_random_net(GenConfig(seed=s, places=3, transitions=3))
            result = self._agrees(net, _seeded_probes(net, random.Random(s)), self.SMALL)
            statuses.update(result.evidence.items())
        assert {("JPE", "refuted-within-bounds"), ("APE", "refuted")} <= statuses

    def test_fig6(self, fig6):
        result = implication_matrix(fig6, [Lasso(("y",), seq("x a c"))])
        assert result.evidence["SPE"] == "holds-evidence"
        assert result.evidence["JPE"] == "refuted-within-bounds"
        assert result.evidence["APE"] == "refuted-within-bounds"
        assert result.evidence["FPE"] == "holds-evidence"
        assert not result.violations

    def test_fig10(self):
        net = corpus_load("fig10_fpe_not_spe").net
        probes = [seq("y b"), seq("x y z a c"), seq("x a z d y"),
                  seq("z d y b x")]
        result = implication_matrix(net, probes)
        assert result.evidence["SPE"] == "refuted"
        assert result.evidence["APE"] == "refuted"
        assert result.evidence["FPE"] == "holds-evidence"
        assert result.evidence["JPE"] == "holds-evidence"
        assert not result.violations

    def test_fig14(self, fig14):
        result = implication_matrix(fig14, [Lasso(("y",), seq("x a1 a2 b c"))])
        assert result.evidence["SPE"] == "holds-evidence"
        assert result.evidence["FPE"] == "refuted-within-bounds"
        assert not result.violations

    def test_fig5_all_hold(self, fig5):
        result = implication_matrix(fig5, [Lasso((), seq("a c b c")), seq("a")])
        assert all(v == "holds-evidence" for v in result.evidence.values())
        assert not result.violations
