import hashlib
import random
from itertools import permutations

import pytest

import persinet as pn
from persinet import (
    GenConfig,
    InputError,
    PreconditionError,
    build_rg,
    builtin_pattern,
    classify_structure,
    corpus_load,
    derive_nonDC_embedding,
    disjoint_sum,
    find_embedding,
    gen_random_net,
    recognize,
    spe_check,
    validate_embedding,
)
from persinet.corpus import corpus_names
from persinet.patterns import (
    Embedding,
    _disable_pairs,
    _disable_triangles,
    enumerate_embeddings,
)

from nets import par


class TestBuiltins:
    def test_nonpers_literal(self):
        p = builtin_pattern("nonpers")
        assert p.states == ("1", "2", "3")
        assert set(p.arcs) == {("1", "a", "2"), ("1", "b", "3")}
        assert p.exclusions == (("2", "b"),)

    def test_nondc_literal(self):
        p = builtin_pattern("nonDC")
        assert len(p.states) == 7 and len(p.arcs) == 4
        assert set(p.exclusions) == {("s1", "b"), ("s2", "a"),
                                     ("s6", "b"), ("s7", "a")}

    def test_unknown(self):
        with pytest.raises(InputError):
            builtin_pattern("nope")


def _canonical_first(pattern, lts):
    """The first embedding of the brute-force enumeration, in the order
    find_embedding documents: label maps in canonical order, then the
    positions in lts.states of the images of the pattern states, taken
    most-constrained first with declaration order breaking ties."""
    mentions = {s: 0 for s in pattern.states}
    for s, _, s2 in pattern.arcs:
        mentions[s] += 1
        mentions[s2] += 1
    for s, _ in pattern.exclusions:
        mentions[s] += 1
    order = sorted(pattern.states, key=lambda s: (-mentions[s], pattern.states.index(s)))
    position = {s: i for i, s in enumerate(lts.states)}
    label_rank = {}
    best = None
    for emb in enumerate_embeddings(pattern, lts):
        rank = label_rank.setdefault(tuple(emb.label_map.items()), len(label_rank))
        key = (rank, tuple(position[emb.state_map[s]] for s in order))
        if best is None or key < best[0]:
            best = (key, emb)
    return None if best is None else best[1]


def _assert_canonical_first(pattern, lts):
    fast = find_embedding(pattern, lts)
    slow = _canonical_first(pattern, lts)
    if slow is None:
        assert fast is None, lts.name
    else:
        assert fast is not None, lts.name
        assert (fast.state_map, fast.label_map) == (slow.state_map, slow.label_map), lts.name


class TestFindEmbedding:
    def test_into_fig1_rg(self, fig1):
        rg, _ = build_rg(fig1)
        emb = find_embedding(builtin_pattern("nonpers"), rg)
        assert emb.state_map == {"1": "M4", "2": "M6", "3": "M7"}
        assert emb.label_map == {"a": "a", "b": "b"}

    def test_fusion_into_ts2(self):
        entry = corpus_load("fig2_confuse")
        emb = find_embedding(builtin_pattern("nonpers"), entry.lts)
        assert emb.state_map["2"] == emb.state_map["3"] == "s1"
        assert emb.label_map == {"a": "x", "b": "y"}

    def test_none_in_fig5(self, fig5):
        rg, _ = build_rg(fig5)
        assert find_embedding(builtin_pattern("nonpers"), rg) is None

    def test_nondc_in_fig14_companion(self):
        entry = corpus_load("fig14_counterexample")
        emb = find_embedding(builtin_pattern("nonDC"), entry.lts)
        assert emb is not None
        assert not validate_embedding(builtin_pattern("nonDC"), entry.lts, emb)

    def test_validation_catches_breakage(self, fig1):
        rg, _ = build_rg(fig1)
        bogus = Embedding({"1": "M0", "2": "M1", "3": "M2"}, {"a": "a", "b": "b"})
        assert validate_embedding(builtin_pattern("nonpers"), rg, bogus)
        fused = Embedding({"1": "M4", "2": "M6", "3": "M7"}, {"a": "a", "b": "a"})
        assert any("fuses" in p for p in
                   validate_embedding(builtin_pattern("nonpers"), rg, fused))

    def test_complete_against_bruteforce(self):
        # the search returns the canonical-first embedding of the brute
        # force, and None exactly when the brute force finds nothing
        checked = {"nonpers": 0, "nonDC": 0}
        for s in range(60):
            net = gen_random_net(GenConfig(seed=s, places=3, transitions=3,
                                           token_budget=2))
            rg, rep = build_rg(net, 500)
            if rep.status != "bounded" or len(rg.states) > 8:
                continue
            _assert_canonical_first(builtin_pattern("nonpers"), rg)
            checked["nonpers"] += 1
            # the brute force for seven pattern states is |S|^7 per label map
            if len(rg.states) <= 3 and checked["nonDC"] < 10:
                _assert_canonical_first(builtin_pattern("nonDC"), rg)
                checked["nonDC"] += 1
        assert checked["nonpers"] >= 30 and checked["nonDC"] == 10


# SHA-256 over the first embedding of nonpers and of nonDC (state map in
# search order, label map) on each corpus net's reachability graph and on
# each corpus LTS
_CORPUS_EMBEDDINGS_DIGEST = (
    "23627e36f5078f24184a4cdcf71d527da954e17daef10360d22ea34826ca59ea")


class TestPinnedAnswers:
    def test_none_in_par12(self):
        # 24 labels: every ordered label pair against 4,096 states unless
        # the pairs no edge disables are skipped, and none is disabled
        rg, _ = build_rg(par(12))
        assert find_embedding(builtin_pattern("nonpers"), rg) is None

    def test_corpus_first_embeddings(self):
        h = hashlib.sha256()
        for name in corpus_names():
            entry = corpus_load(name)
            graphs = [build_rg(entry.net)[0]]
            graphs += [entry.lts] if entry.lts is not None else []
            for g in graphs:
                for p in ("nonpers", "nonDC"):
                    e = find_embedding(builtin_pattern(p), g)
                    h.update(repr((g.name, p, e and (e.state_map, e.label_map))).encode())
        assert h.hexdigest() == _CORPUS_EMBEDDINGS_DIGEST


class TestCanonicalFirst:
    def test_random_nondeterministic_ltss(self):
        # random edge sets over three states embed both patterns in many
        # ways, with fused states and several candidates per arc
        rng = random.Random(5)
        # searched middle state first, so u is drawn from the predecessors of v
        twojump = pn.Pattern("twojump", ("u", "v", "w"), ("a",),
                             (("u", "a", "v"), ("v", "a", "w")), ())
        patterns = {p.name: p for p in (builtin_pattern("nonpers"),
                                        builtin_pattern("nonDC"), twojump)}
        found = dict.fromkeys(patterns, 0)
        for i in range(25):
            states, labels = ["s0", "s1", "s2"], ["a", "b"]
            edges = [(p, a, q) for p in states for a in labels for q in states
                     if rng.random() < 0.3]
            lts = pn.Lts(f"r{i}", states, labels, edges, "s0")
            for name, pattern in patterns.items():
                _assert_canonical_first(pattern, lts)
                found[name] += find_embedding(pattern, lts) is not None
        assert found["nonpers"] >= 5 and found["nonDC"] >= 1 and found["twojump"] >= 5

    def test_corpus_ltss(self):
        for name in ("fig1_basic", "fig2_confuse", "fig14_counterexample"):
            _assert_canonical_first(builtin_pattern("nonpers"), corpus_load(name).lts)
        _assert_canonical_first(builtin_pattern("nonDC"), corpus_load("fig2_confuse").lts)

    def test_nondeterministic_lts(self):
        # s0 has two a-successors, declared against state order; both
        # complete nonpers, so the canonical one is the earlier state s1
        lts = pn.Lts("nd", ["s0", "s1", "s2", "s3"], ["a", "b"],
                     [("s0", "a", "s2"), ("s0", "a", "s1"), ("s0", "b", "s3")], "s0")
        emb = find_embedding(builtin_pattern("nonpers"), lts)
        assert emb.state_map == {"1": "s0", "2": "s1", "3": "s3"}
        _assert_canonical_first(builtin_pattern("nonpers"), lts)
        # nonDC with fused states: s0 chooses, s1 and s2 continue one leg each
        lts = pn.Lts("fused", ["s0", "s1", "s2"], ["a", "b"],
                     [("s0", "b", "s2"), ("s0", "a", "s1"), ("s1", "a", "s1"),
                      ("s2", "b", "s2"), ("s2", "b", "s1")], "s0")
        assert find_embedding(builtin_pattern("nonDC"), lts) is not None
        _assert_canonical_first(builtin_pattern("nonDC"), lts)


def _random_pattern(rng, i):
    """A pattern of at most 4 states and 3 labels.  Arcs may be self-loops;
    an exclusion never contradicts an arc from its own state, and one
    pattern in three excludes an arc's own label at its target."""
    states = [f"p{j}" for j in range(rng.randint(1, 4))]
    labels = [f"x{j}" for j in range(rng.randint(1, 3))]
    triples = [(p, a, q) for p in states for a in labels for q in states]
    arcs = [t for t in triples if rng.random() < 0.2] or [rng.choice(triples)]
    leaving = {(p, a) for p, a, _ in arcs}
    exclusions = {(q, a) for q in states for a in labels
                  if (q, a) not in leaving and rng.random() < 0.25}
    if rng.random() < 1 / 3:
        own = [(q, a) for _, a, q in arcs if (q, a) not in leaving]
        if own:
            exclusions.add(rng.choice(own))
    return pn.Pattern(f"pat{i}", states, labels, arcs, sorted(exclusions))


class TestDisableTriangles:
    """find_embedding skips a label map that puts a disable triangle of the
    pattern on a label pair the LTS never disables."""

    def test_builtin_triangles(self):
        assert _disable_triangles(builtin_pattern("nonpers")) == [(0, 1)]
        assert _disable_triangles(builtin_pattern("nonDC")) == [(0, 1), (1, 0)]

    def test_disable_pairs(self):
        # s1 has two a-successors: itself, which keeps a and b enabled, and
        # the deadlock s2, which loses both; no other edge loses a label
        lts = pn.Lts("d", ["s0", "s1", "s2"], ["a", "b"],
                     [("s0", "a", "s1"), ("s0", "b", "s0"), ("s1", "b", "s1"),
                      ("s1", "a", "s2"), ("s1", "a", "s1")], "s0")
        assert _disable_pairs(lts) == [0b11, 0b00]

    def test_random_patterns_against_bruteforce(self):
        # random nondeterministic LTSs against random patterns: the search
        # returns the canonical-first embedding of the brute force, and None
        # exactly when it finds nothing
        rng = random.Random(1976)
        seen = dict.fromkeys(("found", "none", "self-loop", "own label",
                              "fused", "pruned"), 0)
        for i in range(200):
            states = [f"s{j}" for j in range(rng.randint(1, 5))]
            labels = ["a", "b", "c", "d"][:rng.randint(1, 4)]
            edges = [(p, a, q) for p in states for a in labels for q in states
                     if rng.random() < 0.3]
            lts = pn.Lts(f"r{i}", states, labels, edges, "s0")
            pattern = _random_pattern(rng, i)
            _assert_canonical_first(pattern, lts)
            emb = find_embedding(pattern, lts)
            triangles = _disable_triangles(pattern)
            seen["found" if emb else "none"] += 1
            seen["self-loop"] += any(p == q for p, _, q in pattern.arcs)
            seen["own label"] += any(x == y for x, y in triangles)
            if emb is not None:
                seen["fused"] += len(set(emb.state_map.values())) < len(pattern.states)
            # some label map is skipped before any state is placed
            disables = _disable_pairs(lts)
            seen["pruned"] += any(
                not disables[combo[x]] >> combo[y] & 1 for x, y in triangles
                for combo in permutations(range(len(labels)), len(pattern.labels)))
        assert min(seen.values()) >= 25, seen


class TestRecognize:
    def test_fig1(self, fig1):
        rg, _ = build_rg(fig1)
        verdict = recognize(rg, "nonpers")
        assert verdict.found and "not persistent" in verdict.consequence

    def test_ts9_nondc(self):
        entry = corpus_load("fig14_counterexample")
        verdict = recognize(entry.lts, "nonDC")
        assert verdict.found and "dissymmetric" in verdict.consequence

    def test_absence_no_consequence(self, fig5):
        rg, _ = build_rg(fig5)
        verdict = recognize(rg, "nonpers")
        assert not verdict.found and verdict.consequence is None


EXPECTED_FIG1 = {"s1": "M1", "s2": "M2", "s3": "M3", "s4": "M4",
                 "s5": "M5", "s6": "M6", "s7": "M7"}


class TestDerivation:
    def test_fig1_full_mapping(self, fig1):
        d = derive_nonDC_embedding(fig1, spe_bound=8)
        assert d.via_construction
        assert d.embedding.state_map == EXPECTED_FIG1
        assert d.embedding.label_map == {"a": "a", "b": "b"}
        assert not validate_embedding(builtin_pattern("nonDC"), d.rg, d.embedding)

    def test_fig14(self, fig14):
        d = derive_nonDC_embedding(fig14, spe_bound=8)
        assert d.via_construction
        assert not validate_embedding(builtin_pattern("nonDC"), d.rg, d.embedding)
        # the choice state hosts the two mandatory arcs
        m = d.roles["s4"]
        assert pn.enabled(fig14, m, d.legs[0]) and pn.enabled(fig14, m, d.legs[1])

    def test_persistent_net_rejected(self, fig5):
        with pytest.raises(PreconditionError):
            derive_nonDC_embedding(fig5, spe_bound=6)

    def test_search_bound_reports_resource(self, fig1):
        with pytest.raises(pn.ResourceExceededError) as err:
            derive_nonDC_embedding(fig1, spe_bound=8, search_bound=1)
        assert err.value.partial is not None

    def test_near_injectivity_facts(self, fig1, fig6, fig14):
        for net in (fig1, fig6, fig14):
            d = derive_nonDC_embedding(net, spe_bound=8)
            r = d.roles
            lower = [("s4", "s6"), ("s1", "s3"), ("s1", "s4"),
                     ("s3", "s6"), ("s4", "s3"), ("s1", "s6")]
            upper = [("s4", "s7"), ("s2", "s5"), ("s2", "s4"),
                     ("s5", "s7"), ("s4", "s5"), ("s2", "s7")]
            for x, y in lower + upper:
                assert r[x] != r[y], (net.name, x, y)

    def test_cross_check_with_search(self, fig1):
        d = derive_nonDC_embedding(fig1, spe_bound=8)
        searched = find_embedding(builtin_pattern("nonDC"), d.rg)
        assert searched is not None
        assert not validate_embedding(builtin_pattern("nonDC"), d.rg, searched)

    def test_theorem_as_property_on_sums(self):
        # nonpersistent nets that keep the bounded Parikh-equivalence
        # property: corpus premise nets summed with random persistent nets
        bases = ["fig1_basic", "fig6_unfair", "fig8_variant"]
        count = 0
        for i, base in enumerate(bases):
            for s in range(8):
                other = gen_random_net(GenConfig(
                    seed=100 * i + s, places=3, transitions=3, token_budget=2,
                    class_constraint=("CF", "pure", "plain")))
                net = disjoint_sum(corpus_load(base).net, other)
                cls = classify_structure(net)
                assert cls.plain and cls.pure
                assert not spe_check(net, 6, pn.SPE_PARIKH).refuted
                d = derive_nonDC_embedding(net, spe_bound=6)
                assert not validate_embedding(builtin_pattern("nonDC"), d.rg,
                                              d.embedding)
                assert cls.dissymmetric_choice is False
                count += 1
        assert count == 24
