import random
from collections import deque

import pytest

import persinet as pn
from persinet import (
    GenConfig,
    InputError,
    InvariantError,
    Net,
    NotEnabledError,
    UnknownIdError,
    UnsupportedClassError,
    complete_diamond,
    corpus_load,
    equivalence_class,
    fire,
    fire_sequence,
    gen_random_net,
    parikh,
    perm_equivalent,
    persistent_parikh_equivalent,
    persistent_perm_equivalent,
    sequence_persistence,
    spe_check,
    unify_parikh_equivalent,
)
from persinet.sequences import _realisations

from nets import par


def seq(text):
    return tuple(text.split())


class TestParikh:
    def test_examples(self):
        assert parikh(seq("a b c")) == {"a": 1, "b": 1, "c": 1}
        assert parikh(()) == {}
        assert parikh(seq("a a b")) == {"a": 2, "b": 1}

    def test_fig12_equal_vectors(self):
        assert parikh(seq("a b c")) == parikh(seq("c b a"))


class TestSequencePersistence:
    def test_fig1(self, fig1):
        assert sequence_persistence(fig1, fig1.initial, seq("c a d")).persistent
        v = sequence_persistence(fig1, fig1.initial, seq("d c a"))
        assert not v.persistent
        assert v.failing_index == 2 and v.disabled_transition == "b"

    def test_fig4_local(self):
        net = corpus_load("fig4_perslocal").net
        assert sequence_persistence(net, net.initial, seq("c")).persistent
        assert not sequence_persistence(net, net.initial, seq("a")).persistent
        assert not sequence_persistence(net, net.initial, seq("a c")).persistent

    def test_unfirable_is_input_error(self, fig1):
        with pytest.raises(NotEnabledError) as err:
            sequence_persistence(fig1, fig1.initial, seq("a"))
        assert (err.value.index, err.value.place) == (0, "p2")
        with pytest.raises(NotEnabledError) as err:
            persistent_perm_equivalent(fig1, fig1.initial, seq("c b"))
        assert (err.value.index, err.value.place) == (1, "p4")

    def test_validates_whole_word(self):
        # 'a' disables 'b' at step 0, yet the rest of the word must fire
        net = corpus_load("fig4_perslocal").net
        with pytest.raises(NotEnabledError) as err:
            sequence_persistence(net, net.initial, seq("a a"))
        assert (err.value.index, err.value.place) == (1, "p0")
        with pytest.raises(UnknownIdError, match="unknown transition 'zz'"):
            sequence_persistence(net, net.initial, seq("a zz"))

    def test_unknown_transition(self, fig1):
        with pytest.raises(UnknownIdError, match="unknown transition 'zz'"):
            sequence_persistence(fig1, fig1.initial, seq("c zz"))

    def test_factorisation_random(self):
        rng = random.Random(5)
        for s in range(60):
            net = gen_random_net(GenConfig(seed=s, token_budget=4))
            word = _random_walk(net, rng, 9)
            cut = rng.randint(0, len(word))
            mid = fire_sequence(net, net.initial, word[:cut])
            whole = sequence_persistence(net, net.initial, word).persistent
            parts = (sequence_persistence(net, net.initial, word[:cut]).persistent
                     and sequence_persistence(net, mid, word[cut:]).persistent)
            assert whole == parts


def _whole_class(net, m0, word, guard=None):
    """The class of word by the whole-word search, which no component
    split reaches: the reference for equivalence_class and perm_equivalent."""
    from persinet.sequences import _class_bfs

    return {w for w, _ in _class_bfs(net, m0, tuple(word), guard)}


def _random_walk(net, rng, max_len):
    word, m = [], net.initial
    for _ in range(rng.randint(0, max_len)):
        en = pn.enabled_transitions(net, m)
        if not en:
            break
        t = rng.choice(en)
        word.append(t)
        m = fire(net, m, t)
    return tuple(word)


class TestPermEquivalence:
    def test_fig1_chain(self, fig1):
        assert perm_equivalent(fig1, fig1.initial, seq("d c a"), seq("c a d"))
        assert perm_equivalent(fig1, fig1.initial, seq("d c a"), seq("c d a"))

    def test_fig12_not_equivalent(self):
        net = corpus_load("fig12_spar").net
        assert not perm_equivalent(net, net.initial, seq("a b c"), seq("c b a"))

    def test_reflexive(self, fig1):
        assert perm_equivalent(fig1, fig1.initial, seq("c d"), seq("c d"))

    def test_class_closure(self):
        rng = random.Random(9)
        for s in range(40):
            net = gen_random_net(GenConfig(seed=s, token_budget=4))
            word = _random_walk(net, rng, 7)
            end = fire_sequence(net, net.initial, word)
            members = equivalence_class(net, net.initial, word)
            assert word in members
            for w in members:
                assert parikh(w) == parikh(word)
                assert fire_sequence(net, net.initial, w) == end

    def test_perm_implies_parikh(self):
        rng = random.Random(11)
        for s in range(40):
            net = gen_random_net(GenConfig(seed=s, token_budget=4))
            word = _random_walk(net, rng, 7)
            for other in list(equivalence_class(net, net.initial, word))[:10]:
                assert parikh(other) == parikh(word)

    def test_against_naive_pairwise_oracle(self):
        # dumb oracle: intersect the classes directly, no short-circuits
        rng = random.Random(31)
        checked = 0
        for s in range(60):
            net = gen_random_net(GenConfig(seed=s, places=3, transitions=3,
                                           token_budget=3))
            w1 = _random_walk(net, rng, 6)
            w2 = _random_walk(net, rng, 6)
            if not w1 or len(w1) != len(w2):
                continue
            got = perm_equivalent(net, net.initial, w1, w2)
            want = w2 in _whole_class(net, net.initial, w1)
            assert got == want
            checked += 1
        assert checked >= 10

    def test_class_guard(self):
        net = corpus_load("fig7_left").net
        word = ("a", "b") * 5
        with pytest.raises(pn.ResourceExceededError):
            equivalence_class(net, net.initial, word, guard=10)

    def test_class_guard_env(self, monkeypatch):
        from persinet.sequences import default_class_guard

        monkeypatch.setenv("PERSINET_CLASS_GUARD", "123")
        assert default_class_guard() == 123


class TestPersistentEquivalents:
    def test_perm_equivalent_of_cda(self, fig1):
        assert persistent_perm_equivalent(fig1, fig1.initial, seq("c d a")) == \
            seq("c a d")

    def test_none_from_m1(self, fig1):
        m1 = fire(fig1, fig1.initial, "c")
        assert persistent_perm_equivalent(fig1, m1, seq("d b")) is None

    def test_identity_on_persistent(self, fig1):
        assert persistent_perm_equivalent(fig1, fig1.initial, seq("d b")) == seq("d b")
        # the class also holds the lexicographically smaller persistent a0 a1
        par2 = par(2)
        assert persistent_perm_equivalent(par2, par2.initial, seq("a1 a0")) == seq("a1 a0")

    def test_rejects_unfirable_after_nonpersistent_step(self):
        # 'a' disables 'b' at step 0, so the persistence test stops there;
        # the rest of the word is still validated, not answered with None
        net = Net("conflict", ["p"], ["a", "b"], [("p", "a", 1), ("p", "b", 1)], {"p": 1})
        with pytest.raises(NotEnabledError) as err:
            persistent_perm_equivalent(net, net.initial, seq("a b"))
        assert (err.value.index, err.value.place) == (1, "p")
        with pytest.raises(UnknownIdError, match="unknown transition 'zz'"):
            persistent_perm_equivalent(net, net.initial, seq("a zz"))
        assert persistent_perm_equivalent(net, net.initial, seq("a")) is None

    def test_parikh_equivalent_fig1(self, fig1):
        assert persistent_parikh_equivalent(fig1, fig1.initial,
                                            parikh(seq("c d a"))) == seq("c a d")

    def test_parikh_equivalent_fig6_reorder(self, fig6):
        # the late-choice run can always be reordered to do the choice last
        for n in (1, 2, 3):
            target = parikh(("y",) + seq("x a c") * n)
            found = persistent_parikh_equivalent(fig6, fig6.initial, target)
            assert found is not None
            assert sequence_persistence(fig6, fig6.initial, found).persistent
            assert parikh(found) == target

    def test_parikh_none_fig10(self):
        net = corpus_load("fig10_fpe_not_spe").net
        assert persistent_parikh_equivalent(net, net.initial, parikh(seq("y b"))) is None
        assert persistent_parikh_equivalent(net, net.initial, parikh(seq("y c"))) is None


class TestLongVectors:
    """The realisation search keeps its own stack, so the length of a word
    is not limited by the interpreter's recursion limit."""

    def test_one_cycle_3000_letters(self):
        net = Net("onecycle", ["p", "q"], ["a", "b"],
                  [("p", "a", 1), ("a", "q", 1), ("q", "b", 1), ("b", "p", 1)],
                  {"p": 1})
        target = {"a": 1500, "b": 1500}
        assert persistent_parikh_equivalent(net, net.initial, target) == \
            ("a", "b") * 1500
        assert next(_realisations(net, net.initial, target), None) == ("a", "b") * 1500


def _brute_words(net, m0, max_len):
    """(word, marking) for every firable word up to max_len, by recursion
    over the public firing rule, lexicographic."""
    out = [((), m0)]

    def grow(word, m):
        if len(word) == max_len:
            return
        for t in net.transitions:
            if pn.enabled(net, m, t):
                m2 = fire(net, m, t)
                out.append((word + (t,), m2))
                grow(word + (t,), m2)

    grow((), m0)
    return out


class TestKernelsAgainstOracle:
    """The shared search kernels against the unpruned oracle enumeration
    of theorems._all_with_parikh, on the criterion-10 distribution."""

    NETS = [gen_random_net(GenConfig(seed=s, places=3, transitions=3, token_budget=2))
            for s in range(300)]

    def test_realisation_searches(self):
        from persinet.fairness import _cycles_with_parikh
        from persinet.theorems import _all_with_parikh

        checked = cycles = 0
        for net in self.NETS:
            m0 = net.initial
            vectors = {tuple(sorted(parikh(w).items())) for w, _ in _brute_words(net, m0, 5)}
            for key in sorted(vectors):
                target = dict(key)
                every = _all_with_parikh(net, m0, target)
                persistent = [w for w in every
                              if sequence_persistence(net, m0, w).persistent]
                assert next(_realisations(net, m0, target), None) == every[0]
                assert persistent_parikh_equivalent(net, m0, target) == \
                    next(iter(persistent), None)
                for forbidden in [{t} for t in net.transitions] + [set(net.transitions[:2])]:
                    avoiding = next(_realisations(net, m0, target, persistent=True,
                                                  forbidden_last=forbidden), None)
                    assert avoiding == next(
                        (w for w in persistent if not w or w[-1] not in forbidden), None)
                checked += 1
            rg, _ = pn.build_rg(net)
            for state in rg.states:
                entry = rg.payload[state]
                vectors = {tuple(sorted(parikh(w).items()))
                           for w, _ in _brute_words(net, entry, 4) if w}
                for key in sorted(vectors):
                    target = dict(key)
                    back = [w for w in _all_with_parikh(net, entry, target)
                            if fire_sequence(net, entry, w) == entry]
                    assert _cycles_with_parikh(net, entry, target) == back
                    assert _cycles_with_parikh(net, entry, target, persistent=True) == \
                        [w for w in back if sequence_persistence(net, entry, w).persistent]
                    cycles += bool(back)
        assert checked > 1200 and cycles > 300

    def test_word_enumerator(self):
        from persinet.sequences import _firable_words

        for net in self.NETS[:100]:
            got = [(w, m) for w, m, _ in _firable_words(net, net.initial, 4)]
            assert sorted(got, key=lambda x: (len(x[0]), x[0])) == got
            assert sorted(got) == sorted(_brute_words(net, net.initial, 4))
            for w, _, pers in _firable_words(net, net.initial, 4):
                assert pers == sequence_persistence(net, net.initial, w).persistent

    def test_class_searches(self):
        from persinet.fairness import _prefix_match_search

        for net in self.NETS[:150]:
            words = [w for w, _ in _brute_words(net, net.initial, 4) if len(w) == 4]
            for s1 in words[:6]:
                members = _whole_class(net, net.initial, s1)
                for s2 in words:
                    assert perm_equivalent(net, net.initial, s1, s2) == (s2 in members)
                    for k in (1, 2, 3):
                        want = s2[:k]
                        assert _prefix_match_search(net, net.initial, s1, want, 10 ** 6) == \
                            any(w[:k] == want for w in members)


def _replayed_class_bfs(net, m0, word, guard):
    """The permutation-class search with no step memo, the reference for
    sequences._class_bfs: every member's markings are replayed from m0 and
    each swapped window is fired afresh."""
    from persinet.net import _enabled_i, _fire_i

    index = net._tidx
    seen = {word}
    queue = deque([word])
    yield word
    while queue:
        w = queue.popleft()
        marks = [m0]
        for t in w:
            marks.append(_fire_i(net, marks[-1], index[t]))
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a == b:
                continue
            m2 = _fire_i(net, marks[i], index[b])
            if m2 is None or not _enabled_i(net, m2, (index[a],)):
                continue
            w2 = w[:i] + (b, a) + w[i + 2:]
            if w2 not in seen:
                seen.add(w2)
                yield w2
                if len(seen) > guard:
                    raise pn.ResourceExceededError(
                        f"equivalence class of {' '.join(word)} exceeds guard {guard}",
                        partial=seen)
                queue.append(w2)


def _until_guard(members):
    """The members yielded, and the guard error's message and partial set."""
    got = []
    try:
        for member in members:
            got.append(member)
    except pn.ResourceExceededError as exc:
        return got, str(exc), exc.partial
    return got, None, None


class TestClassKernel:
    """The class search on the step memo against the replaying reference:
    same members in the same order, the same guard error, and the markings
    it carries are those along each member."""

    CORPUS = [corpus_load(name).net for name in pn.corpus.NET_DOCS]

    def _agrees(self, net, max_len, per_net):
        from persinet.net import _replay
        from persinet.sequences import _class_bfs, _firable_words

        m0 = net.initial
        words = sorted((w for w, _, _ in _firable_words(net, m0, max_len) if w),
                       key=lambda w: (-len(w), w))[:per_net]
        sizes = []
        for word in words:
            want = list(_replayed_class_bfs(net, m0, word, 10 ** 6))
            got = []
            for w, marks in _class_bfs(net, m0, word, 10 ** 6):
                assert marks == _replay(net, m0, w)
                got.append(w)
            assert got == want
            guard = len(want) // 2
            if guard:
                reference = _until_guard(_replayed_class_bfs(net, m0, word, guard))
                memo_kernel = _until_guard(_class_bfs(net, m0, word, guard))
                assert ([w for w, _ in memo_kernel[0]], *memo_kernel[1:]) == reference
                assert reference[1] is not None
            sizes.append(len(want))
        return sizes

    def test_corpus(self):
        sizes = [n for net in self.CORPUS for n in self._agrees(net, 6, 20)]
        assert max(sizes) >= 20 and sum(n > 1 for n in sizes) >= 50

    def test_criterion_10_nets(self):
        sizes = [n for net in TestKernelsAgainstOracle.NETS
                 for n in self._agrees(net, 5, 8)]
        assert sum(n > 1 for n in sizes) >= 300

    def test_perm_spe_against_oracle(self):
        # status, counterexample and searched_count all as the unpruned
        # oracle gives them, on the corpus and the criterion-10 nets
        from persinet.sequences import _all_short_sequences_persistent
        from persinet.theorems import oracle_spe_check

        cases = [(net, 8) for net in self.CORPUS]
        cases += [(net, bound) for net in TestKernelsAgainstOracle.NETS
                  for bound in (4, 6)]
        settled = 0  # holds, with some nonpersistent word settled by its class
        for net, bound in cases:
            fast = spe_check(net, bound, pn.SPE)
            slow = oracle_spe_check(net, bound, pn.SPE)
            assert (fast.status, fast.counterexample, fast.searched_count) == \
                (slow.status, slow.counterexample, slow.searched_count), (net.name, bound)
            settled += not fast.refuted and \
                _all_short_sequences_persistent(net, net.initial, bound) is not None
        assert settled >= 5


def _vector_count(net, max_len):
    """Distinct nonempty Parikh vectors of the firable words up to max_len."""
    from persinet.sequences import _firable_words

    return len({tuple(sorted(parikh(w).items()))
                for w, _, _ in _firable_words(net, net.initial, max_len) if w})


class TestParikhForwardPass:
    """Parikh-mode spe_check decides on vectors in one forward pass; it must
    agree with the unpruned word-level oracle beyond criterion 10's sizes."""

    CORPUS = ("fig1_basic", "fig10_fpe_not_spe", "fig12_spar", "fig4_perslocal",
              "fig14_counterexample")

    def _agrees(self, net, bound):
        from persinet.theorems import oracle_spe_check

        fast = spe_check(net, bound, pn.SPE_PARIKH)
        slow = oracle_spe_check(net, bound, pn.SPE_PARIKH)
        assert (fast.status, fast.counterexample) == (slow.status, slow.counterexample)
        depth = len(fast.counterexample) if fast.refuted else bound
        assert fast.searched_count == _vector_count(net, depth)
        return fast

    def test_corpus_against_oracle(self):
        for name in self.CORPUS:
            net = corpus_load(name).net
            for bound in (6, 7, 8):
                self._agrees(net, bound)
        for name in ("fig1_basic", "fig14_counterexample", "fig10_fpe_not_spe"):
            self._agrees(pn.disjoint_sum(corpus_load(name).net, par(1)), 6)

    def test_random_against_oracle(self):
        statuses = set()
        for s in range(100):
            net = gen_random_net(GenConfig(seed=s, places=4, transitions=4))
            statuses.add(self._agrees(net, 8).status)
        assert statuses == {"holds-up-to-bound", "refuted"}

    def test_fig1_par3_bound_12(self):
        # the word-level search took seconds here; the forward pass visits
        # each of the 2480 vectors once
        net = pn.disjoint_sum(corpus_load("fig1_basic").net, par(3))
        verdict = spe_check(net, 12, pn.SPE_PARIKH)
        assert verdict.status == "holds-up-to-bound"
        assert verdict.searched_count == 2480


class TestDeadVectorMemo:
    def test_none_exists_within_budget(self):
        # fig10 + par3, the vector y b plus one of every par letter: no
        # persistent realisation exists.  Remembering the remaining counts of
        # exhausted prefixes settles this in 80 steps; the word-level search
        # without the memo needs 3410, since it re-explores the dead suffix
        # after every interleaving of the par letters.
        net = pn.disjoint_sum(corpus_load("fig10_fpe_not_spe").net, par(3))
        target = {"y": 1, "b": 1}
        target.update({t: 1 for t in par(3).transitions})
        assert next(_realisations(net, net.initial, target, persistent=True,
                                  node_budget=100), None) is None

    def test_lists_against_oracle(self):
        # long vectors on small nets, plus each with one letter traded for
        # another, which is often not realisable at all: dead prefixes abound
        from persinet.sequences import _firable_words
        from persinet.theorems import _all_with_parikh

        checked = empty = 0
        for s in range(100):
            net = gen_random_net(GenConfig(seed=s, places=3, transitions=3, token_budget=2))
            m0 = net.initial
            vectors = set()
            for w, _, _ in _firable_words(net, m0, 7):
                if len(w) < 6:
                    continue
                counts = parikh(w)
                vectors.add(tuple(sorted(counts.items())))
                for t in counts:
                    for u in net.transitions:
                        if u != t:
                            traded = dict(counts)
                            traded[t] -= 1
                            traded[u] = traded.get(u, 0) + 1
                            vectors.add(tuple(sorted(traded.items())))
            for key in sorted(vectors):
                target = dict(key)
                every = _all_with_parikh(net, m0, target)
                persistent = [w for w in every
                              if sequence_persistence(net, m0, w).persistent]
                assert list(_realisations(net, m0, target)) == every
                assert list(_realisations(net, m0, target, persistent=True)) == persistent
                last = {net.transitions[0]}
                assert list(_realisations(net, m0, target, persistent=True,
                                          forbidden_last=last)) == \
                    [w for w in persistent if w[-1] not in last]
                checked += 1
                empty += not persistent
        assert checked >= 300 and empty >= 200


class TestSharedStepMemo:
    """The searches of one decision share one _steps memo: sharing it must
    change nothing they yield, and every entry must be the marking's true
    steps."""

    def test_realisations_share_one_memo(self):
        from persinet.corpus import corpus_names
        from persinet.sequences import _firable_words, _steps

        nets = [corpus_load(name).net for name in corpus_names()]
        nets = [net for net in nets if net is not None]
        nets += [gen_random_net(GenConfig(seed=s, places=3, transitions=3, token_budget=2))
                 for s in range(150)]
        checked = entries = 0
        for net in nets:
            m0 = net.initial
            targets = sorted({tuple(sorted(parikh(w).items()))
                              for w, _, _ in _firable_words(net, m0, 4) if w})
            last = frozenset(net.transitions[:1])
            modes = [{}, {"persistent": True}, {"forbidden_last": last},
                     {"persistent": True, "forbidden_last": last}]
            memo = {}
            for key in targets:
                for kw in modes:
                    fresh = list(_realisations(net, m0, dict(key), **kw))
                    assert list(_realisations(net, m0, dict(key), memo=memo, **kw)) == fresh
                    checked += 1
            for m, steps in memo.items():
                assert steps == _steps(net, m, {})
            entries += len(memo)
        assert checked > 2500 and entries > 300


class TestPersistentLevels:
    """Perm-mode spe_check on nets whose every word is persistent counts the
    words on markings; the count and the verdict must be the enumeration's."""

    def _agrees(self, net, bound):
        from persinet.sequences import _firable_words, _persistent_levels
        from persinet.theorems import oracle_spe_check

        fast = spe_check(net, bound, pn.SPE)
        slow = oracle_spe_check(net, bound, pn.SPE)
        assert (fast.status, fast.counterexample) == (slow.status, slow.counterexample)
        words = sum(1 for w, _, _ in _firable_words(net, net.initial, bound) if w)
        assert fast.searched_count == words == slow.searched_count
        assert _persistent_levels(net, net.initial, bound) == words

    def test_par(self):
        for k in (1, 2, 3):
            self._agrees(par(k), 6)
        assert spe_check(par(3), 6, pn.SPE).searched_count == sum(3 ** n for n in range(1, 7))

    def test_seeded_persistent_nets(self):
        nets = 0
        for s in range(400):
            net = gen_random_net(GenConfig(seed=s))
            if pn.persistence_check(pn.build_rg(net)[0]).persistent:
                self._agrees(net, 5)
                nets += 1
        assert nets >= 100

    def test_nonpersistent_level_falls_back(self, fig1):
        from persinet.sequences import _all_short_sequences_persistent, _persistent_levels

        # fig1's first nonpersistent step leaves the marking after c d
        assert _persistent_levels(fig1, fig1.initial, 2) == 2 + 4
        assert _persistent_levels(fig1, fig1.initial, 3) is None
        assert _all_short_sequences_persistent(fig1, fig1.initial, 2) is None
        assert _all_short_sequences_persistent(fig1, fig1.initial, 3) == seq("c d a")

    def test_passes_share_one_step_memo(self, monkeypatch):
        # the word and class passes reuse the steps the level pass fired:
        # every marking is expanded once, and the answers are those of
        # separate passes
        from persinet import sequences

        nets = [gen_random_net(GenConfig(seed=s)) for s in range(60)]
        nets.append(corpus_load("fig1_basic").net)  # holds, after class searches

        def calls(net):
            return (lambda: sequences._all_short_sequences_persistent(net, net.initial, 5),
                    lambda: spe_check(net, 5, pn.SPE))

        real = sequences._steps
        expanded = []

        def spy(net, m, memo):
            if m not in memo:
                expanded.append(m)
            return real(net, m, memo)

        fell_back = refuted = settled = 0
        for net in nets:
            want = [call() for call in calls(net)]
            monkeypatch.setattr(sequences, "_steps", spy)
            for call, answer in zip(calls(net), want):
                expanded.clear()
                assert call() == answer
                assert len(expanded) == len(set(expanded))
            monkeypatch.setattr(sequences, "_steps", real)
            # a nonpersistent word below the bound sends spe_check to classes
            fell_back += want[0] is not None
            refuted += want[1].refuted
            settled += want[0] is not None and not want[1].refuted
        assert fell_back >= 20 and refuted >= 10 and settled >= 1

        real = sequences._enabled_i
        for net in nets:
            fresh = [call() for call in calls(net)]
            monkeypatch.setattr(sequences, "_enabled_i",
                                lambda n, m, *a: expanded.append(m) or real(n, m, *a))
            for call, answer in zip(calls(net), fresh):
                expanded.clear()
                assert call() == answer
                assert len(expanded) == len(set(expanded))
            monkeypatch.setattr(sequences, "_enabled_i", real)


def _split(net, bound):
    """Whether perm spe_check splits net: a nonpersistent step below the
    bound, and two or more components."""
    from persinet.net import _components
    from persinet.sequences import _persistent_levels

    return (_persistent_levels(net, net.initial, bound) is None
            and len(_components(net)) > 1)


class TestComponentSplit:
    """Perm-mode spe_check on a net of two or more components searches each
    component that can refute alone and counts searched_count over the whole
    net's markings: status, counterexample and count must be the unpruned
    oracle's on the whole net."""

    @staticmethod
    def _agrees(net, bound):
        from persinet.theorems import oracle_spe_check

        fast = spe_check(net, bound, pn.SPE)
        slow = oracle_spe_check(net, bound, pn.SPE)
        assert (fast.status, fast.counterexample, fast.searched_count) == \
            (slow.status, slow.counterexample, slow.searched_count), (net.name, bound)
        return fast

    def test_generator_sums_against_oracle(self):
        # default-config nets summed with criterion-10 nets, on either side;
        # random nonpersistent components nearly always refute, so every
        # criterion-10 net that holds after a nonpersistent step is also
        # summed with default nets, which gives split sums that hold
        from persinet.sequences import _persistent_levels

        crit = TestKernelsAgainstOracle.NETS
        holding = [net for net in crit
                   if _persistent_levels(net, net.initial, 6) is None
                   and not spe_check(net, 6, pn.SPE).refuted]
        assert holding
        sums = []
        for s in range(150):
            a, b = gen_random_net(GenConfig(seed=s)), crit[s]
            sums.append(pn.disjoint_sum(a, b) if s % 2 else pn.disjoint_sum(b, a))
        for s in range(25):
            a = gen_random_net(GenConfig(seed=s))
            for net in holding:
                sums += [pn.disjoint_sum(net, a), pn.disjoint_sum(a, net)]
        assert len(sums) >= 200
        verdicts = {}
        for net in sums:
            for bound in (4, 6):
                verdict = self._agrees(net, bound)
                if _split(net, bound):
                    verdicts[verdict.status] = verdicts.get(verdict.status, 0) + 1
        assert sum(verdicts.values()) >= 100
        assert min(verdicts.get(k, 0) for k in ("holds-up-to-bound", "refuted")) >= 20

    def test_corpus_with_par2_against_oracle(self):
        statuses = set()
        for name in pn.corpus_names():
            net = corpus_load(name).net
            if net is None:
                continue
            for total in (pn.disjoint_sum(net, par(2)), pn.disjoint_sum(par(2), net)):
                verdict = self._agrees(total, 5)
                if _split(total, 5):
                    statuses.add(verdict.status)
        assert statuses == {"holds-up-to-bound", "refuted"}

    def test_fig1_par3_pinned(self):
        net = pn.disjoint_sum(corpus_load("fig1_basic").net, par(3))
        for bound, words in ((8, 269820), (10, 4298274)):
            verdict = spe_check(net, bound, pn.SPE)
            assert (verdict.status, verdict.searched_count) == ("holds-up-to-bound", words)

    def test_lex_least_of_two_refuting_components(self):
        # fig1 after c refutes with d b; two copies side by side both
        # refute at length 2, and the left copy's word is lex-first
        fig1 = corpus_load("fig1_basic").net
        after_c = Net("fig1c", fig1.places, fig1.transitions, fig1.arcs(),
                      fig1.marking_dict(fire(fig1, fig1.initial, "c")))
        assert spe_check(after_c, 6, pn.SPE).counterexample == seq("d b")
        both = pn.disjoint_sum(after_c, after_c)
        assert self._agrees(both, 4).counterexample == seq("l.d l.b")
        # a shorter counterexample in the later component wins
        fig2 = corpus_load("fig2_confuse").net
        assert spe_check(fig2, 6, pn.SPE).counterexample == seq("x")
        assert self._agrees(pn.disjoint_sum(after_c, fig2), 4).counterexample == seq("x")
        # from other start markings, each restricted to the components, as
        # the unsplit search of the whole net answers
        from persinet.sequences import _firable_words, _perm_search

        for total in (both, pn.disjoint_sum(fig1, after_c)):
            for _, m, _ in _firable_words(total, total.initial, 3):
                verdict = spe_check(total, 4, pn.SPE, m0=m)
                assert (verdict.counterexample, verdict.searched_count) == \
                    _perm_search(total, m, 4, None, {}, split=False)

    def test_sums_expand_each_marking_once(self, monkeypatch):
        # the level and count passes share the whole net's step memo, and
        # each component's search has its own: a marking is expanded at most
        # once per net.  Expansions are keyed by net, since two components
        # can share a marking tuple.
        from persinet import sequences

        nets = [pn.disjoint_sum(gen_random_net(GenConfig(seed=s)),
                                TestKernelsAgainstOracle.NETS[s]) for s in range(40)]
        fig1 = corpus_load("fig1_basic").net
        nets += [pn.disjoint_sum(fig1, par(2)), pn.disjoint_sum(fig1, fig1)]
        real_steps, real_enabled = sequences._steps, sequences._enabled_i
        expanded, alive = [], []

        def spy_steps(net, m, memo):
            if m not in memo:
                alive.append(net)
                expanded.append((id(net), m))
            return real_steps(net, m, memo)

        def spy_enabled(net, m, *a):
            alive.append(net)
            expanded.append((id(net), m))
            return real_enabled(net, m, *a)

        split = 0
        for net in nets:
            want = spe_check(net, 5, pn.SPE)
            split += _split(net, 5)
            for name, spy in (("_steps", spy_steps), ("_enabled_i", spy_enabled)):
                monkeypatch.setattr(sequences, name, spy)
                expanded.clear()
                assert spe_check(net, 5, pn.SPE) == want
                assert len(expanded) == len(set(expanded))
                monkeypatch.undo()
        assert split >= 20


def _outcome(call):
    """What call returns, or its error's type, message, partial set,
    index and place."""
    try:
        return "returns", call()
    except pn.PersinetError as exc:
        return (type(exc), str(exc), getattr(exc, "partial", None),
                getattr(exc, "index", None), getattr(exc, "place", None))


class TestClassByComponents:
    """equivalence_class interleaves the classes of a word's projections
    onto the net's components, and perm_equivalent compares projections:
    both against the whole-word class search on disjoint sums."""

    @staticmethod
    def _sums():
        crit = TestKernelsAgainstOracle.NETS
        sums = []
        for s in range(120):
            a, b = gen_random_net(GenConfig(seed=s)), crit[s]
            sums += [pn.disjoint_sum(a, b), pn.disjoint_sum(b, a)]
        for s in range(60):
            a, b = gen_random_net(GenConfig(seed=300 + s)), crit[120 + s]
            three = [a, b, par(1 + s % 3)]
            rng = random.Random(s)
            rng.shuffle(three)
            sums.append(pn.disjoint_sum(pn.disjoint_sum(three[0], three[1]), three[2]))
        return sums

    @staticmethod
    def _projection_count(net, word):
        from persinet.sequences import _projections

        return len(_projections(net, word)[0])

    def test_sums_against_whole_word_search(self):
        sums = self._sums()
        assert len(sums) >= 200
        rng = random.Random(27)
        split = pairs = 0
        for net in sums:
            m0 = net.initial
            for _ in range(3):
                word = _random_walk(net, rng, 8)
                whole = _whole_class(net, m0, word)
                assert equivalence_class(net, m0, word) == whole, (net.name, word)
                split += self._projection_count(net, word) > 1 and len(whole) > 1
                others = sorted(whole)[:4]
                for _ in range(6):
                    shuffled = list(word)
                    rng.shuffle(shuffled)
                    if pn.firable(net, m0, shuffled):
                        others.append(tuple(shuffled))
                others += [_random_walk(net, rng, len(word)) for _ in range(2)]
                for other in others:
                    assert perm_equivalent(net, m0, word, other) == (other in whole), \
                        (net.name, word, other)
                    pairs += 1
        assert split >= 300 and pairs >= 6000

    def test_guard_and_replay_errors_identical(self):
        rng = random.Random(28)
        guarded = failed = 0
        for net in self._sums():
            m0 = net.initial
            word = _random_walk(net, rng, 8)
            whole = _whole_class(net, m0, word)
            for guard in {len(whole) // 2, len(whole) - 1, len(whole)}:
                if guard < 1:
                    continue
                got = _outcome(lambda: equivalence_class(net, m0, word, guard))
                want = _outcome(lambda: _whole_class(net, m0, word, guard))
                assert got == want, (net.name, word, guard)
                guarded += got[0] is pn.ResourceExceededError and \
                    self._projection_count(net, word) > 1
            disabled = [t for t in net.transitions
                        if not pn.enabled(net, fire_sequence(net, m0, word), t)]
            for bad in [word + (t,) for t in disabled[:2]] + \
                    [word[:1] + ("zz",) + word[1:], word + (["c"],)]:
                got = _outcome(lambda: equivalence_class(net, m0, bad))
                assert got == _outcome(lambda: _whole_class(net, m0, bad)), (net.name, bad)
                assert got[0] in (NotEnabledError, UnknownIdError)
                failed += got[0] is NotEnabledError
        assert guarded >= 200 and failed >= 400

    def test_par_interleavings(self):
        # every interleaving of the a_i b_i pairs: one member per component
        par4 = par(4)
        word = tuple(x for i in range(4) for x in (f"a{i}", f"b{i}"))
        members = equivalence_class(par4, par4.initial, word)
        assert len(members) == 2520 and members == _whole_class(par4, par4.initial, word)
        assert _outcome(lambda: equivalence_class(par4, par4.initial, word, 2519)) == \
            _outcome(lambda: _whole_class(par4, par4.initial, word, 2519))
        # the whole class of 16!/2^8 words exceeds the guard; each
        # projection's class is one word
        par8 = par(8)
        s1 = tuple(x for i in range(8) for x in (f"a{i}", f"b{i}"))
        s2 = tuple(f"a{i}" for i in range(7, -1, -1)) + \
            tuple(f"b{i}" for i in range(7, -1, -1))
        assert perm_equivalent(par8, par8.initial, s1, s2, guard=1)
        # a b c and c b a are not equivalent in fig12_spar, whatever the
        # other component's letters do between them
        spar = pn.disjoint_sum(corpus_load("fig12_spar").net, par8)
        s1 = ("a", "a0", "b", "b0", "c")
        whole = _whole_class(spar, spar.initial, s1)
        for s2, want in ((("c", "b", "a0", "a", "b0"), False),
                         (("a0", "a", "b", "c", "b0"), True)):
            assert perm_equivalent(spar, spar.initial, s1, s2) == (s2 in whole) == want

    def test_long_word(self):
        # 999 letters of one cycle and one of another: 1,000 interleavings,
        # built without recursion
        net = pn.disjoint_sum(Net("onecycle", ["p", "q"], ["a", "b"],
                                  [("p", "a", 1), ("a", "q", 1), ("q", "b", 1),
                                   ("b", "p", 1)], {"p": 1}), par(1))
        word = ("a", "b") * 499 + ("a", "a0")
        members = equivalence_class(net, net.initial, word)
        assert len(members) == 1000 and members == _whole_class(net, net.initial, word)
        assert perm_equivalent(net, net.initial, word, ("a0",) + word[:-1])


class TestSpeCheck:
    def test_fig1_holds(self, fig1):
        for mode in (pn.SPE, pn.SPE_PARIKH):
            assert spe_check(fig1, 8, mode).status == "holds-up-to-bound"

    def test_fig10_refuted(self):
        net = corpus_load("fig10_fpe_not_spe").net
        for mode in (pn.SPE, pn.SPE_PARIKH):
            verdict = spe_check(net, 2, mode)
            assert verdict.refuted
            assert verdict.counterexample == seq("y b")

    def test_fig14_holds_at_ten(self, fig14):
        assert spe_check(fig14, 10, pn.SPE).status == "holds-up-to-bound"

    def test_refutation_stable_under_bigger_bound(self):
        net = corpus_load("fig10_fpe_not_spe").net
        for bound in (2, 3, 4, 5):
            assert spe_check(net, bound, pn.SPE).refuted

    def test_marking_sensitivity(self, fig1):
        # holds from the initial marking, refuted one step later
        m1 = fire(fig1, fig1.initial, "c")
        assert not spe_check(fig1, 8, pn.SPE).refuted
        assert spe_check(fig1, 8, pn.SPE, m0=m1).refuted


class TestCompleteDiamond:
    def test_fig1_closes(self, fig1):
        m4 = complete_diamond(fig1, fig1.initial, "c", "d")
        assert m4 == fire_sequence(fig1, fig1.initial, seq("c d"))
        assert m4 == fire_sequence(fig1, fig1.initial, seq("d c"))

    def test_impure_rejected(self):
        net = corpus_load("fig13_impure_diamond").net
        with pytest.raises(UnsupportedClassError):
            complete_diamond(net, net.initial, "y", "x")

    def test_errors_in_check_order(self, fig1):
        # the marking's shape, then a structural-only net, then y's id, the
        # premises in diamond order, and x's id only once y has fired
        m0 = fig1.initial  # enables c and d; a is enabled after c
        dual = pn.reverse_dual(fig1)
        cases = [
            (fig1, (0,), "zz", "c", InputError,
             "marking has 1 entries, net 'fig1_basic' has 5 places"),
            (fig1, list(m0), "c", "d", InputError,
             "marking must be a tuple of token counts, got list"),
            (dual, (0,), "c", "d", InputError,
             "marking has 1 entries, net 'rd(fig1_basic)' has 4 places"),
            (dual, dual.initial, "zz", "c", UnsupportedClassError,
             "net 'rd(fig1_basic)' is structural-only (reverse dual); "
             "its marking carries no semantics"),
            (fig1, m0, "zz", "c", UnknownIdError, "unknown transition 'zz'"),
            (fig1, m0, "a", "zz", InputError, "premise failed: 'a' is not enabled"),
            (fig1, m0, "c", "zz", UnknownIdError, "unknown transition 'zz'"),
            (fig1, m0, "c", "c", InputError,
             "premise failed: 'c' is not enabled after 'c'"),
            (fig1, m0, "c", "a", InputError, "premise failed: 'a' is not enabled"),
        ]
        for net, m, y, x, kind, message in cases:
            with pytest.raises(kind) as exc:
                complete_diamond(net, m, y, x)
            assert type(exc.value) is kind and str(exc.value) == message

    def test_equal_legs_allowed(self):
        net = Net("two", ["p"], ["t"], [("p", "t", 1)], {"p": 2})
        assert complete_diamond(net, net.initial, "t", "t") == (0,)

    def test_random_pure_plain(self):
        for s in range(60):
            net = gen_random_net(GenConfig(seed=s, token_budget=4,
                                           class_constraint=("pure", "plain")))
            rg, rep = pn.build_rg(net, 2000)
            if rep.status != "bounded":
                continue
            for state in rg.states[:30]:
                m = rg.payload[state]
                for y in rg.enabled_labels(state):
                    after = fire(net, m, y)
                    for x in pn.enabled_transitions(net, after):
                        if pn.enabled(net, m, x):
                            assert complete_diamond(net, m, y, x) == \
                                fire_sequence(net, m, (y, x))


def _diamond_oracle(net, alpha, beta):
    """All (sigma, J) satisfying the unification contract, by brute force."""
    want = parikh(alpha)
    a_n, b_n = alpha[-1], beta[-1]
    want = dict(want)
    want[a_n] -= 1
    want[b_n] -= 1
    from persinet.theorems import _all_with_parikh

    out = []
    for sigma in _all_with_parikh(net, net.initial, {t: n for t, n in want.items() if n}):
        if not sequence_persistence(net, net.initial, sigma).persistent:
            continue
        J = fire_sequence(net, net.initial, sigma)
        if pn.enabled(net, J, a_n) and pn.enabled(net, J, b_n):
            out.append((sigma, J))
    return out


class TestUnify:
    def test_fig1_example(self, fig1):
        sigma, J = unify_parikh_equivalent(fig1, seq("c a d"), seq("d c a"))
        assert sigma == seq("c")
        assert J == (0, 1, 1, 1, 0)  # the marking after c
        assert fire(fig1, J, "a") == fire_sequence(fig1, fig1.initial, seq("c a"))
        assert fire(fig1, J, "d") == fire_sequence(fig1, fig1.initial, seq("c d"))

    def test_base_case(self, fig1):
        sigma, J = unify_parikh_equivalent(fig1, seq("c a d"), seq("c d a"))
        assert sigma == seq("c") and J == (0, 1, 1, 1, 0)

    def test_premise_checked(self, fig1):
        # all sequences of length <= 2 from the initial marking are
        # persistent in fig1, so the checked call goes through
        sigma, _ = unify_parikh_equivalent(fig1, seq("c a d"), seq("d c a"),
                                           check_premises=True)
        assert sequence_persistence(fig1, fig1.initial, sigma).persistent

    def test_premise_violation_reported(self):
        net = corpus_load("fig4_perslocal").net
        # "a" alone is nonpersistent, so premises fail for length-2 inputs
        with pytest.raises(pn.PreconditionError):
            unify_parikh_equivalent(net, seq("a c"), seq("c a"),
                                    check_premises=True)

    def test_input_validation(self, fig1):
        with pytest.raises(InputError):
            unify_parikh_equivalent(fig1, seq("c d"), seq("c d"))  # same last
        with pytest.raises(InputError):
            unify_parikh_equivalent(fig1, seq("c d"), seq("d c a"))  # lengths
        with pytest.raises(UnsupportedClassError):
            impure = corpus_load("fig13_impure_diamond").net
            unify_parikh_equivalent(impure, seq("y x"), seq("x y"))

    def test_degenerate_corner_no_diamond(self):
        # both heads occur only as the other sequence's final letter and no
        # marking realises the diamond: the construction must say so rather
        # than fabricate one
        net = Net("corner", ["p", "q", "s"], ["a", "b", "w"],
                  [("p", "a", 1), ("a", "s", 1),
                   ("q", "b", 1), ("b", "s", 1),
                   ("s", "w", 1)],
                  {"p": 1, "q": 1})
        assert _diamond_oracle(net, seq("a w b"), seq("b w a")) == []
        with pytest.raises(InvariantError):
            unify_parikh_equivalent(net, seq("a w b"), seq("b w a"),
                                    check_premises=True)

    def test_degenerate_corner_with_diamond(self):
        # fully concurrent letters: the degenerate rewrite would erase the
        # target diamond, but the exact fallback finds it
        net = Net("conc", ["p", "q", "r"], ["a", "b", "w"],
                  [("p", "a", 1), ("q", "b", 1), ("r", "w", 1)],
                  {"p": 1, "q": 1, "r": 1})
        sigma, J = unify_parikh_equivalent(net, seq("a w b"), seq("b w a"),
                                           check_premises=True)
        assert sigma == seq("w")
        assert pn.enabled(net, J, "a") and pn.enabled(net, J, "b")

    def test_against_oracle_random(self):
        rng = random.Random(23)
        tried = 0
        for s in range(200):
            net = gen_random_net(GenConfig(seed=s, places=4, transitions=3,
                                           token_budget=3,
                                           class_constraint=("pure", "plain")))
            pairs = _parikh_equal_pairs(net, max_len=5)
            for alpha, beta in pairs[:3]:
                n = len(alpha)
                from persinet.sequences import _all_short_sequences_persistent

                if _all_short_sequences_persistent(net, net.initial, n - 1):
                    continue  # premises fail; contract not applicable
                witnesses = _diamond_oracle(net, alpha, beta)
                tried += 1
                try:
                    sigma, J = unify_parikh_equivalent(net, alpha, beta,
                                                       check_premises=False)
                except (InvariantError, pn.PreconditionError):
                    assert witnesses == [], (net.name, alpha, beta)
                    continue
                assert (sigma, J) in witnesses, (net.name, alpha, beta)
                assert parikh(sigma + (alpha[-1], beta[-1])) == parikh(alpha)
        assert tried >= 30


def _parikh_equal_pairs(net, max_len):
    """Pairs of equal-length firable words, equal Parikh, different last."""
    from persinet import enabled_transitions

    frontier = [((), net.initial)]
    by_parikh = {}
    pairs = []
    for _ in range(max_len):
        nxt = []
        for word, m in frontier:
            for t in enabled_transitions(net, m):
                w2 = word + (t,)
                nxt.append((w2, fire(net, m, t)))
                key = tuple(sorted(parikh(w2).items()))
                for other in by_parikh.get(key, ()):
                    if other[-1] != w2[-1]:
                        pairs.append((other, w2))
                by_parikh.setdefault(key, []).append(w2)
        frontier = nxt
    return pairs
