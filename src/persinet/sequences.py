"""Finite firing sequences: Parikh vectors, per-sequence persistence,
permutation equivalence by adjacent transpositions, bounded SPE deciders,
diamond completion, and unification of Parikh-equivalent sequences.

Sequences are tuples of transition ids.  Two firable sequences are one
permutation apart when swapping two adjacent distinct letters leaves the
sequence firable; the equivalence closure of that relation partitions the
firable sequences of a given length into finite classes, which this module
enumerates explicitly.  Enumeration order is always lexicographic in
transition declaration order, so every "first witness" is deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import Optional, Sequence

from .errors import (
    InputError,
    InvariantError,
    PreconditionError,
    ResourceExceededError,
    UnsupportedClassError,
    env_int,
)
from .net import (
    Marking,
    Net,
    _disabled_by,
    _enabled_i,
    _components,
    _fire_i,
    _may_disable,
    _replay,
    _sub_net,
    classify_structure,
    enabled,
    fire_sequence,
)


def default_class_guard() -> int:
    return env_int("PERSINET_CLASS_GUARD", 10 ** 6)


def parikh(seq: Sequence[str]) -> dict:
    """Occurrence counts per transition; the empty sequence gives {}."""
    counts: dict = {}
    for t in seq:
        counts[t] = counts.get(t, 0) + 1
    return counts


@dataclass
class SeqPersistenceVerdict:
    persistent: bool
    failing_index: Optional[int] = None
    disabled_transition: Optional[str] = None

    def __bool__(self):
        return self.persistent


def sequence_persistence(net: Net, m0: Marking, seq: Sequence[str]) -> SeqPersistenceVerdict:
    """Check that no step of seq disables a distinct enabled transition.

    The failing index is 0-based; replaying that step re-disables the
    reported transition.  Non-firable input is an input error: the whole
    word is replayed before any step is tested.
    """
    seq = tuple(seq)
    return _persistence_along(net, seq, _replay(net, m0, seq))


def _persistence_along(net: Net, seq: tuple, marks: list) -> SeqPersistenceVerdict:
    """The step test of sequence_persistence on marks, the markings along
    seq: no step memo, so it stays a reference independent of _steps."""
    for i, a in enumerate(seq):
        u = _disabled_by(net, _enabled_i(net, marks[i]), net._tidx[a], marks[i + 1])
        if u is not None:
            return SeqPersistenceVerdict(False, failing_index=i,
                                         disabled_transition=net.transitions[u])
    return SeqPersistenceVerdict(True)


# -- the search kernels ----------------------------------------------------------
#
# Every exhaustive search of the package is one of three: the realisations of
# a Parikh vector, the firable words up to a length, and the members of a
# permutation class.  Each yields in canonical order, so a caller's "first"
# answer is the first one yielded.  By the state equation a step's successor
# and its persistence depend only on the marking it leaves, so every search
# (and the Parikh pass of spe_check) expands a marking through _steps alone,
# and the searches of one decision share one _steps memo.  A given word is
# replayed by net._replay alone, and a given lasso by fairness._lasso_marks.
# _disabled_by has one other caller, _persistence_along: it tests each step
# on the markings of one replay and names the transition a step disables;
# sequence_persistence and lasso_persistence answer through it, and
# oracle_spe_check relies on it as a reference independent of _steps.

def _realisations(net, m0, target, persistent=False, forbidden_last=frozenset(),
                  node_budget=None, memo=None):
    """Firable words from m0 with Parikh vector target, lexicographic.

    persistent keeps the words whose every step is persistent, pruning a
    prefix at its first nonpersistent step (every prefix of a persistent
    word is persistent).  No word ends in a letter of forbidden_last.
    node_budget caps the steps tried; exhausting it raises
    ResourceExceededError carrying the partial word reached.  The search
    is an explicit-stack depth-first search, so word length is unbounded.
    memo is a _steps memo.

    Dead vectors are memoised: by the state equation the marking after a
    prefix depends only on its Parikh vector, so whether a prefix has a
    completion depends only on the counts still left.  A prefix exhausted
    without yielding records its remaining counts, and a later prefix with
    the same remaining counts is skipped before its step is counted.  The
    words yielded and their order are unchanged.
    """
    net._check_state(m0)
    memo = {} if memo is None else memo
    names = net.transitions
    left = [0] * len(names)
    for t, n in dict(target).items():
        if n > 0:
            if t not in net._tidx:
                return  # no word uses a letter the net lacks
            left[net._tidx[t]] = n
    total = sum(left)
    if total == 0:
        yield ()
        return
    forbidden = {net._tidx[t] for t in forbidden_last if t in net._tidx}
    steps = 0
    yielded = 0
    dead = set()  # remaining counts from which no completion exists
    word = []
    # per prefix: its untried steps, words yielded before its push
    stack = [(iter(_steps(net, m0, memo).items()), 0)]
    while stack:
        untried, mark = stack[-1]
        step = next(untried, None)
        if step is None:
            stack.pop()
            if word:
                if yielded == mark:
                    dead.add(tuple(left))
                left[word.pop()] += 1
            continue
        ti, (m2, ok) = step
        if not left[ti]:
            continue
        last = len(word) == total - 1
        if last:
            if ti in forbidden:
                continue
        elif dead:
            left[ti] -= 1
            rest = tuple(left)
            left[ti] += 1
            if rest in dead:
                continue
        if node_budget is not None:
            steps += 1
            if steps > node_budget:
                raise ResourceExceededError(
                    f"route search exhausted its {node_budget}-step budget",
                    partial={"word": tuple(names[x] for x in word),
                             "target": dict(target)})
        if persistent and not ok:
            continue
        if last:
            yielded += 1
            yield tuple(names[x] for x in word) + (names[ti],)
            continue
        left[ti] -= 1
        word.append(ti)
        stack.append((iter(_steps(net, m2, memo).items()), yielded))


def _steps(net, m, memo):
    """The steps enabled at m as {transition index: (successor, persistent)}
    in transition order; memo maps each marking already expanded to its
    steps, so callers sharing one memo fire every marking once."""
    out = memo.get(m)
    if out is None:
        before = _enabled_i(net, m)
        out = memo[m] = {}
        for ti in before:
            m2 = _fire_i(net, m, ti)
            out[ti] = (m2, _disabled_by(net, before, ti, m2) is None)
    return out


def _persistent_along(net, word, marks, memo):
    """Whether the firable word, with marks the markings along it, is
    persistent; each step's persistence is read off the _steps memo."""
    index = net._tidx
    return all(_steps(net, m, memo)[index[t]][1] for t, m in zip(word, marks))


def _firable_words(net, m0, max_len, memo=None):
    """Every firable word of length <= max_len from m0 as (word, marking,
    persistent), breadth-first and lexicographic within a length, the empty
    word first.  memo is a _steps memo."""
    memo = {} if memo is None else memo
    names = net.transitions
    frontier = [((), m0, True)]
    yield frontier[0]
    for _ in range(max_len):
        nxt = []
        for word, m, pers in frontier:
            for ti, (m2, ok) in _steps(net, m, memo).items():
                node = (word + (names[ti],), m2, pers and ok)
                yield node
                nxt.append(node)
        frontier = nxt


def _persistent_levels(net, m0, max_len, memo=None):
    """The number of nonempty firable words of length <= max_len from m0
    when every one of them is persistent, else None.

    By the state equation a step's enabling and persistence depend only on
    the marking it leaves, so the pass runs over markings, not words: level
    k maps each marking reached by a word of length k to the number of such
    words.  It returns None at the first level below max_len holding a
    marking with a nonpersistent step, since some word of length at most
    max_len ends in that step.  memo is a _steps memo.
    """
    memo = {} if memo is None else memo
    level = {m0: 1}
    total = 0
    for _ in range(max_len):
        # _next_level's loop with the persistence test inside: a separate
        # test pass cost this pass about 15% on small random nets
        nxt = {}
        for m, n in level.items():
            steps = _steps(net, m, memo).values()
            if not all(ok for _, ok in steps):
                return None
            for m2, _ in steps:
                nxt[m2] = nxt.get(m2, 0) + n
        if not nxt:
            break
        total += sum(nxt.values())
        level = nxt
    return total


def _class_bfs(net, m0, word, guard=None, memo=None):
    """The permutation class of word, breadth-first from word, as (member,
    markings along it); the first member is word itself, replayed (and so
    validated) by _replay.

    By the state equation a transposition of positions i and i+1 changes
    only the marking between them, so a neighbour's markings are its
    parent's with that one entry replaced.  memo is a _steps memo.  A
    member beyond the guard-th (default_class_guard() when guard is None)
    is yielded, then ResourceExceededError is raised carrying the members
    found so far.
    """
    marks = _replay(net, m0, word)
    guard = default_class_guard() if guard is None else guard
    memo = {} if memo is None else memo
    seen = {word}
    queue = deque([(word, marks)])
    yield word, marks
    while queue:
        w, marks = queue.popleft()
        for w2, i, m in _swaps(net, w, marks, memo):
            if w2 not in seen:
                seen.add(w2)
                marks2 = marks.copy()
                marks2[i + 1] = m
                yield w2, marks2
                if len(seen) > guard:
                    raise ResourceExceededError(
                        f"equivalence class of {' '.join(word)} exceeds guard {guard}",
                        partial=seen)
                queue.append((w2, marks2))


def _swaps(net, word, marks, memo):
    """The firable adjacent transpositions of word, as [(neighbour, i, m)]
    in position order: neighbour is word with word[i] and word[i+1]
    swapped, it is firable, and m is the marking between the two swapped
    letters.

    marks are the markings along word.  Only the swapped window needs a
    check: the prefix is untouched and the suffix re-fires from the same
    marking by determinism.  Enabling and successors come from the _steps
    memo.
    """
    index = net._tidx
    out = []
    for i, (a, b, m) in enumerate(zip(word, word[1:], marks)):
        if a != b:
            step = _steps(net, m, memo).get(index[b])
            if step is not None:
                m = step[0]
                if index[a] in _steps(net, m, memo):
                    out.append((word[:i] + (b, a) + word[i + 2:], i, m))
    return out


def equivalence_class(net: Net, m0: Marking, seq: Sequence[str],
                      guard: Optional[int] = None) -> set:
    """The full permutation-equivalence class of seq, as a set of words.

    Classes are finite (fixed multiset of letters); a configurable guard
    caps the exploration and raises ResourceExceededError beyond it.

    The class is built one connected component (net._components) at a
    time.  Transitions of different components share no place, so a
    transposition of adjacent letters of different components always
    fires: each letter is enabled before the pair, since the other changes
    none of its places, and the pair leaves one marking either way.  Such a
    swap leaves every projection w|C onto a component C unchanged, and a
    swap of two letters of C fires in w iff it fires in w|C, since the
    letters of other components change none of C's places; w|C is firable
    from m0 for the same reason.  Hence w' is equivalent to w iff w'|C is
    equivalent to w|C for every C: the projections of a swap sequence from
    w to w' are swap sequences of each w|C, and conversely w is equivalent
    to the concatenation of its projections (cross-component swaps sort it
    by component), in which each block is rewritten by its projection's
    swaps, and then unsorted into w'.  So the class is every interleaving
    of one member of each projection's class, each choice giving a
    distinct word, and its size is the product of those classes' sizes
    times the multinomial coefficient of the projections' lengths.

    seq is replayed first, so an unknown or disabled letter raises what
    the whole-word search raises.  A word within one component is searched
    whole (_class_bfs); otherwise each projection is searched on one step
    memo and the members are interleaved.  A class larger than the guard is
    searched whole, so the guard error (message and partial set) is that of
    the whole-word search.
    """
    seq = tuple(seq)
    _replay(net, m0, seq)
    guard = default_class_guard() if guard is None else guard
    parts, = _projections(net, seq)
    if len(parts) > 1:
        memo = {}
        try:
            classes = [[w for w, _ in _class_bfs(net, m0, part, guard, memo)]
                       for part in parts]
        except ResourceExceededError:  # the whole class is larger still
            pass
        else:
            if _class_size(classes) <= guard:
                words = classes[0]
                for members in classes[1:]:
                    words = _shuffles(words, members)
                return set(words)
    return {w for w, _ in _class_bfs(net, m0, seq, guard)}


def _projections(net, *words):
    """Per firable word, its projections onto the connected components
    whose letters it uses, in component order (_components)."""
    owner = [0] * len(net.transitions)  # transition index -> its component
    for k, (ts, _) in enumerate(_components(net)):
        for ti in ts:
            owner[ti] = k
    index = net._tidx
    out = []
    for word in words:
        parts = {}
        for t in word:
            parts.setdefault(owner[index[t]], []).append(t)
        out.append([tuple(parts[k]) for k in sorted(parts)])
    return out


def _class_size(classes):
    """The number of interleavings of one word from each of classes, whose
    words share one length per class."""
    size = 1
    total = 0
    for members in classes:
        k = len(members[0])
        total += k
        size *= len(members) * comb(total, k)
    return size


def _shuffles(xs, ys):
    """Every interleaving of a word of xs with a word of ys that keeps the
    order of each, as a list.  The words of xs share one length, as do those
    of ys.  Each placement of the shorter word's letters becomes one
    itemgetter over the concatenation of the two words, so the words are
    built without recursion whatever their length."""
    if len(xs[0]) < len(ys[0]):
        xs, ys = ys, xs
    a, b = len(xs[0]), len(ys[0])
    out = []
    for pos in combinations(range(a + b), b):  # where ys' letters go
        gather = []
        prev = 0
        for j, p in enumerate(pos):
            gather.extend(range(prev - j, p - j))
            gather.append(a + j)
            prev = p + 1
        gather.extend(range(prev - b, a))
        pick = itemgetter(*gather)
        out.extend([pick(x + y) for x in xs for y in ys])
    return out


def perm_equivalent(net: Net, m0: Marking, s1: Sequence[str], s2: Sequence[str],
                    guard: Optional[int] = None) -> bool:
    """Whether s2 is reachable from s1 by firable adjacent transpositions.

    Unequal Parikh vectors short-circuit to False (permutation equivalence
    preserves letter counts).  Otherwise s1 and s2 are equivalent iff their
    projections onto every connected component are (the proof is
    equivalence_class's: a transposition across components always fires
    and leaves every projection unchanged).  Each component whose
    projections differ is one class search (_class_bfs) from s1's
    projection, stopped when it meets s2's; the searches share one step
    memo, and the guard bounds each projection's class.
    """
    s1, s2 = tuple(s1), tuple(s2)
    fire_sequence(net, m0, s1)
    fire_sequence(net, m0, s2)
    if parikh(s1) != parikh(s2):
        return False
    if s1 == s2:
        return True
    memo = {}
    return all(p1 == p2 or any(w == p2 for w, _ in _class_bfs(net, m0, p1, guard, memo))
               for p1, p2 in zip(*_projections(net, s1, s2)))


def _lex_key(net, word):
    return tuple(net.transition_index(t) for t in word)


def persistent_perm_equivalent(net: Net, m0: Marking, seq: Sequence[str],
                               guard: Optional[int] = None) -> Optional[tuple]:
    """First persistent member of seq's permutation class, canonical order.

    A persistent input is returned unchanged (identity permutation); the
    class is finite, so None is a definitive no.
    """
    seq = tuple(seq)
    memo = {}
    members = _class_bfs(net, m0, seq, guard, memo)
    w, marks = next(members)  # seq itself
    if _persistent_along(net, w, marks, memo):
        return seq
    best = None
    for w, marks in members:
        if _persistent_along(net, w, marks, memo):
            if best is None or _lex_key(net, w) < _lex_key(net, best):
                best = w
    return best


def persistent_parikh_equivalent(net: Net, m0: Marking, target) -> Optional[tuple]:
    """First persistent firable sequence with the given Parikh vector.

    Depth-first search in canonical transition order with remaining-budget
    pruning; prefixes that are already nonpersistent are cut, which is sound
    because every prefix of a persistent sequence is persistent.  Returns
    None when the (finite) search space is exhausted.
    """
    target = dict(target)
    for t, n in target.items():
        net.transition_index(t)
        if n < 0:
            raise InputError("Parikh vector entries must be naturals")
    return next(_realisations(net, m0, target, persistent=True), None)


@dataclass
class SpeVerdict:
    """Outcome of a bounded check that nonpersistent sequences are permutable.

    mode "perm" demands a persistent permutation equivalent, mode "parikh" a
    persistent Parikh equivalent.  A refutation is exact (classes are
    finite); holds-up-to-bound is evidence relative to the bound only.
    """

    mode: str
    bound: int
    status: str  # "holds-up-to-bound" | "refuted"
    counterexample: Optional[tuple] = None
    searched_count: int = 0

    @property
    def refuted(self):
        return self.status == "refuted"


SPE = "perm"
SPE_PARIKH = "parikh"


def spe_check(net: Net, bound: int, mode: str = SPE,
              m0: Optional[Marking] = None,
              guard: Optional[int] = None) -> SpeVerdict:
    """Search firing sequences of length <= bound for one that cannot be
    rewritten into a persistent equivalent.

    The reported counterexample is the shortest, lexicographically first
    refuting sequence.  The start marking is an explicit parameter: the
    property is marking-sensitive and does not transfer to successors.

    Mode "perm" first counts the firable words level by level over
    markings (_persistent_levels); when no marking reached in fewer than
    bound steps has a nonpersistent step, every word is persistent and the
    check holds, searched_count being the number of nonempty words.
    Otherwise, on a connected net, it enumerates sequences breadth-first
    and exhausts whole permutation classes (memoised, so each class is
    settled once), and searched_count is the number of nonempty words
    visited.  The level, word and class passes read one step memo
    (_steps), so each marking is expanded once per check, and a class
    member's swaps and persistence are read off it instead of replaying
    the member.

    A net of two or more connected components (net._components) is
    searched one component at a time.  Transitions of different components
    share no place, so neither can disable the other, and adjacent letters
    of different components always swap.  Hence a word w has a persistent
    permutation equivalent iff each projection w|C onto a component C has
    one in C's sub-net: the projections of a swap sequence from w to a
    persistent v are swap sequences from each w|C to the persistent v|C,
    and conversely the persistent equivalents of the projections,
    concatenated, are persistent and equivalent to w.  So if w refutes,
    some w|C refutes, and w|C is itself a word of the net, no longer than
    w; the shortest counterexamples therefore use the letters of one
    component only, and a one-component word refutes in the net iff it
    refutes in its component.  Restriction keeps the transition order, so
    lex order within a component is the net's.  Each component with a
    nonempty may-disable row (the others have only persistent steps) is
    searched as above on its sub-net, marked by the start marking
    restricted to its places, with the same guard, and each later one up
    to the length of the best counterexample so far; the verdict is the
    least counterexample by (length, lex order), or holds.  searched_count
    is the same number the enumeration of the whole net gives, counted
    over its markings on the one step memo (_shortlex_rank): the words up
    to the bound, or the words shortlex-before the counterexample plus
    one.  The guard therefore bounds the classes of each component's
    search, not those of the whole net.  Mode
    "parikh" exploits that the answer depends on the Parikh vector alone:
    by the state equation the marking after a sequence depends only on its
    vector, and so does whether a step from there is persistent.  One
    forward pass builds the reachable vectors level by level, each with its
    marking M(v).  v+e_t has a persistent realisation iff v has one, t is
    enabled at M(v) and that step is persistent; a level refutes with its
    vectors that have none, so every vector of the levels before has one,
    and a vector has one iff some step into it is persistent.  Every
    realisation of a refuting vector is a counterexample, the canonical one
    being reported; the pass and that search read one _steps memo.
    searched_count is the number of nonempty vectors visited.
    """
    if mode not in (SPE, SPE_PARIKH):
        raise InputError(f"unknown mode '{mode}' (want '{SPE}' or '{SPE_PARIKH}')")
    if bound < 1:
        raise InputError("bound must be >= 1")
    start = net.initial if m0 is None else m0
    net._check_state(start)
    searched = 0
    memo = {}  # one _steps memo for every pass of the check

    if mode == SPE_PARIKH:
        names = net.transitions
        frontier = {(0,) * len(names): start}  # reachable vector -> marking
        for _ in range(bound):
            nxt = {}
            good = set()  # the vectors entered by some persistent step
            for v, m in frontier.items():
                for ti, (m2, ok) in _steps(net, m, memo).items():
                    v2 = v[:ti] + (v[ti] + 1,) + v[ti + 1:]
                    nxt[v2] = m2
                    if ok:
                        good.add(v2)
            searched += len(nxt)
            bad = [v for v in nxt if v not in good]
            if bad:
                witness = min((next(_realisations(
                    net, start, {names[i]: n for i, n in enumerate(v) if n}, memo=memo))
                    for v in bad), key=lambda w: _lex_key(net, w))
                return SpeVerdict(mode, bound, "refuted", witness, searched)
            frontier = nxt
            if not frontier:
                break
        return SpeVerdict(mode, bound, "holds-up-to-bound", None, searched)

    word, searched = _perm_search(net, start, bound, guard, memo)
    if word is None:
        return SpeVerdict(mode, bound, "holds-up-to-bound", None, searched)
    return SpeVerdict(mode, bound, "refuted", word, searched)


def _perm_search(net, start, bound, guard, memo, split=True):
    """Perm-mode spe_check from start: (its counterexample or None, its
    searched_count).  split=False searches the net whole, as each
    component's sub-net is searched: a component is connected."""
    count = _persistent_levels(net, start, bound, memo)
    if count is not None:
        return None, count
    parts = _conflicting_parts(net, start) if split else None
    if parts is not None:
        best = None
        for sub in parts:
            w, _ = _perm_search(sub, sub.initial, bound if best is None else len(best),
                                guard, {}, split=False)
            if w is not None and (best is None or (len(w), _lex_key(net, w))
                                  < (len(best), _lex_key(net, best))):
                best = w
        return best, _shortlex_rank(net, start, bound, memo, best)
    searched = 0
    settled_words = set()  # class members already known to have an equivalent
    words = _firable_words(net, start, bound, memo)
    next(words)  # the empty word
    for w2, _, pers in words:
        searched += 1
        if pers or w2 in settled_words:
            continue
        members = []
        good = False
        for w, marks in _class_bfs(net, start, w2, guard, memo):
            members.append(w)
            good = good or _persistent_along(net, w, marks, memo)
        if not good:
            return w2, searched
        settled_words.update(members)
    return None, searched


def _conflicting_parts(net, m):
    """The sub-nets, marked by m, of the components of a net with two or
    more that can refute, in component order; None on a connected net.  A
    component none of whose transitions can disable another (every
    may-disable row empty) has only persistent steps, and gets no sub-net."""
    components = _components(net)
    if len(components) < 2:
        return None
    table = _may_disable(net)
    return [_sub_net(net, ts, ps, m) for ts, ps in components
            if any(table[ti] for ti in ts)]


def _next_level(net, level, memo):
    """The level after level, a map from markings to word counts: each
    successor marking gets the counts of the markings stepping into it."""
    nxt = {}
    for m, n in level.items():
        for m2, _ in _steps(net, m, memo).values():
            nxt[m2] = nxt.get(m2, 0) + n
    return nxt


def _shortlex_rank(net, m0, max_len, memo, word=None):
    """The number of nonempty firable words from m0 up to and including
    word in shortlex order (by length, then lexicographically); with no
    word, those of length <= max_len.

    The count runs over markings, as _persistent_levels does: the words of
    each length shorter than word's, then the words of its length that are
    lex-before it.  Such a word first differs from word at some position i
    with a smaller letter x there, so below maps each marking at depth i+1
    to the number of those words' prefixes reaching it: one more for each
    x < word[i] enabled after word[:i], carried on by _next_level.
    """
    depth = max_len if word is None else len(word) - 1
    level = {m0: 1}
    total = 0
    for _ in range(depth):
        level = _next_level(net, level, memo)
        total += sum(level.values())
    if word is None:
        return total
    index = net._tidx
    below = {}
    m = m0
    for t in word:
        below = _next_level(net, below, memo)
        steps = _steps(net, m, memo)
        ti = index[t]
        for x, (m2, _) in steps.items():
            if x >= ti:
                break
            below[m2] = below.get(m2, 0) + 1
        m = steps[ti][0]
    return total + sum(below.values()) + 1


# -- diamonds and unification --------------------------------------------------

def complete_diamond(net: Net, m: Marking, y: str, x: str) -> Marking:
    """Close a three-quarter diamond m -y-> m'' -x-> M^ with m -x-> m'.

    For pure plain nets the missing edge m' -y-> M^ always exists; its
    absence on such a net is an internal invariant failure.  Impure or
    non-plain nets are rejected: a side condition can consume and return
    the very token the diamond argument counts on.
    """
    report = classify_structure(net)
    if not report.plain or not report.pure:
        raise UnsupportedClassError(
            "diamond completion needs a pure, plain net "
            f"('{net.name}' is{' not plain' if not report.plain else ''}"
            f"{' not pure' if not report.pure else ''})")
    net._check_marking(m)
    net._check_behavioural()
    yi = net.transition_index(y)
    m_via_y = _fire_i(net, m, yi)
    if m_via_y is None:
        raise InputError(f"premise failed: '{y}' is not enabled")
    xi = net.transition_index(x)
    m_via_yx = _fire_i(net, m_via_y, xi)
    if m_via_yx is None:
        raise InputError(f"premise failed: '{x}' is not enabled after '{y}'")
    m_via_x = _fire_i(net, m, xi)
    if m_via_x is None:
        raise InputError(f"premise failed: '{x}' is not enabled")
    hat = _fire_i(net, m_via_x, yi)
    if hat is None:
        raise InvariantError(
            f"diamond completion failed on a pure plain net at {m} with "
            f"y='{y}', x='{x}'")
    if hat != m_via_yx:
        raise InvariantError("diamond corners disagree; firing rule broken")
    return hat


def _move_back(net, m0, word, src: int, dst: int):
    """Commute word[src] backwards to position dst via diamond completions.

    Every intermediate swap is validated by complete_diamond, so the result
    is firable and one-permutation-per-step equivalent to the input.
    """
    w = list(word)
    letter = w[src]
    marks = _replay(net, m0, w[:src - 1])  # the swaps leave w[:i - 1] alone
    for i in range(src, dst, -1):
        complete_diamond(net, marks[i - 1], w[i - 1], letter)
        w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def _all_short_sequences_persistent(net, m0, max_len):
    """The first nonpersistent firable word up to max_len, or None."""
    memo = {}  # one _steps memo for both passes
    if _persistent_levels(net, m0, max_len, memo) is not None:
        return None
    return next((w for w, _, pers in _firable_words(net, m0, max_len, memo)
                 if not pers), None)


def unify_parikh_equivalent(net: Net, alpha: Sequence[str], beta: Sequence[str],
                            check_premises: Optional[bool] = None):
    """Permute two Parikh-equivalent sequences onto a common final diamond.

    Both sequences have length n, equal Parikh vectors and different last
    letters; provided the net is pure and plain and every firing sequence of
    length <= n-1 is persistent, there is a marking J reachable by a
    persistent sequence sigma of length n-2 such that J enables both last
    letters and sigma plus the two last letters is Parikh-equal to alpha.

    The construction works by locating, after the longest common prefix, the
    first occurrence of alpha's next letter inside beta and commuting it
    backwards one diamond at a time, which strictly grows the common prefix;
    when that occurrence is beta's own last letter the move would change the
    target diamond, so the roles flip and alpha is rewritten instead.  If
    both rewrites degenerate this way the diamond is pinned down directly by
    an exact search over sequences with the required Parikh vector: for that
    corner case a witness is not always guaranteed to exist, and its absence
    raises an invariant error carrying the instance.

    check_premises defaults to on for n <= 8 (the verification enumerates
    every short sequence and is exponential).  Returns (sigma, J).
    """
    alpha, beta = tuple(alpha), tuple(beta)
    n = len(alpha)
    report = classify_structure(net)
    if not report.plain or not report.pure:
        raise UnsupportedClassError("sequence unification needs a pure, plain net")
    if len(beta) != n:
        raise InputError("sequences must have equal length")
    if n < 2:
        raise InputError("sequences must have length >= 2")
    if parikh(alpha) != parikh(beta):
        raise InputError("sequences must be Parikh-equivalent")
    if alpha[-1] == beta[-1]:
        raise InputError("last letters must differ")
    m0 = net.initial
    fire_sequence(net, m0, alpha)
    fire_sequence(net, m0, beta)

    if check_premises is None:
        check_premises = n <= 8
    if check_premises:
        bad = _all_short_sequences_persistent(net, m0, n - 1)
        if bad is not None:
            raise PreconditionError(
                f"premise failed: sequence {' '.join(bad)} of length {len(bad)} "
                f"is firable but not persistent")

    def fail(msg):
        if check_premises:
            return InvariantError(msg)
        return PreconditionError(msg + " (premises were not verified; they may not hold)")

    def move_back(word, src, dst):
        try:
            return _move_back(net, m0, word, src, dst)
        except InputError as exc:
            # the commuted letter must stay enabled while moving; it can only
            # lose enabledness if some short sequence is nonpersistent
            raise fail(f"diamond move failed: {exc}") from None

    a_n, b_n = alpha[-1], beta[-1]
    while True:
        m = 0
        while m < n and alpha[m] == beta[m]:
            m += 1
        if m == n:
            raise InvariantError("sequences became identical during unification")
        if m == n - 2:
            break
        head_a = alpha[m]
        j = next((k for k in range(m + 1, n) if beta[k] == head_a), None)
        if j is None:
            raise InvariantError("Parikh equality violated during unification")
        if j < n - 1:
            beta = move_back(beta, j, m)
            continue
        head_b = beta[m]
        i = next((k for k in range(m + 1, n) if alpha[k] == head_b), None)
        if i is None:
            raise InvariantError("Parikh equality violated during unification")
        if i < n - 1:
            alpha = move_back(alpha, i, m)
            continue
        # Doubly degenerate: each head's only later occurrence is the other
        # sequence's final letter.  Fall back to the exact search.
        want = parikh(alpha)
        want[a_n] -= 1
        want[b_n] -= 1
        sigma = persistent_parikh_equivalent(net, m0, want)
        if sigma is None:
            raise fail(
                "no unifying diamond exists: no persistent sequence realises "
                f"the required Parikh vector {want}")
        J = fire_sequence(net, m0, sigma)
        if not (enabled(net, J, a_n) and enabled(net, J, b_n)):
            raise fail(
                f"no unifying diamond exists: marking {J} does not enable both "
                f"'{a_n}' and '{b_n}'")
        return sigma, J

    sigma = alpha[:n - 2]
    J = fire_sequence(net, m0, sigma)
    # base case: last two letters are crossed, both legs fire from J
    if alpha[n - 2] != b_n or beta[n - 2] != a_n:
        raise InvariantError("base case letters are not crossed")
    if not (enabled(net, J, a_n) and enabled(net, J, b_n)):
        raise InvariantError("base case marking does not span the diamond")
    verdict = sequence_persistence(net, m0, sigma)
    if not verdict.persistent:
        raise fail(
            f"unifying prefix {' '.join(sigma)} is not persistent "
            f"(fails at step {verdict.failing_index})")
    return sigma, J
