"""Reference computations made apart from persinet.

Everything here works on the benchmark's own net representation (`Spec`)
with its own firing rule, so a verdict of the program can be checked
against a computation that shares no code with it.  The functions favour
plainness over speed: they run once per benchmark run (references) or on
small outputs (witness replays, mapping checks), never inside a timed
region.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations


class Mismatch(Exception):
    """A program output disagrees with the reference or a required property."""


def require(cond, msg):
    if not cond:
        raise Mismatch(msg)


class Spec:
    """A marked place/transition net: ids in declaration order, arc weights
    per transition, initial tokens per place."""

    def __init__(self, name, places, transitions, pre, post, init):
        self.name = name
        self.places = list(places)
        self.transitions = list(transitions)
        self.pre = {t: dict(pre.get(t, {})) for t in self.transitions}
        self.post = {t: dict(post.get(t, {})) for t in self.transitions}
        self.init = {p: n for p, n in init.items() if n}
        self.pidx = {p: i for i, p in enumerate(self.places)}
        self._pre_i = {t: [(self.pidx[p], w) for p, w in self.pre[t].items()]
                       for t in self.transitions}
        self._post_i = {t: [(self.pidx[p], w) for p, w in self.post[t].items()]
                        for t in self.transitions}

    def initial(self):
        return tuple(self.init.get(p, 0) for p in self.places)

    def doc(self):
        """The net document persinet parses (declaration order preserved)."""
        out = [f"net {self.name}"]
        for p in self.places:
            n = self.init.get(p, 0)
            out.append(f"place {p} init {n}" if n else f"place {p}")
        out += [f"trans {t}" for t in self.transitions]
        for t in self.transitions:
            for p, w in self.pre[t].items():
                out.append(f"arc {p} -> {t}" + (f" {w}" if w != 1 else ""))
            for p, w in self.post[t].items():
                out.append(f"arc {t} -> {p}" + (f" {w}" if w != 1 else ""))
        return "\n".join(out) + "\n"

    def reordered(self, transitions, name=None):
        """The same net with its transitions declared in another order."""
        require(sorted(transitions) == sorted(self.transitions), "not a reordering")
        return Spec(name or self.name, self.places, transitions, self.pre,
                    self.post, self.init)

    # -- firing rule ------------------------------------------------------

    def enabled(self, m, t):
        return all(m[i] >= w for i, w in self._pre_i[t])

    def enabled_list(self, m):
        return [t for t in self.transitions if self.enabled(m, t)]

    def fire(self, m, t):
        """Successor marking, or None when t is not enabled."""
        if not self.enabled(m, t):
            return None
        out = list(m)
        for i, w in self._pre_i[t]:
            out[i] -= w
        for i, w in self._post_i[t]:
            out[i] += w
        return tuple(out)

    def run(self, word, m=None):
        """Marking after word, or None when some step is not enabled."""
        cur = self.initial() if m is None else m
        for t in word:
            cur = self.fire(cur, t)
            if cur is None:
                return None
        return cur

    def persistent_word(self, word, m=None):
        """Firable and no step disables another enabled transition."""
        cur = self.initial() if m is None else m
        for t in word:
            before = self.enabled_list(cur)
            if t not in before:
                return False
            cur = self.fire(cur, t)
            if any(u != t and not self.enabled(cur, u) for u in before):
                return False
        return True

    def disabling_pair(self, m):
        """First (t, u) with t firing disabling u at m, or None."""
        en = self.enabled_list(m)
        for t in en:
            after = self.fire(m, t)
            for u in en:
                if u != t and not self.enabled(after, u):
                    return t, u
        return None


def parse_doc(text):
    """A Spec from a net document (the line format of persinet's nets)."""
    name, places, transitions, init, arcs = None, [], [], {}, []
    for raw in text.splitlines():
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] == "net":
            name = tok[1]
        elif tok[0] == "place":
            places.append(tok[1])
            if len(tok) == 4:
                init[tok[1]] = int(tok[3])
        elif tok[0] == "trans":
            transitions.append(tok[1])
        elif tok[0] == "arc":
            arcs.append((tok[1], tok[3], int(tok[4]) if len(tok) == 5 else 1))
    pre, post = {}, {}
    place_set = set(places)
    for src, dst, w in arcs:
        if src in place_set:
            pre.setdefault(dst, {})[src] = w
        else:
            post.setdefault(src, {})[dst] = w
    return Spec(name, places, transitions, pre, post, init)


def par_spec(k, prefix, at_q):
    """par_k: k disjoint one-token cycles p_i -a_i-> q_i -b_i-> p_i.

    at_q[i] puts cycle i's token on q_i instead of p_i, which relabels the
    reachability graph without changing its shape.
    """
    places, transitions, pre, post, init = [], [], {}, {}, {}
    for i in range(k):
        p, q, a, b = (f"{prefix}p{i}", f"{prefix}q{i}", f"{prefix}a{i}", f"{prefix}b{i}")
        places += [p, q]
        transitions += [a, b]
        pre[a], post[a] = {p: 1}, {q: 1}
        pre[b], post[b] = {q: 1}, {p: 1}
        init[q if at_q[i] else p] = 1
    return Spec(f"par{k}", places, transitions, pre, post, init)


def par_word(k, prefix, at_q):
    """The interleaved run a0 b0 ... a(k-1) b(k-1), each pair in firable order."""
    out = []
    for i in range(k):
        a, b = f"{prefix}a{i}", f"{prefix}b{i}"
        out += [b, a] if at_q[i] else [a, b]
    return tuple(out)


def sum_spec(name, left, right):
    """Disjoint sum; the two nets must not share ids."""
    clash = (set(left.places) | set(left.transitions)) & \
        (set(right.places) | set(right.transitions))
    require(not clash, f"sum components share ids {sorted(clash)}")
    return Spec(name, left.places + right.places,
                left.transitions + right.transitions,
                {**left.pre, **right.pre}, {**left.post, **right.post},
                {**left.init, **right.init})


def one_cycle_spec():
    return Spec("onecycle", ["p", "q"], ["a", "b"], {"a": {"p": 1}, "b": {"q": 1}},
                {"a": {"q": 1}, "b": {"p": 1}}, {"p": 1})


# -- reachability -------------------------------------------------------------

class Graph:
    """Breadth-first reachability graph in declaration order.

    Markings are numbered in discovery order, so marking i is the state that
    persinet's canonical construction names "M<i>".
    """

    def __init__(self, spec):
        m0 = spec.initial()
        self.index = {m0: 0}
        self.markings = [m0]
        self.edges = []
        queue = deque([m0])
        while queue:
            m = queue.popleft()
            i = self.index[m]
            for t in spec.transitions:
                m2 = spec.fire(m, t)
                if m2 is None:
                    continue
                j = self.index.get(m2)
                if j is None:
                    j = self.index[m2] = len(self.markings)
                    self.markings.append(m2)
                    queue.append(m2)
                self.edges.append((i, t, j))
        sources = {i for i, _, _ in self.edges}
        self.deadlocks = [i for i in range(len(self.markings)) if i not in sources]
        self.nonpersistent = next(
            (i for i, m in enumerate(self.markings) if spec.disabling_pair(m)), None)

    @property
    def persistent(self):
        return self.nonpersistent is None

    def named_edges(self):
        return {(f"M{i}", t, f"M{j}") for i, t, j in self.edges}


def check_rg(rg, report, graph, spec):
    """A persinet reachability graph against the reference exploration."""
    require(report.status == "bounded", f"{spec.name}: status {report.status}")
    require(report.state_count == len(graph.markings) == len(rg.states),
            f"{spec.name}: {report.state_count} states, reference {len(graph.markings)}")
    require(report.edge_count == len(graph.edges) == len(rg.edges),
            f"{spec.name}: {report.edge_count} edges, reference {len(graph.edges)}")
    require(rg.payload[rg.initial] == spec.initial(), f"{spec.name}: wrong initial marking")


def check_persistence(verdict, rg, graph, spec):
    """Verdict agrees with the reference; a witness replays with our rule."""
    require(verdict.persistent == graph.persistent,
            f"{spec.name}: persistent={verdict.persistent}, reference {graph.persistent}")
    if verdict.persistent:
        return
    s, t, u = verdict.witness
    m = rg.payload[s]
    require(m in graph.index, f"{spec.name}: witness marking {m} is not reachable")
    require(spec.enabled(m, t) and spec.enabled(m, u),
            f"{spec.name}: witness {t},{u} not both enabled at {s}")
    require(not spec.enabled(spec.fire(m, t), u),
            f"{spec.name}: firing {t} at {s} does not disable {u}")


def check_same_lts(a, b):
    """What an LTS document records survives printing and parsing back.

    The document has no label declarations, so only the labels used on
    edges come back, in order of first use.
    """
    require(tuple(a.states) == tuple(b.states), "round trip changed the states")
    require(set(b.labels) == {label for _, label, _ in a.edges},
            "round trip changed the labels")
    require(list(a.edges) == list(b.edges), "round trip changed the edges")
    require(a.initial == b.initial, "round trip changed the initial state")


def check_iso_mapping(mapping, rg1, rg2):
    """A state bijection between two graphs of one net preserving every edge.

    Both graphs carry markings of the same places, so the only correct
    mapping sends each state to the state with the same marking.
    """
    require(mapping is not None and len(mapping) == len(rg1.states), "mapping incomplete")
    require(len(set(mapping.values())) == len(rg2.states), "mapping is not a bijection")
    require(mapping[rg1.initial] == rg2.initial, "mapping moves the initial state")
    edges2 = set(rg2.edges)
    require(len(rg1.edges) == len(edges2), "edge counts differ")
    for s, a, s2 in rg1.edges:
        require((mapping[s], a, mapping[s2]) in edges2, f"edge {s} {a} {s2} not preserved")
    for s, s2 in mapping.items():
        require(rg1.payload[s] == rg2.payload[s2], f"{s} mapped to a different marking")


# the two diagnostic patterns, as defined in the paper and persinet's README
PATTERNS = {
    "nonpers": ((("1", "a", "2"), ("1", "b", "3")), (("2", "b"),)),
    "nonDC": ((("s1", "a", "s3"), ("s2", "b", "s5"), ("s4", "a", "s6"),
               ("s4", "b", "s7")),
              (("s1", "b"), ("s2", "a"), ("s6", "b"), ("s7", "a"))),
}


def check_embedding(pattern, emb, edges):
    """Mandatory arcs map onto edges, exclusions onto disabled pairs, and the
    label map is injective.  edges is a set of (state, label, state)."""
    arcs, exclusions = PATTERNS[pattern]
    require(emb is not None, f"no {pattern} embedding")
    sm, lm = emb.state_map, emb.label_map
    require(len(set(lm.values())) == len(lm), "label map fuses labels")
    enabled_pairs = {(s, a) for s, a, _ in edges}
    for s, a, s2 in arcs:
        require((sm[s], lm[a], sm[s2]) in edges, f"arc {s} {a} {s2} maps to no edge")
    for s, a in exclusions:
        require((sm[s], lm[a]) not in enabled_pairs, f"exclusion {s} {a} maps to an edge")


# -- sequences ------------------------------------------------------------------

def perm_class(spec, word):
    """Every firable word reachable from word by firable adjacent swaps."""
    word = tuple(word)
    seen = {word}
    queue = deque([word])
    while queue:
        w = queue.popleft()
        for i in range(len(w) - 1):
            if w[i] == w[i + 1]:
                continue
            w2 = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
            if w2 not in seen and spec.run(w2) is not None:
                seen.add(w2)
                queue.append(w2)
    return seen


def realisations(spec, counts):
    """Every firable word with exactly these letter counts, no pruning."""
    total = sum(counts.values())
    out, word, left = [], [], dict(counts)

    def extend(m):
        if len(word) == total:
            out.append(tuple(word))
            return
        for t in spec.transitions:
            if left.get(t, 0):
                m2 = spec.fire(m, t)
                if m2 is not None:
                    left[t] -= 1
                    word.append(t)
                    extend(m2)
                    word.pop()
                    left[t] += 1

    extend(spec.initial())
    return out


def refutes_spe(spec, word, mode):
    """word is firable, nonpersistent, and has no persistent equivalent:
    none in its permutation class (mode "perm"), none among all firable
    words with its letter counts (mode "parikh")."""
    if spec.run(word) is None or spec.persistent_word(word):
        return False
    if mode == "perm":
        candidates = perm_class(spec, word)
    else:
        candidates = [w for w in set(permutations(word)) if spec.run(w) is not None]
    return not any(spec.persistent_word(w) for w in candidates)


def firable_words(spec, max_len):
    """All firable words of length 1..max_len."""
    out, frontier = [], [((), spec.initial())]
    for _ in range(max_len):
        nxt = []
        for w, m in frontier:
            for t in spec.transitions:
                m2 = spec.fire(m, t)
                if m2 is not None:
                    nxt.append((w + (t,), m2))
        out += [w for w, _ in nxt]
        frontier = nxt
    return out


def spe_holds(spec, max_len, mode):
    """Brute force: no firable word up to max_len refutes SPE."""
    return not any(refutes_spe(spec, w, mode) for w in firable_words(spec, max_len))


def check_spe_counterexample(spec, verdict, mode):
    """A refutation is genuine and no shorter word refutes."""
    cex = verdict.counterexample
    require(verdict.status == "refuted" and cex, f"{spec.name}: expected a refutation")
    require(refutes_spe(spec, cex, mode),
            f"{spec.name}: counterexample {' '.join(cex)} has a persistent equivalent")
    require(spe_holds(spec, len(cex) - 1, mode),
            f"{spec.name}: a shorter counterexample than {' '.join(cex)} exists")


def parikh(word):
    out = {}
    for t in word:
        out[t] = out.get(t, 0) + 1
    return out


# -- generated nets ---------------------------------------------------------------

def spec_of(net):
    """A Spec read off persinet's public accessors of a program-made net."""
    pre, post = {}, {}
    places = set(net.places)
    for src, dst, w in net.arcs():
        if src in places:
            pre.setdefault(dst, {})[src] = w
        else:
            post.setdefault(src, {})[dst] = w
    init = {p: n for p, n in zip(net.places, net.initial)}
    return Spec(net.name, net.places, net.transitions, pre, post, init)


def check_constraints(spec, constraint):
    """The generator's promises: every transition consumes, none produces
    more than it consumes, and each requested structural class holds."""
    for t in spec.transitions:
        require(spec.pre[t], f"{spec.name}: {t} has no input")
        require(sum(spec.post[t].values()) <= sum(spec.pre[t].values()),
                f"{spec.name}: {t} produces more than it consumes")
    want = set(constraint)
    weights = [w for t in spec.transitions for w in (*spec.pre[t].values(),
                                                     *spec.post[t].values())]
    if want & {"plain", "pps", "FC", "DC", "AC"}:
        require(all(w == 1 for w in weights), f"{spec.name}: not plain")
    if want & {"pure", "pps"}:
        require(all(not (set(spec.pre[t]) & set(spec.post[t])) for t in spec.transitions),
                f"{spec.name}: not pure")
    if "CF" in want:
        for p in spec.places:
            consumers = [t for t in spec.transitions if p in spec.pre[t]]
            require(len(consumers) <= 1, f"{spec.name}: {p} has {len(consumers)} consumers")
    if "EC" in want:
        for t in spec.transitions:
            for u in spec.transitions:
                if set(spec.pre[t]) & set(spec.pre[u]):
                    require(spec.pre[t] == spec.pre[u], f"{spec.name}: {t},{u} unequal conflict")
