"""Labelled transition systems, reachability-graph construction with bound
detection, LTS-level properties, and isomorphism of deterministic LTS.

Reachability graphs are built breadth-first in canonical transition order,
so state names M0, M1, ... and all reported witnesses are stable across runs
for a fixed net.  State identity is the full marking vector; there is no
symmetry reduction, which keeps every witness literal and replayable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter, sub
from typing import Optional

from .errors import InputError, UnknownIdError, UnsupportedClassError, env_int
from .net import Net, _enabled_i, _fire_i


def default_max_states() -> int:
    return env_int("PERSINET_MAX_STATES", 100000)


class Lts:
    """A finite labelled transition system with an initial state.

    states and labels keep declaration order; edges are (state, label, state)
    triples.  Reachability graphs additionally carry a marking payload per
    state, and payloads are injective (markings identify states).
    """

    def __init__(self, name, states, labels, edges, initial, payload=None):
        states = tuple(states)
        labels = tuple(labels)
        if len(set(states)) != len(states):
            raise InputError(f"lts '{name}': duplicate state ids")
        if len(set(labels)) != len(labels):
            raise InputError(f"lts '{name}': duplicate label ids")
        state_set, label_set = set(states), set(labels)
        if initial not in state_set:
            raise UnknownIdError(f"lts '{name}': initial state '{initial}' not declared")
        edges = tuple(edges)
        if not _edges_valid(edges, state_set, label_set):
            # name the first offending edge
            seen = set()
            for s, a, s2 in edges:
                if s not in state_set or s2 not in state_set:
                    raise UnknownIdError(f"lts '{name}': edge ({s},{a},{s2}) uses unknown state")
                if a not in label_set:
                    raise UnknownIdError(f"lts '{name}': edge ({s},{a},{s2}) uses unknown label")
                if (s, a, s2) in seen:
                    raise InputError(f"lts '{name}': duplicate edge ({s},{a},{s2})")
                seen.add((s, a, s2))
        if payload is not None:
            if set(payload) != state_set:
                raise InputError(f"lts '{name}': payload must cover exactly the states")
            if len(set(payload.values())) != len(payload):
                raise InputError(f"lts '{name}': state payloads must be injective")

        self.name = name
        self.states = states
        self.labels = labels
        self.edges = edges
        self.initial = initial
        self.payload = dict(payload) if payload is not None else None

        self._succ = {s: {} for s in states}
        for s, a, s2 in edges:
            self._succ[s].setdefault(a, []).append(s2)
        self._pred = None
        self._deterministic = None
        self._next = None
        self._of_payload = None

    def enabled_labels(self, s):
        """Labels with an outgoing edge at s, in label declaration order."""
        out = self._succ[s]
        return tuple(a for a in self.labels if a in out)

    def successors(self, s, a):
        return tuple(self._succ[s].get(a, ()))

    def predecessors(self, s, a):
        return tuple(self._pred_map()[s].get(a, ()))

    def _pred_map(self) -> dict:
        """{state: {label: [sources]}}, built on first use."""
        if self._pred is None:
            pred = {s: {} for s in self.states}
            for s, a, s2 in self.edges:
                pred[s2].setdefault(a, []).append(s)
            self._pred = pred
        return self._pred

    def succ(self, s, a) -> Optional[str]:
        """Unique successor under a, or None; raises if nondeterministic."""
        tgts = self._succ[s].get(a)
        if not tgts:
            return None
        if len(tgts) > 1:
            raise UnsupportedClassError(
                f"lts '{self.name}' is nondeterministic at ({s},{a})")
        return tgts[0]

    def next_states(self) -> dict:
        """The deterministic next-state map {state: {label: target}}, each
        inner dict in label declaration order.  A row is built on its first
        lookup and kept; building one raises UnsupportedClassError if the
        state has two same-labelled outgoing edges."""
        if self._next is None:
            self._next = _NextStates(self.name, self.labels, self._succ)
        return self._next

    def is_label_deterministic(self) -> bool:
        """No state has two same-labelled outgoing or incoming edges."""
        if self._deterministic is None:
            # (state, label) keys of the successor lists number |E| exactly
            # when every list holds one target
            n = len(self.edges)
            self._deterministic = (sum(map(len, self._succ.values())) == n
                                   and len(set(map(itemgetter(2, 1), self.edges))) == n)
        return self._deterministic

    def deadlocks(self):
        return tuple(s for s in self.states if not self._succ[s])

    def state_of_payload(self, value):
        if self.payload is None:
            raise InputError(f"lts '{self.name}' carries no payload")
        if self._of_payload is None:
            self._of_payload = {v: s for s, v in self.payload.items()}
        try:
            return self._of_payload[value]
        except (KeyError, TypeError):
            raise UnknownIdError(f"no state carries payload {value!r}") from None

    def __repr__(self):
        return f"Lts({self.name!r}, |S|={len(self.states)}, |E|={len(self.edges)})"

    def __eq__(self, other):
        # payload is derived data and does not survive printing
        if not isinstance(other, Lts):
            return NotImplemented
        return (self.name == other.name and self.states == other.states
                and self.labels == other.labels and self.edges == other.edges
                and self.initial == other.initial)

    __hash__ = None


class _NextStates(dict):
    """Rows of Lts.next_states, each built on its first lookup.  Holds the
    adjacency, not the Lts, so that no reference cycle delays freeing it."""

    def __init__(self, name, labels, succ):
        super().__init__()
        self._name = name
        self._rank = {a: i for i, a in enumerate(labels)}.__getitem__
        self._succ = succ

    def __missing__(self, s):
        out = self._succ[s]
        row = {}
        for a in sorted(out, key=self._rank):
            tgts = out[a]
            if len(tgts) > 1:
                raise UnsupportedClassError(
                    f"lts '{self._name}' is nondeterministic at ({s},{a})")
            row[a] = tgts[0]
        self[s] = row
        return row


def _edges_valid(edges, state_set, label_set) -> bool:
    """Set-level check: no duplicate edge and only declared ids."""
    if not edges:
        return True
    try:
        if len(set(edges)) != len(edges):
            return False
        sources, labels, targets = zip(*edges)
    except (TypeError, ValueError):
        return False
    return (state_set.issuperset(sources) and state_set.issuperset(targets)
            and label_set.issuperset(labels))


@dataclass
class BoundReport:
    """Outcome of bounded reachability exploration.

    status is "bounded" or "cutoff-reached"; with a cutoff the net is not
    certified bounded and safe/k_bound describe only the explored part.
    """

    status: str
    k_bound: int
    place_bounds: dict
    safe: Optional[bool]
    state_count: int
    edge_count: int
    cutoff: int

    @property
    def bounded(self) -> Optional[bool]:
        return True if self.status == "bounded" else None


def build_rg(net: Net, max_states: Optional[int] = None):
    """Breadth-first reachability graph in canonical transition order.

    Returns (Lts, BoundReport).  States are named M0, M1, ... in discovery
    order and carry their marking as payload.  Exceeding max_states is not
    an error: the report comes back flagged "cutoff-reached".
    """
    net._check_behavioural()
    cutoff = default_max_states() if max_states is None else max_states
    if cutoff < 1:
        raise InputError("max_states must be >= 1")

    index = {net.initial: 0}
    order = [net.initial]
    edges = []
    place_bounds = list(net.initial)
    queue = deque([net.initial])
    truncated = False
    while queue:
        m = queue.popleft()
        for ti in _enabled_i(net, m):
            m2 = _fire_i(net, m, ti)
            if m2 not in index:
                if len(order) >= cutoff:
                    truncated = True
                    continue
                index[m2] = len(order)
                order.append(m2)
                queue.append(m2)
                for pi, n in enumerate(m2):
                    if n > place_bounds[pi]:
                        place_bounds[pi] = n
            edges.append((index[m], ti, index[m2]))

    names = [f"M{i}" for i in range(len(order))]
    lts = Lts(
        name=f"rg({net.name})",
        states=names,
        labels=net.transitions,
        edges=[(names[i], net.transitions[ti], names[j]) for i, ti, j in edges],
        initial=names[0],
        payload={names[i]: order[i] for i in range(len(order))},
    )
    # firing is a function of the marking, and a marking is the unique
    # predecessor of its successor under t (M = M' - C[t]); markings name
    # the states, so the graph is label-deterministic both ways
    lts._deterministic = True
    if truncated:
        report = BoundReport(
            status="cutoff-reached", k_bound=max(place_bounds),
            place_bounds={p: place_bounds[i] for i, p in enumerate(net.places)},
            safe=None, state_count=len(order), edge_count=len(edges), cutoff=cutoff)
    else:
        k = max(place_bounds) if place_bounds else 0
        report = BoundReport(
            status="bounded", k_bound=k,
            place_bounds={p: place_bounds[i] for i, p in enumerate(net.places)},
            safe=(k <= 1), state_count=len(order), edge_count=len(edges),
            cutoff=cutoff)
    return lts, report


@dataclass
class LtsReport:
    finite: bool
    totally_reachable: bool
    deterministic: bool
    deadlocks: tuple


def _parikh_spot_check(lts: Lts, depth: int = 3) -> bool:
    """Bounded check that same-Parikh paths agree on endpoints, both ways.

    Complements the structural per-state label functionality: full
    determinism also forbids same-Parikh paths joining distinct states.
    """
    return (_same_parikh_same_end(lts, lts._succ, depth)
            and _same_parikh_same_end(lts, lts._pred_map(), depth))


def _same_parikh_same_end(lts: Lts, adjacency: dict, depth: int) -> bool:
    """True iff, from every state, the paths of length <= depth along
    adjacency (state -> label -> neighbours) that share a Parikh vector end
    in one state."""
    for start in lts.states:
        frontier = {start: {()}}  # state -> parikh keys reaching it
        seen: dict = {}
        for _ in range(depth):
            nxt: dict = {}
            for s, keys in frontier.items():
                for a, ends in adjacency[s].items():
                    for s2 in ends:
                        for key in keys:
                            k2 = tuple(sorted((*key, a)))
                            prev = seen.get(k2)
                            if prev is None:
                                seen[k2] = s2
                            elif prev != s2:
                                return False
                            nxt.setdefault(s2, set()).add(k2)
            frontier = nxt
    return True


def _state_equation_certificate(lts: Lts) -> bool:
    """True when the payloads are int tuples of one length and every label
    moves them by one fixed displacement vector.

    Then the payload at the end of a path is the payload at its start plus
    the displacements weighted by the path's Parikh vector (the state
    equation M = M0 + C*Parikh(sigma)), and since payloads are injective,
    two paths with one Parikh vector from one state, or into one state,
    end at one state at every depth.
    """
    payload = lts.payload
    if payload is None:
        return False
    width = None
    for v in payload.values():
        if type(v) is not tuple or not all(type(x) is int for x in v):
            return False
        if width is None:
            width = len(v)
        elif len(v) != width:
            return False
    delta = {}
    for s, a, s2 in lts.edges:
        d = tuple(map(sub, payload[s2], payload[s]))
        if delta.setdefault(a, d) != d:
            return False
    return True


def lts_properties(lts: Lts, spot_depth: int = 3) -> LtsReport:
    """Finiteness, total reachability, determinism and deadlocks.

    Determinism combines per-state label functionality (successor and
    predecessor form) with the Parikh formulation: same-Parikh paths from
    one state, or into one state, end at one state.  On an LTS whose
    payloads are int vectors that every label shifts by one fixed
    displacement (reachability graphs: the state equation) that holds at
    every depth and is certified in one pass over the edges.  Any other LTS
    falls back to a spot check of paths up to spot_depth, since deciding
    the full Parikh formulation on arbitrary LTS would be exhaustive.
    """
    seen = {lts.initial}
    queue = deque([lts.initial])
    while queue:
        s = queue.popleft()
        for tgts in lts._succ[s].values():
            for s2 in tgts:
                if s2 not in seen:
                    seen.add(s2)
                    queue.append(s2)
    totally = len(seen) == len(lts.states)
    deterministic = lts.is_label_deterministic() and (
        _state_equation_certificate(lts) or _parikh_spot_check(lts, spot_depth))
    return LtsReport(
        finite=True, totally_reachable=totally, deterministic=deterministic,
        deadlocks=lts.deadlocks())


@dataclass
class PersistenceVerdict:
    persistent: bool
    witness: Optional[tuple] = None  # (state, t, u): u disabled after t

    def __bool__(self):
        return self.persistent


def persistence_check(lts: Lts) -> PersistenceVerdict:
    """Scan for a state where one enabled label disables another.

    Requires a deterministic LTS (reachability graphs always are); the
    common successor closing the diamond is then automatic whenever both
    orders fire, and is verified as an internal sanity condition.
    """
    if not lts.is_label_deterministic():
        raise UnsupportedClassError(
            f"persistence check needs a deterministic LTS, '{lts.name}' is not")
    nxt = lts.next_states()
    for s in lts.states:
        out = nxt[s]
        if len(out) < 2:
            continue
        for t, after_t in out.items():
            after = nxt[after_t]
            for u in out:
                if u != t and u not in after:
                    return PersistenceVerdict(False, (s, t, u))
        pairs = sorted(out.items())
        for i, (t, after_t) in enumerate(pairs):
            after = nxt[after_t]
            for u, after_u in pairs[i + 1:]:
                if after[u] != nxt[after_u][t]:
                    raise UnsupportedClassError(
                        f"lts '{lts.name}' closes a diamond at {s} on two different "
                        f"states; it cannot be a reachability graph")
    return PersistenceVerdict(True, None)


@dataclass
class IsoVerdict:
    isomorphic: bool
    mapping: Optional[dict] = None
    mismatch: Optional[tuple] = None  # (state-of-l1 or None, label or reason)

    def __bool__(self):
        return self.isomorphic


def isomorphic(l1: Lts, l2: Lts) -> IsoVerdict:
    """Bijection between two deterministic, totally reachable LTS.

    Labels must match up to set equality (the bijection is on states only).
    The synchronized traversal from the initial states in sorted label order
    builds the unique candidate; the first divergence is reported.
    """
    for lts in (l1, l2):
        rep = lts_properties(lts)
        if not rep.deterministic:
            raise UnsupportedClassError(f"lts '{lts.name}' is not deterministic")
        if not rep.totally_reachable:
            raise UnsupportedClassError(f"lts '{lts.name}' is not totally reachable")
    if set(l1.labels) != set(l2.labels):
        return IsoVerdict(False, mismatch=(None, "label sets differ"))
    if len(l1.states) != len(l2.states):
        return IsoVerdict(False, mismatch=(None, "state counts differ"))

    nxt1, nxt2 = l1.next_states(), l2.next_states()
    fwd = {l1.initial: l2.initial}
    bwd = {l2.initial: l1.initial}
    queue = deque([(l1.initial, l2.initial)])
    while queue:
        s1, s2 = queue.popleft()
        out1, out2 = nxt1[s1], nxt2[s2]
        if out1.keys() != out2.keys():
            diff = sorted(out1.keys() ^ out2.keys())[0]
            return IsoVerdict(False, mismatch=(s1, diff))
        for a in sorted(out1):
            t1, t2 = out1[a], out2[a]
            if t1 in fwd:
                if fwd[t1] != t2:
                    return IsoVerdict(False, mismatch=(s1, a))
            elif t2 in bwd:
                return IsoVerdict(False, mismatch=(s1, a))
            else:
                fwd[t1] = t2
                bwd[t2] = t1
                queue.append((t1, t2))
    if len(fwd) != len(l1.states):
        # unreachable under total reachability, kept as a guard
        return IsoVerdict(False, mismatch=(None, "state counts differ"))
    return IsoVerdict(True, mapping=fwd)


def bfs_depths(lts: Lts) -> dict:
    """Shortest-path depth of every state from the initial one."""
    depth = {lts.initial: 0}
    queue = deque([lts.initial])
    while queue:
        s = queue.popleft()
        for a in lts.enabled_labels(s):
            for s2 in lts.successors(s, a):
                if s2 not in depth:
                    depth[s2] = depth[s] + 1
                    queue.append(s2)
    return depth


def shortest_path(lts: Lts, target: str) -> tuple:
    """Canonical shortest label path from the initial state to target."""
    parent = {lts.initial: None}
    queue = deque([lts.initial])
    while queue:
        s = queue.popleft()
        if s == target:
            break
        for a in lts.enabled_labels(s):
            for s2 in lts.successors(s, a):
                if s2 not in parent:
                    parent[s2] = (s, a)
                    queue.append(s2)
    if target not in parent:
        raise UnknownIdError(f"state '{target}' unreachable in '{lts.name}'")
    path = []
    cur = target
    while parent[cur] is not None:
        prev, a = parent[cur]
        path.append(a)
        cur = prev
    return tuple(reversed(path))
