"""Labelled transition systems, reachability-graph construction with bound
detection, LTS-level properties, and isomorphism of deterministic LTS.

Reachability graphs are built breadth-first in canonical transition order,
so state names M0, M1, ... and all reported witnesses are stable across runs
for a fixed net.  State identity is the full marking vector; there is no
symmetry reduction, which keeps every witness literal and replayable.  On
nets with _PACKED_PLACES places or more the search looks a marking up by
one packed integer, b bits a place: firing t adds t's incidence column to
the marking (the state equation), so a successor's key is its parent's
plus t's incidence key.  b is the bit length of max(M0) + max_states * w,
w the largest output weight.  That width is exact: a looked-up marking is
at most max_states steps from M0 and a step adds at most w tokens to a
place, so distinct markings get distinct keys.

An Lts holds one adjacency, its index rows (state index -> label index ->
target indices).  The constructor builds them in the pass that validates
the edges it is given.  build_rg fills them during its search, and
textio.parse_lts while the edges of a document arrive in row order, and
both hand them to Lts._of_rows, which validates nothing; such an LTS's
edges are projected from the rows when first read.  Every analysis here,
the pattern search and the probe search read the rows, and map indices
back to names only for their answers.

persistence_check reads what the net's structure proves on a complete
reachability graph: firing t can disable u only if t removes tokens from a
place of u's preset (net._may_disable), so only those pairs are tested,
and build_rg's state equation closes every diamond, so none is checked.
The table is built once the pairwise scan has paid about its cost, so tiny
graphs never build it; any LTS not made by build_rg gets the full pairwise
scan.  On a graph cut off at its state budget the scan tests a pair only
where firing t leads to a state that kept all its edges, since a state
that lost one shows the dropped label as disabled.  A witness found there
is exact and replays by the firing rule; without one the check raises
ResourceExceededError, naming the graph and its budget, and never answers
"persistent".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (InputError, ResourceExceededError, UnknownIdError,
                     UnsupportedClassError, env_int)
from .net import Net, _enabled_i, _fire_i, _may_disable, _numbered


def default_max_states() -> int:
    return env_int("PERSINET_MAX_STATES", 100000)


class Lts:
    """A finite labelled transition system with an initial state.

    states and labels keep declaration order; edges, a read-only property,
    are (state, label, state) triples.  Reachability graphs additionally
    carry a marking payload per state, and payloads are injective
    (markings identify states).

    Every analysis reads one adjacency, the index rows: per state index a
    dict {label index: (target indices)}, labels in declaration order and
    targets in edge order.  The rows come from one of two constructors.
    Lts(...) builds them in the one pass over the edges that also
    validates them, so the edge in hand when an id lookup fails is the
    first offender, and keeps the edges as given.  Lts._of_rows takes
    rows that their maker already knows to be valid, checks nothing and
    keeps no edge triples: build_rg's, made during its search, and
    textio.parse_lts's, filled while a document's edges arrive in row
    order, after every state and label they use.  A document out of that
    order goes to Lts(...), so the edges of a parsed LTS are validated by
    the constructor or by the parse itself.  Both end in _finish.  The
    edges of an LTS made from rows are projected from them when first
    read (_projected), and print_lts and emit_dot read that projection
    without keeping it.  The reverse rows {label index: [source indices]},
    sources in state order, are derived from the rows only when
    predecessors are asked for.  The name-level accessors below are
    projections of the rows.
    """

    def __init__(self, name, states, labels, edges, initial, payload=None):
        states = tuple(states)
        labels = tuple(labels)
        sidx = _id_index(name, "state", states)
        lidx = _id_index(name, "label", labels)
        if initial not in states:  # a scan, so an unhashable id is just unknown
            raise UnknownIdError(f"lts '{name}': initial state '{initial}' not declared")
        edges = tuple(edges)
        rows = [{} for _ in states]
        last = [-1] * len(states)  # the last label index added to each row
        unsorted = set()  # rows that received a label before a larger one
        try:
            for e in edges:
                s, a, s2 = e
                i, j, ai = sidx[s], sidx[s2], lidx[a]
                row = rows[i]
                if ai not in row:
                    row[ai] = (j,)
                    if ai < last[i]:
                        unsorted.add(i)
                    last[i] = ai
                elif j in row[ai]:
                    raise InputError(f"lts '{name}': duplicate edge ({s},{a},{s2})")
                else:
                    row[ai] += (j,)
        except (KeyError, TypeError, ValueError):
            try:
                s, a, s2 = e
                what = "label" if s in sidx and s2 in sidx else "state"
            except (TypeError, ValueError):
                raise InputError(
                    f"lts '{name}': edge {e!r} is not a triple of hashable ids") from None
            raise UnknownIdError(
                f"lts '{name}': edge ({s},{a},{s2}) uses unknown {what}") from None
        for i in unsorted:
            rows[i] = dict(sorted(rows[i].items()))
        of_payload = None
        if payload is not None:
            if payload.keys() != sidx.keys():
                raise InputError(f"lts '{name}': payload must cover exactly the states")
            try:
                of_payload = {v: s for s, v in payload.items()}
            except TypeError:
                raise InputError(f"lts '{name}': state payloads must be hashable") from None
            if len(of_payload) != len(payload):
                raise InputError(f"lts '{name}': state payloads must be injective")
            payload = dict(payload)
        self._finish(name, states, labels, rows, initial, payload, sidx, lidx,
                     edges, of_payload)

    @classmethod
    def _of_rows(cls, name, states, labels, rows, initial, payload) -> "Lts":
        """The LTS of index rows rows over the tuples states and labels,
        which it keeps as given, as it keeps payload.  Its edges are
        projected from the rows on first read.

        Nothing is validated: ids must be distinct and hashable, initial one
        of states, every row a dict {label index: (target indices)} with its
        labels in increasing order and its targets distinct, and payload
        None or an injective map over exactly the states.  So only code
        that builds such rows itself may call it: build_rg, and
        textio.parse_lts on a document whose edges arrive in row order.
        """
        lts = cls.__new__(cls)
        lts._finish(name, states, labels, rows, initial, payload,
                    dict(zip(states, range(len(states)))),
                    dict(zip(labels, range(len(labels)))))
        return lts

    def _finish(self, name, states, labels, rows, initial, payload, sidx, lidx,
                edges=None, of_payload=None):
        """Store a valid LTS's parts: the one place where its attributes and
        the caches derived on demand are set up.  edges and of_payload, when
        None, are derived from the rows and the payload on first use."""
        self.name = name
        self.states = states
        self.labels = labels
        self.initial = initial
        self.payload = payload

        self._state_index = sidx
        self._label_index = lidx
        self._rows = rows
        self._edges = edges
        self._of_payload = of_payload  # payload -> state
        self._rev = None
        self._tree = None
        self._deterministic = None
        self._parikh_deterministic = False  # same-Parikh paths meet, at any depth
        self._net = None  # the net whose complete reachability graph this is
        self._cut = None  # build_rg: state indices that lost an edge to its budget

    @property
    def edges(self) -> tuple:
        """The (state, label, state) triples: as given to the constructor,
        or, for an LTS made from its rows, projected from them in state
        order, then label order, then target order, and kept."""
        if self._edges is None:
            self._edges = tuple(self._edge_iter())
        return self._edges

    def _edge_iter(self):
        """The triples of edges, one at a time, for a caller that reads
        each once: a projection of the rows is not kept."""
        if self._edges is not None:
            return iter(self._edges)
        return _projected(self.states, self.labels, self._rows)

    def _edge_count(self) -> int:
        return sum([len(tgts) for row in self._rows for tgts in row.values()])

    def _reverse_rows(self) -> list:
        if self._rev is None:
            rev = self._rev = [{} for _ in self.states]
            for i, row in enumerate(self._rows):
                for a, tgts in row.items():
                    for j in tgts:
                        rev[j].setdefault(a, []).append(i)
        return self._rev

    def _state_i(self, s) -> int:
        try:
            return self._state_index[s]
        except (KeyError, TypeError):  # a TypeError: s is unhashable
            raise UnknownIdError(f"lts '{self.name}': unknown state '{s}'") from None

    def _project(self, rows, s, a) -> tuple:
        i = self._state_i(s)
        try:
            ai = self._label_index.get(a)
        except TypeError:  # a is unhashable, so no label: like an unknown one
            return ()
        states = self.states
        return tuple(states[j] for j in rows[i].get(ai, ()))

    def enabled_labels(self, s):
        """Labels with an outgoing edge at s, in label declaration order."""
        labels = self.labels
        return tuple(labels[a] for a in self._rows[self._state_i(s)])

    def successors(self, s, a):
        return self._project(self._rows, s, a)

    def predecessors(self, s, a):
        return self._project(self._reverse_rows(), s, a)

    def succ(self, s, a) -> Optional[str]:
        """Unique successor under a, or None; raises if nondeterministic."""
        tgts = self.successors(s, a)
        if not tgts:
            return None
        if len(tgts) > 1:
            raise UnsupportedClassError(
                f"lts '{self.name}' is nondeterministic at ({s},{a})")
        return tgts[0]

    def next_states(self) -> dict:
        """The deterministic next-state map {state: {label: target}}, each
        inner dict in label declaration order.  Raises UnsupportedClassError
        naming the first state with two same-labelled outgoing edges."""
        states, labels = self.states, self.labels
        out = {}
        for s, row in zip(states, self._rows):
            nxt = out[s] = {}
            for a, tgts in row.items():
                if len(tgts) > 1:
                    raise UnsupportedClassError(
                        f"lts '{self.name}' is nondeterministic at ({s},{labels[a]})")
                nxt[labels[a]] = states[tgts[0]]
        return out

    def is_label_deterministic(self) -> bool:
        """No state has two same-labelled outgoing or incoming edges."""
        if self._deterministic is None:
            # (state, label) keys of the rows number |E| exactly when every
            # row entry holds one target; then the (target, label) pairs
            # must number |E| too
            rows = self._rows
            n = sum(map(len, rows))
            self._deterministic = n == self._edge_count() and n == len(
                {(tgts[0], a) for row in rows for a, tgts in row.items()})
        return self._deterministic

    def deadlocks(self):
        """States with no outgoing edge, leaving out those of a reachability
        graph whose edges into undiscovered states its budget dropped."""
        cut = self._cut or ()
        return tuple(s for i, (s, row) in enumerate(zip(self.states, self._rows))
                     if not row and i not in cut)

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
        return f"Lts({self.name!r}, |S|={len(self.states)}, |E|={self._edge_count()})"

    def __eq__(self, other):
        # payload is derived data and does not survive printing
        if not isinstance(other, Lts):
            return NotImplemented
        if not (self.name == other.name and self.states == other.states
                and self.labels == other.labels and self.initial == other.initial):
            return False
        if self._edges is None and other._edges is None:
            # both were made by _of_rows, whose rows (lists, one dict per
            # state) hold their labels in increasing order: equal rows
            # project equal edges
            return self._rows == other._rows
        return self.edges == other.edges

    __hash__ = None


def _projected(states, labels, rows):
    """The (state, label, state) triples of index rows over states and
    labels, in state order, then label order, then target order."""
    for s, row in zip(states, rows):
        for a, tgts in row.items():
            a = labels[a]
            for j in tgts:
                yield s, a, states[j]


def _id_index(name, kind, ids) -> dict:
    """{id: index} over declared ids, rejecting unhashable and duplicate ids."""
    try:
        index = {x: i for i, x in enumerate(ids)}
    except TypeError:
        raise InputError(f"lts '{name}': {kind} ids must be hashable") from None
    if len(index) != len(ids):
        raise InputError(f"lts '{name}': duplicate {kind} ids")
    return index


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


#: build_rg looks markings up by packed keys on nets with at least this
#: many places, and by marking tuples on smaller ones.  Packing costs some
#: microseconds a graph (the width, M0's key, an incidence key per fired
#: transition) and saves a firing on each edge into a known state, so it
#: pays only where transitions fire many times.  Timed against the tuple
#: loop: about 15-30% slower on default random nets (4 places, median 3
#: states), 7% slower on fig1_basic (5 places) and fig8_variant (7), even
#: on fig14 (8 places, 12 states), 7% faster on fig10 (8 places, 30
#: states), 26% on par4 (8 places) and 35-45% on par11 (22 places).
_PACKED_PLACES = 8


def _bfs_by_key(net: Net, cutoff: int) -> tuple:
    """build_rg's breadth-first search on packed keys; returns (markings,
    index rows, the indices of the states that lost an edge to the cutoff).

    Place p's tokens fill bits [b*p, b*(p+1)) of a marking's key, and t's
    incidence key is the sum over p of (post_t(p) - pre_t(p)) * 2^(b*p),
    so firing t adds it to the key (the state equation).  An edge costs an
    addition and an integer lookup; a marking is fired only for a new key.
    """
    m0 = net.initial
    # b bits a place hold every looked-up marking (see build_rg)
    b = ((max(m0) if m0 else 0) + cutoff * net._max_out).bit_length()
    k = 0
    for n in reversed(m0):
        k = k << b | n
    keys = [k]
    index = {k: (0,)}  # key -> (state index,), the one row entry into the state
    ekey = [None] * len(net.transitions)  # incidence keys, made on first firing
    order = [m0]
    rows = []
    cut = set()
    for i, m in enumerate(order):  # order grows while it is read: it is the BFS queue
        k = keys[i]
        row = {}
        rows.append(row)
        for ti in _enabled_i(net, m):
            d = ekey[ti]
            if d is None:
                d = 0
                for pi, w in net._outputs[ti]:
                    d += w << b * pi
                for pi, w in net._inputs[ti]:
                    d -= w << b * pi
                ekey[ti] = d
            k2 = k + d
            tgt = index.get(k2)
            if tgt is None:
                if len(order) >= cutoff:
                    cut.add(i)
                    continue
                tgt = index[k2] = (len(order),)
                keys.append(k2)
                order.append(_fire_i(net, m, ti))
            row[ti] = tgt
    return order, rows, cut


def build_rg(net: Net, max_states: Optional[int] = None):
    """Breadth-first reachability graph in canonical transition order.

    Returns (Lts, BoundReport).  States are named M0, M1, ... in discovery
    order, sliced from one shared tuple of names (net._numbered), and carry
    their marking as payload.  Exceeding max_states is not an error: the
    report comes back flagged "cutoff-reached".

    The search fills each state's index row {transition index: (target
    index,)} as it goes and hands the rows to Lts._of_rows, so no edge is
    made as a string triple: the graph's edges are projected from the rows
    only when read, in state order, then transition order, which is the
    order the search finds them in.

    On nets with at least _PACKED_PLACES places, markings are looked up by
    one packed integer each (_bfs_by_key): a successor's key is its
    parent's key plus its transition's incidence key, and a marking tuple
    is built only for a new state.  A key gives each place b bits, the
    bit length of max(M0) + max_states * w for the largest output weight
    w.  That width is exact: a looked-up marking is at most max_states
    steps from M0, and a step adds at most w tokens to a place, so every
    place value fits and distinct markings get distinct keys.  Smaller
    nets are searched by marking tuples; both searches give the same graph.
    """
    net._check_behavioural()
    cutoff = default_max_states() if max_states is None else max_states
    if cutoff < 1:
        raise InputError("max_states must be >= 1")

    if len(net.places) >= _PACKED_PLACES:
        order, rows, cut = _bfs_by_key(net, cutoff)
    else:
        index = {net.initial: (0,)}  # marking -> (state index,), as in _bfs_by_key
        order = [net.initial]
        rows = []
        cut = set()  # the states that lost an edge to the cutoff
        for i, m in enumerate(order):  # order grows while it is read: it is the BFS queue
            row = {}
            rows.append(row)
            for ti in _enabled_i(net, m):
                m2 = _fire_i(net, m, ti)
                tgt = index.get(m2)
                if tgt is None:
                    if len(order) >= cutoff:
                        cut.add(i)
                        continue
                    tgt = index[m2] = (len(order),)
                    order.append(m2)
                row[ti] = tgt

    names = _numbered("M", len(order))
    lts = Lts._of_rows(f"rg({net.name})", names, net.transitions, rows, names[0],
                       dict(zip(names, order)))
    # firing is a function of the marking, and a marking is the unique
    # predecessor of its successor under t (M = M' - C[t]); markings name
    # the states, so the graph is label-deterministic both ways.  By the
    # state equation M = M0 + C*Parikh(sigma), paths with one Parikh vector
    # from one state, or into one state, end at one state at every depth.
    lts._deterministic = lts._parikh_deterministic = True
    if cut:
        lts._cut = cut
    else:
        lts._net = net
    place_bounds = list(map(max, zip(*order)))
    k = max(place_bounds, default=0)
    report = BoundReport(
        status="cutoff-reached" if cut else "bounded", k_bound=k,
        place_bounds=dict(zip(net.places, place_bounds)),
        safe=None if cut else k <= 1, state_count=len(order),
        edge_count=sum(map(len, rows)), cutoff=cutoff)  # one target a row entry
    return lts, report


def complete_rg(net: Net, max_states: Optional[int] = None):
    """build_rg for every verdict read off a reachability graph: a graph
    cut off at the state budget gives no verdict, so it raises
    ResourceExceededError, naming the net and the budget, instead."""
    lts, report = build_rg(net, max_states)
    if report.status != "bounded":
        raise _cut_off(net, report)
    return lts, report


def _cut_off(net: Net, report: BoundReport) -> ResourceExceededError:
    """The error of a verdict that a graph cut off at its budget cannot give."""
    return ResourceExceededError(
        f"reachability graph of net '{net.name}' cut off at {report.cutoff} "
        "states; a truncated graph gives no verdict")


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
    return (_same_parikh_same_end(lts._rows, depth)
            and _same_parikh_same_end(lts._reverse_rows(), depth))


def _same_parikh_same_end(rows: list, depth: int) -> bool:
    """True iff, from every state, the paths of length <= depth along rows
    (state index -> label index -> neighbours) that share a Parikh vector
    end in one state."""
    for start in range(len(rows)):
        frontier = {start: {()}}  # state -> parikh keys reaching it
        seen: dict = {}
        for _ in range(depth):
            nxt: dict = {}
            for s, keys in frontier.items():
                for a, ends in rows[s].items():
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


def lts_properties(lts: Lts, spot_depth: int = 3) -> LtsReport:
    """Finiteness, total reachability, determinism and deadlocks.

    Determinism combines per-state label functionality (successor and
    predecessor form) with the Parikh formulation: same-Parikh paths from
    one state, or into one state, end at one state.  For a reachability
    graph that holds at every depth and is recorded by build_rg, which
    proves it by the state equation.  Any other LTS gets a spot check of
    paths up to spot_depth, since deciding the full Parikh formulation on
    arbitrary LTS would be exhaustive.
    """
    totally = len(_bfs_tree(lts)[0]) == len(lts.states)
    deterministic = lts.is_label_deterministic() and (
        lts._parikh_deterministic or _parikh_spot_check(lts, spot_depth))
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

    Requires a deterministic LTS (reachability graphs always are).  The
    first witness is the first state, then the first t, then the first u,
    each in declaration order.

    On a complete reachability graph (build_rg records its net) only the
    pairs of the net's may-disable table are tested: firing t leaves every
    other u enabled unless t removes tokens from a place of u's preset, so
    the other pairs cannot fail and the first witness is the same.  An
    empty table is the conflict-free case: the net is persistent.  The
    table is built only once the full scan has paid rent worth about its
    cost (n^2 pair tests per state with n >= 2 enabled labels), so tiny
    graphs never build it.  A table over L labels costs about L^2 pair
    tests plus some 20 per label for its per-transition set-up: 5 us for
    4 transitions and 10 us for 8 where a pair test takes 50 ns.  Any
    other LTS gets the full scan.

    A graph cut off at its state budget records the states that lost an
    edge to it, and no net, so the full scan reads it and passes over each
    t into such a state (tested only once a witness is found): the first
    witness whose target kept all its edges replays by the firing rule.
    Without one, ResourceExceededError names the graph and its budget.

    When both orders of two labels fire, a diamond must close on one
    state.  build_rg proves that by the state equation (its
    _parikh_deterministic record), so only other LTS are checked, and one
    that closes a diamond on two states is rejected.
    """
    if not lts.is_label_deterministic():
        raise UnsupportedClassError(
            f"persistence check needs a deterministic LTS, '{lts.name}' is not")
    rows = lts._rows
    cut = lts._cut or ()  # its dropped labels would show as disabled
    net = lts._net
    diamonds = not lts._parikh_deterministic
    rent = len(lts.labels) * (len(lts.labels) + 20)
    table = None
    for i, out in enumerate(rows):
        n = len(out)
        if n < 2:
            continue
        if table is None and net is not None:
            rent -= n * n
            if rent < 0:
                table = _may_disable(net)
                if not any(table):
                    break
        for t, (j,) in out.items():
            after = rows[j]
            for u in out if table is None else table[t]:
                if u not in after and u != t and u in out and j not in cut:
                    return PersistenceVerdict(
                        False, (lts.states[i], lts.labels[t], lts.labels[u]))
        if diamonds:
            for t, (j,) in out.items():
                for u, (k,) in out.items():
                    if u > t and rows[j][u] != rows[k][t]:
                        raise UnsupportedClassError(
                            f"lts '{lts.name}' closes a diamond at {lts.states[i]} "
                            "on two different states; it cannot be a reachability graph")
    if cut:
        raise ResourceExceededError(
            f"graph '{lts.name}' cut off at {len(rows)} states has no witness at "
            "a state that kept all its edges; a truncated graph gives no verdict")
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

    rows1, rows2 = l1._rows, l2._rows
    names = l1.labels
    to2 = [l2._label_index[a] for a in names]  # label index in l1 -> in l2
    i1, i2 = l1._state_index[l1.initial], l2._state_index[l2.initial]
    fwd = {i1: i2}
    bwd = {i2: i1}
    queue = [(i1, i2)]
    for s1, s2 in queue:  # queue grows while it is read
        out1, out2 = rows1[s1], rows2[s2]
        if len(out1) != len(out2) or any(to2[a] not in out2 for a in out1):
            diff = min({names[a] for a in out1} ^ {l2.labels[b] for b in out2})
            return IsoVerdict(False, mismatch=(l1.states[s1], diff))
        for a in sorted(out1, key=names.__getitem__):
            t1, t2 = out1[a][0], out2[to2[a]][0]
            if t1 in fwd:
                if fwd[t1] != t2:
                    return IsoVerdict(False, mismatch=(l1.states[s1], names[a]))
            elif t2 in bwd:
                return IsoVerdict(False, mismatch=(l1.states[s1], names[a]))
            else:
                fwd[t1] = t2
                bwd[t2] = t1
                queue.append((t1, t2))
    if len(fwd) != len(l1.states):
        # unreachable under total reachability, kept as a guard
        return IsoVerdict(False, mismatch=(None, "state counts differ"))
    states1, states2 = l1.states, l2.states
    return IsoVerdict(True, mapping={states1[i]: states2[j] for i, j in fwd.items()})


def _bfs_tree(lts: Lts) -> tuple:
    """The breadth-first tree from the initial state over state indices, in
    row order: (order, parent, depth), where order lists the reachable
    states in discovery order, parent[j] is the first step (i, label) into
    j (None at the root and at unreachable states) and depth[j] is j's
    distance (None when unreachable).  Built once per LTS and kept.
    """
    if lts._tree is None:
        rows = lts._rows
        root = lts._state_index[lts.initial]
        parent = [None] * len(rows)
        depth = [None] * len(rows)
        depth[root] = 0
        order = [root]
        for i in order:  # order grows while it is read: it is the queue
            d = depth[i] + 1
            for a, tgts in rows[i].items():
                for j in tgts:
                    if depth[j] is None:
                        depth[j] = d
                        parent[j] = (i, a)
                        order.append(j)
        lts._tree = (order, parent, depth)
    return lts._tree


def bfs_depths(lts: Lts) -> dict:
    """Shortest-path depth of every state from the initial one."""
    order, _, depth = _bfs_tree(lts)
    states = lts.states
    return {states[i]: depth[i] for i in order}


def shortest_path(lts: Lts, target: str) -> tuple:
    """Canonical shortest label path from the initial state to target."""
    _, parent, depth = _bfs_tree(lts)
    j = lts._state_index.get(target)
    if j is None or depth[j] is None:
        raise UnknownIdError(f"state '{target}' unreachable in '{lts.name}'")
    path = []
    while parent[j] is not None:
        j, a = parent[j]
        path.append(lts.labels[a])
    return tuple(reversed(path))
