"""Line-oriented text formats for nets, transition systems, patterns and
lassos, plus DOT export.

One declaration per line, '#' starts a comment, blank lines are ignored.
Printing emits a canonical form, and parsing a printed net gives the net
back.  An LTS document with 'label' lines has exactly the labels they
declare, in their order, and an edge with any other label is an error.  An
LTS document without them, and every pattern document, has the labels its
edges use, in order of first use.  print_lts declares the labels some edge
uses, in their order, so a printed LTS parses back with the same states,
labels, edges and initial state, less the labels no edge uses.  A parsed
LTS prints and parses back unchanged (==), which the corpus round-trip
suite pins down.  An LTS document whose edges arrive in row order (by
source state, then label, as print_lts writes a reachability graph) is
read into index rows alone and keeps no edge triples; any other keeps the
triples it read, in document order.

    net:      net NAME / place ID [init N] / trans ID / arc ID -> ID [W]
    lts:      lts NAME / state ID / initial ID / label ID / edge ID LABEL ID
    pattern:  pattern NAME / state ID / arc ID LABEL ID / exclude ID LABEL
    lasso:    "PREFIX ; CYCLE", transitions whitespace-separated, empty
              prefix allowed

An arc's direction disambiguates input from output weights; the default
weight is 1 and an explicit 0 is rejected (absent arcs mean 0).  Patterns
also accept 'edge' for 'arc'.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from .errors import InputError, ParseError
from .fairness import Lasso
from .lts import Lts, _projected
from .net import Net
from .patterns import Embedding, Pattern

_tokens = itemgetter(1)  # of a (line number, tokens) pair


def _lines(text):
    """(line number, tokens) of each line with a token, comments removed.
    The iterators run in C, so a line costs no Python frame."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    return filter(_tokens, enumerate(map(str.split, lines), 1))


def _nat(token, no, minimum=0):
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"expected a natural number, got '{token}'", no) from None
    if value < minimum:
        raise ParseError(f"expected a number >= {minimum}, got '{token}'", no)
    return value


def parse_net(text: str) -> Net:
    name = None
    places, transitions, arcs = [], [], []
    marking = {}
    seen = set()
    for no, tok in _lines(text):
        kind = tok[0]
        if kind == "net":
            if name is not None:
                raise ParseError("duplicate 'net' header", no)
            if len(tok) != 2:
                raise ParseError("usage: net <name>", no)
            name = tok[1]
        elif kind == "place":
            if len(tok) not in (2, 4) or (len(tok) == 4 and tok[2] != "init"):
                raise ParseError("usage: place <id> [init <nat>]", no)
            pid = tok[1]
            if pid in seen:
                raise ParseError(f"duplicate id '{pid}'", no)
            seen.add(pid)
            places.append(pid)
            if len(tok) == 4:
                marking[pid] = _nat(tok[3], no)
        elif kind == "trans":
            if len(tok) != 2:
                raise ParseError("usage: trans <id>", no)
            tid = tok[1]
            if tid in seen:
                raise ParseError(f"duplicate id '{tid}'", no)
            seen.add(tid)
            transitions.append(tid)
        elif kind == "arc":
            if len(tok) not in (4, 5) or tok[2] != "->":
                raise ParseError("usage: arc <id> -> <id> [<weight>=1]", no)
            src, dst = tok[1], tok[3]
            weight = _nat(tok[4], no, minimum=1) if len(tok) == 5 else 1
            arcs.append((no, src, dst, weight))
        else:
            raise ParseError(f"unknown declaration '{kind}'", no)
    if name is None:
        raise ParseError("missing 'net <name>' header")
    declared = set(places) | set(transitions)
    for no, src, dst, _ in arcs:
        for x in (src, dst):
            if x not in declared:
                raise ParseError(f"arc uses undeclared id '{x}'", no)
    try:
        return Net(name, places, transitions,
                   [(s, d, w) for _, s, d, w in arcs], marking)
    except InputError as exc:
        raise ParseError(str(exc)) from None


def print_net(net: Net) -> str:
    out = [f"net {net.name}"]
    for i, p in enumerate(net.places):
        if net.initial[i]:
            out.append(f"place {p} init {net.initial[i]}")
        else:
            out.append(f"place {p}")
    for t in net.transitions:
        out.append(f"trans {t}")
    for src, dst, w in net.arcs():
        out.append(f"arc {src} -> {dst}" + (f" {w}" if w != 1 else ""))
    return "\n".join(out) + "\n"


def parse_lts(text: str) -> Lts:
    """Parse an LTS document in one pass over its lines.

    Its labels are those of its 'label' lines, in their order, or, when it
    has none, those its edges use, in order of first use.  While the edges
    arrive in row order, only the index rows are filled, in the pass that
    reads the lines: each edge's states and label are declared on earlier
    lines, its source index is no lower than the last edge's, its label
    index no lower within one source, and a repeated (source, label) brings
    a new target.  print_lts writes a reachability graph that way, and such
    a document goes to Lts._of_rows with no edge triples: its edges are
    projected from the rows on first read, in the document's order.  The
    first edge out of row order ends that mode.  The edges read so far are
    then exactly the projection of the rows, so they are made from it, and
    every later edge is kept as read; a repeat is reported at its own line,
    in the same pass.  Such a document, and every label-free one, goes to
    the validating Lts constructor, which reports unknown states and
    labels."""
    name, initial = None, None
    states, labels = [], []
    sidx, lidx = {}, {}  # id -> index, for the states and labels declared so far
    # the index rows, one shared (j,) tuple per state as in build_rg, and
    # the (state, label) index pair of the last edge put in them; edges
    # stays None while every edge arrives in row order and goes only there
    rows, one, at, edges = [], [], (-1, -1), None
    for no, tok in _lines(text):
        kind = tok[0]
        if kind == "edge":
            if len(tok) != 4:
                raise ParseError("usage: edge <state> <label> <state>", no)
            _, s, a, s2 = tok
            if edges is None:  # every edge so far is in the rows
                try:
                    key, tgt = (sidx[s], lidx[a]), one[sidx[s2]]
                except KeyError:  # an id not declared yet: () fails both tests
                    key = ()
                if key > at:  # a new row entry
                    rows[key[0]][key[1]] = tgt
                    at = key
                    continue
                if key == at and tgt[0] not in rows[key[0]][key[1]]:
                    rows[key[0]][key[1]] += tgt  # a new target of the last entry
                    continue
                # the first edge out of row order: the edges read so far are
                # exactly the rows' projection; they and every later one are
                # kept in order as the keys of a dict, which finds a repeat
                edges = dict.fromkeys(_projected(states, labels, rows))
            if (s, a, s2) in edges:
                raise ParseError(f"duplicate edge {s} {a} {s2}", no)
            edges[s, a, s2] = None
        elif kind == "state":
            if len(tok) != 2:
                raise ParseError("usage: state <id>", no)
            s = tok[1]
            if s in sidx:
                raise ParseError(f"duplicate state '{s}'", no)
            one.append((len(states),))
            sidx[s] = len(states)
            states.append(s)
            rows.append({})
        elif kind == "label":
            if len(tok) != 2:
                raise ParseError("usage: label <id>", no)
            a = tok[1]
            if a in lidx:
                raise ParseError(f"duplicate label '{a}'", no)
            lidx[a] = len(labels)
            labels.append(a)
        elif kind == "lts":
            if name is not None:
                raise ParseError("duplicate 'lts' header", no)
            name = tok[1] if len(tok) == 2 else None
            if name is None:
                raise ParseError("usage: lts <name>", no)
        elif kind == "initial":
            if len(tok) != 2:
                raise ParseError("usage: initial <id>", no)
            if initial is not None:
                raise ParseError("duplicate 'initial'", no)
            initial = tok[1]
        else:
            raise ParseError(f"unknown declaration '{kind}'", no)
    if name is None:
        raise ParseError("missing 'lts <name>' header")
    if initial is None:
        raise ParseError("missing 'initial <id>'")
    if edges is None:
        if initial in sidx:
            return Lts._of_rows(name, tuple(states), tuple(labels), rows, initial, None)
        edges = list(_projected(states, labels, rows))
    if not labels:
        labels = list(dict.fromkeys([a for _, a, _ in edges]))  # first-use order
    try:
        return Lts(name, states, labels, edges, initial)
    except InputError as exc:
        raise ParseError(str(exc)) from None


def print_lts(lts: Lts) -> str:
    out = [f"lts {lts.name}"]
    out += [f"state {s}" for s in lts.states]
    out.append(f"initial {lts.initial}")
    used = set().union(*lts._rows)  # the label indices some edge uses
    out += [f"label {a}" for ai, a in enumerate(lts.labels) if ai in used]
    out += [f"edge {s} {a} {s2}" for s, a, s2 in lts._edge_iter()]
    return "\n".join(out) + "\n"


def parse_pattern(text: str) -> Pattern:
    name = None
    states, arcs, exclusions = [], [], []
    labels = {}  # first-use order
    seen_states = set()
    for no, tok in _lines(text):
        kind = tok[0]
        if kind == "pattern":
            if name is not None:
                raise ParseError("duplicate 'pattern' header", no)
            if len(tok) != 2:
                raise ParseError("usage: pattern <name>", no)
            name = tok[1]
        elif kind == "state":
            if len(tok) != 2:
                raise ParseError("usage: state <id>", no)
            if tok[1] in seen_states:
                raise ParseError(f"duplicate state '{tok[1]}'", no)
            seen_states.add(tok[1])
            states.append(tok[1])
        elif kind in ("arc", "edge"):
            if len(tok) != 4:
                raise ParseError(f"usage: {kind} <state> <label> <state>", no)
            s, a, s2 = tok[1:4]
            labels[a] = None
            arcs.append((s, a, s2))
        elif kind == "exclude":
            if len(tok) != 3:
                raise ParseError("usage: exclude <state> <label>", no)
            s, a = tok[1], tok[2]
            labels[a] = None
            exclusions.append((s, a))
        else:
            raise ParseError(f"unknown declaration '{kind}'", no)
    if name is None:
        raise ParseError("missing 'pattern <name>' header")
    try:
        return Pattern(name, states, list(labels), arcs, exclusions)
    except InputError as exc:
        raise ParseError(str(exc)) from None


def print_pattern(pattern: Pattern) -> str:
    out = [f"pattern {pattern.name}"]
    out += [f"state {s}" for s in pattern.states]
    out += [f"arc {s} {a} {s2}" for s, a, s2 in pattern.arcs]
    out += [f"exclude {s} {a}" for s, a in pattern.exclusions]
    return "\n".join(out) + "\n"


def parse_lasso(text: str) -> Lasso:
    """Parse "prefix ; cycle".  Only the syntax is checked: whether the
    lasso fires on a net is decided by the question asked of it."""
    if ";" not in text:
        raise ParseError("a lasso is written '<prefix> ; <cycle>'")
    prefix_text, cycle_text = text.split(";", 1)
    if not cycle_text.split():
        raise ParseError("a lasso needs a nonempty cycle")
    return Lasso(tuple(prefix_text.split()), tuple(cycle_text.split()))


def print_lasso(lasso: Lasso) -> str:
    return f"{' '.join(lasso.prefix)} ; {' '.join(lasso.cycle)}"


def parse_sequence(text: str) -> tuple:
    """Whitespace-separated transitions; the empty string is the empty run."""
    return tuple(text.split())


def _q(s):
    return '"' + str(s).replace("\\", "\\\\").replace('"', r'\"') + '"'


def emit_dot(lts: Lts, highlights: Optional[Embedding] = None,
             pattern: Optional[Pattern] = None) -> str:
    """Render an LTS as a DOT digraph with stable node and edge order.

    With an embedding, the image states and arcs are drawn bold and each
    excluded pair is annotated on its image state.  The embedded pattern
    must be given with it: it supplies the arc and exclusion sets.
    """
    bold_states, bold_edges, excluded = set(), set(), {}
    if highlights is not None:
        if pattern is None:
            raise InputError("emit_dot: highlights need the embedded pattern")
        bold_states = {highlights.state_map[s] for s in pattern.states}
        for s, a, s2 in pattern.arcs:
            bold_edges.add((highlights.state_map[s], highlights.label_map[a],
                            highlights.state_map[s2]))
        for s, a in pattern.exclusions:
            excluded.setdefault(highlights.state_map[s], []).append(
                highlights.label_map[a])

    out = [f"digraph {_q(lts.name)} {{", "  rankdir=LR;", "  node [shape=circle];"]
    for s in lts.states:
        attrs = []
        if s == lts.initial:
            attrs.append("shape=doublecircle")
        if s in bold_states:
            attrs.append("penwidth=2.5")
        if s in excluded:
            noes = " ".join(f"no {a}" for a in sorted(excluded[s]))
            attrs.append(f"xlabel={_q(noes)}")
        out.append(f"  {_q(s)}" + (f" [{', '.join(attrs)}]" if attrs else "") + ";")
    for s, a, s2 in lts._edge_iter():
        attrs = [f"label={_q(a)}"]
        if (s, a, s2) in bold_edges:
            attrs.append("penwidth=2.5")
        out.append(f"  {_q(s)} -> {_q(s2)} [{', '.join(attrs)}];")
    out.append("}")
    return "\n".join(out) + "\n"
