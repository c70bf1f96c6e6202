"""parse_lts against the parser it replaced.

parse_lts fills only the index rows while the edges arrive in row order
and, from the first edge that does not, keeps the edges as triples for the
validating Lts constructor.  The reference below always goes through the
constructor, as parse_lts did before, so on every document both must give
the same LTS, with the same rows in the same order, or the same error on
the same line.
"""

import random

import pytest

from persinet import (
    GenConfig,
    InputError,
    Lts,
    ParseError,
    build_rg,
    corpus_load,
    corpus_names,
    disjoint_sum,
    emit_dot,
    gen_random_net,
    parse_lts,
    print_lts,
)
from persinet.textio import _lines

from nets import par


def reference_parse_lts(text):
    """Collect the edges as string triples, then build the LTS with the
    validating constructor.  The labels are those of the 'label' lines or,
    with none, those the edges use in order of first use.  On an error the
    document is scanned again: an edge line that repeats an earlier edge is
    reported instead if it comes before the failing line, or if the failure
    has no line."""
    try:
        return _reference(text)
    except ParseError as exc:
        seen = set()
        for no, tok in _lines(text):
            if exc.line is not None and no >= exc.line:
                break
            if tok[0] == "edge" and len(tok) == 4:
                edge = tuple(tok[1:])
                if edge in seen:
                    raise ParseError(f"duplicate edge {' '.join(edge)}", no) from None
                seen.add(edge)
        raise


def _reference(text):
    name, initial = None, None
    states, labels, edges = [], [], []
    seen_states, seen_labels = set(), set()
    for no, tok in _lines(text):
        kind = tok[0]
        if kind == "edge":
            if len(tok) != 4:
                raise ParseError("usage: edge <state> <label> <state>", no)
            edges.append((tok[1], tok[2], tok[3]))
        elif kind == "state":
            if len(tok) != 2:
                raise ParseError("usage: state <id>", no)
            if tok[1] in seen_states:
                raise ParseError(f"duplicate state '{tok[1]}'", no)
            seen_states.add(tok[1])
            states.append(tok[1])
        elif kind == "label":
            if len(tok) != 2:
                raise ParseError("usage: label <id>", no)
            if tok[1] in seen_labels:
                raise ParseError(f"duplicate label '{tok[1]}'", no)
            seen_labels.add(tok[1])
            labels.append(tok[1])
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
    if not labels:
        labels = list(dict.fromkeys([a for _, a, _ in edges]))
    try:
        return Lts(name, states, labels, edges, initial)
    except InputError as exc:
        raise ParseError(str(exc)) from None


def _outcome(parse, text):
    try:
        lts = parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line)
    return (lts.name, lts.states, lts.labels, lts.edges, lts.initial,
            [list(row.items()) for row in lts._rows])


def _graphs():
    """Reachability graphs of the corpus, of generated nets and of par nets."""
    nets = [corpus_load(n).net for n in corpus_names()]
    for kw in ({}, {"places": 3, "transitions": 3}, {"max_weight": 2},
               {"class_constraint": ("pure", "plain")}):
        nets += [gen_random_net(GenConfig(seed=s, **kw)) for s in range(25)]
    nets += [par(3), par(5), disjoint_sum(corpus_load("fig1_basic").net, par(2))]
    for net in nets:
        if net is not None and not net.structural_only:
            yield build_rg(net, 300)[0]


def _printed():
    docs = [print_lts(rg) for rg in _graphs()]
    for name in corpus_names():
        entry = corpus_load(name)
        if entry.lts is not None:
            docs.append(print_lts(entry.lts))
    return docs


def _mutations(doc, rng):
    """Documents one edit away from doc: reordered lines, missing or
    repeated declarations, and edges naming ids nobody declared."""
    lines = doc.splitlines()
    edges = [x for x in lines if x.startswith("edge ")]
    labels = [x for x in lines if x.startswith("label ")]
    states = [x for x in lines if x.startswith("state ")]
    rest = [x for x in lines if x.startswith(("lts ", "initial "))]
    head = rest[:1] + states + rest[1:]  # lts, states, initial
    shuffled = edges[:]
    rng.shuffle(shuffled)
    out = [
        head + labels + shuffled,
        rest + labels + edges + states,
        head + edges,
        head + edges + labels,
        head + labels[::-1] + edges,
        rest[:1] + states + labels + edges,  # no initial line
        head + labels + edges[::-1],
    ]
    if labels:
        k = rng.randrange(len(labels))
        out += [head + labels + labels[k:k + 1] + edges,
                head + labels[:k] + labels[k + 1:] + edges,
                head + labels[:k] + edges[:len(edges) // 2] + labels[k:]
                + edges[len(edges) // 2:],
                head + labels + ["edge " + states[0].split()[1] + " zz "
                                 + states[-1].split()[1]] + edges]
    if edges:
        k = rng.randrange(len(edges))
        s, a, s2 = edges[k].split()[1:]
        out += [head + labels + edges[:k + 1] + edges[k:],
                head + labels + edges + [edges[k]],
                head + labels + edges[:k] + [f"edge zz {a} {s2}"] + edges[k:],
                head + labels + edges + [f"edge {s} {a} zz"],
                ["initial zz" if x.startswith("initial ") else x for x in head]
                + labels + edges]
    return ["\n".join(x) + "\n" for x in out]


class TestParseLtsAgainstReference:
    def test_corpus_documents(self):
        docs = [corpus_load(n).lts_text for n in corpus_names()]
        docs = [d for d in docs if d is not None]
        assert docs
        for doc in docs:
            assert _outcome(parse_lts, doc) == _outcome(reference_parse_lts, doc)

    def test_printed_graphs_and_their_mutations(self):
        rng = random.Random(23)
        docs = _printed()
        assert len(docs) >= 80
        messages = set()
        for doc in docs:
            for text in [doc] + _mutations(doc, rng):
                got = _outcome(parse_lts, text)
                assert got == _outcome(reference_parse_lts, text), text
                if got[0] == "ParseError":
                    messages.add(got[1])
        # every failure the mutations aim at was met
        messages = " | ".join(messages)
        for what in ("duplicate edge", "duplicate label", "uses unknown state",
                     "uses unknown label", "missing 'initial <id>'",
                     "initial state 'zz' not declared"):
            assert what in messages

    def test_printed_graphs_parse_back_equal(self):
        count = 0
        for rg in _graphs():
            used = {a for _, a, _ in rg.edges}
            if used != set(rg.labels):
                continue  # print_lts writes only the labels some edge uses
            back = parse_lts(print_lts(rg))
            assert back == rg
            assert [list(r.items()) for r in back._rows] == [
                list(r.items()) for r in rg._rows]
            count += 1
        assert count >= 40

    def test_printed_graphs_skip_the_constructor(self, monkeypatch):
        # print_lts writes a reachability graph's edges in row order, so
        # its document is placed row by row while it is read
        docs = [print_lts(rg) for rg in _graphs()]

        def refuse(self, *args, **kwargs):
            raise AssertionError("parse_lts fell back to the Lts constructor")

        monkeypatch.setattr(Lts, "__init__", refuse)
        for doc in docs:
            parse_lts(doc)

    def test_second_target_joins_the_row(self, monkeypatch):
        # a second a-edge from s adds its target to the row entry the first
        # one made, still without the constructor
        doc = ("lts x\nstate s\nstate t\nstate u\ninitial s\nlabel a\n"
               "edge s a t\nedge s a u\n")
        want = _outcome(reference_parse_lts, doc)

        def refuse(self, *args, **kwargs):
            raise AssertionError("parse_lts fell back to the Lts constructor")

        monkeypatch.setattr(Lts, "__init__", refuse)
        lts = parse_lts(doc)
        assert lts._rows == [{0: (1, 2)}, {}, {}]
        assert lts.successors("s", "a") == ("t", "u")
        assert _outcome(parse_lts, doc) == want

    def test_label_lines_declare_the_labels(self):
        doc = ("lts x\nstate s\nstate t\ninitial s\nlabel b\nlabel a\nlabel c\n"
               "edge s a t\nedge s b t\n")
        lts = parse_lts(doc)
        assert lts.labels == ("b", "a", "c")
        assert lts.edges == (("s", "a", "t"), ("s", "b", "t"))
        assert [list(r.items()) for r in lts._rows] == [[(0, (1,)), (1, (1,))], []]
        assert _outcome(parse_lts, doc) == _outcome(reference_parse_lts, doc)
        assert print_lts(lts).count("\nlabel ") == 2  # c is used by no edge

    @pytest.mark.parametrize("doc", [
        "lts x\nstate s\ninitial s\nlabel a\nedge s b s\n",
        "lts x\nstate s\ninitial s\nedge s a s\nlabel a\n",
        "lts x\ninitial s\nlabel a\nedge s a s\nstate s\n",
        "lts x\nstate s\ninitial u\nlabel a\nedge s a s\n",
        "lts x\nstate s\ninitial s\nlabel a\nedge s a s\nedge s a s\n",
        "lts x\nstate s\nstate t\ninitial s\nlabel a\nlabel b\nedge s b t\nedge s a t\n",
    ])
    def test_documents_that_cannot_be_placed(self, doc):
        assert _outcome(parse_lts, doc) == _outcome(reference_parse_lts, doc)


def _edge_lines(doc):
    return [tuple(x.split()[1:]) for x in doc.splitlines() if x.startswith("edge ")]


class TestRowOrder:
    """A document whose edges arrive in row order parses to rows alone; the
    first edge out of that order keeps the edges as triples."""

    def test_printed_graphs_keep_no_triples(self):
        count = 0
        for rg in _graphs():
            doc = print_lts(rg)
            back = parse_lts(doc)
            assert back._edges is None, rg.name
            assert list(back.edges) == _edge_lines(doc), rg.name
            count += 1
        assert count >= 80

    def test_printing_a_graph_keeps_no_triples(self):
        for rg in _graphs():
            doc, dot = print_lts(rg), emit_dot(rg)
            assert rg._edges is None, rg.name
            # the projection is read again, and gives the edges' order
            assert (doc, dot) == (print_lts(rg), emit_dot(rg))
            assert _edge_lines(doc) == list(rg.edges)

    @pytest.mark.parametrize("net", ["fig1_basic", "fig8_variant"])
    def test_each_edge_moved_out_of_order(self, net):
        rg = build_rg(corpus_load(net).net)[0]
        lines = print_lts(rg).splitlines()
        first = next(i for i, x in enumerate(lines) if x.startswith("edge "))
        head, edges = lines[:first], lines[first:]
        assert len(edges) >= 8
        for k in range(len(edges)):
            moved = [edges[:k] + edges[k + 1:] + edges[k:k + 1]]
            if k + 1 < len(edges):
                moved.append(edges[:k] + [edges[k + 1], edges[k]] + edges[k + 2:])
            for order in moved:
                doc = "\n".join(head + order) + "\n"
                assert _outcome(parse_lts, doc) == _outcome(reference_parse_lts, doc), doc
                back = parse_lts(doc)
                assert (back._edges is None) == (order == edges)
                assert list(back.edges) == _edge_lines(doc)

    def test_out_of_row_order_keeps_document_order(self):
        # t's edge comes before s's: the triples are kept as read, while
        # the rows are in label order
        doc = ("lts x\nstate s\nstate t\ninitial s\nlabel a\nlabel b\n"
               "edge s a t\nedge t a s\nedge s b s\nedge s a s\n")
        lts = parse_lts(doc)
        assert lts._edges == (("s", "a", "t"), ("t", "a", "s"), ("s", "b", "s"),
                              ("s", "a", "s"))
        assert [list(r.items()) for r in lts._rows] == [[(0, (1, 0)), (1, (0,))],
                                                        [(0, (0,))]]
        assert _outcome(parse_lts, doc) == _outcome(reference_parse_lts, doc)

    def test_a_new_target_of_the_last_entry_stays_in_the_rows(self):
        doc = ("lts x\nstate s\nstate t\ninitial s\nlabel a\nlabel b\n"
               "edge s a t\nedge s a s\nedge s b t\nedge t b s\nedge t b t\n")
        lts = parse_lts(doc)
        assert lts._edges is None
        assert list(lts.edges) == _edge_lines(doc)
        assert _outcome(parse_lts, doc) == _outcome(reference_parse_lts, doc)
