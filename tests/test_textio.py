import re

import pytest

from persinet import (
    InputError,
    Lts,
    ParseError,
    Pattern,
    build_rg,
    builtin_pattern,
    corpus_load,
    corpus_names,
    emit_dot,
    find_embedding,
    parse_lasso,
    parse_lts,
    parse_net,
    parse_pattern,
    parse_sequence,
    print_lasso,
    print_lts,
    print_net,
    print_pattern,
)


class TestParseNet:
    def test_fig1_document(self):
        entry = corpus_load("fig1_basic")
        net = parse_net(entry.net_text)
        assert len(net.places) == 5 and len(net.transitions) == 4
        assert len(net.arcs()) == 8
        assert all(w == 1 for _, _, w in net.arcs())

    def test_zero_weight_rejected(self):
        with pytest.raises(ParseError):
            parse_net("net z\nplace p\ntrans t\narc p -> t 0\n")

    def test_no_transitions_is_valid(self):
        net = parse_net("net still\nplace p init 2\n")
        _, rep = build_rg(net)
        assert rep.state_count == 1

    def test_duplicate_id_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_net("net d\nplace p\nplace p\n")
        assert err.value.line == 3

    def test_unknown_arc_id_rejected(self):
        with pytest.raises(ParseError):
            parse_net("net d\nplace p\ntrans t\narc p -> q\n")

    def test_place_transition_clash_rejected(self):
        with pytest.raises(ParseError):
            parse_net("net d\nplace x\ntrans x\n")

    def test_comments_and_blanks(self):
        net = parse_net("# heading\nnet c\n\nplace p init 1  # one token\ntrans t\narc p -> t\n")
        assert net.initial == (1,)


class TestParseLts:
    def test_ts1_document(self):
        entry = corpus_load("fig1_basic")
        lts = parse_lts(entry.lts_text)
        assert len(lts.states) == 8 and len(lts.edges) == 10
        assert lts.initial == "M0"

    def test_missing_initial(self):
        with pytest.raises(ParseError):
            parse_lts("lts x\nstate s\n")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError):
            parse_lts("lts x\nstate s\ninitial s\nedge s a s\nedge s a s\n")

    def test_labels_in_first_use_order(self):
        lts = parse_lts("lts x\nstate s\nstate t\ninitial s\n"
                        "edge s b t\nedge t a s\nedge s a s\nedge t b t\n")
        assert lts.labels == ("b", "a")

    def test_parallel_edges_are_no_duplicates(self):
        doc = "lts x\nstate s\nstate t\ninitial s\nedge s a t\nedge s b t\nedge s a s\n"
        assert parse_lts(doc).edges == (("s", "a", "t"), ("s", "b", "t"), ("s", "a", "s"))


_H = "lts x\nstate s\nstate t\ninitial s\n"

# the message and line of each malformed document.  An edge line that
# repeats an earlier edge is reported before a failure on a later line and
# before every failure with no line: a missing header or initial state, or
# an error of the Lts constructor
PINNED_LTS_ERRORS = [
    ('lts x\nlts y\nstate s\ninitial s\n',
     "line 2: duplicate 'lts' header"),
    ('lts\nstate s\ninitial s\n',
     'line 1: usage: lts <name>'),
    ('lts x y\nstate s\ninitial s\n',
     'line 1: usage: lts <name>'),
    ('lts x\nstate\ninitial s\n',
     'line 2: usage: state <id>'),
    ('lts x\nstate s t\ninitial s\n',
     'line 2: usage: state <id>'),
    ('lts x\nstate s\nstate s\ninitial s\n',
     "line 3: duplicate state 's'"),
    ('lts x\nstate s\ninitial\n',
     'line 3: usage: initial <id>'),
    ('lts x\nstate s\ninitial s t\n',
     'line 3: usage: initial <id>'),
    ('lts x\nstate s\ninitial s\ninitial s\n',
     "line 4: duplicate 'initial'"),
    (_H + 'edge s a\n',
     'line 5: usage: edge <state> <label> <state>'),
    (_H + 'edge s a t t\n',
     'line 5: usage: edge <state> <label> <state>'),
    (_H + 'edge s a t\nedge s a t\n',
     'line 6: duplicate edge s a t'),
    (_H + 'bogus s\n',
     "line 5: unknown declaration 'bogus'"),
    ('state s\ninitial s\n',
     "missing 'lts <name>' header"),
    ('lts x\nstate s\n',
     "missing 'initial <id>'"),
    ('lts x\nstate s\ninitial u\n',
     "lts 'x': initial state 'u' not declared"),
    (_H + 'edge u a t\n',
     "lts 'x': edge (u,a,t) uses unknown state"),
    (_H + 'edge s a u\n',
     "lts 'x': edge (s,a,u) uses unknown state"),
    (_H + 'edge s a t\nedge s a t\nbogus\n',
     'line 6: duplicate edge s a t'),
    (_H + 'edge s a t\nedge s a t\nedge s b\n',
     'line 6: duplicate edge s a t'),
    (_H + 'edge s a t\nedge s a t\nstate s\n',
     'line 6: duplicate edge s a t'),
    (_H + 'edge s a t\nedge s a t\nlts y\n',
     'line 6: duplicate edge s a t'),
    (_H + 'bogus\nedge s a t\nedge s a t\n',
     "line 5: unknown declaration 'bogus'"),
    ('lts x\nstate s\nedge s a s\nedge s a s\n',
     'line 4: duplicate edge s a s'),
    ('state s\ninitial s\nedge s a s\nedge s a s\n',
     'line 4: duplicate edge s a s'),
    ('edge s a s\nedge s a s\n',
     'line 2: duplicate edge s a s'),
    (_H + 'edge u a t\nedge s a t\nedge s a t\n',
     'line 7: duplicate edge s a t'),
    ('lts x\nstate s\ninitial u\nedge s a s\nedge s a s\n',
     'line 5: duplicate edge s a s'),
    (_H + 'state s\nedge s a t\nedge s a t\n',
     "line 5: duplicate state 's'"),
    (_H + 'edge s a t\nedge t b s\nedge t b s\nedge s a t\n',
     'line 7: duplicate edge t b s'),
    (_H + 'edge s a t\nedge s\ta  t # again\n',
     'line 6: duplicate edge s a t'),
    (_H + '# comment\n\nedge s a t # first\n  \nedge s a t\n',
     'line 9: duplicate edge s a t'),
    (_H + 'label\n',
     'line 5: usage: label <id>'),
    (_H + 'label a b\n',
     'line 5: usage: label <id>'),
    (_H + 'label a\nlabel b\nlabel a\n',
     "line 7: duplicate label 'a'"),
    (_H + 'label a\nedge s a t\nedge s b t\n',
     "lts 'x': edge (s,b,t) uses unknown label"),
    (_H + 'edge s b t\nlabel a\n',
     "lts 'x': edge (s,b,t) uses unknown label"),
    (_H + 'label a\nedge s b t\nedge s a t\nedge s a t\n',
     'line 8: duplicate edge s a t'),
]


class TestParseLtsErrors:
    @pytest.mark.parametrize("doc,message", PINNED_LTS_ERRORS)
    def test_pinned(self, doc, message):
        with pytest.raises(ParseError) as exc:
            parse_lts(doc)
        assert str(exc.value) == message
        line = message.split(":", 1)[0]
        assert exc.value.line == (int(line[5:]) if line.startswith("line ") else None)


class TestParseLasso:
    def test_fig6(self):
        lasso = parse_lasso("y ; x a c")
        assert lasso.prefix == ("y",) and lasso.cycle == ("x", "a", "c")

    def test_empty_cycle_rejected(self):
        with pytest.raises(ParseError):
            parse_lasso(" ; ")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_lasso("a b c")

    def test_roundtrip(self):
        lasso = parse_lasso("y ; x a c")
        assert parse_lasso(print_lasso(lasso)) == lasso

    def test_sequences(self):
        assert parse_sequence("") == ()
        assert parse_sequence("a b  c") == ("a", "b", "c")


class TestParsePattern:
    def test_builtins_roundtrip(self):
        for name in ("nonpers", "nonDC"):
            p = builtin_pattern(name)
            assert parse_pattern(print_pattern(p)) == p

    def test_edge_synonym(self):
        a = parse_pattern("pattern x\nstate s\nstate t\narc s a t\n")
        b = parse_pattern("pattern x\nstate s\nstate t\nedge s a t\n")
        assert a == b

    def test_labels_in_first_use_order(self):
        # arcs and exclusions name labels in one order, that of their lines
        p = parse_pattern("pattern x\nstate s\nstate t\nexclude s c\n"
                          "arc s b t\nexclude t b\narc t a s\narc s c t\n")
        assert p.labels == ("c", "b", "a")


class TestRoundTrip:
    def test_whole_corpus_nets(self):
        for name in corpus_names():
            entry = corpus_load(name)
            assert parse_net(print_net(entry.net)) == entry.net, name

    def test_whole_corpus_lts(self):
        for name in corpus_names():
            entry = corpus_load(name)
            if entry.lts is not None:
                assert parse_lts(print_lts(entry.lts)) == entry.lts, name


GOLDEN_FIG1_DOT = """\
digraph "rg(fig1_basic)" {
  rankdir=LR;
  node [shape=circle];
  "M0" [shape=doublecircle];
  "M1";
  "M2";
  "M3";
  "M4";
  "M5";
  "M6";
  "M7";
  "M0" -> "M1" [label="c"];
  "M0" -> "M2" [label="d"];
  "M1" -> "M3" [label="a"];
  "M1" -> "M4" [label="d"];
  "M2" -> "M5" [label="b"];
  "M2" -> "M4" [label="c"];
  "M3" -> "M6" [label="d"];
  "M4" -> "M6" [label="a"];
  "M4" -> "M7" [label="b"];
  "M5" -> "M7" [label="c"];
}
"""


class TestDot:
    def test_golden_fig1(self, fig1):
        rg, _ = build_rg(fig1)
        assert emit_dot(rg) == GOLDEN_FIG1_DOT

    def test_stable_across_runs(self, fig14):
        one, _ = build_rg(fig14)
        two, _ = build_rg(fig14)
        assert emit_dot(one) == emit_dot(two)

    def test_embedding_highlight(self, fig1):
        rg, _ = build_rg(fig1)
        emb = find_embedding(builtin_pattern("nonpers"), rg)
        dot = emit_dot(rg, highlights=emb, pattern=builtin_pattern("nonpers"))
        assert '"M4" [penwidth=2.5];' in dot
        assert '"M6" [penwidth=2.5, xlabel="no b"];' in dot
        assert '"M4" -> "M6" [label="a", penwidth=2.5];' in dot

    def test_highlights_need_their_pattern(self, fig1):
        rg, _ = build_rg(fig1)
        two = Pattern("step", ("u", "v"), ("x",), (("u", "x", "v"),), ())
        emb = find_embedding(two, rg)
        assert emb is not None
        with pytest.raises(InputError, match="highlights need the embedded pattern"):
            emit_dot(rg, highlights=emb)
        assert '"M1" -> "M3" [label="a", penwidth=2.5];' in emit_dot(rg, emb, two)

    def test_backslashes_are_escaped(self):
        # an id ending in a backslash must not escape its closing quote
        lts = parse_lts('lts x\\\nstate s\\\nstate t\ninitial s\\\n'
                        'edge s\\ a\\ t\nedge t a"\\ s\\\n')
        dot = emit_dot(lts)
        quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
        lines = [x for x in dot.splitlines() if "->" in x]
        assert len(lines) == 2
        for line, (s, a, s2) in zip(lines, lts.edges):
            strings = [re.sub(r"\\(.)", r"\1", q) for q in quoted.findall(line)]
            assert strings == [s, s2, a], line
        assert dot.startswith('digraph "x\\\\" {')

    def test_exclusion_annotation_is_escaped(self):
        # nonpers embeds with b -> c", so its exclusion reads "no c"" on u
        lts = Lts("q", ["s", "t", "u"], ['c"', "d"],
                  [("s", 'c"', "t"), ("s", "d", "u"), ("t", "d", "s")], "s")
        pattern = builtin_pattern("nonpers")
        emb = find_embedding(pattern, lts)
        assert emb.label_map["b"] == 'c"' and emb.state_map["2"] == "u"
        dot = emit_dot(lts, emb, pattern)
        line = next(x for x in dot.splitlines() if x.startswith('  "u" ['))
        quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
        assert re.fullmatch(r'  "u" \[penwidth=2\.5, xlabel="(?:[^"\\]|\\.)*"\];', line)
        strings = [re.sub(r"\\(.)", r"\1", q) for q in quoted.findall(line)]
        assert strings == ["u", 'no c"']

    def test_single_node_graph(self):
        from persinet import Lts

        lts = Lts("one", ["s"], [], [], "s")
        dot = emit_dot(lts)
        assert '"s" [shape=doublecircle];' in dot
        assert "->" not in dot
