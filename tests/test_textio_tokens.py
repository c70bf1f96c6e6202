"""The shared tokeniser of the text formats against its plain definition."""

import pytest

from persinet import ParseError, corpus_load, corpus_names, textio

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def reference_lines(text):
    """The tokeniser by definition: cut each line at its first '#', strip
    it, and split what is left."""
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line.split()


# line breaks and whitespace of every kind str.splitlines and str.split know
_ALPHABET = ["a", "b", "edge", "#", " ", "\t", "\n", "\r\n", "\r", "\x0b",
             "\x0c", "\x1c", "\x85", "\u2028", "\u3000", "\n\n", "# c\n"]


class TestTokeniser:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(_ALPHABET), max_size=40).map("".join))
    def test_same_tokens_as_the_definition(self, text):
        assert list(textio._lines(text)) == list(reference_lines(text))

    def test_lines_without_tokens(self):
        assert list(textio._lines("")) == []
        assert list(textio._lines("# a\n \t\n\x0c")) == []
        assert list(textio._lines(" a\tb # c\r\n\u3000d")) == [(1, ["a", "b"]), (2, ["d"])]


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line)


class TestParsersOnTheCorpus:
    def test_every_document_every_parser(self, monkeypatch):
        # each parser gives an equal object, or the same error, under the
        # tokeniser and under its definition, on every corpus document
        docs = []
        for name in corpus_names():
            entry = corpus_load(name)
            docs += [d for d in (entry.net_text, entry.lts_text) if d is not None]
        assert docs
        parsers = (textio.parse_net, textio.parse_lts, textio.parse_pattern)
        fast = [[_outcome(p, d) for p in parsers] for d in docs]
        monkeypatch.setattr(textio, "_lines", reference_lines)
        slow = [[_outcome(p, d) for p in parsers] for d in docs]
        assert fast == slow
        assert any(not isinstance(o, tuple) for row in fast for o in row)
