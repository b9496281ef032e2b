"""The block-wise reader (``graph.text_columns`` under ``parse_graph`` and
``parse_td``) against the streaming reader it replaced
(``reference_reader``): on every text, equal objects or the same error
message.  Texts are benchmark-like hosts and their decompositions after
the CLI fuzzer's mutations, plus comments, blank lines, every line
separator of ``str.splitlines``, other whitespace, signed and underscored
integers and odd tokens; the block size is shrunk so that small texts span
many blocks, and one host and one decomposition are longer than a block
at its real size."""

from functools import cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_reader
from shallowtd import graph
from shallowtd.decomp import emit_td, heuristic_td, parse_td
from shallowtd.generators import grid
from shallowtd.graph import EmbeddingError, GraphInputError, emit_graph, parse_graph
from test_cli import FUZZ_HOSTS, _mutated

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)

SEPARATORS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]
# whitespace inside a line: str.split splits on each, str.splitlines on none
SPACES = [" ", "\t", "  ", "\x1f", "\xa0", " \t "]
# integers spelled another way, and tokens that are no integer at all
TOKENS = ["+3", "-0", "-2", "0_1", "1_0", "+1_2", "\u0663", "007",
          "_1", "1_", "1__0", "1.0", "0x1", "x", "", "rot", "b", "e", "td"]
READERS = {"graph": (parse_graph, reference_reader.parse_graph),
           "td": (parse_td, reference_reader.parse_td)}


def _td_text(text: str) -> str:
    obj = parse_graph(text)
    g = getattr(obj, "graph", obj)
    return emit_td(heuristic_td(g), g.n)


TEXTS = {"graph": FUZZ_HOSTS, "td": [_td_text(h) for h in FUZZ_HOSTS]}


@cache
def _long_texts() -> dict[str, str]:
    """A host and a decomposition of more lines than one block holds."""
    e = grid(33, 33)
    texts = {"graph": emit_graph(e), "td": emit_td(heuristic_td(e.graph), e.n)}
    assert all(len(t.splitlines()) > graph.BLOCK_LINES for t in texts.values())
    return texts


def _outcome(parse, text):
    try:
        return "parsed", parse(text)
    except (GraphInputError, EmbeddingError) as exc:
        return type(exc).__name__, str(exc)


def _assert_same(fmt: str, text: str) -> None:
    new, reference = READERS[fmt]
    assert _outcome(new, text) == _outcome(reference, text), text[:2000]


def _respelled(draw, lines: list[str], at) -> None:
    """One line of `lines`, drawn by `at`, changed once: a comment, a blank
    line, another token, other spaces or a keyword moved."""
    i = draw(at)
    how = draw(st.sampled_from(["comment", "trailing-comment", "blank",
                                "token", "spaces", "hash-in-token"]))
    words = lines[i].split() or ["v"]
    if how == "comment":
        lines.insert(i, "#" + draw(st.sampled_from(["", " note", "e 0 1", "#"])))
    elif how == "trailing-comment":
        lines[i] += draw(st.sampled_from([" # e 0 0", "#", "\t#x y"]))
    elif how == "blank":
        lines.insert(i, draw(st.sampled_from(SPACES + [""])))
    elif how == "token":
        words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(TOKENS))
        lines[i] = " ".join(words)
    elif how == "spaces":
        lines[i] = draw(st.sampled_from(SPACES)).join(words) + draw(
            st.sampled_from(["", " ", "\t"]))
    else:
        j = draw(st.integers(0, len(words) - 1))
        words[j] += "#" + draw(st.sampled_from(["", "1", "x"]))
        lines[i] = " ".join(words)


def _joined(draw, lines: list[str]) -> str:
    sep = draw(st.sampled_from(SEPARATORS))
    return sep.join(lines) + draw(st.sampled_from(["", sep, "\n"]))


@PROPERTY
@given(st.data())
def test_reader_matches_reference(data):
    fmt = data.draw(st.sampled_from(sorted(READERS)))
    text = data.draw(st.sampled_from(TEXTS[fmt]))
    if data.draw(st.booleans()):
        text = _mutated(data.draw, text)
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(0, 3))):
        if lines:
            _respelled(data.draw, lines, st.integers(0, len(lines) - 1))
    text = _joined(data.draw, lines)
    with mock.patch.object(graph, "BLOCK_LINES",
                           data.draw(st.sampled_from([1, 2, 3, 5, 8, 2048]))):
        _assert_same(fmt, text)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_reader_matches_reference_past_the_first_block(data):
    """A change in a later block of a long text, and sometimes a second
    one anywhere."""
    fmt = data.draw(st.sampled_from(sorted(READERS)))
    lines = _long_texts()[fmt].splitlines()
    later = st.integers(graph.BLOCK_LINES, len(lines) - 1)
    _respelled(data.draw, lines, later)
    if data.draw(st.booleans()):
        _respelled(data.draw, lines, st.integers(0, len(lines) - 1))
    _assert_same(fmt, _joined(data.draw, lines))


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_long_texts_parse_alike(fmt):
    _assert_same(fmt, _long_texts()[fmt])
