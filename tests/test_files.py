"""Structure file parsing and rendering."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import naive
from conftest import candidate, product_of, relational_tables
from relfrob import (Rel, SearchConfig, StructureParseError, brute_force_search,
                     load_structure, parse_structure, render_structure,
                     save_structure)
from relfrob.frobenius import CARRIER_LIMIT


def test_parse_basic_file():
    c = parse_structure("""
# a two element group
n 2
bot 0
nabla 0 0 0
nabla 0 1 1   # trailing comments are fine
nabla 1 0 1
nabla 1 1 0
""")
    assert c.n == 2 and c.bot == frozenset({0})
    assert product_of(c, 1, 1) == frozenset({0})


def test_parse_accepts_any_line_order():
    c = parse_structure("nabla 0 0 0\nbot 0\nn 1\n")
    assert c.n == 1


def test_parse_empty_carrier():
    c = parse_structure("n 0\n")
    assert c.n == 0 and c.bot == frozenset()


def test_render_is_canonical_and_round_trips(z3):
    text = render_structure(z3)
    lines = text.splitlines()
    assert lines[0] == "n 3"
    assert lines[1] == "bot 0"
    assert lines[2:] == sorted(lines[2:])
    assert text.endswith("\n")
    again = parse_structure(text)
    assert again.n == z3.n and again.bot == z3.bot and again.nabla == z3.nabla


@given(relational_tables())
def test_round_trip_arbitrary_tables(table):
    n, triples, bot = table
    c = candidate(n, triples, bot)
    again = parse_structure(render_structure(c))
    assert again.triples() == c.triples() and again.bot == c.bot


def test_round_trip_search_output():
    for c in brute_force_search(SearchConfig(3)):
        again = parse_structure(render_structure(c))
        assert again.nabla == c.nabla and again.bot == c.bot


@pytest.mark.parametrize("text,line,fragment", [
    ("n x", 1, "non-integer"),
    ("n 1\nn 1", 2, "repeated"),
    ("n 1 2", 1, "one non-negative"),
    ("n -1", 1, "one non-negative"),
    ("n 1\nnabla 0 0", 2, "three integers"),
    ("n 1\nwat 0", 2, "unknown field"),
    ("n 2\nnabla 0 0 2", 2, "outside carrier"),
    ("n 2\nnabla 0 0 0\nnabla 0 0 0", 3, "duplicate triple"),
    ("n 2\nbot 0 0", 2, "duplicate unit"),
    ("n 2\nbot 5", 2, "outside carrier"),
    ("nabla 0 0 0", 0, "missing n"),
])
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(StructureParseError) as info:
        parse_structure(text)
    assert info.value.line == line
    assert fragment in str(info.value)
    if line:
        assert str(info.value).startswith(f"line {line}:")


def test_error_cites_first_offending_line():
    # the second bot line introduces the duplicate, so it gets the blame
    with pytest.raises(StructureParseError) as info:
        parse_structure("n 2\nbot 0\nbot 0")
    assert info.value.line == 3


def test_save_and_load(tmp_path, z2):
    path = tmp_path / "z2.rel"
    save_structure(str(path), z2)
    loaded = load_structure(str(path))
    assert loaded.nabla == z2.nabla and loaded.bot == z2.bot
    assert path.read_text() == render_structure(z2)


def test_nabla_line_cap_is_inclusive():
    # a full single-valued table at the carrier cap has CARRIER_LIMIT ** 2 lines
    n = CARRIER_LIMIT
    text = f"n {n}\n" + "".join(f"nabla {x} {y} {(x + y) % n}\n"
                                 for x in range(n) for y in range(n))
    assert len(parse_structure(text).triples()) == n * n


def test_full_table_at_the_cap_parses_in_memory_proportional_to_the_text():
    # Z128: 16 386 lines, each held as one tuple of its values while the
    # text is walked, and the lines let go once read
    n = CARRIER_LIMIT
    text = f"n {n}\nbot 0\n" + "".join(f"nabla {x} {y} {(x + y) % n}\n"
                                        for x in range(n) for y in range(n))
    tracemalloc.start()
    try:
        c = parse_structure(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text.splitlines()) == 16_386 and c.bot == {0} and c.is_single_valued()
    assert peak <= 20 * len(text), f"peak {peak} B for a {len(text)} B text"


LONG_LINE = " ".join(["0"] * 100_000)


@pytest.mark.parametrize("text,line,fragment", [
    (f"n {LONG_LINE}\n", 1, "one non-negative"),
    (f"bot {LONG_LINE}\nn 2\n", 1, "duplicate unit"),
    (f"n 2\nbot {LONG_LINE}\n", 2, "duplicate unit"),
    (f"n 2\nnabla {LONG_LINE}\n", 2, "three integers"),
    (f"n 2\nwat {LONG_LINE}\n", 2, "unknown field"),
], ids=["n", "bot-before-n", "bot-after-n", "nabla", "unknown"])
def test_one_long_line_parses_in_memory_proportional_to_it(text, line, fragment):
    # a bot line is held as one list of its values, like every other line,
    # not as one (line, value) tuple per value
    tracemalloc.start()
    try:
        with pytest.raises(StructureParseError) as info:
            parse_structure(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.line == line and fragment in str(info.value)
    assert peak <= 12 * len(text) + 2 ** 20, f"peak {peak} B for a {len(text)} B text"


def test_nabla_lines_past_the_cap_fail_in_memory_proportional_to_the_text():
    # four times the cap of nabla lines: the first line past the cap fails,
    # and no line after it is split or converted
    cap = CARRIER_LIMIT ** 2
    text = f"n {CARRIER_LIMIT}\n" + "".join(
        f"nabla {k // CARRIER_LIMIT % CARRIER_LIMIT} {k % CARRIER_LIMIT} {k // cap}\n"
        for k in range(4 * cap))
    tracemalloc.start()
    try:
        with pytest.raises(StructureParseError) as info:
            parse_structure(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"line {cap + 2}: more than {cap} nabla lines"
    assert peak <= 8 * len(text), f"peak {peak} B for a {len(text)} B text"


def test_nabla_words_past_the_cap_in_a_comment_parse_as_without_it(z3):
    # nabla words in a comment count toward no cap; a valid text parses as
    # it does without them
    text = render_structure(z3)
    again = parse_structure("# " + "nabla " * (CARRIER_LIMIT ** 2 + 1) + "\n" + text)
    assert again == z3 and again.delta == z3.delta


_TOKENS = st.one_of(st.integers(-1, 5).map(str),
                    st.sampled_from(["x", "07", "+1", "-0", "1_0", "1.0", "nabla", "bot", "n"]))


def _line(field: str, tokens, sizes=st.integers(0, 5)) -> st.SearchStrategy[str]:
    return sizes.flatmap(lambda k: st.lists(tokens, min_size=k, max_size=k)).map(
        lambda ts: " ".join([field, *ts]))


@st.composite
def structure_texts(draw) -> str:
    """Texts a file might hold, valid or not: triples in and out of range,
    repeated ones, units, comments, blank lines, a missing or repeated n,
    non-integer tokens, lines of the wrong length, unknown fields, and LF
    or CRLF line ends.  Half of them break no check of a single line."""
    n = draw(st.integers(0, 4))
    inside = st.integers(0, max(n - 1, 0)).map(str)
    value = st.one_of(inside, inside, inside, st.sampled_from(["-1", str(n)]))  # outside
    kinds = [_line("nabla", value, st.just(3))] * 6 + [
        _line("bot", value, st.integers(0, 3)), st.sampled_from(["", "  ", "# nabla 0 0 0"])]
    if draw(st.booleans()):
        kinds += [_line("nabla", _TOKENS), _line("bot", _TOKENS), _line("n", _TOKENS),
                  st.sampled_from(["wat 1", "nablax 0 0 0", "\tnabla\t0  0 0", "nabla", "bot"])]
    lines = draw(st.lists(st.one_of(kinds), max_size=12))
    if draw(st.integers(0, 3)):
        lines.insert(draw(st.integers(0, len(lines))), f"n {n}")
    lines = [line + " # nabla 1 x" if line and draw(st.booleans()) else line for line in lines]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=400)
@given(structure_texts())
@example("n 2\nbot -1\n")
@example("n 2\nbot 1\nbot 0 1\nnabla 0 0 0\n")
@example("n 2\nnabla 0 -1 0\n")
@example("n 2\nnabla 1 -1 0\n")
@example("n 2\nnabla 0 0 0 1\nnabla 0 1\n")
@example("n 2\nnabla 0 0 0\nnabla 0 0 0\nnabla 2 0 0\n")
@example("n 2\nnabla 2 0 0\nnabla 0 0 0\nnabla 0 0 0\n")
@example("nabla 0 0 0 # x\r\nbot 0\r\nn 1 # n 2\r\n")
def test_parse_matches_the_line_by_line_reference(text):
    try:
        want = naive.parse_structure(text)
    except StructureParseError as error:
        with pytest.raises(StructureParseError) as info:
            parse_structure(text)
        assert (info.value.line, str(info.value)) == (error.line, str(error))
        return
    got = parse_structure(text)
    assert got == want
    assert got.delta == Rel(got.nabla.dom, got.nabla.cod, got.nabla.rows).converse()
