"""Structure file parsing and rendering."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given

from conftest import candidate, product_of, relational_tables
from relfrob import (SearchConfig, StructureParseError, brute_force_search,
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
