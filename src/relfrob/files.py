"""Line-oriented text format for structures on disk.

One datum per line so files diff cleanly:

    # optional comments
    n 5
    bot 0 2
    nabla 0 0 0
    nabla 0 1 1
    ...

``parse_structure`` reads a text in one walk over its lines, and each line
is checked as it is read: its tokens are integers, ``n`` appears once with
one value in 0..``CARRIER_LIMIT``, a ``nabla`` line is one triple (x, y, z),
meaning z is a value of x*y, with at most ``CARRIER_LIMIT ** 2`` of them (a
full single-valued table at the cap, so the walk stops at the line past it),
and no other field appears.  Then a missing ``n`` line is an error, then
the triples in line order, then the units: each lies in the carrier and
none repeats.  Errors carry the offending line number.  The triples are
checked all at once: their values as one set against the carrier, and a
repeated one as fewer bits than triples once ``Rel._with_converse`` has set
the bits of nabla's rows and of its converse delta's, which
``FrobeniusCandidate`` takes.  Only a text that fails either walks its
triples again, to name the first bad one.
"""

from __future__ import annotations

from itertools import islice, repeat
from operator import add, mul

from .frobenius import CARRIER_LIMIT, FrobeniusCandidate, quoted
from .rel import Rel


class StructureParseError(ValueError):
    """A malformed structure file; ``line`` is 1-based, 0 for global errors."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def parse_structure(text: str) -> FrobeniusCandidate:
    n, triples, units, cap = None, [], [], CARRIER_LIMIT ** 2
    lines = iter(text.splitlines())  # an iterator frees the list once it is read
    if "#" in text:
        lines = (line.split("#", 1)[0] for line in lines)
    for lineno, line in enumerate(map(str.split, lines), start=1):
        if not line:
            continue
        field = line[0]
        try:
            if len(line) == 4 and field == "nabla" and len(triples) < cap:
                _, x, y, z = line
                triples.append((lineno, int(x), int(y), int(z)))
                continue
            values = [*map(int, islice(line, 1, None))]
        except ValueError:
            raise StructureParseError(lineno, f"non-integer token in {quoted(field)} line")
        if field == "nabla":
            if len(line) != 4:
                raise StructureParseError(lineno, "nabla takes three integers x y z")
            raise StructureParseError(lineno, f"more than {cap} nabla lines")
        if field == "n":
            if n is not None:
                raise StructureParseError(lineno, "repeated n line")
            if len(values) != 1 or values[0] < 0:
                raise StructureParseError(lineno, "n takes one non-negative integer")
            if values[0] > CARRIER_LIMIT:
                raise StructureParseError(
                    lineno, f"carrier size {values[0]} exceeds the limit {CARRIER_LIMIT}")
            n = values[0]
        elif field == "bot":
            units.append((lineno, values))
        else:
            raise StructureParseError(lineno, f"unknown field {quoted(field)}")
    if n is None:
        raise StructureParseError(0, "missing n line")
    carrier = {*range(n)}
    _, xs, ys, zs = [*zip(*triples)] or [()] * 4
    fits = {*xs, *ys, *zs} <= carrier
    nabla = fits and Rel._with_converse(n * n, n, map(add, map(mul, xs, repeat(n)), ys), zs)
    if not fits or sum(map(int.bit_count, nabla.rows)) < len(triples):
        seen = set()  # name the first triple outside the carrier or repeated
        for lineno, x, y, z in triples:
            if not {x, y, z} <= carrier:
                raise StructureParseError(
                    lineno, f"triple ({x}, {y}, {z}) outside carrier 0..{n - 1}")
            if (x, y, z) in seen:
                raise StructureParseError(lineno, f"duplicate triple ({x}, {y}, {z})")
            seen.add((x, y, z))
    bot: set[int] = set()
    for lineno, values in units:
        for e in values:
            if e not in carrier:
                raise StructureParseError(lineno, f"unit element {e} outside carrier 0..{n - 1}")
            if e in bot:
                raise StructureParseError(lineno, f"duplicate unit element {e}")
            bot.add(e)
    return FrobeniusCandidate(n, nabla, bot)


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
