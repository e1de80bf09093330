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
errors carry the offending line number.  Each triple sets bit z of
nabla's row x*n + y directly, so a duplicate is a bit already set; the
rows are filled once ``n`` is known, which may come after the ``nabla``
lines.  Each ``bot`` line is kept as one list of its values, and the units
are checked after the triples, value by value in line order.
"""

from __future__ import annotations

from .frobenius import CARRIER_LIMIT, FrobeniusCandidate, quoted
from .rel import Rel


class StructureParseError(ValueError):
    """A malformed structure file; ``line`` is 1-based, 0 for global errors."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def parse_structure(text: str) -> FrobeniusCandidate:
    n: int | None = None
    triples: list[tuple[int, int, int, int]] = []  # (line, x, y, z)
    units: list[tuple[int, list[int]]] = []  # (line, values of one bot line)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        field, *rest = line.split()
        try:
            values = [int(tok) for tok in rest]
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
    return FrobeniusCandidate(n, Rel(n * n, n, rows), bot)


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
