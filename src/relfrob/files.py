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
errors carry the offending line number.
"""

from __future__ import annotations

from .frobenius import CARRIER_LIMIT, FrobeniusCandidate


class StructureParseError(ValueError):
    """A malformed structure file; ``line`` is 1-based, 0 for global errors."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def parse_structure(text: str) -> FrobeniusCandidate:
    n: int | None = None
    triples: list[tuple[int, int, int]] = []
    triple_lines: list[int] = []
    bot: list[int] = []
    bot_lines: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        field, *rest = line.split()
        try:
            values = [int(tok) for tok in rest]
        except ValueError:
            raise StructureParseError(lineno, f"non-integer token in {field!r} line")
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
            triples.append((values[0], values[1], values[2]))
            triple_lines.append(lineno)
        elif field == "bot":
            for v in values:
                bot.append(v)
                bot_lines.append(lineno)
        else:
            raise StructureParseError(lineno, f"unknown field {field!r}")

    if n is None:
        raise StructureParseError(0, "missing n line")
    seen_triples: set[tuple[int, int, int]] = set()
    for (x, y, z), lineno in zip(triples, triple_lines):
        if not (0 <= x < n and 0 <= y < n and 0 <= z < n):
            raise StructureParseError(lineno, f"triple ({x}, {y}, {z}) outside carrier 0..{n - 1}")
        if (x, y, z) in seen_triples:
            raise StructureParseError(lineno, f"duplicate triple ({x}, {y}, {z})")
        seen_triples.add((x, y, z))
    seen_bot: set[int] = set()
    for e, lineno in zip(bot, bot_lines):
        if not 0 <= e < n:
            raise StructureParseError(lineno, f"unit element {e} outside carrier 0..{n - 1}")
        if e in seen_bot:
            raise StructureParseError(lineno, f"duplicate unit element {e}")
        seen_bot.add(e)
    return FrobeniusCandidate.from_triples(n, triples, seen_bot)


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
