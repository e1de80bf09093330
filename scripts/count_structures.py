#!/usr/bin/env python3
"""Tabulate how many structures live on each carrier size.

Counts commutative structures (disjoint unions of abelian groups) and,
inside the built-in table range, the larger family that also admits
non-abelian blocks.  Example:

    python3 scripts/count_structures.py --max-n 8 --list-n 6
"""

from __future__ import annotations

import argparse
import time

from relfrob import enumerate_classical_structures, enumerate_special_frobenius
from relfrob.classify import SPECIAL_ENUM_LIMIT


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=10,
                        help="largest carrier size to count (default 10)")
    parser.add_argument("--list-n", type=int, default=None,
                        help="also list every structure on this carrier size")
    args = parser.parse_args()

    print(f"{'n':>3} {'commutative':>12} {'with non-abelian':>17}")
    start = time.perf_counter()
    for n in range(args.max_n + 1):
        classical = len(enumerate_classical_structures(n))
        if n <= SPECIAL_ENUM_LIMIT:
            special = str(len(enumerate_special_frobenius(n)))
        else:
            special = "-"
        print(f"{n:>3} {classical:>12} {special:>17}")
    print(f"counted in {time.perf_counter() - start:.3f}s")

    if args.list_n is not None:
        n = args.list_n
        specs = (enumerate_special_frobenius(n) if n <= SPECIAL_ENUM_LIMIT
                 else enumerate_classical_structures(n))
        print(f"\nstructures on {n} points:")
        for spec in specs:
            print(f"  {spec.label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
