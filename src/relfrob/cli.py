"""Command line front end.

Subcommands mirror the library: verify, build, enumerate, brute-force,
decompose, quantum, elements, subobjects, cross-validate.  Each command
returns its exit code, one payload dict and the human lines rendered from
it; ``main`` prints the lines, or under ``--format machine`` the payload as
one JSON document with sorted keys, so output is byte-stable across runs.
``build`` has no payload and writes the structure file in both formats.
``main`` may be called repeatedly in one process: the parser is built on
the first call and cached, since ``parse_args`` does not change it.

Exit codes: 0 success; 1 axiom failure, cross-validation mismatch, exhausted
search budget, or a structure that does not decompose into groups; 2 usage,
parse, or bound errors, including a carrier above ``CARRIER_LIMIT``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .analysis import (DecompositionError, PreconditionError, check_duality,
                       classical_elements, comonoid_subobjects, decompose,
                       quantum_structure)
from .classify import (BudgetExceededError, SearchConfig, cross_validate,
                       enumerate_classical_structures, enumerate_special_frobenius,
                       search_classes)
from .files import load_structure, render_structure, save_structure
from .frobenius import FroWitness, Verdict, verify_structure
from .groups import build_biproduct, parse_structure_spec

# exit code, payload for --format machine (None: print the lines), human lines
Result = tuple[int, dict | None, list[str]]


def _fmt_set(items) -> str:
    return "{" + ",".join(str(x) for x in sorted(items)) + "}"


def _fmt_pairs(pairs) -> str:
    return "{" + ",".join(f"({a},{b})" for a, b in sorted(pairs)) + "}"


def _count(k: int, noun: str, plural: str | None = None) -> str:
    return f"{k} {noun if k == 1 else (plural or noun + 's')}"


def _json_witness(w) -> object:
    if w is None:
        return None
    if isinstance(w, FroWitness):
        return {"i": w.i, "j": w.j,
                "fiber": sorted(map(list, w.fiber)),
                "split_left": sorted(map(list, w.split_left)),
                "split_right": sorted(map(list, w.split_right))}
    return [sorted(x) if isinstance(x, frozenset) else x for x in w]


def _verdict_line(name: str, v: Verdict | None) -> str:
    if v is None:
        return f"{name:<20} skipped (multiplication is not single-valued)"
    if v.ok:
        return f"{name:<20} pass"
    if isinstance(v.witness, FroWitness):
        w = v.witness
        detail = (f"at ({w.i}, {w.j}): fiber {_fmt_pairs(w.fiber)}"
                  f" | split-left {_fmt_pairs(w.split_left)}"
                  f" | split-right {_fmt_pairs(w.split_right)}"
                  f"; {len(v.violations)} violating pair(s)")
    else:
        detail = f"witness {v.witness}"
    return f"{name:<20} FAIL {detail}"


def cmd_verify(args) -> Result:
    report = verify_structure(load_structure(args.file))
    payload = {
        "n": report.n,
        "empty_carrier": report.empty_carrier,
        "classical": report.is_classical,
        "special_frobenius": report.is_special_frobenius,
        "axioms": {
            name: None if v is None else {
                "ok": v.ok,
                "witness": _json_witness(v.witness),
                "violations": [list(p) for p in v.violations],
            }
            for name, v in report.axioms()
        },
    }
    lines = [_verdict_line(name, v) for name, v in report.axioms()]
    if report.empty_carrier:
        lines.insert(0, "carrier 0: empty biproduct, all laws hold vacuously")
    if report.is_classical:
        lines.append("verdict: classical structure")
    elif report.is_special_frobenius:
        lines.append("verdict: special Frobenius structure (not commutative)")
    else:
        lines.append("verdict: fails the axioms above")
    return (0 if report.is_classical else 1), payload, lines


def cmd_build(args) -> Result:
    c = build_biproduct(parse_structure_spec(args.groups))
    if args.output:
        save_structure(args.output, c)
        return 0, None, []
    return 0, None, render_structure(c).splitlines()


def cmd_enumerate(args) -> Result:
    if args.special:
        specs = enumerate_special_frobenius(args.n)
    else:
        specs = enumerate_classical_structures(args.n)
    payload = {"n": args.n, "special": bool(args.special), "count": len(specs),
               "structures": [s.label for s in specs]}
    kind = "special Frobenius" if args.special else "classical"
    return 0, payload, payload["structures"] + [
        f"total: {len(specs)} {kind} structures on {args.n} points"]


def cmd_brute_force(args) -> Result:
    commutative = not args.no_commutative
    classes = [{"triples": [list(t) for t in rep.triples()], "bot": sorted(rep.bot), "size": size}
               for rep, size in search_classes(SearchConfig(args.n, commutative, args.budget))]
    payload = {"n": args.n, "commutative_required": commutative,
               "count": sum(k["size"] for k in classes), "classes": classes}
    lines = [f"class of size {k['size']}: bot {_fmt_set(k['bot'])} table "
             + " ".join(f"{x}{y}->{z}" for x, y, z in k["triples"]) for k in classes]
    lines.append(f"total: {_count(payload['count'], 'labeled candidate')} "
                 f"in {_count(len(classes), 'class', 'classes')}")
    return 0, payload, lines


def cmd_decompose(args) -> Result:
    result = decompose(load_structure(args.file))
    payload = {"blocks": [{"elements": sorted(elems), "group": g.label}
                          for elems, g in result.blocks],
               "spec": result.spec.label}
    lines = [f"block {_fmt_set(b['elements'])}: {b['group']}" for b in payload["blocks"]]
    return 0, payload, lines + [f"spec: {payload['spec']}"]


def cmd_quantum(args) -> Result:
    q = quantum_structure(load_structure(args.file))
    duality = check_duality(q)
    payload = {"n": q.n, "eta": [list(p) for p in q.eta_pairs()], "duality_ok": duality.ok}
    lines = [f"η = {_fmt_pairs(payload['eta'])}",
             "duality: pass" if duality.ok else f"duality: FAIL witness {duality.witness}"]
    return (0 if duality.ok else 1), payload, lines


def cmd_elements(args) -> Result:
    elems = [sorted(e) for e in classical_elements(load_structure(args.file))]
    payload = {"count": len(elems), "elements": elems}
    return 0, payload, [_fmt_set(e) for e in elems] + [
        f"total: {_count(len(elems), 'classical element')}"]


def cmd_subobjects(args) -> Result:
    rels = comonoid_subobjects(load_structure(args.file), args.m)
    payload = {"m": args.m, "count": len(rels),
               "relations": [sorted(map(list, r.pairs())) for r in rels]}
    lines = [_fmt_pairs(pairs) if pairs else "(empty relation)"
             for pairs in payload["relations"]]
    return 0, payload, lines + [
        f"total: {_count(len(rels), 'comonoid subobject')} from carrier {args.m}"]


def cmd_cross_validate(args) -> Result:
    result = cross_validate(args.n, budget=args.budget)
    classes = [{"spec": spec.label, "size": size} for spec, _, size in result.matches]
    payload = {"n": result.n, "ok": result.ok, "message": result.message,
               "classes": classes}
    lines = [f"{k['spec']}  (class size {k['size']})" for k in classes]
    lines.append(("OK: " if result.ok else "MISMATCH: ") + result.message)
    return (0 if result.ok else 1), payload, lines


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "machine"), default="human",
                        help="output style (machine = one JSON document)")

    parser = argparse.ArgumentParser(
        prog="relfrob",
        description="Verify, build, enumerate, and decompose special Frobenius "
                    "structures over finite relations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="check every axiom of a structure file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("build", parents=[common],
                       help="build a disjoint union of groups as a structure file")
    p.add_argument("--groups", required=True,
                   help="block spec, e.g. '4;2,2' or 'S3;2'")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("enumerate", parents=[common],
                       help="list structures on n points up to relabeling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--special", action="store_true",
                   help="allow non-abelian blocks from the built-in tables")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("brute-force", parents=[common],
                       help="exhaustive table search, reported as relabeling classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--no-commutative", action="store_true",
                   help="do not require commutativity")
    p.add_argument("--budget", type=int,
                   help="node budget: one per skeleton type and per cell value tried")
    p.set_defaults(fn=cmd_brute_force)

    p = sub.add_parser("decompose", parents=[common],
                       help="split a structure file into group blocks")
    p.add_argument("file")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("quantum", parents=[common],
                       help="print the self-duality pairing of a structure file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_quantum)

    p = sub.add_parser("elements", parents=[common],
                       help="list the classical elements of a structure file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_elements)

    p = sub.add_parser("subobjects", parents=[common],
                       help="list monic comonoid maps from a standard m-carrier")
    p.add_argument("file")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(fn=cmd_subobjects)

    p = sub.add_parser("cross-validate", parents=[common],
                       help="compare the exhaustive search against the enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, help="node budget")
    p.set_defaults(fn=cmd_cross_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, lines = args.fn(args)
    except BudgetExceededError as exc:
        print(f"error: {exc} ({len(exc.found)} candidates found so far)", file=sys.stderr)
        return 1
    except (PreconditionError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "machine" and payload is not None:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code

if __name__ == "__main__":
    sys.exit(main())
