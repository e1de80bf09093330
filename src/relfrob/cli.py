"""Command line front end.

Subcommands mirror the library: verify, build, enumerate, brute-force,
decompose, quantum, elements, subobjects, cross-validate.  ``--format
machine`` switches every report to one JSON document on stdout with sorted
keys, so output is byte-stable across runs.

Exit codes: 0 success; 1 axiom failure, cross-validation mismatch, exhausted
search budget, or a structure that does not decompose into groups; 2 usage,
parse, or bound errors, including a carrier above ``CARRIER_LIMIT``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import (DecompositionError, PreconditionError, check_duality,
                       classical_elements, comonoid_subobjects, decompose,
                       quantum_structure)
from .classify import (BudgetExceededError, SearchConfig, brute_force_search,
                       cross_validate, enumerate_classical_structures,
                       enumerate_special_frobenius, quotient_by_iso)
from .files import StructureParseError, load_structure, render_structure
from .frobenius import AxiomReport, FroWitness, Verdict, verify_structure
from .groups import build_biproduct, parse_structure_spec


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


def _print_report(report: AxiomReport, machine: bool) -> None:
    if machine:
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
        print(json.dumps(payload, sort_keys=True))
        return
    if report.empty_carrier:
        print("carrier 0: empty biproduct, all laws hold vacuously")
    for name, v in report.axioms():
        print(_verdict_line(name, v))
    if report.is_classical:
        print("verdict: classical structure")
    elif report.is_special_frobenius:
        print("verdict: special Frobenius structure (not commutative)")
    else:
        print("verdict: fails the axioms above")


def cmd_verify(args) -> int:
    c = load_structure(args.file)
    report = verify_structure(c)
    _print_report(report, args.format == "machine")
    return 0 if report.is_classical else 1


def cmd_build(args) -> int:
    spec = parse_structure_spec(args.groups)
    c = build_biproduct(spec)
    text = render_structure(c)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_enumerate(args) -> int:
    if args.special:
        specs = enumerate_special_frobenius(args.n)
    else:
        specs = enumerate_classical_structures(args.n)
    if args.format == "machine":
        print(json.dumps({"n": args.n, "special": bool(args.special),
                          "count": len(specs),
                          "structures": [s.label for s in specs]}, sort_keys=True))
    else:
        for s in specs:
            print(s.label)
        kind = "special Frobenius" if args.special else "classical"
        print(f"total: {len(specs)} {kind} structures on {args.n} points")
    return 0


def cmd_brute_force(args) -> int:
    cfg = SearchConfig(n=args.n, require_commutative=not args.no_commutative,
                       budget=args.budget)
    cands = brute_force_search(cfg)
    classes = quotient_by_iso(cands)
    if args.format == "machine":
        print(json.dumps({
            "n": args.n,
            "commutative_required": cfg.require_commutative,
            "count": len(cands),
            "classes": [{"triples": [list(t) for t in rep.triples()],
                         "bot": sorted(rep.bot), "size": size}
                        for rep, size in classes],
        }, sort_keys=True))
    else:
        for rep, size in classes:
            trips = " ".join(f"{x}{y}->{z}" for x, y, z in rep.triples())
            print(f"class of size {size}: bot {_fmt_set(rep.bot)} table {trips}")
        print(f"total: {_count(len(cands), 'labeled candidate')} "
              f"in {_count(len(classes), 'class', 'classes')}")
    return 0


def cmd_decompose(args) -> int:
    c = load_structure(args.file)
    result = decompose(c)
    if args.format == "machine":
        print(json.dumps({
            "blocks": [{"elements": sorted(elems), "group": g.label}
                       for elems, g in result.blocks],
            "spec": result.spec.label,
        }, sort_keys=True))
    else:
        for elems, g in result.blocks:
            print(f"block {_fmt_set(elems)}: {g.label}")
        print(f"spec: {result.spec.label}")
    return 0


def cmd_quantum(args) -> int:
    c = load_structure(args.file)
    q = quantum_structure(c)
    duality = check_duality(q)
    if args.format == "machine":
        print(json.dumps({"n": q.n, "eta": [list(p) for p in q.eta_pairs()],
                          "duality_ok": duality.ok}, sort_keys=True))
    else:
        print(f"η = {_fmt_pairs(q.eta_pairs())}")
        print("duality: pass" if duality.ok else f"duality: FAIL witness {duality.witness}")
    return 0 if duality.ok else 1


def cmd_elements(args) -> int:
    c = load_structure(args.file)
    elems = classical_elements(c)
    if args.format == "machine":
        print(json.dumps({"count": len(elems),
                          "elements": [sorted(e) for e in elems]}, sort_keys=True))
    else:
        for e in elems:
            print(_fmt_set(e))
        print(f"total: {_count(len(elems), 'classical element')}")
    return 0


def cmd_subobjects(args) -> int:
    c = load_structure(args.file)
    rels = comonoid_subobjects(c, args.m)
    if args.format == "machine":
        print(json.dumps({"m": args.m, "count": len(rels),
                          "relations": [sorted(map(list, r.pairs())) for r in rels]},
                         sort_keys=True))
    else:
        for r in rels:
            print(_fmt_pairs(r.pairs()) if r.pairs() else "(empty relation)")
        print(f"total: {_count(len(rels), 'comonoid subobject')} "
              f"from carrier {args.m}")
    return 0


def cmd_cross_validate(args) -> int:
    result = cross_validate(args.n, budget=args.budget)
    if args.format == "machine":
        print(json.dumps({
            "n": result.n, "ok": result.ok, "message": result.message,
            "classes": [{"spec": spec.label, "size": size}
                        for spec, _, size in result.matches],
        }, sort_keys=True))
    else:
        for spec, _, size in result.matches:
            print(f"{spec.label}  (class size {size})")
        print(("OK: " if result.ok else "MISMATCH: ") + result.message)
    return 0 if result.ok else 1


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
                       help="exhaustive table search on a labeled carrier")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--no-commutative", action="store_true",
                   help="do not require commutativity")
    p.add_argument("--budget", type=int, help="node budget for the search")
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
    p.add_argument("--budget", type=int, help="node budget (required for n=4)")
    p.set_defaults(fn=cmd_cross_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StructureParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc} ({len(exc.found)} candidates found so far)", file=sys.stderr)
        return 1
    except (PreconditionError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
