"""Command line output compared byte for byte with a recorded golden file.

Every case runs through ``main`` in both formats; stdout, stderr and the
exit code must equal the recording in ``tests/data/cli_golden.json``.  An
argument ``@name`` stands for a structure file written from ``FILES`` into
a temporary directory, and no output names a path, so the recording holds
wherever the tests run.

To record again after an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from relfrob import (FrobeniusCandidate, build_biproduct, parse_structure_spec,
                     render_structure)
from relfrob.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

# the pair groupoid on objects {0, 1}: arrow (i, j) is 2*i + j
PAIR_GROUPOID = [(2 * i + j, 2 * j + k, 2 * i + k)
                 for i in range(2) for j in range(2) for k in range(2)]

FILES = {
    "z2z3": render_structure(build_biproduct(parse_structure_spec("2;3"))),
    "s3": render_structure(build_biproduct(parse_structure_spec("S3"))),
    "max_monoid": "n 2\nbot 0\nnabla 0 0 0\nnabla 0 1 1\nnabla 1 0 1\nnabla 1 1 1\n",
    "empty": "n 0\n",
    "groupoid": render_structure(FrobeniusCandidate.from_triples(4, PAIR_GROUPOID, [0, 3])),
    "broken": "n 2\nnabla 9 9 9\n",
}

CASES = [
    # the README session on a "2;3" file
    ["build", "--groups", "2;3"],
    ["build", "--groups", "2;3", "-o", "@written"],
    ["verify", "@z2z3"],
    ["quantum", "@z2z3"],
    ["decompose", "@z2z3"],
    ["elements", "@z2z3"],
    ["subobjects", "@z2z3", "--m", "0"],
    ["subobjects", "@z2z3", "--m", "1"],
    ["subobjects", "@z2z3", "--m", "2"],
    ["enumerate", "--n", "6", "--special"],
    ["brute-force", "--n", "3"],
    ["brute-force", "--n", "3", "--no-commutative"],
    ["cross-validate", "--n", "3"],
    # failing axioms, empty carrier, groupoid, preconditions
    ["verify", "@max_monoid"],
    ["verify", "@s3"],
    ["verify", "@empty"],
    ["decompose", "@groupoid"],
    ["decompose", "@s3"],
    ["decompose", "@max_monoid"],
    ["quantum", "@max_monoid"],
    ["quantum", "@empty"],
    ["elements", "@max_monoid"],
    ["elements", "@empty"],
    ["subobjects", "@empty", "--m", "0"],
    ["subobjects", "@empty", "--m", "1"],
    # small and empty listings, bounds and budgets
    ["enumerate", "--n", "0"],
    ["enumerate", "--n", "4"],
    ["enumerate", "--n", "9", "--special"],
    ["brute-force", "--n", "0"],
    ["brute-force", "--n", "3", "--budget", "4"],
    ["cross-validate", "--n", "2"],
    ["cross-validate", "--n", "4"],
    ["subobjects", "@z2z3", "--m", "9"],
    ["verify", "@broken"],
]

FORMATS = ("human", "machine")


def case_key(argv: list[str], fmt: str) -> str:
    return " ".join(argv + ["--format", fmt])


def run_case(workdir: Path, argv: list[str], fmt: str) -> dict:
    """Run one case in ``workdir``; the result as stored in the golden file."""
    for name, text in FILES.items():
        (workdir / f"{name}.rel").write_text(text)
    args = [str(workdir / f"{a[1:]}.rel") if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args + ["--format", fmt])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(case_key(a, f) for a in CASES for f in FORMATS)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(golden, tmp_path, argv, fmt):
    assert run_case(tmp_path, argv, fmt) == golden[case_key(argv, fmt)]


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        data = {case_key(a, f): run_case(Path(tmp), a, f) for a in CASES for f in FORMATS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(data)} cases in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
