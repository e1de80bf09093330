"""End-to-end command line behaviour through main()."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import naive
import relfrob
import relfrob.classify
import relfrob.cli
import relfrob.groups
from relfrob import (BUILTIN_NONABELIAN, FrobeniusCandidate, StructureSpec,
                     build_biproduct, save_structure)
from relfrob.classify import ENUM_CARRIER_LIMIT
from relfrob.cli import main
from relfrob.frobenius import CARRIER_LIMIT

# the pair groupoid on objects {0, 1}: arrow (i, j) is 2*i + j
PAIR_GROUPOID = [(2 * i + j, 2 * j + k, 2 * i + k)
                 for i in range(2) for j in range(2) for k in range(2)]

Z2_TEXT = "n 2\nbot 0\nnabla 0 0 0\nnabla 0 1 1\nnabla 1 0 1\nnabla 1 1 0\n"
MAX_MONOID_TEXT = "n 2\nbot 0\nnabla 0 0 0\nnabla 0 1 1\nnabla 1 0 1\nnabla 1 1 1\n"


@pytest.fixture
def z2_file(tmp_path):
    path = tmp_path / "z2.rel"
    path.write_text(Z2_TEXT)
    return str(path)


@pytest.fixture
def max_monoid_file(tmp_path):
    path = tmp_path / "mm.rel"
    path.write_text(MAX_MONOID_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_passes_classical(z2_file, capsys):
    code, out, _ = run(capsys, "verify", z2_file)
    assert code == 0
    assert "verdict: classical structure" in out
    assert out.count("pass") == 7


def test_verify_fails_max_monoid(max_monoid_file, capsys):
    code, out, _ = run(capsys, "verify", max_monoid_file)
    assert code == 1
    assert "FAIL" in out
    assert "fails the axioms above" in out


def test_verify_skips_the_pointwise_route_on_a_multi_valued_table(tmp_path, capsys):
    path = tmp_path / "multi.rel"
    path.write_text(Z2_TEXT + "nabla 1 1 1\n")  # 1*1 takes the values 0 and 1
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "frobenius-pointwise  skipped (multiplication is not single-valued)\n" in out


def test_verify_noncommutative_structure_fails(tmp_path, capsys):
    path = tmp_path / "s3.rel"
    save_structure(str(path), build_biproduct(StructureSpec((BUILTIN_NONABELIAN["S3"],))))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "special Frobenius structure (not commutative)" in out


def test_verify_machine_document(max_monoid_file, capsys):
    code, out, _ = run(capsys, "verify", "--format", "machine", max_monoid_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["n"] == 2 and doc["classical"] is False
    fro = doc["axioms"]["frobenius"]
    assert fro["ok"] is False
    assert fro["violations"] == [[0, 1], [1, 0], [1, 1]]
    assert doc["axioms"]["frobenius"] == doc["axioms"]["frobenius-pointwise"]


def test_verify_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.rel"
    path.write_text("n 2\nnabla 9 9 9\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "line 2" in err


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/structure.rel")
    assert code == 2
    assert "error" in err


def test_verify_a_directory_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "verify", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_build_into_a_directory_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "build", "--groups", "2", "-o", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_build_to_stdout_and_verify_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "--groups", "2;3")
    assert code == 0
    path = tmp_path / "built.rel"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0


def test_build_writes_output_file(tmp_path, capsys):
    target = tmp_path / "z6.rel"
    code, out, _ = run(capsys, "build", "--groups", "6", "-o", str(target))
    assert code == 0
    assert target.read_text().startswith("n 6\n")


def test_build_rejects_bad_spec(capsys):
    code, _, err = run(capsys, "build", "--groups", "wat")
    assert code == 2
    assert "wat" in err


def test_enumerate_human_listing(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("total:")
    assert len(lines) == 7  # 6 structures plus the total
    assert "Z4" in out and "Z2xZ2" in out


def test_enumerate_special_machine_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "6", "--special",
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 14
    assert "S3" in doc["structures"]


def test_enumerate_over_the_special_bound(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "9", "--special")
    assert code == 2
    assert "bound" in err


def test_enumerate_a_negative_carrier_exits_2(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "-1")
    assert code == 2 and out == ""
    assert err == "error: carrier size -1 is negative\n"


def test_brute_force_machine(capsys):
    code, out, _ = run(capsys, "brute-force", "--n", "2", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert sorted(c["size"] for c in doc["classes"]) == [1, 2]


def test_brute_force_budget_exhaustion(capsys):
    code, _, err = run(capsys, "brute-force", "--n", "3", "--budget", "4")
    assert code == 1
    assert "budget" in err


@pytest.mark.parametrize("command,n,budget", [("brute-force", "4", "-1"),
                                              ("cross-validate", "3", "-5")])
def test_negative_budget_exits_2(capsys, command, n, budget):
    code, out, err = run(capsys, command, "--n", n, "--budget", budget)
    assert code == 2 and out == ""
    assert err == f"error: budget {budget} is negative\n"


def test_zero_budget_exhausts_at_the_first_node(capsys):
    code, out, err = run(capsys, "cross-validate", "--n", "3", "--budget", "0")
    assert code == 1 and out == ""
    assert err == "error: search budget exhausted after 1 nodes (0 candidates found so far)\n"


@pytest.mark.parametrize("commutative", [True, False])
@pytest.mark.parametrize("n", range(6))
def test_brute_force_reports_the_labeled_quotient(capsys, n, commutative):
    # the command runs the class route; its payload is the one the labeled
    # route gives: every labeled table searched, then quotiented
    cfg = relfrob.SearchConfig(n, commutative)
    cands = naive.labeled_search(cfg)
    want = {"n": n, "commutative_required": commutative, "count": len(cands),
            "classes": [{"triples": [list(t) for t in rep.triples()],
                         "bot": sorted(rep.bot), "size": size}
                        for rep, size in relfrob.quotient_by_iso(cands)]}
    mode = [] if commutative else ["--no-commutative"]
    code, out, _ = run(capsys, "brute-force", "--n", str(n), *mode, "--format", "machine")
    assert code == 0
    assert json.loads(out) == want


def test_brute_force_and_cross_validate_share_one_budget(capsys):
    # both commands and the library's brute_force_search generate the same
    # skeletons and fill them alike, so a budget stops them at the same node
    # with the same tables found; the class route explores 17 nodes at n = 3
    for budget in range(41):
        code, _, err = run(capsys, "brute-force", "--n", "3", "--budget", str(budget))
        cross_code, _, cross_err = run(capsys, "cross-validate", "--n", "3",
                                       "--budget", str(budget))
        assert (code, err) == (cross_code, cross_err), budget
        if budget < 17:
            assert code == 1
            assert err.startswith(f"error: search budget exhausted after {budget + 1} nodes")
            with pytest.raises(relfrob.BudgetExceededError) as info:
                relfrob.brute_force_search(relfrob.SearchConfig(3, budget=budget))
            assert err == f"error: {info.value} ({len(info.value.found)} candidates found so far)\n"
        else:
            assert (code, err) == (0, "")
            assert len(relfrob.brute_force_search(relfrob.SearchConfig(3, budget=budget))) == 10


@pytest.mark.parametrize("commutative,budget", [(True, 15), (False, 18)])
def test_brute_force_budget_counts_the_class_walk(capsys, commutative, budget):
    # by these budgets the class route has placed one skeleton per type
    # and found two tables there, where a walk over every labeled skeleton
    # would have found one; the command and the library stop alike
    mode = [] if commutative else ["--no-commutative"]
    code, out, err = run(capsys, "brute-force", "--n", "3", *mode, "--budget", str(budget))
    assert (code, out) == (1, "")
    assert err == (f"error: search budget exhausted after {budget + 1} nodes"
                   " (2 candidates found so far)\n")
    with pytest.raises(relfrob.BudgetExceededError) as info:
        relfrob.brute_force_search(relfrob.SearchConfig(3, commutative, budget))
    assert (info.value.explored, len(info.value.found)) == (budget + 1, 2)


def test_brute_force_singular_grammar(capsys):
    _, out, _ = run(capsys, "brute-force", "--n", "0")
    assert "1 labeled candidate in 1 class" in out


def test_decompose_human(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "--groups", "2;3")
    (tmp_path / "c.rel").write_text(out)
    code, out, _ = run(capsys, "decompose", str(tmp_path / "c.rel"))
    assert code == 0
    assert "block {0,1}: Z2" in out
    assert "spec: Z2 + Z3" in out


def test_decompose_rejects_non_frobenius(max_monoid_file, capsys):
    code, _, err = run(capsys, "decompose", max_monoid_file)
    assert code == 1
    assert "frobenius" in err


def test_decompose_groupoid_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "groupoid.rel"
    save_structure(str(path), FrobeniusCandidate.from_triples(4, PAIR_GROUPOID, [0, 3]))
    code, out, err = run(capsys, "decompose", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_decompose_groupoid_fails_cleanly_under_python_O(tmp_path):
    path = tmp_path / "groupoid.rel"
    save_structure(str(path), FrobeniusCandidate.from_triples(4, PAIR_GROUPOID, [0, 3]))
    src = str(Path(relfrob.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-O", "-m", "relfrob", "decompose", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "not single-valued in block" in done.stderr


@pytest.fixture
def no_structures(monkeypatch):
    """Make building any structure, or normalizing any group, fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("input over the carrier cap was allocated")
    monkeypatch.setattr(FrobeniusCandidate, "__init__", refuse)
    monkeypatch.setattr(relfrob.groups, "normalize_invariant_factors", refuse)


def test_oversized_carrier_file_exits_2_before_building(tmp_path, capsys, no_structures):
    path = tmp_path / "big.rel"
    path.write_text("n 500\nnabla 0 0 0\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err == f"error: line 1: carrier size 500 exceeds the limit {CARRIER_LIMIT}\n"


def test_oversized_group_spec_exits_2_before_normalizing(capsys, no_structures):
    code, out, err = run(capsys, "build", "--groups", "1000000")
    assert code == 2 and out == ""
    assert err.startswith("error: group spec '1000000' has order above")


def test_nabla_lines_over_the_cap_exit_2_before_building(tmp_path, capsys, no_structures):
    cap = CARRIER_LIMIT ** 2
    lines = [f"n {CARRIER_LIMIT}"]
    lines += [f"nabla {k // CARRIER_LIMIT % CARRIER_LIMIT} {k % CARRIER_LIMIT} {k // cap}"
              for k in range(cap + 1)]
    path = tmp_path / "dense.rel"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err == f"error: line {cap + 2}: more than {cap} nabla lines\n"


@pytest.mark.parametrize("argv, text, message", [
    (["build", "--groups", ",".join(["2"] * 100_001)], None, "has order above"),
    (["build", "--groups", "Q" * 400_000], None, "unknown group name 'QQQ"),
    (["build", "--groups", "2," + "a" * 400_000], None, "(400002 characters) in group spec"),
    (["verify"], "x" * 400_000 + " 0\n", "line 1: unknown field 'xxx"),
])
def test_rejected_input_is_echoed_in_a_bounded_message(tmp_path, capsys, argv, text, message):
    # the message keeps the input's first few dozen characters and its length
    if text is not None:
        path = tmp_path / "long.rel"
        path.write_text(text)
        argv = [*argv, str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and message in err
    assert len(err.encode()) < 300, err[:300]


def test_carrier_cap_is_inclusive(capsys):
    assert CARRIER_LIMIT >= 120
    code, out, _ = run(capsys, "build", "--groups", f"{CARRIER_LIMIT - 1};1")
    assert code == 0 and out.startswith(f"n {CARRIER_LIMIT}\n")
    code, _, _ = run(capsys, "build", "--groups", f"{CARRIER_LIMIT};1")
    assert code == 2


def test_oversized_enumeration_exits_2_before_partitioning(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the specs of a carrier over the bound were walked")
    monkeypatch.setattr(relfrob.classify, "_structures_from_choices", refuse)
    code, out, err = run(capsys, "enumerate", "--n", "90")
    assert code == 2 and out == ""
    assert err == ("error: carrier size 90 exceeds the enumeration bound "
                   f"{ENUM_CARRIER_LIMIT}\n")


@pytest.mark.parametrize("command", ["brute-force", "cross-validate"])
def test_oversized_search_exits_2_before_generating_types(capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("the skeleton types of a carrier over the bound were generated")
    monkeypatch.setattr(relfrob.classify, "_skeletons", refuse)
    code, out, err = run(capsys, command, "--n", "100000")
    assert code == 2 and out == ""
    assert err == "error: carrier size 100000 exceeds the exhaustive search bound 6\n"


def test_enumeration_bound_is_inclusive(capsys, monkeypatch):
    walked = []
    monkeypatch.setattr(relfrob.classify, "_structures_from_choices",
                        lambda n, choices: walked.append(n) or [])
    code, out, _ = run(capsys, "enumerate", "--n", str(ENUM_CARRIER_LIMIT))
    assert code == 0 and walked == [ENUM_CARRIER_LIMIT]
    assert out == f"total: 0 classical structures on {ENUM_CARRIER_LIMIT} points\n"


@pytest.mark.parametrize("argv,text,message", [
    (["brute-force", "--n", "7"], None, "carrier size 7 exceeds the exhaustive search bound 6"),
    (["subobjects", "--m", "25"], "n 1\nbot 0\nnabla 0 0 0\n",
     "search space 25x1 exceeds 24 bits"),
    (["elements"], "n 21\n", "carrier size 21 exceeds the subset search limit 20"),
    (["enumerate", "--n", "33"], None, "carrier size 33 exceeds the enumeration bound 32"),
    (["cross-validate", "--n", "7"], None, "exceeds the exhaustive search bound 6"),
    (["brute-force", "--n", "4", "--budget", "-1"], None, "budget -1 is negative"),
    # argparse rejects more digits than int() converts; where int() takes
    # them all, the search bound does
    (["brute-force", "--n", "9" * 5000], None, "--n"),
])
def test_integer_arguments_past_their_caps_exit_2_at_once(tmp_path, capsys, argv, text,
                                                          message):
    if text is not None:
        path = tmp_path / "s.rel"
        path.write_text(text)
        argv = [argv[0], str(path), *argv[1:]]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and message in captured.err
    size = sum(map(len, argv)) + len(text or "")
    assert elapsed < 0.5 and peak <= 25 * size + 2 ** 20, (elapsed, peak)


def test_quantum_output_line(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "--groups", "2;3", "-o",
                       str(tmp_path / "c.rel"))
    code, out, _ = run(capsys, "quantum", str(tmp_path / "c.rel"))
    assert code == 0
    assert "η = {(0,0),(1,1),(2,2),(3,4),(4,3)}" in out
    assert "duality: pass" in out


def test_elements_listing(z2_file, capsys):
    code, out, _ = run(capsys, "elements", z2_file)
    assert code == 0
    assert "{0,1}" in out
    assert "1 classical element" in out


def test_subobjects_listing(z2_file, capsys):
    code, out, _ = run(capsys, "subobjects", z2_file, "--m", "1")
    assert code == 0
    assert "{(0,0),(0,1)}" in out
    code, out, _ = run(capsys, "subobjects", z2_file, "--m", "0")
    assert "(empty relation)" in out


def test_cross_validate_roundtrip(capsys):
    code, out, _ = run(capsys, "cross-validate", "--n", "2")
    assert code == 0
    assert out.strip().endswith("2 classes match 2 enumerated structures")


def test_cross_validate_reports_a_mismatch(capsys, monkeypatch):
    # an enumeration that drops Z3 disagrees with the search
    enumerated = relfrob.classify.enumerate_classical_structures
    monkeypatch.setattr(relfrob.classify, "enumerate_classical_structures",
                        lambda n: enumerated(n)[1:])
    result = relfrob.classify.cross_validate(3)
    assert not result.ok and result.message.startswith("mismatch: search found")
    code, out, _ = run(capsys, "cross-validate", "--n", "3")
    assert code == 1
    assert out.splitlines()[-1] == "MISMATCH: " + result.message


def test_cross_validate_at_the_search_bound_needs_no_budget(capsys):
    code, out, _ = run(capsys, "cross-validate", "--n", "6")
    assert code == 0
    assert out.strip().endswith("13 classes match 13 enumerated structures")


def test_cross_validate_above_the_search_bound_exits_2(capsys):
    code, out, err = run(capsys, "cross-validate", "--n", "7")
    assert code == 2 and out == ""
    assert err == "error: carrier size 7 exceeds the exhaustive search bound 6\n"


def test_machine_output_is_byte_stable(z2_file, capsys):
    first = run(capsys, "verify", "--format", "machine", z2_file)
    second = run(capsys, "verify", "--format", "machine", z2_file)
    assert first == second
    for command in (["enumerate", "--n", "5", "--format", "machine"],
                    ["brute-force", "--n", "2", "--format", "machine"],
                    ["cross-validate", "--n", "2", "--format", "machine"]):
        assert run(capsys, *command) == run(capsys, *command)


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_main_reuses_one_parser_with_fresh_parser_output(z2_file, capsys, monkeypatch):
    # usage error, help twice and both formats, all in one process
    argvs = [["frobnicate"], ["--help"], ["--help"],
             ["verify", z2_file], ["verify", z2_file, "--format", "machine"]]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    reused = [outcome(argvs[0])]
    del built[:]
    reused += [outcome(argv) for argv in argvs[1:]]
    assert built == [], "a second main() built a parser"

    assert [code for code, _, _ in reused] == [2, 0, 0, 0, 0]
    assert reused[0][2].startswith("usage: relfrob") and reused[1] == reused[2]
    monkeypatch.setattr(relfrob.cli, "build_parser", relfrob.cli.build_parser.__wrapped__)
    assert [outcome(argv) for argv in argvs] == reused
    assert built, "the uncached builder made no parser"
