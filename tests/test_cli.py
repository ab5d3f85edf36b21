"""Front-end behaviour: exit codes, traces, evaluation reports."""

import io
import json
import os
import subprocess
import sys
import warnings

import pytest
from conftest import teleport_spec_text

from hdql.cli import main
from hdql.specfile import MAX_SPACE

ROTATION = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos",
                        "rotation.hdql")

SMALL = """\
SPACE 2
VECTORS
  v0 = (1, 0)
  v1 = (0, 1)
UNITARY
  h = [0.70710678118654752, 0.70710678118654752; 0.70710678118654752, -0.70710678118654752]
  x = [0, 1; 1, 0]
PROPS
  p
  q
  r closed
AXIOMS
  @(v0) p
GOAL AT v0 PROVE p
GOAL AT v0 PROVE q
VALUATION
  p = { v0 }
  r = span { v0 }
"""


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestCheck:
    def test_teleport_goal_proves(self, tmp_path):
        path = tmp_path / "teleport.hdql"
        path.write_text(teleport_spec_text(0.6, 0.8))
        trace = tmp_path / "proof.trace"
        code, output = run(["check", str(path), "--trace", str(trace)])
        assert code == 0
        assert "proved" in output
        text = trace.read_text()
        for rule in ("UnionI", "CompE", "FTI", "EQ", "RetE", "Monotonicity"):
            assert rule in text

    def test_emitted_trace_rechecks_in_a_separate_process(self, tmp_path):
        path = tmp_path / "teleport.hdql"
        path.write_text(teleport_spec_text(0.28, 0.96))
        trace = tmp_path / "proof.trace"
        code, _ = run(["check", str(path), "--trace", str(trace)])
        assert code == 0
        result = subprocess.run(
            [sys.executable, "-m", "hdql", "recheck", str(path), str(trace)],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "trace checks" in result.stdout

    def test_byte_identical_traces_for_identical_inputs(self, tmp_path):
        path = tmp_path / "teleport.hdql"
        path.write_text(teleport_spec_text(0.6, 0.8))
        t1, t2 = tmp_path / "a.trace", tmp_path / "b.trace"
        assert run(["check", str(path), "--trace", str(t1)])[0] == 0
        assert run(["check", str(path), "--trace", str(t2)])[0] == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_unprovable_goal_exits_1(self, tmp_path):
        path = tmp_path / "small.hdql"
        path.write_text(SMALL)
        code, output = run(["check", str(path), "--goal", "2"])
        assert code == 1
        assert "not provable" in output

    def test_tiny_star_bound_exits_2(self, tmp_path):
        text = ("SPACE 2\nVECTORS\n  v0 = (1, 0)\nUNITARY\n"
                "  g = [0.99500416527802577+0.0998334166468282i, 0; 0, 1]\n"
                "PROPS\n  p\nAXIOMS\n  @(v0) p\n"
                "GOAL AT v0 PROVE [g*] p\n")
        path = tmp_path / "star.hdql"
        path.write_text(text)
        code, output = run(["check", str(path), "--star-bound", "4"])
        assert code == 2
        assert "unknown" in output

    def test_failing_goal_over_a_star_fact_exits_1(self, tmp_path):
        # x's orbit from v0 closes after one round, so the star fact unrolls
        # to it and the saturation is complete: check agrees with initial
        text = ("SPACE 2\nVECTORS\n  v0 = (1, 0)\nUNITARY\n  x = X\n  h = H\n"
                "PROPS\n  p\n  q\nAXIOMS\n  @(v0) [x*] p\n"
                "GOAL AT x(v0) PROVE p\nGOAL AT v0 PROVE q\nGOAL AT h(v0) PROVE p\n")
        path = tmp_path / "star_fact.hdql"
        path.write_text(text)
        code, output = run(["check", str(path)])
        assert code == 1, output
        assert output.splitlines() == [
            "goal 1: proved (4 nodes)",
            "goal 2: not provable: no rule applies to the remaining goals",
            "goal 3: not provable: no rule applies to the remaining goals"]
        code, output = run(["initial", str(path), "--depth", "3"])
        assert code == 1, output

    def test_boolean_certificate_in_json_trace_exits_65(self, tmp_path):
        text = ("SPACE 2\nVECTORS\n  v0 = (1, 0)\n  v1 = (0, 1)\nUNITARY\n"
                "  g = X\nPROPS\n  r closed\nAXIOMS\n  @(v0) r\n  @(v1) r\n"
                "GOAL AT v0 PROVE [g*] r\n")
        path = tmp_path / "star.hdql"
        path.write_text(text)
        trace = tmp_path / "proof.json"
        code, _ = run(["check", str(path), "--format", "json", "--trace", str(trace)])
        assert code == 0
        doc = trace.read_text()
        assert '"certificate": 1' in doc
        trace.write_text(doc.replace('"certificate": 1', '"certificate": true'))
        code, output = run(["recheck", str(path), str(trace)])
        assert code == 65
        assert "malformed trace" in output

    @pytest.mark.parametrize("version", ["true", "1.0", "2", '"1"'])
    def test_a_json_version_that_is_not_the_whole_number_1_exits_65(self, tmp_path, version):
        path = tmp_path / "small.hdql"
        path.write_text(SMALL)
        trace = tmp_path / "proof.json"
        code, _ = run(["check", str(path), "--goal", "1", "--format", "json",
                       "--trace", str(trace)])
        assert code == 0 and run(["recheck", str(path), str(trace)]) == (0, "trace checks\n")
        doc = trace.read_text()
        assert doc.startswith('{"version": 1, ')
        trace.write_text(doc.replace('"version": 1', f'"version": {version}', 1))
        code, output = run(["recheck", str(path), str(trace)])
        assert (code, output) == (65, "malformed trace: not a version-1 JSON trace\n")

    @pytest.mark.parametrize("cert, shown", [
        ("true", "True"), ("1.0", "1.0"), ("1e0", "1.0"), ("[1]", "[1]"),
        ('{"a": 2}', "{'a': 2}"), ('"3"', "'3'")])
    def test_a_json_certificate_that_is_not_a_whole_number_exits_65(self, tmp_path, cert,
                                                                    shown):
        trace = tmp_path / "proof.json"
        code, _ = run(["check", ROTATION, "--format", "json", "--trace", str(trace)])
        assert code == 0 and run(["recheck", ROTATION, str(trace)]) == (0, "trace checks\n")
        doc = trace.read_text()
        assert doc.count('"certificate": 7') == 1
        trace.write_text(doc.replace('"certificate": 7', f'"certificate": {cert}'))
        assert run(["recheck", ROTATION, str(trace)]) == (
            65, f"malformed trace: certificate {shown} is not a whole number\n")

    def forged(self, tmp_path, name, trace):
        path = tmp_path / "teleport.hdql"
        path.write_text(teleport_spec_text(0.6, 0.8))
        (tmp_path / name).write_text(trace)
        return run(["recheck", str(path), str(tmp_path / name)])

    def test_trace_proving_a_goal_from_itself_is_rejected(self, tmp_path):
        code, output = self.forged(tmp_path, "self.trace", (
            "HDQL-TRACE 1\ngamma 1\n  @(w0) [u0] p\nproof\n"
            "Monotonicity | w0 | @(w0) [u0] p\n"))
        assert code == 1
        assert output.startswith("trace rejected: ") and "AXIOMS" in output

    def test_trace_over_an_undeclared_name_is_rejected(self, tmp_path):
        code, output = self.forged(tmp_path, "zz.trace", (
            "HDQL-TRACE 1\ngamma 1\n  @(zz) p\nproof\n"
            "Monotonicity | zz | @(zz) p\n"))
        assert code == 1
        assert output.startswith("trace rejected: ")

    def test_trace_whose_root_is_no_goal_is_rejected(self, tmp_path):
        code, output = self.forged(tmp_path, "axiom.trace", (
            "HDQL-TRACE 1\ngamma 1\n  @(t00) p\nproof\n"
            "Monotonicity | t00 | @(t00) p\n"))
        assert code == 1
        assert output.startswith("trace rejected: ") and "GOAL" in output

    def emitted_trace(self, tmp_path) -> str:
        path = tmp_path / "teleport.hdql"
        path.write_text(teleport_spec_text(0.6, 0.8))
        trace = tmp_path / "proof.trace"
        assert run(["check", str(path), "--trace", str(trace)])[0] == 0
        return trace.read_text()

    def test_unknown_name_inside_the_tree_rejects_its_node(self, tmp_path):
        trace = self.emitted_trace(tmp_path)
        assert "RetE | t00 | p\n" in trace
        code, output = self.forged(tmp_path, "zz.trace",
                                   trace.replace("RetE | t00 | p\n", "RetE | zz | p\n"))
        assert code == 1
        assert output.startswith("trace rejected at node [")
        assert "unknown vector constant 'zz'" in output

    def test_wrong_dimension_literal_inside_the_tree_rejects_its_node(self, tmp_path):
        trace = self.emitted_trace(tmp_path).replace("RetE | t00 | p\n",
                                                     "RetE | vec(1, 0) | p\n")
        code, output = self.forged(tmp_path, "dim.trace", trace)
        assert code == 1
        assert output.startswith("trace rejected at node [")
        assert "dim 2" in output

    def test_node_without_its_premise_is_rejected(self, tmp_path):
        rows = self.emitted_trace(tmp_path).splitlines(keepends=True)
        cut = [r for r in rows if r.strip() != "Monotonicity | t00 | @(t00) p"]
        assert len(cut) == len(rows) - 1
        code, output = self.forged(tmp_path, "cut.trace", "".join(cut))
        assert code == 1
        assert output.startswith("trace rejected at node [")
        assert "RetE: expects 1 premises, got 0" in output

    @pytest.mark.parametrize("n", [5000, 10 ** 12])
    def test_huge_star_certificate_is_rejected(self, tmp_path, n):
        # an n-fold unrolling has at least n nodes, so the kernel rejects a
        # larger certificate without building the unrolling
        path = tmp_path / "star.hdql"
        path.write_text("SPACE 2\nVECTORS\n  v0 = (1, 0)\nUNITARY\n  x = X\nPROPS\n  p\n"
                        "AXIOMS\n  [x*] p\nGOAL AT v0 PROVE p\n")
        trace = tmp_path / "star.trace"
        assert run(["check", str(path), "--trace", str(trace)])[0] == 0
        text = trace.read_text()
        assert "StarE | v0 | p [n=0]\n" in text
        trace.write_text(text.replace("[n=0]", f"[n={n}]"))
        code, output = run(["recheck", str(path), str(trace)])
        assert code == 1
        assert output.startswith("trace rejected at node []: StarE")
        assert "internal error" not in output and "Traceback" not in output

    def test_3000_deep_trace_rechecks(self, tmp_path):
        # the kernel walks the tree with an explicit stack, not by recursion
        rows = self.emitted_trace(tmp_path).splitlines()
        header, proof = rows[:7], rows[7:]
        assert header[-1] == "proof"
        goal = proof[0].split(" | ", 2)[2]
        chain = [f"{'  ' * d}EQ | w0 | {goal}" for d in range(3000)]
        code, output = self.forged(tmp_path, "deep.trace", "\n".join(
            header + chain + ["  " * 3000 + r for r in proof]) + "\n")
        assert (code, output) == (0, "trace checks\n")

    def test_truncated_gamma_block_exits_65(self, tmp_path):
        code, output = self.forged(tmp_path, "short.trace",
                                   "HDQL-TRACE 1\ngamma 3\n  @(t00) p\n")
        assert code == 65
        assert output.startswith("malformed trace: ")

    def test_json_node_without_term_exits_65(self, tmp_path):
        code, output = self.forged(tmp_path, "noterm.json", json.dumps(
            {"version": 1, "gamma": ["@(t00) p"],
             "proof": {"rule": "Monotonicity", "goal": "@(t00) p",
                       "certificate": None, "premises": []}}))
        assert code == 65
        assert output.startswith("malformed trace: ")

    def test_invalid_json_exits_65(self, tmp_path):
        code, output = self.forged(tmp_path, "broken.json",
                                   '{"version": 1, "gamma": [')
        assert code == 65
        assert output.startswith("malformed trace: ")

    def test_json_trace_format(self, tmp_path):
        path = tmp_path / "small.hdql"
        path.write_text(SMALL)
        trace = tmp_path / "proof.json"
        code, _ = run(["check", str(path), "--goal", "1",
                       "--format", "json", "--trace", str(trace)])
        assert code == 0
        assert trace.read_text().lstrip().startswith("{")
        result = subprocess.run(
            [sys.executable, "-m", "hdql", "recheck", str(path), str(trace)],
            capture_output=True, text=True)
        assert result.returncode == 0


class TestEval:
    def test_true_verdict(self, tmp_path):
        path = tmp_path / "small.hdql"
        path.write_text(SMALL)
        code, output = run(["eval", str(path), "--at", "v0", "--sentence", "p"])
        assert code == 0
        assert "is true" in output

    def test_contradiction_has_rank_zero(self, tmp_path):
        path = tmp_path / "small.hdql"
        path.write_text(SMALL)
        code, output = run(["eval", str(path), "--at", "v0",
                            "--sentence", "r /\\ ~r"])
        assert code == 0
        assert "rank 0" in output

    def test_gate_chain_probe_matches_matrix_product(self, tmp_path):
        path = tmp_path / "small.hdql"
        path.write_text(SMALL)
        code, output = run(["eval", str(path), "--at", "x(h(v0))",
                            "--sentence", "p"])
        assert code == 0
        assert "is false" in output
        # matrix oracle: X (H |0>) = (1/sqrt2, 1/sqrt2) with rows swapped
        import numpy as np
        want = np.array([[0, 1], [1, 0]]) @ (np.array([[1, 1], [1, -1]])
                                             / np.sqrt(2)) @ np.array([1, 0])
        state_line = next(l for l in output.splitlines() if l.startswith("state:"))
        got = [float(x) for x in
               state_line.removeprefix("state: (").removesuffix(")").split(", ")]
        assert np.allclose(got, want)

    def test_sasaki_inclusion_verdict(self, tmp_path):
        path = tmp_path / "small.hdql"
        path.write_text(SMALL)
        code, output = run(["eval", str(path), "--at", "v0",
                            "--sentence", "r ~> r"])
        assert code == 0
        assert "globally satisfied: true" in output

    def test_quantum_negation_of_nonclosed_is_explained(self, tmp_path):
        path = tmp_path / "small.hdql"
        path.write_text(SMALL)
        code, output = run(["eval", str(path), "--at", "v0",
                            "--sentence", "~p"])
        assert code == 65
        assert "not" in output and "closed" in output


class TestInitial:
    def test_teleport_initial_model_report(self, tmp_path):
        path = tmp_path / "teleport.hdql"
        path.write_text(teleport_spec_text(0.6, 0.8))
        code, output = run(["initial", str(path), "--depth", "5"])
        assert code == 0
        assert "region p: 4 states" in output
        assert "goal 1: satisfied in the initial model: true" in output

    def test_underivable_goal_is_false_in_the_initial_model(self, tmp_path):
        path = tmp_path / "small.hdql"
        path.write_text(SMALL)
        code, output = run(["initial", str(path)])
        assert code == 1
        assert "goal 1: satisfied in the initial model: true" in output
        assert "goal 2: satisfied in the initial model: false" in output

    def test_exhausted_budget_exits_2(self, tmp_path):
        # running out of budget says nothing about the input being malformed
        path = tmp_path / "teleport.hdql"
        path.write_text(teleport_spec_text(0.6, 0.8))
        code, output = run(["initial", str(path), "--depth", "3", "--budget", "10"])
        assert code == 2
        assert output == "unknown: prover node budget exhausted\n"


class TestFlagRanges:
    @pytest.mark.parametrize("flag, value", [
        ("--depth", "-1"), ("--budget", "-1"), ("--star-bound", "-3"),
        ("--tolerance", "nan"), ("--tolerance", "5")])
    def test_out_of_range_value_exits_64(self, tmp_path, capsys, flag, value):
        path = tmp_path / "small.hdql"
        path.write_text(SMALL)
        code, output = run(["initial", str(path), flag, value])
        assert code == 64
        assert output == ""
        assert f"argument {flag}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("check", "--depth", "3"),
        ("eval", "--depth", "3"), ("eval", "--budget", "10"), ("eval", "--format", "json"),
        ("initial", "--format", "json"),
        ("recheck", "--depth", "3"), ("recheck", "--budget", "10"),
        ("recheck", "--format", "json")])
    def test_an_option_the_subcommand_does_not_read_exits_64(self, tmp_path, capsys,
                                                            command, flag, value):
        path = tmp_path / "small.hdql"
        path.write_text(SMALL)
        trace = tmp_path / "proof.trace"
        assert run(["check", str(path), "--goal", "1", "--trace", str(trace)])[0] == 0
        rest = {"eval": ["--at", "v0", "--sentence", "p"], "recheck": [str(trace)]}
        code, output = run([command, str(path), *rest.get(command, []), flag, value])
        assert code == 64
        assert output == ""
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_boundary_values_are_accepted(self, tmp_path):
        path = tmp_path / "small.hdql"
        path.write_text(SMALL)
        code, output = run(["initial", str(path), "--depth", "0", "--star-bound", "0",
                            "--tolerance", "1e-12"])
        assert code == 1
        assert "term universe: 2 states" in output  # the origin and v0


class TestErrorPaths:
    def test_missing_file_exits_66(self):
        code, _ = run(["check", "/nonexistent/file.hdql"])
        assert code == 66

    def test_missing_dimension_exits_65(self, tmp_path):
        path = tmp_path / "bad.hdql"
        path.write_text("PROPS\n  p\n")
        code, output = run(["check", str(path)])
        assert code == 65
        assert "SPACE" in output

    @pytest.mark.parametrize("argv, text, code, output", [
        (["recheck", ROTATION, "{file}"], "HDQL-TRACE 2\ngamma 0\nproof\n", 65,
         "malformed trace: not a version-1 trace\n"),
        (["recheck", ROTATION, "{file}"], "HDQL-TRACE 1\ngamma x\nproof\n", 65,
         "malformed trace: missing gamma header\n"),
        (["recheck", ROTATION, "{file}"], None, 66, "cannot read {file}: "),
        (["check", ROTATION, "--goal", "9"], None, 64, "no goal 9: the file has 1\n"),
        (["check", "{file}"], "SPACE 2\nPROPS\n  p\n", 65, "the file has no GOAL lines\n"),
        (["eval", ROTATION, "--at", "u0(", "--sentence", "r"], None, 65,
         "argument error: 1:4: expected a term\n"),
    ], ids=["trace-version", "trace-gamma", "trace-missing", "goal-index", "no-goals",
            "eval-term"])
    def test_each_exit_path_prints_its_message(self, tmp_path, argv, text, code, output):
        file = str(tmp_path / "input")
        if text is not None:
            (tmp_path / "input").write_text(text)
        got_code, got = run([arg.format(file=file) for arg in argv])
        assert got_code == code and got.startswith(output.format(file=file)), got
        assert got.count("\n") == 1

    def test_usage_error_exits_64(self):
        code, _ = run(["check"])  # missing the spec file argument
        assert code == 64

    def test_unexpected_exception_exits_70_without_traceback(self, tmp_path):
        # a 700-step chain exceeds Python's recursion limit; an uncaught
        # exception would exit 1, which claims "definitely not provable"
        chain = ";".join(["s1"] * 700)
        path = tmp_path / "deep.hdql"
        path.write_text(teleport_spec_text(0.6, 0.8)
                        + f"GOAL AT w0 PROVE [{chain}] p\n")
        result = subprocess.run(
            [sys.executable, "-m", "hdql", "check", str(path), "--goal", "2"],
            capture_output=True, text=True)
        assert result.returncode == 70, result.stdout + result.stderr
        assert result.stdout.startswith("internal error: RecursionError")
        assert "Traceback" not in result.stdout + result.stderr

    def test_validation_error_echoes_residual(self, tmp_path):
        path = tmp_path / "bad.hdql"
        path.write_text("SPACE 2\nUNITARY\n  u = [1, 0; 0, 2]\nPROPS\n  p\n"
                        "GOAL AT 0 PROVE p\n")
        code, output = run(["check", str(path)])
        assert code == 65
        assert "residual" in output

    @pytest.mark.parametrize("gate, message", [
        ("I100000000000", "gate of size 100000000000 in space of dim 2"),
        ("FOO", "unknown gate factor 'FOO'"), ("[1, 0; 0]", "matrix is not square")],
        ids=["oversized", "unknown", "not-square"])
    def test_malformed_gate_exits_65_with_its_line(self, tmp_path, gate, message):
        path = tmp_path / "bad.hdql"
        path.write_text(f"SPACE 2\nUNITARY\n  g = {gate}\nPROPS\n  p\nGOAL AT 0 PROVE p\n")
        code, output = run(["check", str(path)])
        assert code == 65, output
        assert output.startswith(f"line 3: {message}"), output

    @pytest.mark.parametrize("gates", ["", "UNITARY\n  g = I100000000000\n"],
                             ids=["props-only", "identity-gate"])
    def test_oversized_space_exits_65_with_its_line(self, tmp_path, gates):
        path = tmp_path / "big.hdql"
        path.write_text(f"SPACE 100000000000\n{gates}PROPS\n  p\nGOAL AT 0 PROVE p\n")
        code, output = run(["check", str(path)])
        assert code == 65, output
        assert output == f"line 1: SPACE 100000000000 exceeds the limit {MAX_SPACE}\n"

    @pytest.mark.parametrize("old, new, line", [
        ("v0 = (1, 0)", "v0 = (1.2.3, 0)", 3),
        ("x = [0, 1; 1, 0]", "x = [1, 0; 0, 1.2.3]", 7),
        ("GOAL AT v0 PROVE p", "GOAL AT 1e*v0 PROVE p", 14),
    ], ids=["vector", "matrix", "goal"])
    def test_malformed_numeral_exits_65_with_its_line(self, tmp_path, old, new, line):
        assert SMALL.count(old) == 1
        path = tmp_path / "bad.hdql"
        path.write_text(SMALL.replace(old, new))
        code, output = run(["check", str(path)])
        assert code == 65, output
        assert output.startswith(f"line {line}: ") and "malformed number" in output

    @pytest.mark.parametrize("section, command, line", [
        ("MEASURE\n  m = { (1, 0, 0) }\n", ["check"], 7),
        ("VALUATION\n  p = { (1, 0, 0) }\n", ["eval", "--at", "v0", "--sentence", "p"], 7),
        ("GOAL AT vec(1, 0, 0) PROVE p\n", ["check"], 6),
        ("GOAL AT vec(1, 0, 0) PROVE p\n", ["initial"], 6),
        ("AXIOMS\n  @(vec(1, 0, 0)) p\n", ["check"], 7),
        ("AXIOMS\n  @(vec(1, 0, 0)) p\n", ["initial"], 7),
    ], ids=["measure", "valuation", "goal-check", "goal-initial", "axiom-check",
            "axiom-initial"])
    def test_wrong_dimension_state_exits_65_with_its_line(self, tmp_path, section,
                                                          command, line):
        path = tmp_path / "bad.hdql"
        path.write_text("SPACE 2\nVECTORS\n  v0 = (1, 0)\nPROPS\n  p\n" + section)
        code, output = run([command[0], str(path)] + command[1:])
        assert code == 65, output
        assert output.startswith(f"line {line}: ") and "dim 3 in space of dim 2" in output


class TestArgumentParser:
    def test_reused_parser_keeps_no_state_between_calls(self, tmp_path, capsys):
        path = tmp_path / "small.hdql"
        path.write_text(SMALL)
        code, output = run(["check", str(path), "--goal", "1"])
        assert code == 0 and "goal 2" not in output
        code, output = run(["check", str(path)])
        assert code == 1
        assert "goal 1: proved" in output and "goal 2: not provable" in output
        assert run(["check"])[0] == 64
        assert run(["--help"])[0] == 0
        assert "usage: hdql" in capsys.readouterr().out
        assert run(["check", str(path), "--goal", "2"])[0] == 1


class TestClosedOutput:
    def test_reader_closing_the_pipe_exits_70_silently(self, tmp_path):
        # 3,000 goal lines overflow the pipe, so hdql is still writing when
        # the reader goes away after one line
        path = tmp_path / "many.hdql"
        path.write_text(SMALL.replace("GOAL AT v0 PROVE q\n",
                                      "GOAL AT v0 PROVE q\n" * 3000))
        proc = subprocess.Popen([sys.executable, "-m", "hdql", "initial", str(path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 70
        assert first.startswith(b"term universe: ")
        assert stderr == b""

    def test_reader_gone_before_a_short_output_exits_70_silently(self, tmp_path):
        # the output fits the buffer, so it is only written at the end
        path = tmp_path / "small.hdql"
        path.write_text(SMALL)
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run([sys.executable, "-m", "hdql", "check", str(path)],
                                    stdout=write, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write)
        assert result.returncode == 70
        assert result.stderr == b""


OVERFLOW = """\
SPACE 2
VECTORS
  v0 = (1, 0)
  v1 = (0, 1)
PROPS
  p
  r closed
AXIOMS
  {axiom}
GOAL AT {goal}
VALUATION
  r = span {{ v0 }}
"""
# a state past the norm's overflow: 1e200*v1 is orthogonal to r's span, and
# 1e200*v0 made every class-table bound infinite
FAR_GOAL = OVERFLOW.format(axiom="@(v0) r", goal="1e200*v1 PROVE r")
FAR_AXIOM = OVERFLOW.format(axiom="@(1e200*v0) p", goal="v1 PROVE p")


class TestOutOfRangeData:
    @pytest.mark.parametrize("text, message", [
        ("VECTORS\n  v0 = (1e999, 0)\n", "line 3: number 1e999 is not finite"),
        ("MEASURE\n  m = { (1e999, 0) }\n", "line 3: number 1e999 is not finite"),
        ("AXIOMS\n  @(vec(1e999, 0)) p\n",
         "line 3: vector literal: state vector has non-finite entries"),
        ("UNITARY\n  g = [1e999, 0; 0, 1]\n", "line 3: number 1e999 is not finite"),
    ], ids=["vector", "measure", "literal", "gate"])
    def test_a_number_that_is_not_finite_exits_65_with_its_line(self, tmp_path, text, message):
        path = tmp_path / "bad.hdql"
        path.write_text(f"SPACE 2\n{text}PROPS\n  p\nGOAL AT 0 PROVE p\n")
        for command in ("check", "initial"):
            code, output = run([command, str(path)])
            assert (code, output) == (65, message + "\n")

    @pytest.mark.parametrize("command", ["check", "initial"])
    def test_a_gate_whose_products_overflow_is_not_unitary_without_warnings(
            self, tmp_path, command):
        path = tmp_path / "huge.hdql"
        path.write_text("SPACE 2\nUNITARY\n  g = [1e200, 1e200; 1e200, -1e200]\n"
                        "PROPS\n  p\nGOAL AT 0 PROVE p\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, output = run([command, str(path)])
        assert (code, output) == (65, "validation: g: not unitary on max-norm check "
                                      "(residual inf)\n")

    def test_a_space_below_1_exits_65_with_its_line(self, tmp_path):
        path = tmp_path / "neg.hdql"
        path.write_text("SPACE -1\nMEASURE\n  m = { (1, 0) }\nPROPS\n  p\nGOAL AT 0 PROVE p\n")
        assert run(["check", str(path)]) == (65, "line 1: SPACE -1 is not positive\n")

    @pytest.mark.parametrize("text, command, message", [
        (FAR_GOAL, "check", "goal 1: cannot be checked: state vector's norm overflows\n"),
        (FAR_GOAL, "initial", "goal 1: cannot be evaluated: state vector's norm overflows\n"),
        (FAR_AXIOM, "check", "goal 1: cannot be checked: state vector's norm overflows\n"),
        (FAR_AXIOM, "initial", "cannot build the initial model: state vector's norm overflows\n"),
    ], ids=["goal-check", "goal-initial", "axiom-check", "axiom-initial"])
    def test_a_state_whose_norm_overflows_exits_65(self, tmp_path, text, command, message):
        path = tmp_path / "far.hdql"
        path.write_text(text)
        depth = ["--depth", "1"] if command == "initial" else []
        code, output = run([command, str(path)] + depth)
        assert code == 65 and output.endswith(message), output

    def test_eval_at_a_state_whose_norm_overflows_exits_65(self, tmp_path):
        path = tmp_path / "far.hdql"
        path.write_text(FAR_GOAL)
        code, output = run(["eval", str(path), "--at", "1e200*v1", "--sentence", "r"])
        assert (code, output) == (65, "cannot evaluate: state vector's norm overflows\n")

    def test_a_forged_span_closure_at_such_a_state_is_rejected(self, tmp_path):
        from hdql.calculus import check_proof
        from hdql.specfile import deserialize_trace, load_spec_text
        path, trace = tmp_path / "far.hdql", tmp_path / "forged.trace"
        path.write_text(FAR_GOAL)
        trace.write_text("HDQL-TRACE 1\ngamma 1\n  @(v0) r\nproof\nSpanClosure | 1e200*v1 | r\n")
        code, output = run(["recheck", str(path), str(trace)])
        assert code == 1 and output.startswith("trace rejected"), output
        _, tree = deserialize_trace(trace.read_text())
        verdict = check_proof(load_spec_text(FAR_GOAL).sig, tree)
        assert not verdict.ok and "norm overflows" in verdict.reason

    @pytest.mark.parametrize("axiom, goal", [("!p", "v0 PROVE p"), ("@(v0) p", "v0 PROVE !p")],
                             ids=["axiom", "goal"])
    def test_check_exits_65_for_what_is_no_quantum_clause(self, tmp_path, axiom, goal):
        path = tmp_path / "neg.hdql"
        path.write_text(OVERFLOW.format(axiom=axiom, goal=goal))
        code, output = run(["check", str(path)])
        assert (code, output) == (65, "goal 1: cannot be checked: not a quantum clause: !p\n")

    def test_initial_still_evaluates_a_goal_that_is_no_quantum_clause(self, tmp_path):
        path = tmp_path / "neg.hdql"
        path.write_text(OVERFLOW.format(axiom="@(v0) p", goal="v0 PROVE !p"))
        code, output = run(["initial", str(path), "--depth", "1"])
        assert code == 1 and output.endswith("goal 1: satisfied in the initial model: false\n")


# a multiple of a state by a scalar that is not finite
INF_GOAL = OVERFLOW.format(axiom="@(v0) r", goal="1e999*v1 PROVE r")


class TestNonFiniteMultiples:
    @pytest.mark.parametrize("argv, message", [
        (["check"], "goal 1: cannot be checked: state vector has non-finite entries\n"),
        (["initial", "--depth", "1"],
         "goal 1: cannot be evaluated: state vector has non-finite entries\n"),
        (["eval", "--at", "1e999*v1", "--sentence", "r"],
         "cannot evaluate: state vector has non-finite entries\n"),
        (["eval", "--at", "1e300*v1", "--sentence", "r"],
         "cannot evaluate: state vector's norm overflows\n"),
        (["eval", "--at", "1e300*vec(1e100, 0)", "--sentence", "r"],
         "cannot evaluate: state vector has non-finite entries\n"),
    ], ids=["check", "initial", "eval-inf", "eval-norm", "eval-product"])
    def test_exits_65_without_warnings(self, tmp_path, argv, message):
        path = tmp_path / "inf.hdql"
        path.write_text(INF_GOAL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, output = run([argv[0], str(path)] + argv[1:])
        assert code == 65 and output.endswith(message), output

    def test_a_forged_span_closure_at_such_a_state_is_rejected_without_warnings(self, tmp_path):
        path, trace = tmp_path / "inf.hdql", tmp_path / "forged.trace"
        path.write_text(INF_GOAL)
        trace.write_text("HDQL-TRACE 1\ngamma 1\n  @(v0) r\nproof\nSpanClosure | 1e999*v1 | r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["recheck", str(path), str(trace)]) == (
                1, "trace rejected: root term inf*v1: state vector has non-finite entries\n")

    def test_eval_exits_65_with_empty_stderr_under_w_error(self):
        demo = os.path.join(os.path.dirname(__file__), "..", "demos", "teleport.hdql")
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "hdql", "eval", demo, "--at", "1e999*w0",
             "--sentence", "p"], capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (65, "")
        assert result.stdout == "cannot evaluate: state vector has non-finite entries\n"
