"""Problem-file loading and proof-trace wire formats."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from conftest import teleport_spec_text

from hdql import syntax as sx
from hdql.calculus import ProofSession, ProofTree, RuleId, Sequent, check_proof
from hdql.errors import HdqlError
from hdql.specfile import (MAX_SPACE, SpecLoadError, _split_top, deserialize_trace,
                           load_spec_text, serialize_trace, trace_from_json, trace_to_json,
                           valuation_model)


def reference_split_top(text: str, sep: str) -> list[str]:
    """The bracket-aware character loop, for every input."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


class TestSplitTop:
    def test_matches_the_character_loop_on_random_strings(self):
        rng = np.random.default_rng(61)
        plain = list(",;  .-+i0123456789ab")
        brackets = list("()[]{}")
        split = 0
        for n in range(4000):
            alphabet = plain + brackets if n % 2 else plain
            text = "".join(rng.choice(alphabet, size=int(rng.integers(0, 30))))
            for sep in ",;":
                got = _split_top(text, sep)
                assert got == reference_split_top(text, sep), (text, sep)
                split += len(got) > 1
        assert split > 2000

    def test_bracket_cases(self):
        for text in ["", ",", "(1, 2), 3", "a)b,c(d", "[1,2];{3,4}", "1, 2, 3", "((,)),"]:
            assert _split_top(text, ",") == reference_split_top(text, ",")


class TestLoadSpec:
    def test_teleport_file_matches_the_frame(self):
        spec = load_spec_text(teleport_spec_text(0.6, 0.8))
        assert spec.sig.dim == 8
        assert set(spec.sig.unitaries) == {"u0", "u1", "s0", "s1", "d0", "d1"}
        assert set(spec.sig.measurements) == {"q00", "q01", "q10", "q11"}
        assert len(spec.axioms) == 4
        assert len(spec.goals) == 1
        for q in spec.sig.measurements.values():
            assert q.rank == 2

    def test_missing_dimension(self):
        with pytest.raises(SpecLoadError) as e:
            load_spec_text("VECTORS\n  v = (1, 0)\n")
        assert any("SPACE" in err for err in e.value.errors)

    def test_non_unitary_entry_reports_residual(self):
        text = "SPACE 2\nUNITARY\n  bad = [1, 0; 0, 2]\nPROPS\n  p\n"
        with pytest.raises(SpecLoadError) as e:
            load_spec_text(text)
        assert any("not unitary" in err and "3.0" in err for err in e.value.errors)

    def test_duplicate_measurement_basis_flagged(self):
        text = ("SPACE 2\nVECTORS\n  v = (1, 0)\nMEASURE\n  m = { v, (1, 0) }\n"
                "PROPS\n  p\n")
        with pytest.raises(SpecLoadError) as e:
            load_spec_text(text)
        assert any("duplicate" in err for err in e.value.errors)

    def test_parse_error_carries_line(self):
        text = "SPACE 2\nAXIOMS\n  p /\\\n"
        with pytest.raises(SpecLoadError) as e:
            load_spec_text(text)
        assert any(err.startswith("line 3") for err in e.value.errors)

    def test_undeclared_symbols_are_located(self):
        text = "SPACE 2\nPROPS\n  p\nAXIOMS\n  @(ghost) p /\\ q\n"
        with pytest.raises(SpecLoadError) as e:
            load_spec_text(text)
        assert any("undeclared proposition 'q'" in err for err in e.value.errors)
        assert any("undeclared vector name 'ghost'" in err for err in e.value.errors)

    @pytest.mark.parametrize("gate, size", [
        ("I100000000000", 100000000000), ("H (x) I100000000000", 200000000000),
        ("CNOT (x) I1000000000 (x) I1000000000", 4 * 10 ** 18), ("H (x) H", 4)])
    def test_a_gate_larger_than_the_space_is_located_before_it_is_built(self, gate, size):
        # no machine holds the matrix of the identity factors above
        for text, line in [(f"SPACE 2\nUNITARY\n  g = {gate}\n", 3),
                           (f"UNITARY\n  g = {gate}\nSPACE 2\n", 2)]:
            with pytest.raises(SpecLoadError) as e:
                load_spec_text(text)
            assert e.value.errors == [f"line {line}: gate of size {size} in space of dim 2"]

    def test_gates_are_built_after_a_late_space(self):
        spec = load_spec_text("UNITARY\n  g = H (x) I2\nSPACE 4\n")
        assert spec.sig.unitaries["g"].shape == (4, 4)
        with pytest.raises(SpecLoadError) as e:  # no dimension, nothing built
            load_spec_text("UNITARY\n  g = I100000000000\n  f = FOO\n")
        assert e.value.errors == ["missing SPACE section with the space dimension"]

    @pytest.mark.parametrize("text, line", [
        ("SPACE 100000000000\nPROPS\n  p\nGOAL AT 0 PROVE p\n", 1),
        ("SPACE 100000000000\nUNITARY\n  g = I100000000000\nPROPS\n  p\nGOAL AT 0 PROVE p\n", 1),
        ("UNITARY\n  g = I100000000000\nSPACE 100000000000\n", 3)],
        ids=["props", "identity-gate", "late-space"])
    def test_a_space_above_the_limit_is_located_before_anything_is_sized(self, text, line):
        # at the dimension no class table, gate or state could be allocated
        with pytest.raises(SpecLoadError) as e:
            load_spec_text(text)
        assert e.value.errors == [f"line {line}: SPACE 100000000000 exceeds the limit {MAX_SPACE}"]

    def test_the_space_limit_is_inclusive(self):
        assert load_spec_text(f"SPACE {MAX_SPACE}\nPROPS\n  p\n").sig.dim == MAX_SPACE
        with pytest.raises(SpecLoadError) as e:
            load_spec_text(f"SPACE {MAX_SPACE + 1}\nPROPS\n  p\n")
        assert e.value.errors == [f"line 1: SPACE {MAX_SPACE + 1} exceeds the limit {MAX_SPACE}"]

    @pytest.mark.parametrize("dim", [0, -1])
    @pytest.mark.parametrize("section", ["MEASURE\n  m = { (1, 0) }\n",
                                         "VALUATION\n  p = span { (1, 0) }\n"],
                             ids=["measure", "span"])
    def test_a_space_below_1_is_located_before_anything_is_sized(self, dim, section):
        with pytest.raises(SpecLoadError) as e:
            load_spec_text(f"SPACE {dim}\nPROPS\n  p\n{section}")
        assert e.value.errors == [f"line 1: SPACE {dim} is not positive"]

    def test_valuation_section(self):
        spec = load_spec_text(teleport_spec_text(0.6, 0.8, with_valuation=True))
        model = valuation_model(spec)
        region = model.valuation["p"]
        assert len(region.vectors) == 4

    def test_span_valuation(self):
        text = ("SPACE 2\nVECTORS\n  v = (1, 0)\nPROPS\n  r closed\n"
                "VALUATION\n  r = span { v }\n")
        spec = load_spec_text(text)
        assert spec.valuation["r"].rank == 1


class TestTraceFormats:
    def proof(self):
        spec = load_spec_text(teleport_spec_text(0.6, 0.8))
        session = ProofSession(spec.sig, spec.axioms)
        result = session.prove(*spec.goals[0])
        assert result.holds
        return spec, result.tree

    def test_text_round_trip_is_exact(self):
        spec, tree = self.proof()
        text = serialize_trace(tree.conclusion.gamma, tree)
        gamma, back = deserialize_trace(text)
        assert serialize_trace(gamma, back) == text
        assert check_proof(spec.sig, back).ok

    def test_json_round_trip_is_exact(self):
        spec, tree = self.proof()
        doc = trace_to_json(tree.conclusion.gamma, tree)
        gamma, back = trace_from_json(doc)
        assert trace_to_json(gamma, back) == doc
        assert check_proof(spec.sig, back).ok

    def test_identical_inputs_give_identical_traces(self):
        spec1, tree1 = self.proof()
        spec2, tree2 = self.proof()
        assert serialize_trace(tree1.conclusion.gamma, tree1) == \
            serialize_trace(tree2.conclusion.gamma, tree2)

    def test_star_certificate_survives_the_round_trip(self):
        text = ("SPACE 2\nVECTORS\n  v0 = (1, 0)\n  v1 = (0, 1)\n"
                "UNITARY\n  x = [0, 1; 1, 0]\nPROPS\n  p\n"
                "AXIOMS\n  @(v0) p\n  @(v1) p\nGOAL AT v0 PROVE [x*] p\n")
        spec = load_spec_text(text)
        session = ProofSession(spec.sig, spec.axioms)
        result = session.prove(*spec.goals[0])
        assert result.holds
        out = serialize_trace(result.tree.conclusion.gamma, result.tree)
        _, back = deserialize_trace(out)
        assert check_proof(spec.sig, back).ok
        assert "StarI" in out and "n=" in out


def star_spec(order: int):
    """[g*] r over a qubit rotation g of the given order; r spans the plane."""
    c, s = math.cos(2 * math.pi / order), math.sin(2 * math.pi / order)
    return load_spec_text(
        "SPACE 2\nVECTORS\n  v0 = (0.6, 0.8)\n  v1 = (0.8, -0.6)\n"
        f"UNITARY\n  g = [{c!r}, {-s!r}; {s!r}, {c!r}]\n"
        "PROPS\n  p\n  r closed\nAXIOMS\n  @(v0) p\n  @(v0) r\n  @(v1) r\n"
        "GOAL AT v0 PROVE [g*] r\n")


class TestTraceCodec:
    @pytest.fixture(scope="class")
    def star(self):
        spec = star_spec(12)
        result = ProofSession(spec.sig, spec.axioms).prove(*spec.goals[0])
        assert result.holds and result.tree.certificate == 11
        gamma = result.tree.conclusion.gamma
        return (spec, serialize_trace(gamma, result.tree),
                trace_to_json(gamma, result.tree))

    def test_star_proof_decodes_from_both_formats_byte_identically(self, star):
        spec, text, doc = star
        for gamma, back in (deserialize_trace(text), trace_from_json(doc)):
            assert serialize_trace(gamma, back) == text
            assert trace_to_json(gamma, back) == doc
            assert check_proof(spec.sig, back).ok

    def test_each_distinct_string_is_parsed_once(self, star, monkeypatch):
        _, text, doc = star
        calls = Counter()

        def counting(parse):
            def wrapped(s):
                calls[(parse.__name__, s)] += 1
                return parse(s)
            return wrapped

        monkeypatch.setattr(sx, "parse_term", counting(sx.parse_term))
        monkeypatch.setattr(sx, "parse_sentence", counting(sx.parse_sentence))
        nodes = text.count(" | ") // 2
        for decode, trace in ((deserialize_trace, text), (trace_from_json, doc)):
            calls.clear()
            decode(trace)
            assert max(calls.values()) == 1
            assert sum(calls.values()) < nodes / 4

    def test_json_trace_is_one_line(self, star):
        _, _, doc = star
        assert doc.endswith("\n") and doc.count("\n") == 1
        assert '"certificate": 11' in doc

    def test_indented_json_still_decodes(self, star):
        _, _, doc = star
        indented = json.dumps(json.loads(doc), indent=1)
        assert trace_to_json(*trace_from_json(indented)) == doc

    def test_deep_text_trace_round_trips(self):
        gamma = (sx.At(sx.Name("v0"), sx.Prop("p")),)
        node = Sequent(gamma, sx.Name("v0"), sx.Prop("p"))
        tree = ProofTree(node, RuleId.MONOTONICITY)
        for _ in range(2999):
            tree = ProofTree(node, RuleId.EQ, (tree,))
        text = serialize_trace(gamma, tree)
        assert text.splitlines()[-1].startswith(" " * 2 * 2999 + "Monotonicity")
        assert serialize_trace(*deserialize_trace(text)) == text

    def test_implication_rule_on_a_non_implication_is_left_to_the_kernel(self):
        gamma, tree = deserialize_trace(
            "HDQL-TRACE 1\ngamma 0\nproof\nImp | v0 | p\n  Monotonicity | v0 | p\n")
        assert tree.rule is RuleId.IMP and tree.premises[0].conclusion.gamma == gamma

    @pytest.mark.parametrize("text", [
        "HDQL-TRACE 1\ngamma 3\n  p\n",
        "HDQL-TRACE 1\ngamma 0\nproof\n",
        "HDQL-TRACE 1\ngamma 0\nproof\n  Monotonicity | v0 | p\n",
        "HDQL-TRACE 1\ngamma 0\nproof\nMonotonicity | v0 | p\nEQ | v0 | p\n",
        "HDQL-TRACE 1\ngamma 0\nproof\nNoSuchRule | v0 | p\n",
        "HDQL-TRACE 1\ngamma 0\nproof\nMonotonicity | v0\n",
    ])
    def test_malformed_text_traces_raise_hdql_errors(self, text):
        with pytest.raises(HdqlError):
            deserialize_trace(text)

    @pytest.mark.parametrize("doc", [
        '{"version": 1, "gamma": [',
        '[1]',
        '{"version": 1, "gamma": "p", "proof": {}}',
        '{"version": 1, "gamma": [], "proof": null}',
        '{"version": 1, "gamma": [], "proof": {"rule": "Monotonicity", '
        '"goal": "p", "premises": []}}',
        '{"version": 1, "gamma": [], "proof": {"rule": "Monotonicity", '
        '"term": "v0", "goal": "p", "premises": {}}}',
    ])
    def test_malformed_json_traces_raise_hdql_errors(self, doc):
        with pytest.raises(HdqlError):
            trace_from_json(doc)


class TestOutOfRangeNumbers:
    """A number that is not finite, or a state whose norm overflows, is a
    located load error, wherever it stands."""

    @pytest.mark.parametrize("text, error", [
        ("VECTORS\n  v = (1e999, 0)\n", "line 3: number 1e999 is not finite"),
        ("VECTORS\n  v = (0, -1e400i)\n", "line 3: number -1e400i is not finite"),
        ("VECTORS\n  v = (1e200, 0)\n", "line 3: state vector's norm overflows"),
        ("MEASURE\n  m = { (1e999, 0) }\n", "line 3: number 1e999 is not finite"),
        ("MEASURE\n  m = { (1e155, 1e155) }\n", "line 3: state vector's norm overflows"),
        ("UNITARY\n  g = [1e999, 0; 0, 1]\n", "line 3: number 1e999 is not finite"),
        ("UNITARY\n  g = [1, 0; 0, 1e999i]\n", "line 3: number 1e999i is not finite"),
        ("AXIOMS\n  @(vec(1e999, 0)) p\n",
         "line 3: vector literal: state vector has non-finite entries"),
        ("AXIOMS\n  @(vec(1e200, 0)) p\n",
         "line 3: vector literal: state vector's norm overflows"),
        ("GOAL AT vec(0, 1e999) PROVE p\n",
         "line 2: vector literal: state vector has non-finite entries"),
        ("VALUATION\n  p = { (1e200, 0) }\n", "line 3: state vector's norm overflows"),
    ])
    def test_each_is_refused_with_its_line(self, text, error):
        with pytest.raises(SpecLoadError) as e:
            load_spec_text(f"SPACE 2\n{text}PROPS\n  p\n")
        assert e.value.errors == [error]
