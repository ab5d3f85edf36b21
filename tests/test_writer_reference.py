"""The trace writers, which write a node met again by copying its first
block, against the writers from before (tests/reference_writers.py), which
write every place: byte-equal text and JSON traces on the proofs of the
seeded sessions, the demos and files shaped like the benchmark's, on the
decoded traces of those proofs, on [g*] r at orders 8 to 64, on Imp blocks
under different clause sets and on a DAG whose shared node stands at two
depths; and one formatted row per distinct node."""

import os

import numpy as np
import pytest
import reference_writers as ref
from test_decoder_reference import HERE, proofs
from test_prover_reference import seeded_session, spec_files, star_file, teleport_file

from hdql import syntax as sx
from hdql.calculus import ProofTree, RuleId, Sequent, proof_nodes
from hdql.specfile import (deserialize_trace, load_spec_text, serialize_trace, trace_from_json,
                           trace_to_json)


def assert_same_traces(gamma, tree):
    """Both writers give the same bytes, in both formats (JSON where the
    stdlib json reaches its depth); returns the text trace."""
    text = serialize_trace(gamma, tree)
    assert text == ref.serialize_trace(gamma, tree)
    try:
        want = ref.trace_to_json(gamma, tree)
    except RecursionError:  # the stdlib json stops near 500 levels
        return text
    assert trace_to_json(gamma, tree) == want
    return text


def shared(tree):
    nodes = list(proof_nodes(tree))
    return len(set(nodes)) < len(nodes)


class TestSameBytes:
    def test_seeded_sessions_demos_bench_shaped_files_and_their_decoded_traces(self):
        found = []
        for seed in range(320):
            found += proofs(*seeded_session(seed))
        for spec in spec_files():
            found += proofs(spec.sig, spec.axioms, spec.goals)
        count = sharing = 0
        for _, gamma, tree in found:
            text = assert_same_traces(gamma, tree)
            if len(text) > 2 ** 20:  # as the decoder corpus leaves them out
                continue
            decoded = deserialize_trace(text)
            assert assert_same_traces(*decoded) == text
            count, sharing = count + 1, sharing + shared(tree) + shared(decoded[1])
        for name in ("rotation_unrolled.trace", "rotation_unrolled.json"):
            with open(os.path.join(HERE, "traces", name), encoding="utf-8") as fh:
                trace = fh.read()
            decoded = (trace_from_json if name.endswith(".json") else deserialize_trace)(trace)
            assert_same_traces(*decoded)
        assert count >= 200 and sharing >= 40

    @pytest.mark.parametrize("order", [8, 12, 16, 24, 32, 48, 64])
    def test_bench_shaped_star_files(self, order):
        spec = load_spec_text(star_file(order, np.random.default_rng([3410, order])))
        (_, gamma, tree), = proofs(spec.sig, spec.axioms, spec.goals)
        assert tree.certificate == order - 1 and shared(tree)
        assert_same_traces(gamma, tree)
        assert_same_traces(*trace_from_json(trace_to_json(gamma, tree)))

    def test_teleport_files(self):
        rng = np.random.default_rng(3411)
        for _ in range(4):
            spec = load_spec_text(teleport_file(rng))
            found = proofs(spec.sig, spec.axioms, spec.goals)
            assert found
            for _, gamma, tree in found:
                assert_same_traces(gamma, tree)

    def test_imp_blocks_under_different_clause_sets(self):
        spec = load_spec_text(
            "SPACE 2\nVECTORS\n  v0 = (1, 0)\nPROPS\n  p\n  q\n  s\nAXIOMS\n  @(v0) q\n"
            "GOAL AT v0 PROVE ((p => q /\\ q) /\\ (s => q /\\ q)) /\\ (p => q /\\ q)\n")
        (_, gamma, tree), = proofs(spec.sig, spec.axioms, spec.goals)
        text = assert_same_traces(gamma, tree)
        assert text.count("      ConjI | v0 | q /\\ q\n") == 2
        decoded = deserialize_trace(text)
        assert shared(decoded[1])
        assert assert_same_traces(*decoded) == text


def node(goal, *premises):
    return ProofTree(Sequent((), sx.Name("v0"), sx.Prop(goal)), RuleId.CONJ_I, premises)


class TestReindentedCopies:
    @pytest.mark.parametrize("deeper_first", [True, False], ids=["copied up", "copied down"])
    def test_a_shared_node_at_two_depths(self, deeper_first):
        x = node("x", node("y", node("z")), node("w"))
        deep = node("a", node("b", x))
        root = node("r", deep, x) if deeper_first else node("r", x, deep)
        text = assert_same_traces((), root)
        rows = text.splitlines()[3:]  # past the header of an empty clause set
        depths = [len(row) - len(row.lstrip(" ")) for row in rows]
        assert depths == ([0, 2, 4, 6, 8, 10, 8, 2, 4, 6, 4] if deeper_first
                          else [0, 2, 4, 6, 4, 2, 4, 6, 8, 10, 8])

    def test_a_node_shared_at_many_depths_and_under_its_own_copies(self):
        leaf = node("leaf")
        pair = node("pair", leaf, node("mid", leaf))
        tree = node("r", pair, node("s", pair, node("t", node("u", pair), leaf)), pair)
        assert_same_traces((), tree)


class TestFormatting:
    def test_one_formatted_row_per_distinct_node(self, monkeypatch):
        spec = load_spec_text(star_file(24, np.random.default_rng(3412)))
        (_, gamma, tree), = proofs(spec.sig, spec.axioms, spec.goals)
        distinct = len(set(proof_nodes(tree)))
        assert 4 * distinct < sum(1 for _ in proof_nodes(tree))
        calls = {"format_term": 0, "format_sentence": 0}
        for name in calls:
            fmt = getattr(sx, name)

            def counted(*args, name=name, fmt=fmt):
                calls[name] += 1
                return fmt(*args)
            monkeypatch.setattr(sx, name, counted)
        for write in (serialize_trace, trace_to_json):
            calls.update(dict.fromkeys(calls, 0))
            write(gamma, tree)
            assert calls == {"format_term": distinct, "format_sentence": distinct + len(gamma)}
