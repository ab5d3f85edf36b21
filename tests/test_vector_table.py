"""Bucketed ``VectorTable`` lookups against the linear scan they replaced
(tests/reference_vector_table.py): the same first match on seeded corpora
built to hit the bucketing's edge cases, and the same initial models."""

import numpy as np
import pytest
from gen import random_closed_model
from reference_vector_table import ReferenceVectorTable
from test_initial_model import CLAUSES, random_qubit_sig

from hdql import calculus
from hdql import hilbert as hl
from hdql.errors import DimensionMismatch
from hdql.initial_model import build_initial
from hdql.semantics import FiniteVectors, QuantumModel, region_member, sat_at
from hdql.signature import SignatureInstance
from hdql.syntax import Prop, parse


def unit_direction(table: hl.VectorTable) -> np.ndarray:
    """The complex vector whose real inner product the table buckets by."""
    return table._dir.conj()


def replay(dim, tol, stored, queries):
    """Add the stored rows to both tables one by one; after each add, every
    query must find the same index in both. Returns the bucketed table and
    the reference's answers after the last add."""
    table, ref = hl.VectorTable(dim, tol), ReferenceVectorTable(dim, tol)
    for v in stored:
        assert table.add(v) == ref.add(v)
        for q in queries:
            assert table.find(q) == ref.find(q)
    assert np.array_equal(table.rows, ref.rows)
    return table, [ref.find(q) for q in queries]


class TestAgainstTheLinearScan:
    @pytest.mark.parametrize("tol", [1e-9, 1e-4, 0.3])
    def test_pairs_at_the_tolerance_boundary(self, tol):
        rng = np.random.default_rng(41)
        for dim in (1, 2, 3, 8):
            stored = [hl.random_state(dim, rng) * rng.uniform(0.1, 10.0) for _ in range(12)]
            queries = []
            for e in stored:
                bound = tol * max(1.0, hl.norm(e))
                for f in (1 - 1e-6, 1 + 1e-6):
                    queries.append(e + f * bound * hl.random_state(dim, rng))
            _, got = replay(dim, tol, stored, queries)
            # the boundary is really exercised: just inside hits, just outside misses
            assert any(i >= 0 for i in got[0::2])
            assert -1 in got[1::2] or tol == 0.3

    def test_zero_and_large_norm_rows_rebucket(self):
        rng = np.random.default_rng(42)
        dim, tol = 3, 1e-6
        norms = [0.0, 1.0, 0.5, 1e3, 2.0, 1e6, 1e-3, 5e6]
        stored = [hl.random_state(dim, rng) * n for n in norms]
        queries = [np.zeros(dim, dtype=complex)]
        for e in stored:
            bound = tol * max(1.0, hl.norm(e))
            queries += [e.copy(), e + 0.5 * bound * hl.random_state(dim, rng),
                        e + 2.0 * bound * hl.random_state(dim, rng)]
        table, got = replay(dim, tol, stored, queries)
        assert table._width > 1e6 * tol  # the large rows widened the cells
        assert got[0] == 0 and got[1 + 3 * 5] == 5

    def test_many_near_duplicates_in_one_cell(self):
        rng = np.random.default_rng(43)
        dim, tol = 4, 1e-6
        table = hl.VectorTable(dim, tol)
        base = hl.random_state(dim, rng)
        u = unit_direction(table)
        stored = []
        for _ in range(60):
            # displacements orthogonal to the projection keep every row in
            # base's cell; their sizes straddle the tolerance
            w = hl.random_state(dim, rng)
            w = w - np.vdot(u, w).real * u
            stored.append(base + rng.uniform(0.2, 3.0) * tol * w / hl.norm(w))
        queries = [base] + [e + 0.7 * tol * hl.random_state(dim, rng) for e in stored]
        table, got = replay(dim, tol, stored, queries)
        assert len(table._cells) == 1
        assert len(set(got)) > 3  # not every query falls to the first row

    def test_projections_straddling_a_cell_edge(self):
        rng = np.random.default_rng(44)
        dim, tol = 2, 1e-5
        table = hl.VectorTable(dim, tol)
        u, w = unit_direction(table), table._width
        stored, queries = [], []
        for k in range(-3, 4):
            base = hl.random_state(dim, rng)
            base = base - np.vdot(u, base).real * u + k * w * u  # projection k * w
            for s in (-0.6, -0.1, -1e-9, 0.0, 1e-9, 0.1, 0.6):
                e = base + s * tol * u
                stored.append(e)
                queries += [e + t * tol * u for t in (-1.2, -0.9, -0.3, 0.3, 0.9, 1.2)]
        table, got = replay(dim, tol, stored, queries)
        assert len(table._cells) == 8  # each edge has rows on both sides
        assert any(i >= 0 for i in got) and -1 in got

    def test_random_clustered_corpora(self):
        rng = np.random.default_rng(45)
        for _ in range(30):
            dim = int(rng.integers(1, 9))
            tol = float(rng.choice([1e-9, 1e-3, 0.3]))
            centres = [hl.random_state(dim, rng) * rng.uniform(0.0, 3.0) for _ in range(6)]
            pool = [c + rng.uniform(0, 2) * tol * hl.random_state(dim, rng)
                    for c in centres for _ in range(5)]
            stored = [pool[i] for i in rng.permutation(len(pool))[:20]]
            queries = [pool[i] for i in rng.permutation(len(pool))[:15]]
            replay(dim, tol, stored, queries)


class TestFindOrAdd:
    """find_or_add projects once; it must answer as find, then add on a miss."""

    @staticmethod
    def assert_same_stream(dim, tol, stream):
        one, two, ref = (hl.VectorTable(dim, tol), hl.VectorTable(dim, tol),
                         ReferenceVectorTable(dim, tol))
        for v in stream:
            i = two.find(v)
            want = (i, False) if i >= 0 else (two.add(v), True)
            assert one.find_or_add(v) == want == ref.find_or_add(v)
            assert all(one.find(q) == two.find(q) == ref.find(q) for q in stream[::7])
        assert np.array_equal(one.rows, ref.rows) and np.array_equal(two.rows, ref.rows)
        return one

    def test_near_duplicates_at_the_bound(self):
        rng = np.random.default_rng(51)
        for dim in (1, 2, 3, 8):
            for tol in (1e-9, 1e-4, 0.3):
                stream = []
                for _ in range(10):
                    e = hl.random_state(dim, rng) * rng.uniform(0.1, 10.0)
                    bound = tol * max(1.0, hl.norm(e))
                    stream += [e] + [e + f * bound * hl.random_state(dim, rng)
                                     for f in (0.9, 1.1, 0.9, 1.1)]
                stream = [stream[i] for i in rng.permutation(len(stream))]
                table = self.assert_same_stream(dim, tol, stream)
                assert 0 < len(table.rows) < len(stream)

    def test_a_row_that_doubles_the_scale_rebuckets(self):
        rng = np.random.default_rng(52)
        dim, tol = 3, 1e-6
        stream = [hl.random_state(dim, rng) for _ in range(6)]
        stream += [hl.random_state(dim, rng) * 4.0, stream[2], stream[0] * (1 + 0.9 * tol)]
        stream += [hl.random_state(dim, rng) * 1e5] + [v * (1 + 1.1 * tol) for v in stream]
        table = hl.VectorTable(dim, tol)
        widths = []
        for v in stream:
            table.find_or_add(v)
            widths.append(table._width)
        assert len(set(widths)) >= 3  # two rows widened the cells
        self.assert_same_stream(dim, tol, stream)

    def test_wrong_dimension_raises(self):
        with pytest.raises(DimensionMismatch):
            hl.VectorTable(2).find_or_add(hl.basis_state(3, 0))


# ---------------------------------------------------------- initial models

def bench_shaped(dim, rng):
    """Two unitaries, a rank dim/2 measurement, two named states, props p q r
    with r closed, and five anchored clauses."""
    sig = SignatureInstance(
        dim=dim,
        unitaries={"u0": hl.random_unitary(dim, rng), "u1": hl.random_unitary(dim, rng)},
        measurements={"m": hl.random_subspace(dim, rng, rank=dim // 2)},
        named_vectors={"v0": hl.random_state(dim, rng), "v1": hl.random_state(dim, rng)},
        props=frozenset({"p", "q", "r"}), closed_props=frozenset({"r"}))
    clauses = ["@(v0) p", "@(v1) [u0 | m] q", "@(v0) [u1 ; u0] (q /\\ r)", "@(v1) r",
               "@(v1) [m] p"]
    return sig, [parse(c) for c in clauses]


CLOSED_MODEL_CLAUSES = ["@(w0) p", "[u0] p", "@(w0) [u1 ; u0] r0", "@(u1(w0)) [m0] r1",
                        "(@(w0) p) => [u1] p", "@(w0) [u0*] r2"]


def fingerprint(im):
    sat = im.session._prover.saturation(im.session.gamma)
    finite = {p: np.array(region.vectors) for p, region in im.model.valuation.items()
              if isinstance(region, FiniteVectors)}
    return im.term_universe, im.truncated, sat.class_terms, list(sat.facts), finite


def assert_same_build(monkeypatch, sig, gamma, depth, **kw):
    got = fingerprint(build_initial(sig, gamma, depth=depth, **kw))
    with monkeypatch.context() as m:
        m.setattr(hl, "VectorTable", ReferenceVectorTable)
        want = fingerprint(build_initial(sig, gamma, depth=depth, **kw))
    assert got[:4] == want[:4]
    assert got[4].keys() == want[4].keys()
    for p in got[4]:
        assert np.array_equal(got[4][p], want[4][p])


class TestInitialModelsUnchanged:
    def test_random_qubit_signatures(self, monkeypatch):
        rng = np.random.default_rng(46)
        for _ in range(15):
            sig = random_qubit_sig(rng)
            picks = list(rng.choice(CLAUSES, size=int(rng.integers(1, 5)), replace=False))
            assert_same_build(monkeypatch, sig, [parse(c) for c in picks], depth=3)

    def test_random_closed_models(self, monkeypatch):
        rng = np.random.default_rng(47)
        for dim in (2, 3, 4):
            sig = random_closed_model(dim, rng).sig
            assert_same_build(monkeypatch, sig, [parse(c) for c in CLOSED_MODEL_CLAUSES],
                              depth=3)

    def test_dim8_bench_shaped_signature(self, monkeypatch):
        sig, gamma = bench_shaped(8, np.random.default_rng(48))
        assert_same_build(monkeypatch, sig, gamma, depth=5)

    def test_rows_checked_per_lookup_stay_bounded_at_depth_8(self, monkeypatch):
        # scaling without a timing assert: the rows a lookup checks exactly
        # are at most those of the three cells it probes
        lookups, candidates = [0], [0]
        find_or_add = hl.VectorTable.find_or_add

        def counting_find_or_add(self, v):
            c = float((self._dir @ v).real) // self._width
            lookups[0] += 1
            candidates[0] += sum(len(self._cells.get(k, ())) for k in (c - 1, c, c + 1))
            return find_or_add(self, v)

        monkeypatch.setattr(hl.VectorTable, "find_or_add", counting_find_or_add)
        sig, gamma = bench_shaped(8, np.random.default_rng(1))
        im = build_initial(sig, gamma, depth=8, max_terms=20000)
        assert len(im.term_universe) > 5000 and not im.truncated
        assert candidates[0] / lookups[0] <= 2


# ------------------------------------------------- the table's other users

class TestRegionTables:
    def test_a_finite_region_builds_its_table_once(self, monkeypatch):
        rng = np.random.default_rng(49)
        model = random_closed_model(3, rng)
        targets = tuple(hl.random_state(3, rng) for _ in range(5))
        model = QuantumModel(model.sig, {"p": FiniteVectors(targets)})
        built = []
        table = hl.VectorTable

        def counting_table(*args):
            built.append(args[:2])
            return table(*args)

        monkeypatch.setattr(hl, "VectorTable", counting_table)
        for _ in range(3):
            for t in targets:
                assert sat_at(model, t, Prop("p"))
                assert region_member(model.valuation["p"], t + 1e-3, model.sig.tol) is False
            assert not sat_at(model, hl.random_state(3, rng), Prop("p"))
        assert built == [(3, model.sig.tol)]
        # another tolerance is another table
        assert region_member(model.valuation["p"], targets[0] + 1e-3, 1e-2)
        assert built == [(3, model.sig.tol), (3, 1e-2)]


class TestInstantiationQueue:
    def test_only_clauses_eliminated_at_sites_are_queued(self, monkeypatch):
        queued = []
        instantiate = calculus._Saturation._instantiate

        def recording(self, s, builder, term):
            queued.append(calculus._at_sites(s))
            return instantiate(self, s, builder, term)

        monkeypatch.setattr(calculus._Saturation, "_instantiate", recording)
        sig, gamma = bench_shaped(4, np.random.default_rng(50))
        gamma = gamma + [parse("[u0] p"), parse("p /\\ q"), parse("store y . @(y) q")]
        build_initial(sig, gamma, depth=3)
        assert queued and all(queued)

