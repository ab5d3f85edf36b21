"""Unit tests for the Hilbert-space arithmetic layer."""

import numpy as np
import pytest

from hdql import hilbert as hl
from hdql.errors import DimensionMismatch, HdqlError


def sub_residual(a: hl.Subspace, b: hl.Subspace) -> float:
    """Projector-norm distance between two subspaces."""
    return float(np.linalg.norm(hl.projector(a) - hl.projector(b), 2))


def span(*vs, dim=None):
    return hl.orthonormalize(list(vs), dim=dim)


K0 = hl.basis_state(2, 0)
K1 = hl.basis_state(2, 1)


class TestInnerProduct:
    def test_orthogonal_basis_vectors(self):
        assert hl.inner(K0, K1) == 0

    def test_hand_evaluated_sum(self):
        # sum of conj(v_i) * w_i: 3*3 + (-4i)(4i) = 9 + 16
        v = hl.vector([3, 4j])
        assert hl.inner(v, v) == pytest.approx(25)

    def test_conjugate_linear_first_argument(self):
        v = hl.vector([1, 1]) / np.sqrt(2)
        assert hl.inner(v, K0) == pytest.approx(1 / np.sqrt(2))
        # scaling the first argument conjugates the scalar
        assert hl.inner(2j * v, K0) == pytest.approx(-2j / np.sqrt(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hl.inner(K0, hl.basis_state(3, 0))


class TestOrthonormalize:
    def test_gram_schmidt_by_hand(self):
        s = span([1, 0], [1, 1])
        assert s.rank == 2
        assert np.allclose(s.basis[0], [1, 0])
        assert np.allclose(s.basis[1], [0, 1])

    def test_zero_vector_spans_nothing(self):
        assert span([0, 0]).rank == 0

    def test_duplicate_collapses(self):
        s = span(K0, K0)
        assert s.rank == 1
        assert np.allclose(s.basis[0], K0)

    def test_empty_family_needs_dim(self):
        assert hl.orthonormalize([], dim=3).rank == 0


class TestOrthocomplement:
    def test_qubit_basis(self):
        c = hl.orthocomplement(span(K0))
        assert sub_residual(c, span(K1)) < 1e-12

    def test_full_space_complement_is_zero(self):
        assert hl.orthocomplement(hl.full_space(2)).rank == 0

    def test_diagonal_line(self):
        c = hl.orthocomplement(span([1, 1]))
        assert sub_residual(c, span([1, -1])) < 1e-12


class TestProject:
    def test_kills_orthogonal_component(self):
        w = 0.6 * K0 + 0.8j * K1
        assert np.allclose(hl.project(span(K0), w), 0.6 * K0)

    def test_zero_subspace(self):
        assert np.allclose(hl.project(hl.zero_subspace(2), K0), 0)

    def test_projection_sum_by_hand(self):
        p = hl.project(span([1, 1]), hl.vector([1, 0]))
        assert np.allclose(p, [0.5, 0.5])


class TestMember:
    def test_full_space(self):
        assert hl.member(span(K0, K1), K0)

    def test_not_member(self):
        assert not hl.member(span(K0), K1)

    def test_projection_fixed_point(self):
        w = (K0 + K1) / np.sqrt(2)
        assert hl.member(span([1, 1]), w)


class TestSumAndIntersect:
    def test_basis_sum_is_full(self):
        s = hl.direct_sum(span(K0), span(K1))
        assert sub_residual(s, hl.full_space(2)) < 1e-12

    def test_sum_with_complement_is_full(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = hl.random_subspace(4, rng)
            total = hl.direct_sum(s, hl.orthocomplement(s))
            assert sub_residual(total, hl.full_space(4)) < 1e-10

    def test_intersection_by_hand(self):
        e = [hl.basis_state(3, i) for i in range(3)]
        got = hl.intersect(span(e[0], e[1]), span(e[1], e[2]))
        assert sub_residual(got, span(e[1])) < 1e-10


class TestMeasurement:
    def test_formula_on_superposition(self):
        w = (K0 + K1) / np.sqrt(2)
        assert np.allclose(hl.apply_measurement(span(K0), w), K0)

    def test_fixed_point(self):
        assert np.allclose(hl.apply_measurement(span(K0), K0), K0)

    def test_orthogonal_input_maps_to_origin(self):
        assert np.allclose(hl.apply_measurement(span(K0), K1), 0)

    def test_non_finite_input_raises_as_vector_does(self):
        s = span(K0)
        for bad in (np.array([np.nan, 0], dtype=complex), np.array([1, np.inf], dtype=complex),
                    np.array([complex(0, -np.inf), 1]), [np.nan, 0], [1, np.inf]):
            with pytest.raises(HdqlError, match="non-finite"):
                hl.apply_measurement(s, bad)
        with pytest.raises(HdqlError, match="1-d and non-empty"):
            hl.apply_measurement(s, np.zeros((2, 2), dtype=complex))
        with pytest.raises(DimensionMismatch):
            hl.apply_measurement(s, hl.basis_state(3, 0))
        # finite entries whose norm overflows are a state, as vector says; the
        # infinite norm then sends it to the origin, as it always did
        big = np.array([1e300, 1e300], dtype=complex)
        with np.errstate(over="ignore"):
            assert not hl.apply_measurement(s, big).any()

    def test_rank_zero_and_vanishing_projections_give_the_origin(self):
        rng = np.random.default_rng(31)
        for dim in (1, 2, 5):
            w = hl.random_state(dim, rng)
            for s in (hl.zero_subspace(dim), hl.orthocomplement(hl.orthonormalize([w]))):
                out = hl.apply_measurement(s, w)
                assert out.dtype == complex and out.shape == (dim,) and not out.any()
            assert not hl.apply_measurement(span(K0), K1 + 1e-12 * K0).any()

    def test_arrays_and_lists_measure_bit_for_bit_as_project_then_renormalize(self):
        rng = np.random.default_rng(32)
        for dim in (1, 2, 3, 8):
            for rank in range(dim + 1):
                s = hl.random_subspace(dim, rng, rank=rank)
                for _ in range(5):
                    w = hl.random_state(dim, rng) * rng.uniform(0.1, 10.0)
                    p = hl.project(s, w)
                    want = (np.zeros(dim, dtype=complex)
                            if hl.norm(p) <= hl.DEFAULT_TOL * max(1.0, hl.norm(w))
                            else p / np.sqrt(max(np.vdot(w, p).real, 0.0)))
                    assert np.array_equal(hl.apply_measurement(s, w), want)
                    assert np.array_equal(hl.apply_measurement(s, list(w)), want)


class TestIsUnitary:
    def test_standard_gates(self):
        for g in (hl.H, hl.X, hl.Y, hl.Z, hl.CNOT):
            assert hl.is_unitary(g)

    def test_scaling_is_not_unitary(self):
        assert not hl.is_unitary(np.diag([1.0, 2.0]))


class TestTensor:
    def test_basis_kets(self):
        assert np.allclose(hl.tensor(K0, K1), hl.ket("01"))

    def test_cnot_flips_target(self):
        assert np.allclose(hl.CNOT @ hl.ket("10"), hl.ket("11"))

    def test_hadamard_on_first_qubit(self):
        got = hl.tensor_op(hl.H, hl.identity(2)) @ hl.ket("00")
        want = (hl.ket("00") + hl.ket("10")) / np.sqrt(2)
        assert np.allclose(got, want)


class TestSubspaceLaws:
    """Randomized checks of the closed-subspace identities."""

    def test_double_complement(self):
        rng = np.random.default_rng(11)
        for dim in range(2, 9):
            for _ in range(5):
                s = hl.random_subspace(dim, rng)
                assert sub_residual(hl.orthocomplement(hl.orthocomplement(s)), s) < 1e-10

    def test_decomposition(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            dim = int(rng.integers(2, 9))
            s = hl.random_subspace(dim, rng)
            w = hl.random_state(dim, rng)
            back = hl.project(s, w) + hl.project(hl.orthocomplement(s), w)
            assert np.linalg.norm(back - w) < 1e-10

    def test_local_closure(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            dim = int(rng.integers(3, 8))
            y = hl.random_subspace(dim, rng, rank=int(rng.integers(1, dim + 1)))
            if y.rank == 0:
                continue
            # pick a random subspace of y by mixing its basis rows
            k = int(rng.integers(0, y.rank + 1))
            coeffs = rng.standard_normal((k, y.rank)) + 1j * rng.standard_normal((k, y.rank))
            s = hl.orthonormalize([c @ y.basis for c in coeffs], dim=dim)
            local = hl.intersect(y, hl.orthocomplement(hl.intersect(y, hl.orthocomplement(s))))
            assert sub_residual(local, s) < 1e-9

    def test_measurement_lands_in_subspace_with_unit_norm(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            dim = int(rng.integers(2, 9))
            s = hl.random_subspace(dim, rng, rank=int(rng.integers(1, dim + 1)))
            w = hl.random_state(dim, rng)
            if hl.norm(hl.project(s, w)) <= 1e-9:
                continue
            m = hl.apply_measurement(s, w)
            assert hl.member(s, m, tol=1e-9)
            assert abs(hl.norm(m) - 1.0) < 1e-9

    def test_unitary_preserves_inner_products(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            dim = int(rng.integers(2, 9))
            u = hl.random_unitary(dim, rng)
            assert hl.is_unitary(u, tol=1e-9)
            v, w = hl.random_state(dim, rng), hl.random_state(dim, rng)
            assert abs(hl.inner(u @ v, u @ w) - hl.inner(v, w)) < 1e-9


class TestNorm:
    def test_bit_for_bit_np_linalg_norm(self):
        # the memoized vectors and every tolerance bound keep their exact bits
        rng = np.random.default_rng(61)
        for dim in range(1, 65):
            for _ in range(100):
                v = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
                v *= 10.0 ** rng.uniform(-5, 5) / np.linalg.norm(v)
                for w in (v, v[::2], v.real.copy(), np.zeros(dim, dtype=complex)):
                    assert hl.norm(w) == float(np.linalg.norm(w))
                    assert type(hl.norm(w)) is float


class TestVectorTable:
    def test_empty_table_finds_nothing(self):
        assert hl.VectorTable(2).find(K0) == -1

    def test_first_match_in_insertion_order_wins(self):
        table = hl.VectorTable(2, tol=1e-6)
        table.add(K1)
        first = table.add(K0 + 4e-7)
        table.add(K0 - 4e-7)
        # both stored near-copies of K0 lie within tolerance of it
        assert table.find(K0) == first == 1

    def test_bound_scales_with_the_stored_norm(self):
        tol = 1e-6
        for scale in (0.5, 1.0, 3.0):
            e = scale * K0
            table = hl.VectorTable(2, tol=tol, vectors=[e])
            bound = tol * max(1.0, scale)
            assert table.find(e + 0.9 * bound * K1) == 0
            assert table.find(e + 1.1 * bound * K1) == -1

    def test_growth_keeps_every_row(self):
        table = hl.VectorTable(3)
        vecs = [hl.vector([i, 1j * i, 1]) for i in range(50)]
        for i, v in enumerate(vecs):
            assert table.add(v) == i
        assert all(table.find(v) == i for i, v in enumerate(vecs))
        assert np.array_equal(table.rows, np.array(vecs))

    def test_agrees_with_a_reference_loop(self):
        rng = np.random.default_rng(29)
        tol = 0.3
        stored = [hl.random_state(2, rng) * rng.uniform(0.5, 2.0) for _ in range(40)]
        table = hl.VectorTable(2, tol=tol, vectors=stored)
        for _ in range(100):
            v = hl.random_state(2, rng)
            want = next((i for i, e in enumerate(stored)
                         if hl.norm(v - e) <= tol * max(1.0, hl.norm(e))), -1)
            assert table.find(v) == want

    def test_wrong_dimension_raises(self):
        table = hl.VectorTable(2, vectors=[K0])
        with pytest.raises(DimensionMismatch):
            table.find(hl.basis_state(3, 0))
        with pytest.raises(DimensionMismatch):
            table.add(hl.basis_state(3, 0))


class TestVectorRange:
    def test_a_norm_that_overflows_is_refused(self):
        for coords in ([1e200, 0], [1e155, 1e155], [0, 1e154 + 1e154j]):
            with pytest.raises(HdqlError, match="state vector's norm overflows"):
                hl.vector(coords)
        with pytest.raises(HdqlError):  # so member cannot read inf <= inf
            hl.member(span(K0), np.array([0, 1e200], dtype=complex))

    def test_non_finite_entries_keep_their_message(self):
        for coords in ([np.inf, 0], [np.nan, 1e200], [complex(0, -np.inf)]):
            with pytest.raises(HdqlError, match="state vector has non-finite entries"):
                hl.vector(coords)

    @pytest.mark.filterwarnings("error")
    def test_vec_eq_refuses_a_norm_that_overflows(self):
        big, big_i = np.array([1e200, 0j]), np.array([0, 1e200j])
        for v, w in ((big, big_i), (big, K0), (K0, big_i)):
            with pytest.raises(HdqlError, match="state vector's norm overflows"):
                hl.vec_eq(v, w)
        with pytest.raises(HdqlError, match="state vector has non-finite entries"):
            hl.vec_eq(K0, np.array([np.nan, 0j]))
        # both norms are finite and their difference's is not: unequal, no warning
        edge = np.array([1e154, 0j])
        assert not hl.vec_eq(edge, -edge) and hl.vec_eq(edge, edge.copy())
        assert hl.vec_eq(K0, K0 + 1e-12) and not hl.vec_eq(K0, K1)

    def test_a_norm_just_below_the_overflow_is_a_state(self):
        assert np.isfinite(hl.norm(hl.vector([1e153, 1e153j])))

    @pytest.mark.filterwarnings("error")
    def test_a_vector_table_refuses_what_vector_refuses_and_keeps_its_rows(self):
        for add in (lambda t, v: t.add(v), lambda t, v: t.find_or_add(v)):
            table = hl.VectorTable(2, vectors=[K1])
            for v, message in ((np.array([1e200, 0j]), "state vector's norm overflows"),
                               (np.array([1e155, 1e155j]), "state vector's norm overflows"),
                               (np.array([np.nan, 0j]), "state vector has non-finite entries"),
                               (np.array([1, np.inf * 1j]), "state vector has non-finite entries")):
                with pytest.raises(HdqlError, match=message):
                    add(table, v)
            assert np.array_equal(table.rows, [K1]) and table.find(K0) == -1
            assert table.find_or_add(K0) == (1, True) and table.find(K0 + 1e-12) == 1
