"""Finite-dimensional complex inner-product arithmetic.

Vectors and operators are plain numpy arrays (complex128); subspaces are
stored as orthonormal bases. The inner product is conjugate-linear in the
first argument. All equality is tolerance-based: v matches a stored or
reference vector e when |v - e| <= tol * max(1, |e|) (default ``DEFAULT_TOL``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, HdqlError

DEFAULT_TOL = 1e-9

__all__ = [
    "DEFAULT_TOL", "Subspace", "vector", "operator", "inner", "norm",
    "vec_eq", "VectorTable", "zero_subspace", "full_space", "gram_schmidt_step",
    "orthonormalize", "orthocomplement", "project", "projector", "member", "direct_sum",
    "intersect", "apply_measurement", "is_unitary", "tensor", "tensor_op",
    "basis_state", "ket", "H", "X", "Y", "Z", "CNOT", "identity",
    "random_state", "random_unitary", "random_subspace",
]


def vector(coords) -> np.ndarray:
    """Build a 1-d complex state vector, rejecting NaN/Inf entries and a norm that overflows."""
    v = np.atleast_1d(np.asarray(coords, dtype=complex))
    if v.ndim != 1 or v.size < 1:
        raise HdqlError(f"state vector must be 1-d and non-empty, got shape {v.shape}")
    _finite_norm(v)
    return v


def _finite_norm(v: np.ndarray) -> float:
    """|v| from np.vdot, which does not warn; an HdqlError unless it is finite."""
    if math.isfinite(square := np.vdot(v, v).real):  # past the largest float once |v| > 1.3e154
        return math.sqrt(square)
    if not np.all(np.isfinite(v)):
        raise HdqlError("state vector has non-finite entries")
    raise HdqlError("state vector's norm overflows")


def operator(entries) -> np.ndarray:
    """Build a square complex matrix, rejecting NaN/Inf entries."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise HdqlError(f"operator must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise HdqlError("operator has non-finite entries")
    return m


def _same_dim(v: np.ndarray, w: np.ndarray) -> None:
    if v.shape[0] != w.shape[0]:
        raise DimensionMismatch(f"dimension mismatch: {v.shape[0]} vs {w.shape[0]}")


def inner(v: np.ndarray, w: np.ndarray) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    _same_dim(v, w)
    return complex(np.vdot(v, w))


def norm(v: np.ndarray) -> float:
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))  # np.linalg.norm's sum


def vec_eq(v: np.ndarray, w: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Tolerance equality, v the reference: |v - w| <= tol * max(1, |v|); refuses as vector."""
    _same_dim(vector(v), vector(w))
    return math.sqrt(np.vdot(v - w, v - w).real) <= tol * max(1.0, norm(v))


class VectorTable:
    """Vectors in insertion order (``rows``, one (capacity, dim) array that
    doubles when full), each with its squared bound (tol * max(1, |e|))^2,
    bucketed by floor(p / w), p its projection onto a fixed real unit vector.

    No match is missed: projection is 1-Lipschitz, so a row e that v matches
    projects within tol * max(1, |e|) of v. The width w is (tol + margin) *
    scale, scale >= every stored max(1, |e|) (a row past it doubles it and
    re-buckets all), and the margin 8 (dim + 1) eps (1 + tol) covers rounding
    in projections, quotients and bounds. So e is in v's cell or a neighbour,
    whose rows a lookup checks exactly in index order: the first match wins."""

    def __init__(self, dim: int, tol: float = DEFAULT_TOL, vectors=()):
        self.dim, self.tol = dim, tol
        self._rows = np.empty((8, dim), dtype=complex)
        self.rows = self._rows[:0]
        self._bounds, self._cells = [], {}  # [squared bound], {cell: [index]}
        u = np.cos(np.arange(1.0, 2 * dim + 1))  # cos 1, cos 2, ...: no rational relation
        self._dir = (u[0::2] - 1j * u[1::2]) / norm(u)  # Re(dir @ v) = <u, v>
        self._width = self._unit = tol + 8 * (dim + 1) * np.finfo(float).eps * (1 + tol)
        for v in vectors:
            self.add(v)

    def find(self, v: np.ndarray, key: float | None = None) -> int:
        """Index of the first stored row that v matches, or -1. The key, v's
        bucketing projection, is computed unless the caller already has it."""
        c, cells = (self._key(v) if key is None else key) // self._width, self._cells
        for i in sorted([*cells.get(c - 1, ()), *cells.get(c, ()), *cells.get(c + 1, ())]):
            d = (self._rows[i] - v).view(float)
            if d @ d <= self._bounds[i]:
                return i
        return -1

    def add(self, v: np.ndarray, key: float | None = None) -> int:
        """Append v as the last row, if vector takes it, and return its index; key as for find."""
        scale = max(1.0, _finite_norm(v))
        key = self._key(v) if key is None else key
        n = len(self.rows)
        if n == len(self._rows):
            self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
        self._rows[n] = v
        self.rows = self._rows[:n + 1]
        self._bounds.append((self.tol * scale) ** 2)
        self._cells.setdefault(key // self._width, []).append(n)
        if scale * self._unit > self._width:  # wider cells: re-bucket every row
            self._width, self._cells = 2 * scale * self._unit, {}
            for i, p in enumerate((self.rows @ self._dir).real.tolist()):
                self._cells.setdefault(p // self._width, []).append(i)
        return n

    def find_or_add(self, v: np.ndarray) -> tuple[int, bool]:
        """(find(v), False) if v matches a row, else (add(v), True), with one key."""
        i = self.find(v, key := self._key(v))
        return (i, False) if i >= 0 else (self.add(v, key), True)

    def _key(self, v: np.ndarray) -> float:
        if v.shape != (self.dim,):
            raise DimensionMismatch(f"vector of shape {v.shape} in a table of dim {self.dim}")
        return float((self._dir @ v).real)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A closed subspace, represented by an orthonormal basis.

    ``basis`` has shape (rank, dim); rows are pairwise orthonormal within
    the tolerance they were built with. The zero subspace has an empty
    basis (shape (0, dim)).
    """

    dim: int
    basis: np.ndarray

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, rank={self.rank})"


def zero_subspace(dim: int) -> Subspace:
    return Subspace(dim, np.zeros((0, dim), dtype=complex))


def full_space(dim: int) -> Subspace:
    return Subspace(dim, np.eye(dim, dtype=complex))


def gram_schmidt_step(rows: list, v: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Append v's residual after projecting out the orthonormal rows, normalized,
    unless it is at most tol * max(1, |v|); whether it was appended."""
    u = v.astype(complex)
    for _ in range(2):  # re-orthogonalization keeps the basis orthonormal to ~eps
        for b in rows:
            u = u - np.vdot(b, u) * b
    r = norm(u)
    if r <= tol * max(1.0, norm(v)):
        return False
    rows.append(u / r)
    return True


def orthonormalize(vs, dim: int | None = None, tol: float = DEFAULT_TOL) -> Subspace:
    """Gram-Schmidt an arbitrary family into a Subspace spanning it: a span
    grows by one ``gram_schmidt_step`` per vector, in order.

    Vectors whose residual after projecting out the basis so far is at most
    tol * max(1, |v|) are dropped, so duplicates and near-dependent inputs
    collapse. An empty family yields the zero subspace (dim required then).
    """
    vs = [vector(v) for v in vs]
    if dim is None:
        if not vs:
            raise HdqlError("orthonormalize needs an explicit dim for an empty family")
        dim = vs[0].shape[0]
    rows: list[np.ndarray] = []
    for v in vs:
        if v.shape[0] != dim:
            raise DimensionMismatch(f"vector of dim {v.shape[0]} in space of dim {dim}")
        gram_schmidt_step(rows, v, tol)
    if not rows:
        return zero_subspace(dim)
    return Subspace(dim, np.array(rows))


def orthocomplement(s: Subspace) -> Subspace:
    """All vectors orthogonal to s; rank is dim - rank(s)."""
    if s.rank == 0:
        return full_space(s.dim)
    if s.rank >= s.dim:
        return zero_subspace(s.dim)
    # w is orthogonal to every basis row b iff conj(basis) @ w == 0
    _, _, vh = np.linalg.svd(s.basis.conj(), full_matrices=True)
    return Subspace(s.dim, vh[s.rank:].conj())


def project(s: Subspace, v: np.ndarray) -> np.ndarray:
    """Orthogonal projection of v onto s."""
    return _project(s, vector(v))


def _project(s: Subspace, v: np.ndarray) -> np.ndarray:
    if v.shape[0] != s.dim:
        raise DimensionMismatch(f"vector of dim {v.shape[0]}, subspace of dim {s.dim}")
    if s.rank == 0:
        return np.zeros(s.dim, dtype=complex)
    return s.basis.T @ (s.basis.conj() @ v)


def projector(s: Subspace) -> np.ndarray:
    """The projection matrix onto s."""
    if s.rank == 0:
        return np.zeros((s.dim, s.dim), dtype=complex)
    return s.basis.T @ s.basis.conj()


def member(s: Subspace, v: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff v lies in s within tol * max(1, |v|)."""
    return norm(project(s, v) - v) <= tol * max(1.0, norm(v))


def direct_sum(s1: Subspace, s2: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    """Smallest closed subspace containing both arguments."""
    if s1.dim != s2.dim:
        raise DimensionMismatch(f"subspace dims {s1.dim} vs {s2.dim}")
    return orthonormalize(list(s1.basis) + list(s2.basis), dim=s1.dim, tol=tol)


def intersect(s1: Subspace, s2: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    """Intersection, via complement(complement(s1) + complement(s2))."""
    if s1.dim != s2.dim:
        raise DimensionMismatch(f"subspace dims {s1.dim} vs {s2.dim}")
    return orthocomplement(direct_sum(orthocomplement(s1), orthocomplement(s2), tol=tol))


def apply_measurement(s: Subspace, w: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Projective measurement onto s: project, then renormalize.

    Inputs (numerically) orthogonal to s map to the origin vector, which
    keeps the operation total.
    """
    if not (type(w) is np.ndarray and w.dtype == complex and w.shape == (s.dim,)):
        w = vector(w)
    r = norm(w)
    if not math.isfinite(r) and not np.all(np.isfinite(w.view(float))):
        raise HdqlError("state vector has non-finite entries")
    p = _project(s, w)
    if norm(p) <= tol * max(1.0, r):
        return np.zeros(s.dim, dtype=complex)
    return p / np.sqrt(max(np.vdot(w, p).real, 0.0))


def is_unitary(u: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff u is square and its unitarity residual is at most tol."""
    u = np.asarray(u, dtype=complex)
    return u.ndim == 2 and u.shape[0] == u.shape[1] and unitarity_residual(u) <= tol


def unitarity_residual(u: np.ndarray) -> float:
    """Max-norm distance of u†u and uu† from the identity."""
    return unitarity_residuals([u])[0]


def unitarity_residuals(gates: list) -> list[float]:
    """unitarity_residual of each of a list of (d, d) gates, one d for all."""
    def residuals(us):
        adj = us.conj().swapaxes(1, 2)
        left, right = _from_identity(adj @ us), _from_identity(us @ adj)
        return np.where(right > left, right, left)  # max(left, right): a nan right loses
    return _stacked(gates, residuals)


def gram_residuals(bases: list) -> list[float]:
    """Max-norm distance of each basis' Gram matrix from the identity, for (r, d) bases."""
    return _stacked(bases, lambda b: _from_identity(b.conj() @ b.swapaxes(1, 2)))


def _from_identity(products: np.ndarray) -> np.ndarray:
    return np.abs(products - np.eye(products.shape[1])).max(axis=(1, 2))


@np.errstate(over="ignore", invalid="ignore")  # huge entries give inf or nan, no warning
def _stacked(arrays: list, residuals) -> list[float]:
    """residuals(stack) over stacks of the arrays, all of one shape; a stack holds at
    most 2**16 entries, or one array, so the memory its products take is bounded."""
    out, step = [], 2 ** 16 // max(1, np.size(arrays[0]) if arrays else 1) or 1
    for i in range(0, len(arrays), step):
        out += residuals(np.array(arrays[i:i + step], dtype=complex)).tolist()
    return out


def tensor(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Kronecker product of states, first factor most significant."""
    return np.kron(v, w)


def tensor_op(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of operators, first factor most significant (np.kron's products)."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def basis_state(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def ket(bits: str) -> np.ndarray:
    """Computational basis state |bits> in big-endian qubit order."""
    return basis_state(2 ** len(bits), int(bits, 2))


_S2 = 1.0 / np.sqrt(2.0)
H = np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / norm(v)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR with phase correction."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_subspace(dim: int, rng: np.random.Generator,
                    rank: int | None = None) -> Subspace:
    if rank is None:
        rank = int(rng.integers(0, dim + 1))
    if rank == 0:
        return zero_subspace(dim)
    u = random_unitary(dim, rng)
    return Subspace(dim, u[:rank].copy())
