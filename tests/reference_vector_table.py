"""The tolerance table that bucketed lookups replaced: every ``find`` scans
every stored row with one vectorized distance computation.

Kept as it was, with its imports adapted and ``VectorTable`` renamed
``ReferenceVectorTable``, as the reference for ``test_vector_table.py``.
"""

from __future__ import annotations

import numpy as np

from hdql.errors import DimensionMismatch
from hdql.hilbert import DEFAULT_TOL, norm


class ReferenceVectorTable:
    """Vectors in insertion order (``rows``) in one (capacity, dim) array that
    doubles when full, beside each row's squared bound (tol * max(1, |e|))^2:
    a tolerance lookup is one vectorized distance computation."""

    def __init__(self, dim: int, tol: float = DEFAULT_TOL, vectors=()):
        self.dim, self.tol = dim, tol
        self._rows = np.empty((8, dim), dtype=complex)
        self._bounds = np.empty(8)
        self.rows = self._rows[:0]
        for v in vectors:
            self.add(v)

    def find(self, v: np.ndarray) -> int:
        """Index of the first stored row that v matches, or -1."""
        if v.shape != (self.dim,):
            raise DimensionMismatch(f"vector of shape {v.shape} in a table of dim {self.dim}")
        d = (self.rows - v).view(float)
        hits = np.flatnonzero(np.einsum("ij,ij->i", d, d) <= self._bounds[:len(d)])
        return int(hits[0]) if hits.size else -1

    def add(self, v: np.ndarray) -> int:
        """Append v as the last row and return its index."""
        if v.shape != (self.dim,):
            raise DimensionMismatch(f"vector of shape {v.shape} in a table of dim {self.dim}")
        n = len(self.rows)
        if n == len(self._bounds):
            self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
            self._bounds = np.concatenate([self._bounds, np.empty_like(self._bounds)])
        self._rows[n] = v
        self._bounds[n] = (self.tol * max(1.0, norm(v))) ** 2
        self.rows = self._rows[:n + 1]
        return n
