"""The numeral reader, operator tensor product, unitarity residual and
basis check from before a problem file's load read each distinct numeral
once, built tensor products by broadcasting and checked all gates, and all
measurement bases of a rank, in one stacked product.

Kept as they were (``syntax._COMPLEX`` and ``syntax.parse_complex``,
``hilbert.tensor_op``, ``hilbert.unitarity_residual`` and the Gram check of
``signature.validate``, here ``gram_residual``), with their imports adapted,
as the reference for ``test_load_kernels_reference.py``. The parser they
fall back to is the library's own.
"""

from __future__ import annotations

import re

import numpy as np

from hdql.syntax import _NUMERAL, _finish, _Parser

# a complex literal whose tokens only spaces or tabs separate
_COMPLEX = re.compile(rf"""[ \t]*(?P<neg>-[ \t]*)?
    (?: (?P<unit>i) | (?P<im>{_NUMERAL})i
      | (?P<re>{_NUMERAL})(?:[ \t]*(?P<op>[+-])[ \t]*(?P<tail>{_NUMERAL})i)? )[ \t]*""",
                      re.VERBOSE)


def parse_complex(text: str) -> complex:
    """Parse an 'a+bi' style complex literal.

    One regex match reads the literal; other text goes to the parser, which
    reads comments and line breaks or raises a located ParseError.
    """
    m = _COMPLEX.fullmatch(text)
    if m is None:
        p = _Parser(text)
        return _finish(p, p.complex_lit())
    sign = -1.0 if m["neg"] else 1.0
    if m["unit"]:
        return complex(0.0, sign)
    if m["im"]:
        return complex(0.0, sign * float(m["im"]))
    first = sign * float(m["re"])
    if m["tail"] is None:
        return complex(first, 0.0)
    im = float(m["tail"])
    return complex(first, im if m["op"] == "+" else -im)


def tensor_op(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of operators, first factor most significant."""
    return np.kron(a, b)


@np.errstate(over="ignore", invalid="ignore")  # huge entries give inf or nan, no warning
def unitarity_residual(u: np.ndarray) -> float:
    """Max-norm distance of u†u and uu† from the identity."""
    u = np.asarray(u, dtype=complex)
    eye = np.eye(u.shape[0])
    return float(max(np.max(np.abs(u.conj().T @ u - eye)),
                     np.max(np.abs(u @ u.conj().T - eye))))


def gram_residual(basis: np.ndarray) -> float:
    """Max-norm distance of an (r, d) basis' Gram matrix from the identity."""
    gram = basis.conj() @ basis.T
    return float(np.max(np.abs(gram - np.eye(len(basis)))))
