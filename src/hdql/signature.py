"""Concrete signatures: a fixed frame plus named vectors and propositions.

A signature instance fixes the space dimension, the interpretation of every
unitary and measurement symbol, the named vector constants, and which
propositions are closed. The (infinite) positive diagram of the frame is
never materialized; ground equality is decided by evaluating both sides in
the frame and comparing within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import hilbert as hl
from . import syntax as sx
from .errors import DimensionMismatch, MorphismError, SymbolError
from .hilbert import DEFAULT_TOL, Subspace

__all__ = [
    "SignatureInstance", "Violation", "Morphism", "identity_morphism",
    "eval_term", "eval_memo", "apply_symbol", "diagram_eq", "diagram_residual", "state_residual",
    "validate", "apply_morphism", "classify_in",
]


@dataclass(frozen=True, eq=False)
class SignatureInstance:
    dim: int
    unitaries: dict[str, np.ndarray]
    measurements: dict[str, Subspace]
    named_vectors: dict[str, np.ndarray]
    props: frozenset[str]
    closed_props: frozenset[str]
    tol: float = DEFAULT_TOL

    @cached_property
    def classifier(self):  # what classify_in calls, built on first use
        return sx.classifier(self.closed_props, frozenset(self.measurements))


@dataclass(frozen=True)
class Violation:
    symbol: str
    check: str
    residual: float

    def __str__(self) -> str:
        return f"{self.symbol}: {self.check} (residual {self.residual:.3e})"


def validate(sig: SignatureInstance) -> list[Violation]:
    """All invariant violations of the instance; empty iff well-formed."""
    out: list[Violation] = []
    if sig.dim < 1:
        out.append(Violation("<space>", "dimension must be positive", float(sig.dim)))
    if not (0.0 < sig.tol < 1.0):
        out.append(Violation("<tolerance>", "tolerance must lie in (0, 1)", sig.tol))
    gates = {name: u for name, u in sig.unitaries.items() if u.shape == (sig.dim, sig.dim)}
    residuals = dict(zip(gates, hl.unitarity_residuals(list(gates.values()))))
    for name in sig.unitaries:
        if (r := residuals.get(name)) is None:
            out.append(Violation(name, "operator shape does not match the space", 0.0))
        elif not r <= sig.tol:  # a nan residual fails too
            out.append(Violation(name, "not unitary on max-norm check", r))
    bases = {name: s.basis for name, s in sig.measurements.items() if s.dim == sig.dim and s.rank}
    grams = {}
    for rank in {len(b) for b in bases.values()}:  # one stacked product per rank
        names = [name for name, b in bases.items() if len(b) == rank]
        grams.update(zip(names, hl.gram_residuals([bases[name] for name in names])))
    for name, s in sig.measurements.items():
        if s.dim != sig.dim:
            out.append(Violation(name, "measurement subspace dim mismatch", 0.0))
            continue
        if s.rank > sig.dim:
            out.append(Violation(name, "basis larger than the space", float(s.rank)))
        if s.rank and not (r := grams[name]) <= sig.tol:
            out.append(Violation(name, "basis not orthonormal", r))
    for name, v in sig.named_vectors.items():
        if v.shape != (sig.dim,):
            out.append(Violation(name, "named vector dim mismatch", 0.0))
        elif not np.isfinite(np.vdot(v, v)):  # as hl.vector reads it
            out.append(Violation(name, "named vector has non-finite entries or norm", np.inf))
    for extra in sig.closed_props - sig.props:
        out.append(Violation(extra, "closed proposition not declared in props", 0.0))
    return out


def classify_in(sig: SignatureInstance, s: sx.Sentence) -> sx.Kind:
    return sig.classifier(s)


def eval_term(sig: SignatureInstance, k: sx.Term) -> np.ndarray:
    """Evaluate a ground term in the frame."""
    if isinstance(k, sx.Origin):
        return np.zeros(sig.dim, dtype=complex)
    if isinstance(k, sx.Var):
        raise SymbolError(f"free variable {k.name!r} in term")
    if isinstance(k, sx.Name):
        try:
            return sig.named_vectors[k.name]
        except KeyError:
            raise SymbolError(f"unknown vector constant {k.name!r}") from None
    if isinstance(k, sx.VecLit):
        v = hl.vector(k.coords)
        if v.shape[0] != sig.dim:
            raise DimensionMismatch(
                f"literal of dim {v.shape[0]} in space of dim {sig.dim}")
        return v
    if isinstance(k, sx.TSum):  # a sum or multiple can overflow: vector refuses it
        return hl.vector(eval_term(sig, k.left) + eval_term(sig, k.right))
    if isinstance(k, sx.TSmul):  # inf, or a product that overflows: vector refuses it, silently
        v = eval_term(sig, k.arg)
        with np.errstate(over="ignore", invalid="ignore"):
            return hl.vector(k.scalar * v)
    if isinstance(k, sx.TApp):
        return apply_symbol(sig, k.sym, eval_term(sig, k.arg))
    raise TypeError(f"not a term: {k!r}")


def eval_memo(sig: SignatureInstance, k: sx.Term, memo: dict) -> np.ndarray:
    """eval_term through memo (term -> state), which it extends, looping down applications."""
    chain = []
    while (v := memo.get(k)) is None and type(k) is sx.TApp:
        chain.append(k)
        k = k.arg
    if v is None:
        v = memo[k] = eval_term(sig, k)
    while chain:
        k = chain.pop()
        v = memo[k] = apply_symbol(sig, k.sym, v)
    return v


def apply_symbol(sig: SignatureInstance, sym: str, v: np.ndarray) -> np.ndarray:
    """The state the operation symbol maps v to."""
    if sym in sig.unitaries:
        return sig.unitaries[sym] @ v
    if sym in sig.measurements:
        return hl.apply_measurement(sig.measurements[sym], v, tol=sig.tol)
    raise SymbolError(f"unknown operation symbol {sym!r}")


def diagram_residual(sig: SignatureInstance, k1: sx.Term, k2: sx.Term) -> float:
    """Scaled distance between the two evaluations."""
    return state_residual(eval_term(sig, k1), eval_term(sig, k2))


def state_residual(v1: np.ndarray, v2: np.ndarray) -> float:
    """|v1 - v2| / max(1, |v1|): the distance diagram equality bounds by tol."""
    return hl.norm(v1 - v2) / max(1.0, hl.norm(v1))


def diagram_eq(sig: SignatureInstance, k1: sx.Term, k2: sx.Term) -> bool:
    """Decidable stand-in for 'k1 = k2 belongs to the positive diagram'."""
    return diagram_residual(sig, k1, k2) <= sig.tol


# ------------------------------------------------------------- morphisms

@dataclass(frozen=True, eq=False)
class Morphism:
    """Injective symbol renaming between signatures, identity on the frame."""

    source: SignatureInstance
    target: SignatureInstance
    unitaries: dict[str, str] = field(default_factory=dict)
    measurements: dict[str, str] = field(default_factory=dict)
    vectors: dict[str, str] = field(default_factory=dict)
    props: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        """Raise MorphismError unless injective, well-typed, frame-preserving."""
        for label, m in (("unitary", self.unitaries), ("measurement", self.measurements),
                         ("vector", self.vectors), ("prop", self.props)):
            if len(set(m.values())) != len(m):
                raise MorphismError(f"{label} map is not injective")
        if self.source.dim != self.target.dim:
            raise MorphismError("morphisms must preserve the Hilbert part")
        for label, m, source, target, frame in (
                ("unitary", self.unitaries, self.source.unitaries, self.target.unitaries,
                 np.asarray),
                ("measurement", self.measurements, self.source.measurements,
                 self.target.measurements, hl.projector),
                ("vector", self.vectors, self.source.named_vectors, self.target.named_vectors,
                 np.asarray)):
            for a, b in m.items():
                if b not in target:
                    raise MorphismError(f"{label} image {b!r} missing in target")
                if not np.array_equal(frame(source[a]), frame(target[b])):
                    raise MorphismError(f"frame data changed for {label} {a!r}")
        for a, b in self.props.items():
            if b not in self.target.props:
                raise MorphismError(f"prop image {b!r} missing in target")
            if a in self.source.closed_props and b not in self.target.closed_props:
                raise MorphismError(f"closed prop {a!r} mapped to non-closed {b!r}")

    def map_action_symbol(self, name: str) -> str:
        if name in self.unitaries:
            return self.unitaries[name]
        if name in self.measurements:
            return self.measurements[name]
        raise MorphismError(f"unmapped action symbol {name!r}")

    def map_prop(self, name: str) -> str:
        try:
            return self.props[name]
        except KeyError:
            raise MorphismError(f"unmapped proposition {name!r}") from None

    def map_vector(self, name: str) -> str:
        try:
            return self.vectors[name]
        except KeyError:
            raise MorphismError(f"unmapped vector constant {name!r}") from None

    def rename(self, x):
        """The renaming of a term, action or sentence, without validating."""
        return sx.fold(x, {
            sx.Name: lambda t, kids: sx.Name(self.map_vector(t.name)),
            sx.TApp: lambda t, kids: sx.TApp(self.map_action_symbol(t.sym), kids[0]),
            sx.ASym: lambda a, kids: sx.ASym(self.map_action_symbol(a.name)),
            sx.Prop: lambda s, kids: sx.Prop(self.map_prop(s.name)),
        })


def identity_morphism(sig: SignatureInstance) -> Morphism:
    return Morphism(sig, sig,
                    {u: u for u in sig.unitaries},
                    {q: q for q in sig.measurements},
                    {v: v for v in sig.named_vectors},
                    {p: p for p in sig.props})


def apply_morphism(chi: Morphism, x):
    """Homomorphic renaming of a term, action, sentence, or proof tree."""
    from .calculus import ProofTree, rename_proof
    if isinstance(x, ProofTree):
        return rename_proof(chi, x)
    chi.validate()
    if not isinstance(x, sx.Term | sx.Action | sx.Sentence):
        raise TypeError(f"cannot apply a morphism to {type(x).__name__}")
    return chi.rename(x)
