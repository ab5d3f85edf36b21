"""Quantum Kripke models and the two satisfaction evaluators.

A model is a validated signature plus a valuation: non-closed propositions
get finite vector sets, closed propositions get subspaces. ``sat_at``
evaluates pointwise; ``closed_extension`` computes the subspace denoted by
a closed sentence. Star over a unitary action inside a closed sentence is
computed by an exact greatest-fixpoint iteration on subspaces; any other
star is handled by ``orbit``, and budget exhaustion is reported rather than
silently truncated.

Every star orbit stops by one rule, which the prover, the saturation of
star facts and the proof kernel read too: it ends at the first round that
finds no state fresh at the signature's tolerance (the orbit closed), or
at the first round with an incomplete inner step (it can no longer close).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hilbert as hl
from . import syntax as sx
from .errors import BudgetExceeded, DimensionMismatch, SemanticsError
from .hilbert import DEFAULT_TOL, Subspace
from .signature import Morphism, SignatureInstance, apply_symbol, classify_in, eval_term

__all__ = [
    "FiniteVectors", "Region", "QuantumModel", "StarBudget", "SuccessorSet",
    "successors", "orbit", "sat_at", "closed_extension", "global_sat", "reduct",
    "star_fixpoint", "region_member",
]


@dataclass(frozen=True, eq=False)
class FiniteVectors:
    """A finite state set; membership is tolerance-based."""
    vectors: tuple[np.ndarray, ...] = ()
    _tables: dict = field(default_factory=dict, init=False, repr=False)  # by (dim, tol)


Region = FiniteVectors | Subspace


@dataclass(frozen=True, eq=False)
class QuantumModel:
    sig: SignatureInstance
    valuation: dict[str, Region] = field(default_factory=dict)


@dataclass(frozen=True)
class StarBudget:
    """The round bound of every star: orbit rounds and fixpoint iterations.

    States are compared at the signature's tolerance, so this is the only
    setting. The exact subspace fixpoint needs at most dim + 1 iterations;
    the default leaves room for that on every desk-scale space. Smaller
    budgets are allowed and surface as BudgetExceeded or as an orbit that
    does not close.
    """
    max_iterations: int = 64


def _region(model: QuantumModel, p: str) -> Region:
    region = model.valuation.get(p)
    if region is not None:
        return region
    if p in model.sig.closed_props:
        return hl.zero_subspace(model.sig.dim)
    return FiniteVectors(())


def region_member(region: Region, w: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    if isinstance(region, Subspace):
        return hl.member(region, w, tol)
    if (key := (w.shape[0], tol)) not in region._tables:  # built on first lookup
        region._tables[key] = hl.VectorTable(*key, region.vectors)
    return region._tables[key].find(w) >= 0


# ---------------------------------------------------------------- actions

@dataclass(frozen=True, eq=False)
class SuccessorSet:
    """Successor states; complete=False marks a truncated star orbit."""
    vectors: list[np.ndarray]
    complete: bool = True


def successors(model: QuantumModel, a: sx.Action, w: np.ndarray,
               budget: StarBudget = StarBudget()) -> SuccessorSet:
    sig = model.sig
    if w.shape[0] != sig.dim:
        raise DimensionMismatch(f"state of dim {w.shape[0]} in space of dim {sig.dim}")
    if isinstance(a, sx.ASym):
        return SuccessorSet([apply_symbol(sig, a.name, w)])
    if isinstance(a, sx.AComp):
        first = successors(model, a.left, w, budget)
        out, complete = [], first.complete
        for v in first.vectors:
            rest = successors(model, a.right, v, budget)
            out.extend(rest.vectors)
            complete = complete and rest.complete
        return SuccessorSet(out, complete)
    if isinstance(a, sx.AUnion):
        left = successors(model, a.left, w, budget)
        right = successors(model, a.right, w, budget)
        return SuccessorSet(left.vectors + right.vectors,
                            left.complete and right.complete)
    if isinstance(a, sx.AStar):
        states, _, complete = orbit(model, a.body, w, budget)
        return SuccessorSet(states, complete)
    raise TypeError(f"not an action: {a!r}")


def orbit(model: QuantumModel, action: sx.Action, w: np.ndarray,
          budget: StarBudget = StarBudget()) -> tuple[list[np.ndarray], int, bool]:
    """(states reached from w by repeating the action, rounds that found
    fresh states, whether the orbit closed). It ends at the first round that
    finds no fresh state, or at the first round with an incomplete inner
    step, as the orbit can then no longer close; if neither comes within
    the budget's rounds, it has not closed either."""
    seen = hl.VectorTable(model.sig.dim, model.sig.tol, [w])
    start, complete = 0, True
    for rounds in range(budget.max_iterations):
        end = len(seen.rows)
        for v in seen.rows[start:end]:
            step = successors(model, action, v, budget)
            complete = complete and step.complete
            for s in step.vectors:
                seen.find_or_add(s)
        if len(seen.rows) == end or not complete:
            return list(seen.rows), rounds, complete
        start = end
    return list(seen.rows), budget.max_iterations, False


# ------------------------------------------------------- subspace evaluator

def star_fixpoint(sig: SignatureInstance, body: sx.Action, start: Subspace,
                  budget: StarBudget = StarBudget()) -> tuple[Subspace, int]:
    """Greatest fixpoint of Y -> Y meet preimage(body, Y), with step count.

    Rank strictly decreases until the fixpoint, so at most dim + 1
    iterations are ever needed.
    """
    y = start
    for steps in range(budget.max_iterations + 1):
        nxt = hl.intersect(y, _preimage(sig, body, y, budget), tol=sig.tol)
        if nxt.rank == y.rank:
            return y, steps
        y = nxt
    raise BudgetExceeded(
        f"star fixpoint still moving after {budget.max_iterations} iterations")


def _preimage(sig: SignatureInstance, a: sx.Action, y: Subspace,
              budget: StarBudget) -> Subspace:
    """States whose a-successors all lie in y, for unitary actions."""
    if isinstance(a, sx.ASym):
        if a.name in sig.measurements:
            raise SemanticsError(
                f"measurement symbol {a.name!r} inside a closed sentence")
        if a.name not in sig.unitaries:
            raise SemanticsError(f"unknown action symbol {a.name!r}")
        if y.rank == 0:
            return y
        u = sig.unitaries[a.name]
        return Subspace(y.dim, y.basis @ u.conj())
    if isinstance(a, sx.AComp):
        return _preimage(sig, a.left, _preimage(sig, a.right, y, budget), budget)
    if isinstance(a, sx.AUnion):
        return hl.intersect(_preimage(sig, a.left, y, budget),
                            _preimage(sig, a.right, y, budget), tol=sig.tol)
    if isinstance(a, sx.AStar):
        sub, _ = star_fixpoint(sig, a.body, y, budget)
        return sub
    raise TypeError(f"not an action: {a!r}")


def closed_extension(model: QuantumModel, s: sx.Sentence,
                     budget: StarBudget = StarBudget()) -> Subspace:
    """The subspace a closed sentence denotes in the model."""
    s = sx.desugar(s)
    if not classify_in(model.sig, s).is_closed:
        raise SemanticsError(
            f"not a closed sentence: {sx.format_sentence(s)}")
    return _ext(model, s, budget)

def _ext(model: QuantumModel, s: sx.Sentence, budget: StarBudget) -> Subspace:
    if isinstance(s, sx.Prop):
        region = _region(model, s.name)
        if not isinstance(region, Subspace):
            raise SemanticsError(
                f"closed proposition {s.name!r} has a non-subspace region")
        return region
    if isinstance(s, sx.QNot):
        return hl.orthocomplement(_ext(model, s.body, budget))
    if isinstance(s, sx.And):
        return hl.intersect(_ext(model, s.left, budget),
                            _ext(model, s.right, budget), tol=model.sig.tol)
    if isinstance(s, sx.QImp):
        return _ext(model, sx.sasaki_expansion(s.left, s.right), budget)
    if isinstance(s, sx.Nec):
        return _preimage(model.sig, s.action, _ext(model, s.body, budget), budget)
    raise SemanticsError(f"not a closed sentence: {sx.format_sentence(s)}")


# ------------------------------------------------------ pointwise evaluator

def _reject_nonclosed_quantum_ops(sig: SignatureInstance, s: sx.Sentence) -> None:
    """Enforce that ~ and ~> only ever apply to closed sentences."""
    for sub in sx.walk(s, sx.SENTENCE):
        if isinstance(sub, sx.QNot) and not classify_in(sig, sub.body).is_closed:
            raise SemanticsError(
                "quantum negation of a non-closed sentence is not "
                f"subspace-representable: {sx.format_sentence(sub.body)}")
        if isinstance(sub, sx.QImp) and not classify_in(sig, sub).is_closed:
            raise SemanticsError(
                f"Sasaki hook between non-closed sentences: {sx.format_sentence(sub)}")


def sat_at(model: QuantumModel, w: np.ndarray, s: sx.Sentence,
           budget: StarBudget = StarBudget()) -> bool:
    """Pointwise satisfaction at the state w; the sentence must be closed
    under its binders (no free variables), and quantum negation may only
    appear over closed subsentences."""
    s = sx.desugar(s)
    if sx.free_vars(s):
        raise SemanticsError(
            f"free variables {sorted(sx.free_vars(s))} in sentence")
    _reject_nonclosed_quantum_ops(model.sig, s)
    return _sat(model, w, s, budget)

def _sat(model: QuantumModel, w: np.ndarray, s: sx.Sentence,
         budget: StarBudget) -> bool:
    sig = model.sig
    if isinstance(s, sx.Prop):
        return region_member(_region(model, s.name), w, sig.tol)
    if isinstance(s, sx.Here):
        return hl.vec_eq(eval_term(sig, s.term), w, sig.tol)
    if isinstance(s, sx.At):
        return _sat(model, eval_term(sig, s.term), s.body, budget)
    if isinstance(s, sx.And):
        return _sat(model, w, s.left, budget) and _sat(model, w, s.right, budget)
    if isinstance(s, sx.Not):
        return not _sat(model, w, s.body, budget)
    if isinstance(s, sx.Imp):
        return (not _sat(model, w, s.left, budget)) or _sat(model, w, s.right, budget)
    # the exact subspace route: ~ and ~> (sat_at has already rejected them
    # over non-closed sentences) and a star necessity in the closed fragment
    star = isinstance(s, sx.Nec) and sx.AStar in map(type, sx.walk(s.action, sx.ACTION))
    if isinstance(s, (sx.QNot, sx.QImp)) or star and classify_in(sig, s).is_closed:
        return hl.member(_ext(model, s, budget), w, sig.tol)
    if isinstance(s, sx.Store):
        lit = sx.VecLit(tuple(complex(c) for c in w))
        return _sat(model, w, sx.substitute(s.body, s.var, lit), budget)
    if isinstance(s, sx.Nec):  # orbit enumeration
        succ = successors(model, s.action, w, budget)
        for v in succ.vectors:
            if not _sat(model, v, s.body, budget):
                return False
        if not succ.complete:
            raise BudgetExceeded(
                "star orbit did not close within the iteration budget and "
                "all explored successors satisfy the body")
        return True
    raise TypeError(f"not a desugared sentence: {s!r}")


def global_sat(model: QuantumModel, s: sx.Sentence,
               budget: StarBudget = StarBudget()) -> bool:
    """Global satisfaction for the decidable shapes.

    Closed sentences reduce to a full-rank check of their extension;
    retrieve sentences are state-independent; conjunctions split. Anything
    else would quantify over uncountably many states and is rejected.
    """
    s = sx.desugar(s)
    if classify_in(model.sig, s).is_closed:
        return _ext(model, s, budget).rank == model.sig.dim
    if isinstance(s, sx.At):
        return sat_at(model, eval_term(model.sig, s.term), s.body, budget)
    if isinstance(s, sx.And):
        return global_sat(model, s.left, budget) and global_sat(model, s.right, budget)
    raise SemanticsError(
        "global satisfaction is only decidable for closed sentences, "
        f"retrieve sentences and their conjunctions: {sx.format_sentence(s)}")


def reduct(model_prime: QuantumModel, chi: Morphism) -> QuantumModel:
    """Pull a model over the target signature back along a renaming."""
    chi.validate()
    valuation: dict[str, Region] = {}
    for p in chi.source.props:
        valuation[p] = _region(model_prime, chi.map_prop(p))
    return QuantumModel(chi.source, valuation)
