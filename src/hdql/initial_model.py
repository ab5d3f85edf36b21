"""Construction and interrogation of the initial model of a clause set.

The frame has uncountably many states, so the model is interrogated on a
finitely generated term universe: the ground terms of the clause set,
closed under application of every unitary and measurement symbol up to a
configured depth, deduplicated by evaluated vector (diagram equality makes
the representatives interchangeable). Each proposition's region collects
exactly the derivable facts; closed propositions take the span, which the
finite-basis span rule keeps provable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hilbert as hl
from . import syntax as sx
from .calculus import ProofSession, ProveResult, SearchBudget
from .errors import PreconditionFailure, ProofError, SemanticsError
from .semantics import FiniteVectors, QuantumModel, global_sat, sat_at
from .signature import SignatureInstance, apply_symbol, eval_term, validate

__all__ = ["InitialModel", "build_initial", "generate_universe"]


def generate_universe(sig: SignatureInstance, gamma, depth: int,
                      max_terms: int = 4096) -> tuple[list[sx.Term], bool]:
    """Ground terms of the clause set closed under symbol application.

    Terms evaluating to an already-seen vector are dropped; returns the
    representative terms and whether the cap truncated the closure.
    """
    table = hl.VectorTable(sig.dim, sig.tol)
    terms: list[sx.Term] = []
    # frontier entries carry their vector: a candidate s(t) costs one step
    frontier: list[tuple[sx.Term, np.ndarray]] = []

    def intern(term: sx.Term, v: np.ndarray, into: list) -> None:
        if table.find(v) < 0:
            table.add(v)
            terms.append(term)
            into.append((term, v))

    seeds = [sx.Origin()]
    for c in gamma:
        seeds.extend(t for t in sx.sentence_terms(c) if sx.is_ground(t))
    for t in seeds:
        intern(t, eval_term(sig, t), frontier)
    syms = sorted(sig.unitaries) + sorted(sig.measurements)
    for _ in range(depth):
        new: list[tuple[sx.Term, np.ndarray]] = []
        for t, v in frontier:
            for s in syms:
                intern(sx.TApp(s, t), apply_symbol(sig, s, v), new)
                if len(terms) >= max_terms:
                    return terms, True
        if not new:
            break
        frontier = new
    return terms, False


@dataclass(eq=False)
class InitialModel:
    sig: SignatureInstance
    gamma: tuple[sx.Sentence, ...]
    term_universe: list[sx.Term]
    truncated: bool
    model: QuantumModel
    session: ProofSession
    derived: dict[tuple[str, sx.Term], str] = field(default_factory=dict)

    def prove(self, p: str, k: sx.Term) -> ProveResult:
        """Proof-object view of a query; holds() is the status view."""
        result = self.session.prove(k, sx.Prop(p))
        self.derived[(p, k)] = result.status
        return result


def build_initial(sig: SignatureInstance, gamma, depth: int = 6,
                  budget: SearchBudget = SearchBudget(),
                  max_terms: int = 4096) -> InitialModel:
    """Build the least model of a set of quantum clauses.

    Every proposition's region is exactly its derivable facts over the
    term universe: finite vector sets for plain propositions, spans for
    closed ones.
    """
    problems = validate(sig)
    if problems:
        raise ProofError("signature does not validate: "
                         + "; ".join(map(str, problems)))
    gamma = tuple(gamma)
    universe, truncated = generate_universe(sig, gamma, depth, max_terms)
    session = ProofSession(sig, gamma, budget)
    session.register_terms(universe)
    derived: dict[tuple[str, sx.Term], str] = {}
    valuation = {}
    for p in sorted(sig.props):
        held = []
        for t in universe:
            derived[(p, t)] = session.prove(t, sx.Prop(p)).status
            if derived[(p, t)] == "holds":
                held.append(session.vector(t))
        # guard elimination derives facts past the universe boundary; they
        # are provable, so they belong to the region
        provable = hl.VectorTable(sig.dim, sig.tol)
        for v in held + session.prop_fact_vectors(p):
            if provable.find(v) < 0:
                provable.add(v)
        if p in sig.closed_props:
            valuation[p] = hl.orthonormalize(provable.rows, dim=sig.dim, tol=sig.tol)
        else:
            valuation[p] = FiniteVectors(tuple(provable.rows))
    model = QuantumModel(sig, valuation)
    im = InitialModel(sig, gamma, universe, truncated, model, session)
    im.derived.update(derived)
    return im


def holds(im: InitialModel, p: str, k: sx.Term) -> str:
    """Three-valued query: "holds", "fails" or "unknown" (budget ran out)."""
    cached = im.derived.get((p, k))
    if cached is not None:
        return cached
    return im.prove(p, k).status


def check_minimality(im: InitialModel, other: QuantumModel, samples) -> bool:
    """Test initiality as valuation minimality against another model.

    Precondition: the other model satisfies every clause, checked globally
    where decidable and at every sampled state otherwise. Then every fact
    derivable in the initial model must hold in the other model too.
    """
    samples = list(samples)
    for clause in im.gamma:
        try:
            ok = global_sat(other, clause)
            if not ok:
                raise PreconditionFailure(
                    f"model does not globally satisfy {sx.format_sentence(clause)}")
            continue
        except SemanticsError:
            pass
        for k in samples:
            w = eval_term(im.sig, k)
            if not sat_at(other, w, clause):
                raise PreconditionFailure(
                    f"model fails {sx.format_sentence(clause)} at "
                    f"{sx.format_term(k)}")
    for k in samples:
        w = eval_term(im.sig, k)
        for p in sorted(im.sig.props):
            if holds(im, p, k) == "holds" and not sat_at(other, w, sx.Prop(p)):
                return False
    return True
