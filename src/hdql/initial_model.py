"""Construction and interrogation of the initial model of a clause set.

The frame has uncountably many states, so the model is interrogated on a
finitely generated term universe: the ground terms of the clause set,
closed under application of every unitary and measurement symbol up to a
configured depth, one term per vector class of the proof session (diagram
equality makes the representatives interchangeable). The session's
saturation is the least fixpoint of the rules, so the regions are read off
its facts; closed propositions take the span, which the finite-basis span
rule keeps provable. Queries prove on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import hilbert as hl
from . import syntax as sx
from .calculus import ProofSession, ProveResult, SearchBudget
from .errors import PreconditionFailure, ProofError, SemanticsError
from .semantics import FiniteVectors, QuantumModel, global_sat, sat_at
from .signature import SignatureInstance, eval_term, validate

__all__ = ["InitialModel", "build_initial", "generate_universe"]


def generate_universe(session: ProofSession, depth: int,
                      max_terms: int = 4096) -> tuple[list[sx.Term], bool]:
    """Ground terms of the session's clause set closed under symbol application.

    Every candidate is interned into the session's class table and kept only
    when its class is new to the universe; returns the representative terms
    and whether the cap truncated the closure.
    """
    universe: dict[int, sx.Term] = {}  # class id -> representative, in order

    def fresh(term: sx.Term) -> bool:
        cid = session.intern(term)
        if cid in universe:
            return False
        universe[cid] = term
        return True

    seeds = [sx.Origin()] + [t for c in session.gamma for t in sx.sentence_terms(c)
                             if sx.is_ground(t)]
    frontier = [t for t in seeds if fresh(t)]
    syms = sorted(session.sig.unitaries) + sorted(session.sig.measurements)
    for _ in range(depth):
        new: list[sx.Term] = []
        for t in frontier:
            for s in syms:
                term = sx.TApp(s, t)
                if fresh(term):
                    new.append(term)
                if len(universe) >= max_terms:
                    return list(universe.values()), True
        if not new:
            break
        frontier = new
    return list(universe.values()), False


@dataclass(eq=False)
class InitialModel:
    sig: SignatureInstance
    gamma: tuple[sx.Sentence, ...]
    term_universe: list[sx.Term]
    truncated: bool
    model: QuantumModel
    session: ProofSession

    def prove(self, p: str, k: sx.Term) -> ProveResult:
        """Proof-object view of a query; holds() is the status view."""
        return self.session.prove(k, sx.Prop(p))


def build_initial(sig: SignatureInstance, gamma, depth: int = 6,
                  budget: SearchBudget = SearchBudget(),
                  max_terms: int = 4096) -> InitialModel:
    """Build the least model of a set of quantum clauses.

    The universe is registered with one proof session, whose saturation
    fixes every proposition's region: the vectors of its derived facts (a
    finite set for plain propositions, their span for closed ones), and the
    whole universe when the proposition holds at every state.
    """
    problems = validate(sig)
    if problems:
        raise ProofError("signature does not validate: "
                         + "; ".join(map(str, problems)))
    gamma = tuple(gamma)
    session = ProofSession(sig, gamma, budget)
    universe, truncated = generate_universe(session, depth, max_terms)
    session.register_terms(universe)
    valuation = {}
    for p in sorted(sig.props):
        rows = session.prop_rows(p, universe)
        if p in sig.closed_props:
            valuation[p] = hl.orthonormalize(rows, dim=sig.dim, tol=sig.tol)
        else:
            valuation[p] = FiniteVectors(tuple(rows))
    return InitialModel(sig, gamma, universe, truncated, QuantumModel(sig, valuation),
                        session)


def holds(im: InitialModel, p: str, k: sx.Term) -> str:
    """Three-valued query, proved on demand: "holds", "fails" or "unknown"
    (budget ran out)."""
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
