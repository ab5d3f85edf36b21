"""The initial-model construction that reading regions off the session's
facts replaced: a universe with its own vector table, then one proof query
per proposition and universe term.

Kept as it was, with its imports adapted, ``InitialModel`` renamed
``ReferenceModel`` and ``ProofSession.prop_fact_vectors`` inlined as
``prop_fact_vectors``, as the reference for ``test_initial_model.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hdql import hilbert as hl
from hdql import syntax as sx
from hdql.calculus import ProofSession, ProveResult, SearchBudget
from hdql.errors import ProofError
from hdql.semantics import FiniteVectors, QuantumModel
from hdql.signature import SignatureInstance, apply_symbol, eval_term, validate


def prop_fact_vectors(session: ProofSession, p: str) -> list[np.ndarray]:
    """Evaluated states of every derived fact for the proposition.

    Elimination walks through guards wherever they lead, so this can
    extend past the registered terms; every entry is backed by a
    kernel-checkable proof.
    """
    sat = session._prover.saturation(session.gamma)
    return [sat.class_vecs.rows[cid] for (s, cid) in sat.facts
            if isinstance(s, sx.Prop) and s.name == p]


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
class ReferenceModel:
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
                  max_terms: int = 4096) -> ReferenceModel:
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
        for v in held + prop_fact_vectors(session, p):
            if provable.find(v) < 0:
                provable.add(v)
        if p in sig.closed_props:
            valuation[p] = hl.orthonormalize(provable.rows, dim=sig.dim, tol=sig.tol)
        else:
            valuation[p] = FiniteVectors(tuple(provable.rows))
    model = QuantumModel(sig, valuation)
    im = ReferenceModel(sig, gamma, universe, truncated, model, session)
    im.derived.update(derived)
    return im


def holds(im: ReferenceModel, p: str, k: sx.Term) -> str:
    """Three-valued query: "holds", "fails" or "unknown" (budget ran out)."""
    cached = im.derived.get((p, k))
    if cached is not None:
        return cached
    return im.prove(p, k).status
