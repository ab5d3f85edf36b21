"""The prover from before its rules proved their premises through one
routine: compound introductions, Imp/ImpC, Mult/Add, StarI and modus ponens
each proved their own premises. Kept as it was, with its imports adapted, as
the reference for ``test_prover_reference.py``, which swaps it in for
``calculus._Prover``.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from hdql import hilbert as hl
from hdql import syntax as sx
from hdql.calculus import (ProofTree, RuleId, SearchBudget, Sequent, _adapt_eq, _components,
                           _Counter, _iterate_symbols, _Saturation, _star_power)
from hdql.semantics import QuantumModel, orbit
from hdql.signature import SignatureInstance
from hdql.syntax import AStar, At, Imp, Nec, Origin, Prop, QImp, TApp, TSmul, TSum


class _Prover:
    def __init__(self, sig: SignatureInstance, budget: SearchBudget):
        self.sig = sig
        self.budget = budget
        self.counter = _Counter(budget.max_nodes)
        self.saturations: dict[tuple[sx.Sentence, ...], _Saturation] = {}
        self.vectors: dict[sx.Term, np.ndarray] = {}
        self.star_exhausted = False

    def saturation(self, gamma: tuple[sx.Sentence, ...]) -> _Saturation:
        sat = self.saturations.get(gamma)
        if sat is None:
            sat = _Saturation(self.sig, gamma, self.budget, self.counter, self.vectors)
            for c in gamma:
                for t in sx.sentence_terms(c):
                    if sat.is_ground(t):
                        sat.register_site(t)
            sat.drain()
            self.saturations[gamma] = sat
        return sat

    def saturate_sites(self, gamma: tuple[sx.Sentence, ...]) -> None:
        """Fire implications at every registered site until a round grows
        neither a closed span nor the facts at a site it began with: proving
        [x] s at k probes x(k), whose clauses can add facts at x(x(k)) ~ k.
        Facts at the probed sites alone do not count, or [u] s with u of
        infinite order would probe a new u(k) in every round."""
        sat = self.saturation(gamma)
        sat.drain()

        def ranks():
            return [sat.span_of(r)[0].rank for r in sorted(self.sig.closed_props)]
        changed = True
        while changed:
            tried, known, spans = set(sat.sites), len(sat.facts), ranks()
            changed = False
            for idx, (imp, _) in enumerate(list(sat.imps)):
                for cid in list(sat.sites):
                    changed |= self._fire(gamma, sat, idx, imp, sat.class_terms[cid], cid)
            sat.drain()
            changed = (changed or ranks() != spans
                       or any(cid in tried for _, cid in islice(sat.facts, known, None)))

    def _fire(self, gamma, sat: _Saturation, idx: int, imp: sx.Sentence,
              k: sx.Term, cid: int) -> bool:
        """Modus ponens with implication idx at term k (of class cid), once."""
        if (idx, cid) in sat.fired:
            return False
        self.counter.spend()
        avail = sat.availability(idx, k)
        if avail is None:
            return False
        ante = self.prove(gamma, k, imp.left, allow_mp=False)
        if ante is None:
            return False
        sat.fired.add((idx, cid))
        rule = RuleId.MP if isinstance(imp, Imp) else RuleId.MP_C
        sat.add_fact(imp.right, k, ProofTree(Sequent(gamma, k, imp.right), rule,
                                             (avail, ante)))
        return True

    def prove(self, gamma: tuple[sx.Sentence, ...], k: sx.Term,
              goal: sx.Sentence, allow_mp: bool = True) -> ProofTree | None:
        """A proof of goal at k, or None. k is ground: ProofSession.prove checks
        the root, an @(t) component checks t, the others are k or f(k), the
        span rules descend into k's subterms, _fire uses class representatives."""
        self.counter.spend()
        sat = self.saturation(gamma)
        if goal in gamma:
            return ProofTree(Sequent(gamma, k, goal), RuleId.MONOTONICITY)
        if isinstance(goal, Prop):
            return self._prove_prop(gamma, sat, k, goal, allow_mp)
        if isinstance(goal, (Imp, QImp)):
            inner = self.prove(gamma + (At(k, goal.left),), k, goal.right, allow_mp)
            if inner is None:
                return None
            rule = RuleId.IMP if isinstance(goal, Imp) else RuleId.IMP_C
            return ProofTree(Sequent(gamma, k, goal), rule, (inner,))
        if isinstance(goal, Nec) and isinstance(goal.action, AStar):
            return self._prove_star(gamma, sat, k, goal, allow_mp)
        entry = _components(k, goal)
        if entry is None:
            return None
        if isinstance(goal, At) and not sat.is_ground(goal.term):
            return None
        intro, _, components = entry
        premises = []
        for t, part in components:
            sub = self.prove(gamma, t, part, allow_mp)
            if sub is None:
                return None
            premises.append(sub)
        return ProofTree(Sequent(gamma, k, goal), intro, tuple(premises))

    def _prove_star(self, gamma, sat: _Saturation, k: sx.Term, goal: Nec, allow_mp: bool):
        a = goal.action
        _, period, closed = orbit(QuantumModel(self.sig, {}), a.body, sat.vector(k),
                                  self.budget.star)
        if not closed:
            self.star_exhausted = True
            return None
        symbols, term, premises = _iterate_symbols(self.sig, a.body), k, []
        for n in range(period + 1):
            sub = (self.prove(gamma, term, goal.body, allow_mp) if symbols
                   else self.prove(gamma, k, _star_power(a.body, n, goal.body), allow_mp))
            if sub is None:
                return None
            premises.append(sub)
            for f in symbols:
                term = TApp(f, term)
        return ProofTree(Sequent(gamma, k, goal), RuleId.STAR_I_BOUNDED,
                         tuple(premises), certificate=period)

    def _prove_prop(self, gamma, sat: _Saturation, k: sx.Term, goal: Prop,
                    allow_mp: bool):
        if goal in sat.universal:
            return sat.universal[goal](k)
        sat.register_site(k)
        sat.drain()
        closed = goal.name in self.sig.closed_props
        if closed:
            tree = self._prove_by_span(gamma, sat, k, goal)
            if tree is not None:
                return tree
            if isinstance(k, TSmul):
                inner = self.prove(gamma, k.arg, goal, allow_mp)
                if inner is not None:
                    return ProofTree(Sequent(gamma, k, goal), RuleId.MULT, (inner,))
            if isinstance(k, TSum):
                left = self.prove(gamma, k.left, goal, allow_mp)
                right = left and self.prove(gamma, k.right, goal, allow_mp)
                if left is not None and right is not None:
                    return ProofTree(Sequent(gamma, k, goal), RuleId.ADD,
                                     (left, right))
            if sat.diagram_eq(k, Origin()):
                return ProofTree(Sequent(gamma, k, goal), RuleId.ORIGIN)
        if allow_mp:
            tree = self._prove_by_mp(gamma, sat, k, goal)
            if tree is not None:
                return tree
        return self._lookup_fact(sat, k, goal)

    def _lookup_fact(self, sat: _Saturation, k: sx.Term, goal: sx.Sentence):
        cid = sat.intern(k)
        proof = sat.facts.get((goal, cid))
        if proof is None:
            return None
        return _adapt_eq(sat, proof, k)

    def _prove_by_span(self, gamma, sat: _Saturation, k: sx.Term, goal: Prop):
        basis, entries, family = sat.span_of(goal.name)
        if basis.rank == 0 or not entries or not hl.member(basis, sat.vector(k), self.sig.tol):
            return None
        if family is None:  # it does not depend on k: every SpanClosure shares it
            fact_matrix = sat.class_vecs.rows[[cid for cid, _ in entries]]
            premises = []
            for row in basis.basis:
                coeffs, *_ = np.linalg.lstsq(fact_matrix.T, row, rcond=None)
                parts = []
                for c, (cid, fact) in zip(coeffs, entries):
                    if abs(c) <= 1e-12:
                        continue
                    base = _adapt_eq(sat, fact, sat.class_terms[cid])
                    term = TSmul(complex(c), base.conclusion.k)
                    parts.append(ProofTree(Sequent(gamma, term, goal), RuleId.MULT,
                                           (base,)))
                if not parts:
                    return None
                combo = parts[0]
                for nxt in parts[1:]:
                    term = TSum(combo.conclusion.k, nxt.conclusion.k)
                    combo = ProofTree(Sequent(gamma, term, goal), RuleId.ADD,
                                      (combo, nxt))
                premises.append(combo)
            sat.spans[goal.name] = (basis, entries, tuple(premises))
        return ProofTree(Sequent(gamma, k, goal), RuleId.SPAN_CLOSURE, sat.spans[goal.name][2])

    def _prove_by_mp(self, gamma, sat: _Saturation, k: sx.Term, goal: Prop):
        cid = sat.intern(k)
        progressed = False
        for idx, (imp, _) in enumerate(list(sat.imps)):
            progressed |= self._fire(gamma, sat, idx, imp, k, cid)
        if progressed:
            sat.drain()
            return self._lookup_fact(sat, k, goal)
        return None
