"""The term-universe loop from before a candidate cost one evaluation and
one table probe: every candidate went through ``ProofSession.intern``, which
fetched the saturation, re-walked the memo through ``eval_memo`` and
projected a new class twice (``find``, then ``add``); every site re-entered
the ``sx.walk`` generator.

Kept as it was (``initial_model.generate_universe``, ``_Saturation.intern``
and ``_Saturation.register_site``), with its imports adapted, as the
reference for ``test_universe_reference.py``, which swaps it in.
"""

from __future__ import annotations

from hdql import syntax as sx
from hdql.calculus import ProofSession


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


def intern(self, term: sx.Term) -> int:
    cid = self.class_of.get(term)
    if cid is None:
        vec = self.vector(term)
        cid = self.class_vecs.find(vec)
        if cid < 0:
            cid = self.class_vecs.add(vec)
            self.class_terms.append(term)
        self.class_of[term] = cid
    return cid


def register_site(self, term: sx.Term) -> None:
    """Make a ground term (and its subterms) an instantiation site.

    A subtree walked before is skipped: its subterms are all sites.
    """
    if term in self.walked:  # most calls, from queries on known terms
        return
    for sub in sx.walk(term, sx.TERM, self.walked.__contains__):
        cid = self.intern(sub)
        if cid not in self.sites:
            self.counter.spend()  # one node per site, whatever it instantiates
            self.sites[cid] = None
            for s, builder in list(self.at_sites.items()):
                self.queue.append(("inst", s, builder, self.class_terms[cid]))
        self.walked.add(sub)
