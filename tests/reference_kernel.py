"""Two earlier forms of the kernel's node check, kept as they were as
references for ``test_calculus.py``, the way ``reference_traversals.py`` keeps
the old traversals.

``_check_node`` holds the twelve hand-written branches for the compound-sentence
rules, which the rule table read by ``calculus._components`` replaced; it
stands in for the kernel's, and a node of any other rule goes to the kernel's
own. ``_check_node_by_branch`` is the whole node check from before the premise
counts, the closed goals and the Mult and Add shapes moved into tables: each
branch checks its own premise count and closed goal.
"""

from __future__ import annotations

import numpy as np

from hdql import hilbert as hl
from hdql.calculus import (CheckResult, ProofTree, RuleId, _TABLE_RULES, _bad,
                           _check_node as _kernel_node, _components, _iterate_symbols,
                           _rename_sequent, _star_power)
from hdql.errors import ProofError
from hdql import syntax as sx
from hdql.semantics import QuantumModel, StarBudget, orbit
from hdql.signature import (Morphism, SignatureInstance, classify_in, diagram_eq,
                            diagram_residual, eval_term)
from hdql.syntax import (AComp, ASym, AStar, AUnion, And, At, Imp, Nec, Origin, Prop, QImp,
                         Store, TApp, TSmul, TSum)


def _check_node(sig, t: ProofTree, budget, path, spans):
    gamma, k, goal = t.conclusion.gamma, t.conclusion.k, t.conclusion.goal
    rule = t.rule
    prem = t.premises

    def arity(n: int) -> None:
        if len(prem) != n:
            raise ProofError(f"expects {n} premises, got {len(prem)}")

    def same_context(p: ProofTree) -> bool:
        return p.conclusion.gamma == gamma

    if rule is RuleId.RET_I:
        arity(1)
        if not isinstance(goal, At):
            return _bad(path, "RetI: goal is not a retrieve sentence")
        p = prem[0].conclusion
        if not same_context(prem[0]) or p.k != goal.term or p.goal != goal.body:
            return _bad(path, "RetI: premise does not prove the body at the named term")
    elif rule is RuleId.RET_E:
        arity(1)
        p = prem[0].conclusion
        if not isinstance(p.goal, At):
            return _bad(path, "RetE: premise is not a retrieve sentence")
        if not same_context(prem[0]) or p.goal.term != k or p.goal.body != goal:
            return _bad(path, "RetE: conclusion does not move to the named term")
    elif rule is RuleId.STORE_I:
        arity(1)
        if not isinstance(goal, Store):
            return _bad(path, "StoreI: goal is not a store sentence")
        p = prem[0].conclusion
        want = sx.substitute(goal.body, goal.var, k)
        if not same_context(prem[0]) or p.k != k or p.goal != want:
            return _bad(path, "StoreI: premise is not the instantiated body")
    elif rule is RuleId.STORE_E:
        arity(1)
        p = prem[0].conclusion
        if not isinstance(p.goal, Store):
            return _bad(path, "StoreE: premise is not a store sentence")
        want = sx.substitute(p.goal.body, p.goal.var, k)
        if not same_context(prem[0]) or p.k != k or goal != want:
            return _bad(path, "StoreE: conclusion is not the instantiated body")
    elif rule is RuleId.CONJ_I:
        arity(2)
        if not isinstance(goal, And):
            return _bad(path, "ConjI: goal is not a conjunction")
        p1, p2 = prem[0].conclusion, prem[1].conclusion
        if not (same_context(prem[0]) and same_context(prem[1])
                and p1.k == k and p2.k == k
                and p1.goal == goal.left and p2.goal == goal.right):
            return _bad(path, "ConjI: premises do not match the conjuncts")
    elif rule is RuleId.CONJ_E:
        arity(1)
        p = prem[0].conclusion
        if not isinstance(p.goal, And):
            return _bad(path, "ConjE: premise is not a conjunction")
        if not same_context(prem[0]) or p.k != k or goal not in (p.goal.left, p.goal.right):
            return _bad(path, "ConjE: conclusion is not a conjunct of the premise")
    elif rule is RuleId.FT_I:
        arity(1)
        if not (isinstance(goal, Nec) and isinstance(goal.action, ASym)):
            return _bad(path, "FTI: goal is not a single-symbol necessity")
        f = goal.action.name
        if f not in sig.unitaries and f not in sig.measurements:
            return _bad(path, f"FTI: unknown operation symbol {f!r}")
        p = prem[0].conclusion
        if not same_context(prem[0]) or p.k != TApp(f, k) or p.goal != goal.body:
            return _bad(path, "FTI: premise is not the body at the advanced term")
    elif rule is RuleId.FT_E:
        arity(1)
        p = prem[0].conclusion
        if not (isinstance(p.goal, Nec) and isinstance(p.goal.action, ASym)):
            return _bad(path, "FTE: premise is not a single-symbol necessity")
        f = p.goal.action.name
        if f not in sig.unitaries and f not in sig.measurements:
            return _bad(path, f"FTE: unknown operation symbol {f!r}")
        if not same_context(prem[0]) or k != TApp(f, p.k) or goal != p.goal.body:
            return _bad(path, "FTE: conclusion is not the body at the advanced term")
    elif rule is RuleId.COMP_I:
        arity(1)
        p = prem[0].conclusion
        if not (isinstance(p.goal, Nec) and isinstance(p.goal.action, AComp)):
            return _bad(path, "CompI: premise is not a composition necessity")
        a = p.goal.action
        if not same_context(prem[0]) or p.k != k or \
                goal != Nec(a.left, Nec(a.right, p.goal.body)):
            return _bad(path, "CompI: conclusion is not the nested form")
    elif rule is RuleId.COMP_E:
        arity(1)
        if not (isinstance(goal, Nec) and isinstance(goal.action, AComp)):
            return _bad(path, "CompE: goal is not a composition necessity")
        a = goal.action
        p = prem[0].conclusion
        if not same_context(prem[0]) or p.k != k or \
                p.goal != Nec(a.left, Nec(a.right, goal.body)):
            return _bad(path, "CompE: premise is not the nested form")
    elif rule is RuleId.UNION_I:
        arity(2)
        if not (isinstance(goal, Nec) and isinstance(goal.action, AUnion)):
            return _bad(path, "UnionI: goal is not a union necessity")
        a = goal.action
        p1, p2 = prem[0].conclusion, prem[1].conclusion
        if not (same_context(prem[0]) and same_context(prem[1])
                and p1.k == k and p2.k == k
                and p1.goal == Nec(a.left, goal.body)
                and p2.goal == Nec(a.right, goal.body)):
            return _bad(path, "UnionI: premises do not match the branches")
    elif rule is RuleId.UNION_E:
        arity(1)
        p = prem[0].conclusion
        if not (isinstance(p.goal, Nec) and isinstance(p.goal.action, AUnion)):
            return _bad(path, "UnionE: premise is not a union necessity")
        a = p.goal.action
        wanted = (Nec(a.left, p.goal.body), Nec(a.right, p.goal.body))
        if not same_context(prem[0]) or p.k != k or goal not in wanted:
            return _bad(path, "UnionE: conclusion is not one of the branches")
    else:
        return _kernel_node(sig, t, budget, path, spans)
    return None


def _closed_prop(sig, goal) -> bool:
    return isinstance(goal, Prop) and goal.name in sig.closed_props


def _check_node_by_branch(sig: SignatureInstance, t: ProofTree, budget: StarBudget,
                           path: tuple, spans: dict) -> CheckResult | None:
    """Why the node at path (a place, see _bad) breaks its rule schema, or
    None if it does not."""
    gamma, k, goal = t.conclusion.gamma, t.conclusion.k, t.conclusion.goal
    rule = t.rule
    prem = t.premises

    def arity(n: int) -> None:
        if len(prem) != n:
            raise ProofError(f"expects {n} premises, got {len(prem)}")

    def same_context(p: ProofTree) -> bool:
        return p.conclusion.gamma == gamma

    if rule is RuleId.MONOTONICITY:
        arity(0)
        if goal not in gamma:
            return _bad(path, "Monotonicity: goal is not a member of the clause set")
    elif rule is RuleId.UNIONS:
        arity(1)
        p = prem[0].conclusion
        if p.goal != goal or p.k != k or not set(p.gamma) <= set(gamma):
            return _bad(path, "Unions: premise is not over a subset of the clause set")
    elif rule is RuleId.TRANSLATION:
        arity(1)
        chi = t.certificate
        if not isinstance(chi, Morphism):
            return _bad(path, "Translation: certificate must be a morphism")
        try:
            chi.validate()
            renamed = _rename_sequent(chi, prem[0].conclusion)
        except Exception as e:
            return _bad(path, f"Translation: {e}")
        if renamed != t.conclusion:
            return _bad(path, "Translation: conclusion is not the renamed premise")
    elif rule is RuleId.ORIGIN:
        arity(0)
        if not _closed_prop(sig, goal):
            return _bad(path, "Origin: goal must be a closed proposition")
        if not diagram_eq(sig, k, Origin()):
            return _bad(path, "Origin: term does not denote the origin vector")
    elif rule is RuleId.MULT:
        arity(1)
        if not _closed_prop(sig, goal):
            return _bad(path, "Mult: goal must be a closed proposition")
        if not isinstance(k, TSmul):
            return _bad(path, "Mult: conclusion term is not a scalar multiple")
        p = prem[0].conclusion
        if not same_context(prem[0]) or p.goal != goal or p.k != k.arg:
            return _bad(path, "Mult: premise does not match the multiplicand")
    elif rule is RuleId.ADD:
        arity(2)
        if not _closed_prop(sig, goal):
            return _bad(path, "Add: goal must be a closed proposition")
        if not isinstance(k, TSum):
            return _bad(path, "Add: conclusion term is not a sum")
        p1, p2 = prem[0].conclusion, prem[1].conclusion
        if not (same_context(prem[0]) and same_context(prem[1])
                and p1.goal == goal and p2.goal == goal
                and p1.k == k.left and p2.k == k.right):
            return _bad(path, "Add: premises do not match the summands")
    elif rule is RuleId.SPAN_CLOSURE:
        if not _closed_prop(sig, goal):
            return _bad(path, "SpanClosure: goal must be a closed proposition")
        key = (sig, tuple(p.conclusion.k for p in prem))  # spans maps it to its span
        span, vecs = spans.get(key), []
        for i, p in enumerate(prem):
            if not same_context(p) or p.conclusion.goal != goal:
                return _bad(path, f"SpanClosure: premise {i} proves something else")
            if span is None:
                vecs.append(eval_term(sig, p.conclusion.k))
        if span is None:
            if vecs:
                gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
                if np.max(np.abs(gram - np.eye(len(vecs)))) > max(sig.tol, 1e-10):
                    return _bad(path, "SpanClosure: premise family is not orthonormal")
            span = spans[key] = (hl.Subspace(sig.dim, np.array(vecs)) if vecs
                                 else hl.zero_subspace(sig.dim))
        if not hl.member(span, eval_term(sig, k), sig.tol):
            return _bad(path, "SpanClosure: conclusion vector lies outside the span")
    elif rule is RuleId.EQ:
        arity(1)
        p = prem[0].conclusion
        if not same_context(prem[0]) or p.goal != goal:
            return _bad(path, "EQ: premise proves a different sentence")
        if not diagram_eq(sig, p.k, k):
            return _bad(path,
                        f"EQ: terms are not diagram-equal "
                        f"(residual {diagram_residual(sig, p.k, k):.3e})")
    elif rule in _TABLE_RULES:
        intro, what = _TABLE_RULES[rule]
        if not intro:
            arity(1)
        whole = t.conclusion if intro else prem[0].conclusion  # the compound side
        entry = _components(whole.k, whole.goal)
        if entry is None or entry[0 if intro else 1] is not rule:
            return _bad(path, f"{rule.value}: {'goal' if intro else 'premise'} is not {what}")
        if isinstance(whole.goal, Nec) and isinstance(whole.goal.action, ASym):
            f = whole.goal.action.name
            if f not in sig.unitaries and f not in sig.measurements:
                return _bad(path, f"{rule.value}: unknown operation symbol {f!r}")
        if intro:
            if not (all(map(same_context, prem)) and entry[2] == tuple(
                    (p.conclusion.k, p.conclusion.goal) for p in prem)):
                return _bad(path, f"{rule.value}: premises are not the goal's components")
        elif not same_context(prem[0]) or (k, goal) not in entry[2]:
            return _bad(path, f"{rule.value}: conclusion is not a component of the premise")
    elif rule is RuleId.STAR_E:
        arity(1)
        p = prem[0].conclusion
        if not (isinstance(p.goal, Nec) and isinstance(p.goal.action, AStar)):
            return _bad(path, "StarE: premise is not a star necessity")
        n = t.certificate
        if type(n) is not int or n < 0:  # bool is an int subclass, not a number
            return _bad(path, "StarE: certificate must be a natural number")
        # an n-fold unrolling has at least n nodes: a larger n is not built
        if not same_context(prem[0]) or p.k != k or n > sum(1 for _ in sx.walk(goal)) or \
                goal != _star_power(p.goal.action.body, n, p.goal.body):
            return _bad(path, f"StarE: conclusion is not the {n}-fold unrolling")
    elif rule is RuleId.STAR_I_BOUNDED:
        if not (isinstance(goal, Nec) and isinstance(goal.action, AStar)):
            return _bad(path, "StarI: goal is not a star necessity")
        m = t.certificate
        if type(m) is not int or m < 0 or len(prem) != m + 1:
            return _bad(path, "StarI: certificate does not match the premise count")
        body_action = goal.action.body
        symbols, term = _iterate_symbols(sig, body_action), k
        for i, p in enumerate(prem):
            c = p.conclusion
            at_iterate = symbols and c.k == term and c.goal == goal.body
            if not same_context(p) or not (
                    at_iterate or c.k == k and c.goal == _star_power(body_action, i, goal.body)):
                return _bad(path, f"StarI: premise {i} is neither the {i}-fold unrolling "
                                  f"nor the body at iterate {i}")
            term = c.k if at_iterate else term  # equal: the next comparison stays shallow
            for f in symbols:
                term = TApp(f, term)
        _, period, closed = orbit(QuantumModel(sig, {}), body_action, eval_term(sig, k), budget)
        if not closed:
            return _bad(path, "StarI: successor orbit does not close within budget")
        if period > m:
            return _bad(path,
                        f"StarI: orbit closes after {period} rounds but only "
                        f"{m} are certified")
    elif rule in (RuleId.MP, RuleId.MP_C, RuleId.IMP, RuleId.IMP_C):
        # the classical and quantum forms differ only in the implication
        # class and in the antecedent having to be closed as well as basic
        quantum = rule in (RuleId.MP_C, RuleId.IMP_C)
        imp, q, closed = (QImp, "quantum ", "closed ") if quantum else (Imp, "", "")
        elim = rule in (RuleId.MP, RuleId.MP_C)
        arity(2 if elim else 1)
        p = prem[0].conclusion
        if elim:
            p2 = prem[1].conclusion
            if not (isinstance(p.goal, imp) and p.goal.right == goal
                    and p.goal.left == p2.goal
                    and same_context(prem[0]) and same_context(prem[1])
                    and p.k == k and p2.k == k):
                return _bad(path, f"{rule.value}: premises do not instantiate "
                                  f"{q}modus ponens")
        elif not isinstance(goal, imp):
            return _bad(path, f"{rule.value}: goal is not a {q}implication")
        kind = classify_in(sig, (p.goal if elim else goal).left)
        if not (kind.is_basic and (kind.is_closed or not quantum)):
            return _bad(path, f"{rule.value}: antecedent is not a {closed}basic sentence")
        if not elim and (p.gamma != gamma + (At(k, goal.left),) or p.k != k
                         or p.goal != goal.right):
            return _bad(path, f"{rule.value}: premise context is not the extended "
                              "clause set")
    else:  # pragma: no cover - the enum is exhaustive
        return _bad(path, f"unknown rule {rule!r}")
    return None
