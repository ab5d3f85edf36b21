"""The kernel's twelve hand-written branches for the compound-sentence rules,
which the rule table read by ``calculus._components`` replaced.

Kept as they were, as the reference for ``test_calculus.py``, the way
``reference_traversals.py`` keeps the old traversals. ``_check_node`` stands in
for the kernel's: a node of any other rule goes to the kernel's own.
"""

from __future__ import annotations

from hdql.calculus import ProofTree, RuleId, _bad, _check_node as _kernel_node
from hdql.errors import ProofError
from hdql import syntax as sx
from hdql.syntax import AComp, ASym, AUnion, And, At, Nec, Store, TApp


def _check_node(sig, t: ProofTree, budget, path):
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
        return _kernel_node(sig, t, budget, path)
    return None
