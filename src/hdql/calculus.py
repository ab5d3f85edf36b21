"""Sequent calculus: proof objects, a trusted checking kernel, and a prover.

Proof trees are plain data, and a proof may share a subtree between several
places (the prover builds one SpanClosure premise family per span, and the
trace decoder shares equal subtrees); traces still write it out at each place.
``check_proof`` re-validates each node object once per signature against its
rule schema, recomputing all numeric side conditions (diagram equality, span
membership, orbit closure) from each term's state evaluated once, so anything
the prover emits is independently certified. The prover is a
deterministic backward chainer: right rules decompose the goal, a forward
saturation pass turns the clause set into atomic facts, and closed
propositions close under origin, scalar multiples, sums and finite-basis spans.
Every rule it applies over premises it proves builds its node in one routine,
``_Prover._apply``: the compound introductions, Imp/ImpC, Mult/Add, StarI, MP.

The introduction and elimination rules of the compound sentences (retrieve,
store, conjunction, and [f], [a;b] and [a|b] necessities) are defined once,
in the table read by ``_components``: the kernel checks them, the prover
introduces them and the saturation eliminates them from there. The kernel
also reads every rule's fixed premise count, the rules whose goal must be a
closed proposition, and the shapes of Mult and Add from tables.

The infinitary star introduction is replaced by a bounded instance that
carries an orbit-closure certificate n: its premise i <= n proves [a^i] b at
k (a ; ... ; a, i copies) or, when a is a ;-composition of operation symbols,
b at the i-th iterate of k (one f(...) per symbol and copy), which a fixed
chain of CompE and FTI nodes takes to the former. The infinitary Cauchy rule
is replaced by the finite-basis span rule. There is no cut rule.

One refinement to the documented rule order: a goal that is literally a
member of the clause set is closed by a one-node Monotonicity proof before
any decomposition is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice

import numpy as np

from . import hilbert as hl
from . import syntax as sx
from .errors import BudgetExceeded, HdqlError, ProofError
from .semantics import QuantumModel, StarBudget, orbit
from .signature import (Morphism, SignatureInstance, apply_symbol, classify_in, eval_memo,
                        state_residual)
from .syntax import (AComp, ASym, AStar, AUnion, And, At, Imp, Nec, Origin,
                     Prop, QImp, Store, TApp, TSmul, TSum)

__all__ = [
    "RuleId", "Sequent", "ProofTree", "CheckResult", "ProveResult", "SearchBudget",
    "ProofSession", "check_proof", "prove", "used_premises", "restrict_premises",
    "rename_proof", "proof_nodes", "proof_size", "walk_proof", "premise_hypotheses",
]


class RuleId(Enum):
    __hash__ = object.__hash__  # Enum hashes the name in Python; members are singletons
    MONOTONICITY = "Monotonicity"
    UNIONS = "Unions"
    TRANSLATION = "Translation"
    ORIGIN = "Origin"
    MULT = "Mult"
    ADD = "Add"
    SPAN_CLOSURE = "SpanClosure"
    EQ = "EQ"
    RET_I = "RetI"
    RET_E = "RetE"
    STORE_I = "StoreI"
    STORE_E = "StoreE"
    CONJ_I = "ConjI"
    CONJ_E = "ConjE"
    FT_I = "FTI"
    FT_E = "FTE"
    COMP_I = "CompI"
    COMP_E = "CompE"
    UNION_I = "UnionI"
    UNION_E = "UnionE"
    STAR_I_BOUNDED = "StarI"
    STAR_E = "StarE"
    MP = "MP"
    MP_C = "MPc"
    IMP = "Imp"
    IMP_C = "ImpC"


@dataclass(frozen=True)
class Sequent:
    gamma: tuple[sx.Sentence, ...]
    k: sx.Term
    goal: sx.Sentence


@dataclass(frozen=True, eq=False)
class ProofTree:
    conclusion: Sequent
    rule: RuleId
    premises: tuple["ProofTree", ...] = ()
    certificate: "int | Morphism | None" = None

    def __repr__(self) -> str:  # each distinct node once, its premises as #i, from a stack
        ids, stack = {}, [self]
        while stack:
            if (node := stack.pop()) not in ids:
                ids[node] = f"#{len(ids)}"
                stack += reversed(node.premises)
        return "ProofTree(" + "; ".join(
            f"{i} {n.rule.value} {n.conclusion!r} certificate={n.certificate!r} "
            f"premises=({', '.join(map(ids.get, n.premises))})" for n, i in ids.items()) + ")"


def walk_proof(t: ProofTree, ctx=None, premise_ctx=lambda node, ctx: ctx):
    """(node, ctx) for every node of the tree in pre-order, from an explicit
    stack: the root has ``ctx``, the premises of a node ``premise_ctx(node, ctx)``."""
    stack = [(t, ctx)]
    while stack:
        node, ctx = stack.pop()
        yield node, ctx
        ctx = premise_ctx(node, ctx)
        stack += [(p, ctx) for p in reversed(node.premises)]


def _rebuild_tree(t: ProofTree, conclusion, ctx=None,
                  premise_ctx=lambda node, ctx: ctx) -> ProofTree:
    """The tree rebuilt bottom-up, each node with ``conclusion(node, ctx)``."""
    built: list[ProofTree] = []
    for node, ctx in reversed(list(walk_proof(t, ctx, premise_ctx))):
        n = len(node.premises)  # its premises were built last, in reverse
        premises = tuple(reversed(built[len(built) - n:]))
        del built[len(built) - n:]
        built.append(ProofTree(conclusion(node, ctx), node.rule, premises, node.certificate))
    return built[0]


def premise_hypotheses(rule: RuleId, conclusion: Sequent) -> tuple[sx.Sentence, ...]:
    """What a node's premises add to its clause set: Imp and ImpC discharge
    their antecedent, at the node's term."""
    goal = conclusion.goal
    if rule in (RuleId.IMP, RuleId.IMP_C) and isinstance(goal, (Imp, QImp)):
        return (At(conclusion.k, goal.left),)
    return ()


def proof_nodes(t: ProofTree):
    """Every node of the tree in pre-order, from an explicit stack."""
    return (node for node, _ in walk_proof(t))


def proof_size(t: ProofTree) -> int:
    """How many nodes proof_nodes(t) yields, from one size per distinct node."""
    size, stack = {}, [t]
    while stack:
        if (node := stack.pop()) not in size:
            if all(p in size for p in node.premises):
                size[node] = 1 + sum(size[p] for p in node.premises)
            else:
                stack += [node, *node.premises]
    return size[t]


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the prover: node count per query and star bounds."""
    max_nodes: int = 10 ** 6
    star: StarBudget = StarBudget()


# --------------------------------------------------------------- the kernel

@dataclass(frozen=True)
class CheckResult:
    ok: bool
    path: tuple[int, ...] = ()
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


# The compound sentences' rules. A compound class (a necessity's by its
# action) maps to (what the sentence is, its introduction, its elimination,
# its (term, sentence) components at k): the introduction proves the sentence
# at k from all its components in order, the elimination any one from it.
_COMPOUND = {
    At: ("a retrieve sentence", RuleId.RET_I, RuleId.RET_E,
         lambda k, s: ((s.term, s.body),)),
    Store: ("a store sentence", RuleId.STORE_I, RuleId.STORE_E,
            lambda k, s: ((k, sx.substitute(s.body, s.var, k)),)),
    And: ("a conjunction", RuleId.CONJ_I, RuleId.CONJ_E,
          lambda k, s: ((k, s.left), (k, s.right))),
    ASym: ("a single-symbol necessity", RuleId.FT_I, RuleId.FT_E,
           lambda k, s: ((TApp(s.action.name, k), s.body),)),
    AComp: ("a composition necessity", RuleId.COMP_E, RuleId.COMP_I,
            lambda k, s: ((k, Nec(s.action.left, Nec(s.action.right, s.body))),)),
    AUnion: ("a union necessity", RuleId.UNION_I, RuleId.UNION_E,
             lambda k, s: ((k, Nec(s.action.left, s.body)), (k, Nec(s.action.right, s.body)))),
}
# rule -> (whether it is the introduction, what its compound sentence is)
_TABLE_RULES = {rule: (i == 0, what) for what, *rules, _ in _COMPOUND.values()
                for i, rule in enumerate(rules)}
# rule -> its premise count, for every rule whose count is fixed
_ARITY = {RuleId.MONOTONICITY: 0, RuleId.ORIGIN: 0, RuleId.UNIONS: 1, RuleId.TRANSLATION: 1,
          RuleId.MULT: 1, RuleId.EQ: 1, RuleId.STAR_E: 1, RuleId.IMP: 1, RuleId.IMP_C: 1,
          RuleId.ADD: 2, RuleId.MP: 2, RuleId.MP_C: 2,
          **{rule: 1 for rule, (intro, _) in _TABLE_RULES.items() if not intro}}
# the rules that prove closed propositions only
_CLOSED_GOAL = frozenset({RuleId.ORIGIN, RuleId.MULT, RuleId.ADD, RuleId.SPAN_CLOSURE})
# Mult and Add: rule -> (the conclusion term's class, what that class is, why
# premises that do not prove the goal at its parts are rejected, the parts)
_LINEAR = {RuleId.MULT: (TSmul, "a scalar multiple", "premise does not match the multiplicand",
                         lambda k: (k.arg,)),
           RuleId.ADD: (TSum, "a sum", "premises do not match the summands",
                        lambda k: (k.left, k.right))}


def _components(k: sx.Term, s: sx.Sentence):
    """(introduction rule, elimination rule, components) of the compound
    sentence s at term k, or None when s is not compound."""
    entry = _COMPOUND.get(type(s.action) if type(s) is Nec else type(s))
    if entry is None:
        return None
    _, intro, elim, components = entry
    return intro, elim, components(k, s)


def _star_power(a: sx.Action, n: int, body: sx.Sentence) -> sx.Sentence:
    """[a ; (a ; ...)] body with n copies of a, or body when n is 0."""
    action = a
    for _ in range(n - 1):
        action = AComp(a, action)
    return body if n == 0 else Nec(action, body)


def _iterate_symbols(sig: SignatureInstance, a: sx.Action) -> tuple[str, ...]:
    """The symbols of a ;-composition of sig's operation symbols in the order
    they apply, or () for any other action: the star bodies whose StarI
    premises may sit at the iterates (see the module docstring)."""
    nodes = list(sx.walk(a, sx.ACTION))
    if all(type(n) is AComp or type(n) is ASym and (n.name in sig.unitaries
                                                    or n.name in sig.measurements)
           for n in nodes):
        return tuple(n.name for n in nodes if type(n) is ASym)
    return ()


def check_proof(sig: SignatureInstance, tree: ProofTree,
                budget: StarBudget = StarBudget()) -> CheckResult:
    """Re-validate every node of a proof tree against its rule schema.

    Nodes are checked in pre-order from an explicit stack, so the first bad
    node is reported and depth is not bounded by Python's recursion limit.
    A side condition that raises an HdqlError (an unknown name, a vector of
    the wrong dimension, a missing premise) rejects its node. A node object
    met again in one signature is skipped, as its first place checked it, so
    a decoded trace (its decoder shares equal subtrees) has each distinct
    subproof checked once; each term is evaluated once per signature.
    """
    seen, memo = {}, {}  # (signature, node) -> its first place; see _check_node
    stack = [(sig, tree, (None, None))]
    while stack:
        sig, t, place = stack.pop()
        if seen.setdefault((sig, t), place) is not place:  # checked at its first place
            continue
        try:
            bad = _check_node(sig, t, budget, place, memo)
        except BudgetExceeded as e:
            return CheckResult(False, (), f"budget exceeded: {e}")
        except HdqlError as e:
            bad = _bad(place, f"{t.rule.value}: {e}")
        if bad is not None:
            return bad
        if t.rule is RuleId.TRANSLATION:  # the premise lives in the source signature
            sig = t.certificate.source
        stack += [(sig, p, (place, i)) for i, p in reversed(list(enumerate(t.premises)))]
    return CheckResult(True)


def _bad(place, reason) -> CheckResult:
    """Reject the node at place, (its parent's place, its index there): only
    a rejected node's path is built."""
    path = []
    while place[0] is not None:
        path.append(place[1])
        place = place[0]
    return CheckResult(False, tuple(reversed(path)), reason)


def _check_node(sig: SignatureInstance, t: ProofTree, budget: StarBudget,
                path: tuple, memo: dict) -> CheckResult | None:
    """Why the node at path (a place, see _bad) breaks its rule schema, or
    None; memo holds the check's SpanClosure spans by (signature, premise terms)
    and its term states (see eval_memo) by signature. Premise counts, closed
    goals and Mult/Add come from _ARITY, _CLOSED_GOAL and _LINEAR, checked first."""
    gamma, k, goal = t.conclusion.gamma, t.conclusion.k, t.conclusion.goal
    rule = t.rule
    prem = t.premises

    def same_context(p: ProofTree) -> bool:
        return p.conclusion.gamma == gamma

    def value(term: sx.Term) -> np.ndarray:
        return eval_memo(sig, term, memo.setdefault(sig, {}))

    n = _ARITY.get(rule)
    if n is not None and len(prem) != n:
        return _bad(path, f"{rule.value}: expects {n} premises, got {len(prem)}")
    if rule in _CLOSED_GOAL and not (isinstance(goal, Prop) and goal.name in sig.closed_props):
        return _bad(path, f"{rule.value}: goal must be a closed proposition")
    if rule is RuleId.MONOTONICITY:
        if goal not in gamma:
            return _bad(path, "Monotonicity: goal is not a member of the clause set")
    elif rule is RuleId.UNIONS:
        p = prem[0].conclusion
        if p.goal != goal or p.k != k or not set(p.gamma) <= set(gamma):
            return _bad(path, "Unions: premise is not over a subset of the clause set")
    elif rule is RuleId.TRANSLATION:
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
        if not state_residual(value(k), value(Origin())) <= sig.tol:
            return _bad(path, "Origin: term does not denote the origin vector")
    elif rule in _LINEAR:
        cls, what, mismatch, parts = _LINEAR[rule]
        if not isinstance(k, cls):
            return _bad(path, f"{rule.value}: conclusion term is not {what}")
        if not (all(same_context(p) and p.conclusion.goal == goal for p in prem)
                and tuple(p.conclusion.k for p in prem) == parts(k)):
            return _bad(path, f"{rule.value}: {mismatch}")
    elif rule is RuleId.SPAN_CLOSURE:
        key = (sig, tuple(p.conclusion.k for p in prem))
        span, vecs = memo.get(key), []
        for i, p in enumerate(prem):
            if not same_context(p) or p.conclusion.goal != goal:
                return _bad(path, f"SpanClosure: premise {i} proves something else")
            if span is None:
                vecs.append(value(p.conclusion.k))
        if span is None:  # not <=: a NaN residual rejects too
            if vecs and not hl.gram_residuals([basis := np.array(vecs)])[0] <= max(sig.tol, 1e-10):
                return _bad(path, "SpanClosure: premise family is not orthonormal")
            span = memo[key] = hl.Subspace(sig.dim, basis) if vecs else hl.zero_subspace(sig.dim)
        if not hl.member(span, value(k), sig.tol):
            return _bad(path, "SpanClosure: conclusion vector lies outside the span")
    elif rule is RuleId.EQ:
        p = prem[0].conclusion
        if not same_context(prem[0]) or p.goal != goal:
            return _bad(path, "EQ: premise proves a different sentence")
        residual = state_residual(value(p.k), value(k))
        if not residual <= sig.tol:  # a NaN residual rejects too
            return _bad(path, f"EQ: terms are not diagram-equal (residual {residual:.3e})")
    elif rule in _TABLE_RULES:
        intro, what = _TABLE_RULES[rule]
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
        _, period, closed = orbit(QuantumModel(sig, {}), body_action, value(k), budget)
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
        if not elim and (p.gamma != gamma + premise_hypotheses(rule, t.conclusion) or p.k != k
                         or p.goal != goal.right):
            return _bad(path, f"{rule.value}: premise context is not the extended "
                              "clause set")
    else:  # pragma: no cover - the enum is exhaustive
        return _bad(path, f"unknown rule {rule!r}")
    return None


# --------------------------------------------------------------- the prover

@dataclass
class ProveResult:
    status: str  # "holds" | "fails" | "unknown"
    tree: ProofTree | None = None
    reason: str = ""

    @property
    def holds(self) -> bool:
        return self.status == "holds"


# an implication class -> (its introduction, its modus ponens)
_IMPLICATION = {Imp: (RuleId.IMP, RuleId.MP), QImp: (RuleId.IMP_C, RuleId.MP_C)}


class _Counter:
    """Nodes left to the current query, and whether any query ran out."""
    __slots__ = ("left", "exhausted")

    def __init__(self, n: int):
        self.left, self.exhausted = n, False

    def spend(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            self.exhausted = True
            raise BudgetExceeded("prover node budget exhausted")


def _at_sites(s: sx.Sentence) -> bool:
    """Whether a clause that holds at every term is eliminated at each site:
    a store's and an [f]'s components depend on the term, and star unrolls."""
    return isinstance(s, Store) or isinstance(s, Nec) and isinstance(s.action, (ASym, AStar))


class _Saturation:
    """Forward elimination closure of a clause set over demand-driven terms.

    Facts are sequents (gamma |-^t s) keyed by (sentence, vector class);
    clauses themselves are available at every term via Monotonicity and
    are instantiated lazily at registered terms. A closed proposition's span
    grows by one Gram-Schmidt step per fact, over its facts' classes in order.
    """

    def __init__(self, sig: SignatureInstance, gamma: tuple[sx.Sentence, ...],
                 budget: SearchBudget, counter: _Counter, vectors: dict):
        self.sig = sig
        self.gamma = gamma
        self.budget = budget
        self.counter = counter
        # term -> evaluated state, shared by every saturation of one session
        self.vectors: dict[sx.Term, np.ndarray] = vectors
        self.class_vecs = hl.VectorTable(sig.dim, sig.tol)
        self.class_terms: list[sx.Term] = []
        # exact: a term's vector is fixed and the table only appends
        self.class_of: dict[sx.Term, int] = {}
        self.facts: dict[tuple[sx.Sentence, int], ProofTree] = {}
        self.universal: dict[sx.Sentence, object] = {}  # sentence -> builder(k)
        self.at_sites: dict[sx.Sentence, object] = {}  # universal ones instantiated per site
        self.imps: list[tuple[sx.Sentence, object]] = []  # (imp, builder | tree)
        self.queue: list[tuple] = []
        self.fired: set[tuple[int, int]] = set()
        # class ids acting as instantiation sites, in registration order
        self.sites: dict[int, None] = {}
        self.walked: set[sx.Term] = set()  # terms register_site walked in full
        self.props: dict[str, list] = {}  # p -> its facts' [(class id, proof)], in order
        # closed r -> (basis, its props entries, SpanClosure premises or None)
        self.spans = {r: (hl.zero_subspace(sig.dim), self.props.setdefault(r, []), None)
                      for r in sig.closed_props}
        self.incomplete = False
        for c in gamma:
            self._add_universal(c, self._mono_builder(c))

    # -- class table ------------------------------------------------------
    def vector(self, term: sx.Term) -> np.ndarray:
        """eval_term, memoized for the session by eval_memo on a miss."""
        v = self.vectors.get(term)
        return eval_memo(self.sig, term, self.vectors) if v is None else v

    def is_ground(self, term: sx.Term) -> bool:
        return term in self.vectors or sx.is_ground(term)  # evaluated means ground

    def diagram_eq(self, k1: sx.Term, k2: sx.Term) -> bool:
        return state_residual(self.vector(k1), self.vector(k2)) <= self.sig.tol

    def intern(self, term: sx.Term) -> int:
        cid = self.class_of.get(term)
        if cid is None:
            cid, added = self.class_vecs.find_or_add(self.vector(term))
            if added:
                self.class_terms.append(term)
            self.class_of[term] = cid
        return cid

    def register_site(self, term: sx.Term) -> None:
        """Make a ground term (and its subterms) an instantiation site.

        A subtree walked before is skipped: its subterms are all sites.
        """
        if term in self.walked:  # most calls, from queries on known terms
            return
        for sub in ((term,) if type(term) is sx.TApp and term.arg in self.walked
                    else sx.walk(term, sx.TERM, self.walked.__contains__)):
            cid = self.intern(sub)
            if cid not in self.sites:
                self.counter.spend()  # one node per site, whatever it instantiates
                self.sites[cid] = None
                for s, builder in list(self.at_sites.items()):
                    self.queue.append(("inst", s, builder, self.class_terms[cid]))
            self.walked.add(sub)

    # -- fact bookkeeping ---------------------------------------------------
    def _mono_builder(self, c: sx.Sentence):
        gamma = self.gamma  # not self: no cycle, so a dropped session is freed at once

        def build(k: sx.Term) -> ProofTree:
            return ProofTree(Sequent(gamma, k, c), RuleId.MONOTONICITY)
        return build

    def _add_universal(self, s: sx.Sentence, builder) -> None:
        if s in self.universal:
            return
        self.universal[s] = builder
        if isinstance(s, (Imp, QImp)):
            self.imps.append((s, builder))
            return
        self.queue.append(("univ", s, builder))
        if _at_sites(s):
            self.at_sites[s] = builder
            for cid in self.sites:
                self.queue.append(("inst", s, builder, self.class_terms[cid]))

    def add_fact(self, s: sx.Sentence, term: sx.Term, proof: ProofTree) -> None:
        cid = self.intern(term)
        key = (s, cid)
        if key in self.facts:
            return
        self.facts[key] = proof
        if isinstance(s, Prop):
            self.props.setdefault(s.name, []).append((cid, proof))
            if s.name in self.spans:  # one step for the span, and a new family
                basis, entries, _ = self.spans[s.name]
                rows = list(basis.basis)
                if hl.gram_schmidt_step(rows, self.class_vecs.rows[cid], self.sig.tol):
                    basis = hl.Subspace(self.sig.dim, np.array(rows))
                self.spans[s.name] = (basis, entries, None)
        if isinstance(s, (Imp, QImp)):
            self.imps.append((s, proof))
            return
        self.queue.append(("fact", s, term, proof))

    # -- elimination --------------------------------------------------------
    def drain(self) -> None:
        while self.queue:
            self.counter.spend()
            item = self.queue.pop()
            if item[0] == "univ":
                self._eliminate_universal(item[1], item[2])
            elif item[0] == "inst":
                self._instantiate(item[1], item[2], item[3])
            else:
                self._eliminate_fact(item[1], item[2], item[3])

    def _eliminate_universal(self, s: sx.Sentence, builder) -> None:
        if isinstance(s, At):  # it holds at every term, so at the named one
            if self.is_ground(s.term):
                self._eliminate_fact(s, s.term, builder(s.term))
            return
        if _at_sites(s) or (entry := _components(None, s)) is None:
            return
        # a conjunction's, composition's or union's components do not depend
        # on the term (None here), so they hold at every term too
        _, elim, components = entry
        gamma = self.gamma
        for _, part in components:
            def build(k, _part=part, _b=builder):
                return ProofTree(Sequent(gamma, k, _part), elim, (_b(k),))
            self._add_universal(part, build)

    def _instantiate(self, s: sx.Sentence, builder, term: sx.Term) -> None:
        self._eliminate_fact(s, term, builder(term))

    def _unroll_star(self, s: sx.Sentence, builder, term: sx.Term) -> None:
        """StarE of the star fact s at term for n = 0..period, the rounds the
        body's orbit from term's state takes to close (the orbit StarI reads):
        every state of the orbit is then reached by some unrolling. An orbit
        that does not close leaves the saturation incomplete."""
        _, period, closed = orbit(QuantumModel(self.sig, {}), s.action.body,
                                  self.vector(term), self.budget.star)
        for n in range(period + 1):
            self.counter.spend()
            inst = _star_power(s.action.body, n, s.body)
            proof = ProofTree(Sequent(self.gamma, term, inst), RuleId.STAR_E,
                              (builder(term),), certificate=n)
            self.add_fact(inst, term, proof)
            self.drain()
        if not closed:
            self.incomplete = True

    def _eliminate_fact(self, s: sx.Sentence, term: sx.Term, proof: ProofTree) -> None:
        if isinstance(s, Nec) and isinstance(s.action, AStar):
            self._unroll_star(s, lambda k, _p=proof: _adapt_eq(self, _p, k), term)
            return
        entry = _components(term, s)
        if entry is None:
            return
        _, elim, components = entry
        for k, part in components:
            if k is term or self.is_ground(k):
                self.add_fact(part, k, ProofTree(Sequent(self.gamma, k, part), elim, (proof,)))

    # -- spans for closed propositions ---------------------------------------
    def span_of(self, r: str):
        """Orthonormal basis of the provable span, its entries and premises."""
        return self.spans[r]

    def availability(self, imp_index: int, k: sx.Term):
        """A proof of the implication at term k, or None."""
        _, origin = self.imps[imp_index]
        if callable(origin):
            return origin(k)
        if origin.conclusion.k == k or self.diagram_eq(origin.conclusion.k, k):
            return _adapt_eq(self, origin, k)
        return None


def _adapt_eq(sat: _Saturation, proof: ProofTree, k: sx.Term) -> ProofTree:
    if proof.conclusion.k == k:
        return proof
    return ProofTree(Sequent(sat.gamma, k, proof.conclusion.goal), RuleId.EQ, (proof,))


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
            changed = self._modus_ponens(
                gamma, sat, lambda: [(sat.class_terms[cid], cid) for cid in sat.sites])
            sat.drain()
            changed = (changed or ranks() != spans
                       or any(cid in tried for _, cid in islice(sat.facts, known, None)))

    def _modus_ponens(self, gamma, sat: _Saturation, sites) -> bool:
        """Fire each implication known now at each (term, class id) of sites(),
        re-read per implication (an antecedent's proof registers sites); True if any fired."""
        fired = False
        for idx in range(len(sat.imps)):
            imp = sat.imps[idx][0]
            for k, cid in sites():
                fired |= self._fire(gamma, sat, idx, imp, k, cid)
        return fired

    def _fire(self, gamma, sat: _Saturation, idx: int, imp: sx.Sentence,
              k: sx.Term, cid: int) -> bool:
        """Modus ponens with implication idx at term k (of class cid), once."""
        if (idx, cid) in sat.fired:
            return False
        self.counter.spend()
        tree = self._apply(gamma, k, imp.right, _IMPLICATION[type(imp)][1],
                           (sat.availability(idx, k), (gamma, k, imp.left)), allow_mp=False)
        if tree is None:
            return False
        sat.fired.add((idx, cid))
        sat.add_fact(imp.right, k, tree)
        return True

    def _apply(self, gamma, k: sx.Term, goal: sx.Sentence, rule: RuleId, premises,
               allow_mp: bool, certificate=None) -> ProofTree | None:
        """The rule's node at (k, goal) over its premises in order, or None at
        the first that fails: each is a given proof (None if there is none), or
        a (clause set, term, sentence) subgoal proved here."""
        proved = []
        for p in premises:
            p = self.prove(p[0], p[1], p[2], allow_mp) if type(p) is tuple else p
            if p is None:
                return None
            proved.append(p)
        return ProofTree(Sequent(gamma, k, goal), rule, tuple(proved), certificate)

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
        if type(goal) in _IMPLICATION:
            rule = _IMPLICATION[type(goal)][0]
            extended = gamma + premise_hypotheses(rule, Sequent(gamma, k, goal))
            return self._apply(gamma, k, goal, rule, ((extended, k, goal.right),), allow_mp)
        if isinstance(goal, Nec) and isinstance(goal.action, AStar):
            return self._prove_star(gamma, sat, k, goal, allow_mp)
        entry = _components(k, goal)
        if entry is None:
            return None
        if isinstance(goal, At) and not sat.is_ground(goal.term):
            return None
        intro, _, components = entry
        return self._apply(gamma, k, goal, intro, [(gamma, t, part) for t, part in components],
                           allow_mp)

    def _prove_star(self, gamma, sat: _Saturation, k: sx.Term, goal: Nec, allow_mp: bool):
        a = goal.action
        _, period, closed = orbit(QuantumModel(self.sig, {}), a.body, sat.vector(k),
                                  self.budget.star)
        if not closed:
            self.star_exhausted = True
            return None
        symbols = _iterate_symbols(self.sig, a.body)

        def subgoals(term=k):  # premise n at the n-th iterate, or the n-fold unrolling
            for n in range(period + 1):
                yield (gamma, term, goal.body) if symbols else (
                    gamma, k, _star_power(a.body, n, goal.body))
                for f in symbols:
                    term = TApp(f, term)
        return self._apply(gamma, k, goal, RuleId.STAR_I_BOUNDED, subgoals(), allow_mp, period)

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
            for rule, (cls, _, _, parts) in _LINEAR.items():  # Mult, then Add
                tree = isinstance(k, cls) and self._apply(
                    gamma, k, goal, rule, [(gamma, t, goal) for t in parts(k)], allow_mp)
                if tree:
                    return tree
            if sat.diagram_eq(k, Origin()):
                return ProofTree(Sequent(gamma, k, goal), RuleId.ORIGIN)
        cid = sat.intern(k)
        if allow_mp and sat.imps:  # at k itself, not at its class's representative
            self._modus_ponens(gamma, sat, lambda: ((k, cid),))
            sat.drain()
        proof = sat.facts.get((goal, cid))
        return None if proof is None else _adapt_eq(sat, proof, k)

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


class ProofSession:
    """A reusable prover over one signature and clause set.

    Saturation state is shared between queries, which makes repeated
    queries (as in initial-model construction) far cheaper than calling
    :func:`prove` in a loop. A session owns mutable search state, so use
    one session per thread; kernel checking of the returned trees is pure.
    """

    def __init__(self, sig: SignatureInstance, gamma,
                 budget: SearchBudget = SearchBudget()):
        self.sig = sig
        self.gamma = tuple(sx.desugar(c) for c in gamma)
        for c in self.gamma:
            if not classify_in(sig, c).is_quantum_clause:
                raise ProofError(f"not a quantum clause: {sx.format_sentence(c)}")
        self.budget = budget
        self._prover = _Prover(sig, budget)

    def register_terms(self, terms) -> None:
        """Pre-instantiate the clause set at the given ground terms.

        Registering a query universe up front makes the fact base
        independent of later query order.
        """
        self._prover.counter.left = self.budget.max_nodes
        sat = self._prover.saturation(self.gamma)
        for t in terms:
            sat.register_site(t)
        self._prover.saturate_sites(self.gamma)

    def vector(self, k: sx.Term) -> np.ndarray:
        """The state a ground term evaluates to, memoized for the session."""
        return self._prover.saturation(self.gamma).vector(k)

    def intern(self, k: sx.Term) -> int:
        """The id of a ground term's vector class in the session's table."""
        return self._prover.saturation(self.gamma).intern(k)

    def universe(self, depth: int, max_terms: int) -> tuple[list[sx.Term], bool]:
        """A term per class reached from the origin and the clause set's ground
        terms in up to depth symbol applications, at most max_terms, and whether
        the cap left one out; a new candidate costs one evaluation and one probe."""
        sat = self._prover.saturation(self.gamma)
        syms = sorted(self.sig.unitaries) + sorted(self.sig.measurements)
        universe: dict[int, sx.Term] = {}  # class id -> representative, in order
        level = ((t, None, None) for t in [sx.Origin()] + [  # (term, symbol, argument's state)
            t for c in self.gamma for t in sx.sentence_terms(c) if sx.is_ground(t)])
        for _ in range(depth + 1):
            new = []
            for term, s, v in level:
                cid = sat.class_of.get(term)
                if cid is None:
                    w = sat.vector(term) if s is None else apply_symbol(self.sig, s, v)
                    if len(universe) < max_terms:
                        sat.vectors[term] = w
                        cid = sat.intern(term)
                    else:  # a probe that adds nothing
                        cid = sat.class_vecs.find(w)
                if cid not in universe:
                    if len(universe) >= max_terms:
                        return list(universe.values()), True
                    universe[cid] = term
                    new.append(term)
            level = ((sx.TApp(s, t), s, sat.vectors[t]) for t in new for s in syms)
        return list(universe.values()), False

    def prop_rows(self, p: str, terms) -> np.ndarray:
        """Class vectors of the proposition's facts (elimination can carry
        them past the registered terms), and of the given terms too when the
        session holds the proposition at every state."""
        sat = self._prover.saturation(self.gamma)
        cids = {cid for cid, _ in sat.props.get(p, ())}
        if Prop(p) in sat.universal:
            cids.update(map(sat.intern, terms))
        return sat.class_vecs.rows[sorted(cids)]

    def prove(self, k: sx.Term, goal: sx.Sentence) -> ProveResult:
        goal = sx.desugar(goal)
        if not classify_in(self.sig, goal).is_quantum_clause:
            raise ProofError(f"not a quantum clause: {sx.format_sentence(goal)}")
        prover = self._prover
        if k not in prover.vectors and not sx.is_ground(k):  # evaluated means ground
            raise ProofError(f"goal term is not ground: {sx.format_term(k)}")
        prover.star_exhausted, prover.counter.left = False, self.budget.max_nodes
        try:
            tree = prover.prove(self.gamma, k, goal)
        except BudgetExceeded as e:
            return ProveResult("unknown", reason=str(e))
        if tree is not None:
            return ProveResult("holds", tree=tree)
        if prover.counter.exhausted:  # a BudgetExceeded can lose a popped queue item
            return ProveResult("unknown", reason="the node budget ran out earlier in this session")
        if prover.star_exhausted or any(sat.incomplete for sat in prover.saturations.values()):
            return ProveResult("unknown", reason="a star orbit did not close within budget")
        return ProveResult("fails", reason="no rule applies to the remaining goals")


def prove(sig: SignatureInstance, gamma, k: sx.Term, goal: sx.Sentence,
          budget: SearchBudget = SearchBudget()) -> ProveResult:
    """Backward-chaining proof search for quantum clauses.

    Both the clause set and the goal must be quantum clauses over the
    signature, and the term must be ground. Returns a kernel-checkable
    proof tree, a definite failure, or an honest "unknown" when a budget
    ran out before the search space was exhausted.
    """
    return ProofSession(sig, gamma, budget).prove(k, goal)


# --------------------------------------------------- proof-object utilities

def used_premises(t: ProofTree) -> tuple[sx.Sentence, ...]:
    """The clause-set members actually consumed by Monotonicity nodes."""
    out: dict[sx.Sentence, None] = {}  # in pre-order of first use
    for node, added in walk_proof(
            t, (), lambda node, added: added + premise_hypotheses(node.rule, node.conclusion)):
        if node.rule is RuleId.MONOTONICITY and node.conclusion.goal not in added:
            out.setdefault(node.conclusion.goal)
    return tuple(out)


def restrict_premises(t: ProofTree, subset) -> ProofTree:
    """Rebuild the tree over a smaller root clause set."""
    return _rebuild_tree(
        t, lambda node, gamma: Sequent(gamma, node.conclusion.k, node.conclusion.goal),
        tuple(subset), lambda node, gamma: gamma + premise_hypotheses(node.rule, node.conclusion))


def _rename_sequent(chi: Morphism, seq: Sequent) -> Sequent:
    return Sequent(tuple(chi.rename(g) for g in seq.gamma), chi.rename(seq.k),
                   chi.rename(seq.goal))


def rename_proof(chi: Morphism, t: ProofTree) -> ProofTree:
    """Rename a whole derivation along an injective signature morphism."""
    chi.validate()
    return _rebuild_tree(t, lambda node, _: _rename_sequent(chi, node.conclusion))
