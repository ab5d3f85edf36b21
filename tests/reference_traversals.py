"""The hand-written recursive traversals that ``walk``, ``fold`` and work lists replaced.

Kept as they were, with their imports adapted and ``is_unitary_action``
inlined into ``classify``, as references for ``test_traversal.py`` and
``test_calculus.py``, the way ``test_syntax.py`` keeps the
character-by-character lexer. They recurse, so they only see shallow inputs.
"""

from __future__ import annotations

from hdql import hilbert as hl
from hdql import syntax as sx
from hdql.errors import DimensionMismatch
from hdql.hilbert import Subspace
from hdql.semantics import SemanticsError, SuccessorSet, _preimage, _region
from hdql.signature import apply_symbol, classify_in
from hdql.syntax import (AComp, And, ASym, AStar, AUnion, At, Here, Imp, Kind, Name, Nec,
                         Not, OPlus, Origin, Pos, Prop, QImp, QNot, Store, TApp, TSmul, TSum,
                         UntilS, Var, VecLit, _fresh, format_complex)
from hdql.calculus import ProofTree, Sequent, RuleId

_NOTHING = Kind(False, False, False)


# ------------------------------------------------------------------ syntax

def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, (TSum,)):
        return term_vars(t.left) | term_vars(t.right)
    if isinstance(t, (TSmul, TApp)):
        return term_vars(t.arg)
    return set()


def free_vars(s: Sentence) -> set[str]:
    if isinstance(s, Prop):
        return set()
    if isinstance(s, Here):
        return term_vars(s.term)
    if isinstance(s, At):
        return term_vars(s.term) | free_vars(s.body)
    if isinstance(s, (And, Imp, QImp, OPlus)):
        return free_vars(s.left) | free_vars(s.right)
    if isinstance(s, (Not, QNot)):
        return free_vars(s.body)
    if isinstance(s, (Nec, Pos)):
        return free_vars(s.body)
    if isinstance(s, Store):
        return free_vars(s.body) - {s.var}
    if isinstance(s, UntilS):
        return free_vars(s.first) | free_vars(s.second)
    raise TypeError(f"not a sentence: {s!r}")


def _fresh(base: str, avoid: set[str]) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


def substitute_term(t: Term, var: str, repl: Term) -> Term:
    if isinstance(t, Var):
        return repl if t.name == var else t
    if isinstance(t, TSum):
        return TSum(substitute_term(t.left, var, repl), substitute_term(t.right, var, repl))
    if isinstance(t, TSmul):
        return TSmul(t.scalar, substitute_term(t.arg, var, repl))
    if isinstance(t, TApp):
        return TApp(t.sym, substitute_term(t.arg, var, repl))
    return t


def substitute(s: Sentence, var: str, repl: Term) -> Sentence:
    """Capture-avoiding substitution of a term for a free variable."""
    if isinstance(s, Prop):
        return s
    if isinstance(s, Here):
        return Here(substitute_term(s.term, var, repl))
    if isinstance(s, At):
        return At(substitute_term(s.term, var, repl), substitute(s.body, var, repl))
    if isinstance(s, And):
        return And(substitute(s.left, var, repl), substitute(s.right, var, repl))
    if isinstance(s, Imp):
        return Imp(substitute(s.left, var, repl), substitute(s.right, var, repl))
    if isinstance(s, QImp):
        return QImp(substitute(s.left, var, repl), substitute(s.right, var, repl))
    if isinstance(s, OPlus):
        return OPlus(substitute(s.left, var, repl), substitute(s.right, var, repl))
    if isinstance(s, Not):
        return Not(substitute(s.body, var, repl))
    if isinstance(s, QNot):
        return QNot(substitute(s.body, var, repl))
    if isinstance(s, Nec):
        return Nec(s.action, substitute(s.body, var, repl))
    if isinstance(s, Pos):
        return Pos(s.action, substitute(s.body, var, repl))
    if isinstance(s, UntilS):
        return UntilS(s.action, substitute(s.first, var, repl),
                      substitute(s.second, var, repl))
    if isinstance(s, Store):
        if s.var == var:
            return s
        if s.var in term_vars(repl) and var in free_vars(s.body):
            # the binder would capture a variable of repl: rename it first
            renamed = _fresh(s.var, term_vars(repl) | free_vars(s.body) | {var})
            body = substitute(s.body, s.var, Var(renamed))
            return Store(renamed, substitute(body, var, repl))
        return Store(s.var, substitute(s.body, var, repl))
    raise TypeError(f"not a sentence: {s!r}")


def desugar(s: Sentence) -> Sentence:
    """Expand possibility, quantum disjunction and until; keep => and ~>."""
    if isinstance(s, (Prop, Here)):
        return s
    if isinstance(s, At):
        return At(s.term, desugar(s.body))
    if isinstance(s, And):
        return And(desugar(s.left), desugar(s.right))
    if isinstance(s, Imp):
        return Imp(desugar(s.left), desugar(s.right))
    if isinstance(s, QImp):
        return QImp(desugar(s.left), desugar(s.right))
    if isinstance(s, Not):
        return Not(desugar(s.body))
    if isinstance(s, QNot):
        return QNot(desugar(s.body))
    if isinstance(s, Nec):
        return Nec(s.action, desugar(s.body))
    if isinstance(s, Store):
        return Store(s.var, desugar(s.body))
    if isinstance(s, Pos):
        return Not(Nec(s.action, Not(desugar(s.body))))
    if isinstance(s, OPlus):
        return QNot(And(QNot(desugar(s.left)), QNot(desugar(s.right))))
    if isinstance(s, UntilS):
        g1, g2 = desugar(s.first), desugar(s.second)
        avoid = free_vars(g1) | free_vars(g2)
        x = _fresh("x", avoid)
        y = _fresh("y", avoid | {x})
        reach_y = Not(Nec(s.action, Not(Here(Var(y)))))
        inner = And(g1, At(Var(x), Nec(s.action, Imp(reach_y, g2))))
        return Store(x, Not(Nec(s.action, Not(Store(y, inner)))))
    raise TypeError(f"not a sentence: {s!r}")


def action_symbols(a: Action) -> set[str]:
    if isinstance(a, ASym):
        return {a.name}
    if isinstance(a, AStar):
        return action_symbols(a.body)
    return action_symbols(a.left) | action_symbols(a.right)


def classify(s: Sentence, closed_props: frozenset[str] | set[str],
             measurements: frozenset[str] | set[str]) -> Kind:
    """Kind flags exactly matching the basic / closed / clause grammars.

    Sugar is expanded first, so e.g. a quantum disjunction of closed
    sentences classifies as closed.
    """
    s = desugar(s)

    def go(s: Sentence) -> Kind:
        if isinstance(s, Prop):
            return Kind(True, s.name in closed_props, True)
        if isinstance(s, Here):
            return _NOTHING
        if isinstance(s, At):
            k = go(s.body)
            return Kind(k.is_basic, False, k.is_quantum_clause)
        if isinstance(s, Store):
            k = go(s.body)
            return Kind(k.is_basic, False, k.is_quantum_clause)
        if isinstance(s, And):
            l, r = go(s.left), go(s.right)
            return Kind(l.is_basic and r.is_basic,
                        l.is_closed and r.is_closed,
                        l.is_quantum_clause and r.is_quantum_clause)
        if isinstance(s, Not):
            go(s.body)
            return _NOTHING
        if isinstance(s, QNot):
            return Kind(False, go(s.body).is_closed, False)
        if isinstance(s, Nec):
            k = go(s.body)
            unitary = not (action_symbols(s.action) & set(measurements))
            return Kind(k.is_basic, k.is_closed and unitary, k.is_quantum_clause)
        if isinstance(s, Imp):
            l, r = go(s.left), go(s.right)
            return Kind(False, False, l.is_basic and r.is_quantum_clause)
        if isinstance(s, QImp):
            l, r = go(s.left), go(s.right)
            clause = (l.is_closed and l.is_basic
                      and r.is_closed and r.is_quantum_clause)
            return Kind(False, l.is_closed and r.is_closed, clause)
        raise TypeError(f"not a desugared sentence: {s!r}")

    return go(s)


# --------------------------------------------------------- term harvesting

def subterms(t: Term):
    yield t
    if isinstance(t, TSum):
        yield from subterms(t.left)
        yield from subterms(t.right)
    elif isinstance(t, (TSmul, TApp)):
        yield from subterms(t.arg)


def sentence_terms(s: Sentence):
    """All term occurrences (with their subterms) in a sentence."""
    if isinstance(s, Here):
        yield from subterms(s.term)
    elif isinstance(s, At):
        yield from subterms(s.term)
        yield from sentence_terms(s.body)
    elif isinstance(s, (And, Imp, QImp, OPlus)):
        yield from sentence_terms(s.left)
        yield from sentence_terms(s.right)
    elif isinstance(s, (Not, QNot)):
        yield from sentence_terms(s.body)
    elif isinstance(s, (Nec, Pos, Store)):
        yield from sentence_terms(s.body)
    elif isinstance(s, UntilS):
        yield from sentence_terms(s.first)
        yield from sentence_terms(s.second)


def sentence_symbols(s: Sentence) -> tuple[set[str], set[str], set[str]]:
    """(prop symbols, action symbols, named vector constants) used in s."""
    props: set[str] = set()
    acts: set[str] = set()
    names: set[str] = set()

    def go_term(t: Term):
        for sub in subterms(t):
            if isinstance(sub, Name):
                names.add(sub.name)
            elif isinstance(sub, TApp):
                acts.add(sub.sym)

    def go(s: Sentence):
        if isinstance(s, Prop):
            props.add(s.name)
        elif isinstance(s, Here):
            go_term(s.term)
        elif isinstance(s, At):
            go_term(s.term)
            go(s.body)
        elif isinstance(s, (And, Imp, QImp, OPlus)):
            go(s.left)
            go(s.right)
        elif isinstance(s, (Not, QNot)):
            go(s.body)
        elif isinstance(s, (Nec, Pos)):
            acts.update(action_symbols(s.action))
            go(s.body)
        elif isinstance(s, Store):
            go(s.body)
        elif isinstance(s, UntilS):
            acts.update(action_symbols(s.action))
            go(s.first)
            go(s.second)

    go(s)
    return props, acts, names


# ---------------------------------------------------------------- printing

def format_term(t: Term, level: int = 0) -> str:
    if isinstance(t, Origin):
        return "0"
    if isinstance(t, (Name, Var)):
        return t.name
    if isinstance(t, VecLit):
        return "vec(" + ", ".join(format_complex(c) for c in t.coords) + ")"
    if isinstance(t, TApp):
        return f"{t.sym}({format_term(t.arg)})"
    if isinstance(t, TSum):
        s = f"{format_term(t.left, 0)} + {format_term(t.right, 1)}"
        return f"({s})" if level > 0 else s
    if isinstance(t, TSmul):
        s = f"{format_complex(t.scalar)}*{format_term(t.arg, 1)}"
        return f"({s})" if level > 1 else s
    raise TypeError(f"not a term: {t!r}")


def format_action(a: Action, level: int = 0) -> str:
    if isinstance(a, ASym):
        return a.name
    if isinstance(a, AStar):
        return format_action(a.body, 2) + "*"
    if isinstance(a, AComp):
        s = f"{format_action(a.left, 2)} ; {format_action(a.right, 1)}"
        return f"({s})" if level > 1 else s
    if isinstance(a, AUnion):
        s = f"{format_action(a.left, 0)} | {format_action(a.right, 1)}"
        return f"({s})" if level > 0 else s
    raise TypeError(f"not an action: {a!r}")


_L_STORE, _L_IMP, _L_OPLUS, _L_AND, _L_PREFIX = 0, 1, 2, 3, 4


def format_sentence(s: Sentence, level: int = 0) -> str:
    def wrap(text: str, own: int) -> str:
        return f"({text})" if own < level else text

    if isinstance(s, Prop):
        return s.name
    if isinstance(s, Here):
        return f"here({format_term(s.term)})"
    if isinstance(s, UntilS):
        return (f"until({format_action(s.action)}, {format_sentence(s.first)}, "
                f"{format_sentence(s.second)})")
    if isinstance(s, Store):
        return wrap(f"store {s.var} . {format_sentence(s.body, _L_STORE)}", _L_STORE)
    if isinstance(s, Imp):
        text = f"{format_sentence(s.left, _L_IMP + 1)} => {format_sentence(s.right, _L_IMP)}"
        return wrap(text, _L_IMP)
    if isinstance(s, QImp):
        text = f"{format_sentence(s.left, _L_IMP + 1)} ~> {format_sentence(s.right, _L_IMP)}"
        return wrap(text, _L_IMP)
    if isinstance(s, OPlus):
        text = f"{format_sentence(s.left, _L_OPLUS)} (+) {format_sentence(s.right, _L_OPLUS + 1)}"
        return wrap(text, _L_OPLUS)
    if isinstance(s, And):
        text = f"{format_sentence(s.left, _L_AND)} /\\ {format_sentence(s.right, _L_AND + 1)}"
        return wrap(text, _L_AND)
    if isinstance(s, Not):
        return wrap(f"!{format_sentence(s.body, _L_PREFIX)}", _L_PREFIX)
    if isinstance(s, QNot):
        return wrap(f"~{format_sentence(s.body, _L_PREFIX)}", _L_PREFIX)
    if isinstance(s, Nec):
        return wrap(f"[{format_action(s.action)}] {format_sentence(s.body, _L_PREFIX)}",
                    _L_PREFIX)
    if isinstance(s, Pos):
        return wrap(f"<{format_action(s.action)}> {format_sentence(s.body, _L_PREFIX)}",
                    _L_PREFIX)
    if isinstance(s, At):
        return wrap(f"@({format_term(s.term)}) {format_sentence(s.body, _L_PREFIX)}",
                    _L_PREFIX)
    raise TypeError(f"not a sentence: {s!r}")


# --------------------------------------------------------------- signature

def _rename_term(chi: Morphism, k: sx.Term) -> sx.Term:
    if isinstance(k, sx.Name):
        return sx.Name(chi.map_vector(k.name))
    if isinstance(k, sx.TSum):
        return sx.TSum(_rename_term(chi, k.left), _rename_term(chi, k.right))
    if isinstance(k, sx.TSmul):
        return sx.TSmul(k.scalar, _rename_term(chi, k.arg))
    if isinstance(k, sx.TApp):
        return sx.TApp(chi.map_action_symbol(k.sym), _rename_term(chi, k.arg))
    return k


def _rename_action(chi: Morphism, a: sx.Action) -> sx.Action:
    if isinstance(a, sx.ASym):
        return sx.ASym(chi.map_action_symbol(a.name))
    if isinstance(a, sx.AComp):
        return sx.AComp(_rename_action(chi, a.left), _rename_action(chi, a.right))
    if isinstance(a, sx.AUnion):
        return sx.AUnion(_rename_action(chi, a.left), _rename_action(chi, a.right))
    return sx.AStar(_rename_action(chi, a.body))


def _rename_sentence(chi: Morphism, s: sx.Sentence) -> sx.Sentence:
    if isinstance(s, sx.Prop):
        return sx.Prop(chi.map_prop(s.name))
    if isinstance(s, sx.Here):
        return sx.Here(_rename_term(chi, s.term))
    if isinstance(s, sx.At):
        return sx.At(_rename_term(chi, s.term), _rename_sentence(chi, s.body))
    if isinstance(s, sx.And):
        return sx.And(_rename_sentence(chi, s.left), _rename_sentence(chi, s.right))
    if isinstance(s, sx.Imp):
        return sx.Imp(_rename_sentence(chi, s.left), _rename_sentence(chi, s.right))
    if isinstance(s, sx.QImp):
        return sx.QImp(_rename_sentence(chi, s.left), _rename_sentence(chi, s.right))
    if isinstance(s, sx.OPlus):
        return sx.OPlus(_rename_sentence(chi, s.left), _rename_sentence(chi, s.right))
    if isinstance(s, sx.Not):
        return sx.Not(_rename_sentence(chi, s.body))
    if isinstance(s, sx.QNot):
        return sx.QNot(_rename_sentence(chi, s.body))
    if isinstance(s, sx.Nec):
        return sx.Nec(_rename_action(chi, s.action), _rename_sentence(chi, s.body))
    if isinstance(s, sx.Pos):
        return sx.Pos(_rename_action(chi, s.action), _rename_sentence(chi, s.body))
    if isinstance(s, sx.Store):
        return sx.Store(s.var, _rename_sentence(chi, s.body))
    if isinstance(s, sx.UntilS):
        return sx.UntilS(_rename_action(chi, s.action),
                         _rename_sentence(chi, s.first),
                         _rename_sentence(chi, s.second))
    raise TypeError(f"not a sentence: {s!r}")


def apply_morphism(chi, x):
    chi.validate()
    if isinstance(x, sx.Sentence):
        return _rename_sentence(chi, x)
    if isinstance(x, sx.Action):
        return _rename_action(chi, x)
    return _rename_term(chi, x)



# --------------------------------------------------------------- semantics

def _has_star(a: sx.Action) -> bool:
    if isinstance(a, sx.AStar):
        return True
    if isinstance(a, (sx.AComp, sx.AUnion)):
        return _has_star(a.left) or _has_star(a.right)
    return False


def _reject_nonclosed_quantum_ops(sig: SignatureInstance, s: sx.Sentence) -> None:
    """Enforce that ~ and ~> only ever apply to closed sentences."""
    if isinstance(s, sx.QNot):
        if not classify_in(sig, s.body).is_closed:
            raise SemanticsError(
                "quantum negation of a non-closed sentence is not "
                f"subspace-representable: {sx.format_sentence(s.body)}")
        _reject_nonclosed_quantum_ops(sig, s.body)
    elif isinstance(s, sx.QImp):
        if not classify_in(sig, s).is_closed:
            raise SemanticsError(
                f"Sasaki hook between non-closed sentences: {sx.format_sentence(s)}")
        _reject_nonclosed_quantum_ops(sig, s.left)
        _reject_nonclosed_quantum_ops(sig, s.right)
    elif isinstance(s, (sx.And, sx.Imp)):
        _reject_nonclosed_quantum_ops(sig, s.left)
        _reject_nonclosed_quantum_ops(sig, s.right)
    elif isinstance(s, (sx.Not, sx.Nec, sx.Store, sx.At)):
        _reject_nonclosed_quantum_ops(sig, s.body)



def successors(model, a: sx.Action, w, budget):
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


def orbit(model, action: sx.Action, w, budget):
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


def closed_extension(model, s: sx.Sentence, budget) -> Subspace:
    s = sx.desugar(s)
    if not classify_in(model.sig, s).is_closed:
        raise SemanticsError(
            f"not a closed sentence: {sx.format_sentence(s)}")
    return _ext(model, s, budget)

def _ext(model, s: sx.Sentence, budget) -> Subspace:
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


# ------------------------------------------------------------------ proofs

def restrict_premises(t: ProofTree, subset) -> ProofTree:
    """Rebuild the tree over a smaller root clause set."""
    subset = tuple(subset)

    def rebuild(node: ProofTree, gamma: tuple[sx.Sentence, ...]) -> ProofTree:
        seq = Sequent(gamma, node.conclusion.k, node.conclusion.goal)
        if node.rule in (RuleId.IMP, RuleId.IMP_C):
            hyp = At(node.conclusion.k, node.conclusion.goal.left)
            premises = tuple(rebuild(p, gamma + (hyp,)) for p in node.premises)
        else:
            premises = tuple(rebuild(p, gamma) for p in node.premises)
        return ProofTree(seq, node.rule, premises, node.certificate)

    return rebuild(t, subset)


def rename_proof(chi: Morphism, t: ProofTree) -> ProofTree:
    """Rename a whole derivation along an injective signature morphism."""
    def go(node: ProofTree) -> ProofTree:
        seq = Sequent(tuple(apply_morphism(chi, g) for g in node.conclusion.gamma),
                      apply_morphism(chi, node.conclusion.k),
                      apply_morphism(chi, node.conclusion.goal))
        return ProofTree(seq, node.rule, tuple(go(p) for p in node.premises),
                         node.certificate)

    return go(t)
