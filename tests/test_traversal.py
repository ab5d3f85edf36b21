"""walk, fold and every traversal built on them.

Each traversal is checked against its hand-written recursive predecessor,
kept in reference_traversals.py, on a seeded corpus that covers all 24 node
classes; and each runs on inputs 5,000 deep, far past Python's recursion
limit. Results on deep inputs are checked with walk, because == and hash
still recurse.
"""

import os

import numpy as np
import pytest

import reference_traversals as ref
from gen import random_closed_sentence
from hdql import hilbert as hl
from hdql import semantics as sm
from hdql import syntax as sx
from hdql.calculus import ProofSession, proof_nodes
from hdql.errors import MorphismError, SemanticsError
from hdql.signature import Morphism, SignatureInstance, apply_morphism, classify_in
from hdql.specfile import load_spec
from hdql.syntax import (ACTION, ALL, SENTENCE, TERM, AComp, And, ASym, AStar, AUnion,
                         At, Here, Imp, Kind, Name, Nec, Not, OPlus, Origin, Pos, Prop,
                         QImp, QNot, Store, TApp, TSmul, TSum, UntilS, Var, VecLit)

NODE_CLASSES = (sx.Term.__args__ + sx.Action.__args__ + sx.Sentence.__args__)
VARS = ["x", "y", "z", "x'"]
SYMS = ["u0", "u1", "m0"]
PROPS = ["p", "q", "r", "r'"]
CLOSED = frozenset({"r", "r'"})
MEASUREMENTS = frozenset({"m0"})


# ------------------------------------------------------------------- corpus

def random_term(rng, depth: int):
    if depth == 0 or rng.random() < 0.3:
        c = int(rng.integers(0, 4))
        if c == 0:
            return Name(str(rng.choice(["w0", "w1"])))
        if c == 1:
            return Var(str(rng.choice(VARS)))
        if c == 2:
            return Origin()
        return VecLit((complex(int(rng.integers(-3, 4)), 1.0), 0.5j))
    c = int(rng.integers(0, 3))
    if c == 0:
        return TSum(random_term(rng, depth - 1), random_term(rng, depth - 1))
    if c == 1:
        return TSmul(complex(int(rng.integers(-3, 4)), 1.0), random_term(rng, depth - 1))
    return TApp(str(rng.choice(SYMS)), random_term(rng, depth - 1))


def random_action(rng, depth: int):
    if depth == 0 or rng.random() < 0.35:
        return ASym(str(rng.choice(SYMS)))
    c = int(rng.integers(0, 3))
    if c == 0:
        return AComp(random_action(rng, depth - 1), random_action(rng, depth - 1))
    if c == 1:
        return AUnion(random_action(rng, depth - 1), random_action(rng, depth - 1))
    return AStar(random_action(rng, depth - 1))


def random_sentence(rng, depth: int):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.8:
            return Prop(str(rng.choice(PROPS)))
        return Here(random_term(rng, 2))
    d = depth - 1
    c = int(rng.integers(0, 11))
    if c == 0:
        return At(random_term(rng, 2), random_sentence(rng, d))
    if c == 1:
        return Store(str(rng.choice(VARS[:3])), random_sentence(rng, d))
    if c == 2:
        return Not(random_sentence(rng, d))
    if c == 3:
        return QNot(random_sentence(rng, d))
    if c == 4:
        return Nec(random_action(rng, 2), random_sentence(rng, d))
    if c == 5:
        return Pos(random_action(rng, 2), random_sentence(rng, d))
    if c == 10:
        return UntilS(random_action(rng, 2), random_sentence(rng, d), random_sentence(rng, d))
    binary = [And, Imp, QImp, OPlus][c - 6]
    return binary(random_sentence(rng, d), random_sentence(rng, d))


def _corpus():
    rng = np.random.default_rng(2024)
    terms = [random_term(rng, int(rng.integers(0, 5))) for _ in range(300)]
    actions = [random_action(rng, int(rng.integers(0, 5))) for _ in range(150)]
    sentences = [random_sentence(rng, int(rng.integers(0, 6))) for _ in range(550)]
    return terms, actions, sentences


TERMS, ACTIONS, SENTENCES = _corpus()
REPLACEMENTS = [Name("w0"), Var("x"), TSum(Var("y"), Var("z")), TApp("u0", Var("x'"))]


def _binders(s) -> set[str]:
    return {n.var for n in sx.walk(s, SENTENCE) if isinstance(n, Store)}


class TestCorpus:
    def test_covers_all_24_node_classes(self):
        seen = {type(n) for x in TERMS + ACTIONS + SENTENCES for n in sx.walk(x)}
        assert len(NODE_CLASSES) == 24
        assert seen == set(NODE_CLASSES)


# ---------------------------------------------------- against the references

class TestAgainstReferences:
    def test_term_vars_and_is_ground(self):
        for t in TERMS:
            assert sx.term_vars(t) == ref.term_vars(t)
            assert sx.is_ground(t) == (not ref.term_vars(t))

    def test_free_vars(self):
        for s in SENTENCES:
            assert sx.free_vars(s) == ref.free_vars(s)

    def test_substitute_in_terms(self):
        for t in TERMS:
            for var in VARS:
                for repl in REPLACEMENTS:
                    want = ref.substitute_term(t, var, repl)
                    assert sx.substitute_term(t, var, repl) == want
                    assert sx.substitute(t, var, repl) == want

    def test_substitute_in_sentences_including_capture(self):
        captured = 0
        for s in SENTENCES:
            for var in VARS:
                for repl in REPLACEMENTS:
                    want = ref.substitute(s, var, repl)
                    assert sx.substitute(s, var, repl) == want
                    captured += _binders(want) != _binders(s)
        assert captured >= 5  # the renaming branch ran

    def test_substitute_renames_a_capturing_binder_like_the_reference(self):
        s = Store("y", And(At(TSum(Var("y"), Var("z")), Prop("p")), Here(Var("y'"))))
        got = sx.substitute(s, "z", Var("y"))
        assert got == ref.substitute(s, "z", Var("y"))
        assert got.var == "y''"

    def test_desugar(self):
        for s in SENTENCES:
            assert sx.desugar(s) == ref.desugar(s)

    def test_classify_raw_and_desugared(self):
        kinds = set()
        for s in SENTENCES:
            want = ref.classify(s, CLOSED, MEASUREMENTS)
            assert sx.classify(s, CLOSED, MEASUREMENTS) == want
            assert sx.classify(sx.desugar(s), CLOSED, MEASUREMENTS) == want
            kinds.add(want)
        assert len(kinds) >= 5

    def test_classify_in_builds_one_classifier_per_signature(self, monkeypatch):
        sig = SignatureInstance(
            dim=2, unitaries={"u0": hl.X, "u1": hl.H},
            measurements={"m0": hl.orthonormalize([hl.basis_state(2, 0)])},
            named_vectors={}, props=frozenset(PROPS), closed_props=CLOSED)
        built, classifier = [], sx.classifier
        monkeypatch.setattr(sx, "classifier", lambda *a: built.append(a) or classifier(*a))
        for s in SENTENCES:
            assert classify_in(sig, s) == ref.classify(s, CLOSED, MEASUREMENTS)
        assert built == [(CLOSED, MEASUREMENTS)]

    @pytest.mark.parametrize("sugar", [OPlus, Pos, UntilS])
    def test_classify_each_raw_sugar_form(self, sugar):
        forms = [s for s in SENTENCES for s in sx.walk(s, SENTENCE) if isinstance(s, sugar)]
        assert len(forms) > 20
        for s in forms:
            assert sx.classify(s, CLOSED, MEASUREMENTS) == ref.classify(s, CLOSED, MEASUREMENTS)
        closed = [OPlus(Prop("r"), QNot(Prop("r'"))), Pos(ASym("u0"), Prop("r"))]
        for s in closed:
            assert sx.classify(s, CLOSED, MEASUREMENTS) == ref.classify(s, CLOSED, MEASUREMENTS)
        assert sx.classify(closed[0], CLOSED, MEASUREMENTS) == Kind(False, True, False)

    def test_sentence_terms_in_order_and_subterms(self):
        for s in SENTENCES:
            assert list(sx.sentence_terms(s)) == list(ref.sentence_terms(s))
        for t in TERMS:
            assert list(sx.subterms(t)) == list(ref.subterms(t))

    def test_sentence_symbols(self):
        for s in SENTENCES:
            assert sx.sentence_symbols(s) == ref.sentence_symbols(s)

    def test_action_symbols_unitarity_and_star(self):
        for a in ACTIONS:
            assert sx.action_symbols(a) == ref.action_symbols(a)
            assert sx.is_unitary_action(a, MEASUREMENTS) == (
                not ref.action_symbols(a) & MEASUREMENTS)
            assert any(isinstance(n, AStar) for n in sx.walk(a, ACTION)) == ref._has_star(a)

    def test_apply_morphism(self, sig_pair):
        chi = Morphism(*sig_pair, *_RENAMING)
        for x in TERMS + ACTIONS + SENTENCES:
            assert apply_morphism(chi, x) == ref.apply_morphism(chi, x)

    def test_unmapped_symbol_raises_like_the_reference(self, sig_pair):
        partial = Morphism(*sig_pair, {"u0": "U0"}, {}, {}, {"p": "P"})
        for x in TERMS + ACTIONS + SENTENCES:
            try:
                want = ref.apply_morphism(partial, x)
            except MorphismError:
                with pytest.raises(MorphismError):
                    apply_morphism(partial, x)
            else:
                assert apply_morphism(partial, x) == want

    def test_rejecting_quantum_operators_over_nonclosed_sentences(self, sig_pair):
        sig = sig_pair[0]
        outcomes = set()
        for s in SENTENCES:
            s = sx.desugar(s)
            results = []
            for reject in (sm._reject_nonclosed_quantum_ops, ref._reject_nonclosed_quantum_ops):
                try:
                    reject(sig, s)
                    results.append(None)
                except SemanticsError as e:
                    results.append(str(e))
            assert results[0] == results[1]
            outcomes.add(results[0] is None)
        assert outcomes == {True, False}


    def test_successors_in_path_order_with_the_same_flag(self, sig_pair):
        sig = sig_pair[0]
        model, budget = sm.QuantumModel(sig, {}), sm.StarBudget(max_iterations=3)
        flags = set()
        for a in ACTIONS:
            for w in sig.named_vectors.values():
                got, want = sm.successors(model, a, w, budget), ref.successors(model, a, w, budget)
                assert got.complete == want.complete
                assert len(got.vectors) == len(want.vectors)
                assert all(np.array_equal(x, y) for x, y in zip(got.vectors, want.vectors))
                flags.add(got.complete)
        assert flags == {True, False}

    def test_closed_extension_is_bit_for_bit_the_recursive_one(self, sig_pair):
        sig = sig_pair[0]
        rng = np.random.default_rng(31)
        model = sm.QuantumModel(sig, {r: hl.random_subspace(2, rng) for r in sorted(CLOSED)})
        closed = [s for s in SENTENCES if classify_in(sig, sx.desugar(s)).is_closed] + [
            random_closed_sentence(rng, 4, sorted(CLOSED), ["u0", "u1"]) for _ in range(100)]
        assert {QImp, OPlus, Nec, And, QNot} <= {type(n) for s in closed for n in sx.walk(s)}
        budget = sm.StarBudget()
        for s in closed:
            got = sm.closed_extension(model, s, budget)
            want = ref.closed_extension(model, s, budget)
            assert got.dim == want.dim and np.array_equal(got.basis, want.basis)
        wrong = sm.QuantumModel(sig, {"r": sm.FiniteVectors(())})
        for closed_extension in (sm.closed_extension, ref.closed_extension):
            with pytest.raises(SemanticsError, match="'r' has a non-subspace region"):
                closed_extension(wrong, QImp(Prop("r'"), Prop("r")), budget)

    def test_printers_on_every_node(self):
        memo = {}  # one memo over the whole corpus, which keeps its nodes alive
        for x in TERMS + ACTIONS + SENTENCES:
            for n in sx.walk(x):
                want = _reference_text(n)
                assert sx.format_term(n) == want
                assert sx.format_term(n, memo) == want
        assert sx.format_action is sx.format_sentence is sx.format_term

    def test_printers_on_every_node_of_the_demo_proofs(self):
        rows = 0
        for name, goals in (("teleport", None), ("rotation", None), ("star_clause", (0, 1))):
            spec = load_spec(os.path.join(DEMOS, f"{name}.hdql"))
            session = ProofSession(spec.sig, spec.axioms)
            for term, sentence in [spec.goals[i] for i in goals or range(len(spec.goals))]:
                result = session.prove(term, sentence)
                assert result.status == "holds"
                memo = {}  # as the trace writer uses it, one per proof
                for node in proof_nodes(result.tree):
                    rows += 1
                    for x in (node.conclusion.k, node.conclusion.goal):
                        for n in sx.walk(x):
                            assert sx.format_term(n, memo) == _reference_text(n)
        assert rows > 100


DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos")


def _reference_text(n) -> str:
    if isinstance(n, sx.Term):
        return ref.format_term(n)
    if isinstance(n, sx.Action):
        return ref.format_action(n)
    return ref.format_sentence(n)


_RENAMING = ({"u0": "U0", "u1": "U1"}, {"m0": "M0"}, {"w0": "W0", "w1": "W1"},
             {p: p.upper() for p in PROPS})


@pytest.fixture(scope="module")
def sig_pair():
    rng = np.random.default_rng(7)
    unitaries = {"u0": hl.random_unitary(2, rng), "u1": hl.random_unitary(2, rng)}
    measurements = {"m0": hl.random_subspace(2, rng, rank=1)}
    vectors = {"w0": hl.random_state(2, rng), "w1": hl.random_state(2, rng)}
    source = SignatureInstance(2, unitaries, measurements, vectors,
                               frozenset(PROPS), CLOSED)
    renamed = [{v: m[k] for k, v in names.items()}
               for m, names in zip((unitaries, measurements, vectors), _RENAMING)]
    target = SignatureInstance(2, *renamed, frozenset(p.upper() for p in PROPS),
                               frozenset(p.upper() for p in CLOSED))
    return source, target


# --------------------------------------------------------------- walk and fold

class TestWalkAndFold:
    def test_walk_is_pre_order_over_the_given_sorts(self):
        s = At(TApp("u0", Name("w0")), Nec(AComp(ASym("u0"), ASym("u1")), Prop("p")))
        assert [type(n) for n in sx.walk(s)] == [At, TApp, Name, Nec, AComp, ASym, ASym, Prop]
        assert [type(n) for n in sx.walk(s, SENTENCE)] == [At, Nec, Prop]
        assert [type(n) for n in sx.walk(s, TERM | SENTENCE)] == [At, TApp, Name, Nec, Prop]

    def test_walk_prunes_a_node_and_everything_below_it(self):
        t = TSum(TApp("u0", Name("w0")), Name("w1"))
        assert list(sx.walk(t, TERM, lambda n: isinstance(n, TApp))) == [t, Name("w1")]

    def test_fold_keeps_unchanged_nodes_and_rebuilds_only_the_path(self):
        for s in SENTENCES:
            assert sx.fold(s, {}) is s
        s = And(Pos(ASym("u0"), Prop("p")), Nec(ASym("u1"), Prop("q")))
        got = sx.desugar(s)
        assert got.right is s.right
        assert got.left == Not(Nec(ASym("u0"), Not(Prop("p"))))

    def test_an_early_entry_skips_the_children(self):
        seen = []
        table = {Prop: lambda n, kids: seen.append(n.name) or n}
        s = And(Not(Prop("p")), Prop("q"))
        sx.fold(s, table, SENTENCE, {Not: lambda n: n})
        assert seen == ["q"]
        sx.fold(s, table, SENTENCE, {Not: lambda n: None})
        assert seen == ["q", "p", "q"]

    def test_fold_counts_what_walk_visits(self):
        count = dict.fromkeys(NODE_CLASSES, lambda n, kids: 1 + sum(kids))
        for x in TERMS + ACTIONS + SENTENCES:
            for sorts in (TERM, ACTION, SENTENCE, ALL):
                assert sx.fold(x, count, sorts) == sum(1 for _ in sx.walk(x, sorts))


# ------------------------------------------------------------------- depth

DEPTH = 5000


def deep_term():
    t = Var("x")
    for i in range(DEPTH):
        t = TApp("u0", t) if i % 2 else TSum(t, Name("w0"))
    return t


def deep_action():
    a = AStar(ASym("u0"))
    for i in range(DEPTH):
        a = AComp(ASym("m0" if i % 2 else "u1"), a)
    return a


def deep_sentence(bottom=Prop("p")):
    s = bottom
    for i in range(DEPTH):
        s = [Nec(ASym("u0"), s), Store("x", s), And(s, Prop("q")),
             At(TSum(Var("x"), TApp("u1", Name("w0"))), s)][i % 4]
    return s


def _types(x, sorts=ALL):
    out = {}
    for n in sx.walk(x, sorts):
        out[type(n)] = out.get(type(n), 0) + 1
    return out


class TestDepth:
    def test_term(self, sig_pair):
        t = deep_term()
        assert _types(t) == {Var: 1, TSum: DEPTH // 2, TApp: DEPTH // 2, Name: DEPTH // 2}
        assert sx.term_vars(t) == {"x"} and not sx.is_ground(t)
        assert len(list(sx.subterms(t))) == 1 + DEPTH + DEPTH // 2
        got = sx.substitute_term(t, "x", Origin())
        assert _types(got) == {Origin: 1, TSum: DEPTH // 2, TApp: DEPTH // 2, Name: DEPTH // 2}
        renamed = apply_morphism(Morphism(*sig_pair, *_RENAMING), t)
        assert {n.name for n in sx.walk(renamed) if isinstance(n, Name)} == {"W0"}
        assert {n.sym for n in sx.walk(renamed) if isinstance(n, TApp)} == {"U0"}

    def test_action(self, sig_pair):
        a = deep_action()
        assert sx.action_symbols(a) == {"u0", "u1", "m0"}
        assert not sx.is_unitary_action(a, MEASUREMENTS)
        assert any(isinstance(n, AStar) for n in sx.walk(a, ACTION))
        renamed = apply_morphism(Morphism(*sig_pair, *_RENAMING), a)
        assert {n.name for n in sx.walk(renamed) if isinstance(n, ASym)} == {"U0", "U1", "M0"}

    def test_sentence(self, sig_pair):
        s = deep_sentence()
        n_nodes = sum(1 for _ in sx.walk(s))
        assert sx.free_vars(s) == {"x"}
        assert sx.desugar(s) is s
        assert sx.classify(s, CLOSED, MEASUREMENTS) == Kind(True, False, True)
        assert len(list(sx.sentence_terms(s))) == 4 * (DEPTH // 4)
        assert sx.sentence_symbols(s) == ({"p", "q"}, {"u0", "u1"}, {"w0"})
        sm._reject_nonclosed_quantum_ops(sig_pair[0], s)
        got = sx.substitute(s, "x", Name("w1"))
        assert sum(1 for _ in sx.walk(got)) == n_nodes
        assert [n for n in sx.walk(got) if isinstance(n, Var)][:1] == [Var("x")]  # bound
        assert _types(got)[Name] == _types(s)[Name] + 1  # the free x, at the top
        renamed = apply_morphism(Morphism(*sig_pair, *_RENAMING), s)
        assert {n.name for n in sx.walk(renamed) if isinstance(n, Prop)} == {"P", "Q"}

    def test_sugar_chain_desugars_and_classifies(self):
        s = deep_sentence(UntilS(ASym("u0"), Prop("p"), Prop("q")))
        for _ in range(DEPTH):
            s = OPlus(Pos(ASym("u0"), s), Prop("r"))
        got = sx.desugar(s)
        types = _types(got, SENTENCE)
        assert OPlus not in types and Pos not in types and UntilS not in types
        assert types[QNot] == 3 * DEPTH
        assert sx.classify(s, CLOSED, MEASUREMENTS) == Kind(False, False, False)
        assert sx.classify(got, CLOSED, MEASUREMENTS) == Kind(False, False, False)

    def test_printing_chains_10000_deep(self):
        n = 10_000
        t, a, s = Name("w0"), ASym("g"), Prop("p")
        for _ in range(n):
            t, a, s = TApp("u0", t), AComp(ASym("g"), a), Nec(ASym("g"), s)
        assert sx.format_term(t) == "u0(" * n + "w0" + ")" * n
        assert sx.format_action(a) == " ; ".join(["g"] * (n + 1))
        assert sx.format_sentence(s) == "[g] " * n + "p"

    def test_closed_extension_and_successors(self, sig_pair):
        sig = sig_pair[0]
        w0 = sig.named_vectors["w0"]
        model = sm.QuantumModel(sig, {"r": hl.orthonormalize([w0])})
        neg, hook = Prop("r"), Prop("r")
        for _ in range(DEPTH):
            neg, hook = QNot(neg), QImp(Prop("r"), hook)
        got = sm.closed_extension(model, neg)
        assert np.allclose(hl.projector(got), hl.projector(model.valuation["r"]))
        assert sm.closed_extension(model, hook).rank == 2
        comp, union = ASym("u0"), ASym("u0")
        for i in range(DEPTH):
            comp, union = AComp(ASym("u0"), comp), AUnion(ASym(f"u{i % 2}"), union)
        want = np.linalg.matrix_power(sig.unitaries["u0"], DEPTH + 1) @ w0
        (got,) = sm.successors(model, comp, w0).vectors
        assert np.allclose(got, want)
        got = sm.successors(model, union, w0)
        want = [sig.unitaries[f"u{i % 2}"] @ w0 for i in reversed(range(DEPTH))]
        assert got.complete and len(got.vectors) == DEPTH + 1
        want.append(sig.unitaries["u0"] @ w0)  # the innermost branch
        assert all(np.array_equal(v, u) for v, u in zip(got.vectors, want))
