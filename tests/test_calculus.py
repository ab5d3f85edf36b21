"""Prover and kernel: the teleportation derivation, rule schemas, budgets."""

import os
import time

import numpy as np
import pytest

from gen import random_closed_model, random_ground_term, random_unitary_action
from hdql import calculus
from hdql import hilbert as hl
from hdql import semantics as sm
from hdql import signature as sg
from hdql import syntax as sx
from hdql.calculus import (CheckResult, ProofSession, ProofTree, RuleId, SearchBudget,
                           Sequent, check_proof, proof_nodes, prove,
                           restrict_premises, used_premises)
from hdql.errors import MorphismError, ProofError
from hdql.semantics import FiniteVectors, QuantumModel, StarBudget
from hdql.specfile import load_spec, serialize_trace, trace_to_json
from hdql.syntax import (And, At, Imp, Name, Nec, Origin, Prop, QImp, TApp,
                         TSmul, TSum, VecLit, parse, parse_term)

K0, K1 = hl.basis_state(2, 0), hl.basis_state(2, 1)
ROTATION = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos",
                        "rotation.hdql")


def qubit_sig(closed=("r",)):
    return sg.SignatureInstance(
        dim=2,
        unitaries={"h": hl.H, "x": hl.X},
        measurements={"m0": hl.orthonormalize([K0])},
        named_vectors={"v0": K0, "v1": K1,
                       "vp": (K0 + K1) / np.sqrt(2)},
        props=frozenset({"p", "q", "r", "r2"}),
        closed_props=frozenset(closed))


def lit(vec) -> VecLit:
    return VecLit(tuple(complex(c) for c in vec))


class TestTeleportation:
    def test_full_derivation(self, teleport):
        sig, axioms, start, goal = teleport
        result = prove(sig, axioms, start, goal)
        assert result.holds
        assert check_proof(sig, result.tree).ok

    def test_rule_profile_per_branch(self, teleport):
        sig, axioms, start, goal = teleport
        tree = prove(sig, axioms, start, goal).tree
        rules = [n.rule for n in proof_nodes(tree)]
        assert rules.count(RuleId.UNION_I) == 3
        assert rules.count(RuleId.FT_I) == 4 * 5
        assert rules.count(RuleId.EQ) == 4
        assert rules.count(RuleId.RET_E) == 4
        assert rules.count(RuleId.MONOTONICITY) == 4

    def test_eq_residuals_are_tiny(self, teleport):
        sig, axioms, start, goal = teleport
        tree = prove(sig, axioms, start, goal).tree
        eq_nodes = [n for n in proof_nodes(tree) if n.rule is RuleId.EQ]
        assert len(eq_nodes) == 4
        for n in eq_nodes:
            r = sg.diagram_residual(sig, n.premises[0].conclusion.k,
                                    n.conclusion.k)
            assert r <= 1e-8

    def test_used_premises_are_exactly_the_axioms(self, teleport):
        sig, axioms, start, goal = teleport
        tree = prove(sig, axioms, start, goal).tree
        used = used_premises(tree)
        assert sorted(map(sx.format_sentence, used)) == \
            sorted(map(sx.format_sentence, axioms))
        again = restrict_premises(tree, used)
        assert check_proof(sig, again).ok

    def test_translation_stability(self, teleport):
        sig, axioms, start, goal = teleport
        tree = prove(sig, axioms, start, goal).tree
        renamed_sig = sg.SignatureInstance(
            dim=8,
            unitaries={f"g_{u}": m for u, m in sig.unitaries.items()},
            measurements={f"g_{q}": s for q, s in sig.measurements.items()},
            named_vectors={f"g_{v}": w for v, w in sig.named_vectors.items()},
            props=frozenset({"p'"}), closed_props=frozenset())
        chi = sg.Morphism(sig, renamed_sig,
                          unitaries={u: f"g_{u}" for u in sig.unitaries},
                          measurements={q: f"g_{q}" for q in sig.measurements},
                          vectors={v: f"g_{v}" for v in sig.named_vectors},
                          props={"p": "p'"})
        renamed = sg.apply_morphism(chi, tree)
        assert check_proof(renamed_sig, renamed).ok
        assert not check_proof(sig, renamed).ok


class TestBasicProver:
    def test_member_goal_is_one_monotonicity_node(self):
        sig = qubit_sig()
        result = prove(sig, [Prop("p")], Name("v0"), Prop("p"))
        assert result.holds
        assert result.tree.rule is RuleId.MONOTONICITY
        assert result.tree.premises == ()

    def test_unprovable_goal_fails(self):
        sig = qubit_sig()
        result = prove(sig, [Prop("p")], Name("v0"), Prop("q"))
        assert result.status == "fails"
        assert result.tree is None

    def test_retrieve_axiom_route(self):
        sig = qubit_sig()
        gamma = [At(Name("v0"), Prop("p"))]
        result = prove(sig, gamma, parse_term("h(h(v0))"), Prop("p"))
        assert result.holds
        assert check_proof(sig, result.tree).ok

    def test_guarded_fact_through_elimination(self):
        # [h](p /\ q) holds everywhere, so q holds at h(v0)
        sig = qubit_sig()
        gamma = [parse("[h] (p /\\ q)")]
        result = prove(sig, gamma, parse_term("h(v0)"), Prop("q"))
        assert result.holds
        assert check_proof(sig, result.tree).ok

    def test_store_goal(self):
        sig = qubit_sig()
        gamma = [parse("@(v0) p")]
        result = prove(sig, gamma, Name("v0"), parse("store z . @(z) p"))
        assert result.holds
        assert check_proof(sig, result.tree).ok

    def test_non_clause_input_rejected(self):
        sig = qubit_sig()
        with pytest.raises(ProofError):
            prove(sig, [], Name("v0"), sx.Not(Prop("p")))
        with pytest.raises(ProofError):
            prove(sig, [sx.QNot(Prop("r"))], Name("v0"), Prop("p"))


class TestClosedPropRules:
    def test_empty_clause_set_proves_r_only_at_origin(self):
        sig = qubit_sig()
        assert prove(sig, [], Origin(), Prop("r")).holds
        assert prove(sig, [], TSmul(0j, Name("v0")), Prop("r")).holds
        assert prove(sig, [], Name("v0"), Prop("r")).status == "fails"

    def test_span_of_two_orthogonal_generators(self):
        sig = qubit_sig()
        gamma = [At(Name("v0"), Prop("r")), At(Name("v1"), Prop("r"))]
        # anything in the span, e.g. the diagonal state, is provable
        result = prove(sig, gamma, Name("vp"), Prop("r"))
        assert result.holds
        assert check_proof(sig, result.tree).ok
        rules = {n.rule for n in proof_nodes(result.tree)}
        assert RuleId.SPAN_CLOSURE in rules

    def test_each_fact_of_a_closed_proposition_takes_one_gram_schmidt_step(self, monkeypatch):
        sig = qubit_sig()
        steps, calls = [], []
        step, orthonormalize = hl.gram_schmidt_step, hl.orthonormalize
        monkeypatch.setattr(hl, "gram_schmidt_step",
                            lambda rows, v, tol: steps.append(v) or step(rows, v, tol))
        monkeypatch.setattr(hl, "orthonormalize",
                            lambda *a, **kw: calls.append(a) or orthonormalize(*a, **kw))
        # four classes of r, the last two dependent; v0 + 0*v1 is v0's class
        clauses = ["@(v0) r", "@(vp) r", "@(v1) r", "@(2*v0) r", "@(v0 + 0*v1) r", "@(v1) p"]
        session = ProofSession(sig, [parse(c) for c in clauses])
        assert session.prove(TSum(Name("v1"), Name("vp")), Prop("r")).holds
        session.register_terms([Name("vp"), TApp("h", Name("v1"))])
        assert session.prove(Name("v1"), Prop("r")).holds
        sat = session._prover.saturation(session.gamma)
        facts = [cid for s, cid in sat.facts if s == Prop("r")]
        assert len(facts) == len(steps) == 4 and not calls
        assert all(np.array_equal(v, sat.class_vecs.rows[cid]) for v, cid in zip(steps, facts))
        assert sat.span_of("r")[0].rank == 2

    def test_scaled_and_summed_terms(self):
        sig = qubit_sig()
        gamma = [At(Name("v0"), Prop("r"))]
        scaled = TSmul(3 + 1j, Name("v0"))
        assert prove(sig, gamma, scaled, Prop("r")).holds
        summed = TSum(Name("v0"), TSmul(2 + 0j, Name("v0")))
        result = prove(sig, gamma, summed, Prop("r"))
        assert result.holds
        assert check_proof(sig, result.tree).ok

    def test_outside_the_span_fails(self):
        sig = qubit_sig()
        gamma = [At(Name("v0"), Prop("r"))]
        assert prove(sig, gamma, Name("v1"), Prop("r")).status == "fails"


class TestStarRules:
    def test_star_goal_with_closing_orbit(self):
        sig = qubit_sig()
        gamma = [At(Name("v0"), Prop("p")), At(Name("v1"), Prop("p"))]
        result = prove(sig, gamma, Name("v0"), parse("[x*] p"))
        assert result.holds
        assert check_proof(sig, result.tree).ok
        star = [n for n in proof_nodes(result.tree)
                if n.rule is RuleId.STAR_I_BOUNDED]
        assert len(star) == 1 and star[0].certificate == 1

    def test_star_goal_without_closure_is_unknown(self):
        sig = qubit_sig()
        rot = np.diag([np.exp(0.1j), np.exp(-0.23j)])
        sig.unitaries["g"] = rot
        gamma = [At(Name("v0"), Prop("p"))]
        result = prove(sig, gamma, Name("vp"), parse("[g*] p"),
                       SearchBudget(star=StarBudget(max_iterations=6)))
        assert result.status == "unknown"

    def test_star_in_clause_set(self):
        sig = qubit_sig()
        gamma = [parse("[x*] p")]
        result = prove(sig, gamma, parse_term("x(x(v0))"), Prop("p"))
        assert result.holds
        assert check_proof(sig, result.tree).ok


class TestImplications:
    def test_modus_ponens(self):
        sig = qubit_sig()
        gamma = [parse("p => q"), parse("@(v0) p")]
        result = prove(sig, gamma, Name("v0"), Prop("q"))
        assert result.holds
        assert check_proof(sig, result.tree).ok
        assert prove(sig, gamma, Name("v1"), Prop("q")).status == "fails"

    def test_implication_goal(self):
        sig = qubit_sig()
        result = prove(sig, [], Name("v0"), parse("p => p"))
        assert result.holds
        assert check_proof(sig, result.tree).ok
        assert result.tree.rule is RuleId.IMP

    def test_quantum_modus_ponens(self):
        sig = qubit_sig(closed=("r", "r2"))
        gamma = [QImp(Prop("r"), Prop("r2")), At(Name("v0"), Prop("r"))]
        result = prove(sig, gamma, Name("v0"), Prop("r2"))
        assert result.holds
        assert check_proof(sig, result.tree).ok
        rules = [n.rule for n in proof_nodes(result.tree)]
        assert RuleId.MP_C in rules

    def test_sasaki_goal(self):
        sig = qubit_sig(closed=("r", "r2"))
        result = prove(sig, [], Name("v0"), QImp(Prop("r"), Prop("r")))
        assert result.holds
        assert check_proof(sig, result.tree).ok
        assert result.tree.rule is RuleId.IMP_C

    def test_chained_implications(self):
        sig = qubit_sig()
        gamma = [parse("p => q"), parse("q => r2"), parse("@(v0) p")]
        result = prove(sig, gamma, Name("v0"), Prop("r2"))
        assert result.holds
        assert check_proof(sig, result.tree).ok


class TestKernelRejections:
    def test_conj_e_from_non_conjunction(self):
        sig = qubit_sig()
        gamma = (Prop("p"),)
        premise = ProofTree(Sequent(gamma, Name("v0"), Prop("p")),
                            RuleId.MONOTONICITY)
        bad = ProofTree(Sequent(gamma, Name("v0"), Prop("p")),
                        RuleId.CONJ_E, (premise,))
        res = check_proof(sig, bad)
        assert not res.ok and "ConjE" in res.reason

    def test_eq_with_visible_residual(self):
        sig = qubit_sig()
        gamma = (At(Name("v0"), Prop("p")),)
        base = ProofTree(Sequent(gamma, Name("v0"), At(Name("v0"), Prop("p"))),
                         RuleId.MONOTONICITY)
        at_v0 = ProofTree(Sequent(gamma, Name("v0"), Prop("p")),
                          RuleId.RET_E, (base,))
        bad = ProofTree(Sequent(gamma, TApp("h", Name("v0")), Prop("p")),
                        RuleId.EQ, (at_v0,))
        res = check_proof(sig, bad)
        assert not res.ok
        # |H|0> - |0>| = sqrt(2 - sqrt(2)) ~ 0.765
        assert "7.65" in res.reason or "0.765" in res.reason

    def test_monotonicity_requires_membership(self):
        sig = qubit_sig()
        bad = ProofTree(Sequent((Prop("p"),), Name("v0"), Prop("q")),
                        RuleId.MONOTONICITY)
        assert not check_proof(sig, bad).ok

    def test_mp_side_condition(self):
        # antecedent !p is not basic, so MP must be refused
        sig = qubit_sig()
        bad_imp = Imp(sx.Not(Prop("p")), Prop("q"))
        gamma = (bad_imp, sx.Not(Prop("p")))
        p1 = ProofTree(Sequent(gamma, Name("v0"), bad_imp), RuleId.MONOTONICITY)
        p2 = ProofTree(Sequent(gamma, Name("v0"), sx.Not(Prop("p"))),
                       RuleId.MONOTONICITY)
        bad = ProofTree(Sequent(gamma, Name("v0"), Prop("q")), RuleId.MP, (p1, p2))
        res = check_proof(sig, bad)
        assert not res.ok and "basic" in res.reason

    def test_star_i_needs_enough_premises(self):
        sig = qubit_sig()
        gamma = (Prop("p"),)
        p0 = ProofTree(Sequent(gamma, Name("v0"), Prop("p")), RuleId.MONOTONICITY)
        bad = ProofTree(Sequent(gamma, Name("v0"), parse("[x*] p")),
                        RuleId.STAR_I_BOUNDED, (p0,), certificate=0)
        res = check_proof(sig, bad)
        assert not res.ok and "orbit" in res.reason

    @pytest.mark.parametrize("rule, gamma, k, goal", [
        (RuleId.STAR_I_BOUNDED, [parse("@(v0) p"), parse("@(v1) p")], "v0", "[x*] p"),
        (RuleId.STAR_E, [parse("[x*] p")], "x(x(v0))", "p"),
    ])
    def test_star_certificates_refuse_booleans(self, rule, gamma, k, goal):
        # bool is an int subclass, so True would pass for the certificate 1
        sig = qubit_sig()
        tree = prove(sig, gamma, parse_term(k), parse(goal)).tree
        assert check_proof(sig, tree).ok

        def boolify(t):
            cert = bool(t.certificate) if t.rule is rule else t.certificate
            return ProofTree(t.conclusion, t.rule, tuple(map(boolify, t.premises)), cert)
        res = check_proof(sig, boolify(tree))
        assert not res.ok and rule.value in res.reason

    def test_failure_reports_node_path(self):
        sig = qubit_sig()
        gamma = (Prop("p"), Prop("q"))
        good = ProofTree(Sequent(gamma, Name("v0"), Prop("p")), RuleId.MONOTONICITY)
        bad_leaf = ProofTree(Sequent(gamma, Name("v0"), Prop("r")),
                             RuleId.MONOTONICITY)
        root = ProofTree(Sequent(gamma, Name("v0"), And(Prop("p"), Prop("r"))),
                         RuleId.CONJ_I, (good, bad_leaf))
        res = check_proof(sig, root)
        assert not res.ok and res.path == (1,)

    @pytest.mark.parametrize("case, reason", [
        ("translation", "Translation: conclusion is not the renamed premise"),
        ("origin", "Origin: term does not denote the origin vector"),
        ("star budget", "StarI: successor orbit does not close within budget"),
    ])
    def test_a_bad_root_over_the_rotation_demo_is_rejected_with_its_reason(self, case, reason):
        spec = load_spec(ROTATION)
        sig, v0, v1, r = spec.sig, Name("v0"), Name("v1"), Prop("r")
        budget = StarBudget()
        if case == "translation":
            leaf = ProofTree(Sequent((r,), v0, r), RuleId.MONOTONICITY)
            good = ProofTree(Sequent((r,), v0, r), RuleId.TRANSLATION, (leaf,),
                             sg.identity_morphism(sig))
            tree = ProofTree(Sequent((r,), v1, r), RuleId.TRANSLATION, (leaf,),
                             sg.identity_morphism(sig))
        elif case == "origin":
            good = ProofTree(Sequent((), Origin(), r), RuleId.ORIGIN)
            tree = ProofTree(Sequent((), v0, r), RuleId.ORIGIN)
        else:
            good = tree = ProofSession(sig, spec.axioms).prove(*spec.goals[0]).tree
            budget = StarBudget(1)
        assert check_proof(sig, good).ok
        assert check_proof(sig, tree, budget) == CheckResult(False, (), reason)


class TestNoCut:
    def test_rule_enumeration_has_no_cut(self):
        names = {r.name.lower() for r in RuleId}
        assert not any("cut" in n for n in names)


class TestSoundnessSpotChecks:
    def test_every_proof_true_in_a_satisfying_model(self, teleport):
        sig, axioms, start, goal = teleport
        tree = prove(sig, axioms, start, goal).tree
        targets = tuple(sig.named_vectors[f"t{i}{j}"] for i in (0, 1) for j in (0, 1))
        model = QuantumModel(sig, {"p": FiniteVectors(targets)})
        for gamma_member in axioms:
            assert sm.global_sat(model, gamma_member)
        w = sg.eval_term(sig, start)
        assert sm.sat_at(model, w, goal)
        assert check_proof(sig, tree).ok

    def test_prover_kernel_agreement_on_random_basic_instances(self):
        rng = np.random.default_rng(97)
        sig = qubit_sig()
        hits = 0
        for _ in range(60):
            gamma = [random_basic(rng, 2) for _ in range(int(rng.integers(1, 4)))]
            goal = random_basic(rng, 2)
            k = sx.Name(str(rng.choice(["v0", "v1", "vp"])))
            result = prove(sig, gamma, k, goal)
            assert result.status in ("holds", "fails")
            if result.holds:
                hits += 1
                assert check_proof(sig, result.tree).ok
        assert hits > 5


def random_basic(rng, depth: int) -> sx.Sentence:
    if depth == 0 or rng.random() < 0.4:
        return Prop(str(rng.choice(["p", "q"])))
    c = int(rng.integers(0, 4))
    d = depth - 1
    if c == 0:
        return And(random_basic(rng, d), random_basic(rng, d))
    if c == 1:
        return At(Name(str(rng.choice(["v0", "v1"]))), random_basic(rng, d))
    if c == 2:
        action = sx.ASym(str(rng.choice(["h", "x", "m0"])))
        return Nec(action, random_basic(rng, d))
    return sx.Store(str(rng.choice(["y", "z"])), random_basic(rng, d))


# ----------------------------------------------------------- deep proof walks

def reference_proof_nodes(t):
    yield t
    for p in t.premises:
        yield from reference_proof_nodes(p)


def reference_used_premises(t):
    out = []

    def walk(node, added):
        if node.rule is RuleId.MONOTONICITY:
            goal = node.conclusion.goal
            if goal not in added and goal not in out:
                out.append(goal)
        if node.rule in (RuleId.IMP, RuleId.IMP_C):
            hyp = At(node.conclusion.k, node.conclusion.goal.left)
            for p in node.premises:
                walk(p, added | {hyp})
        else:
            for p in node.premises:
                walk(p, added)

    walk(t, frozenset())
    return tuple(out)


def eq_chain(depth: int) -> ProofTree:
    seq = Sequent((Prop("p"),), Name("v0"), Prop("p"))
    tree = ProofTree(seq, RuleId.MONOTONICITY)
    for _ in range(depth):
        tree = ProofTree(seq, RuleId.EQ, (tree,))
    return tree


class TestProofWalks:
    def test_proof_nodes_on_a_3000_deep_chain(self):
        tree = eq_chain(3000)
        nodes = list(proof_nodes(tree))
        assert len(nodes) == 3001 and nodes[0] is tree
        assert [n.rule for n in nodes] == [RuleId.EQ] * 3000 + [RuleId.MONOTONICITY]

    def test_used_premises_on_a_3000_deep_chain(self):
        assert used_premises(eq_chain(3000)) == (Prop("p"),)

    def test_used_premises_visits_each_node_once_per_clause_set(self):
        # the 61-node DAG of TestProofSize: each node holds its premise twice
        seq = Sequent((Prop("p"),), Name("v0"), Prop("p"))
        tree = ProofTree(seq, RuleId.MONOTONICITY)
        for _ in range(60):
            tree = ProofTree(seq, RuleId.CONJ_I, (tree, tree))
        start = time.perf_counter()
        assert used_premises(tree) == (Prop("p"),)
        assert time.perf_counter() - start < 1

    def test_a_prove_result_reports_its_used_premises(self):
        sig = qubit_sig()
        gamma = [parse("p => q"), parse("p"), parse("@(v1) r")]
        held = prove(sig, gamma, parse_term("v0"), parse("q /\\ p"))
        assert held.holds and held.used_premises == used_premises(held.tree)
        assert set(held.used_premises) == {parse("p => q"), parse("p")}
        failed = prove(sig, gamma, parse_term("v0"), parse("r2"))
        assert failed.tree is None and failed.used_premises == ()

    def test_same_order_as_the_recursive_walks(self, teleport):
        sig, axioms, start, goal = teleport
        trees = [prove(sig, axioms, start, goal).tree]
        qsig = qubit_sig()
        for gamma, k, goal in [
                (["p => q", "p"], "v0", "q /\\ p"),
                (["r", "@(v1) q"], "v0", "(@(v0) p) => (q => r)"),
                (["q"], "v0", "(@(v0) p) => (p /\\ q)"),
                (["@(v0) p", "@(v1) q", "[h ; x] r"], "v0", "[h] [x] r /\\ [h ; x] r")]:
            result = prove(qsig, [parse(c) for c in gamma], parse_term(k), parse(goal))
            assert result.holds, goal
            trees.append(result.tree)
        for tree in trees:
            assert list(proof_nodes(tree)) == list(reference_proof_nodes(tree))
            assert used_premises(tree) == reference_used_premises(tree)


# ------------------------------------------- site registration and the memo

def reference_register_site(sat, term):
    """The walk before pruning: every subterm of every call, via subterms."""
    for sub in sx.subterms(term):
        cid = sat.intern(sub)
        if cid not in sat.sites:
            sat.sites[cid] = None
            for s, builder in list(sat.at_sites.items()):
                sat.queue.append(("inst", s, builder, sat.class_terms[cid]))


def _random_terms(rng, sig, n):
    names = sorted(sig.named_vectors)
    syms = sorted(sig.unitaries) + sorted(sig.measurements)
    terms = []
    for _ in range(n):
        t = random_ground_term(rng, int(rng.integers(0, 6)), names, syms)
        if terms and rng.random() < 0.4:  # share subtrees with earlier terms
            old = terms[int(rng.integers(len(terms)))]
            t = sx.TApp(str(rng.choice(syms)), old) if rng.random() < 0.5 else TSum(old, t)
        terms.append(t)
    return terms


_SITE_CLAUSES = ["[u0] p", "@(w0) p", "@(w0) r0", "[m0] r1", "[u0 ; u1] r2",
                 "@(u1(w0)) [u0] p", "(@(w0) p) => r1", "store y . [u1] @(y) p"]


def _session_run(sig, terms, queries):
    session = ProofSession(sig, [parse(c) for c in _SITE_CLAUSES])
    session.register_terms(terms[: len(terms) // 2])
    results = []
    for k, goal in queries:
        r = session.prove(k, goal)
        text = serialize_trace(session.gamma, r.tree) if r.tree is not None else ""
        results.append((r.status, r.reason, text))
    session.register_terms(terms[len(terms) // 2:])
    return session, results


class TestSitesAndMemo:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pruned_walk_matches_the_subterms_walk(self, seed, monkeypatch):
        rng = np.random.default_rng(300 + seed)
        sig = random_closed_model(2, rng).sig
        terms = _random_terms(rng, sig, 40)
        queries = [(t, Prop(str(rng.choice(["p", "r0", "r1", "r2"])))) for t in terms[::3]]
        with monkeypatch.context() as m:
            m.setattr(calculus._Saturation, "register_site", reference_register_site)
            ref, ref_results = _session_run(sig, terms, queries)
        new, new_results = _session_run(sig, terms, queries)
        assert new_results == ref_results
        assert any(status == "holds" for status, _, _ in new_results)
        ref_sats, new_sats = ref._prover.saturations, new._prover.saturations
        assert list(new_sats) == list(ref_sats)
        for gamma, sat in new_sats.items():
            assert list(sat.sites) == list(ref_sats[gamma].sites)
            assert sat.class_terms == ref_sats[gamma].class_terms
            assert list(sat.facts) == list(ref_sats[gamma].facts)

    def test_memoized_vectors_are_eval_term_bit_for_bit(self):
        rng = np.random.default_rng(310)
        sig = random_closed_model(3, rng).sig
        terms = _random_terms(rng, sig, 60)
        session, _ = _session_run(sig, terms, [(t, Prop("p")) for t in terms[::5]])
        memo = session._prover.vectors
        assert set(terms) <= set(memo)
        assert any(isinstance(t, TApp) and isinstance(t.arg, TApp) for t in memo)
        for t, v in memo.items():
            assert np.array_equal(v, sg.eval_term(sig, t)), sx.format_term(t)
        for t in terms:
            assert np.array_equal(session.vector(t), sg.eval_term(sig, t))


# ------------------------------------------- proof rebuilds on explicit stacks

def _renaming(sig):
    """A copy of sig with every symbol primed, and the morphism onto it."""
    target = sg.SignatureInstance(
        dim=sig.dim,
        unitaries={f"{u}'": m for u, m in sig.unitaries.items()},
        measurements={f"{q}'": s for q, s in sig.measurements.items()},
        named_vectors={f"{v}'": w for v, w in sig.named_vectors.items()},
        props=frozenset(f"{p}'" for p in sig.props),
        closed_props=frozenset(f"{p}'" for p in sig.closed_props))
    return target, sg.Morphism(sig, target,
                               unitaries={u: f"{u}'" for u in sig.unitaries},
                               measurements={q: f"{q}'" for q in sig.measurements},
                               vectors={v: f"{v}'" for v in sig.named_vectors},
                               props={p: f"{p}'" for p in sig.props})


def _rows(tree):
    return [(n.rule, n.conclusion, n.certificate, len(n.premises)) for n in proof_nodes(tree)]


def _sample_proofs(teleport):
    sig, axioms, start, goal = teleport
    proofs = [(sig, prove(sig, axioms, start, goal).tree)]
    qsig = qubit_sig()
    for gamma, k, goal in [
            (["p => q", "p"], "v0", "q /\\ p"),
            (["r", "@(v1) q"], "v0", "(@(v0) p) => (q => r)"),
            (["q", "r2"], "v0", "(@(v0) p) => (p /\\ q)"),
            (["@(v0) p", "@(v1) q", "[h ; x] r"], "v0", "[h] [x] r /\\ [h ; x] r")]:
        result = prove(qsig, [parse(c) for c in gamma], parse_term(k), parse(goal))
        assert result.holds, goal
        proofs.append((qsig, result.tree))
    return proofs


class TestProofRebuilds:
    def test_rename_proof_on_a_3000_deep_chain(self):
        target, chi = _renaming(qubit_sig())
        renamed = calculus.rename_proof(chi, eq_chain(3000))
        nodes = list(proof_nodes(renamed))
        assert [n.rule for n in nodes] == [RuleId.EQ] * 3000 + [RuleId.MONOTONICITY]
        assert {n.conclusion for n in nodes} == {
            Sequent((Prop("p'"),), Name("v0'"), Prop("p'"))}

    def test_restrict_premises_on_a_3000_deep_chain(self):
        again = restrict_premises(eq_chain(3000), [Prop("p"), Prop("q")])
        nodes = list(proof_nodes(again))
        assert [n.rule for n in nodes] == [RuleId.EQ] * 3000 + [RuleId.MONOTONICITY]
        assert {n.conclusion.gamma for n in nodes} == {(Prop("p"), Prop("q"))}

    def test_same_trees_as_the_recursive_versions(self, teleport):
        import reference_traversals as ref
        proofs = _sample_proofs(teleport)
        assert any(n.rule is RuleId.IMP for _, t in proofs for n in proof_nodes(t))
        for sig, tree in proofs:
            _, chi = _renaming(sig)
            assert _rows(calculus.rename_proof(chi, tree)) == _rows(ref.rename_proof(chi, tree))
            assert _rows(sg.apply_morphism(chi, tree)) == _rows(ref.rename_proof(chi, tree))
            used = used_premises(tree)
            again = restrict_premises(tree, used)
            assert _rows(again) == _rows(ref.restrict_premises(tree, used))
            assert check_proof(sig, again).ok

    def test_imp_node_whose_goal_is_no_implication(self):
        # such a node discharges nothing, so its premise keeps the clause set;
        # the recursive version added @(k) left for any goal with a left side.
        # The kernel rejects the node either way.
        import reference_traversals as ref
        k, p = Name("v0"), Prop("p")
        leaf = ProofTree(Sequent((p,), k, p), RuleId.MONOTONICITY)
        for goal in (And(p, Prop("q")), sx.OPlus(p, Prop("q"))):
            tree = ProofTree(Sequent((p,), k, goal), RuleId.IMP, (leaf,))
            assert calculus.premise_hypotheses(RuleId.IMP, tree.conclusion) == ()
            assert used_premises(tree) == (p,)
            again = restrict_premises(tree, [p])
            assert [n.conclusion.gamma for n in proof_nodes(again)] == [(p,), (p,)]
            old = ref.restrict_premises(tree, [p])
            assert [n.conclusion.gamma for n in proof_nodes(old)] == [(p,), (p, At(k, p))]
            assert not check_proof(qubit_sig(), tree).ok

    def test_rename_proof_validates_the_morphism_once(self, teleport, monkeypatch):
        sig, tree = _sample_proofs(teleport)[0]
        _, chi = _renaming(sig)
        calls = []
        validate = sg.Morphism.validate
        monkeypatch.setattr(sg.Morphism, "validate",
                            lambda self: calls.append(1) or validate(self))
        calculus.rename_proof(chi, tree)
        assert len(calls) == 1


# ------------------------------------------------ the compound-sentence rules

TABLE_RULES = (RuleId.RET_I, RuleId.RET_E, RuleId.STORE_I, RuleId.STORE_E,
               RuleId.CONJ_I, RuleId.CONJ_E, RuleId.FT_I, RuleId.FT_E,
               RuleId.COMP_I, RuleId.COMP_E, RuleId.UNION_I, RuleId.UNION_E)
# CompE proves [a;b] c from [a][b] c; CompI is its elimination
INTRODUCTIONS = {RuleId.RET_I, RuleId.STORE_I, RuleId.CONJ_I, RuleId.FT_I,
                 RuleId.COMP_E, RuleId.UNION_I}


def _mutant_sources():
    """(signature, prover proof) pairs: the teleport demo, [x*]-style stars,
    implications and random clause sets over random actions (``gen.py``)."""
    from conftest import make_teleport_signature
    sig, axioms, start, goal = make_teleport_signature(0.6, 0.8)
    yield sig, prove(sig, axioms, start, goal).tree
    qsig = qubit_sig()
    for gamma, k, goal in [(["[x*] p"], "x(x(v0))", "p"),
                           (["@(v0) p", "@(v1) p"], "v0", "[x*] p"),
                           (["[(x | h)*] (p /\\ q)"], "h(x(v0))", "q"),
                           (["@(v0) [(x ; h)*] p"], "h(x(h(x(v0))))", "p"),
                           (["@(v0) p", "@(v1) p"], "v0", "[(x ; x)*] (p /\\ [x] p)"),
                           # premises under an implication have a larger clause set
                           (["r", "@(v1) q"], "v0", "(@(v0) p) => (q => r)"),
                           (["@(v1) [x] q"], "v0", "(@(v0) [h ; x] p) => (@(v1) [x] q /\\ [h] [x] p)")]:
        result = prove(qsig, [parse(c) for c in gamma], parse_term(k), parse(goal))
        assert result.holds, goal
        yield qsig, result.tree
    rng = np.random.default_rng(8)
    syms, found = ["h", "x", "m0"], 0
    while found < 40:
        gamma = [At(Name(str(rng.choice(["v0", "v1"]))),
                    Nec(random_unitary_action(rng, 2, syms, allow_star=False),
                        random_basic(rng, 1)))
                 for _ in range(int(rng.integers(1, 3)))]
        gamma += [random_basic(rng, 2) for _ in range(int(rng.integers(0, 3)))]
        if rng.random() < 0.5:  # a clause at its anchor: deep decomposition
            c = gamma[int(rng.integers(len(gamma)))]
            k, goal = (c.term, c.body) if isinstance(c, At) else (Name("v0"), c)
        else:
            k, goal = random_ground_term(rng, 2, ["v0", "v1"], syms), random_basic(rng, 2)
        result = prove(qsig, gamma, k, goal)
        if result.holds and result.tree.premises:
            found += 1
            yield qsig, result.tree


def _with_paths(tree):
    out, stack = [], [(tree, ())]
    while stack:
        node, path = stack.pop()
        out.append((node, path))
        stack += [(p, path + (i,)) for i, p in reversed(list(enumerate(node.premises)))]
    return out


def _replaced(tree, path, node):
    if not path:
        return node
    premises = list(tree.premises)
    premises[path[0]] = _replaced(premises[path[0]], path[1:], node)
    return ProofTree(tree.conclusion, tree.rule, tuple(premises), tree.certificate)


def _mutants(tree, rng, n):
    """(mutant, its mutated node) n times: one node's rule is swapped, its
    goal or term is another node's, or a premise is dropped or added."""
    nodes, rules = _with_paths(tree), list(RuleId)
    for _ in range(n):
        node, path = nodes[int(rng.integers(len(nodes)))]
        other = nodes[int(rng.integers(len(nodes)))][0]
        c, prem, cert = node.conclusion, node.premises, node.certificate
        kind = int(rng.integers(5))
        if kind == 0:
            new = ProofTree(c, rules[int(rng.integers(len(rules)))], prem, cert)
        elif kind == 1:
            new = ProofTree(Sequent(c.gamma, c.k, other.conclusion.goal), node.rule, prem, cert)
        elif kind == 2:
            new = ProofTree(Sequent(c.gamma, other.conclusion.k, c.goal), node.rule, prem, cert)
        elif kind == 3 and prem:
            i = int(rng.integers(len(prem)))
            new = ProofTree(c, node.rule, prem[:i] + prem[i + 1:], cert)
        else:
            i = int(rng.integers(len(prem) + 1))
            new = ProofTree(c, node.rule, prem[:i] + (other,) + prem[i:], cert)
        yield _replaced(tree, path, new), new


def _sequent(k, goal, gamma):
    return Sequent(gamma, parse_term(k), parse(goal))


# rule -> (its node's conclusion, its premises' conclusions), as (term, sentence)
# text; then the same node with one component wrong
_GOOD_AND_WRONG = {
    RuleId.RET_I: ((("v0", "@(v1) p"), [("v1", "p")]),
                   (("v0", "@(v1) p"), [("v0", "p")])),
    RuleId.RET_E: ((("v1", "p"), [("v0", "@(v1) p")]),
                   (("v1", "q"), [("v0", "@(v1) p")])),
    RuleId.STORE_I: ((("v0", "store y . @(y) p"), [("v0", "@(v0) p")]),
                     (("v0", "store y . @(y) p"), [("v0", "@(v1) p")])),
    RuleId.STORE_E: ((("v0", "@(v0) p"), [("v0", "store y . @(y) p")]),
                     (("v1", "@(v0) p"), [("v0", "store y . @(y) p")])),
    RuleId.CONJ_I: ((("v0", "p /\\ q"), [("v0", "p"), ("v0", "q")]),
                    (("v0", "p /\\ q"), [("v0", "q"), ("v0", "p")])),
    RuleId.CONJ_E: ((("v0", "q"), [("v0", "p /\\ q")]),
                    (("v0", "r"), [("v0", "p /\\ q")])),
    RuleId.FT_I: ((("v0", "[x] p"), [("x(v0)", "p")]),
                  (("v0", "[x] p"), [("h(v0)", "p")])),
    RuleId.FT_E: ((("x(v0)", "p"), [("v0", "[x] p")]),
                  (("v0", "p"), [("v0", "[x] p")])),
    RuleId.COMP_I: ((("v0", "[x] [h] p"), [("v0", "[x ; h] p")]),
                    (("v0", "[h] [x] p"), [("v0", "[x ; h] p")])),
    RuleId.COMP_E: ((("v0", "[x ; h] p"), [("v0", "[x] [h] p")]),
                    (("v0", "[x ; h] p"), [("v0", "[h] [x] p")])),
    RuleId.UNION_I: ((("v0", "[x | h] p"), [("v0", "[x] p"), ("v0", "[h] p")]),
                     (("v0", "[x | h] p"), [("v0", "[h] p"), ("v0", "[x] p")])),
    RuleId.UNION_E: ((("v0", "[h] p"), [("v0", "[x | h] p")]),
                     (("v0", "[x ; h] p"), [("v0", "[x | h] p")])),
}


def _node(rule, conclusion, premises, gamma, premise_gamma=None):
    leaves = tuple(ProofTree(_sequent(*p, premise_gamma or gamma), RuleId.MONOTONICITY)
                   for p in premises)
    return ProofTree(_sequent(*conclusion, gamma), rule, leaves)


class TestRuleTable:
    def test_same_verdicts_as_the_hand_written_branches(self):
        import reference_kernel as ref
        rng = np.random.default_rng(2024)
        accepted, rejected, count = set(), set(), 0
        for sig, tree in _mutant_sources():
            assert check_proof(sig, tree).ok
            for mutant, node in _mutants(tree, rng, 70):
                new = check_proof(sig, mutant)
                with pytest.MonkeyPatch.context() as m:  # the same walk, the old branches
                    m.setattr(calculus, "_check_node", ref._check_node)
                    old = check_proof(sig, mutant)
                assert (new.ok, new.path) == (old.ok, old.path), (new, old)
                count += 1
                if new.ok:
                    accepted.add(node.rule)
                else:
                    rejected.add(dict((p, n) for n, p in _with_paths(mutant))[new.path].rule)
        assert count >= 3000
        assert accepted >= set(TABLE_RULES) and rejected >= set(TABLE_RULES)

    @pytest.mark.parametrize("rule", TABLE_RULES, ids=lambda r: r.value)
    def test_wrong_shape_component_or_context_is_rejected(self, rule):
        sig = qubit_sig()
        good, wrong = _GOOD_AND_WRONG[rule]
        gamma = tuple(parse(s) for _, s in good[1])  # the premises are members
        assert check_proof(sig, _node(rule, *good, gamma)).ok
        (k, goal), premises = good
        if rule in INTRODUCTIONS:
            shape = ((k, "p"), premises)  # an introduction of a proposition
        else:
            shape = ((k, goal), [(premises[0][0], "p")])  # eliminating one
        for conclusion, premises in (shape, wrong):
            res = check_proof(sig, _node(rule, conclusion, premises, gamma))
            assert not res.ok and res.path == () and rule.value in res.reason
        # the good node, with its premises over another clause set
        res = check_proof(sig, _node(rule, *good, gamma, gamma + (Prop("r2"),)))
        assert not res.ok and res.path == () and rule.value in res.reason

    @pytest.mark.parametrize("rule, conclusion, premise", [
        (RuleId.FT_I, ("v0", "[y] p"), ("y(v0)", "p")),
        (RuleId.FT_E, ("y(v0)", "p"), ("v0", "[y] p"))])
    def test_unknown_operation_symbol_is_rejected(self, rule, conclusion, premise):
        gamma = (parse(premise[1]),)
        res = check_proof(qubit_sig(), _node(rule, conclusion, [premise], gamma))
        assert not res.ok and res.path == ()
        assert res.reason == f"{rule.value}: unknown operation symbol 'y'"


MULTIPLICAND = "premise does not match the multiplicand"
SUMMANDS = "premises do not match the summands"


class TestSharedConditions:
    def test_same_verdicts_and_reasons_as_the_per_branch_kernel(self):
        import reference_kernel as ref
        rng = np.random.default_rng(2026)
        rejected, count = set(), 0
        for sig, tree in _mutant_sources():
            for mutant, _ in _mutants(tree, rng, 70):
                new = check_proof(sig, mutant)
                with pytest.MonkeyPatch.context() as m:  # the same walk, a count per branch
                    m.setattr(calculus, "_check_node", ref._check_node_by_branch)
                    old = check_proof(sig, mutant)
                assert new == old  # ok, path and reason
                count += 1
                if not new.ok:
                    rejected.add(dict((p, n) for n, p in _with_paths(mutant))[new.path].rule)
        assert count >= 3000
        assert rejected == set(RuleId)

    # the mutant corpus seldom reaches a Mult or Add node's own branch
    @pytest.mark.parametrize("rule, conclusion, premises, other_context, reason", [
        (RuleId.MULT, ("2*v0", "r"), [("v0", "r")], False, None),
        (RuleId.MULT, ("v0", "r"), [("v0", "r")], False, "conclusion term is not a scalar multiple"),
        (RuleId.MULT, ("2*v0", "r"), [("v1", "r")], False, MULTIPLICAND),
        (RuleId.MULT, ("2*v0", "r"), [("v0", "r2")], False, MULTIPLICAND),
        (RuleId.MULT, ("2*v0", "r"), [("v0", "r")], True, MULTIPLICAND),
        (RuleId.MULT, ("2*v0", "p"), [("v0", "r")], False, "goal must be a closed proposition"),
        (RuleId.MULT, ("2*v0", "r"), [("v0", "r")] * 2, False, "expects 1 premises, got 2"),
        (RuleId.ADD, ("v0 + v1", "r"), [("v0", "r"), ("v1", "r")], False, None),
        (RuleId.ADD, ("2*v0", "r"), [("v0", "r"), ("v1", "r")], False, "conclusion term is not a sum"),
        (RuleId.ADD, ("v0 + v1", "r"), [("v1", "r"), ("v0", "r")], False, SUMMANDS),
        (RuleId.ADD, ("v0 + v1", "r"), [("v0", "r"), ("v1", "r2")], False, SUMMANDS),
        (RuleId.ADD, ("v0 + v1", "r"), [("v0", "r"), ("v1", "r")], True, SUMMANDS),
        (RuleId.ADD, ("v0 + v1", "q"), [("v0", "r"), ("v1", "r")], False,
         "goal must be a closed proposition"),
        (RuleId.ADD, ("v0 + v1", "r"), [("v0", "r")], False, "expects 2 premises, got 1")])
    def test_mult_and_add_reasons_match_the_per_branch_kernel(self, rule, conclusion, premises,
                                                              other_context, reason):
        import reference_kernel as ref
        sig, gamma = qubit_sig(closed=("r", "r2")), (Prop("r"), Prop("r2"))
        node = _node(rule, conclusion, premises, gamma,
                     gamma + (Prop("p"),) if other_context else None)
        res = check_proof(sig, node)
        assert res == (CheckResult(True) if reason is None
                       else CheckResult(False, (), f"{rule.value}: {reason}"))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(calculus, "_check_node", ref._check_node_by_branch)
            assert check_proof(sig, node) == res


# ------------------------------------------------------------ shared subproofs

def rotation_sig(closed=("r",)):
    """The qubit rotation by 45 degrees, of order 8, with two states spanning
    the plane (as in demos/rotation.hdql)."""
    c = 1 / np.sqrt(2)
    return sg.SignatureInstance(
        dim=2, unitaries={"g": np.array([[c, -c], [c, c]], dtype=complex)},
        measurements={},
        named_vectors={"v0": hl.vector([0.6, 0.8]), "v1": hl.vector([0.8, -0.6])},
        props=frozenset({"q", "r"}), closed_props=frozenset(closed))


def _rotation_proof():
    """[g*] r at v0 from r at v0 and at v1: eight SpanClosures of r."""
    sig = rotation_sig()
    result = prove(sig, [parse("@(v0) r"), parse("@(v1) r")], Name("v0"), parse("[g*] r"))
    assert result.holds and result.tree.certificate == 7
    return sig, result.tree


def _span_closures(tree):
    return [n for n in proof_nodes(tree) if n.rule is RuleId.SPAN_CLOSURE]


def _unshared(t):
    """A copy of the proof in which no node object occurs twice."""
    return ProofTree(t.conclusion, t.rule, tuple(map(_unshared, t.premises)), t.certificate)


def _replaced_everywhere(tree, old, new):
    """The proof with the node object old replaced by new at each of its
    places; every other node object is rebuilt once, so sharing is kept."""
    built = {old: new}

    def rebuild(node):
        if node not in built:
            premises = tuple(map(rebuild, node.premises))
            built[node] = ProofTree(node.conclusion, node.rule, premises, node.certificate)
        return built[node]
    return rebuild(tree)


def _both_kernels(sig, tree):
    """(ok, path) of the kernel and of the reference kernel's node checks."""
    import reference_kernel as ref
    new = check_proof(sig, tree)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(calculus, "_check_node", ref._check_node)
        old = check_proof(sig, tree)
    return (new.ok, new.path), (old.ok, old.path)


class TestSharedSubproofs:
    def test_every_span_closure_shares_one_premise_family(self):
        sig, tree = _rotation_proof()
        closures = _span_closures(tree)
        assert len(closures) == 8 and len(closures[0].premises) == 2
        assert all(n.premises is closures[0].premises for n in closures)
        assert check_proof(sig, tree).ok

    def test_a_fact_that_enlarges_the_span_gets_a_new_family(self):
        sig = rotation_sig()
        session = ProofSession(sig, [parse("@(v0) r"), parse("@(v1) q"),
                                     parse("(@(v1) q) => (@(v1) r)")])
        first = session.prove(Name("v0"), Prop("r")).tree
        assert first.rule is RuleId.SPAN_CLOSURE and len(first.premises) == 1
        session.register_terms([])  # fires the implication: r holds at v1 too
        second = session.prove(Name("v0"), parse("[g*] r")).tree
        closures = _span_closures(second)
        assert len(closures) == 8 and len(closures[0].premises) == 2
        assert all(n.premises is closures[0].premises for n in closures)
        assert check_proof(sig, first).ok and check_proof(sig, second).ok

    def test_the_kernel_checks_each_node_object_once(self, monkeypatch):
        sig, tree = _rotation_proof()
        checked = []
        check_node = calculus._check_node
        monkeypatch.setattr(calculus, "_check_node", lambda sig, t, budget, path, spans:
                            checked.append(t) or check_node(sig, t, budget, path, spans))
        assert check_proof(sig, tree).ok
        distinct = set(proof_nodes(tree))
        assert len(checked) == len(set(checked)) == len(distinct)
        assert len(distinct) < sum(1 for _ in proof_nodes(tree))

    def test_a_corrupted_shared_node_is_rejected_at_its_first_place(self):
        sig, tree = _rotation_proof()
        family = _span_closures(tree)[0].premises
        bad = ProofTree(family[1].conclusion, RuleId.MONOTONICITY)  # r is no member
        mutant = _replaced_everywhere(tree, family[1], bad)
        places = [path for node, path in _with_paths(mutant) if node is bad]
        assert len(places) == 8
        res = check_proof(sig, mutant)
        assert not res.ok and res.path == places[0]
        assert res.reason == "Monotonicity: goal is not a member of the clause set"
        new, old = _both_kernels(sig, mutant)
        assert new == old
        assert check_proof(sig, _unshared(mutant)) == res

    def test_shared_node_mutants_get_the_verdicts_of_the_tree(self):
        rng = np.random.default_rng(2025)
        sig, tree = _rotation_proof()
        nodes = [n for n, _ in _with_paths(tree)]
        shared = [n for n in set(nodes) if nodes.count(n) > 1]
        assert len(shared) == 6  # the two rows of the family, down to the leaves
        verdicts = []
        for node in sorted(shared, key=lambda n: nodes.index(n)):
            for sub, _ in _mutants(node, rng, 20):
                mutant = _replaced_everywhere(tree, node, sub)
                new, old = _both_kernels(sig, mutant)
                plain = check_proof(sig, _unshared(mutant))
                assert new == old == (plain.ok, plain.path)
                verdicts.append(new[0])
        assert True in verdicts and False in verdicts

    def test_rebuilds_and_traces_are_those_of_the_tree(self):
        sig, tree = _rotation_proof()
        plain = _unshared(tree)
        target, chi = _renaming(sig)
        used = used_premises(tree)
        assert used == used_premises(plain) and set(used) == set(tree.conclusion.gamma)
        pairs = [(tree, plain),
                 (calculus.rename_proof(chi, tree), calculus.rename_proof(chi, plain)),
                 (restrict_premises(tree, used), restrict_premises(plain, used))]
        for shared, copy in pairs:
            assert _rows(shared) == _rows(copy)
            g = shared.conclusion.gamma
            assert serialize_trace(g, shared) == serialize_trace(g, copy)
            assert trace_to_json(g, shared) == trace_to_json(g, copy)
        for rebuilt, _ in pairs[1:]:  # a rebuild is a tree again
            assert len(set(proof_nodes(rebuilt))) == sum(1 for _ in proof_nodes(rebuilt))
        assert check_proof(target, pairs[1][0]).ok and check_proof(sig, pairs[2][0]).ok

    def test_a_subtree_under_a_translation_is_checked_in_each_signature(self, monkeypatch):
        # r is closed in the target only: the origin node holds there alone
        source, target = rotation_sig(closed=()), rotation_sig()
        chi = sg.Morphism(source, target, unitaries={"g": "g"},
                          vectors={"v0": "v0", "v1": "v1"}, props={"q": "q", "r": "r"})
        origin = ProofTree(Sequent((), Origin(), Prop("r")), RuleId.ORIGIN)
        moved = ProofTree(origin.conclusion, RuleId.TRANSLATION, (origin,), chi)
        tree = ProofTree(Sequent((), Origin(), parse("r /\\ r")), RuleId.CONJ_I,
                         (origin, moved))
        checked = []
        check_node = calculus._check_node
        monkeypatch.setattr(calculus, "_check_node", lambda sig, t, budget, path, spans:
                            checked.append((sig, t)) or check_node(sig, t, budget, path, spans))
        res = check_proof(target, tree)
        assert checked == [(target, tree), (target, origin), (target, moved), (source, origin)]
        assert not res.ok and res.path == (1, 0)
        assert res.reason == "Origin: goal must be a closed proposition"

    def test_a_premise_span_is_remembered_per_signature_and_family(self):
        # v0 and v1 are orthonormal within the loose tolerance only
        def sig(tol):
            return sg.SignatureInstance(
                dim=2, unitaries={}, measurements={},
                named_vectors={"v0": K0, "v1": hl.vector([1e-5, 1]) / np.hypot(1e-5, 1)},
                props=frozenset({"r"}), closed_props=frozenset({"r"}), tol=tol)
        loose, tight = sig(1e-3), sig(1e-9)
        chi = sg.Morphism(tight, loose, vectors={"v0": "v0", "v1": "v1"}, props={"r": "r"})
        gamma = (Prop("r"),)
        family = tuple(ProofTree(Sequent(gamma, Name(v), Prop("r")), RuleId.MONOTONICITY)
                       for v in ("v0", "v1"))
        here, there = (ProofTree(Sequent(gamma, Name("v0"), Prop("r")), RuleId.SPAN_CLOSURE,
                                 family) for _ in range(2))
        moved = ProofTree(there.conclusion, RuleId.TRANSLATION, (there,), chi)
        tree = ProofTree(Sequent(gamma, Name("v0"), parse("r /\\ r")), RuleId.CONJ_I,
                         (here, moved))
        res = check_proof(loose, tree)
        assert not res.ok and res.path == (1, 0)
        assert res.reason == "SpanClosure: premise family is not orthonormal"
        assert check_proof(loose, ProofTree(tree.conclusion, RuleId.CONJ_I, (here, here))).ok
        # v0 lies in the span of the first family, not in that of the second
        other = ProofTree(here.conclusion, RuleId.SPAN_CLOSURE, family[1:])
        res = check_proof(loose, ProofTree(tree.conclusion, RuleId.CONJ_I, (here, other)))
        assert not res.ok and res.path == (1,)
        assert res.reason == "SpanClosure: conclusion vector lies outside the span"


class TestTranslationFrame:
    def test_a_frame_changed_within_numpy_closeness_is_not_a_morphism(self):
        # g and a rotation 5e-6 further differ by 3.5e-6 an entry, far above
        # tol = 1e-9, yet within numpy's default relative closeness
        def sig(theta):
            g = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
                         dtype=complex)
            return sg.SignatureInstance(
                dim=2, unitaries={"g": g}, measurements={},
                named_vectors={"v0": hl.vector([0.6, 0.8])},
                props=frozenset({"p"}), closed_props=frozenset(), tol=1e-9)
        source, target = sig(np.pi / 4), sig(np.pi / 4 + 5e-6)
        k, gamma = Name("v0"), [parse("@(v0) p")]
        for _ in range(8):
            k = TApp("g", k)
        proof = prove(source, gamma, k, Prop("p"))
        assert proof.holds and not prove(target, gamma, k, Prop("p")).holds
        chi = sg.Morphism(source, target, unitaries={"g": "g"}, vectors={"v0": "v0"},
                          props={"p": "p"})
        with pytest.raises(MorphismError, match="frame data changed for unitary 'g'"):
            chi.validate()
        res = check_proof(target, ProofTree(proof.tree.conclusion, RuleId.TRANSLATION,
                                            (proof.tree,), chi))
        assert not res.ok and res.reason == "Translation: frame data changed for unitary 'g'"


# ------------------------------------------------------- the budget per query

TELEPORT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos",
                        "teleport.hdql")


class TestBudgetPerQuery:
    def test_every_query_and_registration_gets_the_whole_budget(self):
        spec = load_spec(TELEPORT)
        k, goal = spec.goals[0]
        session = ProofSession(spec.sig, spec.axioms, SearchBudget(max_nodes=400))
        for i in range(40):  # one budget for the session ran out at the ninth query
            session.register_terms([TApp("u0", k)])
            result = session.prove(k, goal)
            assert result.holds, (i, result.reason)
            assert session._prover.counter.left > 0

    def test_a_registration_after_a_query_gets_the_whole_budget(self):
        # u is of infinite order, so every application of it is a new site
        sig = sg.SignatureInstance(
            dim=2, unitaries={"u": hl.random_unitary(2, np.random.default_rng(7))},
            measurements={}, named_vectors={"v0": hl.vector([0.6, 0.8])},
            props=frozenset({"q"}), closed_props=frozenset())
        session = ProofSession(sig, [parse("@(v0) q")], SearchBudget(max_nodes=100))
        k = Name("v0")
        for _ in range(5):
            for _ in range(60):
                k = TApp("u", k)
            assert session.prove(k, Prop("q")).status == "fails"  # 60 new sites
            for _ in range(60):
                k = TApp("u", k)
            session.register_terms([k])  # 60 more, from the whole budget again
        assert len(session._prover.saturation(session.gamma).sites) == 601

    def test_a_session_that_ran_out_answers_unknown_never_fails(self):
        # running out mid-unrolling of [g*] r at v0 loses the unrollings not
        # yet made for good: the implication has fired there, and is not fired again
        sig, gamma = rotation_sig(closed=()), [parse("@(v0) q"), parse("q => [g*] r")]
        k, fifth = parse_term("g(g(g(g(g(v0)))))"), parse("[g ; g ; g ; g ; g] r")
        fresh = ProofSession(sig, gamma)
        assert fresh.prove(Name("v0"), Prop("r")).holds
        needed = fresh.budget.max_nodes - fresh._prover.counter.left
        assert fresh.prove(k, Prop("r")).holds
        lost = 0
        for n in range(1, needed):
            session = ProofSession(sig, gamma, SearchBudget(max_nodes=n))
            first = session.prove(Name("v0"), Prop("r"))
            assert first.status == "unknown" and session._prover.counter.exhausted
            sat = session._prover.saturations.get(session.gamma)
            if sat is not None and sat.fired and (fifth, sat.intern(Name("v0"))) not in sat.facts:
                second = session.prove(k, Prop("r"))  # derivable, yet no longer found
                assert second.status == "unknown", second.reason
                lost += second.reason == "the node budget ran out earlier in this session"
            else:
                assert session.prove(k, Prop("r")).status != "fails"
        assert lost >= 10


# ------------------------------------------------------------ deep terms

class TestDeepTerms:
    @pytest.mark.parametrize("call", ["vector", "register_terms", "prove"])
    def test_a_session_evaluates_a_3000_deep_term_without_recursing(self, call):
        spec = load_spec(TELEPORT)
        k = Name("w0")
        for _ in range(3000):  # hashed one level at a time, as the first hash recurses
            k = TApp("u0", k)
            hash(k)
        session = ProofSession(spec.sig, spec.axioms)
        if call == "vector":  # u0 is an involution
            assert np.allclose(session.vector(k), spec.sig.named_vectors["w0"])
        elif call == "register_terms":
            session.register_terms([k])
            assert session.intern(k) == session.intern(Name("w0"))
        else:
            assert session.prove(k, parse("[u1] p")).status == "fails"


class TestProofSize:
    # sizes are compared as plain ints: a failing assert would print the trees
    def test_counts_every_place_of_a_shared_subproof(self):
        _, tree = _rotation_proof()
        size, places = calculus.proof_size(tree), sum(1 for _ in proof_nodes(tree))
        distinct, unshared = len(set(proof_nodes(tree))), calculus.proof_size(_unshared(tree))
        assert size == places == unshared > distinct

    def test_on_a_3000_deep_chain(self):
        size = calculus.proof_size(eq_chain(3000))
        assert size == 3001

    def test_visits_each_distinct_node_once(self):
        # a chain of n nodes each with its premise twice: 2^n places, n + 1 nodes
        seq = Sequent((Prop("p"),), Name("v0"), Prop("p"))
        tree = ProofTree(seq, RuleId.MONOTONICITY)
        for _ in range(60):
            tree = ProofTree(seq, RuleId.CONJ_I, (tree, tree))
        size = calculus.proof_size(tree)
        assert size == 2 ** 61 - 1


class TestProofRepr:
    @staticmethod
    def entries(text):
        assert text.startswith("ProofTree(#0 ") and text.endswith(")")
        return text[len("ProofTree("):-1].split("; ")

    def test_a_shared_subproof_is_printed_once(self):
        # the 61-node DAG of TestProofSize: 2^61 - 1 places, 61 entries; first a
        # 13-node one, whose 8,191 places a repr printing every place can still print
        seq = Sequent((Prop("p"),), Name("v0"), Prop("p"))
        for levels in (12, 60):
            tree = ProofTree(seq, RuleId.MONOTONICITY)
            for _ in range(levels):
                tree = ProofTree(seq, RuleId.CONJ_I, (tree, tree))
            start = time.perf_counter()
            entries = self.entries(repr(tree))
            assert time.perf_counter() - start < 1
            assert len(entries) == levels + 1
            assert entries[0] == f"#0 ConjI {seq!r} certificate=None premises=(#1, #1)"
            assert entries[-1] == f"#{levels} Monotonicity {seq!r} certificate=None premises=()"

    def test_on_a_3000_deep_chain(self):
        entries = self.entries(repr(eq_chain(3000)))
        assert len(entries) == 3001
        assert entries[2999].startswith("#2999 EQ ") and entries[2999].endswith("=(#3000)")

    def test_premises_refer_back_to_their_first_place(self):
        _, tree = _rotation_proof()
        entries = self.entries(repr(tree))
        assert len(entries) == len(set(proof_nodes(tree))) == 1 + 8 + 6
        assert entries[0].endswith("premises=(#1, #8, #9, #10, #11, #12, #13, #14)")
        assert all(e.endswith("premises=(#2, #5)") for e in entries[8:15])
