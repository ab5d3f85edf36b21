"""Successor computation, pointwise satisfaction, closed extensions."""

import numpy as np
import pytest

from gen import random_closed_model, random_closed_sentence, sample_states

from hdql import hilbert as hl
from hdql import semantics as sm
from hdql import signature as sg
from hdql import syntax as sx
from hdql.errors import BudgetExceeded, SemanticsError
from hdql.semantics import FiniteVectors, QuantumModel, StarBudget
from hdql.syntax import ASym, AStar, AUnion, Nec, Prop, QImp, QNot, parse


def qubit_model(p_vectors=(), r_space=None):
    sig = sg.SignatureInstance(
        dim=2,
        unitaries={"h": hl.H, "x": hl.X, "z": hl.Z},
        measurements={"m0": hl.orthonormalize([hl.basis_state(2, 0)])},
        named_vectors={"v0": hl.basis_state(2, 0), "v1": hl.basis_state(2, 1)},
        props=frozenset({"p", "r"}),
        closed_props=frozenset({"r"}))
    valuation = {"p": FiniteVectors(tuple(p_vectors))}
    if r_space is not None:
        valuation["r"] = r_space
    return QuantumModel(sig, valuation)


K0, K1 = hl.basis_state(2, 0), hl.basis_state(2, 1)


class TestSuccessors:
    def test_single_unitary_step(self, teleport):
        sig, _, _, _ = teleport
        model = QuantumModel(sig, {})
        w = sig.named_vectors["w0"]
        out = sm.successors(model, ASym("u0"), w)
        assert len(out.vectors) == 1
        assert np.allclose(out.vectors[0], sig.unitaries["u0"] @ w)

    def test_union_has_one_successor_per_branch(self):
        model = qubit_model()
        out = sm.successors(model, AUnion(ASym("h"), ASym("m0")), K0)
        assert len(out.vectors) == 2 and out.complete

    def test_star_orbit_closes(self):
        model = qubit_model()
        out = sm.successors(model, AStar(ASym("x")), K0)
        assert out.complete
        assert len(out.vectors) == 2  # {|0>, |1>}

    def test_generic_star_orbit_reports_truncation(self):
        model = qubit_model()
        rot = hl.operator([[np.exp(0.1j), 0], [0, np.exp(-0.23j)]])
        model.sig.unitaries["g"] = rot
        out = sm.successors(model, AStar(ASym("g")), (K0 + K1) / np.sqrt(2),
                            StarBudget(max_iterations=8))
        assert not out.complete


class TestSatAt:
    def test_finite_region_membership(self, teleport):
        sig, _, _, _ = teleport
        targets = tuple(sig.named_vectors[f"t{i}{j}"] for i in (0, 1) for j in (0, 1))
        model = QuantumModel(sig, {"p": FiniteVectors(targets)})
        assert sm.sat_at(model, targets[2], Prop("p"))
        assert not sm.sat_at(model, sig.named_vectors["w0"], Prop("p"))

    def test_retrieve_is_state_independent(self):
        model = qubit_model(p_vectors=(K0,))
        s = parse("@(v0) p")
        assert sm.sat_at(model, K0, s) == sm.sat_at(model, K1, s)

    def test_quantum_negation_of_closed_prop(self):
        model = qubit_model(r_space=hl.orthonormalize([K0]))
        assert sm.sat_at(model, K1, QNot(Prop("r")))
        assert not sm.sat_at(model, K0, QNot(Prop("r")))

    def test_quantum_negation_of_nonclosed_rejected(self):
        model = qubit_model(p_vectors=(K0,))
        with pytest.raises(SemanticsError):
            sm.sat_at(model, K0, QNot(Prop("p")))

    def test_store_and_here(self):
        model = qubit_model()
        assert sm.sat_at(model, K0, parse("store z . here(z)"))
        assert sm.sat_at(model, K0, parse("store z . [x] !here(z)"))

    def test_nec_over_measurement(self):
        model = qubit_model(p_vectors=(K0,))
        assert sm.sat_at(model, (K0 + K1) / np.sqrt(2), parse("[m0] p"))

    def test_star_budget_exhaustion_raises(self):
        model = qubit_model(p_vectors=(K0,))
        rot = hl.operator([[np.exp(0.1j), 0], [0, np.exp(-0.23j)]])
        model.sig.unitaries["g"] = rot
        # p holds nowhere near the orbit start, so the first counterexample
        # answers False; flip the valuation to force exhaustion instead
        full = QuantumModel(model.sig, {"p": FiniteVectors(tuple())})
        with pytest.raises(BudgetExceeded):
            sm.sat_at(full, K0, parse("[g*] !p"), StarBudget(max_iterations=6))

    def test_until_through_desugaring(self):
        # under action x, the state flips between |0> and |1>
        model = qubit_model(p_vectors=(K1,))
        s = sx.UntilS(ASym("x"), Prop("p"), Prop("p"))
        assert sm.sat_at(model, K0, s)


class TestClosedExtension:
    def test_base_and_negation(self):
        model = qubit_model(r_space=hl.orthonormalize([K0]))
        ext = sm.closed_extension(model, Prop("r"))
        assert np.allclose(hl.projector(ext), hl.projector(hl.orthonormalize([K0])))
        neg = sm.closed_extension(model, QNot(Prop("r")))
        assert np.allclose(hl.projector(neg), hl.projector(hl.orthonormalize([K1])))

    def test_star_gfp_one_iteration(self):
        model = qubit_model(r_space=hl.orthonormalize([K0]))
        ext = sm.closed_extension(model, Nec(AStar(ASym("x")), Prop("r")))
        assert ext.rank == 0

    def test_unitary_preimage(self):
        model = qubit_model(r_space=hl.orthonormalize([K0]))
        ext = sm.closed_extension(model, Nec(ASym("h"), Prop("r")))
        # [h] r holds where H w is in span|0>, i.e. on span of H|0>
        want = hl.orthonormalize([hl.H @ K0])
        assert np.allclose(hl.projector(ext), hl.projector(want))

    def test_measurement_inside_closed_sentence_rejected(self):
        model = qubit_model(r_space=hl.orthonormalize([K0]))
        with pytest.raises(SemanticsError):
            sm.closed_extension(model, Nec(ASym("m0"), Prop("r")))

    def test_nonclosed_input_rejected(self):
        with pytest.raises(SemanticsError):
            sm.closed_extension(qubit_model(), Prop("p"))


class TestGlobalSat:
    def test_full_rank_extension(self):
        model = qubit_model(r_space=hl.full_space(2))
        assert sm.global_sat(model, Prop("r"))
        model2 = qubit_model(r_space=hl.orthonormalize([K0]))
        assert not sm.global_sat(model2, Prop("r"))

    def test_sasaki_iff_inclusion(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            model = random_closed_model(4, rng)
            r1, r2 = Prop("r0"), Prop("r1")
            e1 = sm.closed_extension(model, r1)
            e2 = sm.closed_extension(model, r2)
            included = hl.intersect(e1, e2).rank == e1.rank and all(
                hl.member(e2, b) for b in e1.basis)
            assert sm.global_sat(model, QImp(r1, r2)) == included

    def test_retrieve_goal(self):
        model = qubit_model(p_vectors=(K0,))
        assert sm.global_sat(model, parse("@(v0) p"))
        assert not sm.global_sat(model, parse("@(v1) p"))

    def test_undecidable_shape_rejected(self):
        with pytest.raises(SemanticsError):
            sm.global_sat(qubit_model(), Prop("p"))

    def test_conjunction_of_anchored_clauses_splits(self):
        model = qubit_model(p_vectors=(K0,))
        assert sm.global_sat(model, parse("@(v0) p /\\ @(x(v1)) p"))
        assert not sm.global_sat(model, parse("@(v0) p /\\ @(v1) p"))


class TestClosedAgreement:
    """Pointwise satisfaction of closed sentences matches their extension."""

    def test_agreement_on_random_instances(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            model = random_closed_model(4, rng)
            rho = random_closed_sentence(rng, int(rng.integers(0, 5)),
                                         ["r0", "r1", "r2"], ["u0", "u1"])
            ext = sm.closed_extension(model, rho)
            for w in sample_states(model, ext, 10, rng):
                assert sm.sat_at(model, w, rho) == hl.member(ext, w, 1e-7)

    def test_zero_vector_satisfies_every_closed_sentence(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            model = random_closed_model(3, rng)
            rho = random_closed_sentence(rng, 3, ["r0", "r1", "r2"], ["u0", "u1"])
            assert sm.sat_at(model, np.zeros(3, dtype=complex), rho)

    def test_scalar_and_additive_closure(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            model = random_closed_model(4, rng)
            rho = random_closed_sentence(rng, 3, ["r0", "r1", "r2"], ["u0", "u1"])
            ext = sm.closed_extension(model, rho)
            if ext.rank == 0:
                continue
            w1, w2 = sample_states(model, ext, 2, rng)[1], sample_states(model, ext, 2, rng)[1]
            a = complex(rng.standard_normal(), rng.standard_normal())
            if sm.sat_at(model, w1, rho):
                assert sm.sat_at(model, a * w1, rho)
                if sm.sat_at(model, w2, rho):
                    assert sm.sat_at(model, w1 + w2, rho)

    def test_quantum_disjunction_spans_direct_sum(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            model = random_closed_model(4, rng)
            r1, r2 = Prop("r0"), Prop("r1")
            ext = sm.closed_extension(model, sx.OPlus(r1, r2))
            want = hl.direct_sum(sm.closed_extension(model, r1),
                                 sm.closed_extension(model, r2))
            assert np.max(np.abs(hl.projector(ext) - hl.projector(want))) < 1e-8


class TestSasakiHookProperties:
    def test_intersection_containment(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            model = random_closed_model(4, rng)
            r1 = random_closed_sentence(rng, 2, ["r0", "r1"], ["u0"])
            r2 = random_closed_sentence(rng, 2, ["r1", "r2"], ["u1"])
            e1 = sm.closed_extension(model, r1)
            hook = sm.closed_extension(model, QImp(r1, r2))
            e2 = sm.closed_extension(model, r2)
            meet = hl.intersect(e1, hook)
            for b in meet.basis:
                assert hl.member(e2, b, 1e-7)


class TestStarFixpoint:
    def test_stabilizes_within_dim_plus_one(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            dim = int(rng.integers(4, 9))
            sig = sg.SignatureInstance(
                dim=dim, unitaries={"u": hl.random_unitary(dim, rng)},
                measurements={}, named_vectors={}, props=frozenset(),
                closed_props=frozenset())
            start = hl.random_subspace(dim, rng)
            _, steps = sm.star_fixpoint(sig, ASym("u"), start)
            assert steps <= dim + 1


class TestReduct:
    def test_identity(self):
        model = qubit_model(p_vectors=(K0,), r_space=hl.orthonormalize([K0]))
        chi = sg.identity_morphism(model.sig)
        back = sm.reduct(model, chi)
        assert sm.sat_at(back, K0, Prop("p"))

    def test_prop_pullback(self):
        model = qubit_model(p_vectors=(K1,))
        source = sg.SignatureInstance(
            dim=2, unitaries=dict(model.sig.unitaries),
            measurements=dict(model.sig.measurements),
            named_vectors=dict(model.sig.named_vectors),
            props=frozenset({"q"}), closed_props=frozenset())
        chi = sg.Morphism(source, model.sig,
                          unitaries={u: u for u in source.unitaries},
                          measurements={m: m for m in source.measurements},
                          vectors={v: v for v in source.named_vectors},
                          props={"q": "p"})
        back = sm.reduct(model, chi)
        assert sm.sat_at(back, K1, Prop("q"))
        assert not sm.sat_at(back, K0, Prop("q"))

    def test_local_satisfaction_condition(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            model = random_closed_model(3, rng)
            source = sg.SignatureInstance(
                dim=3, unitaries={"a0": model.sig.unitaries["u0"]},
                measurements={"n0": model.sig.measurements["m0"]},
                named_vectors={"x0": model.sig.named_vectors["w0"]},
                props=frozenset({"s0", "s1"}), closed_props=frozenset({"s0"}))
            chi = sg.Morphism(source, model.sig, unitaries={"a0": "u0"},
                              measurements={"n0": "m0"}, vectors={"x0": "w0"},
                              props={"s0": "r0", "s1": "p"})
            gamma = random_closed_sentence(rng, 2, ["s0"], ["a0"])
            w = hl.random_state(3, rng)
            lhs = sm.sat_at(model, w, sg.apply_morphism(chi, gamma))
            rhs = sm.sat_at(sm.reduct(model, chi), w, gamma)
            assert lhs == rhs
