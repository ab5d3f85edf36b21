"""Signature validation, term evaluation, diagram equality, morphisms."""

import numpy as np
import pytest

from hdql import hilbert as hl
from hdql import signature as sg
from hdql import syntax as sx
from hdql.errors import HdqlError, MorphismError, SymbolError
from hdql.syntax import Name, Nec, Prop, TApp, parse_term


def small_sig(**kw):
    defaults = dict(
        dim=2,
        unitaries={"h": hl.H, "x": hl.X},
        measurements={"m0": hl.orthonormalize([hl.basis_state(2, 0)])},
        named_vectors={"v0": hl.basis_state(2, 0), "v1": hl.basis_state(2, 1)},
        props=frozenset({"p", "r"}),
        closed_props=frozenset({"r"}),
    )
    defaults.update(kw)
    return sg.SignatureInstance(**defaults)


class TestEvalTerm:
    def test_origin(self):
        assert np.allclose(sg.eval_term(small_sig(), parse_term("0")), 0)

    def test_gate_chain_matches_matrix_product(self, teleport):
        sig, _, _, _ = teleport
        sig = sg.SignatureInstance(
            dim=8, unitaries=sig.unitaries, measurements={},
            named_vectors={"w0": hl.ket("000")},
            props=frozenset(), closed_props=frozenset())
        got = sg.eval_term(sig, parse_term("u1(u0(w0))"))
        want = sig.unitaries["u1"] @ (sig.unitaries["u0"] @ hl.ket("000"))
        assert np.allclose(got, want)
        assert np.allclose(got, (hl.ket("000") + hl.ket("100")) / np.sqrt(2))

    def test_linear_combination(self):
        got = sg.eval_term(small_sig(), parse_term("2*v0 + v1"))
        assert np.allclose(got, [2, 1])

    def test_free_variable_rejected(self):
        with pytest.raises(SymbolError):
            sg.eval_term(small_sig(), sx.Var("z"))

    def test_unknown_symbol_rejected(self):
        with pytest.raises(SymbolError):
            sg.eval_term(small_sig(), TApp("nope", Name("v0")))



class TestEvalMemo:
    def test_same_states_as_eval_term_with_every_application_memoized(self):
        from gen import random_ground_term
        rng = np.random.default_rng(31)
        sig, memo = small_sig(), {}
        for _ in range(200):
            k = random_ground_term(rng, int(rng.integers(1, 7)), ["v0", "v1"], ["h", "x", "m0"])
            assert np.array_equal(sg.eval_memo(sig, k, memo), sg.eval_term(sig, k))
            chain = k
            while isinstance(chain, TApp):
                assert np.array_equal(memo[chain], sg.eval_term(sig, chain))
                chain = chain.arg
            assert chain in memo

    def test_a_memoized_state_is_used_as_it_is(self):
        sig, inner = small_sig(), parse_term("x(v0)")
        memo = {inner: np.array([0, 1j])}
        assert np.array_equal(sg.eval_memo(sig, TApp("x", inner), memo), [1j, 0])

    @pytest.mark.parametrize("k", [TApp("nope", TApp("x", sx.Var("z"))),
                                   TApp("nope", TApp("x", Name("v0"))),
                                   TApp("x", TApp("nope", Name("w9")))])
    def test_errors_come_innermost_first_as_from_eval_term(self, k):
        with pytest.raises(SymbolError) as want:
            sg.eval_term(small_sig(), k)
        with pytest.raises(SymbolError) as got:
            sg.eval_memo(small_sig(), k, {})
        assert str(got.value) == str(want.value)

class TestDiagramEq:
    def test_zero_is_neutral(self):
        sig = small_sig()
        assert sg.diagram_eq(sig, parse_term("0 + v0"), parse_term("v0"))

    def test_hadamard_is_an_involution(self):
        sig = small_sig()
        assert sg.diagram_eq(sig, parse_term("h(h(v0))"), parse_term("v0"))
        assert not sg.diagram_eq(sig, parse_term("h(v0)"), parse_term("v0"))

    def test_teleportation_branches(self, teleport):
        sig, _, _, _ = teleport
        for i in (0, 1):
            for j in (0, 1):
                chain = parse_term(f"d{i}(s{j}(q{i}{j}(u1(u0(w0)))))")
                assert sg.diagram_eq(sig, chain, parse_term(f"t{i}{j}"))

    def test_equivalence_relation(self):
        sig = small_sig()
        terms = [parse_term(t) for t in
                 ["v0", "0 + v0", "h(h(v0))", "v1", "x(v0)", "h(v0)"]]
        for k in terms:
            assert sg.diagram_eq(sig, k, k)
        for k1 in terms:
            for k2 in terms:
                assert sg.diagram_eq(sig, k1, k2) == sg.diagram_eq(sig, k2, k1)
                for k3 in terms:
                    if sg.diagram_eq(sig, k1, k2) and sg.diagram_eq(sig, k2, k3):
                        assert sg.diagram_residual(sig, k1, k3) <= 2 * sig.tol


class TestValidate:
    def test_teleport_signature_is_clean(self, teleport):
        sig, _, _, _ = teleport
        assert sg.validate(sig) == []

    def test_non_unitary_residual(self):
        sig = small_sig(unitaries={"bad": np.diag([1.0, 2.0]).astype(complex)})
        problems = sg.validate(sig)
        assert len(problems) == 1
        assert problems[0].symbol == "bad"
        assert problems[0].residual == pytest.approx(3.0)

    def test_non_orthonormal_measurement_basis(self):
        dup = hl.Subspace(2, np.array([[1, 0], [1, 0]], dtype=complex))
        problems = sg.validate(small_sig(measurements={"m0": dup}))
        assert any(v.check == "basis not orthonormal" for v in problems)

    def test_undeclared_closed_prop(self):
        problems = sg.validate(small_sig(closed_props=frozenset({"ghost"})))
        assert any(v.symbol == "ghost" for v in problems)


class TestMorphism:
    def test_identity_is_a_noop(self):
        sig = small_sig()
        chi = sg.identity_morphism(sig)
        s = sx.parse("[h] p /\\ @(v0) r")
        assert sg.apply_morphism(chi, s) == s

    def test_rename(self):
        sig = small_sig()
        target = sg.SignatureInstance(
            dim=2,
            unitaries={"g0": hl.H, "x": hl.X},
            measurements=dict(sig.measurements),
            named_vectors=dict(sig.named_vectors),
            props=frozenset({"p'", "r"}),
            closed_props=frozenset({"r"}))
        chi = sg.Morphism(sig, target, unitaries={"h": "g0", "x": "x"},
                          measurements={"m0": "m0"},
                          vectors={"v0": "v0", "v1": "v1"},
                          props={"p": "p'", "r": "r"})
        assert sg.apply_morphism(chi, Nec(sx.ASym("h"), Prop("p"))) == \
            Nec(sx.ASym("g0"), Prop("p'"))

    def test_non_injective_rejected(self):
        sig = small_sig()
        chi = sg.Morphism(sig, sig, props={"p": "r", "r": "r"})
        with pytest.raises(MorphismError):
            sg.apply_morphism(chi, Prop("p"))

    def test_frame_change_rejected(self):
        sig = small_sig()
        target = small_sig(unitaries={"h": hl.X, "x": hl.X})
        chi = sg.Morphism(sig, target, unitaries={"h": "h"})
        with pytest.raises(MorphismError):
            chi.validate()

    def test_eval_commutes_with_frame_preserving_renaming(self):
        sig = small_sig()
        target = sg.SignatureInstance(
            dim=2, unitaries={"h2": hl.H, "x2": hl.X},
            measurements={"n0": sig.measurements["m0"]},
            named_vectors={"y0": sig.named_vectors["v0"],
                           "y1": sig.named_vectors["v1"]},
            props=sig.props, closed_props=sig.closed_props)
        chi = sg.Morphism(sig, target, unitaries={"h": "h2", "x": "x2"},
                          measurements={"m0": "n0"},
                          vectors={"v0": "y0", "v1": "y1"},
                          props={p: p for p in sig.props})
        for text in ["h(v0)", "m0(h(v0))", "2*v0 + x(v1)", "0"]:
            k = parse_term(text)
            got = sg.eval_term(target, sg.apply_morphism(chi, k))
            assert np.allclose(got, sg.eval_term(sig, k))


class TestOutOfRange:
    def test_a_gate_or_basis_with_non_finite_entries_is_a_violation(self):
        # their residuals read nan, which no comparison with the tolerance passes
        gate = np.array([[np.inf, 0], [0, 1]], dtype=complex)
        basis = hl.Subspace(2, np.array([[np.nan, 0]], dtype=complex))
        with np.errstate(invalid="ignore"):
            got = sg.validate(small_sig(unitaries={"g": gate}, measurements={"m": basis}))
        assert [(v.symbol, v.check) for v in got] == [
            ("g", "not unitary on max-norm check"), ("m", "basis not orthonormal")]

    def test_a_gate_whose_products_cancel_to_nan_is_not_unitary(self):
        gate = np.array([[1e200, 1e200], [1e200, -1e200]], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            [v] = sg.validate(small_sig(unitaries={"g": gate}))
        assert v.check == "not unitary on max-norm check"

    def test_a_named_vector_whose_norm_overflows_is_a_violation(self):
        got = sg.validate(small_sig(named_vectors={"v0": np.array([1e200, 0], dtype=complex),
                                                   "v1": np.array([np.nan, 0], dtype=complex)}))
        assert [(v.symbol, v.check) for v in got] == [
            ("v0", "named vector has non-finite entries or norm"),
            ("v1", "named vector has non-finite entries or norm")]

    @pytest.mark.parametrize("text", ["1e200*v1", "1e154*v0 + 1e154*v1", "vec(1e200, 0)",
                                      "h(1e200*v0)", "0*(1e200*v0)"])
    def test_a_state_whose_norm_overflows_is_refused(self, text):
        with pytest.raises(HdqlError, match="norm overflows"):
            sg.eval_term(small_sig(), parse_term(text))

    def test_a_norm_just_below_the_overflow_evaluates(self):
        v = sg.eval_term(small_sig(), parse_term("1e153*v0 + 1e153*v1"))
        assert np.isfinite(hl.norm(v))
