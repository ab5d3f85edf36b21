"""Initial-model construction, three-valued queries, minimality."""

import numpy as np
import pytest
import reference_initial_model as ref

from hdql import hilbert as hl
from hdql import signature as sg
from hdql import syntax as sx
from hdql.errors import PreconditionFailure
from hdql.initial_model import build_initial, check_minimality, holds
from hdql.semantics import FiniteVectors, QuantumModel, sat_at
from hdql.signature import eval_term
from hdql.syntax import At, Name, Origin, Prop, parse, parse_term

K0, K1 = hl.basis_state(2, 0), hl.basis_state(2, 1)


def qubit_sig():
    return sg.SignatureInstance(
        dim=2,
        unitaries={"h": hl.H, "x": hl.X},
        measurements={"m0": hl.orthonormalize([K0])},
        named_vectors={"v0": K0, "v1": K1},
        props=frozenset({"p", "r"}),
        closed_props=frozenset({"r"}))


class TestTeleportInitialModel:
    def test_p_region_is_exactly_the_four_outcomes(self, teleport):
        sig, axioms, start, _ = teleport
        im = build_initial(sig, axioms, depth=6)
        assert not im.truncated
        region = im.model.valuation["p"]
        assert isinstance(region, FiniteVectors)
        targets = [sig.named_vectors[f"t{i}{j}"] for i in (0, 1) for j in (0, 1)]
        assert len(region.vectors) == 4
        for t in targets:
            assert any(hl.norm(t - v) < 1e-9 for v in region.vectors)

    def test_holds_along_the_protocol(self, teleport):
        sig, axioms, _, _ = teleport
        im = build_initial(sig, axioms, depth=5)
        for i in (0, 1):
            for j in (0, 1):
                chain = parse_term(f"d{i}(s{j}(q{i}{j}(u1(u0(w0)))))")
                assert holds(im, "p", chain) == "holds"
        assert holds(im, "p", Name("w0")) == "fails"


class TestClosedRegions:
    def test_empty_clause_set_gives_zero_span(self):
        im = build_initial(qubit_sig(), [], depth=2)
        region = im.model.valuation["r"]
        assert region.rank == 0
        assert holds(im, "r", Origin()) == "holds"
        assert holds(im, "r", Name("v0")) == "fails"

    def test_two_orthogonal_generators_span_the_plane(self):
        sig = qubit_sig()
        gamma = [At(Name("v0"), Prop("r")), At(Name("v1"), Prop("r"))]
        im = build_initial(sig, gamma, depth=2)
        region = im.model.valuation["r"]
        assert region.rank == 2
        mixed = parse_term("0.25*v0 + 3*v1")
        assert holds(im, "r", mixed) == "holds"


class TestSatisfiability:
    def test_initial_model_satisfies_its_clauses(self):
        rng = np.random.default_rng(83)
        sig = qubit_sig()
        for _ in range(25):
            gamma = [random_basic_clause(rng) for _ in range(int(rng.integers(1, 4)))]
            im = build_initial(sig, gamma, depth=3)
            for clause in gamma:
                for t in im.term_universe:
                    w = eval_term(sig, t)
                    assert sat_at(im.model, w, clause), \
                        (sx.format_sentence(clause), sx.format_term(t))


class TestMinimality:
    def test_the_initial_model_itself_passes(self, teleport):
        sig, axioms, start, _ = teleport
        im = build_initial(sig, axioms, depth=4)
        samples = [Name(f"t{i}{j}") for i in (0, 1) for j in (0, 1)] + [Name("w0")]
        assert check_minimality(im, im.model, samples)

    def test_a_larger_model_passes(self, teleport):
        sig, axioms, _, _ = teleport
        im = build_initial(sig, axioms, depth=4)
        bigger = QuantumModel(sig, {"p": FiniteVectors(
            tuple(im.model.valuation["p"].vectors)
            + (sig.named_vectors["w0"],))})
        samples = [Name(f"t{i}{j}") for i in (0, 1) for j in (0, 1)]
        assert check_minimality(im, bigger, samples)

    def test_missing_outcome_is_a_precondition_failure(self, teleport):
        sig, axioms, _, _ = teleport
        im = build_initial(sig, axioms, depth=4)
        smaller = QuantumModel(sig, {"p": FiniteVectors(
            tuple(im.model.valuation["p"].vectors[:3]))})
        samples = [Name(f"t{i}{j}") for i in (0, 1) for j in (0, 1)]
        with pytest.raises(PreconditionFailure):
            check_minimality(im, smaller, samples)


def random_basic_clause(rng) -> sx.Sentence:
    """Shallow basic sentences anchored at named states."""
    base = Prop(str(rng.choice(["p", "r"])))
    name = Name(str(rng.choice(["v0", "v1"])))
    shape = int(rng.integers(0, 4))
    if shape == 0:
        return At(name, base)
    if shape == 1:
        return At(name, sx.Nec(sx.ASym(str(rng.choice(["h", "x", "m0"]))), base))
    if shape == 2:
        return sx.Nec(sx.ASym(str(rng.choice(["h", "x"]))), base)
    return At(name, sx.And(base, Prop("p")))


# every clause shape the regions are read from: anchored facts, unanchored
# plain and closed propositions, necessities, implications, star and store;
# the last four let a probed site x(k) enable a fire tried at k
CLAUSES = ["@(v0) p", "@(v1) q", "@(v1) r", "@(v0) [u] q", "@(v1) [m0] r",
           "@(u(v0)) (p /\\ q)", "p", "r", "[h] p", "(@(v0) q) => [x] r",
           "q => [x] p", "@(v1) [x*] q", "store z . @(z) [h] q",
           "@(v0) [u][u][u] w", "(q /\\ w) => p", "([x] s) => t",
           "(r /\\ q) => p"]


def random_qubit_sig(rng):
    return sg.SignatureInstance(
        dim=2,
        unitaries={"h": hl.H, "x": hl.X, "u": hl.random_unitary(2, rng)},
        measurements={"m0": hl.orthonormalize([K0])},
        named_vectors={"v0": K0, "v1": hl.random_state(2, rng)},
        props=frozenset({"p", "q", "r", "s", "t", "w"}),
        closed_props=frozenset({"r"}))


def same_region(got, want, tol) -> bool:
    if isinstance(want, FiniteVectors):
        return len(got.vectors) == len(want.vectors) and all(
            any(hl.vec_eq(g, w, tol) for w in want.vectors) for g in got.vectors)
    return np.allclose(hl.projector(got), hl.projector(want), rtol=0, atol=1e-9)


class TestRegionsFromFacts:
    """Regions read off the session's facts equal those of one proof query
    per proposition and universe term (tests/reference_initial_model.py)."""

    def test_matches_the_query_loop_on_a_seeded_corpus(self):
        rng = np.random.default_rng(2031)
        for n in range(60):
            sig = random_qubit_sig(rng)
            # every shape twice in the corpus, then random subsets
            picks = [CLAUSES[n % len(CLAUSES)]] if n < 2 * len(CLAUSES) else []
            picks += list(rng.choice(CLAUSES, size=int(rng.integers(1, 4)),
                                     replace=False))
            gamma = [parse(c) for c in picks]
            im = build_initial(sig, gamma, depth=3)
            want = ref.build_initial(sig, gamma, depth=3)
            assert im.term_universe == want.term_universe, picks
            assert im.truncated == want.truncated
            for p in sorted(sig.props):
                assert same_region(im.model.valuation[p], want.model.valuation[p],
                                   sig.tol), (picks, p)
                for t in im.term_universe:
                    status = holds(im, p, t)
                    assert status == ref.holds(want, p, t), (picks, p, sx.format_term(t))
                    # the region is what the prover finds, term by term
                    assert (status == "holds") == sat_at(
                        im.model, eval_term(sig, t), Prop(p)), (picks, p, sx.format_term(t))

    @pytest.mark.parametrize("clauses, depth, k", [
        # (q /\ w) => p fails at u(u(u(v0))); proving [x] s there probes
        # x(u(u(u(v0)))), where [x] q adds q back at u(u(u(v0)))
        (["@(v0) [u][u][u] w", "[x] q", "(q /\\ w) => p", "([x] s) => t"], 3,
         "u(u(u(v0)))"),
        # (r /\ q) => p fails at v0; proving [x] s there probes x(v0), where
        # [h] r grows the span of the closed r to the whole plane
        (["@(v0) q", "(r /\\ q) => p", "[h] r", "([x] s) => t"], 0, "v0"),
    ])
    def test_a_probed_site_can_enable_a_fire_tried_before(self, clauses, depth, k):
        sig = random_qubit_sig(np.random.default_rng(7))
        gamma = [parse(c) for c in clauses]
        im = build_initial(sig, gamma, depth=depth)
        w = eval_term(sig, parse_term(k))
        assert any(hl.vec_eq(v, w, sig.tol) for v in im.model.valuation["p"].vectors)
        assert holds(im, "p", parse_term(k)) == "holds"
        want = ref.build_initial(sig, gamma, depth=depth)
        for p in sorted(sig.props):
            assert same_region(im.model.valuation[p], want.model.valuation[p],
                               sig.tol), p

    def test_unanchored_proposition_holds_at_every_universe_class(self):
        sig = random_qubit_sig(np.random.default_rng(5))
        # the anchor seeds the universe; without it the universe is the origin
        im = build_initial(sig, [parse("p"), parse("r"), parse("@(v1) q")], depth=3)
        region = im.model.valuation["p"]
        assert len(region.vectors) == len(im.term_universe)
        for t in im.term_universe:
            w = eval_term(sig, t)
            assert any(hl.vec_eq(v, w, sig.tol) for v in region.vectors)
        assert im.model.valuation["r"].rank == sig.dim
