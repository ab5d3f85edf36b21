"""One stopping rule for every star orbit: the prover's StarI, the
saturation's StarE unrolling, the kernel and the evaluator all stop an
orbit at the first round with no fresh state or with an incomplete inner
step, comparing states at the signature's tolerance."""

import time

import numpy as np
import pytest

from hdql import hilbert as hl
from hdql import semantics as sm
from hdql import signature as sg
from hdql import syntax as sx
from hdql.calculus import check_proof, prove
from hdql.errors import BudgetExceeded
from hdql.initial_model import build_initial
from hdql.signature import eval_term
from hdql.syntax import AComp, ASym, AStar, AUnion, And, At, Name, Nec, Prop, Store

TOL = 1e-9


def _same(a, b) -> bool:
    return np.linalg.norm(a - b) <= TOL * max(1.0, np.linalg.norm(b))


def bf_successors(sig, action, w):
    """Brute-force action successors, star included, written independently
    of the package: a star lists its orbit, explored until no state is new."""
    if isinstance(action, ASym):
        if action.name in sig.unitaries:
            return [sig.unitaries[action.name] @ w]
        sub = sig.measurements[action.name]
        p = sub.basis.T @ (sub.basis.conj() @ w) if sub.rank else np.zeros_like(w)
        n = np.linalg.norm(p)
        return [p / n if n > 1e-9 else np.zeros_like(w)]
    if isinstance(action, AComp):
        return [z for v in bf_successors(sig, action.left, w)
                for z in bf_successors(sig, action.right, v)]
    if isinstance(action, AUnion):
        return bf_successors(sig, action.left, w) + bf_successors(sig, action.right, w)
    if isinstance(action, AStar):
        seen, frontier = [w], [w]
        for _ in range(1000):
            fresh = []
            for v in frontier:
                for z in bf_successors(sig, action.body, v):
                    if not any(_same(z, s) for s in seen):
                        seen.append(z)
                        fresh.append(z)
            if not fresh:
                return seen
            frontier = fresh
        raise AssertionError("brute-force orbit did not close")
    raise AssertionError(f"not an action: {action!r}")


def bf_sat(sig, regions, w, s) -> bool:
    """Brute-force satisfaction for basic sentences over finite regions."""
    if isinstance(s, Prop):
        return any(_same(w, v) for v in regions[s.name])
    if isinstance(s, And):
        return bf_sat(sig, regions, w, s.left) and bf_sat(sig, regions, w, s.right)
    if isinstance(s, At):
        return bf_sat(sig, regions, eval_term(sig, s.term), s.body)
    if isinstance(s, Nec):
        return all(bf_sat(sig, regions, v, s.body)
                   for v in bf_successors(sig, s.action, w))
    if isinstance(s, Store):
        lit = sx.VecLit(tuple(complex(c) for c in w))
        return bf_sat(sig, regions, w, sx.substitute(s.body, s.var, lit))
    raise AssertionError(f"not basic: {s!r}")


def random_action(rng, depth: int):
    """A star-free action over h, x and the measurement m."""
    if depth == 0 or rng.random() < 0.55:
        return ASym(str(rng.choice(["h", "x", "m"])))
    make = AComp if rng.random() < 0.5 else AUnion
    return make(random_action(rng, depth - 1), random_action(rng, depth - 1))


def random_sentence(rng, depth: int):
    """A basic sentence whose necessities are [a] b or [a*] b."""
    if depth == 0 or rng.random() < 0.3:
        return Prop(str(rng.choice(["p", "q"])))
    c = int(rng.integers(0, 4))
    d = depth - 1
    if c == 0:
        return And(random_sentence(rng, d), random_sentence(rng, d))
    if c == 1:
        return At(Name(str(rng.choice(["v0", "v1"]))), random_sentence(rng, d))
    if c == 2:
        a = random_action(rng, int(rng.integers(0, 3)))
        return Nec(AStar(a) if rng.random() < 0.6 else a, random_sentence(rng, d))
    return Store(str(rng.choice(["y", "z"])), random_sentence(rng, d))


def test_star_clauses_agree_with_brute_force_in_the_initial_model():
    """Anchored qubit clause sets with [a*] b bodies: every query is decided,
    and as the initial model says. The measurement projects on |0>, so every
    orbit over h, x and m is finite and closes."""
    rng = np.random.default_rng(4242)
    checked = holds_seen = fails_seen = star_clause_sets = 0
    while checked < 400:
        theta = rng.uniform(0, 2 * np.pi)
        sig = sg.SignatureInstance(
            dim=2, unitaries={"h": hl.H, "x": hl.X},
            measurements={"m": hl.orthonormalize([hl.basis_state(2, 0)])},
            named_vectors={"v0": hl.basis_state(2, 0),
                           "v1": hl.vector([np.cos(theta), np.sin(theta)])},
            props=frozenset({"p", "q"}), closed_props=frozenset())
        gamma = [At(Name(str(rng.choice(["v0", "v1"]))),
                    random_sentence(rng, int(rng.integers(1, 4))))
                 for _ in range(int(rng.integers(1, 5)))]
        if not any(isinstance(n, AStar) for c in gamma for n in sx.walk(c)):
            continue
        star_clause_sets += 1
        im = build_initial(sig, gamma, depth=3)
        regions = {p: list(im.model.valuation[p].vectors) for p in ("p", "q")}
        for _ in range(5):
            if rng.random() < 0.25:
                clause = gamma[int(rng.integers(0, len(gamma)))]
                goal, k = clause.body, clause.term
            else:
                goal = random_sentence(rng, int(rng.integers(0, 3)))
                k = im.term_universe[int(rng.integers(0, len(im.term_universe)))]
            result = im.session.prove(k, goal)
            where = (sx.format_sentence(goal), sx.format_term(k),
                     [sx.format_sentence(c) for c in gamma])
            assert result.status != "unknown", (result.reason, where)
            truth = bf_sat(sig, regions, eval_term(sig, k), goal)
            assert (result.status == "holds") == truth, where
            if result.holds:
                assert check_proof(sig, result.tree).ok, where
                holds_seen += 1
            else:
                fails_seen += 1
            checked += 1
    assert star_clause_sets >= 50 and holds_seen >= 50 and fails_seen >= 50


def test_nested_star_without_inner_closure_stops_at_once():
    """The inner orbit of (g*)* never closes, so the outer orbit stops at
    its first round instead of exploring every state within the budget."""
    g = np.diag([np.exp(0.1j), np.exp(-0.23j)])
    sig = sg.SignatureInstance(dim=2, unitaries={"g": g}, measurements={},
                               named_vectors={}, props=frozenset({"p"}),
                               closed_props=frozenset())
    w = hl.vector([1, 1]) / np.sqrt(2)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        sm.sat_at(sm.QuantumModel(sig, {}), w, sx.parse_sentence("[(g*)*] !p"))
    assert time.perf_counter() - start < 1.0


def test_orbit_closes_at_the_signature_tolerance():
    """A rotation by 2pi/8 + 1e-8 closes within tol=1e-6 but not within
    1e-9: the prover and the kernel both compare at the signature's tol."""
    angle = 2 * np.pi / 8 + 1e-8
    g = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]],
                 dtype=complex)
    sig = sg.SignatureInstance(
        dim=2, unitaries={"g": g}, measurements={},
        named_vectors={"v0": hl.vector([0.6, 0.8]), "v1": hl.vector([0.8, -0.6])},
        props=frozenset({"r"}), closed_props=frozenset({"r"}), tol=1e-6)
    gamma = [sx.parse_sentence("@(v0) r"), sx.parse_sentence("@(v1) r")]
    result = prove(sig, gamma, Name("v0"), sx.parse_sentence("[g*] r"))
    assert result.holds, result.reason
    assert check_proof(sig, result.tree).ok
