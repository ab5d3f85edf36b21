"""The term universe against the loop it replaced (tests/reference_universe.py),
on seeded signatures: the same terms, class table, sites, facts and memo.

The two may differ only where the old loop misread its cap: it let the seeds
exceed ``max_terms``, and it reported a closure of exactly ``max_terms``
classes as truncated."""

import numpy as np
import pytest
import reference_universe as ref
from test_vector_table import bench_shaped

from hdql import calculus
from hdql import hilbert as hl
from hdql import initial_model
from hdql import signature as sg
from hdql import syntax as sx
from hdql.calculus import ProofSession
from hdql.initial_model import build_initial, generate_universe
from hdql.signature import SignatureInstance, eval_term
from hdql.syntax import At, Name, TApp, TSmul, TSum, VecLit, parse_sentence

CASES = 320


def random_measurement(dim, rng, kind, w0):
    if kind == "annihilates w0":  # w0 itself measures to the origin
        return hl.orthocomplement(hl.orthonormalize([w0]))
    rank = {"rank 0": 0, "full rank": dim}.get(kind)
    return hl.random_subspace(dim, rng, rank=int(rng.integers(1, dim)) if rank is None
                              else rank)


def random_ground_term(rng, sig, depth=2):
    c = rng.random()
    if depth == 0 or c < 0.35:
        return Name(str(rng.choice(sorted(sig.named_vectors))))
    if c < 0.5:
        coords = hl.random_state(sig.dim, rng) * rng.choice([0.5, 1.0, 2.0])
        return VecLit(tuple(complex(z) for z in coords))
    if c < 0.65:
        return TSum(random_ground_term(rng, sig, depth - 1),
                    random_ground_term(rng, sig, depth - 1))
    if c < 0.75:
        return TSmul(complex(rng.choice([2.0, -1.0, 0.5])),
                     random_ground_term(rng, sig, depth - 1))
    syms = sorted(sig.unitaries) + sorted(sig.measurements)
    return TApp(str(rng.choice(syms)), random_ground_term(rng, sig, depth - 1))


def random_case(rng):
    dim = int(rng.integers(1, 9))
    w0 = hl.random_state(dim, rng)
    kinds = [str(rng.choice(["rank 0", "partial", "full rank", "annihilates w0"]))
             for _ in range(int(rng.integers(0, 3)))]
    kinds = [k if dim > 1 or k != "partial" else "full rank" for k in kinds]
    n_unitaries = int(rng.integers(1 if not kinds else 0, 3))
    sig = SignatureInstance(
        dim=dim,
        unitaries={f"u{i}": hl.random_unitary(dim, rng) if rng.random() < 0.7
                   else np.eye(dim, dtype=complex)[::-1].copy()  # finite order
                   for i in range(n_unitaries)},
        measurements={f"m{i}": random_measurement(dim, rng, k, w0)
                      for i, k in enumerate(kinds)},
        named_vectors={"w0": w0, "w1": hl.random_state(dim, rng)},
        props=frozenset({"p", "q", "r"}), closed_props=frozenset({"r"}))
    bodies = ["p", "q", "r", "p /\\ r"]
    bodies += [f"[{u}] p" for u in sig.unitaries] + [f"[{u}] r" for u in sig.unitaries]
    bodies += [f"[{m}] q" for m in sig.measurements]
    gamma = [At(random_ground_term(rng, sig), parse_sentence(str(rng.choice(bodies))))
             for _ in range(int(rng.integers(1, 5)))]
    n_syms = len(sig.unitaries) + len(sig.measurements)
    depth = int(rng.integers(0, 6 if n_syms <= 2 else 4))
    return sig, gamma, depth, kinds


def closure_size(sig, gamma, depth):
    """Classes of the uncapped closure, and of the seeds alone."""
    return tuple(len(ref.generate_universe(ProofSession(sig, gamma), d, 10 ** 6)[0])
                 for d in (depth, 0))


def session_state(session):
    sat = session._prover.saturation(session.gamma)
    return (sat.class_terms, sat.class_of, list(sat.sites), list(sat.facts),
            session._prover.vectors)


def with_old_loop(monkeypatch, step):
    with monkeypatch.context() as m:
        m.setattr(initial_model, "generate_universe", ref.generate_universe)
        m.setattr(calculus._Saturation, "intern", ref.intern)
        m.setattr(calculus._Saturation, "register_site", ref.register_site)
        return step()


def assert_same_state(sig, got, want):
    assert got[:4] == want[:4]
    assert list(got[1].items()) == list(want[1].items())  # class_of in order too
    memo, ref_memo = got[4], want[4]
    assert list(memo) == list(ref_memo)
    for t, v in memo.items():
        assert np.array_equal(v, ref_memo[t]), sx.format_term(t)
        assert np.array_equal(v, eval_term(sig, t)), sx.format_term(t)


def test_universes_equal_the_old_loop(monkeypatch):
    rng = np.random.default_rng(1901)
    seen = {"dims": set(), "depths": set(), "kinds": set(), "vec seeds": 0, "sum seeds": 0,
            "binding": 0, "not binding": 0, "exact": 0, "seeds over the cap": 0,
            "origin from a state": 0, "full builds": 0}
    for _ in range(CASES):
        sig, gamma, depth, kinds = random_case(rng)
        n, n_seeds = closure_size(sig, gamma, depth)
        cap = max(1, int(rng.choice([n, n - 1, n + 1, n // 2, n_seeds - 1, 4096])))
        seen["dims"].add(sig.dim)
        seen["depths"].add(depth)
        seen["kinds"].update(kinds)
        seeds = [t for c in gamma for t in sx.walk(c, sx.TERM) if sx.is_ground(t)]
        seen["vec seeds"] += any(isinstance(t, VecLit) for t in seeds)
        seen["sum seeds"] += any(isinstance(t, TSum) for t in seeds)
        seen["binding" if n > cap else "not binding"] += 1
        seen["exact"] += n == cap
        if n_seeds >= cap:
            # The old loop kept every seed, and with the cap reached there it
            # still interned the first candidate s(t). The new one interns
            # the seeds only: its state is that of the old loop at depth 0.
            seen["seeds over the cap"] += n_seeds > cap
            new_session, ref_session = ProofSession(sig, gamma), ProofSession(sig, gamma)
            terms, truncated = generate_universe(new_session, depth, cap)
            want, _ = with_old_loop(monkeypatch,
                                    lambda: generate_universe(ref_session, 0, cap))
            assert terms == want[:cap] and truncated == (n > cap)
            assert_same_state(sig, session_state(new_session), session_state(ref_session))
            continue
        seen["full builds"] += 1
        im = build_initial(sig, gamma, depth=depth, max_terms=cap)
        old = with_old_loop(monkeypatch, lambda: build_initial(sig, gamma, depth=depth,
                                                               max_terms=cap))
        assert im.term_universe == old.term_universe
        assert im.truncated == (n > cap)
        assert im.truncated == old.truncated or n == cap
        assert_same_state(sig, session_state(im.session), session_state(old.session))
        seen["origin from a state"] += any(
            isinstance(t, TApp) and t.sym in sig.measurements
            and not im.session.vector(t).any() and im.session.vector(t.arg).any()
            for t in im.term_universe + list(im.session._prover.vectors))
    assert seen["dims"] == set(range(1, 9))
    assert seen["depths"] == set(range(6))
    assert seen["kinds"] == {"rank 0", "partial", "full rank", "annihilates w0"}
    for key in ("vec seeds", "sum seeds", "binding", "not binding", "exact",
                "seeds over the cap", "origin from a state"):
        assert seen[key] >= 10, (key, seen[key])
    assert seen["full builds"] >= CASES // 2


@pytest.mark.parametrize("depth", [0, 1, 3])
def test_the_cap_counts_the_seeds(depth):
    """Three seed classes (the origin, v0 and v1) under a cap of two."""
    sig = SignatureInstance(
        dim=2, unitaries={"x": hl.X}, measurements={},
        named_vectors={"v0": hl.basis_state(2, 0), "v1": hl.basis_state(2, 1)},
        props=frozenset({"p"}), closed_props=frozenset())
    gamma = [parse_sentence("@(v0) p"), parse_sentence("@(v1) p")]
    im = build_initial(sig, gamma, depth=depth, max_terms=2)
    assert [sx.format_term(t) for t in im.term_universe] == ["0", "v0"]
    assert im.truncated
    # x swaps v0 and v1 and fixes the origin: the closure is the three seeds
    im = build_initial(sig, gamma, depth=depth, max_terms=3)
    assert len(im.term_universe) == 3 and not im.truncated


def test_a_candidate_costs_one_evaluation_and_one_probe(monkeypatch):
    """Each candidate without a class is evaluated once, from its argument's
    memoized state, and projected once, whether its class is new or not."""
    counts = {"apply_symbol": 0, "projection": 0}

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    for module in (calculus, sg):
        monkeypatch.setattr(module, "apply_symbol",
                            counting("apply_symbol", module.apply_symbol))
    monkeypatch.setattr(hl.VectorTable, "_key", counting("projection", hl.VectorTable._key))
    sig, gamma = bench_shaped(4, np.random.default_rng(53))
    session = ProofSession(sig, gamma)
    sat = session._prover.saturation(session.gamma)
    classed, counts["apply_symbol"], counts["projection"] = len(sat.class_of), 0, 0
    terms, truncated = generate_universe(session, 3)
    probed = list(sat.class_of)[classed:]  # the origin, then candidates s(t)
    assert not truncated and len(probed) > len(terms) > 50
    assert counts == {"apply_symbol": sum(isinstance(t, TApp) for t in probed),
                      "projection": len(probed)}
