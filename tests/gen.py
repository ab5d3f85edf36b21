"""Random generators shared by the semantics, calculus and acceptance tests."""

from hdql import hilbert as hl
from hdql import syntax as sx
from hdql.semantics import FiniteVectors, QuantumModel
from hdql.signature import SignatureInstance


def random_closed_model(dim: int, rng, n_closed: int = 3, n_unitaries: int = 2,
                        n_measurements: int = 1) -> QuantumModel:
    """A model whose closed propositions carry random subspaces."""
    unitaries = {f"u{i}": hl.random_unitary(dim, rng) for i in range(n_unitaries)}
    measurements = {
        f"m{i}": hl.random_subspace(dim, rng, rank=int(rng.integers(1, dim)))
        for i in range(n_measurements)
    }
    closed = frozenset(f"r{i}" for i in range(n_closed))
    named = {"w0": hl.random_state(dim, rng)}
    sig = SignatureInstance(dim=dim, unitaries=unitaries, measurements=measurements,
                            named_vectors=named, props=closed | {"p"},
                            closed_props=closed)
    valuation = {r: hl.random_subspace(dim, rng) for r in sorted(closed)}
    valuation["p"] = FiniteVectors((hl.random_state(dim, rng),))
    return QuantumModel(sig, valuation)


def random_unitary_action(rng, depth: int, syms: list[str],
                          allow_star: bool = True) -> sx.Action:
    if depth == 0 or rng.random() < 0.45:
        return sx.ASym(str(rng.choice(syms)))
    c = rng.random()
    if c < 0.4:
        return sx.AComp(random_unitary_action(rng, depth - 1, syms, allow_star),
                        random_unitary_action(rng, depth - 1, syms, allow_star))
    if c < 0.8 or not allow_star:
        return sx.AUnion(random_unitary_action(rng, depth - 1, syms, allow_star),
                         random_unitary_action(rng, depth - 1, syms, allow_star))
    return sx.AStar(random_unitary_action(rng, depth - 1, syms, allow_star))


def random_closed_sentence(rng, depth: int, closed_props: list[str],
                           unitary_syms: list[str],
                           allow_star: bool = True) -> sx.Sentence:
    if depth == 0 or rng.random() < 0.3:
        return sx.Prop(str(rng.choice(closed_props)))
    c = rng.random()
    d = depth - 1
    if c < 0.3:
        return sx.QNot(random_closed_sentence(rng, d, closed_props, unitary_syms, allow_star))
    if c < 0.6:
        return sx.And(random_closed_sentence(rng, d, closed_props, unitary_syms, allow_star),
                      random_closed_sentence(rng, d, closed_props, unitary_syms, allow_star))
    if c < 0.85:
        return sx.Nec(random_unitary_action(rng, 2, unitary_syms, allow_star),
                      random_closed_sentence(rng, d, closed_props, unitary_syms, allow_star))
    return sx.QImp(random_closed_sentence(rng, d, closed_props, unitary_syms, allow_star),
                   random_closed_sentence(rng, d, closed_props, unitary_syms, allow_star))


def random_mixed_sentence(rng, depth: int, closed_props: list[str],
                          plain_props: list[str], unitary_syms: list[str],
                          measure_syms: list[str]) -> sx.Sentence:
    """Evaluable sentences: the closed fragment plus classical structure.

    Quantum negation only appears over closed subsentences and star only
    inside the closed fragment, so pointwise evaluation never leaves the
    decidable shapes.
    """
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.35:
            return sx.Prop(str(rng.choice(closed_props)))
        return sx.Prop(str(rng.choice(plain_props)))
    c = rng.random()
    d = depth - 1
    if c < 0.18:
        return random_closed_sentence(rng, min(d, 2), closed_props, unitary_syms)
    args = (rng, d, closed_props, plain_props, unitary_syms, measure_syms)
    if c < 0.36:
        return sx.And(random_mixed_sentence(*args), random_mixed_sentence(*args))
    if c < 0.5:
        return sx.Not(random_mixed_sentence(*args))
    if c < 0.62:
        return sx.At(sx.Name("w0"), random_mixed_sentence(*args))
    if c < 0.8:
        sym = sx.ASym(str(rng.choice(unitary_syms + measure_syms)))
        return sx.Nec(sym, random_mixed_sentence(*args))
    if c < 0.9:
        var = str(rng.choice(["y", "z"]))
        return sx.Store(var, random_mixed_sentence(*args))
    return sx.Imp(random_mixed_sentence(*args), random_mixed_sentence(*args))


def sample_states(model: QuantumModel, ext: hl.Subspace, count: int, rng):
    """Half generic states, half states drawn from the given subspace."""
    dim = model.sig.dim
    out = []
    for i in range(count):
        if i % 2 == 0 or ext.rank == 0:
            out.append(hl.random_state(dim, rng))
        else:
            coeff = rng.standard_normal(ext.rank) + 1j * rng.standard_normal(ext.rank)
            v = coeff @ ext.basis
            n = hl.norm(v)
            out.append(v / n if n > 1e-12 else hl.random_state(dim, rng))
    return out


def random_ground_term(rng, depth: int, names: list[str], syms: list[str]) -> sx.Term:
    """A ground term over named states, the origin, sums, scalings and symbols."""
    if depth == 0 or rng.random() < 0.3:
        return sx.Origin() if rng.random() < 0.1 else sx.Name(str(rng.choice(names)))
    c = rng.random()
    if c < 0.2:
        return sx.TSum(random_ground_term(rng, depth - 1, names, syms),
                       random_ground_term(rng, depth - 1, names, syms))
    if c < 0.35:
        scalar = complex(round(rng.standard_normal(), 3), round(rng.standard_normal(), 3))
        return sx.TSmul(scalar, random_ground_term(rng, depth - 1, names, syms))
    return sx.TApp(str(rng.choice(syms)), random_ground_term(rng, depth - 1, names, syms))
