"""StarI premises at the iterate term. When a star's body is a ;-composition
of operation symbols, the prover proves premise n of [a*] b at k as b at the
n-th iterate of k. A fixed chain of CompE and FTI nodes takes that premise to
the n-fold unrolling [a ; ... ; a] b at k, the premise shape the kernel has
always accepted and still accepts."""

import io
import math
import os

import numpy as np
import pytest

from hdql import hilbert as hl
from hdql import signature as sg
from hdql import syntax as sx
from hdql.calculus import ProofTree, RuleId, Sequent, check_proof, prove
from hdql.cli import main
from hdql.specfile import deserialize_trace, serialize_trace, trace_from_json, trace_to_json
from hdql.syntax import AComp, ASym, AStar, AUnion, Nec, TApp, TSmul, parse, parse_term

HERE = os.path.dirname(os.path.abspath(__file__))
ROTATION = os.path.join(HERE, os.pardir, "demos", "rotation.hdql")


def rotation(order: int) -> np.ndarray:
    c, s = math.cos(2 * math.pi / order), math.sin(2 * math.pi / order)
    return np.array([[c, -s], [s, c]], dtype=complex)


def qubit():
    """A qubit with the order-8 rotation g, x, h and the measurement m onto
    |0>; v0 and v1 are orthonormal, so the closed r spans every state."""
    return sg.SignatureInstance(
        dim=2, unitaries={"g": rotation(8), "x": hl.X, "h": hl.H},
        measurements={"m": hl.orthonormalize([hl.basis_state(2, 0)])},
        named_vectors={"v0": hl.vector([0.6, 0.8]), "v1": hl.vector([0.8, -0.6]),
                       "z0": hl.basis_state(2, 0), "vp": hl.vector([1, 1]) / np.sqrt(2)},
        props=frozenset({"p", "r"}), closed_props=frozenset({"r"}))


# (clause set, term, goal): each proof has one StarI node whose body is a
# ;-composition of operation symbols
CASES = {
    "rotation": (["@(v0) r", "@(v1) r"], "v0", "[g*] r"),
    "retrieved": (["@(v0) r", "@(v1) r"], "v1", "@(v0) [g*] r"),
    "composition": (["@(v0) [(x ; h)*] p"], "v0", "[(x ; h)*] p"),
    "nested": (["@(v0) r", "@(v1) r"], "v0", "[((x ; g) ; h)*] r"),
    "compound body": (["@(v0) p", "@(x(v0)) p"], "v0", "[(x ; x)*] (p /\\ [x] p)"),
    "measurement": (["@(vp) p", "@(z0) p"], "vp", "[m*] p"),
}


def proof_of(case: str):
    gamma, k, goal = CASES[case]
    sig = qubit()
    result = prove(sig, [parse(c) for c in gamma], parse_term(k), parse(goal))
    assert result.holds, result.reason
    return sig, result.tree


def star_nodes(tree: ProofTree, path=()):
    """(path, node) of every StarI node, the path as check_proof reports it."""
    if tree.rule is RuleId.STAR_I_BOUNDED:
        yield path, tree
    for i, p in enumerate(tree.premises):
        yield from star_nodes(p, path + (i,))


def replaced(tree: ProofTree, path, node: ProofTree) -> ProofTree:
    """The tree with the node at path replaced."""
    if not path:
        return node
    premises = list(tree.premises)
    premises[path[0]] = replaced(premises[path[0]], path[1:], node)
    return ProofTree(tree.conclusion, tree.rule, tuple(premises), tree.certificate)


def after(term, action):
    """The term an action of symbols and ;'s takes term to, left to right."""
    if isinstance(action, ASym):
        return TApp(action.name, term)
    return after(after(term, action.left), action.right)


def unrolling_chain(gamma, term, pending, body, leaf: ProofTree) -> ProofTree:
    """A proof of [pending[0]] ... [pending[-1]] body at term: CompE splits a
    composition, FTI steps to f(term), and leaf must prove body where the
    steps end."""
    if not pending:
        assert (leaf.conclusion.k, leaf.conclusion.goal) == (term, body)
        return leaf
    sentence = body
    for a in reversed(pending):
        sentence = Nec(a, sentence)
    first, rest = pending[0], pending[1:]
    if isinstance(first, AComp):
        sub = unrolling_chain(gamma, term, [first.left, first.right] + rest, body, leaf)
        return ProofTree(Sequent(gamma, term, sentence), RuleId.COMP_E, (sub,))
    sub = unrolling_chain(gamma, TApp(first.name, term), rest, body, leaf)
    return ProofTree(Sequent(gamma, term, sentence), RuleId.FT_I, (sub,))


def expanded(star: ProofTree) -> ProofTree:
    """The StarI node with premise n proved from the n-fold unrolling at the
    node's term, through its explicit CompE/FTI chain down to the prover's
    premise at the iterate."""
    gamma, k, goal = star.conclusion.gamma, star.conclusion.k, star.conclusion.goal
    body = goal.action.body
    premises = [star.premises[0]]
    for n, p in enumerate(star.premises[1:], start=1):
        power = body
        for _ in range(n - 1):
            power = AComp(body, power)
        premises.append(unrolling_chain(gamma, k, [power], goal.body, p))
    return ProofTree(star.conclusion, star.rule, tuple(premises), star.certificate)


@pytest.mark.parametrize("case", sorted(CASES))
def test_iterate_premises_expand_to_unrollings_the_kernel_accepts(case):
    sig, tree = proof_of(case)
    assert check_proof(sig, tree).ok
    stars = list(star_nodes(tree))
    assert len(stars) == 1
    path, star = stars[0]
    k, goal = star.conclusion.k, star.conclusion.goal
    term = k
    for n, p in enumerate(star.premises):  # the prover's premises sit at the iterates
        assert (p.conclusion.k, p.conclusion.goal) == (term, goal.body)
        term = after(term, goal.action.body)
    unrolled = expanded(star)
    for n, p in enumerate(unrolled.premises):
        assert p.conclusion.k == k and (n == 0 or isinstance(p.conclusion.goal, Nec))
    assert check_proof(sig, replaced(tree, path, unrolled)).ok


def _premise_at(star, i, term):
    """The StarI node with premise i's conclusion moved to another term."""
    p = star.premises[i]
    moved = ProofTree(Sequent(p.conclusion.gamma, term, p.conclusion.goal), p.rule,
                      p.premises, p.certificate)
    premises = star.premises[:i] + (moved,) + star.premises[i + 1:]
    return ProofTree(star.conclusion, star.rule, premises, star.certificate)


def _with_body(star, body, step=None):
    """The StarI node over another star body, its premises at the iterates
    of step (the body itself by default)."""
    gamma, k, goal = star.conclusion.gamma, star.conclusion.k, star.conclusion.goal
    premises, term = [], k
    for p in star.premises:
        premises.append(ProofTree(Sequent(gamma, term, goal.body), p.rule, p.premises,
                                  p.certificate))
        term = after(term, step or body)
    return ProofTree(Sequent(gamma, k, Nec(AStar(body), goal.body)), star.rule,
                     tuple(premises), star.certificate)


def _renamed(action, name):
    if isinstance(action, ASym):
        return ASym(name)
    return AComp(_renamed(action.left, name), _renamed(action.right, name))


MUTANTS = {
    "one iterate too far": lambda star, i: _premise_at(
        star, i, after(star.premises[i].conclusion.k, star.conclusion.goal.action.body)),
    "one iterate short": lambda star, i: _premise_at(
        star, i, star.premises[i - 1].conclusion.k),
    "diagram-equal respelling": lambda star, i: _premise_at(
        star, i, TSmul(1 + 0j, star.premises[i].conclusion.k)),
}
# these change the StarI's goal, which its parent would reject first: they
# mutate proofs whose root is the StarI node. The union body's premises sit
# where they would if its | were a ;
BODY_MUTANTS = {
    "union body": lambda star, i: _with_body(
        star, AUnion(star.conclusion.goal.action.body, star.conclusion.goal.action.body),
        AComp(star.conclusion.goal.action.body, star.conclusion.goal.action.body)),
    "unknown symbol": lambda star, i: _with_body(
        star, _renamed(star.conclusion.goal.action.body, "zz")),
}


@pytest.mark.parametrize("case, mutant", [
    (case, mutant) for case in ("composition", "measurement", "retrieved", "rotation")
    for mutant in sorted(MUTANTS) + sorted(BODY_MUTANTS)
    if case != "retrieved" or mutant in MUTANTS])
def test_kernel_rejects_mutated_iterate_premises(case, mutant):
    sig, tree = proof_of(case)
    (path, star), = star_nodes(tree)
    i = 1 if mutant in BODY_MUTANTS else len(star.premises) - 1
    bad = {**MUTANTS, **BODY_MUTANTS}[mutant](star, i)
    res = check_proof(sig, replaced(tree, path, bad))
    assert not res.ok
    assert res.path == path and res.reason.startswith(f"StarI: premise {i} "), res


def test_respelling_is_diagram_equal():
    """The respelled premise is rejected for its spelling alone."""
    sig, tree = proof_of("rotation")
    term = tree.premises[2].conclusion.k
    assert sx.format_term(TSmul(1 + 0j, term)) == "1*g(g(v0))"
    assert sg.diagram_eq(sig, TSmul(1 + 0j, term), term)


def run(argv):
    out = io.StringIO()
    code = main([str(a) for a in argv], out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("name", ["rotation_unrolled.trace", "rotation_unrolled.json"])
def test_traces_with_unrolled_premises_still_recheck(name):
    """Traces of demos/rotation.hdql from before premises moved to the
    iterates: premise n is [g ; ... ; g] r at v0, proved by CompE and FTI."""
    path = os.path.join(HERE, "traces", name)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert "CompE | v0 | [g ; g] r" in text or '"goal": "[g ; g] r"' in text
    assert run(["recheck", ROTATION, path]) == (0, "trace checks\n")


def rotation_spec(order: int) -> str:
    g = rotation(order)
    matrix = "; ".join(", ".join(repr(float(x.real)) for x in row) for row in g)
    return "\n".join([
        "SPACE 2", "VECTORS", "  v0 = (0.6, 0.8)", "  v1 = (0.8, -0.6)",
        "UNITARY", f"  g = [{matrix}]", "PROPS", "  r closed",
        "AXIOMS", "  @(v0) r", "  @(v1) r",
        "GOAL AT v0 PROVE [g*] r", "GOAL AT v0 PROVE [(g ; g)*] r"]) + "\n"


def test_star_proofs_grow_linearly_in_the_orbit(tmp_path):
    nodes = {}
    for order in (32, 64):
        spec = tmp_path / f"rotation-{order}.hdql"
        spec.write_text(rotation_spec(order))
        for fmt in ("text", "json"):
            trace = tmp_path / f"star-{order}.{fmt}"
            code, out = run(["check", spec, "--trace", trace, "--format", fmt])
            assert code == 0, out
            lines = out.splitlines()
            counts = [int(line.split("(")[1].split()[0]) for line in lines]
            assert nodes.setdefault(order, counts) == counts
            for goal in (1, 2):
                path = f"{trace}.{goal}"
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                if fmt == "text":
                    assert serialize_trace(*deserialize_trace(text)) == text
                else:
                    assert trace_to_json(*trace_from_json(text)) == text
                assert run(["recheck", spec, path]) == (0, "trace checks\n")
    assert all(n < 600 for n in nodes[64]), nodes
    assert all(big <= 2.2 * small for big, small in zip(nodes[64], nodes[32])), nodes
