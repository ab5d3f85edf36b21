"""The prover whose rules prove their premises through one routine against
the prover from before (tests/reference_prover.py), swapped in for
``calculus._Prover``: on seeded sessions, the demos and files shaped like the
benchmark's, every query must get the same status, reason, text and JSON
trace and nodes left, and every saturation the same facts, classes and sites.
On the same sessions, every closed span (grown a Gram-Schmidt step per fact)
must be the orthonormalization of a scan of the facts."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
import reference_prover as ref
from conftest import teleport_spec_text
from gen import random_closed_model, random_ground_term, random_unitary_action
from test_initial_model import CLAUSES, random_qubit_sig
from test_vector_table import bench_shaped, fingerprint

from hdql import calculus
from hdql import hilbert as hl
from hdql import syntax as sx
from hdql.calculus import ProofSession, RuleId, SearchBudget, proof_nodes
from hdql.errors import BudgetExceeded
from hdql.initial_model import build_initial
from hdql.semantics import StarBudget
from hdql.specfile import load_spec, load_spec_text, serialize_trace, trace_to_json
from hdql.syntax import AComp, AStar, AUnion, And, At, Imp, Nec, Prop, QImp, Store

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos")
UNITARIES = ["u0", "u1", "g"]


def run_session(sig, gamma, queries, budget=SearchBudget(), register=None):
    """(per call: its outcome and the nodes left; per saturation: its facts,
    classes and sites), and the rules of the proofs found. register, when
    given, is registered before the queries."""
    session = ProofSession(sig, gamma, budget)
    calls, rules = [], set()
    if register is not None:
        try:
            session.register_terms(register)
            calls.append(("registered", session._prover.counter.left))
        except BudgetExceeded as e:
            calls.append((str(e), session._prover.counter.left))
    for k, goal in queries:
        r = session.prove(k, goal)
        text = json_text = ""
        if r.tree is not None:
            text = serialize_trace(session.gamma, r.tree)
            try:
                json_text = trace_to_json(session.gamma, r.tree)
            except RecursionError:  # the stdlib json stops near 500 levels
                json_text = "RecursionError"
            rules.update(node.rule for node in proof_nodes(r.tree))
        calls.append((r.status, r.reason, text, json_text, session._prover.counter.left))
    saturations = [(gamma, list(sat.facts), sat.class_terms, list(sat.sites))
                   for gamma, sat in session._prover.saturations.items()]
    return (calls, saturations), rules


def assert_same_as_reference(*args, **kw):
    """The run of both provers on one session; returns the statuses and rules."""
    new, rules = run_session(*args, **kw)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(calculus, "_Prover", ref._Prover)
        old, _ = run_session(*args, **kw)
    assert new == old
    return [call[0] for call in new[0]], rules


# --------------------------------------------------------- seeded sessions

def corpus_sig(rng):
    """A gen.py model's signature with g, a cyclic shift of finite order, so
    that star orbits close as well as run out."""
    sig = random_closed_model(int(rng.integers(2, 4)), rng).sig
    shift = np.roll(np.eye(sig.dim, dtype=complex), 1, axis=0)
    return replace(sig, unitaries={**sig.unitaries, "g": shift})


def term(rng, depth=3):
    """A ground term over w0: the origin, sums, scalar multiples, symbols."""
    return random_ground_term(rng, depth, ["w0"], UNITARIES + ["m0"])


def action(rng, closed=False):
    """A ;, | or * action over the unitaries, or a measurement unless closed."""
    if not closed and rng.random() < 0.2:
        return sx.ASym("m0")
    return random_unitary_action(rng, 2, UNITARIES)


def basic(rng, depth, closed=False):
    props = ["r0", "r1", "r2"] + ([] if closed else ["p", "p", "p"])
    c = rng.random()
    if depth == 0 or c < 0.35:
        return Prop(str(rng.choice(props)))
    if c < 0.55:
        return And(basic(rng, depth - 1, closed), basic(rng, depth - 1, closed))
    if c < 0.8 or closed:
        return Nec(action(rng, closed), basic(rng, depth - 1, closed))
    if c < 0.9:
        return At(term(rng, 2), basic(rng, depth - 1))
    return Store("y", At(sx.Var("y"), basic(rng, depth - 1)))


def clause(rng, depth):
    """A quantum clause, anchored at a ground term or not."""
    c = rng.random()
    if depth == 0 or c < 0.25:
        return basic(rng, 1)
    if c < 0.4:
        return At(term(rng, 2), clause(rng, depth - 1))
    if c < 0.55:
        return Imp(basic(rng, 1), clause(rng, depth - 1))
    if c < 0.65:
        return QImp(basic(rng, 1, closed=True), basic(rng, 1, closed=True))
    if c < 0.8:
        return Nec(action(rng), clause(rng, depth - 1))
    return And(clause(rng, depth - 1), clause(rng, depth - 1))


def goal(rng, gamma):
    c = rng.random()
    if c < 0.1 and gamma:
        return gamma[int(rng.integers(len(gamma)))]
    if c < 0.35:  # closed propositions at sums and scalar multiples
        return Prop(str(rng.choice(["r0", "r1", "r2"])))
    if c < 0.55:  # star goals with ;, | and * bodies
        g = sx.ASym("g")
        body = [g, AComp(g, g), AUnion(g, sx.ASym("u0")), AStar(g),
                action(rng, closed=True)][int(rng.integers(5))]
        return Nec(AStar(body), basic(rng, 1))
    return clause(rng, 2)


def seeded_session(seed):
    rng = np.random.default_rng([3407, seed])
    sig = corpus_sig(rng)
    gamma = [clause(rng, 2) for _ in range(int(rng.integers(1, 6)))]
    gamma += [At(sx.Name("w0"), Prop(str(rng.choice(["p", "r0", "r1"]))))]
    queries = [(term(rng), goal(rng, gamma)) for _ in range(int(rng.integers(2, 6)))]
    budget = SearchBudget(max_nodes=int(rng.choice([30, 300, 3000])),
                          star=StarBudget(max_iterations=int(rng.choice([3, 12]))))
    register = [term(rng) for _ in range(3)] if rng.random() < 0.4 else None
    return sig, gamma, queries, budget, register


class TestSeededSessions:
    def test_same_answers_traces_and_saturations_as_the_reference(self):
        statuses, rules, count = set(), set(), 0
        for seed in range(320):
            sig, gamma, queries, budget, register = seeded_session(seed)
            got, used = assert_same_as_reference(sig, gamma, queries, budget, register)
            statuses.update(got)
            rules |= used
            count += len(queries)
        assert count >= 1000
        assert {"holds", "fails", "unknown", "registered", "prover node budget exhausted"} <= \
            statuses
        # every rule whose premises the one routine proves was reached
        assert {RuleId.RET_I, RuleId.STORE_I, RuleId.CONJ_I, RuleId.FT_I, RuleId.COMP_E,
                RuleId.UNION_I, RuleId.IMP, RuleId.IMP_C, RuleId.MP, RuleId.MP_C,
                RuleId.MULT, RuleId.ADD, RuleId.STAR_I_BOUNDED} <= rules


# ------------------------------------------------------ spans grown a step at a time

def scanned_span(sat, r):
    """The span rebuilt from a scan of the facts: the entries of r in fact
    order, and the orthonormalization of their classes' rows."""
    entries = [(cid, proof) for (s, cid), proof in sat.facts.items()
               if isinstance(s, Prop) and s.name == r]
    rows = [sat.class_vecs.rows[cid] for cid, _ in entries]
    return hl.orthonormalize(rows, dim=sat.sig.dim, tol=sat.sig.tol), entries


def scanned_prop_rows(sat, p, terms):
    cids = {cid for (s, cid) in sat.facts if isinstance(s, Prop) and s.name == p}
    if Prop(p) in sat.universal:
        cids.update(map(sat.intern, terms))
    return sat.class_vecs.rows[sorted(cids)]


def check_spans(sig, gamma, queries, budget=SearchBudget(), register=None):
    """Run the session, comparing every closed span of every saturation with
    its scan after each call, then prop_rows with its scan (unless the budget
    ran out before the clause set's saturation was built); the spans checked."""
    session, checked = ProofSession(sig, gamma, budget), 0
    calls = [lambda: session.register_terms(register)] if register is not None else []
    for k, g in queries:
        calls.append(lambda k=k, g=g: session.prove(k, g))
    for call in calls:
        try:
            call()
        except BudgetExceeded:
            pass
        for sat in session._prover.saturations.values():
            for r in sorted(sig.closed_props):
                basis, entries, _ = sat.span_of(r)
                want, scanned = scanned_span(sat, r)
                assert np.array_equal(basis.basis, want.basis)
                assert len(entries) == len(scanned)
                assert all(c == d and p is q for (c, p), (d, q) in zip(entries, scanned))
                checked += 1
    sat, terms = session._prover.saturations.get(session.gamma), [k for k, _ in queries]
    for p in sorted(sig.props | sig.closed_props) if sat is not None else ():
        assert np.array_equal(session.prop_rows(p, terms), scanned_prop_rows(sat, p, terms))
    return checked


class TestSpans:
    def test_spans_and_prop_rows_are_those_of_the_fact_scans(self):
        checked = 0
        for seed in range(320):
            checked += check_spans(*seeded_session(seed))
        for spec in spec_files():
            for goal in spec.goals:
                checked += check_spans(spec.sig, spec.axioms, [goal])
            checked += check_spans(spec.sig, spec.axioms, spec.goals,
                                   register=[k for k, _ in spec.goals])
        assert checked >= 1000


# ----------------------------------------------- the demos and bench shapes

def star_file(order, rng):
    """A rotation of the given order in a random basis, as in the benchmark's
    star workload: [g*] r holds at v0, [g*] p does not."""
    m = int(rng.choice([k for k in range(1, order) if math.gcd(k, order) == 1]))
    c, s = math.cos(2 * math.pi * m / order), math.sin(2 * math.pi * m / order)
    basis = hl.random_unitary(2, rng)
    g = basis @ np.array([[c, -s], [s, c]]) @ basis.conj().T
    fmt = sx.format_complex
    rows = "; ".join(", ".join(fmt(complex(x)) for x in row) for row in g)
    vecs = [", ".join(fmt(complex(x)) for x in hl.random_state(2, rng)) for _ in range(2)]
    return (f"SPACE 2\nVECTORS\n  v0 = ({vecs[0]})\n  v1 = ({vecs[1]})\nUNITARY\n"
            f"  g = [{rows}]\nPROPS\n  p\n  r closed\nAXIOMS\n  @(v0) p\n  @(v0) r\n"
            "  @(v1) r\nGOAL AT v0 PROVE [g*] r\nGOAL AT v0 PROVE [g*] p\n")


def teleport_file(rng):
    """The teleport demo for a random qubit, with a mis-corrected branch."""
    theta = rng.uniform(0, np.pi / 2)
    text = teleport_spec_text(math.cos(theta), math.sin(theta) * 1j)
    return text + "GOAL AT w0 PROVE [u0;u1;q01;s0;d0] p\n"


def spec_files():
    rng = np.random.default_rng(3408)
    demos = [load_spec(os.path.join(DEMOS, name))
             for name in sorted(os.listdir(DEMOS)) if name.endswith(".hdql")]
    shaped = [teleport_file(rng) for _ in range(2)]
    shaped += [star_file(order, rng) for order in (8, 12, 16, 20, 24)]
    return demos + [load_spec_text(text) for text in shaped]


class TestFiles:
    def test_demos_and_bench_shaped_files(self):
        statuses = []
        for spec in spec_files():
            for goal in spec.goals:  # one session per goal, as hdql check runs them
                statuses += assert_same_as_reference(spec.sig, spec.axioms, [goal])[0]
            statuses += assert_same_as_reference(spec.sig, spec.axioms, spec.goals,
                                                 register=[k for k, _ in spec.goals])[0]
        assert statuses.count("holds") >= 20 and "fails" in statuses

    @pytest.mark.parametrize("case", ["bench-shaped", "qubit"])
    def test_initial_models(self, case):
        rng = np.random.default_rng(3409)
        if case == "bench-shaped":
            sig, gamma = bench_shaped(4, rng)
        else:
            sig, gamma = random_qubit_sig(rng), [sx.parse(c) for c in CLAUSES]
        new = build_initial(sig, gamma, depth=3)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(calculus, "_Prover", ref._Prover)
            old = build_initial(sig, gamma, depth=3)
        got, want = fingerprint(new), fingerprint(old)
        assert got[:4] == want[:4] and got[4].keys() == want[4].keys()
        assert all(np.array_equal(got[4][p], want[4][p]) for p in got[4])
        assert new.session._prover.counter.left == old.session._prover.counter.left
