"""The trace decoder that shares equal subtrees and reads a term f(t) over
t's term against the decoder from before (tests/reference_decoder.py),
swapped in for ``specfile._build``: on the proofs of the seeded sessions, the
demos, files shaped like the benchmark's and the unrolled rotation traces,
in both formats, both decoders must give equal clause sets, the same rule,
conclusion and certificate at every place, byte-identical re-encodings and
the same kernel verdict; seeded mutants of the text traces must get the
same verdict, or the same error. Then the term and sentence reading against
the parser, and the kernel's counts on decoded star traces."""

import json
import os
import tracemalloc

import numpy as np
import pytest
import reference_decoder as ref
from test_prover_reference import seeded_session, spec_files
from test_specfile import star_spec

from hdql import calculus, specfile
from hdql import signature as sg
from hdql import syntax as sx
from hdql.calculus import ProofSession, check_proof, proof_nodes
from hdql.errors import BudgetExceeded, HdqlError, ParseError
from hdql.specfile import (deserialize_trace, load_spec, load_spec_text, serialize_trace,
                           trace_from_json, trace_to_json)

HERE = os.path.dirname(os.path.abspath(__file__))
ROTATION = os.path.join(HERE, os.pardir, "demos", "rotation.hdql")


def proofs(sig, gamma, queries, budget=calculus.SearchBudget(), register=None):
    """(signature, clause set, tree) of each query the session proves."""
    session = ProofSession(sig, gamma, budget)
    if register is not None:
        try:
            session.register_terms(register)
        except BudgetExceeded:
            pass
    out = []
    for k, goal in queries:
        result = session.prove(k, goal)
        if result.holds:
            out.append((sig, session.gamma, result.tree))
    return out


@pytest.fixture(scope="module")
def corpus():
    """(signature, trace) pairs: each proof in both formats (JSON where the
    stdlib json reaches its depth), and the unrolled rotation traces. Proofs
    whose text trace exceeds 1 MB are left out, so that the test runs in
    seconds: three seeded ones, the largest of which writes a 41 MB trace
    (each Add row prints the whole sum below it)."""
    found = []
    for seed in range(320):
        found += proofs(*seeded_session(seed))
    for spec in spec_files():
        found += proofs(spec.sig, spec.axioms, spec.goals)
    traces = []
    for sig, gamma, tree in found:
        text = serialize_trace(gamma, tree)
        if len(text) > 2 ** 20:
            continue
        traces.append((sig, text))
        try:
            traces.append((sig, trace_to_json(gamma, tree)))
        except RecursionError:
            pass
    rotation = load_spec(ROTATION).sig
    for name in ("rotation_unrolled.trace", "rotation_unrolled.json"):
        with open(os.path.join(HERE, "traces", name), encoding="utf-8") as fh:
            traces.append((rotation, fh.read()))
    return traces


def decode(trace):
    """(clause set, tree) of a trace in either format, or its error's text."""
    try:
        return (trace_from_json if trace.startswith("{") else deserialize_trace)(trace)
    except HdqlError as e:
        return f"{type(e).__name__}: {e}"


def decode_by_reference(trace):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(specfile, "_build", ref._build)
        return decode(trace)


def places(tree):
    """(rule, conclusion, certificate) at each place, in walk order, with the
    conclusion's ASTs printed: the printer reparses to an equal AST, so equal
    texts are equal ASTs, and it compares deep terms without recursing."""
    memo = {}

    def text(seq):
        return (tuple(sx.format_sentence(c, memo) for c in seq.gamma),
                sx.format_term(seq.k, memo), sx.format_sentence(seq.goal, memo))
    return [(n.rule, text(n.conclusion), n.certificate) for n in proof_nodes(tree)]


def assert_same_decodes(sig, trace):
    """Both decoders' results agree; returns the new decoder's result and
    its kernel verdict (None for a trace that does not decode)."""
    new, old = decode(trace), decode_by_reference(trace)
    if isinstance(old, str):
        assert new == old
        return new, None
    (gamma, tree), (old_gamma, old_tree) = new, old
    assert gamma == old_gamma
    assert places(tree) == places(old_tree)
    assert serialize_trace(gamma, tree) == serialize_trace(old_gamma, old_tree)
    try:
        assert trace_to_json(gamma, tree) == trace_to_json(old_gamma, old_tree)
    except RecursionError:  # the stdlib json stops near 500 levels
        pass
    verdict = check_proof(sig, tree)
    assert verdict == check_proof(sig, old_tree)  # ok, path and reason
    return new, verdict


class TestCorpus:
    def test_same_trees_encodings_and_verdicts_as_the_reference(self, corpus):
        shared = 0
        assert len(corpus) >= 400
        for sig, trace in corpus:
            (gamma, tree), verdict = assert_same_decodes(sig, trace)
            assert verdict.ok
            encode = trace_to_json if trace.startswith("{") else serialize_trace
            assert encode(gamma, tree) == trace or trace.startswith("{\n")
            nodes = list(proof_nodes(tree))
            shared += len(set(nodes)) < len(nodes)
        assert shared >= 20  # the star proofs' SpanClosure families, at least

    def test_a_repeated_subtree_is_one_node_object(self):
        spec = star_spec(12)
        sig, gamma, tree = proofs(spec.sig, spec.axioms, spec.goals)[0]
        for trace in (serialize_trace(gamma, tree), trace_to_json(gamma, tree)):
            _, back = decode(trace)
            closures = [n for n in proof_nodes(back) if n.rule is calculus.RuleId.SPAN_CLOSURE]
            assert len(closures) == 12
            assert all(n.premises == closures[0].premises for n in closures)
            _, old = decode_by_reference(trace)
            assert len(set(proof_nodes(back))) < len(set(proof_nodes(old)))

    def test_a_leaf_under_an_implication_is_not_shared_with_its_twin_outside(self):
        text = ("HDQL-TRACE 1\ngamma 1\n  q\nproof\nConjI | v0 | (p => q) /\\ q\n"
                "  Imp | v0 | p => q\n    Monotonicity | v0 | q\n  Monotonicity | v0 | q\n")
        gamma, tree = decode(text)
        inner, outer = tree.premises[0].premises[0], tree.premises[1]
        assert inner is not outer
        assert inner.conclusion.gamma == gamma + (sx.parse("@(v0) p"),)
        assert outer.conclusion.gamma == gamma
        assert places(tree) == places(decode_by_reference(text)[1])


# ----------------------------------------------------------- seeded mutants

def rows_of(trace):
    """(header lines, node rows) of a text trace."""
    lines = trace.splitlines()
    n = lines.index("proof") + 1
    return lines[:n], lines[n:]


def indent(row):
    return len(row) - len(row.lstrip(" "))


def repeated_copies(rows):
    """Lists of (start, end) row ranges holding equal subtrees, for each
    subtree that occurs more than once."""
    copies = {}
    for i, row in enumerate(rows):
        j = i + 1
        while j < len(rows) and indent(rows[j]) > indent(row):
            j += 1
        copies.setdefault(tuple(r[indent(row):] for r in rows[i:j]), []).append((i, j))
    return [c for c in copies.values() if len(c) > 1]


def changed_row(row, what, goals, rng):
    """The row with its Mult coefficient, its goal or its certificate changed."""
    pad, (rule, term, rest) = row[:indent(row)], row.strip().split(" | ", 2)
    goal, _, cert = rest.partition(" [n=")
    if what == "coefficient":
        k = sx.parse_term(term)
        scale = complex(rng.choice([2, -1, 1j, 1 + 1e-3]))
        term = sx.format_term(sx.TSmul(k.scalar * scale, k.arg)) if isinstance(
            k, sx.TSmul) else sx.format_term(sx.TSmul(scale, k))
    elif what == "goal":
        goal = str(rng.choice(sorted(set(goals) - {goal}) or ["p"]))
    else:
        n = int(cert[:-1]) if cert else 0
        cert = f"{max(0, n + int(rng.choice([-1, 1, 2])))}]"
    return f"{pad}{rule} | {term} | {goal}" + (f" [n={cert}" if cert else "")


KINDS = ("coefficient", "goal", "certificate", "delete", "indent")
# kind -> the text of the rows it changes, when a copy of a repeated subtree has one
MARKS = {"coefficient": "Mult | ", "certificate": " [n="}


def mutants(trace, rng, count):
    """Seeded mutants of a text trace: a row of one copy of a repeated subtree
    changed (a Mult coefficient, a goal, a certificate), deleted or
    re-indented. (kind, mutant) pairs."""
    head, rows = rows_of(trace)
    in_copies = sorted({i for group in repeated_copies(rows) for start, end in group
                        for i in range(start, end)})
    goals = [r.strip().split(" | ", 2)[2].partition(" [n=")[0] for r in rows]
    for _ in range(count):
        kind = str(rng.choice(KINDS))
        pool = [i for i in in_copies if MARKS.get(kind, "") in rows[i]] or in_copies
        i, new = pool[int(rng.integers(len(pool)))], list(rows)
        if kind == "delete":
            del new[i]
        elif kind == "indent":
            new[i] = rows[i][2:] if indent(rows[i]) and rng.random() < 0.5 else "  " + rows[i]
        else:
            new[i] = changed_row(rows[i], kind, goals, rng)
        yield kind, "\n".join(head + new) + "\n"


class TestMutants:
    def test_same_verdicts_or_errors_as_the_reference(self, corpus):
        rng = np.random.default_rng(2027)
        sources = [(sig, trace) for sig, trace in corpus if not trace.startswith("{")
                   and len(trace) < 50_000 and repeated_copies(rows_of(trace)[1])]
        assert len(sources) >= 20
        outcomes, count = set(), 0
        for sig, trace in sources:
            for kind, mutant in mutants(trace, rng, 6):
                _, verdict = assert_same_decodes(sig, mutant)
                outcomes.add((kind, "error" if verdict is None else verdict.ok))
                count += 1
        assert count >= 400
        # each kind of mutant was caught, by the decoder or by the kernel
        assert {kind for kind, ok in outcomes if ok is not True} == set(KINDS)
        assert any(ok is True for _, ok in outcomes)

    def test_a_changed_copy_of_a_shared_family_is_rejected_where_it_stands(self):
        spec = load_spec(ROTATION)
        tree = ProofSession(spec.sig, spec.axioms).prove(*spec.goals[0]).tree
        gamma = tree.conclusion.gamma
        for trace in (serialize_trace(gamma, tree), trace_to_json(gamma, tree)):
            parts = trace.split("1*v1")
            assert len(parts) == 9  # one family under each of the eight SpanClosures
            forged = "1*v1".join(parts[:3]) + "2*v1" + "1*v1".join(parts[3:])
            _, verdict = assert_same_decodes(spec.sig, forged)
            assert (verdict.ok, verdict.path) == (False, (2,))
            assert verdict.reason == "SpanClosure: premise family is not orthonormal"


# ------------------------------------------------------------- term reading

def read_terms(texts):
    """The terms the decoder reads for the texts, in order (premises of one
    JSON node keep every text as written), or its error's text."""
    doc = {"version": 1, "gamma": [], "proof": {
        "rule": "ConjI", "term": "0", "goal": "p", "certificate": None, "premises": [
            {"rule": "Monotonicity", "term": text, "goal": "p", "certificate": None,
             "premises": []} for text in texts]}}
    result = decode(json.dumps(doc))
    return result if isinstance(result, str) else [p.conclusion.k for p in result[1].premises]


def parsed_terms(texts):
    """What sx.parse_term gives for the texts, or the first error's text."""
    try:
        return [sx.parse_term(text) for text in texts]
    except ParseError as e:
        return f"ParseError: {e}"


def assert_read_as_parsed(texts):
    got, want = read_terms(texts), parsed_terms(texts)
    assert got == want and [type(t) for t in got] == [type(t) for t in want]


class TestTermReading:
    def test_formatted_random_terms_and_their_subterms(self):
        from gen import random_ground_term
        rng = np.random.default_rng(2028)
        symbols = ["u0", "g", "m0", "i", "store", "f'"]
        applied = 0
        for _ in range(300):
            t = random_ground_term(rng, int(rng.integers(1, 6)), ["w0", "v1"], symbols)
            subs = list(sx.walk(t, sx.TERM))[::-1]  # the innermost first
            texts = [sx.format_term(s) for s in subs]
            assert_read_as_parsed(texts)
            assert read_terms(texts)[-1] == t
            applied += isinstance(t, sx.TApp)
        assert applied >= 30

    @pytest.mark.parametrize("texts", [
        ["0", "vec(0)"], ["vec(1, 0)"], ["1, 0", "vec(1, 0)"], ["v0", "i(v0)"],
        ["v0", "f (v0)"], ["v0 # c", "f(v0 # c)"], ["v0", " f(v0)"], ["v0", "f(v0) "],
        ["v0", "store(v0)"], ["v0", "fé(v0)"], ["v0", "é(v0)"], ["v0 ", "f(v0 )"],
        ["a", "f(a) + g(b)"], ["b", "a", "f(a) + g(b)"], ["a", "f(a)*2"], ["a", "2*f(a)"],
        ["a", "f(a)(b)"], ["a", "f((a))"], ["(a)", "f((a))"], ["a", "f(a", "f(a))"]],
        ids=repr)
    def test_edge_cases(self, texts):
        assert_read_as_parsed(texts)

    @pytest.mark.parametrize("texts", [["a", "f(ab"], ["a", "f(a)b"], ["a", "g(a) + h(a)"]],
                             ids=repr)
    def test_an_argument_read_before_is_taken_only_up_to_the_last_parenthesis(self, texts):
        assert_read_as_parsed(texts)


# --------------------------------------------------------- sentence reading

def read_goals(texts):
    """The goals the decoder reads for the texts, in order (premises of one
    JSON node keep every text as written), or its error's text."""
    doc = {"version": 1, "gamma": [], "proof": {
        "rule": "ConjI", "term": "v0", "goal": "p", "certificate": None, "premises": [
            {"rule": "Monotonicity", "term": "v0", "goal": text, "certificate": None,
             "premises": []} for text in texts]}}
    result = decode(json.dumps(doc))
    return result if isinstance(result, str) else [p.conclusion.goal for p in result[1].premises]


def parsed_sentences(texts):
    """What sx.parse_sentence gives for the texts, or the first error's text."""
    try:
        return [sx.parse_sentence(text) for text in texts]
    except ParseError as e:
        return f"ParseError: {e}"


def node_types(node):
    return [type(n) for n in sx.walk(node)]


def assert_goals_read_as_parsed(texts):
    got, want = read_goals(texts), parsed_sentences(texts)
    assert got == want
    if not isinstance(want, str):
        assert [node_types(s) for s in got] == [node_types(s) for s in want]


def mutant(text, rng):
    """The text with one character deleted, inserted or replaced."""
    i = int(rng.integers(len(text) + 1))
    c = str(rng.choice(list("()[]<>@!~;|*,. #\tpa0")))
    kind = rng.integers(3)
    return text[:i] + (c if kind else "") + text[i + (kind != 1):]


class TestSentenceReading:
    def test_formatted_random_sentences_their_subsentences_and_mutants(self):
        from gen import random_closed_sentence, random_mixed_sentence
        rng = np.random.default_rng(2029)
        closed, plain, unitary, measure = ["r", "s'"], ["p", "i"], ["u0", "g", "store"], ["m0"]
        prefixed = mutants = 0
        for n in range(400):
            if n % 2:
                s = random_mixed_sentence(rng, int(rng.integers(1, 7)), closed, plain,
                                          unitary, measure)
            else:
                s = random_closed_sentence(rng, int(rng.integers(1, 7)), closed, unitary)
            texts = [sx.format_sentence(sub) for sub in sx.walk(s, sx.SENTENCE)]
            for order in (texts, texts[::-1]):  # the outermost first, the innermost first
                assert_goals_read_as_parsed(order)
            assert read_goals(texts[::-1])[-1] == s
            for _ in range(3):
                texts.append(mutant(texts[0], rng))
                assert_goals_read_as_parsed(texts[::-1])
                mutants += isinstance(parsed_sentences(texts[-1:]), str)
            prefixed += type(s) in (sx.Nec, sx.At, sx.Not, sx.QNot)
        assert prefixed >= 100 and mutants >= 300

    def test_decoded_goals_share_their_subsentences(self):
        spec = load_spec(os.path.join(HERE, os.pardir, "demos", "teleport.hdql"))
        tree = ProofSession(spec.sig, spec.axioms).prove(*spec.goals[0]).tree
        for trace in (serialize_trace(tree.conclusion.gamma, tree),
                      trace_to_json(tree.conclusion.gamma, tree)):
            comps = [n for n in proof_nodes(decode(trace)[1]) if n.rule is calculus.RuleId.COMP_E]
            assert len(comps) >= 8
            for node in comps:  # [a ; b] S from [a] [b] S: each part is one object
                goal, premise = node.conclusion.goal, node.premises[0].conclusion.goal
                assert premise.action is goal.action.left
                assert premise.body.action is goal.action.right
                assert premise.body.body is goal.body

    def test_the_parser_reads_only_the_leaves(self, monkeypatch):
        goal = "[(a | b)* ; (c ; d)* | e] <f> ~!@(g(h(v0))) @(g(v0) + h(v1)) p"
        texts = [goal, "[e] " + goal]
        want, parsed = parsed_sentences(texts), []
        for name in ("parse_sentence", "parse_action", "parse_term"):
            parse = getattr(sx, name)
            monkeypatch.setattr(sx, name, lambda text, parse=parse: parsed.append(text)
                                or parse(text))
        assert read_goals(texts) == want
        assert sorted(parsed) == ["(a | b)*", "(c ; d)*", "g(v0) + h(v1)", "p", "v0"]

    @pytest.mark.parametrize("texts", [
        ["[a] p /\\ q"], ["p /\\ q", "[a] p /\\ q"], ["p", "[a] p /\\ q"],
        ["[a] (p /\\ q)"], ["(p /\\ q)", "[a] (p /\\ q)"], ["p", "[a]p"], ["p", "[a]  p"],
        ["[(a | b) ; c*] p"], ["[a | b ; c | d] p", "[a | b ; c] p", "[b ; c | d] p"],
        ["[store] p"], ["[é] p"], ["[aé] p"], ["f(v0)", "@(f(v0)) p"], ["@(vec(1, 0)) p"],
        ["@(v0 # c) p"], ["v0 # c", "@(v0 # c) p"], ["<a> p"], ["[a] p", "~[a] p"],
        ["[a] store x . p"], ["store x . p", "[a] store x . p"], ["[a] until(b, p, q)"],
        ["until(b, p, q)", "[a] until(b, p, q)"], ["[a] (p)"], ["[a] ((p))"],
        ["store w0 . @(w0) p", "@(w0) p"], ["@(w0) p", "store w0 . @(w0) p"],
        ["[a]"], ["[a] "], ["[a)] p"], ["[(a] p"], ["[a;] p"], ["[;a] p"], ["[a|] p"],
        ["[|a] p"], ["<a => b> p"], ["@((v0) p"], ["@(v0)) p"], ["[a] p q"], ["!~p"],
        ["p (+) q", "[a] p (+) q"], ["[a] (+) p"], ["[a] [b] p => q"], ["@(v0) here(v0)"],
        ["@(2*v0 + v1) p"], ["@(f(v0) + g(v1)) [a*] !p"], ["[a]\tp"], ["[a]\x0cp"],
        ["[a\u00b7] p"], ["[a\x0c; b] p"], ["[a |\x0cb] p"],
        ["!p"], ["~p"], ["[a] p"], ["<b> p"], ["@(v0) p"], ["here(v0)"], ["until(a, p, q)"],
        ["[a | b | c] p"], ["[a | (b | c)] p"], ["[a ; b ; c] p"], ["[(a ; b) ; c] p"]],
        ids=repr)
    def test_edge_cases(self, texts):
        assert_goals_read_as_parsed(texts)

    def test_a_long_prefix_run_is_read_in_memory_linear_in_its_length(self):
        goal = "!~" * 5000 + "p"
        tracemalloc.start()
        try:
            (got,), peak = read_goals([goal]), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = sx.parse_sentence(goal)
        assert sx.format_sentence(got) == goal and node_types(got) == node_types(want)
        assert peak < 2 ** 23  # 8 MB: the 10,000 suffixes of the goal take 50 MB

    def test_deep_prefix_chains_and_a_long_composition_in_one_row(self, tmp_path):
        from test_cli import run
        goal = "@(w0) " * 3000 + "[s0] " * 3000 + "[" + ";".join(["s1"] * 700) + "] p"
        trace = f"HDQL-TRACE 1\ngamma 1\n  @(w0) p\nproof\nMonotonicity | w0 | {goal}\n"
        got, want = decode(trace)[1].conclusion.goal, sx.parse_sentence(goal)
        assert sx.format_sentence(got) == sx.format_sentence(want)
        assert node_types(got) == node_types(want)
        (tmp_path / "deep.hdql").write_text(
            "SPACE 2\nVECTORS\n  w0 = (1, 0)\nUNITARY\n  s0 = [0, 1; 1, 0]\n"
            "  s1 = [0, 1; 1, 0]\nPROPS\n  p\nAXIOMS\n  @(w0) p\nGOAL AT w0 PROVE p\n")
        (tmp_path / "deep.trace").write_text(trace)
        code, output = run(["recheck", str(tmp_path / "deep.hdql"), str(tmp_path / "deep.trace")])
        assert code == 1 and output.startswith("trace rejected: the root @(w0) @(w0) ")


# ------------------------------------------------------------- kernel counts

def star_proof(order):
    spec = star_spec(order)
    sig, gamma, tree = proofs(spec.sig, spec.axioms, spec.goals)[0]
    assert tree.certificate == order - 1
    return sig, gamma, tree


class TestKernelCounts:
    def test_a_decoded_star_trace_has_as_many_node_checks_as_the_provers_tree(
            self, monkeypatch):
        sig, gamma, tree = star_proof(16)
        calls = []
        check_node = calculus._check_node
        monkeypatch.setattr(calculus, "_check_node", lambda sig, t, budget, path, memo:
                            calls.append(t) or check_node(sig, t, budget, path, memo))
        counts = []
        for trace in (None, serialize_trace(gamma, tree), trace_to_json(gamma, tree)):
            calls.clear()
            assert check_proof(sig, tree if trace is None else decode(trace)[1]).ok
            counts.append(len(calls))
        assert counts == [len(set(proof_nodes(tree)))] * 3

    def test_symbol_applications_grow_linearly_in_the_order(self, monkeypatch):
        apply_symbol, calls = sg.apply_symbol, []
        monkeypatch.setattr(sg, "apply_symbol", lambda *a: calls.append(a[1]) or apply_symbol(*a))
        counts = {}
        for order in (8, 16, 24):
            sig, gamma, tree = star_proof(order)
            for trace in (None, serialize_trace(gamma, tree), trace_to_json(gamma, tree)):
                calls.clear()
                assert check_proof(sig, tree if trace is None else decode(trace)[1]).ok
                counts.setdefault(order, set()).add(len(calls))
        assert all(len(c) == 1 for c in counts.values())  # the same for the three trees
        (a,), (b,), (c,) = counts[8], counts[16], counts[24]
        assert c - b == b - a and a <= 2 * 8


# ------------------------------------------------------------- block reuse

def reading(monkeypatch):
    """The rows that the text decoder reads from now on, in order, past their indent."""
    read, text_fields = [], specfile._text_fields
    monkeypatch.setattr(specfile, "_text_fields", lambda raw: read.append(raw) or text_fields(raw))
    return read


def star_rows(order):
    """(signature, header lines, node rows) of the [g*] r proof's text trace."""
    sig, gamma, tree = star_proof(order)
    return (sig, *rows_of(serialize_trace(gamma, tree)))


def joined(head, rows):
    return "\n".join(head + rows) + "\n"


class TestBlockReuse:
    def test_a_block_under_another_clause_set_is_read_again(self, monkeypatch):
        spec = load_spec_text(
            "SPACE 2\nVECTORS\n  v0 = (1, 0)\nPROPS\n  p\n  q\n  s\nAXIOMS\n  @(v0) q\n"
            "GOAL AT v0 PROVE ((p => q /\\ q) /\\ (s => q /\\ q)) /\\ (p => q /\\ q)\n")
        sig, gamma, tree = proofs(spec.sig, spec.axioms, spec.goals)[0]
        trace = serialize_trace(gamma, tree)
        inner = "ConjI | v0 | q /\\ q"  # under Imp p => q /\ q, then under Imp s => ...
        assert trace.count("      " + inner + "\n") == 2
        read = reading(monkeypatch)
        _, back = decode(trace)
        # both inner ConjI blocks and the outer one are read, the second RetE block of each not
        assert read.count(inner) == 3 and len(read) == len(rows_of(trace)[1]) - 6
        conj_p, conj_s = (imp.premises[0] for imp in back.premises[0].premises)
        assert conj_s.conclusion.gamma == gamma + (sx.parse("@(v0) s"),)
        assert conj_p.premises[0] is conj_p.premises[1]
        assert conj_s.premises[0] is conj_s.premises[1] is not conj_p.premises[0]
        _, verdict = assert_same_decodes(sig, trace)
        assert verdict.ok

    @pytest.mark.parametrize("extra", ["      RetE | v1 | r", "          Monotonicity | v1 | r"],
                             ids=["a second premise", "a premise of its last row"])
    def test_a_copy_that_goes_on_deeper_is_not_cut_short(self, extra):
        sig, head, rows = star_rows(3)
        assert rows[9] == rows[2] == "    Mult | 1*v1 | r" and rows[10:12] == rows[3:5]
        trace = joined(head, rows[:12] + [extra] + rows[12:])
        _, back = decode(trace)
        first, second = back.premises[0].premises[0], back.premises[1].premises[0]
        assert second is not first
        assert len(list(proof_nodes(second))) == len(list(proof_nodes(first))) + 1
        _, verdict = assert_same_decodes(sig, trace)
        assert not verdict.ok

    def test_a_repeated_block_can_end_the_trace(self, monkeypatch):
        sig, head, rows = star_rows(3)
        assert rows[-3:] == rows[5:8]
        read = reading(monkeypatch)
        _, back = decode(joined(head, rows))
        assert len(read) == 10  # the root, the three SpanClosure rows, the first family
        assert rows[-3].lstrip() not in read[8:]
        assert back.premises[2].premises[1] is back.premises[0].premises[1]
        _, verdict = assert_same_decodes(sig, joined(head, rows))
        assert verdict.ok
        # one line short, the last copy is not the earlier block: it is read
        read.clear()
        _, back = decode(joined(head, rows[:-1]))
        assert read[-2:] == [row.lstrip() for row in rows[-3:-1]]
        assert back.premises[2].premises[1] is not back.premises[0].premises[1]
        assert_same_decodes(sig, joined(head, rows[:-1]))

    @pytest.mark.parametrize("row, message", [
        ("    Mul | 1*v0 | r", "node 12: unknown rule 'Mul'"),
        ("StarI | v0 | [g*] r [n=2]", "node 12: bad indent or a second root"),
        ("            Mult | 1*v0 | r", "node 12: bad indent or a second root"),
        ("    Mult 1*v0 r", "bad node row 'Mult 1*v0 r'")], ids=repr)
    def test_a_bad_row_after_a_reused_block_keeps_its_message(self, row, message):
        sig, head, rows = star_rows(3)
        assert rows[9:12] == rows[2:5] and rows[12] == "    Mult | 1*v0 | r"
        trace = joined(head, rows[:12] + [row] + rows[13:])
        assert decode(trace) == f"HdqlError: {message}"
        assert_same_decodes(sig, trace)

    def test_an_order_32_star_trace_reads_under_a_third_of_its_rows(self, monkeypatch):
        sig, head, rows = star_rows(32)
        read = reading(monkeypatch)
        decode(joined(head, rows))
        assert 3 * len(read) < len(rows)
        assert len(read) == 1 + 32 + 6  # the root, the SpanClosure rows, the first family
        _, verdict = assert_same_decodes(sig, joined(head, rows))
        assert verdict.ok


# -------------------------------------------------------- JSON block reuse

def opened(monkeypatch):
    """The conclusions of the nodes that the decoder reads from now on, in order."""
    read, sequent = [], specfile.Sequent
    monkeypatch.setattr(specfile, "Sequent", lambda *a: read.append(sequent(*a)) or read[-1])
    return read


def shape(tree):
    """Each place's node, as the index of its first place among the distinct nodes."""
    first = {}
    return [first.setdefault(n, len(first)) for n in proof_nodes(tree)]


def star_json(order):
    """(signature, JSON trace) of the [g*] r proof."""
    sig, gamma, tree = star_proof(order)
    return sig, trace_to_json(gamma, tree)


def rotation_json():
    spec = load_spec(ROTATION)
    tree = ProofSession(spec.sig, spec.axioms).prove(*spec.goals[0]).tree
    return spec.sig, trace_to_json(tree.conclusion.gamma, tree)


def in_copy(trace, old, new, i):
    """The trace with the i-th occurrence of old replaced by new."""
    parts = trace.split(old)
    return old.join(parts[:i + 1]) + new + old.join(parts[i + 1:])


class TestJsonBlockReuse:
    def test_a_block_under_another_clause_set_is_read_again(self, monkeypatch):
        spec = load_spec_text(
            "SPACE 2\nVECTORS\n  v0 = (1, 0)\nPROPS\n  p\n  q\n  s\nAXIOMS\n  @(v0) q\n"
            "GOAL AT v0 PROVE ((p => q /\\ q) /\\ (s => q /\\ q)) /\\ (p => q /\\ q)\n")
        sig, gamma, tree = proofs(spec.sig, spec.axioms, spec.goals)[0]
        trace = trace_to_json(gamma, tree)
        read = opened(monkeypatch)
        _, back = decode(trace)
        # not read: the second RetE block (2 nodes) under each inner ConjI, and the last
        # Imp block (6 nodes), which is the first one's at another depth, same clause set
        inner = [s for s in read if s.goal == sx.parse("q /\\ q")]
        assert len(inner) == 2 and len(read) == sum(1 for _ in proof_nodes(back)) - 2 * 2 - 6
        (imp_p, imp_s), imp_last = back.premises[0].premises, back.premises[1]
        assert imp_last is imp_p
        conj_p, conj_s = imp_p.premises[0], imp_s.premises[0]
        assert conj_s.conclusion.gamma == gamma + (sx.parse("@(v0) s"),)
        assert conj_p.premises[0] is conj_p.premises[1]
        assert conj_s.premises[0] is conj_s.premises[1] is not conj_p.premises[0]
        _, verdict = assert_same_decodes(sig, trace)
        assert verdict.ok

    @pytest.mark.parametrize("edit", ["goal", "extra premise"])
    def test_a_copy_whose_first_row_matches_but_not_what_is_below_is_read(self, edit):
        sig, trace = star_json(3)
        doc = json.loads(trace)
        first, second = (p["premises"][0] for p in doc["proof"]["premises"][:2])
        assert first == second and first["rule"] == "Mult"
        leaf = second["premises"][0]["premises"][0]
        if edit == "goal":
            leaf["goal"] = "@(v0) r"
        else:
            leaf["premises"].append({**leaf, "premises": []})
        forged = json.dumps(doc)
        _, back = decode(forged)
        a, b = back.premises[0].premises[0], back.premises[1].premises[0]
        assert a is not b and (a.conclusion, a.rule) == (b.conclusion, b.rule)
        _, verdict = assert_same_decodes(sig, forged)
        assert not verdict.ok

    @pytest.mark.parametrize("field, value, message", [
        ("rule", "Mul", "node 15: unknown rule 'Mul'"),
        ("premises", {}, "a proof node at depth 1 lacks string 'rule', 'term' and 'goal' "
         "or list 'premises'")], ids=["rule", "premises"])
    def test_a_bad_node_after_reused_blocks_keeps_its_message(self, field, value, message):
        sig, trace = star_json(3)
        doc = json.loads(trace)
        last = doc["proof"]["premises"][2]  # after two copies of the family, each one place
        assert last["rule"] == "SpanClosure" and last["premises"][0]["rule"] == "Mult"
        last[field] = value
        forged = json.dumps(doc)
        assert decode(forged) == f"HdqlError: {message}"
        assert_same_decodes(sig, forged)

    @pytest.mark.parametrize("i", [0, 3, 7], ids=["first", "middle", "last"])
    def test_a_forged_copy_is_rejected_where_it_stands(self, i):
        sig, trace = rotation_json()
        assert trace.count('"goal": "@(v1) r"') == 8  # one family under each SpanClosure
        forged = in_copy(trace, '"goal": "@(v1) r"', '"goal": "@(v0) r"', i)
        _, verdict = assert_same_decodes(sig, forged)
        assert (verdict.ok, verdict.path) == (False, (i, 0, 0))
        assert verdict.reason == "RetE: conclusion is not a component of the premise"

    @pytest.mark.parametrize("cert", ["true", "1.0", "1e0"])
    def test_a_copy_that_equals_a_block_only_by_number_value_keeps_its_error(self, cert):
        block = {"rule": "ConjI", "term": "v0", "goal": "p /\\ p", "certificate": None,
                 "premises": [{"rule": "Monotonicity", "term": "v0", "goal": "p",
                               "certificate": 1, "premises": []}] * 2}
        trace = json.dumps({"version": 1, "gamma": ["@(v0) p"], "proof": {
            "rule": "ConjI", "term": "v0", "goal": "(p /\\ p) /\\ (p /\\ p)",
            "certificate": None, "premises": [block, block]}})
        forged = in_copy(trace, '"certificate": 1', f'"certificate": {cert}', 3)
        assert json.loads(forged) == json.loads(trace)  # == takes true and 1.0 for 1
        message = decode(forged)
        assert message.startswith("HdqlError: certificate ") and "is not a whole number" in message
        assert decode_by_reference(forged) == message

    def test_a_clause_set_that_names_true_keeps_one_read_per_distinct_node(self, monkeypatch):
        sig, trace = star_json(24)
        doc = json.loads(trace)
        doc["gamma"].append("@(v0) trueish")
        forged = json.dumps(doc)
        read = opened(monkeypatch)
        _, back = decode(forged)
        assert len(read) == len(set(proof_nodes(back))) == 1 + 24 + 6
        monkeypatch.undo()
        assert shape(back) == shape(decode(trace)[1])
        _, verdict = assert_same_decodes(sig, forged)
        assert verdict.ok

    def test_indented_json_decodes_to_the_same_dag(self):
        for sig, trace in (star_json(12), rotation_json()):
            (gamma, tree), (_, again) = decode(trace), decode(json.dumps(json.loads(trace),
                                                                         indent=2))
            assert places(again) == places(tree) and shape(again) == shape(tree)
            assert trace_to_json(gamma, again) == trace
            assert_same_decodes(sig, json.dumps(json.loads(trace), indent="\t"))

    def test_an_order_32_star_trace_builds_one_node_per_distinct_node(self, monkeypatch):
        sig, trace = star_json(32)
        built, proof_tree = [], specfile.ProofTree
        monkeypatch.setattr(specfile, "ProofTree", lambda *a: built.append(proof_tree(*a))
                            or built[-1])
        read = opened(monkeypatch)
        _, back = decode(trace)
        distinct = set(proof_nodes(back))
        assert len(built) == len(distinct) == 1 + 32 + 6  # the root, the SpanClosures, a family
        assert len(read) == len(distinct) and set(built) == distinct
        assert 5 * len(read) < sum(1 for _ in proof_nodes(back))
        monkeypatch.undo()
        _, verdict = assert_same_decodes(sig, trace)
        assert verdict.ok
