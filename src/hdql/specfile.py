"""The textual problem-file format and the proof-trace wire formats.

A problem file is a sequence of keyword sections::

    SPACE 8                       # space dimension; sections in any order
    VECTORS                       # named states
      w0 = (0.6, 0, 0, 0.8)      # complex coordinates, a+bi literals
    UNITARY                       # gates: tensor expression or matrix
      u0 = CNOT (x) I2            # built-ins: H, X, Y, Z, CNOT, I<n>
      g  = [0, 1; 1, 0]           # row-major rows separated by ';'
    MEASURE                       # measurement symbols with their subspace
      q0 = { w0, (0, 1, 0, 0) }   # basis: vector names or literals
    PROPS
      p
      r closed
    AXIOMS                        # one sentence per line
      @(w0) p
    GOAL AT w0 PROVE [u0] p       # repeatable
    VALUATION                     # only needed by eval
      p = { w0 }
      r = span { w0 }

``#`` starts a comment; blank lines are ignored. Section keywords must
start a line. A load reads each distinct numeral text once; ``validate``
checks the gates, and the measurement bases, in stacked products. Proof
traces serialize to a line-oriented indented tree, one place per line
(``rule | term | sentence`` with an optional certificate suffix), or to a
JSON mirror of the same fields; both round-trip exactly. Both writers share
one pre-order walk and write a shared subproof again by copying its first block;
one decoder rebuilds the tree, sharing equal subtrees, and reads each repeated
block, of text rows or JSON (by an exact ==), once; ``syntax.reader`` reads texts.
JSON traces are written compact on one line; indented JSON is still read.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from . import hilbert as hl
from . import syntax as sx
from .calculus import ProofTree, RuleId, Sequent, premise_hypotheses, proof_size
from .errors import HdqlError, ParseError
from .hilbert import DEFAULT_TOL, Subspace
from .semantics import FiniteVectors, QuantumModel, Region
from .signature import SignatureInstance, validate
from .syntax import _split_top

__all__ = [
    "LoadedSpec", "SpecLoadError", "load_spec", "load_spec_text",
    "valuation_model", "serialize_trace", "deserialize_trace",
    "trace_to_json", "trace_from_json",
]

_SECTIONS = ("SPACE", "VECTORS", "UNITARY", "MEASURE", "PROPS", "AXIOMS",
             "GOAL", "VALUATION")

MAX_SPACE = 1024  # the largest SPACE: a gate of that dimension is 16 MB

_BUILTIN_GATES = {"H": hl.H, "X": hl.X, "Y": hl.Y, "Z": hl.Z, "CNOT": hl.CNOT}


class SpecLoadError(HdqlError):
    """Problem-file errors, each located by line number."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(eq=False)
class LoadedSpec:
    sig: SignatureInstance
    axioms: list[sx.Sentence]
    goals: list[tuple[sx.Term, sx.Sentence]]
    valuation: dict[str, Region] | None = None


def _numbers(parts: list[str], where: str, errors: list[str],
             numerals) -> list[complex] | None:
    """The finite complex literals of a comma-split list; None after a located error."""
    try:
        nums = [numerals(p.strip()) for p in parts]
    except HdqlError as e:
        errors.append(f"{where}: {e}")
        return None
    if all(map(cmath.isfinite, nums)):
        return nums
    bad = next(p.strip() for p, c in zip(parts, nums) if not cmath.isfinite(c))
    errors.append(f"{where}: number {bad} is not finite")
    return None


def _parse_coords(text: str, where: str, errors: list[str], numerals) -> np.ndarray | None:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        errors.append(f"{where}: expected a parenthesized coordinate list")
        return None
    coords = _numbers(_split_top(text[1:-1], ","), where, errors, numerals)
    try:
        return None if coords is None else hl.vector(coords)
    except HdqlError as e:  # finite coordinates whose norm overflows
        errors.append(f"{where}: {e}")
        return None


def _parse_matrix(text: str, where: str, errors: list[str], numerals) -> np.ndarray | None:
    rows = [row.split(",") for row in text.strip()[1:-1].split(";")]
    entries = _numbers([c for row in rows for c in row], where, errors, numerals)
    if entries is None:
        return None
    lengths = {len(r) for r in rows}
    if len(lengths) != 1 or len(rows) != lengths.pop():
        errors.append(f"{where}: matrix is not square")
        return None
    return np.array(entries, dtype=complex).reshape(len(rows), len(rows))


def _parse_gate_expr(text: str, where: str, errors: list[str], dim: int,
                     numerals) -> np.ndarray | None:
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            errors.append(f"{where}: unterminated matrix literal")
            return None
        return _parse_matrix(text, where, errors, numerals)
    factors = [f.strip() for f in text.split("(x)")]
    sizes = []
    for f in factors:
        if f in _BUILTIN_GATES:
            sizes.append(len(_BUILTIN_GATES[f]))
        elif re.fullmatch(r"I\d+", f):
            sizes.append(int(f[1:]))
        else:
            errors.append(f"{where}: unknown gate factor {f!r} "
                          "(built-ins: H, X, Y, Z, CNOT, I<n>)")
            return None
    if math.prod(sizes) > dim:  # checked before any matrix is built
        errors.append(f"{where}: gate of size {math.prod(sizes)} in space of dim {dim}")
        return None
    return functools.reduce(hl.tensor_op, [_BUILTIN_GATES[f] if f in _BUILTIN_GATES
                                           else hl.identity(n) for f, n in zip(factors, sizes)])


def _braced(text: str, where: str, errors: list[str], noun: str) -> list[str] | None:
    """The items of a braced list '{ a, b, ... }'; None after a located error."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        errors.append(f"{where}: expected a braced {noun} list")
        return None
    return [i.strip() for i in _split_top(text[1:-1], ",") if i.strip()]


def load_spec_text(text: str, tolerance: float = DEFAULT_TOL) -> LoadedSpec:
    """Parse and validate a problem file given as text: one pass files each
    content line under its section, then the sections are read in dependency
    order. Raises SpecLoadError carrying every located problem at once.
    """
    errors: list[str] = []
    dim: int | None = None
    numerals = functools.cache(sx.parse_complex)  # a teleport file has 104 numerals, of 6 texts
    filed: dict[str, list[tuple[str, str]]] = {s: [] for s in _SECTIONS}  # (where, text)
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        head = line.split(None, 1)[0]
        if head in _SECTIONS:
            section = head
            rest = line[len(head):].strip()
            if head == "SPACE":
                try:
                    dim = int(rest)
                    if dim > MAX_SPACE:  # refused before any array of that size is made
                        errors.append(f"{where}: SPACE {dim} exceeds the limit {MAX_SPACE}")
                    elif dim < 1:
                        errors.append(f"{where}: SPACE {dim} is not positive")
                except ValueError:
                    errors.append(f"{where}: SPACE needs an integer dimension")
            elif head == "GOAL":
                filed["GOAL"].append((where, rest))
            elif rest:
                errors.append(f"{where}: unexpected text after {head}")
        elif section is None:
            errors.append(f"{where}: content before any section "
                          "(missing SPACE header?)")
        elif section in ("SPACE", "GOAL"):
            errors.append(f"{where}: stray content in section {section}")
        else:
            filed[section].append((where, line))

    vectors: dict[str, np.ndarray] = {}
    for where, line in filed["VECTORS"]:
        name, _, rhs = line.partition("=")
        v = _parse_coords(rhs, where, errors, numerals)
        if v is not None:
            vectors[name.strip()] = v
    props: dict[str, bool] = {}  # name -> closed
    for where, line in filed["PROPS"]:
        parts = line.split()
        if len(parts) == 1 or len(parts) == 2 and parts[1] == "closed":
            props[parts[0]] = len(parts) == 2
        else:
            errors.append(f"{where}: expected 'name' or 'name closed'")
    bases: dict[str, tuple[str, list[str]]] = {}  # of a measurement's last braced line
    for where, line in filed["MEASURE"]:
        name, _, rhs = line.partition("=")
        items = _braced(rhs, where, errors, "basis")
        if items is not None:
            bases[name.strip()] = where, items
    if dim is None:
        errors.append("missing SPACE section with the space dimension")
    if dim is None or not 1 <= dim <= MAX_SPACE:  # nothing further can be sized
        raise SpecLoadError(errors)
    unitaries: dict[str, np.ndarray] = {}
    for where, line in filed["UNITARY"]:
        name, _, rhs = line.partition("=")
        m = _parse_gate_expr(rhs, where, errors, dim, numerals)
        if m is not None:
            unitaries[name.strip()] = m

    def states(items: list[str], where: str) -> list[np.ndarray]:
        """The states a braced list's items name or spell out, of the space's dimension."""
        out = []
        for item in items:
            if item.startswith("("):
                v = _parse_coords(item, where, errors, numerals)
            elif (v := vectors.get(item)) is None:
                errors.append(f"{where}: unknown vector name {item!r}")
            if v is not None and v.shape[0] != dim:
                errors.append(f"{where}: state of dim {v.shape[0]} in space of dim {dim}")
            elif v is not None:
                out.append(v)
        return out

    measurements: dict[str, Subspace] = {}
    for name, (where, items) in bases.items():
        basis = states(items, where)
        sub = measurements[name] = hl.orthonormalize(basis, dim=dim, tol=tolerance)
        if sub.rank < len(basis):
            errors.append(
                f"measurement {name}: basis has duplicate or linearly "
                f"dependent vectors ({len(basis)} given, rank {sub.rank})")

    sig = SignatureInstance(
        dim=dim, unitaries=unitaries, measurements=measurements,
        named_vectors=vectors,
        props=frozenset(props),
        closed_props=frozenset(p for p, c in props.items() if c),
        tol=tolerance)
    for violation in validate(sig):
        errors.append(f"validation: {violation}")

    declared = {sx.Prop: ("proposition", set(props)),  # in the order their errors come
                sx.ASym: ("operation symbol", set(unitaries) | set(measurements)),
                sx.Name: ("vector name", set(vectors))}

    def check_resolved(sentence: sx.Sentence, where: str) -> None:  # in one walk
        used, literals = {cls: set() for cls in declared}, []
        for n in sx.walk(sentence):
            if (cls := type(n)) in used:
                used[cls].add(n.name)
            elif cls is sx.TApp:
                used[sx.ASym].add(n.sym)
            elif cls is sx.VecLit:
                literals.append(n)
        for cls, (noun, names) in declared.items():
            for name in sorted(used[cls] - names):
                errors.append(f"{where}: undeclared {noun} {name!r}")
        for n in literals:
            if len(n.coords) != dim:
                errors.append(f"{where}: vector literal of dim {len(n.coords)} "
                              f"in space of dim {dim}")
            else:
                try:
                    hl.vector(n.coords)
                except HdqlError as e:
                    errors.append(f"{where}: vector literal: {e}")

    axioms: list[sx.Sentence] = []
    for where, line in filed["AXIOMS"]:
        try:
            sentence = sx.parse_sentence(line)
        except ParseError as e:
            errors.append(f"{where}: {e}")
            continue
        check_resolved(sentence, where)
        axioms.append(sentence)

    goals: list[tuple[sx.Term, sx.Sentence]] = []
    for where, rest in filed["GOAL"]:
        m = re.fullmatch(r"AT\s+(.*?)\s+PROVE\s+(.*)", rest)
        if not m:
            errors.append(f"{where}: GOAL must read 'GOAL AT <term> "
                          "PROVE <sentence>'")
            continue
        try:
            term = sx.parse_term(m.group(1))
            sentence = sx.parse_sentence(m.group(2))
        except ParseError as e:
            errors.append(f"{where}: {e}")
            continue
        check_resolved(sx.At(term, sentence), where)
        goals.append((term, sentence))

    valuation: dict[str, Region] | None = {} if filed["VALUATION"] else None
    for where, line in filed["VALUATION"]:
        name, eq, rhs = line.partition("=")
        name, rhs = name.strip(), rhs.strip()
        if not eq or name not in props:
            errors.append(f"{where}: valuation of undeclared proposition")
            continue
        is_span = rhs.startswith("span")
        items = _braced(rhs.removeprefix("span"), where, errors, "state")
        if items is None:
            continue
        vs = states(items, where)
        if is_span or props[name]:
            valuation[name] = hl.orthonormalize(vs, dim=dim, tol=tolerance)
        else:
            valuation[name] = FiniteVectors(tuple(vs))

    if errors:
        raise SpecLoadError(errors)
    return LoadedSpec(sig=sig, axioms=axioms, goals=goals, valuation=valuation)


def load_spec(path: str, tolerance: float = DEFAULT_TOL) -> LoadedSpec:
    """Load a problem file from disk; see load_spec_text."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_spec_text(fh.read(), tolerance=tolerance)


def valuation_model(spec: LoadedSpec) -> QuantumModel:
    if spec.valuation is None:
        raise HdqlError("the problem file has no VALUATION section")
    return QuantumModel(spec.sig, dict(spec.valuation))


# ----------------------------------------------------------- trace formats
#
# Both formats are thin layers over one record walk, _records, and one decoder, _build.

def _records(tree: ProofTree):
    """(depth, node, (rule, term text, sentence text, certificate), first) for
    each place in pre-order, from an explicit stack. A node object met again (a
    shared subproof) has first=False, and its subtree is not walked again. Its
    row, formatted once, is kept, and so is each AST node object's text."""
    rows, memo, stack = {}, {}, [(tree, 0)]  # rows: node -> its row
    while stack:
        node, depth = stack.pop()
        if (row := rows.get(node)) is not None:
            yield depth, node, row, False
            continue
        cert = node.certificate
        row = rows[node] = (node.rule.value, sx.format_term(node.conclusion.k, memo),
                            sx.format_sentence(node.conclusion.goal, memo),
                            cert if isinstance(cert, int) else None)
        yield depth, node, row, True
        stack += [(p, depth + 1) for p in reversed(node.premises)]


def serialize_trace(gamma, tree: ProofTree) -> str:
    """Deterministic line-oriented form of a proof tree. A node met again is
    written by copying its first block's lines, re-indented to its depth."""
    gamma = tuple(gamma)
    lines = ["HDQL-TRACE 1", f"gamma {len(gamma)}"]
    lines += ["  " + sx.format_sentence(c) for c in gamma] + ["proof"]
    blocks, size = {}, functools.cache(proof_size)  # blocks: node -> its depth, first line
    for depth, node, (rule, term, goal, cert), first in _records(tree):
        if first:
            blocks[node] = depth, len(lines)
            suffix = "" if cert is None else f" [n={cert}]"
            lines.append(f"{'  ' * depth}{rule} | {term} | {goal}{suffix}")
            continue
        d, start = blocks[node]  # its block is complete, since this place follows it
        block = lines[start:start + size(node)]
        lines += block if depth == d else ["  " * depth + line[2 * d:] for line in block]
    return "\n".join(lines) + "\n"


def trace_to_json(gamma, tree: ProofTree) -> str:
    """JSON mirror of the text trace, written compact on one line. A node met
    again is its first place's dict once more, which json.dumps writes out."""
    roots, path, dicts = [], [], {}  # path[d]: the latest dict at depth d; dicts: node -> dict
    for depth, node, (rule, term, goal, cert), first in _records(tree):
        item = dicts[node] = {"rule": rule, "term": term, "goal": goal, "certificate": cert,
                              "premises": []} if first else dicts[node]
        del path[depth:]
        (path[-1]["premises"] if path else roots).append(item)
        path.append(item)
    return json.dumps({"version": 1, "gamma": [sx.format_sentence(c) for c in gamma],
                       "proof": roots[0]}) + "\n"


_RULES_BY_NAME = {r.value: r for r in RuleId}
_NO_BLOCK = 0, 0, 0, None, None
_CERT_SUFFIX = re.compile(r"(.*) \[n=(\d+)\]")


def _build(gamma_texts, records) -> tuple[tuple[sx.Sentence, ...], ProofTree]:
    """Rebuild (clause set, proof tree) from a trace's text rows or JSON node dicts.

    A row with an earlier one's texts, certificate and premise objects, over an
    equal clause set, is that row's node, so the kernel checks each distinct
    subproof once. A block (a row and the deeper rows, or a node dict) equal to an
    earlier block with premises (line for line, or by ==) under an equal clause set
    is that block's tree, read once. ``syntax.reader`` reads each distinct text once."""
    terms, term, sentences, sentence = sx.reader()  # looked up first on the rows' hot path
    gamma = tuple(map(sentence, gamma_texts))
    roots, nodes, blocks = [], {}, {}  # nodes: (row, premise objects) -> its latest node
    open_: list[tuple] = []  # per depth: row, conclusion, premises, their gamma, n, first, dict

    def close(end: int) -> None:  # end: the place after the node's block
        row, conclusion, premises, _, start, first, source = open_.pop()
        tree = nodes.get(key := (row, tuple(premises)))
        if tree is None or tree.conclusion.gamma != conclusion.gamma:  # Imp's leaves differ
            tree = nodes[key] = ProofTree(conclusion, row[0], key[1], row[3])
        if premises:  # blocks: a block's first row -> depth, n, size, tree, node dict
            blocks[first] = len(open_), start, end - start, tree, source
        (open_[-1][2] if open_ else roots).append(tree)

    rows, n = getattr(records, "rows", None), 0  # a text trace's node rows, else JSON:
    stack = [(getattr(records, "proof", None), 0)]  # node dicts to read, with their depths
    while stack if rows is None else n < len(rows):
        if rows is None:  # a JSON node dict and its record
            node, depth = stack.pop()
            first = fields = _json_fields(node, depth)
        else:  # a text row's depth, then its text past the indent
            node, raw = None, rows[n]
            depth = (len(raw) - len(first := raw.lstrip(" "))) // 2
        while len(open_) > depth:
            close(n)
        d, start, size, tree, source = blocks.get(first, _NO_BLOCK)
        if tree and 0 < d and depth == len(open_) and tree.conclusion.gamma == open_[-1][3] and (
                source == node if rows is None  # a copy of the block's dict, _JsonInt.__eq__ first
                else d == depth and rows[n + 1:n + size] == rows[start + 1:start + size]
                and (n + size == len(rows)  # the line after its lines is no deeper
                     or not rows[n + size].startswith("  " * depth + "  "))):
            open_[-1][2].append(tree)  # its rows or dicts unread
            n += size
            continue
        rule_name, term_text, goal_text, cert = fields if rows is None else _text_fields(first)
        if roots or depth != len(open_):
            raise HdqlError(f"node {n}: bad indent or a second root")
        rule = _RULES_BY_NAME.get(rule_name)
        if rule is None:
            raise HdqlError(f"node {n}: unknown rule {rule_name!r}")
        conclusion = Sequent(open_[-1][3] if open_ else gamma, terms.get(term_text)
                             or term(term_text), sentences.get(goal_text) or sentence(goal_text))
        open_.append(((rule, term_text, goal_text, cert), conclusion, [],
                      conclusion.gamma + premise_hypotheses(rule, conclusion), n, first, node))
        if rows is None:
            stack += [(p, depth + 1) for p in reversed(node["premises"])]
        n += 1
    while open_:
        close(n)
    if not roots:
        raise HdqlError("the proof has no nodes")
    return gamma, roots[0]


def _text_fields(raw: str) -> tuple:  # a node row's record but its depth
    fields = [f.strip() for f in raw.strip().split(" | ", 2)]
    if len(fields) != 3:
        raise HdqlError(f"bad node row {raw.strip()!r}")
    m = _CERT_SUFFIX.fullmatch(fields[2])
    goal, cert = (m.group(1), int(m.group(2))) if m else (fields[2], None)
    return fields[0], fields[1], goal, cert


@dataclass
class _TextRows:
    """A text trace's node rows; iterated, their records. _build reads the rows
    itself, so that it passes over a reused block's rows unread."""
    rows: list[str]

    def __iter__(self):
        return (((len(raw) - len(raw.lstrip(" "))) // 2, *_text_fields(raw)) for raw in self.rows)


def deserialize_trace(text: str) -> tuple[tuple[sx.Sentence, ...], ProofTree]:
    """Rebuild (clause set, proof tree) from the line format, each repeated block read once."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "HDQL-TRACE 1":
        raise HdqlError("not a version-1 trace")
    m = re.fullmatch(r"gamma (\d+)", lines[1].strip()) if len(lines) > 1 else None
    if not m:
        raise HdqlError("missing gamma header")
    n = int(m.group(1))
    if len(lines) < 3 + n or lines[2 + n].strip() != "proof":
        raise HdqlError(f"gamma block of {n} clauses not followed by 'proof'")
    rows = [raw for raw in lines[3 + n:] if raw.strip()]
    return _build([c.strip() for c in lines[2:2 + n]], _TextRows(rows))


class _JsonInt(int):  # a JSON integer, == only to another, as JSON tells 1 from true and 1.0
    __eq__ = lambda self, other: type(other) is _JsonInt and int.__eq__(self, other)
    __ne__ = lambda self, other: not self == other
    __hash__ = int.__hash__


def _json_fields(node, depth: int) -> tuple:  # a node dict's record but its depth
    if not (isinstance(node, dict) and isinstance(node.get("premises"), list)
            and isinstance(rule := node.get("rule"), str)
            and isinstance(term := node.get("term"), str)
            and isinstance(goal := node.get("goal"), str)):
        raise HdqlError(f"a proof node at depth {depth} lacks string 'rule', "
                        "'term' and 'goal' or list 'premises'")
    if (cert := node.get("certificate")) is not None and type(cert) is not _JsonInt:
        raise HdqlError(f"certificate {cert!r} is not a whole number")
    return rule, term, goal, None if cert is None else int(cert)  # the kernel takes an int


@dataclass
class _JsonNodes:
    """A JSON trace's root node dict; iterated, its records. _build walks the dicts
    itself, to take a copy of a block's dict by ==, exact over _JsonInt integers."""
    proof: object

    def __iter__(self):
        stack = [(self.proof, 0)]
        while stack:
            node, depth = stack.pop()
            yield depth, *_json_fields(node, depth)
            stack += [(p, depth + 1) for p in reversed(node["premises"])]


def trace_from_json(text: str) -> tuple[tuple[sx.Sentence, ...], ProofTree]:
    """Rebuild (clause set, proof tree) from the JSON mirror, compact or indented,
    each repeated subtree read once: integers read as _JsonInt keep == exact."""
    try:
        doc = json.loads(text, parse_int=_JsonInt)
    except (ValueError, RecursionError) as e:
        raise HdqlError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict) or _JsonInt(1) != doc.get("version"):
        raise HdqlError("not a version-1 JSON trace")
    gamma = doc.get("gamma")
    if not isinstance(gamma, list) or not all(isinstance(c, str) for c in gamma):
        raise HdqlError("'gamma' is not a list of sentence strings")
    return _build(gamma, _JsonNodes(doc.get("proof")))
