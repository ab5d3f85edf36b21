"""The problem-file reader from before it read a file in one pass and then
its sections in dependency order: VECTORS, PROPS and MEASURE's braces were
parsed inside the line loop, while UNITARY, AXIOMS, GOAL, VALUATION and
MEASURE's items waited in five side lists.

Kept as it was (``specfile.load_spec_text`` with the comment stripper and
the coordinate, matrix and gate readers it called), with its imports adapted,
as the reference for ``test_loader_reference.py``. The unchanged helpers and
types are the library's own.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

from hdql import hilbert as hl
from hdql import syntax as sx
from hdql.errors import HdqlError, ParseError
from hdql.hilbert import DEFAULT_TOL, Subspace
from hdql.semantics import FiniteVectors, Region
from hdql.signature import SignatureInstance, validate
from hdql.specfile import (_BUILTIN_GATES, _SECTIONS, MAX_SPACE, LoadedSpec, SpecLoadError,
                           _split_top)


def _strip(line: str) -> str:
    if "#" in line:
        line = line[:line.index("#")]
    return line.strip()


def _parse_coords(text: str, where: str, errors: list[str]) -> np.ndarray | None:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        errors.append(f"{where}: expected a parenthesized coordinate list")
        return None
    try:
        coords = [sx.parse_complex(c.strip())
                  for c in _split_top(text[1:-1], ",")]
    except (ParseError, HdqlError) as e:
        errors.append(f"{where}: {e}")
        return None
    return hl.vector(coords)


def _parse_matrix(text: str, where: str, errors: list[str]) -> np.ndarray | None:
    body = text.strip()[1:-1]
    rows = []
    try:
        for row in body.split(";"):
            rows.append([sx.parse_complex(c.strip()) for c in row.split(",")])
    except (ParseError, HdqlError) as e:
        errors.append(f"{where}: {e}")
        return None
    lengths = {len(r) for r in rows}
    if len(lengths) != 1 or len(rows) != lengths.pop():
        errors.append(f"{where}: matrix is not square")
        return None
    return np.array(rows, dtype=complex)


def _parse_gate_expr(text: str, where: str, errors: list[str], dim: int) -> np.ndarray | None:
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            errors.append(f"{where}: unterminated matrix literal")
            return None
        return _parse_matrix(text, where, errors)
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



def load_spec_text(text: str, tolerance: float = DEFAULT_TOL) -> LoadedSpec:
    """Parse and validate a problem file given as text.

    Raises SpecLoadError carrying every located problem at once.
    """
    errors: list[str] = []
    dim: int | None = None
    vectors: dict[str, np.ndarray] = {}
    unitaries: dict[str, np.ndarray] = {}
    measure_raw: dict[str, list] = {}
    props: dict[str, bool] = {}
    gate_lines: list[tuple[int, str, str]] = []
    axiom_lines: list[tuple[int, str]] = []
    goal_lines: list[tuple[int, str]] = []
    valuation_lines: list[tuple[int, str]] = []

    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head in _SECTIONS:
            section = head
            rest = line[len(head):].strip()
            if head == "SPACE":
                try:
                    dim = int(rest)
                    if dim > MAX_SPACE:  # refused before any array of that size is made
                        errors.append(f"line {lineno}: SPACE {dim} exceeds the limit {MAX_SPACE}")
                except ValueError:
                    errors.append(f"line {lineno}: SPACE needs an integer dimension")
            elif head == "GOAL":
                goal_lines.append((lineno, rest))
            elif rest:
                errors.append(f"line {lineno}: unexpected text after {head}")
            continue
        where = f"line {lineno}"
        if section is None:
            errors.append(f"{where}: content before any section "
                          "(missing SPACE header?)")
        elif section == "VECTORS":
            name, _, rhs = line.partition("=")
            v = _parse_coords(rhs, where, errors)
            if v is not None:
                vectors[name.strip()] = v
        elif section == "UNITARY":
            gate_lines.append((lineno, *line.partition("=")[::2]))
        elif section == "MEASURE":
            name, _, rhs = line.partition("=")
            rhs = rhs.strip()
            if not (rhs.startswith("{") and rhs.endswith("}")):
                errors.append(f"{where}: expected a braced basis list")
            else:
                items = [i.strip() for i in _split_top(rhs[1:-1], ",") if i.strip()]
                measure_raw[name.strip()] = [(lineno, i) for i in items]
        elif section == "PROPS":
            parts = line.split()
            if len(parts) == 1:
                props[parts[0]] = False
            elif len(parts) == 2 and parts[1] == "closed":
                props[parts[0]] = True
            else:
                errors.append(f"{where}: expected 'name' or 'name closed'")
        elif section == "AXIOMS":
            axiom_lines.append((lineno, line))
        elif section == "VALUATION":
            valuation_lines.append((lineno, line))
        else:
            errors.append(f"{where}: stray content in section {section}")

    if dim is None:
        errors.append("missing SPACE section with the space dimension")
    if dim is None or dim > MAX_SPACE:
        raise SpecLoadError(errors)
    for lineno, name, rhs in gate_lines:  # sized against SPACE, wherever SPACE stands
        m = _parse_gate_expr(rhs, f"line {lineno}", errors, dim)
        if m is not None:
            unitaries[name.strip()] = m

    def resolve_state(item: str, where: str) -> np.ndarray | None:
        if item.startswith("("):
            v = _parse_coords(item, where, errors)
        else:
            v = vectors.get(item)
            if v is None:
                errors.append(f"{where}: unknown vector name {item!r}")
        if v is not None and v.shape[0] != dim:
            errors.append(f"{where}: state of dim {v.shape[0]} in space of dim {dim}")
            return None
        return v

    measurements: dict[str, Subspace] = {}
    for name, items in measure_raw.items():
        basis = []
        for lineno, item in items:
            v = resolve_state(item, f"line {lineno}")
            if v is not None:
                basis.append(v)
        if basis:
            sub = hl.orthonormalize(basis, dim=dim, tol=tolerance)
            if sub.rank < len(basis):
                errors.append(
                    f"measurement {name}: basis has duplicate or linearly "
                    f"dependent vectors ({len(basis)} given, rank {sub.rank})")
            measurements[name] = sub
        else:
            measurements[name] = hl.zero_subspace(dim)

    sig = SignatureInstance(
        dim=dim, unitaries=unitaries, measurements=measurements,
        named_vectors=vectors,
        props=frozenset(props),
        closed_props=frozenset(p for p, c in props.items() if c),
        tol=tolerance)
    for violation in validate(sig):
        errors.append(f"validation: {violation}")

    def check_resolved(sentence: sx.Sentence, where: str) -> None:
        used_props, used_acts, used_names = sx.sentence_symbols(sentence)
        for p in sorted(used_props - set(props)):
            errors.append(f"{where}: undeclared proposition {p!r}")
        declared_acts = set(unitaries) | set(measurements)
        for a in sorted(used_acts - declared_acts):
            errors.append(f"{where}: undeclared operation symbol {a!r}")
        for n in sorted(used_names - set(vectors)):
            errors.append(f"{where}: undeclared vector name {n!r}")
        for n in sx.walk(sentence):
            if type(n) is sx.VecLit and len(n.coords) != dim:
                errors.append(f"{where}: vector literal of dim {len(n.coords)} "
                              f"in space of dim {dim}")

    axioms: list[sx.Sentence] = []
    for lineno, line in axiom_lines:
        try:
            sentence = sx.parse_sentence(line)
        except ParseError as e:
            errors.append(f"line {lineno}: {e}")
            continue
        check_resolved(sentence, f"line {lineno}")
        axioms.append(sentence)

    goals: list[tuple[sx.Term, sx.Sentence]] = []
    for lineno, rest in goal_lines:
        m = re.fullmatch(r"AT\s+(.*?)\s+PROVE\s+(.*)", rest)
        if not m:
            errors.append(f"line {lineno}: GOAL must read 'GOAL AT <term> "
                          "PROVE <sentence>'")
            continue
        try:
            term = sx.parse_term(m.group(1))
            sentence = sx.parse_sentence(m.group(2))
        except ParseError as e:
            errors.append(f"line {lineno}: {e}")
            continue
        check_resolved(sx.At(term, sentence), f"line {lineno}")
        goals.append((term, sentence))

    valuation: dict[str, Region] | None = None
    if valuation_lines:
        valuation = {}
        for lineno, line in valuation_lines:
            where = f"line {lineno}"
            name, eq, rhs = line.partition("=")
            name, rhs = name.strip(), rhs.strip()
            if not eq or name not in props:
                errors.append(f"{where}: valuation of undeclared proposition")
                continue
            is_span = rhs.startswith("span")
            if is_span:
                rhs = rhs[4:].strip()
            if not (rhs.startswith("{") and rhs.endswith("}")):
                errors.append(f"{where}: expected a braced state list")
                continue
            states = [resolve_state(i.strip(), where)
                      for i in _split_top(rhs[1:-1], ",") if i.strip()]
            states = [s for s in states if s is not None]
            if is_span or props[name]:
                valuation[name] = hl.orthonormalize(states, dim=dim, tol=tolerance)
            else:
                valuation[name] = FiniteVectors(tuple(states))

    if errors:
        raise SpecLoadError(errors)
    return LoadedSpec(sig=sig, axioms=axioms, goals=goals, valuation=valuation)
