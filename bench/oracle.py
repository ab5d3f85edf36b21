"""Known answers computed with numpy alone, never with hdql.

Sentences and actions are small tuples built by the generators in
``workloads.py``; the same tuples are rendered into the problem files, so
the oracle and the program read one input in two independent ways.

    action   ("sym", name) | ("comp", a, b) | ("union", a, b)
    sentence ("prop", p) | ("and", s, t) | ("at", name, s)
             | ("nec", action, s) | ("store", var, s)
    term     (name, (sym1, sym2, ...))   sym1 applied first
"""

from __future__ import annotations

import re

import numpy as np

TOL = 1e-9


class Frame:
    """Unitaries, measurement projectors and named states of one file."""

    def __init__(self, unitaries: dict, measurements: dict, named: dict):
        self.unitaries = unitaries
        # projector onto the span of the measurement's basis rows
        self.projectors = {}
        for name, rows in measurements.items():
            q, _ = np.linalg.qr(np.asarray(rows).T)
            self.projectors[name] = q @ q.conj().T
        self.named = named
        self.dim = len(next(iter(named.values())))

    def apply(self, sym: str, w: np.ndarray) -> np.ndarray:
        if sym in self.unitaries:
            return self.unitaries[sym] @ w
        p = self.projectors[sym] @ w
        n = np.linalg.norm(p)
        if n <= TOL * max(1.0, np.linalg.norm(w)):
            return np.zeros_like(w)
        return p / n

    def term(self, term) -> np.ndarray:
        name, syms = term
        w = np.zeros(self.dim, dtype=complex) if name == "0" else self.named[name]
        for s in syms:
            w = self.apply(s, w)
        return w

    def chain(self, text: str) -> np.ndarray:
        """Evaluate a printed term of the form ``s2(s1(name))``."""
        syms = []
        m = re.fullmatch(r"(\w+)\((.*)\)", text)
        while m:
            syms.append(m.group(1))
            text = m.group(2)
            m = re.fullmatch(r"(\w+)\((.*)\)", text)
        return self.term((text, tuple(reversed(syms))))

    def successors(self, action, w: np.ndarray) -> list[np.ndarray]:
        tag = action[0]
        if tag == "sym":
            return [self.apply(action[1], w)]
        if tag == "comp":
            return [z for v in self.successors(action[1], w)
                    for z in self.successors(action[2], v)]
        return self.successors(action[1], w) + self.successors(action[2], w)


def same(v: np.ndarray, w: np.ndarray) -> bool:
    return np.linalg.norm(v - w) <= TOL * max(1.0, np.linalg.norm(w))


def distinct(vectors) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for v in vectors:
        if not any(same(v, e) for e in out):
            out.append(v)
    return out


def facts(frame: Frame, clauses) -> dict[str, list[np.ndarray]]:
    """Least model of anchored clauses: every fact their bodies force."""
    found: dict[str, list[np.ndarray]] = {}

    def walk(s, w):
        tag = s[0]
        if tag == "prop":
            found.setdefault(s[1], []).append(w)
        elif tag == "and":
            walk(s[1], w)
            walk(s[2], w)
        elif tag == "at":
            walk(s[2], frame.named[s[1]])
        elif tag == "nec":
            for v in frame.successors(s[1], w):
                walk(s[2], v)
        elif tag == "store":
            walk(s[2], w)
        else:
            raise ValueError(f"not an anchored-clause body: {s!r}")

    for anchor, body in clauses:
        walk(body, frame.named[anchor])
    return {p: distinct(vs) for p, vs in found.items()}


def span_rank(vectors) -> int:
    if not vectors:
        return 0
    s = np.linalg.svd(np.array(vectors), compute_uv=False)
    return int(np.sum(s > 1e-7))


def in_span(vectors, w: np.ndarray) -> bool:
    if not vectors:
        return np.linalg.norm(w) <= TOL
    q, _ = np.linalg.qr(np.array(vectors).T)
    q = q[:, :span_rank(vectors)]
    return np.linalg.norm(q @ (q.conj().T @ w) - w) <= 1e-7 * max(1.0, np.linalg.norm(w))


def holds(frame: Frame, regions: dict, closed: set, w: np.ndarray, s) -> bool:
    """Brute-force satisfaction of a basic sentence over the given regions."""
    tag = s[0]
    if tag == "prop":
        vs = regions.get(s[1], [])
        if s[1] in closed:
            return in_span(vs, w)
        return any(same(w, v) for v in vs)
    if tag == "and":
        return (holds(frame, regions, closed, w, s[1])
                and holds(frame, regions, closed, w, s[2]))
    if tag == "at":
        return holds(frame, regions, closed, frame.named[s[1]], s[2])
    if tag == "nec":
        return all(holds(frame, regions, closed, v, s[2])
                   for v in frame.successors(s[1], w))
    if tag == "store":
        return holds(frame, regions, closed, w, s[2])
    raise ValueError(f"not a basic sentence: {s!r}")


def universe_size(frame: Frame, anchors, symbols, depth: int) -> int:
    """Size of the term universe: the origin and the anchors, closed under
    the symbols up to ``depth`` applications, deduplicated by vector."""
    seen = np.zeros((0, frame.dim), dtype=complex)

    def intern(v: np.ndarray) -> bool:
        nonlocal seen
        if len(seen):
            d = np.linalg.norm(seen - v, axis=1)
            if np.any(d <= TOL * np.maximum(1.0, np.linalg.norm(seen, axis=1))):
                return False
        seen = np.vstack([seen, v])
        return True

    frontier = [v for v in [np.zeros(frame.dim, dtype=complex)]
                + [frame.named[a] for a in anchors] if intern(v)]
    for _ in range(depth):
        frontier = [w for v in frontier for s in symbols
                    if intern(w := frame.apply(s, v))]
        if not frontier:
            break
    return len(seen)
