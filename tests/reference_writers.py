"""The trace writers from before they copied a repeated block: one record
per place, each place's line written and each place's JSON node built. Kept
as they were, with their imports adapted, as the reference for
``test_writer_reference.py``, which requires byte-equal output.
"""

from __future__ import annotations

import json

from hdql import syntax as sx
from hdql.calculus import ProofTree, walk_proof


def _records(tree: ProofTree):
    """Pre-order records of a proof tree; an explicit stack, so any depth.
    A node object met again (a shared subproof) is formatted once, and so is
    an AST node object met again: the tree keeps both alive for the memo."""
    rows: dict[ProofTree, tuple] = {}
    memo = {}
    for node, depth in walk_proof(tree, 0, lambda node, depth: depth + 1):
        row = rows.get(node)
        if row is None:
            cert = node.certificate
            row = rows[node] = (node.rule.value, sx.format_term(node.conclusion.k, memo),
                                sx.format_sentence(node.conclusion.goal, memo),
                                cert if isinstance(cert, int) else None)
        yield depth, row


def serialize_trace(gamma, tree: ProofTree) -> str:
    """Deterministic line-oriented form of a proof tree."""
    gamma = tuple(gamma)
    lines = ["HDQL-TRACE 1", f"gamma {len(gamma)}"]
    lines += ["  " + sx.format_sentence(c) for c in gamma] + ["proof"]
    for depth, (rule, term, goal, cert) in _records(tree):
        suffix = "" if cert is None else f" [n={cert}]"
        lines.append(f"{'  ' * depth}{rule} | {term} | {goal}{suffix}")
    return "\n".join(lines) + "\n"


def trace_to_json(gamma, tree: ProofTree) -> str:
    """JSON mirror of the text trace, written compact on one line."""
    roots: list[dict] = []
    path: list[dict] = []  # path[d] is the latest node at depth d
    for depth, (rule, term, goal, cert) in _records(tree):
        node = {"rule": rule, "term": term, "goal": goal,
                "certificate": cert, "premises": []}
        del path[depth:]
        (path[-1]["premises"] if path else roots).append(node)
        path.append(node)
    return json.dumps({"version": 1, "gamma": [sx.format_sentence(c) for c in gamma],
                       "proof": roots[0]}) + "\n"
