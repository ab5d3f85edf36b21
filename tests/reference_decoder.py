"""The trace decoder from before it shared equal subtrees and read a term
f(t) over t's term: every row became a node object of its own, and every
distinct text went to the parser. Kept as it was, with its imports adapted,
as the reference for ``test_decoder_reference.py``, which swaps it in for
``specfile._build``.
"""

from __future__ import annotations

import functools

from hdql import syntax as sx
from hdql.calculus import ProofTree, Sequent, premise_hypotheses
from hdql.errors import HdqlError
from hdql.specfile import _RULES_BY_NAME


def _build(gamma_texts, records) -> tuple[tuple[sx.Sentence, ...], ProofTree]:
    """Rebuild (clause set, proof tree) from pre-order records.

    Each distinct text is parsed once per decode. This is exact: parsing is
    a pure function of the text and the ASTs are frozen, so nodes share them.
    """
    term, sentence = functools.cache(sx.parse_term), functools.cache(sx.parse_sentence)
    gamma = tuple(map(sentence, gamma_texts))
    roots: list[ProofTree] = []
    open_: list[tuple] = []  # per depth: rule, conclusion, cert, premises, child gamma

    def close() -> None:
        rule, conclusion, cert, premises, _ = open_.pop()
        tree = ProofTree(conclusion, rule, tuple(premises), cert)
        (open_[-1][3] if open_ else roots).append(tree)

    for n, (depth, rule_name, term_text, goal_text, cert) in enumerate(records):
        while len(open_) > depth:
            close()
        if roots or depth != len(open_):
            raise HdqlError(f"node {n}: bad indent or a second root")
        rule = _RULES_BY_NAME.get(rule_name)
        if rule is None:
            raise HdqlError(f"node {n}: unknown rule {rule_name!r}")
        conclusion = Sequent(open_[-1][4] if open_ else gamma,
                             term(term_text), sentence(goal_text))
        open_.append((rule, conclusion, cert, [],
                      conclusion.gamma + premise_hypotheses(rule, conclusion)))
    while open_:
        close()
    if not roots:
        raise HdqlError("the proof has no nodes")
    return gamma, roots[0]
