"""The table-driven parser against the recursive-descent one it replaced, and
operator chains far deeper than the recursion limit."""

import numpy as np
import pytest

import reference_parser as ref
from hdql import syntax as sx
from hdql.errors import ParseError
from test_syntax import random_action, random_sentence, random_term

ENTRY_POINTS = ("parse_sentence", "parse_term", "parse_action")

# ------------------------------------------------------------- the corpus
#
# Texts written straight from the grammar put operators of every binding side by
# side without parentheses; printed random ASTs add the printer's own spacing
# and parentheses. One-token and one-character mutations of both make errors.

_SENTENCE_OPS = [" => ", " ~> ", " (+) ", " /\\ "]
_PREFIXES = ["!", "~", "[{a}] ", "<{a}> ", "@({t}) "]
_TOKENS = ["p", "q", "x", "w0", "u0", "store", "here", "until", "vec", "0", "2", "1.5i", "i",
           "=>", "~>", "(+)", "/\\", ";", "|", "*", "+", "-", "@", "!", "~", ".", ",",
           "(", ")", "[", "]", "<", ">", "{", "=", " ", "\n", "# c\n"]


def text_term(rng, depth: int) -> str:
    c = rng.integers(0, 8) if depth else 0
    if c == 0:
        return str(rng.choice(["w0", "w1", "x", "0", "vec(1, -2i)"]))
    if c <= 3:
        return " + ".join(text_term(rng, depth - 1) for _ in range(rng.integers(2, 5)))
    if c == 4:
        return f"{rng.choice(['2', '-1.5', '1+2i', 'i'])}*{text_term(rng, depth - 1)}"
    if c == 5:
        return f"({text_term(rng, depth - 1)})"
    return f"{rng.choice(['u0', 'm0'])}({text_term(rng, depth - 1)})"


def text_action(rng, depth: int) -> str:
    c = rng.integers(0, 6) if depth else 0
    if c == 0:
        return str(rng.choice(["u0", "u1", "m0"]))
    if c <= 3:
        parts = [text_action(rng, depth - 1) for _ in range(rng.integers(2, 6))]
        return "".join(p + str(rng.choice([" ; ", " | "])) for p in parts[:-1]) + parts[-1]
    if c == 4:
        return f"{text_action(rng, depth - 1)}*"
    return f"({text_action(rng, depth - 1)})"


def text_sentence(rng, depth: int, bound: tuple[str, ...] = ()) -> str:
    c = rng.integers(0, 9) if depth else 0
    d = depth - 1
    if c == 0:
        return str(rng.choice(["p", "q", "r'"] + [f"here({v})" for v in bound]))
    if c <= 3:
        parts = [text_sentence(rng, d, bound) for _ in range(rng.integers(2, 6))]
        return "".join(p + str(rng.choice(_SENTENCE_OPS)) for p in parts[:-1]) + parts[-1]
    if c == 4:
        prefix = str(rng.choice(_PREFIXES)).format(a=text_action(rng, 2), t=text_term(rng, 2))
        return prefix + text_sentence(rng, d, bound)
    if c == 5:
        var = str(rng.choice(["x", "y"]))
        return f"store {var} . {text_sentence(rng, d, bound + (var,))}"
    if c == 6:
        return (f"until({text_action(rng, 2)}, {text_sentence(rng, d, bound)}, "
                f"{text_sentence(rng, d, bound)})")
    return f"({text_sentence(rng, d, bound)})"


def mutate(rng, text: str) -> str:
    """One token inserted, or one character deleted, replaced or duplicated."""
    i = int(rng.integers(0, len(text) + 1))
    c = rng.integers(0, 4)
    if c == 0 or not text:
        return text[:i] + str(rng.choice(_TOKENS)) + text[i:]
    i = min(i, len(text) - 1)
    if c == 1:
        return text[:i] + text[i + 1:]
    if c == 2:
        return text[:i] + str(rng.choice(_TOKENS))[:1] + text[i + 1:]
    return text[:i] + text[i] + text[i:]


def corpus(seed: int, count: int):
    """(entry point, text) pairs: a third well-formed, the rest mutated."""
    rng = np.random.default_rng(seed)
    makers = {
        "parse_sentence": [lambda: text_sentence(rng, int(rng.integers(0, 5))),
                           lambda: sx.format_sentence(
                               random_sentence(rng, int(rng.integers(0, 6)), ()))],
        "parse_term": [lambda: text_term(rng, int(rng.integers(0, 4))),
                       lambda: sx.format_term(random_term(rng, int(rng.integers(0, 4)), ()))],
        "parse_action": [lambda: text_action(rng, int(rng.integers(0, 4))),
                         lambda: sx.format_action(random_action(rng, int(rng.integers(0, 5))))],
    }
    for n in range(count):
        entry = ENTRY_POINTS[n % 3]
        text = makers[entry][int(rng.integers(0, 2))]()
        for _ in range(int(rng.integers(0, 3))):
            text = mutate(rng, text)
        yield entry, text


def outcome(parse, text: str):
    try:
        return repr(parse(text))
    except ParseError as e:
        return ("error", str(e), e.line, e.column)


class TestAgainstReference:
    def test_21000_seeded_inputs(self):
        kinds = {"ok": 0, "error": 0}
        for entry, text in corpus(15, 21000):
            want = outcome(getattr(ref, entry), text)
            assert outcome(getattr(sx, entry), text) == want, (entry, text)
            kinds["error" if isinstance(want, tuple) else "ok"] += 1
        # the corpus exercises both the trees and the errors
        assert min(kinds.values()) > 5000, kinds

    def test_mixed_chains(self):
        for entry, text in [("parse_sentence", "p => q ~> r (+) s /\\ t (+) u => v"),
                            ("parse_sentence", "p /\\ q /\\ r (+) s (+) t ~> u ~> v"),
                            ("parse_sentence", "!~[u0] @(w0) <m0> p /\\ (store x . q)"),
                            ("parse_sentence", "store x . store y . @(x) here(y) => p"),
                            ("parse_action", "u0 | u1 ; m0* ; u0 | u1 ; (u0 | m0)**"),
                            ("parse_term", "2*w0 + u0(w0 + x) + -2i*0 + vec(1)")]:
            want = outcome(getattr(ref, entry), text)
            assert not isinstance(want, tuple), text
            assert outcome(getattr(sx, entry), text) == want, text


# -------------------------------------------------------- deep chains
#
# Each chain is compared as text: ``==`` and ``hash`` on a 10,000-deep node
# still recurse.

N = 10_000
_INFIX_CHAINS = [("parse_term", "w0", "+"), ("parse_action", "u0", "|"),
                 ("parse_action", "u0", ";"), ("parse_sentence", "p", "=>"),
                 ("parse_sentence", "p", "~>"), ("parse_sentence", "p", "(+)"),
                 ("parse_sentence", "p", "/\\")]


class TestDeepChains:
    @pytest.mark.parametrize("entry, operand, op", _INFIX_CHAINS)
    def test_infix_chain(self, entry, operand, op):
        text = f" {op} ".join([operand] * N)
        assert sx.format_term(getattr(sx, entry)(text)) == text

    @pytest.mark.parametrize("prefix", ["!", "~", "[u0] ", "<u0> ", "@(w0) "])
    def test_prefix_chain(self, prefix):
        text = prefix * N + "p"
        assert sx.format_sentence(sx.parse_sentence(text)) == text

    def test_store_binders(self):
        text = "store x . " * N + "@(x) p"
        assert sx.format_sentence(sx.parse_sentence(text)) == text

    def test_composition_under_necessity(self):
        text = "[" + " ; ".join(["u0"] * N) + "] p"
        assert sx.format_sentence(sx.parse_sentence(text)) == text
