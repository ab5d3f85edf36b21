"""The problem-file reader against the one it replaced (tests/reference_loader.py).

On the demos, the teleportation file with and without VALUATION, their
sections in every order and seeded mutants of them, each input must load an
equal LoadedSpec on both sides or fail with the same multiset of errors (the
order of errors from several sections may differ). The two may differ only
on a file with a number that is not finite or a state whose norm overflows,
which the old reader let through or let escape as a bare HdqlError; the new
one refuses it with its line.
"""

import itertools
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import reference_loader as ref
from conftest import teleport_spec_text
from hdql import specfile
from hdql.hilbert import Subspace

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.hdql"))
PERMUTED = sorted({p.read_text() for p in DEMOS} | {  # the teleport demo is the one with VALUATION
    teleport_spec_text(0.6, 0.8, with_valuation) for with_valuation in (False, True)})
NAMED = """SPACE 2
VECTORS
  v0 = (1, 0)
  v1 = (0, 1)
  v2 = (0.6, 0.8i)
UNITARY
  x = X
  g = [0, 1; 1, 0]
MEASURE
  m0 = { v0 }
  m1 = { v1, (0.6, 0.8) }
  m0 = { v2 }
PROPS
  p
  r closed
AXIOMS
  @(v0) p
  @(vec(0, 1)) r
GOAL AT x(v0) PROVE [m0] p
GOAL AT v2 PROVE r
VALUATION
  p = { v0, (0, 1) }
  r = span { v1, v2 }
"""  # states by name and by coordinates, and a measurement defined twice: the last one counts
BASES = PERMUTED + [NAMED] + [teleport_spec_text(0.6, 0.64 + 0.48j, v) for v in (False, True)]
HUGE = ("1e999", "-1e400i", "1e200", "3e160i")  # not finite, or a norm past about 1.3e154
FINITENESS = re.compile(r"not finite|non-finite|norm overflows")


def outcome(load, text: str):
    try:
        return "spec", load(text)
    except specfile.SpecLoadError as e:
        return "errors", Counter(e.errors)
    except Exception as e:  # anything else must fail alike on both sides
        return "raised", (type(e).__name__, str(e))


def same_arrays(a, b) -> bool:
    return len(a) == len(b) and all(map(np.array_equal, a, b))


def same_region(a, b) -> bool:
    if isinstance(a, Subspace):
        return isinstance(b, Subspace) and a.dim == b.dim and np.array_equal(a.basis, b.basis)
    return type(a) is type(b) and same_arrays(a.vectors, b.vectors)


def same_map(a: dict, b: dict, same) -> bool:
    return list(a) == list(b) and all(same(a[k], b[k]) for k in a)


def same_spec(a: specfile.LoadedSpec, b: specfile.LoadedSpec) -> bool:
    sa, sb = a.sig, b.sig
    return ((sa.dim, sa.tol, sa.props, sa.closed_props)
            == (sb.dim, sb.tol, sb.props, sb.closed_props)
            and same_map(sa.unitaries, sb.unitaries, np.array_equal)
            and same_map(sa.measurements, sb.measurements, same_region)
            and same_map(sa.named_vectors, sb.named_vectors, np.array_equal)
            and a.axioms == b.axioms and a.goals == b.goals
            and (a.valuation is None) == (b.valuation is None)
            and same_map(a.valuation or {}, b.valuation or {}, same_region))


def compare(text: str) -> tuple[str, bool]:
    """The new reader's outcome kind, and whether the old one's is the same;
    a difference must be one allowed."""
    new, old = outcome(specfile.load_spec_text, text), outcome(ref.load_spec_text, text)
    if new[0] == old[0] and (same_spec(new[1], old[1]) if new[0] == "spec" else new[1] == old[1]):
        return new[0], True
    assert any(h in text for h in HUGE), (text, new, old)
    assert new[0] == "errors" and any(FINITENESS.search(e) for e in new[1]), (text, new, old)
    return new[0], False


# ----------------------------------------------------------- section orders

def sections(text: str) -> tuple[list[str], list[str]]:
    """The lines before the first header, and the sections: a header with its
    content lines, and a run of GOAL headers as one section."""
    head, blocks = [], []
    for line in text.splitlines():
        word = line.split("#")[0].split(None, 1)[:1]
        if word and word[0] in specfile._SECTIONS and not (
                word[0] == "GOAL" and blocks and blocks[-1][0].startswith("GOAL")):
            blocks.append([line])
        else:
            (blocks[-1] if blocks else head).append(line)
    return head, ["\n".join(b) for b in blocks]


def orders(text: str):
    """The text with its sections in every order. Past six sections, the
    others take every order and SPACE's place cycles through every position:
    all 8! orders of the teleportation file would take a minute."""
    head, blocks = sections(text)
    space = next(b for b in blocks if b.startswith("SPACE"))
    others = [b for b in blocks if b is not space]
    if len(blocks) <= 6:
        perms = itertools.permutations(blocks)
    else:
        perms = (p[:i % len(blocks)] + (space,) + p[i % len(blocks):]
                 for i, p in enumerate(itertools.permutations(others)))
    for p in perms:
        yield "\n".join(head + list(p)) + "\n"


@pytest.mark.parametrize("base", range(len(PERMUTED)))
def test_every_section_order_loads_the_same_spec(base):
    seen = Counter(compare(variant) for variant in orders(PERMUTED[base]))
    assert list(seen) == [("spec", True)] and seen["spec", True] >= 720


def test_the_orders_take_every_order_and_put_space_everywhere():
    variants = list(orders(teleport_spec_text(0.6, 0.8, True)))
    heads = [tuple(b.split(None, 1)[0] for b in sections(v)[1]) for v in variants]
    assert len(set(heads)) == 5040
    assert len({tuple(h for h in order if h != "SPACE") for order in heads}) == 5040
    assert {order.index("SPACE") for order in heads} == set(range(8))


# ----------------------------------------------------------------- mutants

_BAD_NUMERALS = ("1.2.3", "1e", "x", "--1", "2i3", "1..", "nan", "inf") + HUGE


def mutate(text: str, rng: np.random.Generator) -> str:
    """One to three random edits of the kinds a hand-written file goes wrong by."""
    lines = text.splitlines()
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(0, len(lines)))
        line = lines[i]
        kind = int(rng.integers(0, 11))
        if kind == 0 and len(lines) > 1:  # delete a line
            del lines[i]
        elif kind == 1:  # duplicate a line, next to it or anywhere
            lines.insert(int(rng.choice([i + 1, rng.integers(0, len(lines) + 1)])), line)
        elif kind == 2:  # swap two lines
            j = int(rng.integers(0, len(lines)))
            lines[i], lines[j] = lines[j], line
        elif kind == 3 and (spots := [k for k, c in enumerate(line) if c in "()[]{}"]):
            k = int(rng.choice(spots))  # drop a bracket
            lines[i] = line[:k] + line[k + 1:]
        elif kind == 4:  # add a bracket
            k = int(rng.integers(0, len(line) + 1))
            lines[i] = line[:k] + str(rng.choice(list("()[]{}"))) + line[k:]
        elif kind == 5 and (nums := list(re.finditer(r"\d+(\.\d*)?", line))):
            m = nums[int(rng.integers(0, len(nums)))]  # a bad numeral
            lines[i] = line[:m.start()] + str(rng.choice(_BAD_NUMERALS)) + line[m.end():]
        elif kind == 6 and (names := list(re.finditer(r"\b[a-z]\w*\b", line))):
            m = names[int(rng.integers(0, len(names)))]  # an unknown name
            lines[i] = line[:m.start()] + "nosuch" + line[m.end():]
        elif kind == 7:  # text after a header
            headers = [k for k, ln in enumerate(lines) if ln.split()[:1] and
                       ln.split()[0] in specfile._SECTIONS]
            k = int(rng.choice(headers))
            lines[k] += str(rng.choice([" extra", " 3", " = { v0 }", " AT v0 PROVE p"]))
        elif kind == 8:  # content before SPACE
            lines.insert(0, str(rng.choice([ln for ln in lines if ln.startswith("  ")] or ["x"])))
        elif kind >= 9 and len(items := line.split(", ")) > 1:  # drop or repeat a list item
            k = int(rng.integers(0, len(items)))
            items[k:k + 1] = [] if kind == 9 else [items[k]] * 2
            lines[i] = ", ".join(items)
    return "\n".join(lines) + "\n"


def test_seeded_mutants_load_alike():
    rng = np.random.default_rng(20)
    seen = Counter(compare(mutate(BASES[n % len(BASES)], rng)) for n in range(3000))
    # the corpus reaches loaded files, located errors and the allowed differences
    assert seen["spec", True] >= 100 and seen["errors", True] >= 1500
    assert 10 <= seen["errors", False] <= 400 and not seen["spec", False]
