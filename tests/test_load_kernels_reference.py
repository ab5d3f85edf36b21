"""The problem-file load's numeral reader, operator tensor product, gate
check and basis check against the ones they replaced
(tests/reference_load_kernels.py).

Numerals must read to the same value (signed zeros too) or fail with the same
error; ``tensor_op`` must be ``np.kron`` bit for bit; the stacked unitarity
and Gram residuals must be the per-gate and per-basis ones, silently on
arrays whose products overflow. A load reads each distinct numeral text once, and loads the same
arrays, the same violations and the same error messages as with the old
routines swapped in, on the demos, the benchmark's seed files and the loader
corpus's mutants.
"""

import re
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import reference_load_kernels as ref
from conftest import teleport_spec_text
from hdql import hilbert as hl
from hdql import syntax as sx
from hdql.errors import HdqlError
from hdql.hilbert import Subspace
from hdql.signature import SignatureInstance, validate
from hdql.specfile import SpecLoadError, load_spec_text
from test_loader_reference import BASES, mutate

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.hdql"))


def per_gate(gates):
    return [ref.unitarity_residual(u) for u in gates]


def per_basis(bases):
    with np.errstate(over="ignore", invalid="ignore"):
        return [ref.gram_residual(b) for b in bases]


@pytest.fixture
def old_kernels(monkeypatch):
    """Swap the replaced routines in; ``undo`` swaps them out again."""
    monkeypatch.setattr(sx, "parse_complex", ref.parse_complex)
    monkeypatch.setattr(hl, "tensor_op", ref.tensor_op)
    monkeypatch.setattr(hl, "unitarity_residuals", per_gate)
    monkeypatch.setattr(hl, "gram_residuals", per_basis)
    return monkeypatch


# --------------------------------------------------------------- numerals

_ALPHABET = list("0123456789.eE+-i") + [" ", "\t", ",", "(", ")", "#"]


def read(parse, text: str):
    try:
        return "value", repr(parse(text))
    except HdqlError as e:
        return type(e).__name__, str(e)


def test_numerals_read_as_before_on_seeded_strings():
    rng = np.random.default_rng(23)
    lengths = rng.integers(1, 10, size=100_000)
    chars = rng.choice(_ALPHABET, size=int(lengths.sum()))
    ends = np.cumsum(lengths)
    texts = ["".join(chars[end - n:end]) for n, end in zip(lengths, ends)]
    texts += [sx.format_complex(complex(*rng.standard_normal(2) * 10.0 ** int(e)))
              for e in rng.integers(-300, 300, 2_000)]
    texts += ["-0", "-0i", "- 0.0 - 0i", "0-0i", "-i", "1e999", "-1e999i", "1e5i", " 2 +\t3i "]
    seen = Counter()
    for text in texts:
        got = read(sx.parse_complex, text)
        assert got == read(ref.parse_complex, text), text
        seen[got[0]] += 1
    assert seen["value"] >= 10_000 and seen["ParseError"] >= 50_000, seen


# ---------------------------------------------------------- tensor product

def test_tensor_op_is_np_kron_bit_for_bit():
    rng = np.random.default_rng(29)
    for trial in range(600):
        (m, n), (p, q) = rng.integers(1, 7, size=(2, 2))
        a = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) \
            * 10.0 ** rng.integers(-150, 150)
        b = (rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))) \
            * 10.0 ** rng.integers(-150, 150)
        a = a.real if trial % 3 == 0 else a
        b = b.real if trial % 5 == 0 else b
        want, got = ref.tensor_op(a, b), hl.tensor_op(a, b)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    for a, b in [(hl.CNOT, hl.identity(2)), (hl.H, hl.identity(4)), (hl.identity(4), hl.X),
                 (hl.identity(4), hl.Z), (hl.X, hl.Y)]:
        assert hl.tensor_op(a, b).tobytes() == np.kron(a, b).tobytes()


# --------------------------------------------------------------- residuals

def gate(rng, d: int, kind: int) -> np.ndarray:
    if kind == 0:
        return hl.random_unitary(d, rng)
    u = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if kind == 2:  # products overflow: inf, and nan from inf - inf
        u *= 10.0 ** rng.integers(150, 300)
    elif kind == 3:  # one entry around 1e200 in a unitary
        u = hl.random_unitary(d, rng)
        u[rng.integers(d), rng.integers(d)] = 1e200 * rng.choice([1, -1, 1j])
    return u


# u†u - 1 has inf entries only and uu† - 1 a nan (inf - inf): the residual is inf
ONE_SIDED_NAN = 1e200 * np.array([[1j, 0, 1e-200, 1j], [0, 1j, -1, 0],
                                  [1e-200, 1j, 1, 0], [0, 1j, 0, -1]])


def test_stacked_residuals_are_the_per_gate_ones_without_warnings():
    rng = np.random.default_rng(31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hl.unitarity_residuals([ONE_SIDED_NAN, np.eye(4)]) == [np.inf, 0.0]
        assert ref.unitarity_residual(ONE_SIDED_NAN) == np.inf
        for trial in range(400):
            d = int(rng.integers(1, 12))
            gates = [gate(rng, d, int(k)) for k in rng.integers(0, 4, int(rng.integers(1, 9)))]
            want = np.array(per_gate(gates))
            assert np.array(hl.unitarity_residuals(gates)).tobytes() == want.tobytes()
            assert np.array([hl.unitarity_residual(u) for u in gates]).tobytes() == want.tobytes()
        for d, n in [(100, 15), (300, 3)]:  # several stacks: 6 gates of 100^2, 1 of 300^2
            gates = [gate(rng, d, k % 4) for k in range(n)]
            assert (np.array(hl.unitarity_residuals(gates)).tobytes()
                    == np.array(per_gate(gates)).tobytes())
    assert hl.unitarity_residuals([]) == []


def basis(rng, r: int, d: int, kind: int) -> np.ndarray:
    if kind == 0:
        return hl.random_subspace(d, rng, rank=r).basis
    b = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
    return b * 10.0 ** int(rng.integers(150, 300)) if kind == 2 else b


def test_stacked_gram_residuals_are_the_per_basis_ones_without_warnings():
    rng = np.random.default_rng(33)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for trial in range(400):
            d = int(rng.integers(1, 12))
            r = int(rng.integers(1, d + 1))
            bases = [basis(rng, r, d, int(k)) for k in rng.integers(0, 3, int(rng.integers(1, 7)))]
            want = np.array(per_basis(bases))
            assert np.array(hl.gram_residuals(bases)).tobytes() == want.tobytes()
        bases = [basis(rng, 90, 100, k % 3) for k in range(20)]  # stacks of 7 bases
        assert (np.array(hl.gram_residuals(bases)).tobytes()
                == np.array(per_basis(bases)).tobytes())


def test_validate_reports_in_order_with_the_per_gate_and_per_basis_residuals(old_kernels):
    rng = np.random.default_rng(37)
    unitaries = {"a": hl.random_unitary(3, rng), "b": np.eye(2), "c": gate(rng, 3, 1),
                 "d": gate(rng, 3, 2), "e": hl.identity(3), "f": gate(rng, 3, 3)}
    measurements = {"m": hl.random_subspace(3, rng, rank=2), "n": Subspace(2, np.eye(2)),
                    "o": Subspace(3, basis(rng, 2, 3, 1)), "q": hl.zero_subspace(3),
                    "s": Subspace(3, basis(rng, 1, 3, 2)), "t": Subspace(3, basis(rng, 4, 3, 1))}
    sig = SignatureInstance(dim=3, unitaries=unitaries, measurements=measurements,
                            named_vectors={}, props=frozenset(), closed_props=frozenset())
    want = [str(v) for v in validate(sig)]
    old_kernels.undo()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [str(v) for v in validate(sig)]
    assert got == want
    assert [v.split(":")[0] for v in got] == ["b", "c", "d", "f", "n", "o", "s", "t", "t"]


# ------------------------------------------------------------------ loads

def numeral_texts(text: str) -> list[str]:
    """The coordinate items of a file's VECTORS and MEASURE lines."""
    return [c.strip() for line in text.splitlines() if "=" in line and "(x)" not in line
            for group in re.findall(r"\(([^()]*)\)", line) for c in group.split(",")]


def test_each_distinct_numeral_is_read_once_per_load(monkeypatch):
    calls = Counter()
    parse = sx.parse_complex

    def counting(text):
        calls[text] += 1
        return parse(text)

    monkeypatch.setattr(sx, "parse_complex", counting)
    text = teleport_spec_text(0.6, 0.64 + 0.48j, True)
    texts = numeral_texts(text)
    for _ in range(2):  # and again on the next load
        calls.clear()
        load_spec_text(text)
        assert calls == Counter(set(texts))
    assert len(texts) > 10 * len(calls)


def arrays(spec) -> list:
    """Every array a loaded spec holds, with its name, dtype, shape and bytes."""
    sig, out = spec.sig, []
    regions = {**sig.measurements, **(spec.valuation or {})}
    for name, value in [*sig.unitaries.items(), *sig.named_vectors.items(), *regions.items()]:
        parts = [value.basis] if isinstance(value, Subspace) else (
            [value] if isinstance(value, np.ndarray) else list(value.vectors))
        out += [(name, a.dtype.str, a.shape, a.tobytes()) for a in parts]
    return out


def bench_files(tmp_path) -> list[Path]:
    """The benchmark's teleport, initial and star files for seeds 1 to 3."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    paths = []
    for seed in (1, 2, 3):
        for cls in (workloads.Teleport, workloads.Initial, workloads.Star):
            workdir = tmp_path / f"{cls.__name__}-{seed}"
            workdir.mkdir()
            cls(workdir=str(workdir), seed=seed).generate()
            paths += sorted(workdir.glob("*.hdql"))
    return paths


def test_loads_hold_the_same_arrays_as_with_the_old_routines(tmp_path, old_kernels):
    texts = [p.read_text() for p in DEMOS + bench_files(tmp_path)]
    old = [load_spec_text(t) for t in texts]
    old_kernels.undo()
    for text, before in zip(texts, old):
        spec = load_spec_text(text)
        assert arrays(spec) == arrays(before)
        assert (spec.axioms, spec.goals) == (before.axioms, before.goals)
    assert len(texts) >= len(DEMOS) + 40


def outcome(text: str):
    try:
        return "spec", arrays(load_spec_text(text))
    except SpecLoadError as e:
        return "errors", e.errors
    except Exception as e:  # anything else must fail alike on both sides
        return "raised", (type(e).__name__, str(e))


def test_mutants_load_alike_or_fail_with_the_same_messages(old_kernels):
    rng = np.random.default_rng(41)
    texts = [mutate(BASES[n % len(BASES)], rng) for n in range(1500)]
    old = [outcome(t) for t in texts]
    old_kernels.undo()
    assert [outcome(t) for t in texts] == old
    assert Counter(kind for kind, _ in old)["errors"] >= 500


def test_a_sentence_reports_its_symbols_then_its_literals_in_order():
    text = """SPACE 2
VECTORS
  v0 = (1, 0)
UNITARY
  u = X
PROPS
  p
AXIOMS
  @(vec(1, 0, 0)) [nosuch ; u] (q /\\ @(w1) p) /\\ @(vec(1e999, 0)) r /\\ @(w0) [m] p
GOAL AT vec(0, 1) PROVE p
"""
    with pytest.raises(SpecLoadError) as e:
        load_spec_text(text)
    assert e.value.errors == [
        "line 9: undeclared proposition 'q'", "line 9: undeclared proposition 'r'",
        "line 9: undeclared operation symbol 'm'", "line 9: undeclared operation symbol 'nosuch'",
        "line 9: undeclared vector name 'w0'", "line 9: undeclared vector name 'w1'",
        "line 9: vector literal of dim 3 in space of dim 2",
        "line 9: vector literal: state vector has non-finite entries"]
