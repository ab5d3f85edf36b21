"""The four workloads: seeded problem files, the timed operations on them
and the checks of every output against answers from ``oracle.py``.

Each workload writes plain problem files from its seed; hdql sees only
those files and the argv (or, for ``basic``, the specs it loaded from
them). A round is a fixed list of operations; the runner repeats rounds,
so the mix of operations in a run never depends on how fast hdql is.
Every operation is ``main`` or ``aux``:

    teleport, star   main = ``hdql check``     aux = ``hdql recheck``
    basic            main = ProofSession.prove  aux = build_initial(depth=3)
    initial          main = ``hdql initial`` on the small rung
                     aux  = ``hdql initial`` on the large rung
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle


# ----------------------------------------------------------- file rendering

def fmt_complex(z) -> str:
    z = complex(z)
    re_, im = z.real, z.imag
    if im == 0:
        return repr(re_)
    return f"{re_!r}{'+' if im >= 0 else '-'}{abs(im)!r}i"


def fmt_vec(v) -> str:
    return "(" + ", ".join(fmt_complex(x) for x in v) + ")"


def fmt_mat(m) -> str:
    return "[" + "; ".join(", ".join(fmt_complex(x) for x in row) for row in m) + "]"


def fmt_action(a) -> str:
    if a[0] == "sym":
        return a[1]
    op = " ; " if a[0] == "comp" else " | "
    return f"({fmt_action(a[1])}{op}{fmt_action(a[2])})"


def fmt_sentence(s) -> str:
    tag = s[0]
    if tag == "prop":
        return s[1]
    if tag == "and":
        return f"({fmt_sentence(s[1])} /\\ {fmt_sentence(s[2])})"
    if tag == "at":
        return f"@({s[1]}) ({fmt_sentence(s[2])})"
    if tag == "nec":
        return f"[{fmt_action(s[1])}] ({fmt_sentence(s[2])})"
    return f"(store {s[1]} . {fmt_sentence(s[2])})"


def fmt_term(term) -> str:
    name, syms = term
    text = name
    for s in syms:
        text = f"{s}({text})"
    return text


def names_in(s, out: set) -> set:
    if s[0] == "at":
        out.add(s[1])
    for part in s[1:]:
        if isinstance(part, tuple):
            names_in(part, out)
    return out


def random_unitary(dim: int, rng) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(dim: int, rng) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# --------------------------------------------------------------- operations

@dataclass
class Op:
    kind: str                          # "main" or "aux"
    label: str                         # names the operation and its input
    run: Callable[[], object]
    check: Callable[[object], str | None]  # error text, or None when right
    verdicts: int
    files: tuple[str, ...] = ()        # input files, for the input digest


def run_cli(argv: list[str]):
    """``hdql.cli.main`` in process; looked up per call so tracing sees it."""
    import hdql.cli

    def run():
        out = io.StringIO()
        code = hdql.cli.main(argv, out=out)
        return code, out.getvalue()

    return run


def read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


@dataclass
class Workload:
    workdir: str
    seed: int
    refs: dict = field(default_factory=dict)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write(self, name: str, text: str) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def files(self) -> list[str]:
        """Every generated problem file, in a fixed order."""
        raise NotImplementedError

    def generate(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the known answers from the generated inputs."""

    def warmup_ops(self) -> list[Op]:
        raise NotImplementedError

    def round_ops(self) -> list[Op]:
        raise NotImplementedError

    def same_as_first(self, key: str, data: bytes | None, verify) -> str | None:
        """Output must equal the first output seen, which ``verify`` checked."""
        if data is None:
            return "no output file"
        ref = self.refs.get(key)
        if ref is None:
            err = verify(data)
            if err is None:
                self.refs[key] = data
            return err
        return None if data == ref else "output differs from the first run's bytes"


# ----------------------------------------------------------- proof workloads

class CheckRecheck(Workload):
    """Files with one provable goal and one not-provable goal; each file is
    checked (writing a trace in its format) and its trace rechecked."""

    formats: tuple[str, ...] = ()

    def check_op(self, i: int) -> Op:
        spec, fmt = self.files()[i], self.formats[i]
        trace = self.path(f"{os.path.basename(spec)}.{fmt}.trace")
        argv = ["check", spec, "--trace", trace, "--format", fmt]

        def check(result):
            code, text = result
            lines = text.splitlines()
            if code != 1:
                return f"check exit {code}, expected 1: {text.strip()!r}"
            if (len(lines) != 2 or not lines[0].startswith("goal 1: proved (")
                    or not lines[1].startswith("goal 2: not provable")):
                return f"unexpected check output {text!r}"
            return self.same_as_first(trace, read_bytes(trace + ".1"),
                                      lambda data: self.verify_trace(i, fmt, data))

        return Op("main", f"check {os.path.basename(spec)} {fmt}",
                  run_cli(argv), check, verdicts=2, files=(spec,))

    def recheck_op(self, i: int) -> Op:
        spec, fmt = self.files()[i], self.formats[i]
        trace = self.path(f"{os.path.basename(spec)}.{fmt}.trace") + ".1"

        def check(result):
            code, text = result
            if code != 0 or text != "trace checks\n":
                return f"recheck exit {code}: {text.strip()!r}"
            return None

        return Op("aux", f"recheck {os.path.basename(spec)} {fmt}",
                  run_cli(["recheck", spec, trace]), check, verdicts=1,
                  files=(spec,))

    def round_ops(self) -> list[Op]:
        ops = []
        for i in range(len(self.files())):
            ops += [self.check_op(i), self.recheck_op(i)]
        return ops

    def warmup_ops(self) -> list[Op]:
        return [self.check_op(0), self.recheck_op(0)]

    def verify_trace(self, i: int, fmt: str, data: bytes) -> str | None:
        raise NotImplementedError


def trace_rows(fmt: str, data: bytes) -> list[tuple[int, str, str, int | None]]:
    """(depth, rule, term, certificate) of every proof node, in walk order."""
    rows = []
    if fmt == "json":
        def walk(node, depth):
            rows.append((depth, node["rule"], node["term"], node["certificate"]))
            for p in node["premises"]:
                walk(p, depth + 1)
        walk(json.loads(data)["proof"], 0)
        return rows
    lines = data.decode("utf-8").splitlines()
    for raw in lines[lines.index("proof") + 1:]:
        depth = (len(raw) - len(raw.lstrip(" "))) // 2
        rule, term, goal = raw.strip().split(" | ", 2)
        cert = None
        if goal.endswith("]") and " [n=" in goal:
            cert = int(goal.rsplit(" [n=", 1)[1][:-1])
        rows.append((depth, rule, term, cert))
    return rows


def roundtrip_error(fmt: str, data: bytes) -> str | None:
    """Decoding and re-encoding a trace must give back the same bytes."""
    from hdql import specfile
    text = data.decode("utf-8")
    if fmt == "json":
        again = specfile.trace_to_json(*specfile.trace_from_json(text))
    else:
        again = specfile.serialize_trace(*specfile.deserialize_trace(text))
    return None if again == text else f"{fmt} trace does not round-trip"


def teleport_matrices():
    i2, i4 = np.eye(2), np.eye(4)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                    dtype=complex)
    unitaries = {"u0": np.kron(cnot, i2), "u1": np.kron(h, i4),
                 "s0": np.eye(8, dtype=complex), "s1": np.kron(i4, x),
                 "d0": np.eye(8, dtype=complex), "d1": np.kron(i4, z)}
    basis = np.eye(8, dtype=complex)
    measurements = {f"q{i}{j}": [basis[4 * i + 2 * j], basis[4 * i + 2 * j + 1]]
                    for i in (0, 1) for j in (0, 1)}
    return unitaries, measurements


class Teleport(CheckRecheck):
    """The 8-dim teleportation protocol, one random qubit per file."""

    n_files = 8
    # three text traces to one JSON trace keeps the medians inside one
    # format's cluster instead of on the boundary between the two
    formats = ("text", "text", "text", "json") * 2

    def files(self):
        return [self.path(f"teleport-{i:02d}.hdql") for i in range(self.n_files)]

    def generate(self):
        rng = np.random.default_rng([self.seed, 1])
        unitaries, measurements = teleport_matrices()
        self.frames = []
        for path in self.files():
            while True:
                theta = rng.uniform(0, np.pi / 2)
                phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
                w = np.array([np.cos(theta) * phases[0], np.sin(theta) * phases[1]])
                bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
                named = {"w0": np.kron(w, bell)}
                for i in (0, 1):
                    for j in (0, 1):
                        named[f"t{i}{j}"] = np.kron(np.eye(4)[2 * i + j], w)
                frame = oracle.Frame(unitaries, measurements, named)
                # one branch with a wrong correction: its end state must be
                # none of the four targets, so the known answer is exit 1
                i, j = (int(b) for b in rng.integers(0, 2, size=2))
                sj, di = [(1 - j, i), (j, 1 - i), (1 - j, 1 - i)][int(rng.integers(0, 3))]
                wrong = ("w0", ("u0", "u1", f"q{i}{j}", f"s{sj}", f"d{di}"))
                end = frame.term(wrong)
                if not any(oracle.same(end, named[f"t{a}{b}"])
                           for a in (0, 1) for b in (0, 1)):
                    break
            self.frames.append(frame)
            lines = ["# teleportation of one qubit through a Bell pair",
                     "SPACE 8", "VECTORS"]
            lines += [f"  {n} = {fmt_vec(v)}" for n, v in named.items()]
            lines += ["UNITARY", "  u0 = CNOT (x) I2", "  u1 = H (x) I4",
                      "  s0 = I8", "  s1 = I4 (x) X", "  d0 = I8", "  d1 = I4 (x) Z",
                      "MEASURE"]
            for name, (b0, b1) in measurements.items():
                lines.append(f"  {name} = {{ {fmt_vec(b0)}, {fmt_vec(b1)} }}")
            lines += ["PROPS", "  p", "AXIOMS"]
            lines += [f"  @(t{i}{j}) p" for i in (0, 1) for j in (0, 1)]
            branches = " | ".join(f"u0;u1;q{i}{j};s{j};d{i}"
                                  for i in (0, 1) for j in (0, 1))
            lines.append(f"GOAL AT w0 PROVE [{branches}] p")
            lines.append(f"GOAL AT w0 PROVE [{';'.join(wrong[1])}] p")
            self.write(os.path.basename(path), "\n".join(lines) + "\n")

    def verify_trace(self, i, fmt, data):
        """Acceptance criterion 1: four EQ steps, each residual <= 1e-8."""
        frame = self.frames[i]
        rows = trace_rows(fmt, data)
        eqs = [(rows[n][2], rows[n + 1][2]) for n in range(len(rows) - 1)
               if rows[n][1] == "EQ" and rows[n + 1][0] == rows[n][0] + 1]
        if len(eqs) != 4:
            return f"{len(eqs)} EQ steps in the trace, expected 4"
        for chain, target in eqs:
            residual = np.linalg.norm(frame.chain(chain) - frame.chain(target))
            if not residual <= 1e-8:
                return f"EQ residual {residual:.3e} between {chain} and {target}"
        return None


class Star(CheckRecheck):
    """``[g*] r`` over a dim-2 rotation g of finite order N, plus the
    known-false control ``[g*] p``. The ladder of orders is fixed so that
    percentiles compare across seeds; the seed picks the rotation's
    eigenbasis, its angle 2*pi*m/N (m coprime to N) and the states."""

    orders = (8, 12, 16, 20, 24)
    # each file has one format; with these five the check and recheck times
    # of the files are well apart, so p50 and p90 each fall in the middle
    # of one file's cluster (text-16 and JSON-24 for check)
    formats = ("text", "text", "text", "json", "json")

    def files(self):
        return [self.path(f"star-{n:02d}.hdql") for n in self.orders]

    def generate(self):
        rng = np.random.default_rng([self.seed, 2])
        self.frames = []
        for path, n in zip(self.files(), self.orders):
            m = int(rng.choice([k for k in range(1, n) if math.gcd(k, n) == 1]))
            angle = 2 * math.pi * m / n
            rot = np.array([[math.cos(angle), -math.sin(angle)],
                            [math.sin(angle), math.cos(angle)]], dtype=complex)
            basis = random_unitary(2, rng)
            g = basis @ rot @ basis.conj().T
            v0, v1 = random_state(2, rng), random_state(2, rng)
            self.frames.append(oracle.Frame({"g": g}, {}, {"v0": v0, "v1": v1}))
            text = "\n".join([
                "SPACE 2", "VECTORS", f"  v0 = {fmt_vec(v0)}", f"  v1 = {fmt_vec(v1)}",
                "UNITARY", f"  g = {fmt_mat(g)}", "PROPS", "  p", "  r closed",
                "AXIOMS", "  @(v0) p", "  @(v0) r", "  @(v1) r",
                "GOAL AT v0 PROVE [g*] r", "GOAL AT v0 PROVE [g*] p"]) + "\n"
            self.write(os.path.basename(path), text)

    def prepare(self):
        """Orbit of v0 by numpy: its size is the proof's star certificate
        plus one; r (spanned by v0 and v1) holds on all of it, p only at v0."""
        self.periods = []
        for frame in self.frames:
            v0, orbit = frame.named["v0"], [frame.named["v0"]]
            while len(orbit) <= 64:
                nxt = frame.apply("g", orbit[-1])
                if oracle.same(nxt, v0):
                    break
                orbit.append(nxt)
            r = [frame.named["v0"], frame.named["v1"]]
            if (len(orbit) > 64 or not all(oracle.in_span(r, w) for w in orbit)
                    or all(oracle.same(w, v0) for w in orbit)):
                raise RuntimeError(f"order-{len(orbit)} rotation: [g*] r must hold "
                                   "and [g*] p must fail")
            self.periods.append(len(orbit) - 1)

    def verify_trace(self, i, fmt, data):
        rows = trace_rows(fmt, data)
        if rows[0][3] != self.periods[i]:
            return (f"star certificate {rows[0][3]}, expected {self.periods[i]} "
                    f"for order {self.orders[i]}")
        return roundtrip_error(fmt, data)


# ------------------------------------------------------------ basic instances

def basic_action(rng, depth: int):
    if depth == 0 or rng.random() < 0.55:
        return ("sym", str(rng.choice(["u", "x", "m"])))
    tag = "comp" if rng.random() < 0.5 else "union"
    return (tag, basic_action(rng, depth - 1), basic_action(rng, depth - 1))


def basic_sentence(rng, depth: int):
    if depth == 0 or rng.random() < 0.35:
        return ("prop", str(rng.choice(["p", "q"])))
    c = int(rng.integers(0, 4))
    d = depth - 1
    if c == 0:
        return ("and", basic_sentence(rng, d), basic_sentence(rng, d))
    if c == 1:
        return ("at", str(rng.choice(["v0", "v1"])), basic_sentence(rng, d))
    if c == 2:
        return ("nec", basic_action(rng, int(rng.integers(1, 4))), basic_sentence(rng, d))
    return ("store", str(rng.choice(["y", "z"])), basic_sentence(rng, d))


@dataclass
class BasicInstance:
    path: str
    frame: oracle.Frame
    clauses: list
    goals: list          # (term, sentence) as oracle tuples
    spec: object = None  # hdql's LoadedSpec, loaded during set-up
    im: object = None    # the initial model built in the current round
    regions: dict = None  # known answers, from prepare()
    truths: list = None
    universe: int = 0


class Basic(Workload):
    """Acceptance-criterion-6 style: a dim-2 signature, an anchored clause
    set, ``build_initial(depth=3)`` and five ``ProofSession.prove`` queries."""

    n_instances = 24
    n_queries = 5
    depth = 3
    # Clauses and queries come from this fixed stream and the frames (the
    # unitary, the measurement and v1) from the seed. With random clauses
    # per seed, the prover's work and the verdict mix changed the query
    # median by +-12% between seeds; with fixed ones every seed asks the same
    # questions of a different frame.
    shape_seed = 2029

    def files(self):
        return [self.path(f"basic-{i:03d}.hdql") for i in range(self.n_instances)]

    def generate(self):
        from hdql import specfile
        shape = np.random.default_rng(self.shape_seed)
        leaf = np.random.default_rng([self.seed, 3])
        self.instances = []
        for i, path in enumerate(self.files()):
            u = random_unitary(2, leaf)
            x = np.array([[0, 1], [1, 0]], dtype=complex)
            m = random_state(2, leaf)
            named = {"v0": np.array([1, 0], dtype=complex), "v1": random_state(2, leaf)}
            frame = oracle.Frame({"u": u, "x": x}, {"m": [m]}, named)
            clauses = [(str(shape.choice(["v0", "v1"])),
                        basic_sentence(shape, int(shape.integers(1, 3))))
                       for _ in range(int(shape.integers(1, 7)))]
            goals = []
            for _ in range(self.n_queries):
                if shape.random() < 0.25:
                    # a clause body at its own anchor: provable, with deep
                    # structural decomposition
                    anchor, body = clauses[int(shape.integers(0, len(clauses)))]
                    goals.append(((anchor, ()), body))
                else:
                    syms = tuple(str(s) for s in shape.choice(
                        ["u", "x", "m"], size=int(shape.integers(0, self.depth + 1))))
                    term = (str(shape.choice(["v0", "v1"])), syms)
                    goals.append((term, basic_sentence(shape, int(shape.integers(0, 3)))))
            lines = ["SPACE 2", "VECTORS"]
            lines += [f"  {n} = {fmt_vec(v)}" for n, v in named.items()]
            lines += ["UNITARY", f"  u = {fmt_mat(u)}", "  x = X",
                      "MEASURE", f"  m = {{ {fmt_vec(m)} }}",
                      "PROPS", "  p", "  q", "AXIOMS"]
            lines += [f"  @({a}) {fmt_sentence(b)}" for a, b in clauses]
            lines += [f"GOAL AT {fmt_term(t)} PROVE {fmt_sentence(s)}" for t, s in goals]
            self.write(os.path.basename(path), "\n".join(lines) + "\n")
            self.instances.append(BasicInstance(path, frame, clauses, goals))
        for inst in self.instances:
            inst.spec = specfile.load_spec(inst.path)

    def prepare(self):
        for inst in self.instances:
            regions = oracle.facts(inst.frame, inst.clauses)
            inst.regions = regions
            inst.truths = [oracle.holds(inst.frame, regions, set(),
                                        inst.frame.term(t), s)
                           for t, s in inst.goals]
            anchors = set()
            for a, b in inst.clauses:
                anchors.add(a)
                names_in(b, anchors)
            inst.universe = oracle.universe_size(
                inst.frame, sorted(anchors), ["u", "x", "m"], self.depth)

    def build_op(self, inst: BasicInstance) -> Op:
        from hdql import initial_model

        def run():
            inst.im = None
            inst.im = initial_model.build_initial(inst.spec.sig, inst.spec.axioms,
                                                  depth=self.depth)
            return inst.im

        def check(im):
            if len(im.term_universe) != inst.universe:
                return f"universe of {len(im.term_universe)} terms, expected {inst.universe}"
            for p in ("p", "q"):
                got = list(im.model.valuation[p].vectors)
                want = inst.regions.get(p, [])
                if len(got) != len(want) or not all(
                        any(oracle.same(g, w) for w in want) for g in got):
                    return f"region {p}: {len(got)} states, expected {len(want)}"
            return None

        return Op("aux", f"build {os.path.basename(inst.path)}", run, check,
                  verdicts=0, files=(inst.path,))

    def query_op(self, inst: BasicInstance, n: int) -> Op:
        def run():
            term, sentence = inst.spec.goals[n]
            return inst.im.session.prove(term, sentence)

        def check(result):
            want = "holds" if inst.truths[n] else "fails"
            if result.status != want:
                return f"query {n + 1}: {result.status}, expected {want}"
            return None

        return Op("main", f"query {os.path.basename(inst.path)} {n + 1}", run, check,
                  verdicts=1, files=(inst.path,))

    def round_ops(self):
        ops = []
        for inst in self.instances:
            ops.append(self.build_op(inst))
            ops += [self.query_op(inst, n) for n in range(self.n_queries)]
        return ops

    def warmup_ops(self):
        inst = self.instances[0]
        return [self.build_op(inst), self.query_op(inst, 0)]


# ---------------------------------------------------------- initial models

class Initial(Workload):
    """``hdql initial`` on two rungs of random signatures: two unitaries, a
    rank dim/2 measurement, two named states, props p q r with r closed."""

    rungs = (("small", 4, 3), ("large", 8, 4))   # name, dim, depth
    warm = ("warm", 2, 2)

    def files(self):
        return [self.path(f"initial-{name}.hdql") for name, _, _ in self.rungs]

    def generate(self):
        rng = np.random.default_rng([self.seed, 4])
        self.cases = {}
        for name, dim, depth in self.rungs + (self.warm,):
            self.cases[name] = self.make(name, dim, depth, rng)

    def make(self, name, dim, depth, rng):
        u0, u1 = random_unitary(dim, rng), random_unitary(dim, rng)
        mrows = list(random_unitary(dim, rng)[: dim // 2])
        named = {"v0": random_state(dim, rng), "v1": random_state(dim, rng)}
        frame = oracle.Frame({"u0": u0, "u1": u1}, {"m": mrows}, named)
        # fixed clauses and goals: the seed changes the signature only, so
        # every seed derives the same facts and asks the same questions
        clauses = [
            ("v0", ("prop", "p")),
            ("v1", ("nec", ("union", ("sym", "u0"), ("sym", "m")), ("prop", "q"))),
            ("v0", ("nec", ("comp", ("sym", "u1"), ("sym", "u0")),
                    ("and", ("prop", "q"), ("prop", "r")))),
            ("v1", ("prop", "r")),
            ("v1", ("nec", ("sym", "m"), ("prop", "p"))),
        ]
        goals = [(("v0", ()), ("prop", "p")),
                 (("v0", ("u1", "u0")), ("prop", "q")),
                 (("v1", ()), ("nec", ("sym", "u0"), ("prop", "q"))),
                 (("v0", ("u1", "m")), ("prop", "r"))]
        lines = [f"SPACE {dim}", "VECTORS"]
        lines += [f"  {n} = {fmt_vec(v)}" for n, v in named.items()]
        lines += ["UNITARY", f"  u0 = {fmt_mat(u0)}", f"  u1 = {fmt_mat(u1)}",
                  "MEASURE", "  m = { " + ", ".join(fmt_vec(b) for b in mrows) + " }",
                  "PROPS", "  p", "  q", "  r closed", "AXIOMS"]
        lines += [f"  @({a}) {fmt_sentence(b)}" for a, b in clauses]
        lines += [f"GOAL AT {fmt_term(t)} PROVE {fmt_sentence(s)}" for t, s in goals]
        path = self.write(f"initial-{name}.hdql", "\n".join(lines) + "\n")
        return {"path": path, "depth": depth, "frame": frame, "clauses": clauses,
                "goals": goals}

    def prepare(self):
        for case in self.cases.values():
            frame = case["frame"]
            regions = oracle.facts(frame, case["clauses"])
            size = oracle.universe_size(frame, ["v0", "v1"], ["u0", "u1", "m"],
                                        case["depth"])
            lines = [f"term universe: {size} states",
                     f"region p: {len(regions.get('p', []))} states",
                     f"region q: {len(regions.get('q', []))} states",
                     f"region r: subspace of rank {oracle.span_rank(regions.get('r', []))}"]
            truths = [oracle.holds(frame, regions, {"r"}, frame.term(t), s)
                      for t, s in case["goals"]]
            lines += [f"goal {n}: satisfied in the initial model: {str(v).lower()}"
                      for n, v in enumerate(truths, start=1)]
            case["expected"] = (0 if all(truths) else 1, "\n".join(lines) + "\n")

    def op(self, kind: str, name: str) -> Op:
        case = self.cases[name]
        argv = ["initial", case["path"], "--depth", str(case["depth"])]

        def check(result):
            if result != case["expected"]:
                return f"initial {name}: got {result!r}, expected {case['expected']!r}"
            return None

        return Op(kind, f"initial {name}", run_cli(argv), check,
                  verdicts=len(case["goals"]), files=(case["path"],))

    def round_ops(self):
        return [self.op("main", "small"), self.op("aux", "large")]

    def warmup_ops(self):
        return [self.op("main", "warm")]


WORKLOADS = {"teleport": Teleport, "basic": Basic, "initial": Initial, "star": Star}
