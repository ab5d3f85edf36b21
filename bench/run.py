"""hdql benchmark: one workload, one process, one thread, a closed loop.

    python3 bench/run.py --workload teleport --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; hdql is imported from ``src/`` of that
checkout. The loop is closed with one client: the next operation starts
only after the previous verdict. Every output is checked against a known
answer (see ``workloads.py`` and ``oracle.py``); an operation that raises,
exits with an unexpected code, gives a wrong verdict, fails its recheck or
does not round-trip counts as failed. Every reported time is scaled to a
reference speed of the machine (``speed.py``), which changes by up to
2.6x on a shared host.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first measures
untraced for half the time, then installs the tracer (``tracer.py``) and
measures the same operations on the same inputs for the other half; it
prints the per-layer metrics (per round of operations) and the traced
minus untraced difference of every end-to-end metric. The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

# one thread: numpy's BLAS must not start a pool of its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import speed  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")
SETUP_REPS = 5
IMPORT_REPS = 5
# times ``import hdql.cli`` in a fresh interpreter; prints seconds
IMPORT_PROBE = ("import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import hdql.cli; print(time.perf_counter() - t0)")

# end-to-end metric -> unit; read the workload table in workloads.py for
# what "main" and "aux" are on each workload
E2E_UNITS = {
    "setup_s": "s",
    "main_p50_ms": "ms", "main_p90_ms": "ms",
    "aux_p50_ms": "ms", "aux_p90_ms": "ms",
    "verdicts_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# the operation each role stands for, per workload (printed only)
ALIASES = {
    "teleport": {"main": "check", "aux": "recheck"},
    "star": {"main": "check", "aux": "recheck"},
    "basic": {"main": "query", "aux": "initial"},
    "initial": {"main": "initial_small", "aux": "initial_large"},
}

# per-layer metric -> unit; values are per round of operations
LAYER_UNITS = {
    "hilbert.norm_calls": "calls/round",
    "hilbert.norm_calls_per_term": "calls/term",
    "hilbert.orthonormalize_ms": "ms/round",
    "calculus.session_init_ms": "ms/round",
    "calculus.register_terms_ms": "ms/round",
    "calculus.prove_ms": "ms/round",
    "calculus.prove_calls": "calls/round",
    "calculus.kernel_ms": "ms/round",
    "calculus.kernel_calls": "calls/round",
    "calculus.proof_nodes": "nodes/round",
    "initial_model.universe_ms": "ms/round",
    "initial_model.universe_terms": "terms/round",
    "initial_model.build_self_ms": "ms/round",
    "signature.eval_term_calls": "calls/round",
    "signature.eval_term_ms": "ms/round",
    "specfile.load_ms": "ms/round",
    "specfile.serialize_ms": "ms/round",
    "specfile.deserialize_ms": "ms/round",
    "specfile.json_encode_ms": "ms/round",
    "specfile.json_decode_ms": "ms/round",
    "specfile.trace_bytes": "bytes/round",
    "syntax.parse_ms": "ms/round",
    "syntax.parse_calls": "calls/round",
    "syntax.format_ms": "ms/round",
    "semantics.sat_ms": "ms/round",
    "semantics.sat_calls": "calls/round",
    "cli.main_self_ms": "ms/round",
    "trace.repeat_mismatches": "count",
    "trace.inputs_match": "bool",
    "trace.spans_per_round": "spans/round",
}
# self time of these spans, in ms per round
SELF_MS = {
    "hilbert.orthonormalize_ms": "hilbert.orthonormalize",
    "calculus.session_init_ms": "calculus.session_init",
    "calculus.register_terms_ms": "calculus.register_terms",
    "calculus.prove_ms": "calculus.prove",
    "calculus.kernel_ms": "calculus.kernel",
    "initial_model.universe_ms": "initial_model.universe",
    "initial_model.build_self_ms": "initial_model.build",
    "signature.eval_term_ms": "signature.eval_term",
    "specfile.load_ms": "specfile.load",
    "specfile.serialize_ms": "specfile.serialize",
    "specfile.deserialize_ms": "specfile.deserialize",
    "specfile.json_encode_ms": "specfile.json_encode",
    "specfile.json_decode_ms": "specfile.json_decode",
    "syntax.parse_ms": "syntax.parse",
    "syntax.format_ms": "syntax.format",
    "semantics.sat_ms": "semantics.sat",
    "cli.main_self_ms": "cli.main",
}
CALLS = {
    "calculus.prove_calls": "calculus.prove.calls",
    "calculus.kernel_calls": "calculus.kernel.calls",
    "signature.eval_term_calls": "signature.eval_term.calls",
    "syntax.parse_calls": "syntax.parse.calls",
    "semantics.sat_calls": "semantics.sat.calls",
    "hilbert.norm_calls": "hilbert.norm",
    "calculus.proof_nodes": "calculus.proof_nodes",
    "initial_model.universe_terms": "initial_model.universe_terms",
    "specfile.trace_bytes": "specfile.trace_bytes",
}
for _name in E2E_UNITS:
    LAYER_UNITS[f"trace_overhead.{_name}"] = E2E_UNITS[_name]


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """Samples of one measuring phase: (t0, t1, seconds) of every operation,
    scaled to the reference speed (``speed.py``) when the metrics are made."""

    def __init__(self):
        self.samples = {"main": [], "aux": []}
        self.attempted = self.failed = self.verdicts = self.rounds = 0
        self.errors: list[str] = []
        self.round_digests: list[str] = []
        self.round_counts: list[dict] = []

    def metrics(self, setup_s: float) -> dict[str, float]:
        out = {"setup_s": setup_s}
        busy = 0.0
        for kind in ("main", "aux"):
            ms = [speed.scaled(*s) * 1000.0 for s in self.samples[kind]]
            busy += sum(ms) / 1000.0
            out[f"{kind}_p50_ms"] = statistics.median(ms)
            out[f"{kind}_p90_ms"] = percentile(ms, 90)
        out["verdicts_per_s"] = self.verdicts / busy
        out["peak_rss_mb"] = peak_rss_mb()
        return out

    def wall_p50_ms(self, kind: str) -> float:
        """Median of the unscaled times, printed for comparison."""
        return statistics.median(s[2] for s in self.samples[kind]) * 1000.0


def input_digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.label.encode())
        for path in op.files:
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_op(op, phase: Phase | None, tracer) -> None:
    if tracer is not None:
        tracer.begin_request()
    start = speed.mark()
    try:
        result = op.run()
        err = None
    except Exception as e:  # every failure is counted, none stops the run
        result, err = None, f"raised {type(e).__name__}: {e}"
    elapsed = speed.since(start)
    if tracer is not None:
        tracer.end_request()
    if err is None:
        try:
            err = op.check(result)
        except Exception as e:
            err = f"output check raised {type(e).__name__}: {e}"
    if phase is None:
        if err is not None:
            raise RuntimeError(f"warm-up {op.label}: {err}")
        return
    phase.samples[op.kind].append(elapsed)
    phase.attempted += 1
    if err is None:
        phase.verdicts += op.verdicts
    else:
        phase.failed += 1
        if len(phase.errors) < 10:
            phase.errors.append(f"{op.label}: {err}")


def measure(workload, seconds: float, tracer=None) -> Phase:
    """Whole rounds until the time is up (at least two rounds)."""
    phase = Phase()
    ops = workload.round_ops()
    deadline = perf_counter() + seconds
    while phase.rounds < 2 or perf_counter() < deadline:
        phase.round_digests.append(input_digest(ops))
        if tracer is not None:
            before = tracer.snapshot()
        for op in ops:
            run_op(op, phase, tracer)
        phase.rounds += 1
        if tracer is not None:
            after = tracer.snapshot()
            phase.round_counts.append({k: v - before.get(k, 0) for k, v in after.items()})
    return phase


def set_up(workload, tracer=None) -> tuple[list[tuple], list[str]]:
    """Input generation plus warm-up, timed; returns the two timed
    intervals (``speed.since``) and the digests of the generated files."""
    start = speed.mark()
    workload.generate()
    generated = speed.since(start)
    digests = []
    for path in workload.files():
        with open(path, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    workload.prepare()  # known answers: benchmark work, not timed
    start = speed.mark()
    for op in workload.warmup_ops():
        run_op(op, None, tracer)
    return [generated, speed.since(start)], digests


def setup_seconds(intervals: list[tuple]) -> float:
    return sum(speed.scaled(*interval) for interval in intervals)


def import_times() -> list[tuple]:
    """``import hdql.cli`` timed in ``IMPORT_REPS`` fresh interpreters, one
    after the other; (t0, t1, seconds) per import, the interval being the
    child's whole life, for ``speed.scaled``."""
    times = []
    for _ in range(IMPORT_REPS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append((t0, perf_counter(), float(proc.stdout.split()[-1])))
    return times


def layer_metrics(tracer, phase: Phase, untraced: dict, traced: dict,
                  inputs_match: bool) -> dict[str, float]:
    rounds = phase.rounds
    out = {}
    for metric, name in SELF_MS.items():
        out[metric] = tracer.self_time.get(name, 0.0) * 1000.0 / rounds
    counts = tracer.snapshot()
    for metric, name in CALLS.items():
        out[metric] = counts.get(name, 0) / rounds
    terms = counts.get("initial_model.universe_terms", 0)
    out["hilbert.norm_calls_per_term"] = (counts.get("hilbert.norm", 0) / terms
                                          if terms else 0.0)
    first = phase.round_counts[0]
    unrepeated = sorted(
        key for key in set().union(*phase.round_counts)
        if any(rc.get(key, 0) != first.get(key, 0) for rc in phase.round_counts))
    for key in unrepeated:
        print(f"FAILED count {key} differs between traced rounds: "
              f"{[rc.get(key, 0) for rc in phase.round_counts]}")
    out["trace.repeat_mismatches"] = len(unrepeated)
    out["trace.inputs_match"] = 1.0 if inputs_match else 0.0
    out["trace.spans_per_round"] = (len(tracer.spans) + tracer.dropped) / rounds
    for name in E2E_UNITS:
        out[f"trace_overhead.{name}"] = traced[name] - untraced[name]
    return out


def report(name: str, phase: Phase, metrics: dict, setups: list[float],
           import_s: float) -> None:
    alias = ALIASES[name]
    print(f"workload {name}: {phase.rounds} rounds, {phase.attempted} operations, "
          f"closed loop, one client")
    print(f"setup_s = {metrics['setup_s']:.4f} s (median of {IMPORT_REPS} imports "
          f"{import_s:.4f} s + median of "
          f"{len(setups)} set-ups {[round(s, 4) for s in setups]})")
    for kind in ("main", "aux"):
        n = len(phase.samples[kind])
        for q in ("p50", "p90"):
            v = metrics[f"{kind}_{q}_ms"]
            if name == "initial":
                print(f"{alias[kind]}_s ({q}) = {v / 1000:.4f} s   [{kind}_{q}_ms, n={n}]")
            else:
                print(f"{alias[kind]}_{q}_ms = {v:.4f} ms   [{kind}_{q}_ms, n={n}]")
    print(f"verdicts_per_s = {metrics['verdicts_per_s']:.4f} 1/s")
    print(f"times above are at the reference speed (speed.py); unscaled wall "
          f"medians: main {phase.wall_p50_ms('main'):.4f} ms, aux "
          f"{phase.wall_p50_ms('aux'):.4f} ms; speed kernel median "
          f"{speed.kernel_median_s() * 1e6:.1f} us, reference "
          f"{speed.REF_KERNEL_S * 1e6:.1f} us")
    print(f"fail_share = {phase.failed / phase.attempted:.4f} "
          f"({phase.failed} of {phase.attempted})")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.4f} MB")
    for err in phase.errors:
        print(f"FAILED {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hdql", "__init__.py")):
        print(f"no hdql sources under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import hdql
    import hdql.cli  # noqa: F401  (all of hdql's modules load here)
    if not os.path.abspath(hdql.__file__).startswith(SRC + os.sep):
        print(f"hdql was imported from {hdql.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](workdir, args.seed)
    speed.start()
    try:
        return run(args, workload)
    finally:
        speed.stop()


def run(args, workload) -> int:
    import_s = statistics.median(speed.scaled(*t) for t in import_times())
    setups, digests = [], []
    for _ in range(SETUP_REPS):
        intervals, files = set_up(workload)
        setups.append(intervals)
        digests.append(files)
    same_files = all(d == digests[0] for d in digests)

    if not args.trace:
        phase = measure(workload, args.seconds)
        setups_s = [setup_seconds(i) for i in setups]
        metrics = phase.metrics(import_s + statistics.median(setups_s))
        report(args.workload, phase, metrics, setups_s, import_s)
        result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in E2E_UNITS.items()}
        self_ok = same_files
    else:
        from tracer import Tracer
        untraced_phase = measure(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced_setups = [set_up(workload, tracer)[0] for _ in range(SETUP_REPS)]
            tracer.reset()
            phase = measure(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        setups_s = [setup_seconds(i) for i in setups]
        untraced = untraced_phase.metrics(import_s + statistics.median(setups_s))
        traced = phase.metrics(import_s + statistics.median(
            setup_seconds(i) for i in traced_setups))
        inputs_match = set(phase.round_digests) == set(untraced_phase.round_digests) \
            and len(set(phase.round_digests)) == 1
        layers = layer_metrics(tracer, phase, untraced, traced, inputs_match)
        report(args.workload, untraced_phase, untraced, setups_s, import_s)
        print(f"traced phase: {phase.rounds} rounds, {phase.attempted} operations, "
              f"{len(tracer.spans)} spans kept, {tracer.dropped} dropped")
        for name, value in layers.items():
            print(f"{name} = {value:.6g} {LAYER_UNITS[name]}")
        for err in phase.errors:
            print(f"FAILED (traced) {err}")
        spans_path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        result_metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
        self_ok = (same_files and inputs_match and layers["trace.repeat_mismatches"] == 0
                   and untraced_phase.failed == 0)
        phase.attempted += untraced_phase.attempted
        phase.failed += untraced_phase.failed

    if not same_files:
        print("FAILED the same seed gave different problem files across set-ups")
    result = {"correct": phase.failed == 0 and self_ok, "attempted": phase.attempted,
              "failed": phase.failed, "metrics": result_metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
