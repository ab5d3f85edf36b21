"""Measure a baseline: every workload over several seeds, plus one traced run.

    python3 bench/baseline.py --runs 10 --seconds 28 --out bench/BASELINE.json

Run from the root of a checkout. For every end-to-end metric it records the
median over the seeds and the spread (distance between the first and third
quartile over the median); for every per-layer metric the value of one
traced run; and the machine it ran on. Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("teleport", "basic", "initial", "star")
STAGES = {"load": "specfile.load", "prove": "calculus.prove",
          "kernel": "calculus.kernel", "serialize": "specfile.serialize",
          "deserialize": "specfile.deserialize"}
# figures of the ROADMAP re-anchor: teleport stages per goal, and a
# 189-term initial build
ROADMAP_STAGE_MS = {"load": 2.7, "prove": 3.2, "kernel": 0.7, "serialize": 0.4,
                    "deserialize": 5.4}
ROADMAP_189_TERM_BUILD_S = 2.0


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} is not correct:\n{proc.stdout}")
    return result


def stage_ms(workload: str, seed: int) -> dict[str, float]:
    """Median inclusive duration per call of the re-anchor stages."""
    path = os.path.join(BENCH, "_work", f"spans-{workload}-{seed}.jsonl")
    durations: dict[str, list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            durations.setdefault(span["name"], []).append(
                (span["end"] - span["start"]) * 1000.0)
    return {stage: statistics.median(durations[name])
            for stage, name in STAGES.items() if name in durations}


def reanchor(out: dict) -> dict:
    """Compare with the re-anchor figures; within a factor of two counts as
    reproduced, given how much the machine's speed varies."""
    def compare(measured, roadmap):
        return {"measured": measured, "roadmap": roadmap,
                "reproduced": 0.5 <= measured / roadmap <= 2.0}

    stages = {k: compare(v, ROADMAP_STAGE_MS[k])
              for k, v in out.get("teleport_stage_ms", {}).items()}
    build = out["end_to_end"].get("initial", {}).get("aux_p50_ms")
    result = {"teleport_stage_ms": stages}
    if build:
        result["initial_189_term_build_s"] = compare(build["median"] / 1000.0,
                                                     ROADMAP_189_TERM_BUILD_S)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    import numpy
    out = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "platform": platform.platform()},
        "runs": args.runs, "seconds": args.seconds,
        "seeds": [args.first_seed + i for i in range(args.runs)],
        "end_to_end": {}, "per_layer": {},
    }
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in out["seeds"]:
            result = run_once(workload, seed, args.seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        table = {}
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            table[name] = {"median": med, "spread": (q3 - q1) / med, "values": vs}
            print(f"  {workload} {name}: median {med:.4f} spread {(q3 - q1) / med:.4f}",
                  flush=True)
        out["end_to_end"][workload] = table
        traced = run_once(workload, out["seeds"][0], args.seconds, 1)
        out["per_layer"][workload] = {k: m["value"] for k, m in traced["metrics"].items()}
        if workload == "teleport":
            out["teleport_stage_ms"] = stage_ms(workload, out["seeds"][0])
    out["reanchor"] = reanchor(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
