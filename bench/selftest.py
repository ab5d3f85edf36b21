"""Self-tests of the benchmark itself (not of hdql).

    python3 bench/selftest.py

Run from the root of a checkout; takes about a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Initial, read_bytes  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class TinyInitial(Initial):
    """The initial workload on rungs small enough for a unit test."""
    rungs = (("small", 2, 2), ("large", 4, 2))


def workdir(tag: str) -> str:
    path = os.path.join(run.WORK, f"selftest-{tag}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def ready(cls, seed: int, tag: str):
    workload = cls(workdir(tag), seed)
    run.set_up(workload)
    return workload


class SelfTest(unittest.TestCase):
    def test_same_seed_gives_identical_files(self):
        for name, cls in WORKLOADS.items():
            a, b, c = cls(workdir("a"), 7), cls(workdir("b"), 7), cls(workdir("c"), 8)
            for w in (a, b, c):
                w.generate()
            read = [[read_bytes(p) for p in w.files()] for w in (a, b, c)]
            self.assertEqual(read[0], read[1], name)
            self.assertNotEqual(read[0], read[2], name)

    def test_planted_wrong_answer_is_counted(self):
        cases = []
        w = ready(WORKLOADS["teleport"], 3, "teleport")
        w.frames[0].named["t00"] = w.frames[0].named["t01"]
        cases.append(w)
        w = ready(WORKLOADS["star"], 3, "star")
        w.periods[0] += 1
        cases.append(w)
        w = ready(WORKLOADS["basic"], 3, "basic")
        w.instances[0].truths[0] = not w.instances[0].truths[0]
        cases.append(w)
        w = ready(TinyInitial, 3, "initial")
        code, text = w.cases["large"]["expected"]
        w.cases["large"]["expected"] = (code, text.replace("term universe: ",
                                                           "term universe: 1"))
        cases.append(w)
        for w in cases:
            w.refs.clear()  # outputs are verified again on first sight
            phase = run.measure(w, 0.0)
            self.assertGreater(phase.failed / phase.attempted, 0.0, type(w).__name__)
            self.assertTrue(phase.errors)

    def test_unplanted_runs_are_correct(self):
        for cls in (WORKLOADS["teleport"], WORKLOADS["star"], WORKLOADS["basic"],
                    TinyInitial):
            phase = run.measure(ready(cls, 5, "clean"), 0.0)
            self.assertEqual(phase.failed, 0, phase.errors)

    def test_metric_names_and_units(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        declared = {}
        for group, table in (("end_to_end", run.E2E_UNITS),
                             ("per_layer", run.LAYER_UNITS)):
            names = [m["name"] for m in spec[group]]
            self.assertEqual(sorted(names), sorted(table), group)
            for m in spec[group]:
                self.assertTrue(NAME.fullmatch(m["name"]), m["name"])
                self.assertTrue(m["unit"], m["name"])
                self.assertEqual(m["unit"], table[m["name"]], m["name"])
                self.assertNotIn(m["name"], declared)
                declared[m["name"]] = m["unit"]

    def test_traced_and_untraced_runs_consume_identical_inputs(self):
        w = ready(WORKLOADS["teleport"], 4, "trace")
        untraced = run.measure(w, 0.0)
        tracer = Tracer()
        tracer.install()
        try:
            run.set_up(w, tracer)
            tracer.reset()
            traced = run.measure(w, 0.0, tracer)
        finally:
            tracer.uninstall()
        self.assertEqual(untraced.round_digests, traced.round_digests)
        self.assertEqual(len(set(traced.round_digests)), 1)
        self.assertEqual(traced.failed, 0, traced.errors)
        self.assertEqual(traced.round_counts[0], traced.round_counts[1])
        self.assertGreater(tracer.calls["cli.main"], 0)
        # uninstall restored every original function
        import hdql.cli
        import hdql.hilbert
        self.assertFalse(hasattr(hdql.cli.main, "__wrapped__"))
        self.assertFalse(hasattr(hdql.hilbert.norm, "__wrapped__"))

    def test_counts_repeat_across_runs_of_one_seed(self):
        counts = []
        for tag in ("first", "second"):
            w = ready(WORKLOADS["basic"], 6, tag)
            tracer = Tracer()
            tracer.install()
            try:
                counts.append(run.measure(w, 0.0, tracer).round_counts[0])
            finally:
                tracer.uninstall()
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["hilbert.norm"], 0)


if __name__ == "__main__":
    unittest.main()
