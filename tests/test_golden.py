"""Command-line outputs against the goldens in tests/golden/, byte for byte.

Each demo's ``hdql initial --depth 0``..``5`` and ``hdql check --trace`` in
text and JSON: the exit code and standard output of each run (``*.out``),
and every trace file ``check`` writes. A change meant to alter an output
rewrites the goldens and says so:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import os
import sys
import tempfile

import pytest

from hdql.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
DEMOS = sorted(f[:-5] for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".hdql"))
RUNS = [f"initial-d{depth}" for depth in range(6)] + ["check-text", "check-json"]


def render(demo: str, run: str, workdir: str) -> dict[str, str]:
    """The golden files of one run: file name -> content."""
    spec, prefix = os.path.join(ROOT, "demos", f"{demo}.hdql"), f"{demo}.{run}"
    if run.startswith("initial"):
        argv = ["initial", spec, "--depth", run[len("initial-d"):]]
    else:
        argv = ["check", spec, "--format", run[len("check-"):], "--trace",
                os.path.join(workdir, "trace")]
    out = io.StringIO()
    code = main(argv, out=out)
    files = {f"{prefix}.out": f"exit {code}\n{out.getvalue()}"}
    for name in sorted(os.listdir(workdir)):  # trace, or trace.1, trace.2, ...
        with open(os.path.join(workdir, name), encoding="utf-8", newline="") as fh:
            files[f"{prefix}.{name}"] = fh.read()
    return files


def goldens(demo: str, run: str) -> dict[str, str]:
    prefix = f"{demo}.{run}."
    files = {}
    for name in sorted(os.listdir(GOLDEN)):
        if name.startswith(prefix) and name[len(prefix):].split(".")[0] in ("out", "trace"):
            with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
                files[name] = fh.read()
    return files


def test_every_demo_and_run_has_goldens():
    assert len(DEMOS) >= 3
    for demo in DEMOS:
        for run in RUNS:
            assert f"{demo}.{run}.out" in goldens(demo, run), (demo, run)


@pytest.mark.parametrize("demo", DEMOS)
@pytest.mark.parametrize("run", RUNS)
def test_output_equals_its_golden(demo, run, tmp_path):
    got, want = render(demo, run, str(tmp_path)), goldens(demo, run)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for demo in DEMOS:
        for run in RUNS:
            with tempfile.TemporaryDirectory() as workdir:
                for name, text in render(demo, run, workdir).items():
                    with open(os.path.join(GOLDEN, name), "w", encoding="utf-8",
                              newline="") as fh:
                        fh.write(text)
    print(f"wrote the goldens of {len(DEMOS)} demos to {GOLDEN}", file=sys.stderr)
