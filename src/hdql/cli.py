"""Batch front end: check goals, evaluate sentences, re-check traces.

``recheck`` certifies the statement as well as the derivation: the trace's
clause set must be a subset of the file's AXIOMS, its root must be one of
the file's GOALs (equal sentences after desugaring, diagram-equal terms),
and the kernel must accept every node.

Exit codes: 0 every selected goal proved; 1 at least one goal definitely
not provable; 2 some goal undetermined within budget (and none failed);
64 usage errors; 65 malformed or invalid input data; 66 unreadable input
file; 70 internal error (an emitted proof failed its own kernel check, the
output stream was closed early, or any other unexpected exception).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, fields

from . import syntax as sx
from .calculus import ProofSession, SearchBudget, check_proof, proof_size
from .errors import BudgetExceeded, HdqlError, ParseError, SemanticsError
from .hilbert import DEFAULT_TOL
from .semantics import StarBudget, closed_extension, sat_at
from .signature import classify_in, diagram_eq, eval_term
from .specfile import (LoadedSpec, SpecLoadError, deserialize_trace, load_spec,
                       serialize_trace, trace_from_json, trace_to_json,
                       valuation_model)

__all__ = ["RunFlags", "run_check", "run_eval", "main"]

EXIT_PROVED = 0
EXIT_FAILS = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOINPUT = 66
EXIT_INTERNAL = 70


@dataclass(frozen=True)
class RunFlags:
    tolerance: float = DEFAULT_TOL
    star_bound: int = 64
    depth: int = 6
    budget: int = 10 ** 6
    format: str = "text"

    def search_budget(self) -> SearchBudget:
        return SearchBudget(max_nodes=self.budget,
                            star=StarBudget(max_iterations=self.star_bound))


@dataclass
class CheckOutcome:
    exit_code: int
    message: str
    trace: str | None = None


def run_check(spec: LoadedSpec, goal: tuple[sx.Term, sx.Sentence],
              flags: RunFlags = RunFlags()) -> CheckOutcome:
    """Prove one goal of a loaded problem; kernel-recheck before emission."""
    term, sentence = goal
    try:
        result = ProofSession(spec.sig, spec.axioms, flags.search_budget()).prove(term, sentence)
    except HdqlError as e:  # a non-clause, or a state the frame refuses
        return CheckOutcome(EXIT_DATA, f"cannot be checked: {e}")
    if result.status == "holds":
        verdict = check_proof(spec.sig, result.tree, flags.search_budget().star)
        if not verdict.ok:
            return CheckOutcome(EXIT_INTERNAL,
                                f"internal error: emitted proof rejected by the "
                                f"kernel at {verdict.path}: {verdict.reason}")
        gamma = result.tree.conclusion.gamma
        trace = (trace_to_json if flags.format == "json" else serialize_trace)(gamma, result.tree)
        return CheckOutcome(EXIT_PROVED, f"proved ({proof_size(result.tree)} nodes)", trace)
    if result.status == "fails":
        return CheckOutcome(EXIT_FAILS, f"not provable: {result.reason}")
    return CheckOutcome(EXIT_UNKNOWN, f"unknown: {result.reason}")


def run_eval(spec: LoadedSpec, state_term: sx.Term, sentence: sx.Sentence,
             flags: RunFlags = RunFlags()) -> tuple[int, str]:
    """Evaluate a sentence at a state under the file's explicit valuation."""
    try:
        model = valuation_model(spec)
        w = eval_term(spec.sig, state_term)
        star = flags.search_budget().star
        verdict = sat_at(model, w, sentence, star)
    except BudgetExceeded as e:
        return EXIT_UNKNOWN, f"budget exhausted: {e}"
    except HdqlError as e:
        return EXIT_DATA, f"cannot evaluate: {e}"
    coords = ", ".join(sx.format_complex(complex(c)) for c in w)
    lines = [f"state: ({coords})",
             f"at {sx.format_term(state_term)}: "
             f"{sx.format_sentence(sentence)} is {str(verdict).lower()}"]
    if classify_in(spec.sig, sx.desugar(sentence)).is_closed:
        ext = closed_extension(model, sentence, star)
        lines.append(f"closed extension: rank {ext.rank}")
        for row in ext.basis:
            coords = ", ".join(sx.format_complex(complex(c)) for c in row)
            lines.append(f"  basis ({coords})")
        held = "true" if ext.rank == spec.sig.dim else "false"
        lines.append(f"globally satisfied: {held}")
    return EXIT_PROVED, "\n".join(lines)


def _run_initial(spec: LoadedSpec, flags: RunFlags, out) -> int:
    """Build the initial model of the AXIOMS and report regions and goals."""
    from .initial_model import build_initial
    from .hilbert import Subspace

    try:
        im = build_initial(spec.sig, spec.axioms, depth=flags.depth,
                           budget=flags.search_budget())
    except BudgetExceeded as e:
        print(f"unknown: {e}", file=out)
        return EXIT_UNKNOWN
    except HdqlError as e:
        print(f"cannot build the initial model: {e}", file=out)
        return EXIT_DATA
    suffix = " (truncated)" if im.truncated else ""
    print(f"term universe: {len(im.term_universe)} states{suffix}", file=out)
    for p in sorted(spec.sig.props):
        region = im.model.valuation[p]
        if isinstance(region, Subspace):
            print(f"region {p}: subspace of rank {region.rank}", file=out)
        else:
            print(f"region {p}: {len(region.vectors)} states", file=out)
    failed = unknown = False
    star = flags.search_budget().star
    for i, (term, sentence) in enumerate(spec.goals, start=1):
        try:
            verdict = sat_at(im.model, eval_term(spec.sig, term), sentence, star)
        except (SemanticsError, BudgetExceeded) as e:
            print(f"goal {i}: not decidable here: {e}", file=out)
            unknown = True
            continue
        except HdqlError as e:  # e.g. a goal term whose state the frame refuses
            print(f"goal {i}: cannot be evaluated: {e}", file=out)
            return EXIT_DATA
        print(f"goal {i}: satisfied in the initial model: "
              f"{str(verdict).lower()}", file=out)
        failed = failed or not verdict
    return EXIT_FAILS if failed else EXIT_UNKNOWN if unknown else EXIT_PROVED


@functools.cache  # built once per process; parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdql",
        description="Prove and evaluate hybrid-dynamic quantum logic goals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def count(text: str) -> int:
        n = int(text)
        if n < 0:
            raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
        return n

    def tolerance(text: str) -> float:
        tol = float(text)
        if not 0 < tol < 1:  # also rejects nan and inf
            raise argparse.ArgumentTypeError(f"must be a number in (0, 1), got {text}")
        return tol

    def common(p):
        p.add_argument("specfile", help="problem file")
        p.add_argument("--tolerance", type=tolerance, default=DEFAULT_TOL)
        p.add_argument("--star-bound", type=count, default=64)

    p_check = sub.add_parser("check", help="prove the GOAL lines of the file")
    common(p_check)
    p_check.add_argument("--budget", type=count, default=10 ** 6)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--goal", type=int, default=None,
                         help="1-based index of a single goal to check")
    p_check.add_argument("--trace", default=None,
                         help="write the proof trace(s) to this path")

    p_eval = sub.add_parser("eval", help="evaluate a sentence at a state")
    common(p_eval)
    p_eval.add_argument("--at", required=True, help="state term")
    p_eval.add_argument("--sentence", required=True, help="sentence to evaluate")

    p_init = sub.add_parser("initial",
                            help="build the initial model of the axioms")
    common(p_init)
    p_init.add_argument("--depth", type=count, default=6)
    p_init.add_argument("--budget", type=count, default=10 ** 6)

    p_re = sub.add_parser("recheck",
                          help="re-run the kernel on a serialized trace")
    common(p_re)
    p_re.add_argument("tracefile", help="trace emitted by check --trace")
    return parser


def _load(path: str, flags: RunFlags, out) -> LoadedSpec | int:
    try:
        return load_spec(path, tolerance=flags.tolerance)
    except OSError as e:
        print(f"cannot read {path}: {e}", file=out)
        return EXIT_NOINPUT
    except SpecLoadError as e:
        for err in e.errors:
            print(err, file=out)
        return EXIT_DATA


def _statement_problem(spec: LoadedSpec, gamma, tree) -> str | None:
    """Why the trace proves no GOAL from (a subset of) the AXIOMS, if so."""
    axioms = {sx.desugar(a) for a in spec.axioms}
    for c in gamma:
        if c not in axioms:
            return f"clause {sx.format_sentence(c)} is not among the AXIOMS"
    k, goal = tree.conclusion.k, sx.desugar(tree.conclusion.goal)
    try:
        if any(sx.desugar(s) == goal and diagram_eq(spec.sig, t, k)
               for t, s in spec.goals):
            return None
    except HdqlError as e:  # e.g. an undeclared name in the root term
        return f"root term {sx.format_term(k)}: {e}"
    return (f"the root {sx.format_sentence(goal)} at {sx.format_term(k)} "
            "is no GOAL of the file")


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else EXIT_USAGE
    try:
        code = _run(args, out)
        out.flush()  # so that a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader is gone: write nothing more to it
        if out is sys.stdout:  # and let the interpreter's final flush go nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INTERNAL
    except Exception as e:  # every failure must end in a documented exit code
        print(f"internal error: {type(e).__name__}: {e}", file=out)
        return EXIT_INTERNAL


def _run(args: argparse.Namespace, out) -> int:
    flags = RunFlags(**{f.name: getattr(args, f.name) for f in fields(RunFlags)
                        if hasattr(args, f.name)})

    spec = _load(args.specfile, flags, out)
    if isinstance(spec, int):
        return spec

    if args.command == "check":
        goals = spec.goals
        if args.goal is not None:
            if not 1 <= args.goal <= len(goals):
                print(f"no goal {args.goal}: the file has {len(goals)}", file=out)
                return EXIT_USAGE
            goals = [goals[args.goal - 1]]
        if not goals:
            print("the file has no GOAL lines", file=out)
            return EXIT_DATA
        failed = unknown = False
        for i, goal in enumerate(goals, start=1):
            outcome = run_check(spec, goal, flags)
            print(f"goal {i}: {outcome.message}", file=out)
            if outcome.exit_code in (EXIT_DATA, EXIT_INTERNAL):
                return outcome.exit_code
            failed = failed or outcome.exit_code == EXIT_FAILS
            unknown = unknown or outcome.exit_code == EXIT_UNKNOWN
            if outcome.trace is not None and args.trace:
                path = args.trace if len(goals) == 1 else f"{args.trace}.{i}"
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(outcome.trace)
        return EXIT_FAILS if failed else EXIT_UNKNOWN if unknown else EXIT_PROVED

    if args.command == "eval":
        try:
            term = sx.parse_term(args.at)
            sentence = sx.parse_sentence(args.sentence)
        except ParseError as e:
            print(f"argument error: {e}", file=out)
            return EXIT_DATA
        code, message = run_eval(spec, term, sentence, flags)
        print(message, file=out)
        return code

    if args.command == "initial":
        return _run_initial(spec, flags, out)

    # recheck: deserialize a trace and run the kernel in this process
    try:
        with open(args.tracefile, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"cannot read {args.tracefile}: {e}", file=out)
        return EXIT_NOINPUT
    try:
        read = trace_from_json if text.lstrip().startswith("{") else deserialize_trace
        gamma, tree = read(text)
    except HdqlError as e:
        print(f"malformed trace: {e}", file=out)
        return EXIT_DATA
    problem = _statement_problem(spec, gamma, tree)
    if problem is not None:
        print(f"trace rejected: {problem}", file=out)
        return EXIT_FAILS
    verdict = check_proof(spec.sig, tree, flags.search_budget().star)
    if verdict.ok:
        print("trace checks", file=out)
        return EXIT_PROVED
    print(f"trace rejected at node {list(verdict.path)}: {verdict.reason}",
          file=out)
    return EXIT_FAILS


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
