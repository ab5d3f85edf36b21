"""Spans around hdql's public functions, installed from outside the package.

The tracer replaces module attributes (and three ``ProofSession``
methods) with wrappers that record a span per call: name, start, end,
parent span and request id. Self time is computed as the calls happen: a
span's duration minus the durations of the traced calls it made. Work
the tracer itself does after a call (counting proof nodes, for instance)
is charged to no layer, and neither is the time of the speed probe's
kernel (``speed.py``), which runs inside whatever span is open.

Three kinds of target:

* stored: every call becomes a span kept in memory and written out at
  the end of the run;
* aggregated: hot or recursive functions (``eval_term``, the ``parse_*``
  and ``format_*`` families, ``orthonormalize``) only add to per-name
  totals, so a traced run does not hold millions of spans; a call made
  from inside a call of the same family is not counted again;
* counted: ``hilbert.norm`` is called millions of times in a large
  initial build, so it is only counted.

``eval_term`` is wrapped where other modules imported it, not inside
``signature``, so its recursive calls are not counted.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import speed

MAX_STORED_SPANS = 400_000


class Tracer:
    def __init__(self):
        self.on = False
        self.request = 0
        # [name, family, start, child_time, span_index, speed kernel time at start]
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def reset(self) -> None:
        self.spans.clear()
        self.dropped = 0
        self.calls.clear()
        self.total.clear()
        self.self_time.clear()
        self.counts.clear()

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def begin_request(self) -> None:
        self.request += 1
        self.on = True

    def end_request(self) -> None:
        self.on = False

    def _enter(self, name: str, family: str | None, store: bool) -> list:
        index = -1
        if store:
            if len(self.spans) < MAX_STORED_SPANS:
                index = len(self.spans)
                self.spans.append(None)  # filled in on exit
            else:
                self.dropped += 1
        frame = [name, family, 0.0, 0.0, index, 0.0]
        self.stack.append(frame)
        frame[5] = speed.stolen()
        frame[2] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        name, _, start, child, index, stolen = frame
        duration = end - start - (speed.stolen() - stolen)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        if self.stack:
            self.stack[-1][3] += duration
        if index >= 0:
            parent = next((f[4] for f in reversed(self.stack) if f[4] >= 0), -1)
            self.spans[index] = (name, start, end, parent, self.request)

    def _charge_nobody(self, seconds: float) -> None:
        """Keep tracer bookkeeping out of the enclosing span's self time."""
        if self.stack:
            self.stack[-1][3] += seconds

    # ------------------------------------------------------------- wrappers
    def span(self, name: str, fn, store: bool = True, family: str | None = None,
             after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on or (family is not None and tracer.stack
                                 and tracer.stack[-1][1] == family):
                return fn(*args, **kwargs)
            frame = tracer._enter(name, family, store)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                t = perf_counter()
                after(tracer, args, result)
                tracer._charge_nobody(perf_counter() - t)
            return result

        return traced

    def counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.on:
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------- patching
    def patch_everywhere(self, original, wrapper, skip: tuple[str, ...] = ()) -> None:
        """Replace ``original`` in every hdql module namespace that holds it."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "hdql" or modname.startswith("hdql.")):
                continue
            if modname in skip:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        from hdql import calculus, cli, hilbert, initial_model, semantics, signature
        from hdql import specfile, syntax

        def proof_nodes(tracer, args, result):
            tracer.add("calculus.proof_nodes", count_nodes(args[1]))

        def trace_bytes(tracer, args, result):
            tracer.add("specfile.trace_bytes", len(result.encode("utf-8")))

        def universe_terms(tracer, args, result):
            tracer.add("initial_model.universe_terms", len(result[0]))

        stored = [
            (specfile, "load_spec", "specfile.load", None),
            (specfile, "serialize_trace", "specfile.serialize", trace_bytes),
            (specfile, "deserialize_trace", "specfile.deserialize", None),
            (specfile, "trace_to_json", "specfile.json_encode", trace_bytes),
            (specfile, "trace_from_json", "specfile.json_decode", None),
            (calculus, "check_proof", "calculus.kernel", proof_nodes),
            (initial_model, "generate_universe", "initial_model.universe", universe_terms),
            (initial_model, "build_initial", "initial_model.build", None),
            (semantics, "sat_at", "semantics.sat", None),
            (cli, "main", "cli.main", None),
        ]
        for module, attr, name, after in stored:
            fn = getattr(module, attr)
            self.patch_everywhere(fn, self.span(name, fn, after=after))
        for attr in ("parse_sentence", "parse_term", "parse_action", "parse",
                     "parse_complex"):
            fn = getattr(syntax, attr)
            self.patch_everywhere(fn, self.span("syntax.parse", fn, store=False,
                                                family="syntax.parse"))
        for attr in ("format_complex", "format_term", "format_action",
                     "format_sentence"):
            fn = getattr(syntax, attr)
            self.patch_everywhere(fn, self.span("syntax.format", fn, store=False,
                                                family="syntax.format"))
        fn = signature.eval_term
        self.patch_everywhere(fn, self.span("signature.eval_term", fn, store=False,
                                            family="signature.eval_term"),
                              skip=("hdql.signature",))
        fn = hilbert.orthonormalize
        self.patch_everywhere(fn, self.span("hilbert.orthonormalize", fn, store=False,
                                            family="hilbert.orthonormalize"))
        self.patch_everywhere(hilbert.norm, self.counter("hilbert.norm", hilbert.norm))
        session = calculus.ProofSession
        for attr, name in (("__init__", "calculus.session_init"),
                           ("prove", "calculus.prove"),
                           ("register_terms", "calculus.register_terms")):
            self.patch_method(session, attr, self.span(name, session.__dict__[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -------------------------------------------------------------- output
    def snapshot(self) -> dict[str, int]:
        """Every count the traced run reports; these must repeat per round."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.counts)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, request = span
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def count_nodes(tree) -> int:
    n, todo = 0, [tree]
    while todo:
        node = todo.pop()
        n += 1
        todo.extend(node.premises)
    return n
