"""Spans recorded from outside the package by swapping in timing wrappers.

The solver and the CLI look their collaborators up as module globals at call
time, so replacing ``tfade.solver.dgtsv`` (say) with a wrapper times every
call the march makes without touching the package.  A span holds its name,
start and end (perf_counter seconds), the span that was open in the same
thread when it began, the job it belongs to, the thread, the repeat of the
workload, a tag (the method, for solves) and a payload (a size, for the
metrics computed from bytes or terms).  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from typing import Callable, NamedTuple

# (module, attribute, span name, payload(args, result) or None)
INNER = [
    ("tfade.solver", "build_soe", "soe.build_soe", lambda a, r: r.n_exp),
    ("tfade.solver", "lambda_tables", "operators.lambda_tables",
     lambda a, r: sum(t.nbytes for t in r)),
    ("tfade.solver", "history_advance", "operators.history_advance", lambda a, r: a[0].H.nbytes),
    ("tfade.solver", "dgtsv", "solver.dgtsv", None),
    ("tfade.solver", "_direct_history", "solver.direct_history", None),
]
# the calls ``tfade convergence`` makes per job
CLI = [
    ("tfade.cli", "run", "solver.run", None),
    ("tfade.cli", "max_error", "problems.max_error", None),
]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    id: int
    parent: int | None
    job: int | None
    thread: int
    rep: int
    tag: str | None
    payload: float | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped callables; `install` swaps module globals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.results: list[tuple[Span, object]] = []  # (solver.run span, Trajectory)
        self.rep = 0
        self.absent: list[str] = []
        self._ids = itertools.count(1)  # next() on a count is atomic under the GIL
        self._jobs = itertools.count(1)
        self._local = threading.local()
        self._swapped: list[tuple[object, str, Callable]] = []

    def wrap(self, name: str, fn: Callable, payload: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; solves also keep their result."""
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter
        is_run = name == "solver.run"

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:  # first span in this thread
                stack = local.stack = [None]
                local.job = None
            if is_run:
                local.job = next(self._jobs)
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            span = Span(
                name, start, end, span_id, parent, local.job, threading.get_ident(), self.rep,
                args[0].method if is_run else None,
                None if payload is None else float(payload(args, result)),
            )
            spans.append(span)
            if is_run:
                self.results.append((span, result))
            return result

        return traced

    def install(self, targets) -> None:
        """Replace each (module, attribute) in ``targets`` by its wrapper."""
        for module_name, attr, name, payload in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._swapped.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, payload))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._swapped):
            setattr(module, attr, original)
        self._swapped.clear()

    def take_results(self) -> list[tuple[Span, object]]:
        out, self.results = self.results, []
        return out

    def dump(self, path) -> None:
        """Write the spans as CSV, one line per span."""
        with open(path, "w") as fh:
            fh.write("name,start,end,id,parent,job,thread,rep,tag,payload\n")
            for s in self.spans:
                fh.write(",".join("" if v is None else str(v) for v in (
                    s.name, repr(s.start), repr(s.end), s.id, s.parent, s.job,
                    s.thread, s.rep, s.tag, s.payload)) + "\n")
