"""In-memory spans around the entry points, and the self-time arithmetic.

The tracer belongs to the benchmark, not the program: it wraps the public
entry points named in ``entrypoints.py`` with wall-clock timers, only in a
traced batch, and keeps ``[name, start, end, parent, op_id]`` rows in a
list until the batch ends.  A layer is the prefix of a span name up to the
first dot (``query.satisfies`` belongs to ``query``), i.e. a ``repro``
subpackage; ``bench`` is the benchmark's own loop around the calls.

A span's **self time** is its duration minus the part of its interval its
child spans cover, so self times over a whole tree add up to the root's
duration and every microsecond is attributed to exactly one layer.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

NAME, START, END, PARENT, OP = range(5)

#: entry-point key -> span name, for the plain "time the call" wrappers.
SPAN_NAMES = {
    "parse_query": "query.parse",
    "compile_query": "query.compile",
    "satisfies": "query.satisfies",
    "optimize": "core.optimize",
    "plancache_plan": "serve.plancache_plan",
    "generate_workload": "serve.generate_workload",
    "session_open": "serve.open",
    "scheduler_run": "serve.scheduler_run",
    "sharded_run": "serve.scheduler_run",
    "pool_invoke": "services.invoke",
    "store_save": "durability.store_save",
    "store_load": "durability.store_load",
    "checkpoint_session": "durability.checkpoint_session",
    "restore_session": "durability.restore_session",
    "topk_join": "joins.topk",
    "parallel_run": "joins.parallel_run",
    "pipe_run": "joins.pipe_run",
}


class Tracer:
    """Span list plus the counts read off the wrapped calls' results."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, name: str, op: Any = None) -> int:
        """Open a span; without ``op`` it inherits its parent's ``op_id``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][OP]
        self.spans.append([name, time.perf_counter(), 0.0, parent, op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op: Any = None) -> Iterator[None]:
        index = self.begin(name, op)
        try:
            yield
        finally:
            self.end(index)

    def timed(self, name: str, fn: Callable, on_result: Callable | None = None):
        """``fn`` wrapped in a span; ``on_result(counts, result)`` reads counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            op = spans[parent][OP] if parent >= 0 else None
            spans.append([name, clock(), 0.0, parent, op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        return wrapper

    def stepped(self, fn: Callable):
        """``SessionManager.stepper`` wrapped: one span per ``next()``.

        Creating the stepper (which opens the session for a ``run``) and
        each resume are ``engine.step`` spans carrying the request id as
        ``op_id``; their sum is the request's wall time.
        """
        tracer = self

        def stepper(manager, request):
            op = (request.kind, request.request_id)
            with tracer.span("engine.step", op):
                generator = fn(manager, request)
            return tracer._steps(generator, op)

        return stepper

    def _steps(self, generator, op):
        while True:
            index = self.begin("engine.step", op)
            try:
                event = next(generator)
            except StopIteration as stop:
                return stop.value
            finally:
                self.end(index)
            yield event

    def reranked(self, fn: Callable):
        tracer = self

        def rerank(manager, request):
            with tracer.span("engine.rerank", (request.kind, request.request_id)):
                return fn(manager, request)

        return rerank

    def counted_execution(self, fn: Callable):
        """``LiquidQuerySession.execute_steps``: counts only, no span.

        The generator is suspended between round trips, so its lifetime is
        not a wall interval; its return value carries the executor's
        ``pairs_probed`` and result-tuple counts.
        """
        counts = self.counts

        def execute_steps(session):
            result = yield from fn(session)
            counts["engine.executions"] += 1
            counts["engine.pairs_probed"] += result.pairs_probed
            counts["engine.result_tuples"] += len(result.tuples)
            return result

        return execute_steps


def _optimize_counts(counts, outcome) -> None:
    counts["core.plans"] += 1
    counts["core.bnb_expanded"] += outcome.stats.expanded


def _save_counts(counts, path) -> None:
    counts["durability.bytes_written"] += Path(path).stat().st_size


def _parallel_counts(counts, result) -> None:
    counts["joins.methods.pairs_probed"] += result.stats.pairs_probed
    counts["joins.methods.pairs_produced"] += result.stats.results


_ON_RESULT = {
    "optimize": _optimize_counts,
    "store_save": _save_counts,
    "parallel_run": _parallel_counts,
    "pipe_run": _parallel_counts,
}


@contextmanager
def tracing(ep, tracer: Tracer) -> Iterator[None]:
    """Install every timing wrapper for the duration of one traced batch."""
    undo: list = []
    try:
        for key, name in SPAN_NAMES.items():
            undo += ep.rebind(
                key, tracer.timed(name, getattr(ep, key), _ON_RESULT.get(key))
            )
        undo += ep.rebind("session_stepper", tracer.stepped(ep.session_stepper))
        undo += ep.rebind("session_rerank", tracer.reranked(ep.session_rerank))
        undo += ep.rebind(
            "execute_steps", tracer.counted_execution(ep.execute_steps)
        )
        yield
    finally:
        ep.restore(undo)


class RequestClock:
    """Wall time per serving request, with tracing off.

    The serving entry points drain a whole workload in one call, so the
    only way to see one request's share is at the stepper: two clock reads
    around creating it and around each resume (a few dozen per request,
    against milliseconds of work).  Same definition as the traced
    ``engine.step`` spans, without keeping spans.
    """

    def __init__(self) -> None:
        self.seconds: dict[tuple[str, int], float] = defaultdict(float)

    @contextmanager
    def installed(self, ep) -> Iterator[None]:
        seconds, clock = self.seconds, time.perf_counter
        make_stepper, rerank = ep.session_stepper, ep.session_rerank

        def steps(generator, op):
            while True:
                started = clock()
                try:
                    event = next(generator)
                except StopIteration as stop:
                    return stop.value
                finally:
                    seconds[op] += clock() - started
                yield event

        def stepper(manager, request):
            op = (request.kind, request.request_id)
            started = clock()
            generator = make_stepper(manager, request)
            seconds[op] += clock() - started
            return steps(generator, op)

        def timed_rerank(manager, request):
            started = clock()
            try:
                return rerank(manager, request)
            finally:
                seconds[(request.kind, request.request_id)] += clock() - started

        undo = ep.rebind("session_stepper", stepper)
        undo += ep.rebind("session_rerank", timed_rerank)
        try:
            yield
        finally:
            ep.restore(undo)


# -- self-time arithmetic ------------------------------------------------------


def covered(intervals: Sequence[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Per span: duration minus the interval its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - covered(children.get(index, ()), span[START], span[END])
        for index, span in enumerate(spans)
    ]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_seconds_by(spans: Sequence[Sequence], key: Callable[[str], str]) -> dict[str, float]:
    """Self time summed per ``key(span name)`` (per name, or per layer)."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[key(span[NAME])] += own
    return dict(totals)


def self_ms_by_layer(spans: Sequence[Sequence]) -> dict[str, float]:
    return {
        layer: seconds * 1e3
        for layer, seconds in sorted(self_seconds_by(spans, layer_of).items())
    }


def write_trace(
    path: Path, workload: str, spans: Sequence[Sequence], counts: dict, by_layer: dict
) -> None:
    """Dump one traced batch: a name table, then one row per span.

    Rows are ``[name index, start s, end s, parent row, op_id]`` with times
    relative to the first span, parents always earlier rows (``-1`` for the
    root) — see the README for how to read it.
    """
    names = sorted({span[NAME] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    origin = spans[0][START] if spans else 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(
            {
                "workload": workload,
                "columns": ["name", "start_s", "end_s", "parent", "op_id"],
                "names": names,
                "counts": dict(counts),
                "self_ms_by_layer": by_layer,
                "spans": [
                    [
                        index[span[NAME]],
                        round(span[START] - origin, 7),
                        round(span[END] - origin, 7),
                        span[PARENT],
                        span[OP],
                    ]
                    for span in spans
                ],
            },
            handle,
            separators=(",", ":"),
        )
