"""Span tracing on virtual time.

A :class:`Tracer` is the explicit observability context threaded through
the optimizer, engine, and joins — there is deliberately no global or
thread-local registry, so two concurrently running executions can never
contaminate each other's traces.  Spans form a tree: the tracer keeps a
stack of open spans and each new span parents to the innermost open one.

Timestamps come from the **virtual clock**, not wall time.  Measured cost
in this repro is a function of the simulated clock (see
``repro.engine.events``); putting spans on the same axis makes a trace an
exact, seed-reproducible decomposition of measured execution time.
Compile- and optimization-phase spans run before any service call, so
they sit at virtual time 0 with zero duration — they still carry their
counts and attributes, and their tree order is preserved by span ids.

The disabled path is near-zero-overhead: :data:`NULL_TRACER` returns one
shared, attribute-dropping span handle, and hot loops guard on
``tracer.enabled`` so they do not even build the attribute dict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol

__all__ = ["SpanRecord", "Tracer", "NullTracer", "NULL_TRACER", "coerce_tracer"]


class _ClockLike(Protocol):  # pragma: no cover - typing only
    now: float


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: a named interval of virtual time plus attributes.

    ``span_id`` is assigned in *start* order (1-based) and ``parent_id``
    is the id of the innermost span open at start time (``None`` for
    roots), so the tree and its traversal order are reconstructible from
    the flat list.
    """

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    attrs: Mapping[str, Any]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _SpanHandle:
    """An open span; a context manager that finishes it on exit."""

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "start", "attrs")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.attrs = attrs

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute."""
        self.attrs[key] = value

    def add(self, key: str, delta: float = 1) -> None:
        """Increment a numeric attribute (created at 0)."""
        self.attrs[key] = self.attrs.get(key, 0) + delta

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)
        return False


class _NullSpan:
    """Shared no-op span handle: accepts and drops everything."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def add(self, key: str, delta: float = 1) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every ``span()`` is the same shared no-op.

    Components default to this, so the instrumented hot paths cost one
    attribute load (``tracer.enabled``) or one trivially inlinable method
    call when tracing is off.
    """

    enabled: bool = False
    spans: tuple[SpanRecord, ...] = ()

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: int | None = None,
        **attrs: Any,
    ) -> None:
        return None

    def bind_clock(self, clock: _ClockLike | None) -> None:
        pass


#: The process-wide disabled tracer (stateless, safe to share).
NULL_TRACER = NullTracer()


@dataclass
class Tracer:
    """Collects a span tree over a virtual clock.

    Parameters
    ----------
    clock:
        Any object with a ``now`` attribute (typically the service pool's
        :class:`~repro.engine.events.VirtualClock`).  ``None`` pins
        timestamps to 0.0 — the right value for phases that precede
        execution (compile, optimization); bind the real clock with
        :meth:`bind_clock` before executing.
    """

    clock: _ClockLike | None = None
    enabled: bool = True
    spans: list[SpanRecord] = field(default_factory=list)
    _stack: list[_SpanHandle] = field(default_factory=list, repr=False)
    _ids: "itertools.count[int]" = field(
        default_factory=lambda: itertools.count(1), repr=False
    )

    def bind_clock(self, clock: _ClockLike | None) -> None:
        """Point subsequent spans at ``clock`` (e.g. once the pool exists)."""
        self.clock = clock

    def now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """Open a child span of the innermost open span."""
        parent = self._stack[-1].span_id if self._stack else None
        handle = _SpanHandle(
            self, next(self._ids), parent, name, self.now(), attrs
        )
        self._stack.append(handle)
        return handle

    def _finish(self, handle: _SpanHandle) -> None:
        # Close any spans left open inside first (defensive: a component
        # that returns without exiting a child still yields a well-formed
        # tree — the orphans finish at their parent's end time).
        while self._stack and self._stack[-1] is not handle:
            self._record(self._stack.pop())
        if self._stack:
            self._stack.pop()
        self._record(handle)

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: int | None = None,
        **attrs: Any,
    ) -> SpanRecord:
        """Append an already-measured span retrospectively.

        The serving scheduler measures a request's life (arrival →
        completion) on the *server* clock and only knows the interval
        once it closes — a stack-based ``span()`` cannot express dozens
        of overlapping request lifetimes anyway.  The record joins the
        span list as a root (or a child of ``parent_id``) with its id in
        creation order, like any other span.
        """
        record = SpanRecord(
            span_id=next(self._ids),
            parent_id=parent_id,
            name=name,
            start=start,
            end=end,
            attrs=dict(attrs),
        )
        self.spans.append(record)
        return record

    def _record(self, handle: _SpanHandle) -> None:
        self.spans.append(
            SpanRecord(
                span_id=handle.span_id,
                parent_id=handle.parent_id,
                name=handle.name,
                start=handle.start,
                end=self.now(),
                attrs=dict(handle.attrs),
            )
        )

    # -- introspection helpers ---------------------------------------------------

    def finished(self, name: str | None = None) -> list[SpanRecord]:
        """Finished spans, optionally filtered by name."""
        if name is None:
            return list(self.spans)
        return [span for span in self.spans if span.name == name]

    def ordered(self) -> list[SpanRecord]:
        """Finished spans in start (span id) order — the tree's preorder."""
        return sorted(self.spans, key=lambda span: span.span_id)



def coerce_tracer(tracer: "Tracer | NullTracer | None") -> "Tracer | NullTracer":
    """Map ``None`` to the shared disabled tracer."""
    return NULL_TRACER if tracer is None else tracer
