"""Shared fixtures: example registries, compiled queries, small schemas."""

from __future__ import annotations

import time

import pytest

from repro.model.attributes import Attribute, DataType, Domain, RepeatingGroup
from repro.model.scoring import LinearScoring
from repro.model.service import (
    AccessPattern,
    ServiceInterface,
    ServiceKind,
    ServiceMart,
    ServiceStats,
)
from repro.obs.tracer import NULL_TRACER
from repro.query.compile import compile_query
from repro.query.parser import parse_query
from repro.serve import (
    ServeConfig,
    WorkloadConfig,
    default_templates,
    generate_workload,
    serve,
)
from repro.services.marts import (
    CONFERENCE_QUERY,
    RUNNING_EXAMPLE_QUERY,
    conference_trip_registry,
    movie_night_registry,
)


def serve_seeded(
    *,
    rate,
    num_requests,
    seed,
    skew=1.3,
    followup_fraction=0.25,
    tracer=None,
    slo=None,
    digest_fn=None,
    on_checkpoint=None,
    **config,
):
    """``serve()`` one seeded workload in the benchmark posture.

    One ``seed`` for workload and data and 4 calls/s per service (what the replaced ``serve_workload*`` entry
    points defaulted to); any other keyword is a ``ServeConfig`` field.
    Returns the :class:`~repro.serve.ServeReport`.
    """
    posture = {"data_seed": seed, "default_service_rate": 4.0}
    return serve(
        ServeConfig(**{**posture, **config}),
        WorkloadConfig(
            num_requests=num_requests,
            rate=rate,
            skew=skew,
            seed=seed,
            followup_fraction=followup_fraction,
        ),
        tracer=tracer,
        slo=slo,
        digest_fn=digest_fn,
        on_checkpoint=on_checkpoint,
    )


#: The disabled tracer's contract (DESIGN.md): its plumbing costs an
#: untraced run under 5 % of that run's wall time.
MAX_NOOP_SHARE = 0.05


def noop_share(spans: int, untraced_wall: float) -> float:
    """What tracing costs a run when it is off, as a share of its wall time.

    Every span an enabled run records is one no-op ``NULL_TRACER.span()``
    of the untraced run, behind at most one ``tracer.enabled`` guard, so
    ``spans x (guard + no-op span) / untraced_wall`` over-counts it (a
    guard with no span, on a pruned branch, costs less).  Both costs are
    timed here, each as the mean of 200,000 calls.
    """
    iterations = 200_000
    tracer = NULL_TRACER
    started = time.perf_counter()
    for _ in range(iterations):
        if tracer.enabled:  # pragma: no cover - never taken
            pass
    guard = (time.perf_counter() - started) / iterations
    started = time.perf_counter()
    for _ in range(iterations):
        with tracer.span("x"):
            pass
    span = (time.perf_counter() - started) / iterations
    return spans * (guard + span) / untraced_wall


def orphaned_followups():
    """A dense seeded stream (it queues at every shard's slots) with every
    third run left out: the follow-ups of those runs name a target the
    server never saw, and are rejected."""
    stream = generate_workload(
        default_templates(),
        WorkloadConfig(num_requests=24, rate=8.0, seed=2009, followup_fraction=0.5),
    )
    return [r for r in stream if not (r.kind == "run" and r.request_id % 3 == 0)]


@pytest.fixture(scope="session")
def movie_registry():
    return movie_night_registry()


@pytest.fixture(scope="session")
def conference_registry():
    return conference_trip_registry()


@pytest.fixture(scope="session")
def movie_query(movie_registry):
    return compile_query(parse_query(RUNNING_EXAMPLE_QUERY), movie_registry)


@pytest.fixture(scope="session")
def conference_query(conference_registry):
    return compile_query(parse_query(CONFERENCE_QUERY), conference_registry)


@pytest.fixture()
def tiny_mart():
    """A minimal mart with one atomic attribute and one repeating group."""
    return ServiceMart(
        "Thing",
        (
            Attribute("Key", Domain("key", DataType.INTEGER, size=10)),
            Attribute("Payload", Domain("payload", DataType.STRING)),
            RepeatingGroup(
                "R",
                (
                    Attribute("A", Domain("a", DataType.INTEGER, size=5)),
                    Attribute("B", Domain("b", DataType.STRING, size=5)),
                ),
            ),
        ),
    )


@pytest.fixture()
def tiny_search_interface(tiny_mart):
    return ServiceInterface(
        name="Thing1",
        mart=tiny_mart,
        access_pattern=AccessPattern.from_spec({"Key": "I"}),
        kind=ServiceKind.SEARCH,
        stats=ServiceStats(avg_cardinality=30, chunk_size=5, latency=1.0),
        scoring=LinearScoring(horizon=30),
    )
