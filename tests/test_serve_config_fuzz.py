"""A typed failure or a whole report for every ``ServeConfig`` combination.

Hypothesis combines the fields the scheduler reads — shards, stealing,
cache mode and bounds, service rate, time scale, backend, placement,
checkpoint period and resume — drawing 0, negatives, fractions, ``nan``
and ``inf`` where a number goes.  Every
example must either

* be refused at construction with a
  :class:`~repro.errors.SearchComputingError`, or
* serve a six-request workload through :func:`repro.serve.serve` into a
  report with exactly one outcome per request, or refuse it with a
  :class:`~repro.errors.SearchComputingError`,

within a deadline: a value that passes the door but hangs the run fails
the example instead of the suite.  Tier-1 draws a few dozen in-process
examples; the ``slow`` twin draws more and also places shards in worker
processes (``parallel``).
"""

from __future__ import annotations

import contextlib
import math
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.errors import SearchComputingError
from repro.serve import ServeConfig, WorkloadConfig, serve

WORKLOAD = WorkloadConfig(num_requests=6, rate=2.0, seed=2009, followup_fraction=0.5)

#: Wall seconds one example may take before it counts as hung.
DEADLINE = 20

NAN, INF = math.nan, math.inf


#: Values each field takes in a working run.
GOOD = {
    "num_shards": [1, 2, 3],  # few: a parallel run forks one worker per shard
    "steal": [True, False],
    "cache_mode": ["shared", "private", "isolated"],
    "cache_size": [None, 1, 64],
    "plan_cache_size": [None, 1, 64],
    "default_service_rate": [None, 0.5, 4.0],
    "time_scale": [0.0, 1e-5],
    "backend": ["virtual", "virtual", "asyncio"],
    "checkpoint_every": [0, 1, 3],
    "durable": ["no", "no", "fresh", "resume"],
}

#: The first working combination, for the pinned examples.
BASE = {name: good[0] for name, good in GOOD.items()} | {"parallel": False}

_ODD_NUMBERS = [-1, 0, 2.5, NAN, INF, -INF, True]

#: Values a field of its kind may be handed by mistake.
ODD = {
    **dict.fromkeys(
        ("num_shards", "cache_size", "plan_cache_size", "checkpoint_every"),
        _ODD_NUMBERS,
    ),
    "default_service_rate": [-1.0, 0.0, NAN, INF],
    "time_scale": [-1.0, NAN, INF],
    "cache_mode": ["bogus"],
    "backend": ["threads"],
    "durable": ["resume-no-dir"],
}


@st.composite
def configs(draw, parallel):
    """A working combination with up to two fields spoiled."""
    values = {name: draw(st.sampled_from(good)) for name, good in GOOD.items()}
    values["parallel"] = draw(st.booleans()) if parallel else False
    for name in draw(st.lists(st.sampled_from(sorted(ODD)), max_size=2, unique=True)):
        values[name] = draw(st.sampled_from(ODD[name]))
    return values


class Hung(Exception):
    """Raised by the deadline's alarm."""


@contextlib.contextmanager
def deadline(seconds):
    def alarm(signum, frame):
        raise Hung(f"serving took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def check(values):
    values = dict(values)
    durable = values.pop("durable")
    with tempfile.TemporaryDirectory(prefix="repro-config-") as tmp:
        if durable != "no":
            values["resume"] = durable != "fresh"
            if durable != "resume-no-dir":
                values["checkpoint_dir"] = Path(tmp) / "store"
        try:
            config = ServeConfig(**values)
        except SearchComputingError:
            event("refused at construction")
            return
        try:
            with deadline(DEADLINE):
                report = serve(config, WORKLOAD)
        except SearchComputingError:
            event("refused by serve")
            return
    event("served")
    assert len(report.outcomes) == WORKLOAD.num_requests, values
    assert sorted(report.outcomes) == list(range(WORKLOAD.num_requests)), values


@settings(max_examples=40, deadline=None)
@given(values=configs(parallel=False))
# A shard count that is no integer once reached ``range`` untyped, and an
# infinite asyncio time scale slept forever on the first call.
@example(values=BASE | {"num_shards": 2.5})
@example(values=BASE | {"backend": "asyncio", "time_scale": INF})
def test_every_config_is_refused_or_serves_every_request(values):
    check(values)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(values=configs(parallel=True))
def test_every_config_is_refused_or_serves_every_request_at_length(values):
    check(values)
