"""S4 — property tests for the scheduler's token bucket.

Two invariants the serving scheduler leans on:

* **FIFO**: ``grant`` never grants out of request order — a later
  reservation never receives an earlier send time than one already
  granted (``updated`` tracks the reservation frontier).
* **Conservation**: the bucket never over-grants.  Starting with
  ``burst`` tokens and refilling at ``rate``/second, at most
  ``burst + rate * t`` calls can have been granted by time ``t`` — so
  the ``i``-th grant (1-based) lands no earlier than
  ``(i - burst) / rate``.

The properties are exercised under fractional ``burst < 1.0`` and very
low rates — regimes :class:`~repro.serve.scheduler.ServeConfig` refuses
(it requires ``service_burst >= 1.0``) but the bucket itself must stay
sound in, since nothing in ``_TokenBucket`` enforces the config's
bounds.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.sharding import _TokenBucket

#: Absolute slack for float accumulation across a grant sequence.
EPS = 1e-6

rates = st.one_of(
    st.floats(min_value=1e-3, max_value=0.05),  # very low rates
    st.floats(min_value=0.05, max_value=100.0),
)
bursts = st.one_of(
    st.sampled_from([0.3, 0.5, 0.99]),  # fractional: below one whole token
    st.floats(min_value=1.0, max_value=8.0),
)
arrival_lists = st.lists(
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    min_size=1,
    max_size=40,
)


def _grants(bucket: _TokenBucket, arrivals: list[float]) -> list[float]:
    return [bucket.grant(at) for at in arrivals]


@settings(max_examples=200, deadline=None)
@given(rate=rates, burst=bursts, arrivals=arrival_lists)
def test_grants_are_fifo_and_never_early(rate, burst, arrivals):
    """Grant times are non-decreasing in request order — even when the
    requested times themselves arrive out of order — and a call is never
    granted before it was requested."""
    bucket = _TokenBucket(rate=rate, burst=burst)
    grants = _grants(bucket, arrivals)
    for at, granted in zip(arrivals, grants):
        assert granted >= at - EPS
    for earlier, later in zip(grants, grants[1:]):
        assert later >= earlier - EPS


@settings(max_examples=200, deadline=None)
@given(rate=rates, burst=bursts, gaps=st.lists(
    st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=40
))
def test_grants_conserve_tokens(rate, burst, gaps):
    """By any grant time ``t``, the bucket has released at most
    ``burst + rate * t`` tokens: grant ``i`` obeys
    ``t_i >= (i + 1 - burst) / rate`` (0-based ``i``), up to float slack."""
    bucket = _TokenBucket(rate=rate, burst=burst)
    at = 0.0
    grants = []
    for gap in gaps:
        at += gap
        grants.append(bucket.grant(at))
    for index, granted in enumerate(grants):
        earliest = (index + 1 - burst) / rate
        tolerance = EPS * max(1.0, abs(earliest))
        assert granted >= earliest - tolerance


@pytest.mark.parametrize(
    ("rate", "burst"),
    [(0.5, 0.5), (0.25, 0.3), (2.0, 0.99), (1e-3, 0.5)],
)
def test_fractional_burst_closed_form(rate, burst):
    """With ``burst < 1`` and all requests at t=0, the ``n``-th grant
    (1-based) lands exactly at ``(n - burst) / rate``: the bucket starts
    below one whole token, so every call waits for the refill."""
    bucket = _TokenBucket(rate=rate, burst=burst)
    for n in range(1, 6):
        expected = (n - burst) / rate
        assert bucket.grant(0.0) == pytest.approx(expected)


def test_idle_refill_caps_at_burst():
    """A long idle gap refills to ``burst`` and no further: after the
    burst is drained back-to-back, the next call waits a full token."""
    bucket = _TokenBucket(rate=1.0, burst=3.0)
    assert bucket.grant(0.0) == pytest.approx(0.0)
    # Idle for ages: tokens cap at 3, not 1000.
    assert bucket.grant(1000.0) == pytest.approx(1000.0)
    assert bucket.grant(1000.0) == pytest.approx(1000.0)
    assert bucket.grant(1000.0) == pytest.approx(1000.0)
    # Burst drained: the fourth immediate call waits 1/rate.
    assert bucket.grant(1000.0) == pytest.approx(1001.0)
