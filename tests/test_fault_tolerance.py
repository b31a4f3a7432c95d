"""Fault injection, retry/backoff, and degradation: the production-honest path.

The chapter assumes every remote service answers instantly and correctly;
these tests exercise the opposite: seeded transient failures, slow calls
and timeouts, permanent outages — and the retry/backoff/degradation
machinery that keeps execution deterministic, fully accounted, and (under
``partial`` degradation) always terminating with best-effort results.
"""

import math
import random

import pytest

from repro.engine.events import CallLog, VirtualClock
from repro.engine.executor import PlanExecutor, execute_plan
from repro.engine.retry import NO_RETRY, Degradation, Retrier, RetryPolicy
from repro.errors import (
    ExecutionError,
    RetryExhaustedError,
    ServiceInvocationError,
    ServiceTimeoutError,
    ServiceUnavailableError,
)
from repro.joins.methods import ListChunkSource, ParallelJoinExecutor
from repro.model.scoring import LinearScoring
from repro.model.tuples import ServiceTuple
from repro.services.marts import RUNNING_EXAMPLE_INPUTS
from repro.services.simulated import (
    FaultModel,
    FaultProfile,
    ServicePool,
    SimulatedService,
)


# -- helpers -------------------------------------------------------------------


def movie_plan(movie_query):
    """Any executable plan for the running example."""
    from repro.core.optimizer import Optimizer

    outcome = Optimizer(movie_query).optimize()
    assert outcome.best is not None
    return outcome.best


def run_example(
    movie_query,
    movie_registry,
    seed=5,
    fault_model=None,
    retry=None,
    degradation=Degradation.FAIL,
):
    best = movie_plan(movie_query)
    pool = ServicePool(
        movie_registry,
        global_seed=seed,
        fault_model=fault_model or FaultModel(),
    )
    result = execute_plan(
        best.plan,
        movie_query,
        pool,
        RUNNING_EXAMPLE_INPUTS,
        best.fetch_vector(),
        retry=retry,
        degradation=degradation,
    )
    return result, pool


# -- retry policy unit behaviour ----------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(
            base_backoff=1.0, backoff_multiplier=2.0, jitter_fraction=0.0
        )
        assert [policy.backoff(n) for n in (1, 2, 3)] == [1.0, 2.0, 4.0]

    def test_jitter_is_deterministic_per_rng_seed(self):
        policy = RetryPolicy(base_backoff=1.0, jitter_fraction=0.25)
        a = [policy.backoff(n, random.Random(9)) for n in (1, 2, 3)]
        b = [policy.backoff(n, random.Random(9)) for n in (1, 2, 3)]
        assert a == b
        assert a != [1.0, 2.0, 4.0]  # jitter did something

    def test_validation(self):
        with pytest.raises(ExecutionError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ExecutionError):
            RetryPolicy(call_timeout=0.0)
        with pytest.raises(ExecutionError):
            RetryPolicy(jitter_fraction=1.5)
        # NaN passes `x < bound`: a NaN backoff waited nothing (max(0.0, nan))
        # and a NaN deadline never fired.
        for field in ("base_backoff", "backoff_multiplier", "call_timeout"):
            with pytest.raises(ExecutionError):
                RetryPolicy(**{field: math.nan})
        # An infinite backoff printed ``inf virtual seconds`` (exit 0).
        with pytest.raises(ExecutionError):
            RetryPolicy(base_backoff=math.inf)

    def test_degradation_coercion(self):
        assert Degradation.coerce("partial") is Degradation.PARTIAL
        assert Degradation.coerce(Degradation.FAIL) is Degradation.FAIL
        with pytest.raises(ExecutionError):
            Degradation.coerce("best-effort")


class TestRetrier:
    def test_retries_until_success(self):
        clock = VirtualClock()
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ServiceUnavailableError("boom", service="S")
            return "ok"

        retrier = Retrier(
            policy=RetryPolicy(
                max_attempts=5, base_backoff=1.0, jitter_fraction=0.0
            ),
            clock=clock,
        )
        assert retrier.call(flaky) == "ok"
        assert len(attempts) == 3
        assert retrier.retries == 2
        # Two backoff waits: 1.0 + 2.0 virtual seconds.
        assert clock.now == pytest.approx(3.0)

    def test_exhausted_retries_raise_with_chain(self):
        def always_down():
            raise ServiceUnavailableError("boom", service="S")

        retrier = Retrier(policy=RetryPolicy(max_attempts=3, base_backoff=0.0))
        with pytest.raises(RetryExhaustedError) as info:
            retrier.call(always_down)
        assert info.value.attempts == 3
        assert info.value.service == "S"
        assert isinstance(info.value.__cause__, ServiceUnavailableError)
        assert retrier.gave_up == 1

    def test_permanent_outage_short_circuits(self):
        calls = []

        def dead():
            calls.append(1)
            raise ServiceUnavailableError("down", service="S", permanent=True)

        retrier = Retrier(policy=RetryPolicy(max_attempts=5, base_backoff=0.0))
        with pytest.raises(RetryExhaustedError) as info:
            retrier.call(dead)
        assert len(calls) == 1  # retrying a dead service only burns time
        assert info.value.attempts == 1

    def test_no_retry_policy_gives_single_attempt(self):
        calls = []

        def flaky():
            calls.append(1)
            raise ServiceTimeoutError("slow", service="S", timeout=1.0)

        with pytest.raises(RetryExhaustedError):
            Retrier(policy=NO_RETRY).call(flaky)
        assert len(calls) == 1


# -- fault injection on the simulated substrate --------------------------------


class TestFaultInjection:
    def test_profile_validation(self):
        with pytest.raises(ExecutionError):
            FaultProfile(failure_rate=1.5)
        with pytest.raises(ExecutionError):
            FaultProfile(slow_factor=0.5)
        # A NaN slow factor used to print ``nan virtual seconds``.
        for field in ("failure_rate", "timeout_rate", "slow_factor"):
            with pytest.raises(ServiceInvocationError):
                FaultProfile(**{field: math.nan})
        with pytest.raises(ServiceInvocationError):
            FaultProfile(slow_factor=math.inf)

    def test_outage_raises_and_logs(self, tiny_search_interface):
        clock, log = VirtualClock(), CallLog()
        service = SimulatedService(
            tiny_search_interface,
            global_seed=1,
            fault_profile=FaultProfile(outage=True),
        )
        invocation = service.invoke({"Key": 2}, clock, log)
        with pytest.raises(ServiceUnavailableError) as info:
            invocation.next_chunk()
        assert info.value.permanent
        # The failed round trip costs time and is logged with its outcome.
        assert log.total_calls() == 1
        assert log.records[0].outcome == "unavailable"
        assert log.records[0].tuples == 0
        assert clock.now > 0

    def test_transient_failure_sequence_is_deterministic(
        self, tiny_search_interface
    ):
        def outcomes(seed):
            clock, log = VirtualClock(), CallLog()
            service = SimulatedService(
                tiny_search_interface,
                global_seed=seed,
                fault_profile=FaultProfile(failure_rate=0.5),
            )
            invocation = service.invoke({"Key": 2}, clock, log)
            seen = []
            for _ in range(12):
                try:
                    chunk = invocation.next_chunk()
                    seen.append("end" if chunk is None else "ok")
                except ServiceUnavailableError:
                    seen.append("error")
            return seen

        assert outcomes(7) == outcomes(7)
        assert "error" in outcomes(7)
        assert outcomes(7) != outcomes(8)  # the seed drives the faults

    def test_retry_reserves_same_chunk(self, tiny_search_interface):
        clock, log = VirtualClock(), CallLog()
        service = SimulatedService(
            tiny_search_interface,
            global_seed=3,
            fault_profile=FaultProfile(failure_rate=0.5),
        )
        invocation = service.invoke({"Key": 2}, clock, log)
        chunks = []
        for _ in range(40):
            try:
                chunk = invocation.next_chunk()
            except ServiceUnavailableError:
                continue
            if chunk is None:
                break
            chunks.append(chunk)
        # Failures never skip data: the retried stream equals the results.
        flat = [t for chunk in chunks for t in chunk]
        assert flat == invocation.results

    def test_attempt_numbers_recorded(self, tiny_search_interface):
        clock, log = VirtualClock(), CallLog()
        service = SimulatedService(
            tiny_search_interface,
            global_seed=3,
            fault_profile=FaultProfile(failure_rate=0.5),
        )
        invocation = service.invoke({"Key": 2}, clock, log)
        for _ in range(20):
            try:
                if invocation.next_chunk() is None:
                    break
            except ServiceUnavailableError:
                pass
        attempts = [r.attempt for r in log.records]
        failures = [r for r in log.records if r.failed]
        assert failures, "seed must produce at least one failure"
        assert max(attempts) > 1  # a retry happened and was numbered
        # Every successful call resets the attempt counter.
        for prev, rec in zip(log.records, log.records[1:]):
            if not prev.failed:
                assert rec.attempt == 1

    def test_slow_call_without_timeout_is_just_slow(self, tiny_search_interface):
        clock, log = VirtualClock(), CallLog()
        service = SimulatedService(
            tiny_search_interface,
            global_seed=1,
            fault_profile=FaultProfile(timeout_rate=1.0, slow_factor=10.0),
        )
        invocation = service.invoke({"Key": 2}, clock, log)
        chunk = invocation.next_chunk()
        assert chunk  # delivered, only late
        assert log.records[0].outcome == "slow"
        assert log.records[0].latency >= 5.0  # ~10x the 1.0s base

    def test_slow_call_with_timeout_raises_and_costs_the_deadline(
        self, tiny_search_interface
    ):
        clock, log = VirtualClock(), CallLog()
        service = SimulatedService(
            tiny_search_interface,
            global_seed=1,
            fault_profile=FaultProfile(timeout_rate=1.0, slow_factor=10.0),
        )
        invocation = service.invoke({"Key": 2}, clock, log, call_timeout=2.0)
        with pytest.raises(ServiceTimeoutError) as info:
            invocation.next_chunk()
        assert info.value.timeout == 2.0
        assert log.records[0].outcome == "timeout"
        assert log.records[0].latency == pytest.approx(2.0)
        assert clock.now == pytest.approx(2.0)

    def test_zero_rate_model_reproduces_fault_free_timeline(
        self, movie_query, movie_registry
    ):
        baseline, base_pool = run_example(movie_query, movie_registry, seed=4)
        zero, zero_pool = run_example(
            movie_query,
            movie_registry,
            seed=4,
            fault_model=FaultModel.uniform(failure_rate=0.0, timeout_rate=0.0),
            retry=RetryPolicy(max_attempts=3, base_backoff=0.5),
            degradation=Degradation.PARTIAL,
        )
        assert [t.score for t in zero.tuples] == [
            t.score for t in baseline.tuples
        ]
        assert [r.latency for r in zero_pool.log.records] == [
            r.latency for r in base_pool.log.records
        ]
        assert zero.execution_time == baseline.execution_time

    def test_fault_model_per_interface_lookup(self):
        down = FaultProfile(outage=True)
        model = FaultModel(per_interface={"Movie1": down})
        assert model.profile("Movie1") is down
        assert model.profile("Theatre1") == FaultProfile()
        with_outage = FaultModel.uniform(failure_rate=0.1).with_outage("X")
        assert with_outage.profile("X").outage
        assert with_outage.profile("X").failure_rate == 0.1


# -- end-to-end plan execution under faults ------------------------------------


class TestExecutorFaultTolerance:
    def test_retry_until_success_matches_fault_free_results(
        self, movie_query, movie_registry
    ):
        baseline, _ = run_example(movie_query, movie_registry)
        faulty, pool = run_example(
            movie_query,
            movie_registry,
            fault_model=FaultModel.uniform(failure_rate=0.2),
            retry=RetryPolicy(max_attempts=6, base_backoff=0.2),
            degradation=Degradation.PARTIAL,
        )
        assert not faulty.incomplete  # every call eventually succeeded
        assert [t.score for t in faulty.tuples] == pytest.approx(
            [t.score for t in baseline.tuples]
        )
        assert pool.log.failed_calls() > 0
        assert pool.log.retries() > 0
        # Retry latency enters measured execution time.
        assert pool.log.retry_overhead() > 0
        assert faulty.execution_time > baseline.execution_time

    def test_exhausted_retries_raise_in_fail_mode(
        self, movie_query, movie_registry
    ):
        with pytest.raises(RetryExhaustedError):
            run_example(
                movie_query,
                movie_registry,
                fault_model=FaultModel.uniform(failure_rate=1.0),
                retry=RetryPolicy(max_attempts=2, base_backoff=0.0),
                degradation=Degradation.FAIL,
            )

    def test_outage_partial_degradation_flags_results(
        self, movie_query, movie_registry
    ):
        result, pool = run_example(
            movie_query,
            movie_registry,
            fault_model=FaultModel().with_outage("Restaurant1"),
            retry=RetryPolicy(max_attempts=3, base_backoff=0.1),
            degradation=Degradation.PARTIAL,
        )
        assert result.incomplete
        assert result.failed_aliases == ("R",)
        assert result.tuples, "best-effort combinations are still returned"
        for combo in result.tuples:
            assert "R" not in combo.components
            assert {"M", "T"} <= set(combo.components)
        # Permanent outages are not retried.
        assert pool.log.retries() == 0

    def test_total_blackout_still_terminates(self, movie_query, movie_registry):
        result, _ = run_example(
            movie_query,
            movie_registry,
            fault_model=FaultModel.uniform(failure_rate=1.0),
            retry=RetryPolicy(max_attempts=2, base_backoff=0.0),
            degradation=Degradation.PARTIAL,
        )
        # R is piped off T; with T down it is never even reachable, so the
        # abandoned aliases are the two the executor actually called.
        assert {"M", "T"} <= set(result.failed_aliases)
        assert result.incomplete

    def test_deterministic_under_seed(self, movie_query, movie_registry):
        def run():
            result, pool = run_example(
                movie_query,
                movie_registry,
                seed=11,
                fault_model=FaultModel.uniform(
                    failure_rate=0.3, timeout_rate=0.1
                ),
                retry=RetryPolicy(
                    max_attempts=3, base_backoff=0.2, call_timeout=5.0
                ),
                degradation=Degradation.PARTIAL,
            )
            return (
                [r.outcome for r in pool.log.records],
                [round(r.latency, 9) for r in pool.log.records],
                [t.score for t in result.tuples],
                result.failed_aliases,
            )

        assert run() == run()


# -- join executors under faults -----------------------------------------------


def ranked(n, scoring, source, seed=0):
    rng = random.Random(seed)
    return [
        ServiceTuple(
            {"k": rng.randrange(5)},
            score=scoring.score_at(i),
            source=source,
            position=i,
        )
        for i in range(n)
    ]


class FaultySource(ListChunkSource):
    """Raises transient faults on given call indices, then serves."""

    def __init__(self, tuples, chunk_size, scoring, fail_on=()):
        super().__init__(tuples, chunk_size, scoring)
        self.fail_on = set(fail_on)
        self._issued = 0

    def next_chunk(self):
        index = self._issued
        self._issued += 1
        if index in self.fail_on:
            raise ServiceUnavailableError("flaky", service="F")
        return super().next_chunk()


class DeadSource(ListChunkSource):
    def next_chunk(self):
        raise ServiceUnavailableError("down", service="D", permanent=True)


class TestJoinExecutorRetry:
    def test_parallel_join_retries_through_transient_faults(self):
        scoring = LinearScoring(horizon=20)
        x = FaultySource(ranked(20, scoring, "X", 1), 5, scoring, fail_on={0, 2})
        y = ListChunkSource(ranked(20, scoring, "Y", 2), 5, scoring)
        retrier = Retrier(policy=RetryPolicy(max_attempts=3, base_backoff=0.0))
        result = ParallelJoinExecutor(
            x, y, lambda a, b: True, k=30, retry=retrier
        ).run()
        assert len(result.pairs) == 30
        assert retrier.retries == 2

    def test_parallel_join_degrades_when_one_side_dies(self):
        scoring = LinearScoring(horizon=20)
        x = DeadSource(ranked(20, scoring, "X", 1), 5, scoring)
        y = ListChunkSource(ranked(20, scoring, "Y", 2), 5, scoring)
        retrier = Retrier(policy=RetryPolicy(max_attempts=2, base_backoff=0.0))
        result = ParallelJoinExecutor(
            x, y, lambda a, b: True, k=30, retry=retrier, degradation="partial"
        ).run()
        assert len(result.pairs) == 0  # nothing from X, nothing to pair
        assert result.stats.calls_x == 0

    def test_parallel_join_fail_mode_propagates(self):
        scoring = LinearScoring(horizon=20)
        x = DeadSource(ranked(20, scoring, "X", 1), 5, scoring)
        y = ListChunkSource(ranked(20, scoring, "Y", 2), 5, scoring)
        retrier = Retrier(policy=RetryPolicy(max_attempts=2, base_backoff=0.0))
        with pytest.raises(RetryExhaustedError):
            ParallelJoinExecutor(
                x, y, lambda a, b: True, k=30, retry=retrier, degradation="fail"
            ).run()

    def test_without_retrier_faults_propagate_unchanged(self):
        scoring = LinearScoring(horizon=20)
        x = FaultySource(ranked(20, scoring, "X", 1), 5, scoring, fail_on={0})
        y = ListChunkSource(ranked(20, scoring, "Y", 2), 5, scoring)
        with pytest.raises(ServiceUnavailableError):
            ParallelJoinExecutor(x, y, lambda a, b: True, k=30).run()
