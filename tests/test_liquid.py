"""Tests for liquid-query sessions (Section 3.2 user interactions)."""

import asyncio

import pytest

from repro.core.optimizer import optimize_query
from repro.engine.async_runner import AsyncExecutionContext
from repro.durability import restore_session
from repro.engine.liquid import GROWTH, LiquidQuerySession, _drain
from repro.engine.retry import Degradation, RetryPolicy
from repro.errors import CheckpointIntegrityError, ExecutionError
from repro.services.marts import RUNNING_EXAMPLE_INPUTS, RUNNING_EXAMPLE_QUERY
from repro.services.simulated import FaultModel, ServicePool


@pytest.fixture()
def session(movie_query, movie_registry):
    candidate = optimize_query(movie_query)
    pool = ServicePool(movie_registry, global_seed=21)
    return LiquidQuerySession(
        candidate=candidate,
        query=movie_query,
        pool=pool,
        inputs=dict(RUNNING_EXAMPLE_INPUTS),
    )


class TestRun:
    def test_run_returns_at_most_k(self, session, movie_query):
        results = session.run()
        assert 0 < len(results) <= movie_query.k
        scores = [c.score for c in results]
        assert scores == sorted(scores, reverse=True)

    def test_run_is_idempotent_on_calls(self, session):
        session.run()
        calls = session.total_calls
        session.run()
        assert session.total_calls == calls  # re-presentation only


class TestMore:
    def test_more_grows_fetch_factors(self, session):
        session.run()
        before = session.fetch_factors
        session.more()
        after = session.fetch_factors
        assert all(after[a] == before[a] * 2 for a in before)

    def test_more_never_loses_results(self, session):
        session.run()
        first_count = session.result_count
        session.more()
        assert session.result_count >= first_count

    def test_more_issues_new_calls(self, session):
        session.run()
        calls = session.total_calls
        session.more()
        assert session.total_calls > calls

    def test_earlier_results_remain_stable(self, session):
        """Deterministic regeneration: the top of the list does not churn
        when more chunks are fetched (scores of the initial results are
        still present)."""
        first = session.run()
        more = session.more(k=1000)
        more_scores = [round(c.score, 9) for c in more]
        for combo in first:
            assert round(combo.score, 9) in more_scores


class TestRerank:
    def test_rerank_changes_order_without_calls(self, session):
        session.run(k=1000)
        calls = session.total_calls
        reranked = session.rerank({"M": 1.0, "T": 0.0, "R": 0.0}, k=1000)
        assert session.total_calls == calls
        # Under the movie-only ranking, order follows the movie score.
        movie_scores = [c.component("M").score for c in reranked]
        assert movie_scores == sorted(movie_scores, reverse=True)

    def test_rerank_validates_aliases(self, session):
        with pytest.raises(ExecutionError):
            session.rerank({"NOPE": 1.0})

    def test_rerank_before_run_executes_once(self, session):
        results = session.rerank({"M": 0.5, "T": 0.5, "R": 0.0})
        assert results
        assert session.total_calls > 0


class TestResubmit:
    def test_resubmit_with_new_inputs(self, session):
        first = session.run()
        changed = dict(RUNNING_EXAMPLE_INPUTS)
        changed["INPUT1"] = "genre#5"
        second = session.resubmit(changed)
        # Different genre: different movie results (near-certain under
        # the seeded generator).
        first_titles = {c.component("M").values["Title"] for c in first}
        second_titles = {c.component("M").values["Title"] for c in second}
        assert first_titles != second_titles or not first

    def test_resubmit_resets_fetch_factors(self, session):
        session.run()
        session.more()
        grown = session.fetch_factors
        session.resubmit(dict(RUNNING_EXAMPLE_INPUTS))
        assert session.fetch_factors != grown


def _faulty_session(movie_query, movie_registry, *, seed=21, failure_rate=0.3,
                    max_attempts=4, degradation=Degradation.FAIL):
    """A session over a flaky pool with retries — interactions must stay
    deterministic and correctly accounted even when calls fail and are
    re-issued."""
    pool = ServicePool(
        movie_registry,
        global_seed=seed,
        fault_model=FaultModel.uniform(failure_rate=failure_rate),
    )
    return LiquidQuerySession(
        candidate=optimize_query(movie_query),
        query=movie_query,
        pool=pool,
        inputs=dict(RUNNING_EXAMPLE_INPUTS),
        executor_options={
            "retry": RetryPolicy(max_attempts=max_attempts, base_backoff=0.1),
            "degradation": degradation,
        },
    )


def _fingerprint(session):
    """Results + call log, rounded for exact comparison across replays."""
    return (
        [round(c.score, 9) for c in session.run(k=1000)],
        [
            (r.alias, r.chunk_index, r.outcome, r.attempt)
            for r in session.pool.log.records
        ],
    )


class TestFaultComposition:
    """Session interactions composed with fault injection and retry."""

    def test_run_retries_transient_faults(self, movie_query, movie_registry):
        session = _faulty_session(movie_query, movie_registry)
        results = session.run()
        assert results
        records = session.pool.log.records
        # The seeded fault model fired at least once and the retry
        # harness re-issued those chunks.
        assert any(r.failed for r in records)
        assert any(r.attempt > 1 for r in records)
        # Every chunk was eventually delivered: failures are strictly
        # outnumbered by round trips.
        assert session.total_calls == len(records)

    def test_rerank_under_faults_is_deterministic(
        self, movie_query, movie_registry
    ):
        def reranked():
            session = _faulty_session(movie_query, movie_registry)
            session.run(k=1000)
            calls = session.total_calls
            order = [
                round(c.score, 9)
                for c in session.rerank({"M": 1.0, "T": 0.0, "R": 0.0}, k=1000)
            ]
            # Re-weighting never re-fetches, faults or not.
            assert session.total_calls == calls
            return order

        assert reranked() == reranked()

    def test_resubmit_under_faults_round_trips_and_determinism(
        self, movie_query, movie_registry
    ):
        def resubmitted():
            session = _faulty_session(movie_query, movie_registry)
            session.run()
            before = session.total_calls
            changed = dict(RUNNING_EXAMPLE_INPUTS)
            changed["INPUT1"] = "genre#5"
            results = session.resubmit(changed)
            # Resubmission re-executes against the same pool: new round
            # trips land in the same call log, after the old ones.
            assert session.total_calls > before
            return (
                [round(c.score, 9) for c in results],
                [
                    (r.alias, r.outcome, r.attempt)
                    for r in session.pool.log.records
                ],
            )

        first, second = resubmitted(), resubmitted()
        assert first == second

    def test_full_interaction_sequence_replays_identically(
        self, movie_query, movie_registry
    ):
        def trace():
            session = _faulty_session(movie_query, movie_registry)
            session.run()
            session.more()
            session.rerank({"M": 0.2, "T": 0.3, "R": 0.5})
            session.resubmit(dict(RUNNING_EXAMPLE_INPUTS))
            return _fingerprint(session)

        assert trace() == trace()

    def test_degraded_resubmit_with_outage(self, movie_query, movie_registry):
        pool = ServicePool(
            movie_registry,
            global_seed=21,
            fault_model=FaultModel().with_outage("Restaurant1"),
        )
        session = LiquidQuerySession(
            candidate=optimize_query(movie_query),
            query=movie_query,
            pool=pool,
            inputs=dict(RUNNING_EXAMPLE_INPUTS),
            executor_options={
                "retry": RetryPolicy(max_attempts=2, base_backoff=0.1),
                "degradation": Degradation.PARTIAL,
            },
        )
        # Graceful degradation applies to the interactive surface too:
        # both the initial run and a resubmit finish despite the outage.
        session.run()
        results = session.resubmit(dict(RUNNING_EXAMPLE_INPUTS))
        assert results == session.run()
        assert all(r.outcome == "unavailable"
                   for r in pool.log.records if r.alias == "R")


class TestValidation:
    def test_growth_must_be_at_least_two(self, movie_query, movie_registry):
        """``more`` grows every fetch factor by the constant ``GROWTH``;
        the one door a growth enters by, a session checkpoint, refuses a
        growth of 1."""
        assert GROWTH == 2
        session = LiquidQuerySession(
            candidate=optimize_query(movie_query),
            query=movie_query,
            pool=ServicePool(movie_registry, global_seed=1),
            inputs=dict(RUNNING_EXAMPLE_INPUTS),
        )
        before = session.fetch_factors
        session.more()
        assert session.fetch_factors == {a: f * GROWTH for a, f in before.items()}
        payload = session.checkpoint(schema="movie", query_text=RUNNING_EXAMPLE_QUERY)
        assert payload["growth"] == GROWTH
        with pytest.raises(CheckpointIntegrityError, match="growth"):
            restore_session(dict(payload, growth=1))


def _rebuild_and_sort(session, limit):
    """The presentation path sessions used to take: re-score every raw
    row under the current ranking, re-sort, cut."""
    from repro.model.tuples import CompositeTuple

    rescored = [
        CompositeTuple(c.components, session._ranking.score_composite(c.components))
        for c in session._raw
    ]
    rescored.sort(key=lambda c: -c.score)
    return rescored[:limit]


def _exact(rows):
    """Components (identity of each tuple, alias order), score type and bits."""
    return [
        (
            [(alias, id(tup)) for alias, tup in c.components.items()],
            type(c.score).__name__,
            float(c.score).hex(),
        )
        for c in rows
    ]


class TestPresentation:
    """``_present`` returns what the executor ranked instead of re-scoring
    and re-sorting it; after a rerank it builds only the winners.  Either
    way the list is the rebuild-and-sort path's, bit for bit."""

    def test_run_more_resubmit_equal_the_rebuilt_list(self, session, movie_query):
        k = movie_query.k
        assert _exact(session.run()) == _exact(_rebuild_and_sort(session, k))
        assert _exact(session.run(k=3)) == _exact(_rebuild_and_sort(session, 3))
        before = session.result_count
        more = session.more()
        assert len(more) == min(session.result_count, max(k, before + 1))
        assert _exact(more) == _exact(_rebuild_and_sort(session, len(more)))
        assert _exact(session.more(k=10**6)) == _exact(
            _rebuild_and_sort(session, 10**6)
        )
        changed = dict(RUNNING_EXAMPLE_INPUTS, INPUT1="genre#5")
        assert _exact(session.resubmit(changed)) == _exact(
            _rebuild_and_sort(session, k)
        )

    def test_rerank_more_rerank_back(self, session, movie_query):
        session.run()
        weights = {"M": 0.2, "T": 0.1, "R": 0.7}
        assert _exact(session.rerank(weights, k=7)) == _exact(
            _rebuild_and_sort(session, 7)
        )
        # A re-execution under the altered ranking: the raw list is in the
        # query's order, the presentation in the session's.
        more = session.more(k=10**6)
        assert _exact(more) == _exact(_rebuild_and_sort(session, 10**6))
        scores = [c.score for c in more]
        assert scores == sorted(scores, reverse=True)
        original = dict(movie_query.ranking.weights)
        back = session.rerank(original, k=10**6)
        assert _exact(back) == _exact(_rebuild_and_sort(session, 10**6))
        # Equal weights, but not the query's own function object: the
        # re-ranked path and the executor's order agree.
        assert session._ranking is not movie_query.ranking
        assert _exact(back) == _exact(session._raw)

    def test_rerank_ties_stay_in_raw_order(self, session):
        session.run()
        tied = session.rerank({"M": 0.0, "T": 0.0, "R": 0.0}, k=10**6)
        assert [c.components for c in tied] == [c.components for c in session._raw]

    @staticmethod
    def travel_sessions(count=1, seed=21):
        """Sessions over the travel chain ``F -> H -> E``: its last node is
        a service node, so the executor ranks the combinations and a row is
        built when presented.  They share plan, query and invocation cache:
        each one after the first replays the first's recording."""
        from repro.engine.executor import InvocationCache
        from repro.query.compile import compile_query
        from repro.query.parser import parse_query
        from repro.services.scenarios import SCENARIOS

        pack = SCENARIOS["travel"]
        registry = pack.registry_factory()
        query = compile_query(parse_query(pack.query_text), registry)
        candidate = optimize_query(query)
        cache = InvocationCache(max_size=None)
        return query, [
            LiquidQuerySession(
                candidate=candidate,
                query=query,
                pool=ServicePool(registry, global_seed=seed),
                inputs=dict(pack.default_inputs),
                executor_options={"invocation_cache": cache},
            )
            for _ in range(count)
        ]

    def test_travel_chain_run_more_rerank_more_rerank_back(self):
        query, (session,) = self.travel_sessions()
        k = query.k
        shown = session.run()
        raw = session._raw
        # Ranked, not built: the session built what it presented.
        assert session.result_count == len(raw) > k == len(shown) == len(raw.built)
        assert _exact(shown) == _exact(_rebuild_and_sort(session, k))
        before = session.result_count
        more = session.more()
        assert session._raw is not raw and session.result_count > before
        assert len(more) == before + 1 == len(session._raw.built)
        assert _exact(more) == _exact(_rebuild_and_sort(session, len(more)))
        weights = {"F": 0.1, "H": 0.1, "E": 0.8}
        assert _exact(session.rerank(weights, k=7)) == _exact(
            _rebuild_and_sort(session, 7)
        )
        count = session.result_count
        more = session.more(k=10**6)
        assert len(more) == session.result_count > count
        assert _exact(more) == _exact(_rebuild_and_sort(session, 10**6))
        back = session.rerank(dict(query.ranking.weights), k=10**6)
        assert _exact(back) == _exact(_rebuild_and_sort(session, 10**6))
        assert _exact(back) == _exact(session._raw)

    def test_sessions_sharing_a_recording_present_different_k(self):
        _, (first, second, third) = self.travel_sessions(3)
        three = first.run(k=3)
        raw = first._raw
        assert first._last.result_memo == "miss" and len(raw.built) == 3
        seven = second.run(k=7)
        assert second._last.result_memo == "hit" and second._raw is raw
        # Append-only: the rows the first session holds are the second's.
        assert len(raw.built) == 7
        assert all(ours is theirs for ours, theirs in zip(three, seven))
        assert first.run(k=5) == seven[:5] and len(raw.built) == 7
        assert third.run(k=0) == [] and third._raw is raw
        assert third.result_count == first.result_count == len(raw) > 7
        assert _exact(second.run(k=10**6)) == _exact(_rebuild_and_sort(first, 10**6))

    def test_fully_degraded_empty_composite_keeps_its_score_repr(
        self, movie_query, movie_registry
    ):
        from repro.serve.bench import result_digest

        def degraded():
            pool = ServicePool(
                movie_registry,
                global_seed=21,
                fault_model=FaultModel().with_outage(
                    "Movie1", "Theatre1", "Restaurant1"
                ),
            )
            return LiquidQuerySession(
                candidate=optimize_query(movie_query),
                query=movie_query,
                pool=pool,
                inputs=dict(RUNNING_EXAMPLE_INPUTS),
                executor_options={"degradation": Degradation.PARTIAL},
            )

        session = degraded()
        results = session.run()
        assert [c.components for c in results] == [{}]
        assert _exact(results) == _exact(_rebuild_and_sort(session, 10))
        # ``sum`` of no terms: the integer the digest has always rendered.
        assert repr(results[0].score) == "0"
        assert result_digest(results) == result_digest(_rebuild_and_sort(session, 10))
        assert _exact(session.more()) == _exact(_rebuild_and_sort(session, 10))


class TestNegativeK:
    """``k < 0`` is an error on every interaction and driver — as a slice
    bound it used to drop rows from the wrong end (``run(k=-1)``: all but
    the last).  ``VERBS`` keys read ``kind`` (the synchronous verb) or
    ``kind_driver`` (the same interaction through ``steps`` /
    ``perform_async``).  ``backend`` names the driver of the session's
    first run, so every verb also follows an execution on the other one."""

    CHANGED = dict(RUNNING_EXAMPLE_INPUTS, INPUT1="genre#5")
    WEIGHTS = {"M": 1.0, "T": 0.0, "R": 0.0}

    @staticmethod
    def awaited(session, kind, k, **arg):
        context = AsyncExecutionContext(time_scale=0.0)
        return asyncio.run(session.perform_async(kind, k, context=context, **arg))

    VERBS = {
        "run": lambda s, k: s.run(k),
        "run_steps": lambda s, k: _drain(s.steps("run", k)),
        "run_async": lambda s, k: TestNegativeK.awaited(s, "run", k),
        "more": lambda s, k: s.more(k),
        "more_steps": lambda s, k: _drain(s.steps("more", k)),
        "more_async": lambda s, k: TestNegativeK.awaited(s, "more", k),
        "resubmit": lambda s, k: s.resubmit(TestNegativeK.CHANGED, k),
        "resubmit_steps": lambda s, k: _drain(
            s.steps("resubmit", k, inputs=TestNegativeK.CHANGED)
        ),
        "resubmit_async": lambda s, k: TestNegativeK.awaited(
            s, "resubmit", k, inputs=TestNegativeK.CHANGED
        ),
        "rerank": lambda s, k: s.rerank(TestNegativeK.WEIGHTS, k),
    }

    @pytest.mark.parametrize("verb", sorted(VERBS))
    @pytest.mark.parametrize("backend", ["virtual", "asyncio"])
    def test_every_twin_raises_and_journals_the_failure(
        self, verb, backend, movie_query, movie_registry
    ):
        session = LiquidQuerySession(
            candidate=optimize_query(movie_query),
            query=movie_query,
            pool=ServicePool(movie_registry, global_seed=21),
            inputs=dict(RUNNING_EXAMPLE_INPUTS),
        )
        if backend == "asyncio":
            everything = self.awaited(session, "run", 10**6)
        else:
            everything = session.run(k=10**6)
        assert len(everything) > 1
        with pytest.raises(ExecutionError, match="non-negative"):
            self.VERBS[verb](session, -1)
        last = session.interaction_journal[-1]
        assert last["kind"] == verb.split("_")[0]
        assert last["k"] == -1 and last["failed"] is True
        assert session.inflight_interaction is None
        # The session is still usable, and nothing was dropped from it.
        assert len(session.run(k=10**6)) >= len(everything)

    def test_zero_is_an_empty_page_not_an_error(self, session):
        assert session.run(k=0) == []
