"""One score rule, folded once per prefix.

* ``fold`` is the explicit left-to-right loop from int ``0``, bit for bit
  (``repr``), including the empty sum, ``-0.0``, ``inf`` and ``nan``; it
  equals builtin ``sum`` before Python 3.12 and composes over prefixes;
* every scoring site equals ``fold`` over its terms: the ranking's
  normalisation, ``score`` and ``score_composite``, the executor's prefix
  folds, ``score_components``, ``_dress_top``, the ranked kernel's root
  bound, and the histogram and call-log totals the ledger pins;
* no builtin ``sum`` over scores, weights or histogram values in ``src``;
* a plan's last join ranks its pairs unbuilt, and that equals the eager
  path (every row built, scored and sorted at the join) in components,
  scores, order and ties, for any cut, building exactly the rows read —
  also when two sessions share one recording and present different ``k``.
"""

import ast
import dataclasses
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import Optimizer, OptimizerConfig, optimize_query
from repro.core.topology import enumerate_topologies
from repro.engine.events import CallLog, CallRecord
from repro.engine.executor import InvocationCache, PlanExecutor
from repro.engine.liquid import LiquidQuerySession
from repro.joins import ranked as ranked_module
from repro.joins.ranked import RankedEnumerator
from repro.joins.spec import CompletionStrategy
from repro.joins.wcoj import (
    EquiPredicate,
    JoinGraph,
    Relation,
    _dress_top,
    score_components,
)
from repro.model.scoring import fold
from repro.model.tuples import CompositeTuple, RankingFunction, ServiceTuple
from repro.obs.explain import build_explain
from repro.obs.metrics import Histogram
from repro.obs.tracer import Tracer
from repro.plans.nodes import ParallelJoinNode, ServiceNode
from repro.query.compile import compile_query
from repro.query.feasibility import enumerate_binding_choices
from repro.query.parser import parse_query
from repro.services.marts import (
    CONFERENCE_INPUTS,
    CONFERENCE_QUERY,
    RUNNING_EXAMPLE_INPUTS,
    RUNNING_EXAMPLE_QUERY,
    conference_trip_registry,
    movie_night_registry,
)
from repro.services.scenarios import SCENARIOS
from repro.services.simulated import ServicePool

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

# -- the rule ---------------------------------------------------------------------

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e16, 1.0]),
    st.integers(-(10**6), 10**6),
)
TERMS = st.lists(NUMBERS, max_size=8)


def _loop(terms, start=0):
    total = start
    for term in terms:
        total += term
    return total


@settings(max_examples=300, deadline=None)
@given(TERMS)
def test_fold_is_the_left_to_right_loop(terms):
    assert repr(fold(terms)) == repr(_loop(terms))
    assert type(fold(terms)) is type(_loop(terms))
    assert repr(fold(iter(terms))) == repr(_loop(terms))
    if sys.version_info < (3, 12):  # plain ``sum`` before compensation
        assert repr(fold(terms)) == repr(sum(terms))


@settings(max_examples=200, deadline=None)
@given(TERMS, TERMS)
def test_fold_composes_over_a_prefix(head, tail):
    assert repr(fold(head + tail)) == repr(fold(tail, fold(head)))


def test_fold_edge_values():
    assert fold([]) == 0 and type(fold([])) is int
    assert repr(fold([-0.0])) == "0.0"
    assert repr(fold([-0.0], -0.0)) == "-0.0"
    assert math.isnan(fold([math.inf, -math.inf]))
    # Not compensated: the last ulp of a three-term sum is the loop's.
    terms = [0.1, 0.2, 0.3]
    assert fold(terms) == (0.1 + 0.2) + 0.3 != 0.6


# -- every scoring site is the rule ---------------------------------------------

ALIASES = ("A", "B", "C", "D")
WEIGHTS = st.dictionaries(
    st.sampled_from(ALIASES),
    st.one_of(st.floats(0, 5), st.integers(0, 5)),
    min_size=1,
)
UNIT = st.floats(0, 1)


def _tup(alias, score, position=0):
    return ServiceTuple({"n": position}, score=score, source=alias, position=position)


@st.composite
def rankings_and_components(draw):
    ranking = RankingFunction(draw(WEIGHTS))
    aliases = draw(st.permutations(ALIASES))[: draw(st.integers(0, len(ALIASES)))]
    components = {alias: _tup(alias, draw(UNIT)) for alias in aliases}
    return ranking, components


@settings(max_examples=200, deadline=None)
@given(WEIGHTS)
def test_weight_normalisation_divides_by_the_fold(weights):
    total = fold(weights.values())
    ranking = RankingFunction(weights)
    if total > 0:
        assert ranking.weights == {a: w / total for a, w in weights.items()}
    else:
        assert ranking.weights == weights


@settings(max_examples=200, deadline=None)
@given(rankings_and_components())
def test_ranking_scores_are_the_fold_of_their_terms(case):
    ranking, components = case
    terms = [ranking.weight(a) * tup.score for a, tup in components.items()]
    want = repr(fold(terms))
    assert repr(ranking.score_composite(components)) == want
    assert repr(ranking.score({a: t.score for a, t in components.items()})) == want
    assert repr(ranking.combine(components).score) == want
    ordered = [ranking.weight(a) * components[a].score for a in sorted(components)]
    assert repr(score_components(ranking, components)) == repr(fold(ordered))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(UNIT, UNIT, UNIT), max_size=12),
    WEIGHTS,
    st.one_of(st.none(), st.integers(1, 6)),
)
def test_dress_top_scores_by_score_components(scores, weights, k):
    aliases = ("C", "A", "B")  # not sorted: the fold order is alias-sorted
    ranking = RankingFunction(weights)
    combos = [
        tuple(_tup(alias, s, n) for alias, s in zip(aliases, row))
        for n, row in enumerate(scores)
    ]
    for row in _dress_top(aliases, combos, ranking, k):
        assert repr(row.score) == repr(score_components(ranking, row.components))


def test_the_ranked_bound_is_the_fold_of_the_roots(monkeypatch):
    folded = []

    def spy(terms, start=0):
        terms = list(terms)
        folded.append((terms, fold(terms, start)))
        return fold(terms, start)

    monkeypatch.setattr(ranked_module, "fold", spy)
    # Two components: two tree roots, each a relation joined to nothing.
    graph = JoinGraph(("R", "S", "T"), (EquiPredicate("R", "x", "S", "x"),))
    relations = [
        Relation(alias, [
            ServiceTuple({"x": n % 2}, score=1 / (n + 1), source=alias, position=n)
            for n in range(4)
        ])
        for alias in ("R", "S", "T")
    ]
    ranking = RankingFunction({"R": 0.5, "S": 0.3, "T": 0.2})
    rows = RankedEnumerator(relations, graph, ranking, k=3).run().rows
    ((roots, top),) = folded
    assert len(roots) == 2 and repr(top) == repr(_loop(roots))
    assert rows and all(row.score <= top + 1e-12 for row in rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0, 1e6), max_size=20))
def test_histogram_and_call_log_totals_are_folds(values):
    histogram = Histogram("h")
    for value in values:
        histogram.observe(value)
    summary = histogram.summary()
    if values:
        ordered = sorted(float(v) for v in values)
        assert repr(summary["sum"]) == repr(fold(ordered))
        assert repr(summary["mean"]) == repr(fold(ordered) / len(ordered))
    log = CallLog()
    for n, value in enumerate(values):
        log.record(
            CallRecord(
                service="S", alias="AB"[n % 2], chunk_index=0, started_at=0.0,
                latency=value, tuples=0, backoff_wait=value / 3,
            )
        )
    records = log.records
    assert repr(log.total_latency()) == repr(
        fold(r.latency + r.backoff_wait for r in records)
    )
    assert repr(log.busy_time("A")) == repr(
        fold(r.latency + r.backoff_wait for r in records if r.alias == "A")
    )


# -- no builtin ``sum`` over scores ------------------------------------------------


def _score_sums(tree):
    """Line numbers of builtin ``sum(...)`` calls reading a score, a weight
    or a histogram's values."""
    histogram_bodies = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "Histogram"
        for node in ast.walk(cls)
    }
    lines = []
    for call in ast.walk(tree):
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "sum"
        ):
            continue
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for arg in [*call.args, *[kw.value for kw in call.keywords]]
            for node in ast.walk(arg)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        reads_score = any(n in ("score", "scores") or "weight" in n for n in names)
        if reads_score or id(call) in histogram_bodies:
            lines.append(call.lineno)
    return lines


def test_the_guard_sees_a_score_sum():
    planted = (
        "def f(rows, w):\n"
        "    return sum(r.score for r in rows) + sum(weights.values())\n"
        "class Histogram:\n"
        "    def summary(self):\n"
        "        return sum(self.values)\n"
        "def g(rows):\n"
        "    return sum(len(r) for r in rows)\n"
    )
    assert _score_sums(ast.parse(planted)) == [2, 2, 5]


def test_no_builtin_sum_over_scores_weights_or_histograms():
    found = {
        str(path.relative_to(SRC)): lines
        for path in sorted(SRC.rglob("*.py"))
        if (lines := _score_sums(ast.parse(path.read_text())))
    }
    assert found == {}


# -- a plan's last join, ranked before it is built --------------------------------


def _example_cases():
    for name, registry, text, inputs in (
        ("movie", movie_night_registry(), RUNNING_EXAMPLE_QUERY, RUNNING_EXAMPLE_INPUTS),
        ("conference", conference_trip_registry(), CONFERENCE_QUERY, CONFERENCE_INPUTS),
    ):
        query = compile_query(parse_query(text), registry)
        for choice in enumerate_binding_choices(query):
            for plan in enumerate_topologies(query, {}, choice):
                if plan.join_nodes():
                    yield name, registry, query, plan, dict(inputs)
    for name in sorted(SCENARIOS):
        pack = SCENARIOS[name]
        registry = pack.registry_factory()
        query = compile_query(parse_query(pack.query_text), registry)
        plan = Optimizer(query, OptimizerConfig()).optimize().best.plan
        yield name, registry, query, plan, dict(pack.default_inputs)


CASES = list(_example_cases())


def _with_completion(plan, completion):
    """The plan with every join under ``completion`` (nodes are frozen)."""
    plan = plan.copy()
    for join in plan.join_nodes():
        plan.nodes[join.node_id] = dataclasses.replace(
            join, method=dataclasses.replace(join.method, completion=completion)
        )
    return plan


def _run(case, plan, seed, factor, k, eager=False):
    _, registry, query, _, inputs = case
    executor = PlanExecutor(
        plan, query, ServicePool(registry, global_seed=seed), inputs,
        fetches={alias: factor for alias in query.aliases},
    )
    executor.k = k  # ``None``: no cut, as sessions run
    if eager:  # the oracle: every node builds, the join scores and sorts
        executor._defers = lambda node_id: False
    return executor.run()


def _exact(rows):
    """Components (alias order and tuples), score type and bits, in order."""
    return [
        (list(row.components.items()), type(row.score), float(row.score).hex())
        for row in rows
    ]


def _last_join(plan):
    (parent,) = plan.parents(plan.output_node.node_id)
    return parent if isinstance(plan.node(parent), ParallelJoinNode) else None


def test_the_cases_cover_deferred_and_eager_joins():
    last = [case for case in CASES if _last_join(case[3])]
    inner = [
        case for case in CASES
        if any(
            plan_join.node_id != _last_join(case[3])
            for plan_join in case[3].join_nodes()
        )
    ]
    assert {case[0] for case in last} == {"movie", "conference", "shopping", "scholar"}
    assert inner and "travel" in {case[0] for case in CASES}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(range(len(CASES))),
    st.sampled_from([2009, 7, 31337]),
    st.integers(1, 3),
    st.sampled_from(list(CompletionStrategy)),
)
def test_join_last_deferral_equals_the_eager_path(index, seed, factor, completion):
    case = CASES[index]
    plan = _with_completion(case[3], completion)
    (parent,) = plan.parents(plan.output_node.node_id)
    lazy = isinstance(plan.node(parent), (ParallelJoinNode, ServiceNode))
    whole = _run(case, plan, seed, factor, None, eager=True).tuples
    n = len(whole)
    for k in (None, 1, max(n - 1, 0)):
        eager = _run(case, plan, seed, factor, k, eager=True)
        deferred = _run(case, plan, seed, factor, k)
        rows = deferred.tuples
        assert len(rows) == len(eager.tuples) == (n if k is None else min(k, n))
        join = _last_join(plan)
        if join is not None:
            stats = deferred.node_stats[join]
            assert (stats.rows_built, stats.rows_scored) == (0, 0)
            assert stats.tout == eager.node_stats[join].tout
        if lazy:  # rows built = rows read, as a prefix; the rest on demand
            assert rows.built == []
            first = rows[:1]
            assert len(rows.built) == len(first)
        assert _exact(rows) == _exact(eager.tuples) == _exact(whole[: len(rows)])
        assert len(rows.built) == len(rows)
        for row in rows:
            assert row.score == case[2].ranking.score_composite(row.components)
        others = {
            node_id: dataclasses.replace(s, rows_built=0, rows_scored=0)
            for node_id, s in deferred.node_stats.items()
        }
        assert others == {
            node_id: dataclasses.replace(s, rows_built=0, rows_scored=0)
            for node_id, s in eager.node_stats.items()
        }


def test_the_movie_join_ranks_unbuilt_and_explain_says_so(monkeypatch):
    case = next(case for case in CASES if case[0] == "movie")
    registry, query = case[1], case[2]
    candidate = Optimizer(query, OptimizerConfig()).optimize().best
    built = []
    real = CompositeTuple.__dict__["_owned"].__func__

    def counting(cls, components, score):
        built.append(len(components))
        return real(cls, components, score)

    monkeypatch.setattr(CompositeTuple, "_owned", classmethod(counting))
    tracer = Tracer()
    result = PlanExecutor(
        candidate.plan, query, ServicePool(registry, global_seed=2009),
        RUNNING_EXAMPLE_INPUTS, fetches=candidate.fetch_vector(), tracer=tracer,
    ).run()
    join = _last_join(candidate.plan)
    (probe,) = [s for s in tracer.spans if s.name == "join.probe"]
    assert probe.attrs["deferred"] is True
    assert probe.attrs["produced"] == result.node_stats[join].tout == len(result.tuples)
    stats = result.node_stats
    assert (stats[join].rows_built, stats[join].rows_scored) == (0, 0)
    output = stats[candidate.plan.output_node.node_id]
    assert output.rows_scored == 0 and built.count(3) == 0
    n = len(result.tuples)
    explain = lambda: build_explain(  # noqa: E731
        candidate.plan, candidate.annotations, result
    ).render()
    assert f"result rows built 0 of {n}" in explain()
    shown = list(result.tuples)
    assert built.count(3) == n == len(shown) > 0
    text = explain()
    assert f"result rows built {n} of {n}" in text
    rows_built = sum(s.rows_built for s in stats.values())
    assert f"rows: {rows_built} built, 0 scored" in text


@pytest.mark.parametrize("name", ["movie", "shopping"])
def test_sessions_sharing_a_join_recording_present_different_k(name):
    case = next(case for case in CASES if case[0] == name)
    _, registry, query, _, inputs = case
    candidate = optimize_query(query)
    assert _last_join(candidate.plan)
    cache = InvocationCache(max_size=None)
    sessions = [
        LiquidQuerySession(
            candidate=candidate,
            query=query,
            pool=ServicePool(registry, global_seed=11),
            inputs=dict(inputs),
            executor_options={"invocation_cache": cache},
        )
        for _ in range(2)
    ]
    first, second = sessions
    one = first.run(k=1)
    raw = first._raw
    n = len(raw)
    assert first._last.result_memo == "miss" and len(raw.built) == len(one) == 1
    rest = second.run(k=max(n - 1, 1))
    assert second._last.result_memo == "hit" and second._raw is raw
    assert len(raw.built) == len(rest) and rest[0] is one[0]
    assert first.run(k=n) == list(raw) and len(raw.built) == n
    # The eager oracle over the same world and fetches.
    executor = PlanExecutor(
        candidate.plan, query, ServicePool(registry, global_seed=11), inputs,
        fetches=first._fetches,
    )
    executor.k, executor._defers = None, lambda node_id: False
    assert _exact(raw) == _exact(executor.run().tuples)
