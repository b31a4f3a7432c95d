"""One cheap life per tuple: each lowered stage against its reference.

* the generator's draw program ≡ ``domain_value`` + the public
  ``ServiceTuple(...)`` constructor, tuple for tuple and RNG state for
  RNG state, for any read prefix;
* the executor's residual final check ≡ the full joint-witness check
  (``satisfies`` over the whole predicate set) on plans where a repeating
  group is mentioned by one node, by two nodes, or only by a pipe-realised
  join — degraded and ``final_semantic_check=False`` runs included;
* a pipe-realised join checked at the service node that makes it
  evaluable, and a plan's last service node ranked before its rows are
  built ≡ every row built and checked against every predicate at the
  output node — on the residual cases and the five scenario templates,
  under faults; the deferred sequence ≡ the eager list under every read;
* rows are scored on demand, yet every returned row carries exactly
  ``score_composite(components)``;
* ``result_digest`` over warm per-tuple memos equals a cold recomputation
  and the function as it was before the memo;
* the per-tuple memos never leak into ``==``, ``repr``,
  ``dataclasses.replace``, copies or pickles.
"""

import copy
import dataclasses
import hashlib
import pickle
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.core.topology import enumerate_topologies
from repro.engine.executor import PlanExecutor, execute_plan, invocation_cache_key
from repro.engine.liquid import LiquidQuerySession
from repro.engine.retry import Degradation
from repro.model.attributes import Attribute, DataType, Domain, RepeatingGroup
from repro.model.registry import ServiceRegistry
from repro.model.scoring import LinearScoring
from repro.model.service import (
    AccessPattern,
    ServiceInterface,
    ServiceKind,
    ServiceMart,
    ServiceStats,
)
from repro.model.tuples import CompositeTuple, RankingFunction, ServiceTuple
from repro.obs.explain import build_explain
from repro.obs.tracer import Tracer
from repro.plans.nodes import (
    OutputNode,
    ParallelJoinNode,
    SelectionNode,
    ServiceNode,
)
from repro.query.ast import AttrRef, Comparator, SelectionPredicate
from repro.query.compile import compile_query
from repro.query.feasibility import enumerate_binding_choices
from repro.query.parser import parse_query
from repro.query.predicates import satisfies
from repro.serve.bench import result_digest
from repro.serve.workload import scenario_templates
from repro.services import datagen
from repro.services.datagen import TupleGenerator, derive_seed, domain_value
from repro.services.marts import CONFERENCE_INPUTS, RUNNING_EXAMPLE_INPUTS
from repro.services.simulated import FaultModel, ServicePool

# -- (a) the draw program against domain_value + ServiceTuple(...) --------------

NAMES = st.sampled_from(["A", "B", "C", "D", "E"])
DOMAINS = st.builds(
    Domain,
    name=st.sampled_from(["d", "e"]),
    dtype=st.sampled_from(list(DataType)),
    size=st.one_of(st.none(), st.integers(1, 6)),
)


@st.composite
def marts(draw):
    attributes = []
    for name in draw(st.lists(NAMES, min_size=1, max_size=4, unique=True)):
        if draw(st.booleans()):
            subs = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
            attributes.append(
                RepeatingGroup(
                    name,
                    tuple(Attribute(sub, draw(DOMAINS)) for sub in subs),
                    avg_members=draw(st.one_of(st.none(), st.integers(1, 3))),
                )
            )
        else:
            attributes.append(Attribute(name, draw(DOMAINS)))
    return ServiceMart("Thing", tuple(attributes))


def _paths(mart):
    for attr in mart.attributes:
        if isinstance(attr, RepeatingGroup):
            yield from (f"{attr.name}.{sub.name}" for sub in attr.sub_attributes)
        else:
            yield attr.name


BOUND = st.one_of(
    st.none(),
    st.integers(0, 3),
    st.sampled_from(["d#1", "x", True, 2.5]),
    # Non-scalar bindings are frozen on the way into the tuple.
    st.just(["nested", {"k": [1, 2]}]),
)


@st.composite
def invocations(draw):
    mart = draw(marts())
    paths = list(_paths(mart))
    inputs = {
        path: draw(BOUND)
        for path in draw(st.lists(st.sampled_from(paths), unique=True))
    }
    interface = ServiceInterface(
        name="Thing1",
        mart=mart,
        access_pattern=AccessPattern.from_spec({path: "I" for path in inputs}),
        kind=ServiceKind.SEARCH,
        stats=ServiceStats(draw(st.sampled_from([0.6, 3, 12])), chunk_size=4),
        scoring=LinearScoring(horizon=10),
    )
    constraints = [
        SelectionPredicate(
            AttrRef.parse(f"X.{path}"),
            draw(st.sampled_from([Comparator.EQ, Comparator.LIKE])),
            draw(st.sampled_from([0, 1, "d#1", "d", True])),
        )
        for path in draw(st.lists(st.sampled_from(paths), max_size=2, unique=True))
    ]
    generator = TupleGenerator(
        interface,
        global_seed=draw(st.integers(0, 50)),
        min_group_members=draw(st.integers(0, 1)),
        max_group_members=draw(st.integers(1, 3)),
    )
    return generator, inputs, constraints


def reference_stream(generator, inputs, constraints, rng):
    """The generator as first written: one ``domain_value`` per unbound
    (sub-)attribute, dict-shaped groups, the validating constructor."""
    interface = generator.interface
    avg = interface.stats.avg_cardinality
    if avg <= 0:
        total = 0
    elif avg < 1.0:
        total = 1 if rng.random() < avg else 0
    else:
        spread = max(1, round(avg * 0.25))
        total = max(1, round(avg) + rng.randint(-spread, spread))
    position = attempts = 0
    while position < total and attempts < max(20, total * 20):
        attempts += 1
        values = {}
        for attr in interface.mart.attributes:
            if isinstance(attr, RepeatingGroup):
                count = attr.avg_members
                if count is None:
                    count = rng.randint(
                        generator.min_group_members, generator.max_group_members
                    )
                members = []
                for index in range(count):
                    member = {}
                    for sub in attr.sub_attributes:
                        bound = inputs.get(f"{attr.name}.{sub.name}")
                        member[sub.name] = (
                            bound
                            if bound is not None and index == 0
                            else domain_value(sub, rng)
                        )
                    members.append(member)
                values[attr.name] = members
            else:
                bound = inputs.get(attr.name)
                values[attr.name] = (
                    bound if bound is not None else domain_value(attr, rng)
                )
        candidate = ServiceTuple(
            values=values,
            score=min(1.0, max(0.0, interface.scoring.score_at(position))),
            source=interface.name,
            position=position,
        )
        if constraints and not satisfies({"X": candidate}, constraints):
            continue
        position += 1
        yield candidate


@settings(max_examples=150, deadline=None)
@given(invocations(), st.integers(0, 14))
def test_draw_program_equals_the_reference_for_any_prefix(invocation, prefix):
    generator, inputs, constraints = invocation
    spies = []

    class Spy(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            spies.append(self)

    real, datagen.random = datagen.random, SimpleNamespace(Random=Spy)
    try:
        lowered = generator.stream(inputs, constraints)
        got = [tup for _, tup in zip(range(prefix), lowered)]
    finally:
        datagen.random = real
    rng = random.Random(derive_seed(generator.global_seed, "Thing1", inputs))
    reference = reference_stream(generator, inputs, constraints, rng)
    want = [tup for _, tup in zip(range(prefix), reference)]
    assert got == want
    assert [repr(t) for t in got] == [repr(t) for t in want]
    assert [hash(t) for t in got] == [hash(t) for t in want]
    if prefix:  # the stream seeds its RNG on the first ``next``
        assert spies[0].getstate() == rng.getstate()


# -- (b) the residual final check against the full one --------------------------

SMALL = Domain("d", DataType.INTEGER, size=3)


def _mart(name, group):
    return ServiceMart(
        name,
        (
            Attribute("K", SMALL),
            Attribute("P", Domain("p")),
            RepeatingGroup(group, (Attribute("X", SMALL), Attribute("Y", SMALL))),
        ),
    )


def _residual_registry():
    registry = ServiceRegistry()
    a, b, c = _mart("A", "G"), _mart("B", "H"), _mart("C", "J")
    for mart in (a, b, c):
        registry.register_mart(mart)
    search = dict(kind=ServiceKind.SEARCH, scoring=LinearScoring(horizon=12))
    for name, mart, spec, options in (
        ("A1", a, {"K": "I"}, dict(stats=ServiceStats(8, chunk_size=4), **search)),
        ("B1", b, {"K": "I"}, dict(stats=ServiceStats(6, chunk_size=3), **search)),
        ("B2", b, {"P": "I"}, dict(stats=ServiceStats(6, chunk_size=3), **search)),
        ("C1", c, {"K": "I"}, dict(kind=ServiceKind.EXACT, stats=ServiceStats(3))),
    ):
        registry.register_interface(
            ServiceInterface(
                name=name,
                mart=mart,
                access_pattern=AccessPattern.from_spec(spec),
                **options,
            )
        )
    return registry


REGISTRY = _residual_registry()
RESIDUAL_INPUTS = {"INPUT1": 1, "INPUT2": "p#5"}
#: name -> (query, does a repeating group span two predicate subsets?)
RESIDUAL_QUERIES = {
    # Both mentions of A.G sit in A's own selections: one node.
    "one_node": (
        "SELECT A1 AS A, B2 AS B WHERE A.K = INPUT1 AND B.P = INPUT2 "
        "AND A.G.X = 1 AND A.G.Y = 2 AND A.K = B.K",
        False,
    ),
    # A.G in A's selection and in a join a merge/selection node checks.
    "two_nodes": (
        "SELECT A1 AS A, B2 AS B WHERE A.K = INPUT1 AND B.P = INPUT2 "
        "AND A.G.X = 1 AND A.G.Y = B.K",
        True,
    ),
    # A.G only in the join the A -> B pipe realises: the residual itself.
    "pipe_only": (
        "SELECT A1 AS A, B1 AS B WHERE A.K = INPUT1 AND A.G.Y = B.K",
        False,
    ),
    # ... and in A's selection too: residual and service node share A.G.
    "pipe_and_selection": (
        "SELECT A1 AS A, B1 AS B WHERE A.K = INPUT1 AND A.G.X = 1 "
        "AND A.G.Y = B.K",
        True,
    ),
    "three_services": (
        "SELECT A1 AS A, B2 AS B, C1 AS C WHERE A.K = INPUT1 AND B.P = INPUT2 "
        "AND A.G.X = B.H.X AND B.H.Y = C.K AND C.J.X = 0",
        True,
    ),
    # A.G in two pipe-realised joins, one bound at B and one at C: together
    # in the residual they share a witness; staged apart they would not.
    "split_group": (
        "SELECT A1 AS A, B1 AS B, C1 AS C WHERE A.K = INPUT1 "
        "AND A.G.X = B.K AND A.G.Y = C.K",
        False,
    ),
}


def _cases():
    for name, (text, shared) in RESIDUAL_QUERIES.items():
        query = compile_query(parse_query(text), REGISTRY)
        for choice in enumerate_binding_choices(query):
            for plan in enumerate_topologies(query, {}, choice):
                yield name, query, plan, shared


RESIDUAL_CASES = list(_cases())


def _full_check(query, components, inputs):
    """The pre-residual output check: every predicate, one joint witness
    (restricted to the aliases a degraded row still has)."""
    present = set(components)
    return satisfies(
        components,
        selections=[s for s in query.selections if s.attr.alias in present],
        joins=[
            j
            for j in query.joins
            if j.left.alias in present and j.right.alias in present
        ],
        inputs=inputs,
    )


def _rows(result):
    return [(row.components, row.score) for row in result.tuples]


def _exact_rows(result):
    """Components, order, score type and bits."""
    return [
        (row.components, type(row.score), float(row.score).hex())
        for row in result.tuples
    ]


def _unstaged_label(query, plan):
    """The output node's label when service nodes check selections only
    (as they did before joins were staged at them)."""
    staged = []
    for node in plan.nodes.values():
        if isinstance(node, ServiceNode):
            staged.append((query.selections_on(node.alias), ()))
        elif isinstance(node, SelectionNode):
            staged.append((node.selections, node.join_filters))
        elif isinstance(node, ParallelJoinNode):
            staged.append(((), node.predicates))
    return query.final_predicates(tuple(staged))[0]


def _built_then_checked(executor):
    """The reference life of a row: every service node checks its
    selections only and builds every row, the output node checks the
    whole predicate set on each.  (Pins the executor's staging decision.)"""
    query = executor.query
    executor.__dict__["_staging"] = (
        dict.fromkeys(query.aliases, ()),
        ("full(reference)", query.selections, query.joins),
    )
    return executor


def _check_against_the_oracles(make, inputs):
    """``make(**options)`` builds an executor of one plan in one world.
    The run as the executor decides it must equal (a) the run with the
    output node's check off, filtered by ``satisfies`` over the whole
    predicate set, and (b) the rows built first and checked last."""
    executor = make()
    query, plan = executor.query, executor.plan
    checked = executor.run()
    unchecked_executor = make(final_semantic_check=False)
    unchecked = unchecked_executor.run()
    assert unchecked_executor.final_check == "elided"
    # Both sorts are stable, so filtering after the sort keeps the order.
    assert _rows(checked) == [
        (components, score)
        for components, score in _rows(unchecked)
        if _full_check(query, components, inputs)
    ]
    assert _exact_rows(checked) == _exact_rows(_built_then_checked(make()).run())
    label = executor.final_check
    assert label == checked.node_stats[plan.output_node.node_id].final_check
    if checked.failed_aliases:
        assert label == "full(degraded)"
    elif not _unstaged_label(query, plan).startswith("full"):
        # Staging never costs a plan its residual check.
        assert label == "elided" or label.startswith("residual("), label
    return label, checked


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(RESIDUAL_CASES),
    st.integers(0, 30),
    st.integers(1, 3),
    st.sampled_from([None, "A1", "B1", "B2", "C1"]),
)
def test_residual_final_check_equals_the_full_check(case, seed, factor, outage):
    name, query, plan, shared = case
    faults = FaultModel() if outage is None else FaultModel().with_outage(outage)

    def make(**options):
        return PlanExecutor(
            plan,
            query,
            ServicePool(REGISTRY, global_seed=seed, fault_model=faults),
            RESIDUAL_INPUTS,
            fetches={alias: factor for alias in query.aliases},
            k=10**6,
            degradation=Degradation.PARTIAL,
            **options,
        )

    label, checked = _check_against_the_oracles(make, RESIDUAL_INPUTS)
    if not checked.failed_aliases:
        assert (label == "full(shared_group)") == shared


def _template_cases():
    for template in scenario_templates("all"):
        registry = template.registry_factory()
        query = compile_query(parse_query(template.query_text), registry)
        candidate = Optimizer(query, OptimizerConfig()).optimize().best
        inputs = {name: options[0] for name, options in template.parameter_space.items()}
        yield template.name, registry, query, candidate, inputs


TEMPLATE_CASES = list(_template_cases())
FAULTS = {
    "none": lambda registry, rng: FaultModel(),
    "outage": lambda registry, rng: FaultModel().with_outage(
        rng.choice(sorted(registry.interface_names))
    ),
    "flaky": lambda registry, rng: FaultModel.uniform(failure_rate=0.3),
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(TEMPLATE_CASES),
    st.integers(0, 10**6),
    st.integers(1, 2),
    st.sampled_from(sorted(FAULTS)),
)
def test_the_scenario_templates_stage_and_defer_like_the_oracles(
    case, seed, factor, profile
):
    name, registry, query, candidate, inputs = case
    faults = FAULTS[profile](registry, random.Random(seed))

    def make(**options):
        return PlanExecutor(
            candidate.plan,
            query,
            ServicePool(registry, global_seed=seed, fault_model=faults),
            inputs,
            fetches={a: f * factor for a, f in candidate.fetch_vector().items()},
            k=10**6,
            degradation=Degradation.PARTIAL,
            **options,
        )

    label, checked = _check_against_the_oracles(make, inputs)
    if not checked.failed_aliases:
        # Flat pipe joins, every one staged: nothing is left to the output.
        assert label == "elided"
        assert sum(s.staged for s in checked.node_stats.values()) > 0


def test_every_residual_shape_is_exercised():
    labels = {}
    for name, query, plan, _ in RESIDUAL_CASES:
        executor = PlanExecutor(
            plan, query, ServicePool(REGISTRY, global_seed=3), RESIDUAL_INPUTS
        )
        executor.run()
        labels.setdefault(name, set()).add(executor.final_check)
    # A pipe-realised join is checked at the service node it binds ...
    assert labels["one_node"] == labels["pipe_only"] == {"elided"}
    # ... unless that would split a repeating group between two nodes.
    assert labels["split_group"] == {"residual(2)"}
    for name in ("two_nodes", "pipe_and_selection", "three_services"):
        assert labels[name] == {"full(shared_group)"}


# -- ranked before built, built when read ------------------------------------------


def _chain_runs(seed=3, factor=3, **options):
    """One A -> B chain (``pipe_only``: its last node is a service node),
    as the executor runs it and built first, checked last."""
    _, query, plan, _ = next(case for case in RESIDUAL_CASES if case[0] == "pipe_only")

    def make():
        return PlanExecutor(
            plan,
            query,
            ServicePool(REGISTRY, global_seed=seed),
            RESIDUAL_INPUTS,
            fetches={alias: factor for alias in query.aliases},
            **{"k": 10**6, **options},
        )

    return make().run().tuples, list(_built_then_checked(make()).run().tuples)


READS = {
    "len": len,
    "bool": bool,
    "first": lambda rows: rows[0],
    "third": lambda rows: rows[2],
    "last": lambda rows: rows[-1],
    "below": lambda rows: rows[:4],
    "at": lambda rows: rows[: len(rows)],
    "above": lambda rows: rows[: len(rows) + 5],
    "middle": lambda rows: rows[3:6],
    "all_but_two": lambda rows: rows[:-2],
    "stride": lambda rows: rows[1:8:3],
    "reversed_slice": lambda rows: rows[5:1:-1],
    "empty_slice": lambda rows: rows[4:2],
    "iteration": list,
    "reversed": lambda rows: list(reversed(rows)),
    "contains": lambda rows: rows[1] in rows and object() not in rows,
    "index": lambda rows: rows.index(rows[2]),
    "equals_list": lambda rows: (rows == list(rows), list(rows) == rows, rows != []),
    "equals_itself": lambda rows: rows == rows,
    "pickle": lambda rows: pickle.loads(pickle.dumps(rows)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "sorted": lambda rows: sorted(rows, key=lambda row: row.score),
    "digest": result_digest,
}
#: How long a prefix each read builds (``None``: every row).
PREFIX = {
    "len": 0, "bool": 0, "first": 1, "third": 3, "below": 4, "middle": 6,
    "stride": 8, "reversed_slice": 6, "empty_slice": 0, "index": 3,
}


@pytest.mark.parametrize("read", sorted(READS))
def test_the_deferred_sequence_reads_like_the_eager_list(read, monkeypatch):
    built = []
    real = CompositeTuple.__dict__["_owned"].__func__

    def counting(cls, components, score):
        built.append(row := real(cls, components, score))
        return row

    monkeypatch.setattr(CompositeTuple, "_owned", classmethod(counting))
    deferred, eager = _chain_runs()
    assert len(eager) > 8 and deferred.built == []
    del built[:]  # what the two executions built: from here on, the reads
    got, want = READS[read](deferred), READS[read](eager)
    assert type(got) is type(want)

    def exact(value):
        if isinstance(value, CompositeTuple):
            return (list(value.components.items()), type(value.score), value.score)
        if isinstance(value, list):
            return [exact(item) for item in value]
        return value

    assert exact(got) == exact(want)
    # Only the rows read were built, as a prefix, and none twice ...
    expected = PREFIX.get(read, len(eager))
    if read == "all_but_two":
        expected = len(eager) - 2
    assert len(built) == len(deferred.built) == expected
    assert all(ours is theirs for ours, theirs in zip(built, deferred.built))
    # ... and reading on builds the rest, once: the same objects stay.
    prefix = list(deferred.built)
    assert exact(list(deferred)) == exact(eager)
    assert len(built) == len(eager) and deferred.built[: len(prefix)] == prefix
    assert all(ours is theirs for ours, theirs in zip(prefix, deferred.built))
    list(deferred), deferred[-1], deferred[:3]
    assert len(built) == len(eager)


def test_out_of_range_and_odd_indices_fail_like_a_lists():
    deferred, eager = _chain_runs()
    for bad in (len(eager), -len(eager) - 1):
        with pytest.raises(IndexError):
            deferred[bad]
    with pytest.raises(TypeError):
        deferred["0"]
    assert deferred.built == [] and deferred != tuple(eager)
    with pytest.raises(TypeError):
        hash(deferred)


@pytest.mark.parametrize("k", [0, 1, 5, 10**6])
def test_a_bounded_execution_can_only_build_its_top_k(k):
    deferred, eager = _chain_runs(k=k)
    assert len(deferred) == len(eager) == min(k, len(_chain_runs()[1]))
    assert _exact_rows(SimpleNamespace(tuples=deferred)) == _exact_rows(
        SimpleNamespace(tuples=eager)
    )
    assert len(deferred.built) == len(eager)


def test_the_travel_chain_builds_ten_rows_for_k_ten(monkeypatch):
    name, registry, query, candidate, inputs = next(
        case for case in TEMPLATE_CASES if case[0] == "travel"
    )
    built = []
    real = CompositeTuple.__dict__["_owned"].__func__

    def counting(cls, components, score):
        built.append(len(components))
        return real(cls, components, score)

    monkeypatch.setattr(CompositeTuple, "_owned", classmethod(counting))
    result = execute_plan(
        candidate.plan, query, ServicePool(registry, global_seed=2009), inputs,
        fetches={a: f * 4 for a, f in candidate.fetch_vector().items()}, k=10,
    )
    output = result.node_stats[candidate.plan.output_node.node_id]
    assert output.tin > 1000 and output.tout == len(result.tuples) == 10
    assert built.count(3) == 0  # ranked, not built: no F.H.E row exists yet
    rows = list(result.tuples)
    assert built.count(3) == 10 == len(rows)
    assert [row.score for row in rows] == sorted(
        (row.score for row in rows), reverse=True
    )
    last = result.node_stats["svc:E"]
    assert (last.rows_built, last.rows_scored, last.tout) == (0, 0, output.tin)


def test_final_predicates_are_decided_once_per_staged_split(movie_query):
    staged = ((movie_query.selections_on("M"), ()), ((), movie_query.joins[:1]))
    first = movie_query.final_predicates(staged)
    assert movie_query.final_predicates(staged) is first
    label, selections, joins = first
    assert label == f"residual({len(selections) + len(joins)})"
    assert not set(selections) & set(staged[0][0])
    assert movie_query.joins[0] not in joins


# -- (c) scored on demand, scored exactly ---------------------------------------


def _example_plans(query, inputs):
    for choice in enumerate_binding_choices(query):
        for plan in enumerate_topologies(query, {}, choice):
            yield plan, inputs


@pytest.fixture(scope="module")
def example_runs(movie_query, movie_registry, conference_query, conference_registry):
    return [
        (query, registry, plan, inputs)
        for query, registry, given_inputs in (
            (movie_query, movie_registry, RUNNING_EXAMPLE_INPUTS),
            (conference_query, conference_registry, CONFERENCE_INPUTS),
        )
        for plan, inputs in _example_plans(query, given_inputs)
    ]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RESIDUAL_CASES), st.integers(0, 30), st.integers(1, 3))
def test_every_returned_row_carries_its_exact_score(case, seed, factor):
    _, query, plan, _ = case
    result = execute_plan(
        plan,
        query,
        ServicePool(REGISTRY, global_seed=seed),
        RESIDUAL_INPUTS,
        fetches={alias: factor for alias in query.aliases},
        k=10**6,
    )
    for row in result.tuples:
        assert row.score == query.ranking.score_composite(row.components)
    scores = [row.score for row in result.tuples]
    assert scores == sorted(scores, reverse=True)


def test_presentation_orders_match_a_from_scratch_ranking(
    movie_query, movie_registry
):
    candidate = Optimizer(movie_query, OptimizerConfig()).optimize().best
    session = LiquidQuerySession(
        candidate,
        movie_query,
        ServicePool(movie_registry, global_seed=42),
        dict(RUNNING_EXAMPLE_INPUTS),
    )
    shown = session.run(k=50)
    raw = list(session._raw)
    assert all(
        row.score == movie_query.ranking.score_composite(row.components)
        for row in raw
    )
    assert shown == raw[:50]
    weights = {"M": 0.1, "T": 0.1, "R": 0.8}
    reranked = session.rerank(weights, k=50)
    score = RankingFunction(weights).score_composite
    order = sorted(raw, key=lambda row: -score(row.components))  # stable
    assert [row.components for row in reranked] == [
        row.components for row in order[:50]
    ]
    assert [row.score for row in reranked] == [
        score(row.components) for row in order[:50]
    ]


def test_a_default_run_does_no_per_row_work_nobody_reads(example_runs, monkeypatch):
    """The acceptance test: nothing frozen twice, nothing scored twice,
    nothing checked twice."""
    from repro.model import tuples as tuples_module

    counts = {"post_init": 0, "freeze": 0, "score": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        ServiceTuple, "__post_init__",
        counting("post_init", ServiceTuple.__post_init__),
    )
    for module in (tuples_module, datagen):
        monkeypatch.setattr(
            module, "freeze_value", counting("freeze", module.freeze_value)
        )
    monkeypatch.setattr(
        RankingFunction, "score_composite",
        counting("score", RankingFunction.score_composite),
    )
    final_checks = []
    real_filter = PlanExecutor._filter

    def spying_filter(self, composites, selections, joins):
        final_checks.append((self.plan, tuple(selections), tuple(joins)))
        return real_filter(self, composites, selections, joins)

    for query, registry, plan, inputs in example_runs:
        counts.update(post_init=0, freeze=0, score=0)
        selection_nodes = len(plan.selection_nodes())
        monkeypatch.setattr(PlanExecutor, "_filter", spying_filter)
        del final_checks[:]
        result = execute_plan(
            plan, query, ServicePool(registry, global_seed=42), inputs,
            fetches={alias: 2 for alias in query.aliases}, k=10**6,
        )
        monkeypatch.setattr(PlanExecutor, "_filter", real_filter)
        assert result.tuples or not plan.join_nodes()
        # Born frozen: the generator never re-validates or re-freezes.
        assert counts["post_init"] == counts["freeze"] == 0
        # Scored where read: once per join-output row, once per row that
        # reaches the output without a score.
        stats = result.node_stats
        joined = sum(
            stats[node_id].tout
            for node_id, node in plan.nodes.items()
            if isinstance(node, ParallelJoinNode)
        )
        assert counts["score"] == sum(s.rows_scored for s in stats.values())
        assert counts["score"] <= joined + len(result.tuples)
        # Checked once: selection nodes filter their own subsets; the
        # output filters nothing, or only joins a pipe binding realises.
        piped = {
            provider.join
            for node in plan.service_nodes()
            for provider in node.providers
            if provider.join is not None
        }
        assert len(final_checks) <= selection_nodes + 1
        label = stats[plan.output_node.node_id].final_check
        if label == "elided":
            assert len(final_checks) == selection_nodes
        else:
            _, selections, joins = final_checks[-1]
            assert label == f"residual({len(joins)})"
            assert not selections and set(joins) <= piped


def test_hoisted_cache_keys_equal_invocation_cache_key(example_runs):
    for query, registry, plan, inputs in example_runs:
        executor = PlanExecutor(
            plan, query, ServicePool(registry, global_seed=42), inputs
        )
        for node in plan.service_nodes():
            spec_of = executor._call_specs(node, 3, 0.4)
            tup = ServiceTuple(
                {"UAddress": "a", "UCity": None, "Shows": [{"Title": 7}]},
                source="S",
            )
            components = {alias: tup for alias in query.aliases}
            bindings, constraints, key = spec_of(components)
            assert key == invocation_cache_key(
                node.interface.name, node.alias, 3, bindings,
                constraints=constraints, availability=0.4,
            )
            assert spec_of({}) is None or not node.pipe_sources


# -- (d) result_digest: rendered once, same bytes -------------------------------


def legacy_result_digest(tuples):
    """``result_digest`` as it was before tuples kept their rendering."""
    parts = []
    for comp in tuples:
        for alias in sorted(comp.components):
            values = comp.component(alias).values
            parts.append(
                alias
                + "|"
                + "|".join(f"{k}={values[k]!r}" for k in sorted(values))
            )
        parts.append(f"score={round(comp.score, 12)!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
    st.text(max_size=4),
)
VALUE_MAPS = st.dictionaries(
    st.text(min_size=1, max_size=3),
    st.one_of(
        SCALARS,
        st.lists(st.dictionaries(st.sampled_from("xyz"), SCALARS), max_size=3),
    ),
    max_size=4,
)
TUPLE_SPECS = st.tuples(VALUE_MAPS, st.floats(0, 1), st.integers(0, 5))


def _build(specs):
    return [
        ServiceTuple(values, score=score, source="S", position=position)
        for values, score, position in specs
    ]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(TUPLE_SPECS, min_size=1, max_size=5),
    st.lists(
        st.tuples(
            st.dictionaries(st.sampled_from("MTR"), st.integers(0, 4), max_size=3),
            st.floats(0, 1),
        ),
        max_size=6,
    ),
)
def test_result_digest_warm_equals_cold_equals_legacy(specs, rows):
    def composites(tuples):
        return [
            CompositeTuple(
                {alias: tuples[index % len(tuples)] for alias, index in parts.items()},
                score,
            )
            for parts, score in rows
        ]

    warm = composites(_build(specs))
    first = result_digest(warm)
    assert result_digest(warm) == first  # every segment now comes from a memo
    assert first == result_digest(composites(_build(specs)))  # cold again
    assert first == legacy_result_digest(warm)


# -- memo hygiene -----------------------------------------------------------------


def _warm(tup):
    hash(tup)
    tup.digest_line("A")
    for group, value in tup.values.items():
        if isinstance(value, tuple):
            tup.group_members(group)
    return tup


@settings(max_examples=100, deadline=None)
@given(TUPLE_SPECS)
def test_memos_never_leave_the_tuple(spec):
    (cold,), (warm,) = _build([spec]), _build([spec])
    _warm(warm)
    fields = {"values", "score", "source", "position"}
    assert set(warm.__dict__) > fields and set(cold.__dict__) == fields
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert pickle.dumps(warm) == pickle.dumps(cold)
    for clone in (
        pickle.loads(pickle.dumps(warm)),
        copy.copy(warm),
        copy.deepcopy(warm),
        dataclasses.replace(warm),
    ):
        assert set(clone.__dict__) == fields
        assert clone == cold and hash(clone) == hash(cold)
    moved = dataclasses.replace(warm, position=warm.position + 1)
    assert set(moved.__dict__) == fields and hash(moved) != hash(warm)
    row = CompositeTuple({"S": warm}, 0.5)
    assert pickle.dumps(row) == pickle.dumps(CompositeTuple({"S": cold}, 0.5))


def test_generated_tuples_pickle_like_constructed_ones(movie_registry):
    pool = ServicePool(movie_registry, global_seed=42)
    inputs = {"Genres.Genre": "genre#3", "Openings.Country": "country#1",
              "Openings.Date": None}
    for tup in pool.invoke("Movie1", inputs).results:
        rebuilt = ServiceTuple(
            dict(tup.values), score=tup.score, source=tup.source,
            position=tup.position,
        )
        assert tup == rebuilt and repr(tup) == repr(rebuilt)
        assert pickle.dumps(_warm(tup)) == pickle.dumps(rebuilt)


# -- observability ----------------------------------------------------------------


def test_final_check_and_row_counters_reach_span_stats_and_explain(
    movie_query, movie_registry
):
    candidate = Optimizer(movie_query, OptimizerConfig()).optimize().best
    runs = []
    for tracer in (None, Tracer()):
        runs.append(
            execute_plan(
                candidate.plan, movie_query,
                ServicePool(movie_registry, global_seed=42),
                RUNNING_EXAMPLE_INPUTS, fetches=candidate.fetch_vector(),
                tracer=tracer,
            )
        )
    untraced, traced = runs
    assert result_digest(untraced.tuples) == result_digest(traced.tuples)
    assert untraced.node_stats == traced.node_stats
    (span,) = tracer.finished("plan.execute")
    stats = traced.node_stats
    output = next(
        s for node_id, s in stats.items()
        if isinstance(candidate.plan.node(node_id), OutputNode)
    )
    assert span.attrs["final_check"] == output.final_check == "elided"
    assert span.attrs["rows_built"] == sum(s.rows_built for s in stats.values())
    assert span.attrs["rows_scored"] == sum(s.rows_scored for s in stats.values())
    # The plan's last join ranks its pairs unbuilt: only the rows upstream
    # of it were built during the execution, and none was scored.
    assert span.attrs["rows_scored"] == 0 < span.attrs["rows_built"]
    assert all(s.final_check == "" for s in stats.values() if s is not output)
    text = build_explain(candidate.plan, candidate.annotations, traced).render()
    assert "final_check=elided" in text
    assert (
        f"rows: {span.attrs['rows_built']} built, "
        f"{span.attrs['rows_scored']} scored" in text
    )


def test_staged_joins_and_built_rows_reach_spans_stats_and_explain():
    name, registry, query, candidate, inputs = next(
        case for case in TEMPLATE_CASES if case[0] == "travel"
    )
    runs = []
    for tracer in (None, Tracer()):
        runs.append(
            execute_plan(
                candidate.plan, query, ServicePool(registry, global_seed=42),
                inputs, fetches=candidate.fetch_vector(), k=10**6, tracer=tracer,
            )
        )
    untraced, traced = runs
    assert untraced.node_stats == traced.node_stats
    stats = traced.node_stats
    staged = {
        span.attrs["alias"]: span.attrs.get("staged", 0)
        for span in tracer.finished("node.service")
    }
    assert staged == {"F": 0, "H": 1, "E": 1}
    assert staged == {
        candidate.plan.node(node_id).alias: s.staged
        for node_id, s in stats.items()
        if isinstance(candidate.plan.node(node_id), ServiceNode)
    }
    (span,) = tracer.finished("plan.execute")
    total = len(traced.tuples)
    assert total > 10 and span.attrs["result_rows"] == f"built 0 of {total}"
    assert span.attrs["rows_built"] == sum(s.rows_built for s in stats.values())
    # Nobody has read a row yet; the CLI reads what it prints.
    explain = lambda: build_explain(candidate.plan, candidate.annotations, traced)
    text = explain().render()
    assert text.count("staged=1") == 2 and "final_check=elided" in text
    assert f"result rows built 0 of {total}" in text
    assert explain().actual_results == total
    shown = traced.tuples[:10]
    assert f"result rows built 10 of {total}" in explain().render()
    assert result_digest(shown) == result_digest(untraced.tuples[:10])
    assert result_digest(untraced.tuples) == result_digest(traced.tuples)
    assert f"result rows built {total} of {total}" in explain().render()
    assert traced.metrics()["counters"]["executor.combinations"] == total
