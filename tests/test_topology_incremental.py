"""The persistent phase-2 builder against its from-scratch definitions.

A :class:`~repro.core.topology.TopologyBuilder` carries its signature,
annotations, leaves, alias sets and partial cost incrementally; after
every move each of them must equal what ``topology_signature``,
``annotate``, ``metric.partial_cost`` and the plain DAG scans compute on
``builder.plan`` — bit for bit, on random legal move sequences.  A child
is priced when it is derived and built (leaves, signature) when first
read, so every child is checked both before and after it is built.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.optimizer as optimizer_module
import repro.core.topology as topology_module
from repro.core.annotate import ANNOTATION_COUNTERS, annotate
from repro.core.cost import DEFAULT_METRICS, ExecutionTimeMetric, SumCostMetric
from repro.core.optimizer import Optimizer, OptimizerConfig, plan_signature
from repro.core.topology import (
    TopologyBuilder,
    TopologyCounters,
    topology_signature,
)
from repro.plans.nodes import ServiceNode
from repro.plans.plan import QueryPlan
from repro.query.compile import compile_query
from repro.query.feasibility import enumerate_binding_choices
from repro.query.parser import parse_query
from repro.serve.workload import scenario_templates
from repro.services.marts import RUNNING_EXAMPLE_QUERY, movie_night_registry
from repro.services.synth import chain_workload, mixed_workload, star_workload

# ``repro.core.annotate`` the attribute is the function; this is the module.
annotate_module = importlib.import_module("repro.core.annotate")

ROOT = Path(__file__).resolve().parent.parent
PINNED = json.loads(
    (Path(__file__).parent / "data" / "plan_cold_search.json").read_text()
)


def _compiled(text, registry):
    return compile_query(parse_query(text), registry)


def _cases():
    """(name, query, assignment, choice) over every workload family."""
    queries = [("fig10", _compiled(RUNNING_EXAMPLE_QUERY, movie_night_registry()))]
    queries += [
        (t.name, _compiled(t.query_text, t.registry_factory()))
        for t in scenario_templates("all")
    ]
    synthetic = [(f"star{n}", star_workload(n)) for n in (3, 4, 5, 6)]
    synthetic += [("chain5", chain_workload(5)), ("mixed6", mixed_workload(6))]
    queries += [(n, _compiled(w.query_text, w.registry)) for n, w in synthetic]
    cases = []
    for name, query in queries:
        assignment = {
            atom.alias: query.registry.interfaces_of(atom.mart.name)[0]
            for atom in query.atoms
            if atom.interface is None
        }
        for index, choice in enumerate(
            enumerate_binding_choices(query, assignment, limit=3)
        ):
            cases.append((f"{name}#{index}", query, assignment, choice))
    return cases


CASES = _cases()


# -- the old scans, kept here as the reference --------------------------------


def scan_leaves(plan: QueryPlan) -> tuple[str, ...]:
    return tuple(sorted(n for n in plan.nodes if not plan.children(n)))


def walk_upstream(plan: QueryPlan, node_id: str) -> frozenset[str]:
    seen, aliases, stack = set(), set(), [node_id]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        node = plan.node(current)
        if isinstance(node, ServiceNode):
            aliases.add(node.alias)
        stack.extend(plan.parents(current))
    return frozenset(aliases)


def snapshot(builder: TopologyBuilder):
    return (
        builder.signature,
        builder.leaves(),
        builder.placed,
        builder.realized,
        builder.bound,
        dict(builder.annotations.by_node),
        dict(builder.plan.nodes),
        list(builder.plan.arcs),
    )


def priced(builder: TopologyBuilder):
    """What a child carries before it is built."""
    return (
        builder.bound,
        dict(builder.annotations.by_node),
        builder.is_complete,
        builder.placed,
        builder.realized,
        {node_id: placed.through for node_id, placed in builder._nodes().items()},
    )


def check_unbuilt(builders, counters, query):
    """A freshly derived child's priced values equal their from-scratch
    definitions, and reading them (or its plan) builds nothing."""
    built = {name: c.children_built for name, c in counters.items()}
    first = next(iter(builders.values()))
    plan = first.plan
    scratch = annotate(plan, query, fetches={})
    assert first.annotations.by_node == scratch.by_node
    assert first.is_complete == (
        first.placed == frozenset(query.aliases) and len(scan_leaves(plan)) == 1
    )
    for node_id in plan.nodes:
        assert first._nodes()[node_id].through == walk_upstream(plan, node_id)
    for name, builder in builders.items():
        expected = DEFAULT_METRICS[name].partial_cost(builder.plan, scratch)
        assert repr(float(builder.bound)) == repr(float(expected)), name
    values = {name: priced(builder) for name, builder in builders.items()}
    assert {name: c.children_built for name, c in counters.items()} == built
    return values


def check_against_scratch(builders, query, sealed=False):
    """Every carried value of the lock-stepped ``builders`` (one per
    metric) equals its from-scratch definition on the materialised plan."""
    first = next(iter(builders.values()))
    plan = first.plan
    signature = topology_signature(plan)
    assert first.signature == signature
    assert hash(first.signature) == hash(signature)
    scratch = annotate(plan, query, fetches={})
    assert first.annotations.by_node == scratch.by_node
    assert first.leaves() == scan_leaves(plan)
    for node_id in plan.nodes:
        assert first._nodes()[node_id].through == walk_upstream(plan, node_id)
    for name, builder in builders.items():
        metric = DEFAULT_METRICS[name]
        price = metric.cost if sealed else metric.partial_cost
        expected = price(builder.plan, scratch)
        assert builder.bound == expected, name
        assert repr(float(builder.bound)) == repr(float(expected)), name


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=st.sampled_from(CASES), data=st.data())
def test_carried_state_equals_scratch_after_every_move(case, data):
    _, query, assignment, choice = case
    counters = {name: TopologyCounters() for name in DEFAULT_METRICS}
    builders = {
        name: TopologyBuilder.initial(
            query, assignment, choice, metric=metric, counters=counters[name]
        )
        for name, metric in DEFAULT_METRICS.items()
    }
    check_against_scratch(builders, query)
    for _ in range(64):
        first = next(iter(builders.values()))
        if first.is_complete:
            break
        moves = first.available_moves()
        if not moves:
            return  # dead end (a fork whose merge is degenerate)
        move = moves[data.draw(st.integers(0, len(moves) - 1))]
        before = {name: snapshot(b) for name, b in builders.items()}
        children = {}
        for name, builder in builders.items():
            assert builder.available_moves() == moves
            children[name] = builder.apply(move)
        unbuilt = check_unbuilt(children, counters, query)
        built = {name: c.children_built for name, c in counters.items()}
        # Persistence: deriving (and looking into) a child leaves the
        # parent exactly as it was.
        check_against_scratch(children, query)
        first = next(iter(children.values()))
        for child in children.values():
            assert child.signature == first.signature
            assert child.leaves() == first.leaves()
        # Reading the signature and leaves built each child once, and
        # building changed nothing it had been priced with.
        assert {n: c.children_built - built[n] for n, c in counters.items()} == (
            dict.fromkeys(counters, 1)
        )
        assert {name: priced(b) for name, b in children.items()} == unbuilt
        for name, builder in builders.items():
            assert snapshot(builder) == before[name], name
        builders = children
    else:  # pragma: no cover - every case finishes well inside 64 moves
        raise AssertionError("construction did not finish")
    sealed = {name: builder.seal() for name, builder in builders.items()}
    check_against_scratch(sealed, query, sealed=True)
    finished = next(iter(builders.values())).finish()
    assert topology_signature(finished) == next(iter(sealed.values())).signature
    assert dict(finished.nodes) == dict(next(iter(sealed.values())).plan.nodes)


def test_unfoldable_metric_falls_back_to_partial_cost(movie_query):
    """A metric without ``extend_partial`` is priced on the whole plan."""

    class Opaque(ExecutionTimeMetric):
        def extend_partial(self, running, node, annotation, parent_finish):
            return None

    choice = next(enumerate_binding_choices(movie_query))
    opaque = TopologyBuilder.initial(movie_query, {}, choice, metric=Opaque())
    folded = TopologyBuilder.initial(
        movie_query, {}, choice, metric=ExecutionTimeMetric()
    )
    assert TopologyBuilder.initial(movie_query, {}, choice).bound is None
    while not folded.is_complete:
        move = folded.available_moves()[0]
        opaque, folded = opaque.apply(move), folded.apply(move)
        assert opaque.bound == folded.bound
    assert opaque.seal().bound == folded.seal().bound


# -- satellite: the signature sort must not depend on set iteration order -----

_TWO_ORDERS = """
import sys
from repro.core.topology import TopologyBuilder, topology_signature
from repro.query.compile import compile_query
from repro.query.feasibility import enumerate_binding_choices
from repro.query.parser import parse_query
from repro.services.synth import star_workload

w = star_workload(6)
query = compile_query(parse_query(w.query_text), w.registry)
choice = next(enumerate_binding_choices(query))
root = TopologyBuilder.initial(query, {}, choice)
hub = root.apply(root.available_moves()[0])
forks = [m for m in hub.available_moves() if m.kind in ("fork", "extend")][:3]
assert len(forks) == 3

def build(order):
    state = hub
    for move in order:
        # Re-resolve by alias: the attach point keeps its id.
        (same,) = [
            m for m in state.available_moves()
            if m.alias == move.alias and m.node == move.node
        ]
        state = state.apply(same)
    while len(state.leaves()) > 1:
        merges = [m for m in state.available_moves() if m.kind == "merge"]
        state = state.apply(merges[0])
    return state

one, two = build(forks), build(list(reversed(forks)))
signatures = [one.signature, two.signature, topology_signature(one.plan),
              topology_signature(two.plan)]
assert len(one.signature[1]) == 2, one.signature[1]
ok = all(s == signatures[0] and hash(s) == hash(signatures[0]) for s in signatures)
sys.exit(0 if ok else 1)
"""


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_signature_is_order_free_under_hash_seeds(hash_seed):
    """One partial DAG reached by two move orders, and re-walked from its
    plan, has one signature — whatever order sets iterate in."""
    result = subprocess.run(
        [sys.executable, "-c", _TWO_ORDERS],
        env={
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "PYTHONPATH": str(ROOT / "src"),
        },
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


# -- the search itself is unchanged, and pays per move ------------------------


def _plan_cold_plans():
    """The 21 plans of the ledger's ``plan_cold`` workload."""
    queries = [
        (t.name, t.query_text, t.registry_factory())
        for t in scenario_templates("all")
    ]
    synthetic = [
        ("star4", star_workload(4)),
        ("star5", star_workload(5)),
        ("chain8", chain_workload(8)),
        ("mixed8", mixed_workload(8)),
    ]
    queries += [(n, w.query_text, w.registry) for n, w in synthetic]
    plans = [
        (f"{name}/{metric.__name__}", text, registry, metric)
        for name, text, registry in queries
        for metric in (ExecutionTimeMetric, SumCostMetric)
    ]
    for synth_seed in (0, 3, 4):
        w = star_workload(6, synth_seed)
        plans.append(
            (
                f"star6.{synth_seed}/ExecutionTimeMetric",
                w.query_text,
                w.registry,
                ExecutionTimeMetric,
            )
        )
    return plans


@pytest.mark.parametrize(
    "label,text,registry,metric",
    _plan_cold_plans(),
    ids=[plan[0] for plan in _plan_cold_plans()],
)
def test_plan_cold_search_is_pinned(label, text, registry, metric):
    """Same search, cheaper states: per-plan exploration accounting and the
    chosen plan equal the table recorded before the builder was made
    incremental (commit 640ed25)."""
    query = _compiled(text, registry)
    outcome = Optimizer(query, OptimizerConfig(metric=metric())).optimize()
    stats, best = outcome.stats, outcome.best
    signature = hashlib.sha256(
        json.dumps(
            plan_signature(query, metric=metric()), sort_keys=True, default=repr
        ).encode()
    ).hexdigest()
    assert {
        "expanded": stats.expanded,
        "pruned": stats.pruned,
        "enqueued": stats.enqueued,
        "deduped": stats.deduped,
        "dominated": stats.dominated,
        "cost": repr(best.cost),
        "fetches": best.fetch_vector(),
        "plan_signature": signature,
    } == PINNED[label]


def test_default_path_does_no_from_scratch_work_per_child(monkeypatch):
    """Optimizing star6 never re-walks a plan in phase 2: no
    ``topology_signature``, no ``annotate``, no plan copied, and a plan
    object only for finished topologies the engine looked into."""
    calls = {"topology_signature": 0, "annotate": 0, "copy": 0, "plans": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # The optimizer does not import it: only the builder could call it.
    monkeypatch.setattr(
        topology_module,
        "topology_signature",
        counting("topology_signature", topology_signature),
    )
    for module in (optimizer_module, annotate_module):
        monkeypatch.setattr(module, "annotate", counting("annotate", annotate))
    monkeypatch.setattr(QueryPlan, "copy", counting("copy", QueryPlan.copy))
    original_init = QueryPlan.__init__

    def counting_init(self, *args, **kwargs):
        calls["plans"] += 1
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(QueryPlan, "__init__", counting_init)

    w = star_workload(6)
    query = _compiled(w.query_text, w.registry)
    ANNOTATION_COUNTERS.reset()
    optimizer = Optimizer(query, OptimizerConfig(metric=ExecutionTimeMetric()))
    outcome = optimizer.optimize()
    stats = outcome.stats

    assert calls["topology_signature"] == 0
    assert calls["annotate"] == 0
    assert calls["copy"] == 0
    assert ANNOTATION_COUNTERS.full_annotations == 0
    # The old DFS walked builder.plan; no partial builder ever built one.
    # (Here the warm start's one plan is all there is: every finished
    # topology the search reached was pruned on arrival.)
    assert calls["plans"] == optimizer.topology_counters.plans_materialised == 1
    assert stats.plans_materialised <= stats.enqueued
    assert stats.plans_materialised < stats.children_priced
    # A move whose bound reaches the incumbent is never applied (656 of
    # the 657 prunes), so every child the search prices is kept past its
    # bound and built (leaves, signature): 133 of the 789 it priced before
    # moves were bounded, of which 148 were built.
    assert (stats.moves_bounded, stats.pruned) == (656, 657)
    assert (stats.children_priced, stats.children_built) == (133, 133)
    assert (
        ANNOTATION_COUNTERS.incremental_nodes
        <= 3 * optimizer.topology_counters.children_priced
    )


def _expansion_bodies(monkeypatch):
    """Count, per state object, how often an ``_expand_*`` body ran."""
    runs: dict[int, list] = {}
    for name in ("_expand_assign", "_expand_topology", "_expand_fetch"):
        body = getattr(Optimizer, name)

        def counting(self, state, *cutoff, body=body):
            runs.setdefault(id(state), [state, 0])[1] += 1
            return body(self, state, *cutoff)

        monkeypatch.setattr(Optimizer, name, counting)
    return runs


def test_the_search_takes_over_the_dives_expansions(monkeypatch):
    """Every state the greedy dive expanded is handed to the search with
    its children: no ``_expand`` body runs twice on one state object."""
    runs = _expansion_bodies(monkeypatch)
    w = star_workload(5)
    query = _compiled(w.query_text, w.registry)
    optimizer = Optimizer(query, OptimizerConfig(metric=ExecutionTimeMetric()))
    optimizer.greedy_candidate()
    dived = {key for key, (_, count) in runs.items() if count}
    assert dived
    outcome = optimizer.optimize()  # dives again, then searches
    assert outcome.best is not None
    twice = {key for key, (_, count) in runs.items() if count > 1}
    root = id(optimizer._root)
    assert root in dived
    assert not twice
    # The search popped the root and took the dive's children over.
    assert root not in optimizer._dive_expansions
