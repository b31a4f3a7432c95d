"""A checkpoint names its plan, and phase 3 prices each fetch vector once.

Three equivalences hold the two changes to what they replaced:

* the plan rebuilt from a checkpoint's ``plan`` member — the search's
  trail, replayed without a search — is the optimizer's plan: same
  rendering, cost, fetch vector and topology, on every built-in template
  and synthetic shape under every metric;
* the phase-3 memo prices a vector as ``annotate`` + ``metric.cost`` from
  scratch do, bit for bit;
* each ``(plan key, vector)`` is priced once per search, and a resumed
  server searches only for what its crashed half never planned.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.optimizer as optimizer_module
from repro.cli import main
from repro.core.annotate import annotate
from repro.core.cost import DEFAULT_METRICS
from repro.core.heuristics import fetch_cap
from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.core.topology import Move, topology_signature
from repro.durability.checkpoint import (
    _decode_move,
    _encode_move,
    _plan_member,
    _rebuild,
)
from repro.durability.serve import serve_workload_durable
from repro.errors import CheckpointError
from repro.joins.spec import ALL_METHODS, JoinMethodSpec
from repro.query.compile import compile_query
from repro.query.parser import parse_query
from repro.serve import WorkloadConfig, default_templates, scenario_templates
from repro.serve.bench import combined_digest
from repro.serve.workload import generate_workload
from repro.services.marts import movie_night_registry
from repro.services.synth import chain_workload, mixed_workload, star_workload

#: A query over marts, not interfaces: phase 1 chooses between two
#: interfaces per alias, so the trail names them.
MART_QUERY = (
    "SELECT Movie AS M, Theatre AS T WHERE Shows(M, T) "
    "AND M.Genres.Genre = INPUT1 AND M.Openings.Country = INPUT2 "
    "AND M.Openings.Date > INPUT3 AND T.UAddress = INPUT4 "
    "AND T.UCity = INPUT5 AND T.UCountry = INPUT2 "
    "RANK BY 0.5*M, 0.5*T LIMIT 10"
)


def _queries():
    found = [
        (template.name, template.query_text, template.registry_factory())
        for template in scenario_templates("all")
    ]
    found.append(("mart", MART_QUERY, movie_night_registry(with_alternates=True)))
    for name, workload in (
        *((f"star{n}", star_workload(n)) for n in (3, 4, 5)),
        ("chain5", chain_workload(5)),
        ("mixed6", mixed_workload(6)),
    ):
        found.append((name, workload.query_text, workload.registry))
    return [
        (name, compile_query(parse_query(text), registry))
        for name, text, registry in found
    ]


QUERIES = _queries()


@pytest.mark.parametrize("metric", sorted(DEFAULT_METRICS))
def test_the_rebuilt_plan_is_the_optimizers(metric):
    for name, query in QUERIES:
        config = OptimizerConfig(
            metric=DEFAULT_METRICS[metric], auto_join_methods=True
        )
        best = Optimizer(query, config).optimize().best
        # What a checkpoint file holds, read back.
        member = json.loads(json.dumps(_plan_member(best)))
        rebuilt = _rebuild(member, query, DEFAULT_METRICS[metric])
        assert rebuilt.render() == best.render(), name
        assert rebuilt.cost == best.cost and repr(rebuilt.cost) == repr(best.cost)
        assert list(rebuilt.fetches.items()) == list(best.fetches.items())
        assert topology_signature(rebuilt.plan) == topology_signature(best.plan)
        assert rebuilt.estimated_results == best.estimated_results
        assert rebuilt.satisfies_k == best.satisfies_k
        assert dict(rebuilt.assignment) == dict(best.assignment)
        assert rebuilt.trail == best.trail
        if name == "mart":
            assert member["interfaces"] == [["M", "Movie1"], ["T", "Theatre1"]]


@pytest.mark.parametrize(
    "method",
    ALL_METHODS + (JoinMethodSpec(ratio=Fraction(3, 5), step_chunks=3),),
    ids=str,
)
def test_every_join_method_survives_the_round_trip(method):
    move = Move("merge", stream=0, other=2, method=method)
    assert _decode_move(*json.loads(json.dumps(_encode_move(move)))) == move


# -- the phase-3 memo ------------------------------------------------------------


@pytest.fixture(scope="module")
def searches(movie_query):
    """One finished search of Fig. 10's query per metric."""
    found = {}
    for name, metric in DEFAULT_METRICS.items():
        optimizer = Optimizer(movie_query, OptimizerConfig(metric=metric))
        optimizer.optimize()
        found[name] = optimizer
    return found


def _from_scratch(optimizer, plan_key, fetches):
    plan = optimizer._finished[plan_key].plan
    annotations = annotate(plan, optimizer.query, fetches=dict(fetches))
    return (
        annotations.estimated_results(plan),
        optimizer.config.metric.cost(plan, annotations),
    )


def test_every_price_of_a_search_is_the_from_scratch_price(searches):
    for optimizer in searches.values():
        assert optimizer._priced
        for (plan_key, vector), (_, results, cost) in optimizer._priced.items():
            expected = _from_scratch(optimizer, plan_key, vector)
            assert (results, cost) == expected
            assert repr((results, cost)) == repr(expected)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_random_vector_is_priced_as_from_scratch(searches, data):
    optimizer = searches[data.draw(st.sampled_from(sorted(searches)))]
    plan_key = data.draw(st.sampled_from(sorted({key for key, _ in optimizer._priced})))
    topology = optimizer._finished[plan_key]
    root = tuple(sorted(Optimizer._initial_fetches(topology)))
    caps = {
        node.alias: fetch_cap(node.interface)
        for node in topology.plan.service_nodes()
        if node.alias in dict(root)
    }
    # A path of one or two steps from the topology's own vector, each
    # priced from the one before it (annotate_delta over its cone).
    parent = root
    for _ in range(data.draw(st.integers(1, 2))):
        vector = tuple(
            (alias, data.draw(st.integers(1, caps[alias]))) for alias, _ in root
        )
        _, results, cost = optimizer._price(plan_key, vector, parent)
        expected = _from_scratch(optimizer, plan_key, vector)
        assert (results, cost) == expected
        assert repr((results, cost)) == repr(expected)
        parent = vector


def test_each_vector_is_priced_once_per_search(movie_query, monkeypatch):
    priced = []
    delta = optimizer_module.annotate_delta

    def counting(plan, query, base, base_fetches, fetches, **kwargs):
        priced.append((id(plan), tuple(sorted(fetches.items()))))
        return delta(plan, query, base, base_fetches, fetches, **kwargs)

    monkeypatch.setattr(optimizer_module, "annotate_delta", counting)
    for metric in DEFAULT_METRICS.values():
        priced.clear()
        optimizer = Optimizer(movie_query, OptimizerConfig(metric=metric))
        optimizer.optimize()
        assert priced and len(priced) == len(set(priced))
        # Every other entry is a topology's own all-ones vector.
        plan_keys = {plan_key for plan_key, _ in optimizer._priced}
        assert len(optimizer._priced) - len(priced) == len(plan_keys)


# -- searches a resume does not make -----------------------------------------------


def _counting_searches(monkeypatch) -> list:
    searches = []
    optimize = Optimizer.optimize
    monkeypatch.setattr(
        Optimizer, "optimize", lambda self: searches.append(self) or optimize(self)
    )
    return searches


class _Crash(Exception):
    pass


def test_a_resumed_durable_stream_searches_only_in_its_crash_half(
    tmp_path, monkeypatch
):
    """The ledger's ``serve_durable`` stream: a checkpoint every 5
    outcomes, a crash at the half-way checkpoint, a resume."""
    templates = default_templates()
    workload = generate_workload(
        templates,
        WorkloadConfig(
            num_requests=40, rate=2.0, skew=1.3, seed=2009, followup_fraction=0.25
        ),
    )
    options = dict(
        rate=2.0, num_requests=40, seed=2009, checkpoint_dir=tmp_path,
        checkpoint_every=5, templates=templates, workload=workload,
    )
    _, whole, _ = serve_workload_durable(**{**options, "checkpoint_dir": tmp_path / "w"})
    crash_after = math.ceil(40 / (2 * 5))

    def crash(checkpointer):
        if checkpointer.written >= crash_after:
            raise _Crash

    searches = _counting_searches(monkeypatch)
    with pytest.raises(_Crash):
        serve_workload_durable(**options, on_checkpoint=crash)
    assert len(searches) == len(templates)
    searches.clear()
    _, digests, info = serve_workload_durable(**options, resume=True)
    assert info["resumed"] and info["restored_sessions"] > 0
    assert searches == []
    assert combined_digest(digests) == combined_digest(whole)


def test_repro_resume_searches_nothing(tmp_path, monkeypatch):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["checkpoint", "--steps", "2", "--dir", str(tmp_path)]) == 0
    searches = _counting_searches(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["resume", "--dir", str(tmp_path)]) == 0
    assert "mid-plan" in out.getvalue()
    assert searches == []


def test_a_plan_from_no_search_has_no_trail_to_checkpoint(movie_query):
    best = Optimizer(movie_query, OptimizerConfig()).optimize().best
    with pytest.raises(CheckpointError, match="no trail"):
        _plan_member(replace(best, trail=None))
