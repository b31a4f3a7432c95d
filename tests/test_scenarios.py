"""Scenario packs: heterogeneous schemas served end-to-end.

Each pack must compile, optimize, and execute standalone, and — the
serving-layer claim — produce deterministic per-request digests that do
not depend on the shard count.
"""

from __future__ import annotations

import pytest

from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.engine.executor import execute_plan
from repro.errors import ExecutionError, SchemaError
from repro.query.compile import compile_query
from repro.query.parser import parse_query
from repro.serve.workload import (
    default_templates,
    scenario_names,
    scenario_templates,
)
from repro.services.scenarios import SCENARIOS, scenario_pack
from tests.conftest import serve_seeded


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_pack_runs_end_to_end(name):
    pack = scenario_pack(name)
    registry = pack.registry_factory()
    compiled = compile_query(parse_query(pack.query_text), registry)
    best = Optimizer(compiled, OptimizerConfig()).optimize().best
    from repro.services.simulated import ServicePool

    pool = ServicePool(registry, global_seed=2009)
    result = execute_plan(
        best.plan, compiled, pool, dict(pack.default_inputs), best.fetch_vector()
    )
    assert result.tuples, f"pack {name} produced no combinations"
    assert result.total_calls > 0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_pack_workload_parameters_are_servable(name):
    """Every (template, parameter combo) in the pack's universe executes."""
    (template,) = scenario_templates(name)
    registry = template.registry_factory()
    compiled = compile_query(parse_query(template.query_text), registry)
    best = Optimizer(compiled, OptimizerConfig()).optimize().best
    from repro.services.simulated import ServicePool

    import itertools

    names = sorted(template.parameter_space)
    for combo in itertools.product(
        *(template.parameter_space[key] for key in names)
    ):
        inputs = dict(zip(names, combo))
        pool = ServicePool(registry, global_seed=2009)
        result = execute_plan(
            best.plan, compiled, pool, inputs, best.fetch_vector()
        )
        assert result.tuples, f"{name} combo {inputs} produced nothing"


def test_scenario_names_and_selection():
    assert scenario_names() == ("default", "all", "scholar", "shopping", "travel")
    assert scenario_templates("default") == default_templates()
    assert len(scenario_templates("all")) == len(default_templates()) + len(SCENARIOS)
    (travel,) = scenario_templates("travel")
    assert travel.schema == "travel"
    with pytest.raises(SchemaError):
        scenario_templates("nope")
    with pytest.raises(ExecutionError):
        scenario_templates("travel", param_scale=0)
    with pytest.raises(SchemaError):
        scenario_pack("nope")


@pytest.mark.parametrize("scenario", ["travel", "shopping", "scholar", "all"])
def test_cross_shard_digest_equality(scenario):
    """The acceptance gate: scenario workloads serve digest-identically
    on 1 and 2 shards."""
    common = dict(
        rate=4.0,
        num_requests=30,
        seed=2009,
        templates=scenario_templates(scenario),
    )
    one = serve_seeded(num_shards=1, **common).digests()
    two = serve_seeded(num_shards=2, **common).digests()
    assert one == two
    assert len(one) > 0


@pytest.mark.parametrize("scenario", ["travel", "shopping", "scholar"])
def test_scenario_serving_is_deterministic(scenario):
    common = dict(
        rate=3.0,
        num_requests=20,
        seed=2009,
        templates=scenario_templates(scenario),
    )
    first = serve_seeded(**common).digests()
    second = serve_seeded(**common).digests()
    assert first == second and len(first) == 20
