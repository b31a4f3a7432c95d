"""Simulated Web-service substrate and the chapter's example schemas."""

from repro.services.datagen import TupleGenerator, derive_seed, domain_value
from repro.services.marts import (
    CONFERENCE_INPUTS,
    CONFERENCE_QUERY,
    RUNNING_EXAMPLE_INPUTS,
    RUNNING_EXAMPLE_QUERY,
    conference_trip_registry,
    movie_night_registry,
)
from repro.services.scenarios import (
    SCENARIOS,
    ScenarioPack,
    scenario_pack,
    scholar_registry,
    shopping_registry,
    travel_registry,
)
from repro.services.simulated import (
    NO_FAULTS,
    FaultModel,
    FaultProfile,
    LatencyModel,
    ServicePool,
    SimulatedInvocation,
    SimulatedService,
    SimulatedWorld,
    WorldStats,
)

__all__ = [
    "TupleGenerator",
    "derive_seed",
    "domain_value",
    "CONFERENCE_INPUTS",
    "CONFERENCE_QUERY",
    "RUNNING_EXAMPLE_INPUTS",
    "RUNNING_EXAMPLE_QUERY",
    "conference_trip_registry",
    "movie_night_registry",
    "LatencyModel",
    "FaultProfile",
    "FaultModel",
    "NO_FAULTS",
    "ServicePool",
    "SimulatedInvocation",
    "SimulatedService",
    "SimulatedWorld",
    "WorldStats",
    "SCENARIOS",
    "ScenarioPack",
    "scenario_pack",
    "scholar_registry",
    "shopping_registry",
    "travel_registry",
]
