"""Unit tests for reachability/feasibility analysis under access limits."""

import pytest

from repro.errors import UnfeasibleQueryError
from repro.model.attributes import Attribute, DataType, Domain
from repro.model.registry import ServiceRegistry
from repro.model.service import AccessPattern, ServiceInterface, ServiceMart
from repro.query.compile import compile_query
from repro.query.feasibility import (
    ProviderKind,
    check_feasibility,
    enumerate_binding_choices,
    input_providers,
    require_feasible,
)
from repro.query.parser import parse_query


def two_service_registry(b_needs_input=True):
    """A -> B schema: B's input can only come from A's output."""
    key = Domain("key", DataType.INTEGER, size=10)
    mart_a = ServiceMart("A", (Attribute("Out", key), Attribute("Tag")))
    mart_b = ServiceMart("B", (Attribute("In", key), Attribute("Val")))
    registry = ServiceRegistry()
    registry.register_interface(ServiceInterface(name="A1", mart=mart_a))
    registry.register_interface(
        ServiceInterface(
            name="B1",
            mart=mart_b,
            access_pattern=AccessPattern.from_spec(
                {"In": "I"} if b_needs_input else {}
            ),
        )
    )
    return registry


class TestReachability:
    def test_pipe_dependency_detected(self):
        registry = two_service_registry()
        cq = compile_query(
            parse_query("SELECT A1 AS A, B1 AS B WHERE A.Out = B.In"), registry
        )
        result = check_feasibility(cq)
        assert result.feasible
        assert result.order == ("A", "B")

    def test_unbound_input_makes_query_unfeasible(self):
        registry = two_service_registry()
        cq = compile_query(parse_query("SELECT B1 AS B"), registry)
        result = check_feasibility(cq)
        assert not result.feasible
        assert result.unreachable == ("B",)
        with pytest.raises(UnfeasibleQueryError) as err:
            require_feasible(cq)
        assert err.value.unreachable == ("B",)

    def test_constant_binding_makes_feasible(self):
        registry = two_service_registry()
        cq = compile_query(parse_query("SELECT B1 AS B WHERE B.In = 3"), registry)
        assert check_feasibility(cq).feasible

    def test_input_variable_binding_makes_feasible(self):
        registry = two_service_registry()
        cq = compile_query(
            parse_query("SELECT B1 AS B WHERE B.In = INPUT1"), registry
        )
        assert check_feasibility(cq).feasible

    def test_range_constraint_binds_input_path(self):
        # The chapter's own example covers Openings.Date with '>' only.
        registry = two_service_registry()
        cq = compile_query(parse_query("SELECT B1 AS B WHERE B.In > 3"), registry)
        assert check_feasibility(cq).feasible

    def test_cyclic_bindings_are_unfeasible(self):
        # A needs B's output and B needs A's output: no acyclic choice.
        key = Domain("key", DataType.INTEGER, size=10)
        mart_a = ServiceMart("A", (Attribute("AIn", key), Attribute("AOut", key)))
        mart_b = ServiceMart("B", (Attribute("BIn", key), Attribute("BOut", key)))
        registry = ServiceRegistry()
        registry.register_interface(
            ServiceInterface(
                name="A1", mart=mart_a, access_pattern=AccessPattern.from_spec({"AIn": "I"})
            )
        )
        registry.register_interface(
            ServiceInterface(
                name="B1", mart=mart_b, access_pattern=AccessPattern.from_spec({"BIn": "I"})
            )
        )
        cq = compile_query(
            parse_query(
                "SELECT A1 AS A, B1 AS B WHERE A.AIn = B.BOut AND B.BIn = A.AOut"
            ),
            registry,
        )
        result = check_feasibility(cq)
        assert not result.feasible
        assert set(result.unreachable) == {"A", "B"}
        assert list(enumerate_binding_choices(cq)) == []


class TestProviders:
    def test_providers_enumerated_per_input_path(self, movie_query):
        providers = input_providers(movie_query)
        # Restaurant has 4 input paths, each with exactly one provider.
        r_keys = [k for k in providers if k[0] == "R"]
        assert len(r_keys) == 4
        kinds = {
            k[1]: {p.kind for p in providers[k]} for k in r_keys
        }
        assert kinds["Category.Name"] == {ProviderKind.CONSTANT}
        assert kinds["RCity"] == {ProviderKind.JOIN}

    def test_binding_choice_dependencies(self, movie_query):
        choice = next(enumerate_binding_choices(movie_query))
        deps = choice.dependencies_over(movie_query.aliases)
        assert deps["R"] == frozenset({"T"})
        assert deps["M"] == frozenset()
        assert deps["T"] == frozenset()

    def test_piped_attributes(self, movie_query):
        choice = next(enumerate_binding_choices(movie_query))
        def piped(consumer, producer):
            return {
                str(p.path)
                for p in choice.providers
                if p.alias == consumer
                and p.kind is ProviderKind.JOIN
                and p.source_alias == producer
            }

        assert piped("R", "T") == {"RAddress", "RCity", "RCountry"}
        assert piped("T", "R") == set()

    def test_multiple_choices_in_conference_query(self, conference_query):
        # H's city can be piped from C (Venue) or F (Stay), and F's city
        # from C (FliesTo) or H (Stay): three acyclic combinations (the
        # fourth, F<->H mutual feeding, is cyclic and excluded).
        choices = list(enumerate_binding_choices(conference_query))
        assert len(choices) == 3
        dep_maps = {
            (choice.dependencies_over(("F", "H"))["F"],
             choice.dependencies_over(("F", "H"))["H"])
            for choice in choices
        }
        assert dep_maps == {
            (frozenset({"C"}), frozenset({"C"})),
            (frozenset({"C"}), frozenset({"F"})),
            (frozenset({"H"}), frozenset({"C"})),
        }

    def test_choice_limit(self, conference_query):
        assert len(list(enumerate_binding_choices(conference_query, limit=1))) == 1

    @pytest.mark.parametrize("limit", [0, 2])
    def test_choice_limit_is_exact(self, conference_query, limit):
        everything = list(enumerate_binding_choices(conference_query))
        assert len(everything) > 2
        capped = list(enumerate_binding_choices(conference_query, limit=limit))
        assert capped == everything[:limit]

    def test_consumed_joins_marked(self, movie_query):
        choice = next(enumerate_binding_choices(movie_query))
        consumed = {p.join for p in choice.providers if p.join is not None}
        assert all(j.pattern == "DinnerPlace" for j in consumed)
        assert len(consumed) == 3
