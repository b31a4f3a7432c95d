"""Unit tests for connection patterns and the service registry."""

import pytest

from repro.errors import SchemaError
from repro.model.attributes import Attribute, DataType, Domain
from repro.model.connections import AttributePair, ConnectionPattern
from repro.model.registry import ServiceRegistry
from repro.model.service import ServiceInterface, ServiceMart


@pytest.fixture()
def marts():
    key = Domain("key", DataType.INTEGER, size=10)
    a = ServiceMart("A", (Attribute("X", key), Attribute("P")))
    b = ServiceMart("B", (Attribute("Y", key), Attribute("Q")))
    return a, b


class TestAttributePair:
    def test_parse(self):
        pair = AttributePair.parse("X", "Y", "<")
        assert str(pair) == "X < Y"

    def test_rejects_bad_comparator(self):
        with pytest.raises(SchemaError):
            AttributePair.parse("X", "Y", "!=")


class TestConnectionPattern:
    def test_requires_pairs(self, marts):
        a, b = marts
        with pytest.raises(SchemaError):
            ConnectionPattern("P", a, b, (), selectivity=0.5)

    def test_selectivity_bounds(self, marts):
        a, b = marts
        pair = AttributePair.parse("X", "Y")
        with pytest.raises(SchemaError):
            ConnectionPattern("P", a, b, (pair,), selectivity=0.0)
        with pytest.raises(SchemaError):
            ConnectionPattern("P", a, b, (pair,), selectivity=1.5)

    def test_type_compatibility_enforced(self, marts):
        a, b = marts
        with pytest.raises(SchemaError):
            ConnectionPattern(
                "P", a, b, (AttributePair.parse("X", "Q"),), selectivity=0.5
            )

    def test_connects_both_directions(self, marts):
        a, b = marts
        pattern = ConnectionPattern(
            "P", a, b, (AttributePair.parse("X", "Y"),), selectivity=0.5
        )
        assert pattern.connects("A", "B")
        assert pattern.connects("B", "A")
        assert not pattern.connects("A", "C")

    def test_oriented_pairs_flip_comparators(self, marts):
        a, b = marts
        pattern = ConnectionPattern(
            "P", a, b, (AttributePair.parse("X", "Y", "<"),), selectivity=0.5
        )
        forward = pattern.oriented_pairs("A")
        assert str(forward[0][0]) == "X" and forward[0][1] == "<"
        backward = pattern.oriented_pairs("B")
        assert str(backward[0][0]) == "Y" and backward[0][1] == ">"

    def test_oriented_pairs_unknown_mart(self, marts):
        a, b = marts
        pattern = ConnectionPattern(
            "P", a, b, (AttributePair.parse("X", "Y"),), selectivity=0.5
        )
        with pytest.raises(SchemaError):
            pattern.oriented_pairs("C")


class TestServiceRegistry:
    def test_register_and_lookup(self, marts):
        a, b = marts
        registry = ServiceRegistry()
        iface = ServiceInterface(name="A1", mart=a)
        registry.register_interface(iface)
        assert registry.interface("A1") is iface
        assert registry.mart("A") is a
        assert registry.interfaces_of("A") == (iface,)

    def test_duplicate_interface_rejected(self, marts):
        a, _ = marts
        registry = ServiceRegistry()
        registry.register_interface(ServiceInterface(name="A1", mart=a))
        with pytest.raises(SchemaError):
            registry.register_interface(ServiceInterface(name="A1", mart=a))

    def test_interface_name_cannot_shadow_mart(self, marts):
        a, _ = marts
        registry = ServiceRegistry()
        registry.register_mart(a)
        with pytest.raises(SchemaError):
            registry.register_interface(ServiceInterface(name="A", mart=a))

    def test_resolve_atom_interface_vs_mart(self, marts):
        a, _ = marts
        registry = ServiceRegistry()
        iface = ServiceInterface(name="A1", mart=a)
        registry.register_interface(iface)
        mart, found = registry.resolve_atom("A1")
        assert found is iface
        mart, found = registry.resolve_atom("A")
        assert found is None and mart is a
        with pytest.raises(SchemaError):
            registry.resolve_atom("ZZZ")

    def test_patterns_between(self, marts):
        a, b = marts
        registry = ServiceRegistry()
        pattern = ConnectionPattern(
            "P", a, b, (AttributePair.parse("X", "Y"),), selectivity=0.5
        )
        registry.register_pattern(pattern)
        assert registry.pattern("P") is pattern
        assert pattern.connects("B", "A")
        with pytest.raises(SchemaError):
            registry.pattern("Q")

    def test_duplicate_pattern_rejected(self, marts):
        a, b = marts
        registry = ServiceRegistry()
        pattern = ConnectionPattern(
            "P", a, b, (AttributePair.parse("X", "Y"),), selectivity=0.5
        )
        registry.register_pattern(pattern)
        with pytest.raises(SchemaError):
            registry.register_pattern(pattern)

    def test_describe_lists_everything(self, marts):
        a, b = marts
        registry = ServiceRegistry()
        registry.register_interface(ServiceInterface(name="A1", mart=a))
        registry.register_pattern(
            ConnectionPattern(
                "P", a, b, (AttributePair.parse("X", "Y"),), selectivity=0.5
            )
        )
        text = registry.describe()
        assert "A1" in text and "pattern P" in text

    def test_example_registries_are_well_formed(
        self, movie_registry, conference_registry
    ):
        assert set(movie_registry.interface_names) == {
            "Movie1",
            "Theatre1",
            "Restaurant1",
        }
        assert movie_registry.pattern("Shows").name == "Shows"
        assert movie_registry.pattern("DinnerPlace").name == "DinnerPlace"
        assert "Flight1" in conference_registry.interface_names
        assert conference_registry.pattern("Stay").name == "Stay"
