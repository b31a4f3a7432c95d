"""Unit tests for marts, interfaces, adornments, and classification."""

import pytest

from repro.errors import SchemaError
from repro.model.attributes import Attribute, DataType, Domain, RepeatingGroup
from repro.model.scoring import ConstantScoring, LinearScoring
from repro.model.service import (
    AccessPattern,
    Adornment,
    ServiceInterface,
    ServiceKind,
    ServiceMart,
    ServiceStats,
)


@pytest.fixture()
def mart():
    return ServiceMart(
        "M",
        (
            Attribute("A", Domain("a", DataType.INTEGER, size=5)),
            Attribute("B"),
            RepeatingGroup("G", (Attribute("X"), Attribute("Y"))),
        ),
    )


class TestServiceMart:
    def test_rejects_duplicate_attribute_names(self):
        with pytest.raises(SchemaError):
            ServiceMart("M", (Attribute("A"), Attribute("A")))

    def test_resolve_flat(self, mart):
        assert mart.resolve("A").name == "A"

    def test_resolve_nested(self, mart):
        assert mart.resolve("G.X").name == "X"

    def test_resolve_group_without_sub_attribute_fails(self, mart):
        with pytest.raises(SchemaError):
            mart.resolve("G")

    def test_resolve_sub_of_atomic_fails(self, mart):
        with pytest.raises(SchemaError):
            mart.resolve("A.X")

    def test_paths_expand_groups(self, mart):
        assert [str(p) for p in mart.paths()] == ["A", "B", "G.X", "G.Y"]


class TestAccessPattern:
    def test_default_adornment_is_output(self):
        pattern = AccessPattern({"A": Adornment.INPUT})
        assert pattern.adornment_of("B") is Adornment.OUTPUT

    def test_from_spec(self):
        pattern = AccessPattern.from_spec({"A": "I", "B": "R"})
        assert pattern.adornment_of("A") is Adornment.INPUT
        assert pattern.adornment_of("B") is Adornment.RANKED

    def test_input_and_ranked_paths(self):
        pattern = AccessPattern.from_spec({"A": "I", "C": "I", "B": "R"})
        assert pattern.input_paths() == ("A", "C")
        assert pattern.adornment_of("B") is Adornment.RANKED

    def test_ranked_is_output(self):
        assert Adornment.RANKED.is_output
        assert Adornment.OUTPUT.is_output
        assert not Adornment.INPUT.is_output


class TestServiceInterface:
    def test_rejects_adornment_on_unknown_path(self, mart):
        with pytest.raises(SchemaError):
            ServiceInterface(
                name="S",
                mart=mart,
                access_pattern=AccessPattern.from_spec({"ZZZ": "I"}),
            )

    def test_search_service_gets_default_chunk(self, mart):
        iface = ServiceInterface(
            name="S",
            mart=mart,
            kind=ServiceKind.SEARCH,
            scoring=LinearScoring(),
        )
        assert iface.is_chunked
        assert iface.stats.chunk_size == 10

    def test_search_service_needs_decaying_scoring(self, mart):
        with pytest.raises(SchemaError):
            ServiceInterface(
                name="S",
                mart=mart,
                kind=ServiceKind.SEARCH,
                scoring=ConstantScoring(),
            )

    def test_unchunked_chunk_size_approximates_cardinality(self, mart):
        iface = ServiceInterface(
            name="S", mart=mart, stats=ServiceStats(avg_cardinality=17.4)
        )
        assert iface.chunk_size == 17

    def test_output_paths_include_ranked(self, mart):
        iface = ServiceInterface(
            name="S",
            mart=mart,
            access_pattern=AccessPattern.from_spec({"A": "I", "B": "R"}),
        )
        assert iface.adornment_of("B").is_output
        assert not iface.adornment_of("A").is_output
        assert iface.is_ranked

    def test_describe_uses_adornment_notation(self, mart):
        iface = ServiceInterface(
            name="S",
            mart=mart,
            access_pattern=AccessPattern.from_spec({"A": "I"}),
        )
        assert "A^I" in iface.describe()
        assert iface.describe().startswith("S(")


class TestServiceStats:
    def test_rejects_negative_values(self):
        with pytest.raises(SchemaError):
            ServiceStats(avg_cardinality=-1)
        with pytest.raises(SchemaError):
            ServiceStats(chunk_size=0)
        with pytest.raises(SchemaError):
            ServiceStats(latency=-0.5)
