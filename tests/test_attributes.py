"""Unit tests for the attribute/domain model."""

import pytest

from repro.errors import SchemaError
from repro.model.attributes import (
    Attribute,
    AttributePath,
    DataType,
    Domain,
    RepeatingGroup,
    parse_path,
)


class TestDataType:
    def test_same_type_compatible(self):
        assert DataType.STRING.is_compatible(DataType.STRING)

    def test_numeric_cross_compatibility(self):
        assert DataType.INTEGER.is_compatible(DataType.FLOAT)
        assert DataType.FLOAT.is_compatible(DataType.INTEGER)

    def test_any_compatible_with_everything(self):
        for dtype in DataType:
            assert DataType.ANY.is_compatible(dtype)
            assert dtype.is_compatible(DataType.ANY)

    def test_string_incompatible_with_integer(self):
        assert not DataType.STRING.is_compatible(DataType.INTEGER)

    def test_date_incompatible_with_boolean(self):
        assert not DataType.DATE.is_compatible(DataType.BOOLEAN)


class TestDomain:
    def test_default_domain_is_string(self):
        assert Domain("d").dtype is DataType.STRING

    def test_rejects_non_positive_size(self):
        with pytest.raises(SchemaError):
            Domain("d", DataType.STRING, size=0)
        with pytest.raises(SchemaError):
            Domain("d", DataType.STRING, size=-3)

    def test_compatibility_follows_dtype(self):
        a = Domain("a", DataType.INTEGER, size=5)
        b = Domain("b", DataType.FLOAT)
        c = Domain("c", DataType.STRING)
        assert a.is_compatible(b)
        assert not a.is_compatible(c)


class TestAttribute:
    def test_rejects_dotted_name(self):
        with pytest.raises(SchemaError):
            Attribute("A.B")

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            Attribute("")

    def test_dtype_shortcut(self):
        attr = Attribute("X", Domain("d", DataType.DATE))
        assert attr.dtype is DataType.DATE


class TestRepeatingGroup:
    def test_requires_sub_attributes(self):
        with pytest.raises(SchemaError):
            RepeatingGroup("G", ())

    def test_rejects_duplicate_sub_attributes(self):
        with pytest.raises(SchemaError):
            RepeatingGroup("G", (Attribute("A"), Attribute("A")))

    def test_sub_attribute_lookup(self):
        group = RepeatingGroup("G", (Attribute("A"), Attribute("B")))
        assert group.sub_attribute("B").name == "B"
        with pytest.raises(SchemaError):
            group.sub_attribute("Z")


class TestAttributePath:
    def test_flat_path(self):
        path = AttributePath("Title")
        assert not path.is_nested
        assert str(path) == "Title"
        assert path.group is None

    def test_nested_path(self):
        path = AttributePath("Openings", "Date")
        assert path.is_nested
        assert str(path) == "Openings.Date"
        assert path.group == "Openings"
        assert path.name == "Date"

    def test_paths_are_ordered_and_hashable(self):
        paths = {AttributePath("A"), AttributePath("A"), AttributePath("G", "A")}
        assert len(paths) == 2
        assert sorted(paths)  # comparable

    def test_parse_flat(self):
        assert parse_path("Title") == AttributePath("Title")

    def test_parse_nested(self):
        assert parse_path("Openings.Date") == AttributePath("Openings", "Date")

    def test_parse_rejects_deep_nesting(self):
        with pytest.raises(SchemaError):
            parse_path("A.B.C")

    def test_parse_rejects_empty_segments(self):
        with pytest.raises(SchemaError):
            parse_path(".A")
        with pytest.raises(SchemaError):
            parse_path("A.")
