"""Tests for repro.relational.schema."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational.schema import Schema, parse_value, sort_key, tuple_sort_key


class TestSchemaConstruction:
    def test_attributes_preserved_in_order(self):
        s = Schema(["b", "a", "c"])
        assert s.attributes == ("b", "a", "c")

    def test_arity(self):
        assert Schema(["x", "y"]).arity == 2

    def test_empty_schema_allowed(self):
        assert Schema(()).arity == 0

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["a", "a"])

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["a", ""])

    def test_non_string_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["a", 3])

    def test_accepts_generator(self):
        s = Schema(c for c in "abc")
        assert s.attributes == ("a", "b", "c")


class TestSchemaAccess:
    def test_index(self):
        s = Schema(["a", "b", "c"])
        assert s.index("b") == 1

    def test_index_missing_raises(self):
        with pytest.raises(SchemaError):
            Schema(["a"]).index("z")

    def test_contains(self):
        s = Schema(["a", "b"])
        assert "a" in s
        assert "z" not in s

    def test_iteration_order(self):
        assert list(Schema(["c", "a"])) == ["c", "a"]

    def test_getitem(self):
        assert Schema(["a", "b"])[1] == "b"

    def test_len(self):
        assert len(Schema(["a", "b", "c"])) == 3

    def test_positions(self):
        s = Schema(["a", "b", "c"])
        assert s.positions(["c", "a"]) == (2, 0)

    def test_equality_and_hash(self):
        assert Schema(["a", "b"]) == Schema(["a", "b"])
        assert Schema(["a", "b"]) != Schema(["b", "a"])
        assert hash(Schema(["a"])) == hash(Schema(["a"]))


class TestSchemaDerivation:
    def test_project(self):
        s = Schema(["a", "b", "c"]).project(["c", "b"])
        assert s.attributes == ("c", "b")

    def test_project_unknown_raises(self):
        with pytest.raises(SchemaError):
            Schema(["a"]).project(["b"])

    def test_common_in_left_order(self):
        left = Schema(["c", "a", "b"])
        right = Schema(["b", "c"])
        assert left.common(right) == ("c", "b")

    def test_union_keeps_left_then_new(self):
        s = Schema(["a", "b"]).union(Schema(["b", "c"]))
        assert s.attributes == ("a", "b", "c")

    def test_restrict_order(self):
        s = Schema(["b", "d"])
        assert s.restrict_order(["a", "b", "c", "d"]) == ("b", "d")

    def test_restrict_order_incomplete_raises(self):
        with pytest.raises(SchemaError):
            Schema(["b", "z"]).restrict_order(["a", "b", "c"])


class TestSortKey:
    def test_ints_sort_numerically(self):
        assert sorted([3, 1, 2], key=sort_key) == [1, 2, 3]

    def test_mixed_ints_and_strings_do_not_raise(self):
        values = ["b", 2, "a", 1]
        assert sorted(values, key=sort_key) == [1, 2, "a", "b"]

    def test_bools_sort_with_ints(self):
        assert sorted([2, True, 0], key=sort_key) == [0, True, 2]

    def test_floats_sort_with_ints(self):
        assert sorted([1.5, 1, 2], key=sort_key) == [1, 1.5, 2]

    def test_tuple_sort_key_lexicographic(self):
        rows = [(1, "b"), (1, "a"), (0, "z")]
        assert sorted(rows, key=tuple_sort_key) == [(0, "z"), (1, "a"), (1, "b")]

    def test_unknown_type_sorts_last(self):
        class Blob:
            def __repr__(self):
                return "blob"

        assert sorted([Blob(), 1, "x"], key=sort_key)[-1].__class__ is Blob

    @given(st.lists(st.one_of(st.integers(), st.text(max_size=5))))
    def test_sort_key_total_order_is_consistent(self, values):
        once = sorted(values, key=sort_key)
        assert sorted(once, key=sort_key) == once


class TestParseValue:
    def test_int(self):
        assert parse_value("42") == 42

    def test_negative_int(self):
        assert parse_value("-7") == -7

    def test_float(self):
        assert parse_value("2.5") == 2.5

    def test_string(self):
        assert parse_value("978-3-16-1") == "978-3-16-1"

    def test_empty_string(self):
        assert parse_value("") == ""
