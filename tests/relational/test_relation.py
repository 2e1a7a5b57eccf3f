"""Tests for repro.relational.relation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RelationError
from repro.relational.relation import Relation
from repro.relational.schema import Schema


@pytest.fixture
def r():
    return Relation("R", ("a", "b"), [(1, 10), (1, 20), (2, 10)])


class TestConstruction:
    def test_duplicates_removed(self):
        r = Relation("R", ("a",), [(1,), (1,), (2,)])
        assert len(r) == 2

    def test_arity_mismatch_raises(self):
        with pytest.raises(RelationError):
            Relation("R", ("a", "b"), [(1,)])

    def test_accepts_schema_object(self):
        r = Relation("R", Schema(["a"]), [(1,)])
        assert r.schema.attributes == ("a",)

    def test_rows_accept_lists(self):
        r = Relation("R", ("a", "b"), [[1, 2]])
        assert (1, 2) in r

    def test_empty_relation(self):
        r = Relation("R", ("a",))
        assert len(r) == 0

    def test_nullary_relation_with_empty_tuple(self):
        r = Relation("R", (), [()])
        assert len(r) == 1


class TestContainerProtocol:
    def test_len(self, r):
        assert len(r) == 3

    def test_contains(self, r):
        assert (1, 10) in r
        assert (9, 9) not in r

    def test_iteration_yields_all_rows(self, r):
        assert set(r) == {(1, 10), (1, 20), (2, 10)}

    def test_sorted_rows_deterministic(self, r):
        assert r.sorted_rows() == [(1, 10), (1, 20), (2, 10)]

    def test_equality_ignores_name(self, r):
        other = Relation("S", ("a", "b"), [(1, 10), (1, 20), (2, 10)])
        assert r == other

    def test_equality_respects_schema_order(self, r):
        other = Relation("R", ("b", "a"), [(10, 1), (20, 1), (10, 2)])
        assert r != other

    def test_hashable(self, r):
        assert hash(r) == hash(r.with_name("S"))

    def test_with_name_shares_rows(self, r):
        assert r.with_name("S").rows is r.rows

    def test_to_dicts(self):
        r = Relation("R", ("a", "b"), [(1, 2)])
        assert r.to_dicts() == [{"a": 1, "b": 2}]


class TestAlgebraMethods:
    def test_project_removes_duplicates(self, r):
        assert set(r.project(["a"])) == {(1,), (2,)}

    def test_project_reorders(self, r):
        assert (10, 1) in r.project(["b", "a"])

    def test_select_predicate(self, r):
        kept = r.select(lambda t: t["a"] == 1)
        assert set(kept) == {(1, 10), (1, 20)}

    def test_distinct_values(self, r):
        assert r.distinct_values("a") == {1, 2}

    def test_natural_join_on_shared(self):
        r = Relation("R", ("a", "b"), [(1, 2), (2, 3)])
        s = Relation("S", ("b", "c"), [(2, 9), (2, 8), (7, 7)])
        out = r.natural_join(s)
        assert out.schema.attributes == ("a", "b", "c")
        assert set(out) == {(1, 2, 9), (1, 2, 8)}

    def test_natural_join_no_shared_is_product(self):
        r = Relation("R", ("a",), [(1,), (2,)])
        s = Relation("S", ("b",), [(9,)])
        assert len(r.natural_join(s)) == 2

    def test_natural_join_same_schema_is_intersection(self):
        r = Relation("R", ("a",), [(1,), (2,)])
        s = Relation("S", ("a",), [(2,), (3,)])
        assert set(r.natural_join(s)) == {(2,)}


@given(
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=25),
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=25),
)
def test_natural_join_matches_nested_loop(left_rows, right_rows):
    """Hash-based natural join equals the brute-force definition."""
    r = Relation("R", ("a", "b"), left_rows)
    s = Relation("S", ("b", "c"), right_rows)
    expected = {
        (a, b, c)
        for (a, b) in left_rows
        for (b2, c) in right_rows
        if b == b2
    }
    assert set(r.natural_join(s)) == expected
