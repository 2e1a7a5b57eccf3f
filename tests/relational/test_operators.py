"""Tests for repro.relational.operators."""

import pytest

from repro.relational.operators import naive_multiway_join
from repro.relational.relation import Relation


@pytest.fixture
def r():
    return Relation("R", ("a", "b"), [(1, 2), (3, 4)])


class TestNaiveMultiwayJoin:
    def test_zero_relations_gives_identity(self):
        out = naive_multiway_join([])
        assert len(out) == 1
        assert out.schema.arity == 0

    def test_single_relation_passthrough(self, r):
        assert set(naive_multiway_join([r])) == set(r)

    def test_triangle_join(self):
        r = Relation("R", ("a", "b"), [(1, 2), (2, 3)])
        s = Relation("S", ("b", "c"), [(2, 3), (3, 1)])
        t = Relation("T", ("a", "c"), [(1, 3), (2, 1)])
        out = naive_multiway_join([r, s, t])
        assert set(out.project(["a", "b", "c"])) == {(1, 2, 3), (2, 3, 1)}

    def test_empty_input_relation_gives_empty_result(self, r):
        empty = Relation("E", ("b", "z"))
        assert len(naive_multiway_join([r, empty])) == 0
