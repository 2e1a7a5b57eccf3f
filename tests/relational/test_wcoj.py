"""Tests for the worst-case optimal relational joins (LFTJ + generic join)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.instrumentation import JoinStats
from repro.relational.generic_join import generic_join
from repro.relational.leapfrog import leapfrog_triejoin
from repro.relational.operators import naive_multiway_join
from repro.relational.plans import execute_plan, greedy_plan
from repro.relational.relation import Relation


def triangle_instance():
    r = Relation("R", ("a", "b"), [(1, 2), (2, 3), (1, 4)])
    s = Relation("S", ("b", "c"), [(2, 3), (3, 1), (4, 4)])
    t = Relation("T", ("a", "c"), [(1, 3), (2, 1), (9, 9)])
    return [r, s, t]


class TestLeapfrogTriejoin:
    def test_triangle(self):
        out = leapfrog_triejoin(triangle_instance(), ("a", "b", "c"))
        assert set(out) == {(1, 2, 3), (2, 3, 1)}

    def test_matches_naive_reference(self):
        rels = triangle_instance()
        expected = naive_multiway_join(rels).project(["a", "b", "c"])
        assert leapfrog_triejoin(rels, ("a", "b", "c")) == expected

    def test_any_order_same_result(self):
        rels = triangle_instance()
        expected = set(naive_multiway_join(rels).project(["a", "b", "c"]))
        for order in [("b", "a", "c"), ("c", "b", "a"), ("a", "c", "b")]:
            out = leapfrog_triejoin(rels, order).project(["a", "b", "c"])
            assert set(out) == expected

    def test_default_order(self):
        out = leapfrog_triejoin(triangle_instance())
        assert len(out) == 2

    def test_bad_order_raises(self):
        with pytest.raises(QueryError):
            leapfrog_triejoin(triangle_instance(), ("a", "b"))

    def test_zero_relations(self):
        out = leapfrog_triejoin([])
        assert len(out) == 1

    def test_single_relation_identity(self):
        r = Relation("R", ("a", "b"), [(1, 2), (3, 4)])
        assert set(leapfrog_triejoin([r])) == set(r)

    def test_empty_relation_empty_result(self):
        rels = triangle_instance() + [Relation("E", ("a",))]
        assert len(leapfrog_triejoin(rels, ("a", "b", "c"))) == 0

    def test_stats_stage_per_attribute(self):
        stats = JoinStats()
        leapfrog_triejoin(triangle_instance(), ("a", "b", "c"), stats=stats)
        assert [s.label for s in stats.stages] == [
            "level a", "level b", "level c"]

    def test_cartesian_component(self):
        r = Relation("R", ("a",), [(1,), (2,)])
        s = Relation("S", ("b",), [(5,)])
        out = leapfrog_triejoin([r, s], ("a", "b"))
        assert set(out) == {(1, 5), (2, 5)}


class TestGenericJoin:
    def test_triangle(self):
        out = generic_join(triangle_instance(), ("a", "b", "c"))
        assert set(out) == {(1, 2, 3), (2, 3, 1)}

    def test_matches_leapfrog(self):
        rels = triangle_instance()
        assert generic_join(rels, ("a", "b", "c")) == \
            leapfrog_triejoin(rels, ("a", "b", "c"))

    def test_bad_order_raises(self):
        with pytest.raises(QueryError):
            generic_join(triangle_instance(), ("a", "b", "q", "c"))

    def test_zero_relations(self):
        assert len(generic_join([])) == 1

    def test_stats_intermediates_bounded_by_output_times_depth(self):
        stats = JoinStats()
        rels = triangle_instance()
        generic_join(rels, ("a", "b", "c"), stats=stats)
        assert stats.max_intermediate >= 2


def relations_strategy():
    """Random 2-3 small relations over attributes drawn from {a,b,c,d}."""
    schemas = st.sampled_from([
        (("a", "b"), ("b", "c"), ("a", "c")),
        (("a", "b"), ("b", "c"), ("c", "d")),
        (("a", "b", "c"), ("b", "d"), ("a", "d")),
        (("a", "b"), ("c", "d")),
        (("a",), ("a", "b"), ("b",)),
    ])
    rows = st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4),
                             st.integers(0, 4)), max_size=12)

    def build(schema_pick, row_sets):
        rels = []
        for i, schema in enumerate(schema_pick):
            rset = row_sets[i % len(row_sets)]
            rels.append(Relation(f"R{i}", schema,
                                 [t[: len(schema)] for t in rset]))
        return rels

    return st.builds(build, schemas, st.lists(rows, min_size=3, max_size=3))


@settings(max_examples=60, deadline=None)
@given(relations_strategy())
def test_wcoj_algorithms_agree_with_naive(relations):
    """LFTJ == generic join == the greedy binary plan == naive nested-loop
    join, on random queries."""
    attrs = []
    for rel in relations:
        for attribute in rel.schema:
            if attribute not in attrs:
                attrs.append(attribute)
    expected = set(naive_multiway_join(relations).project(attrs))
    lftj = set(leapfrog_triejoin(relations, attrs))
    gj = set(generic_join(relations, attrs))
    named = {r.name: r for r in relations}
    binary = set(execute_plan(greedy_plan(named), named).project(attrs))
    assert lftj == expected
    assert gj == expected
    assert binary == expected

