"""Tests for hash/sort-merge joins and binary join plans."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.instrumentation import JoinStats
from repro.relational.joins import hash_join
from repro.relational.plans import (
    estimate_join_size,
    execute_plan,
    greedy_plan,
    join_node,
    leaf,
    left_deep_plan,
)
from repro.relational.relation import Relation

rows2 = st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=30)


class TestHashJoin:
    def test_matches_reference(self):
        r = Relation("R", ("a", "b"), [(1, 2), (2, 2), (3, 4)])
        s = Relation("S", ("b", "c"), [(2, 7), (4, 8)])
        assert hash_join(r, s) == r.natural_join(s)

    def test_output_schema_left_first(self):
        r = Relation("R", ("a", "b"), [(1, 2)])
        s = Relation("S", ("b", "c"), [(2, 3)] * 1)
        assert hash_join(r, s).schema.attributes == ("a", "b", "c")

    def test_output_schema_left_first_even_when_left_larger(self):
        r = Relation("R", ("a", "b"), [(i, 0) for i in range(10)])
        s = Relation("S", ("b", "c"), [(0, 1)])
        assert hash_join(r, s).schema.attributes == ("a", "b", "c")

    def test_disjoint_schemas_product(self):
        r = Relation("R", ("a",), [(1,), (2,)])
        s = Relation("S", ("c",), [(5,), (6,), (7,)])
        assert len(hash_join(r, s)) == 6

    def test_stats_record_intermediate(self):
        stats = JoinStats()
        r = Relation("R", ("a", "b"), [(1, 0), (2, 0)])
        s = Relation("S", ("b", "c"), [(0, 5), (0, 6)])
        out = hash_join(r, s, stats=stats)
        assert stats.max_intermediate == len(out) == 4

    @given(rows2, rows2)
    def test_random_matches_reference(self, lrows, rrows):
        r = Relation("R", ("a", "b"), lrows)
        s = Relation("S", ("b", "c"), rrows)
        assert hash_join(r, s) == r.natural_join(s)


class TestPlans:
    def make_db(self):
        return {
            "R": Relation("R", ("a", "b"), [(1, 2), (2, 3)]),
            "S": Relation("S", ("b", "c"), [(2, 4), (3, 5)]),
            "T": Relation("T", ("c", "d"), [(4, 6)]),
        }

    def test_left_deep_plan_structure(self):
        plan = left_deep_plan(["R", "S", "T"])
        assert str(plan) == "((R ⋈ S) ⋈ T)"

    def test_left_deep_requires_relations(self):
        with pytest.raises(PlanError):
            left_deep_plan([])

    def test_execute_left_deep(self):
        db = self.make_db()
        out = execute_plan(left_deep_plan(["R", "S", "T"]), db)
        assert set(out) == {(1, 2, 4, 6)}

    def test_execute_unknown_relation_raises(self):
        with pytest.raises(PlanError):
            execute_plan(leaf("Z"), {})

    def test_execute_counts_each_intermediate(self):
        db = self.make_db()
        stats = JoinStats()
        execute_plan(left_deep_plan(["R", "S", "T"]), db, stats=stats)
        assert len(stats.stages) == 2

    def test_bushy_plan(self):
        db = self.make_db()
        plan = join_node(join_node(leaf("R"), leaf("S")), leaf("T"))
        out = execute_plan(plan, db)
        assert set(out) == {(1, 2, 4, 6)}

    def test_greedy_plan_covers_all_leaves(self):
        db = self.make_db()
        plan = greedy_plan(db)
        assert sorted(plan.leaves()) == ["R", "S", "T"]

    def test_greedy_plan_result_correct(self):
        db = self.make_db()
        out = execute_plan(greedy_plan(db), db)
        assert set(out.project(["a", "b", "c", "d"])) == {(1, 2, 4, 6)}

    def test_greedy_plan_requires_relations(self):
        with pytest.raises(PlanError):
            greedy_plan({})

    def test_estimate_join_size_independence(self):
        r = Relation("R", ("a", "b"), [(i, i % 2) for i in range(10)])
        s = Relation("S", ("b", "c"), [(i % 2, i) for i in range(10)])
        # 10*10 / max-distinct(b)=2 -> 50
        assert estimate_join_size(r, s) == 50
