"""Tests for the per-relation statistics rescan."""

from repro.relational.relation import Relation
from repro.relational.statistics import column_stats, relation_stats


class TestStatistics:
    def test_column_stats(self):
        r = Relation("R", ("a", "b"), [(1, "x"), (2, "x"), (2, "y")])
        stats = column_stats(r, "a")
        assert stats.distinct == 2
        assert stats.minimum == 1
        assert stats.maximum == 2
        assert stats.max_frequency == 2

    def test_column_stats_empty(self):
        stats = column_stats(Relation("R", ("a",)), "a")
        assert stats.distinct == 0
        assert stats.minimum is None
        assert stats.max_frequency == 0

    def test_relation_stats(self):
        r = Relation("R", ("a", "b"), [(1, 2), (3, 4)])
        stats = relation_stats(r)
        assert stats.cardinality == 2
        assert stats.distinct("a") == 2
        assert set(stats.columns) == {"a", "b"}
