"""Tests for node surrogates (identity bindings for valueless nodes)."""

import pytest
from pushdown_harness import relaxed_then_naive

from repro.core.baseline import baseline_join
from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.core.surrogate import NodeSurrogate, erase_surrogates
from repro.core.xjoin import xjoin
from repro.data.scenarios import figure1_query
from repro.instrumentation import JoinStats
from repro.relational.relation import Relation
from repro.relational.schema import sort_key
from repro.xml.model import XMLDocument, XMLNode
from repro.xml.twig_parser import parse_twig


class TestNodeSurrogate:
    def test_equality_by_start(self):
        assert NodeSurrogate(3) == NodeSurrogate(3)
        assert NodeSurrogate(3) != NodeSurrogate(4)

    def test_hashable(self):
        assert len({NodeSurrogate(1), NodeSurrogate(1), NodeSurrogate(2)}) == 2

    def test_not_equal_to_values(self):
        assert NodeSurrogate(3) != 3
        assert NodeSurrogate(3) != None  # noqa: E711

    def test_sortable_via_sort_key(self):
        values = [NodeSurrogate(10), 5, "x", NodeSurrogate(2)]
        ordered = sorted(values, key=sort_key)
        # surrogates sort after scalars, among themselves by start.
        assert ordered[0] == 5
        assert ordered[-2:] == [NodeSurrogate(2), NodeSurrogate(10)]

    def test_repr_zero_padded_for_stable_order(self):
        assert repr(NodeSurrogate(2)) < repr(NodeSurrogate(10))

    def test_erase_surrogates(self):
        row = (1, NodeSurrogate(3), "x")
        assert erase_surrogates(row) == (1, None, "x")


def order_lines_doc(pairs):
    root = XMLNode("lines")
    for isbn, price in pairs:
        line = root.add("line")
        line.add("isbn", text=isbn)
        line.add("price", text=str(price))
    return XMLDocument(root)


class TestSurrogateSemantics:
    def test_container_conflation_avoided(self):
        """Without surrogates the paths (line,isbn) and (line,price) would
        pair every isbn with every price; with them the per-line linkage
        survives."""
        doc = order_lines_doc([("x", 1), ("y", 2), ("z", 3)])
        twig = parse_twig("line(/isbn, /price)")
        query = MultiModelQuery([], [TwigBinding(twig, doc)])
        stats = JoinStats()
        result = xjoin(query, stats=stats)
        assert len(result) == 3
        assert set(result.project(["isbn", "price"])) == {
            ("x", 1), ("y", 2), ("z", 3)}
        # intermediates stay linear, not 3x3.
        assert stats.max_intermediate <= 3

    def test_result_is_value_level(self):
        doc = order_lines_doc([("x", 1)])
        twig = parse_twig("line(/isbn)")
        query = MultiModelQuery([], [TwigBinding(twig, doc)])
        result = xjoin(query)
        # the container column surfaces as None, like the naive matcher.
        assert set(result) == {(None, "x")}
        assert result == query.naive_join()

    def test_structural_attribute_detection(self):
        query = figure1_query()
        binding = query.twigs[0]
        structural = query.structural_attributes(binding)
        # orderLine joins nothing outside the twig; orderID joins R.
        assert "orderLine" in structural
        assert "orderID" not in structural

    def test_relation_shared_attribute_not_surrogated(self):
        """If a relation joins on the container attribute, value
        semantics (None) must be preserved."""
        doc = order_lines_doc([("x", 1)])
        twig = parse_twig("line(/isbn)")
        relation = Relation("R", ("line", "tag"), [(None, "keep")])
        query = MultiModelQuery([relation], [TwigBinding(twig, doc)])
        assert query.structural_attributes(query.twigs[0]) == \
            frozenset({"isbn"})
        result = xjoin(query)
        assert result == query.naive_join()
        assert len(result) == 1

    def test_bound_uses_surrogate_cardinalities(self):
        # Three lines with identical values: value-level cardinality of
        # (line, isbn) would be 1; surrogate-aware cardinality is 3.
        doc = order_lines_doc([("x", 1), ("x", 1), ("x", 1)])
        twig = parse_twig("line(/isbn, /price)")
        query = MultiModelQuery([], [TwigBinding(twig, doc)])
        graph = query.hypergraph()
        path_sizes = sorted(edge.cardinality for edge in graph.edges)
        assert path_sizes == [3, 3]
        stats = JoinStats()
        xjoin(query, stats=stats)
        assert stats.max_intermediate <= query.size_bound().bound_ceiling

    def test_baseline_agrees_on_surrogate_heavy_instances(self):
        doc = order_lines_doc([("x", 1), ("y", 2), ("x", 2)])
        twig = parse_twig("line(/isbn, /price)")
        relation = Relation("R", ("isbn",), [("x",), ("y",)])
        query = MultiModelQuery([relation], [TwigBinding(twig, doc)])
        naive = query.naive_join()
        assert xjoin(query) == naive
        assert baseline_join(query) == naive

    def test_pushdown_works_with_surrogates(self):
        root = XMLNode("r")
        for i in range(4):
            box = root.add("box")
            inner = box.add("pad")
            inner.add("v", text=str(i))
        doc = XMLDocument(root)
        twig = parse_twig("box(//v)")
        query = MultiModelQuery([], [TwigBinding(twig, doc)])
        reference = xjoin(query)
        assert len(reference) == 4
        assert relaxed_then_naive(query) == reference
        # box//v is one pair input over surrogate-bound boxes: the join
        # itself pairs each box with its own v, nothing is left to filter.
        stats = JoinStats()
        assert xjoin(query, stats=stats) == reference
        assert stats.max_intermediate == 4 and stats.filtered == 0
