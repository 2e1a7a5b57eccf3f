"""Tests for MultiModelQuery: the combined hypergraph and its bounds."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.data.random_instances import random_multimodel_instance
from repro.data.synthetic import example34_instance, figure2_twig, worst_case_document
from repro.errors import QueryError
from repro.relational.relation import Relation
from repro.xml.model import XMLDocument, element
from repro.xml.twig_parser import parse_twig


@pytest.fixture
def instance():
    return example34_instance(3)


class TestAttributes:
    def test_relational_attributes_first(self, instance):
        assert instance.query.attributes == (
            "A", "B", "C", "D", "E", "F", "G", "H")

    def test_shared_attribute_not_duplicated(self):
        r = Relation("R", ("a", "b"), [(1, 2)])
        doc = XMLDocument(element("r", element("a", text="1")))
        query = MultiModelQuery([r], [TwigBinding(parse_twig("a"), doc)])
        assert query.attributes == ("a", "b")


class TestHypergraph:
    def test_edges_are_relations_plus_paths(self, instance):
        graph = instance.query.hypergraph()
        names = {edge.name for edge in graph.edges}
        assert "R1" in names and "R2" in names
        assert len(names) == 2 + 5

    def test_cardinalities_from_instance(self, instance):
        graph = instance.query.hypergraph()
        assert graph.edge("R1").cardinality == 3
        path_edges = [e for e in graph.edges
                      if e.name not in ("R1", "R2")]
        assert all(e.cardinality == 3 for e in path_edges)

    def test_without_cardinalities(self, instance):
        graph = instance.query.hypergraph(with_cardinalities=False)
        assert all(e.cardinality is None for e in graph.edges)


class TestBounds:
    def test_symbolic_exponent(self, instance):
        assert instance.query.symbolic_exponent() == 2

    def test_dual_equals_primal(self, instance):
        assert instance.query.dual_packing().total == \
            instance.query.symbolic_exponent()

    def test_instance_bound_value(self, instance):
        # All inputs have cardinality 3; exponent 2 -> bound 9.
        assert instance.query.size_bound().bound_ceiling == 9

    def test_bound_dominates_result(self, instance):
        assert len(instance.query.naive_join()) <= \
            instance.query.size_bound().bound_ceiling

    def test_example33_fractional_bound(self):
        from repro.data.synthetic import example33_instance
        query = example33_instance(2).query
        assert query.symbolic_exponent() == Fraction(7, 2)
        # cardinalities all 2 -> bound = 2^{7/2} ≈ 11.31 -> ceiling 12
        assert query.size_bound().bound_ceiling == 12


class TestReferenceEvaluation:
    def test_twig_relations(self, instance):
        (answer,) = instance.query.twig_relations()
        assert len(answer) == 3 ** 5

    def test_naive_join_schema(self, instance):
        out = instance.query.naive_join()
        assert out.schema.attributes == instance.query.attributes

    def test_repr(self, instance):
        assert "2 relations, 1 twigs" in repr(instance.query)


class TestMultipleTwigs:
    def make_query(self):
        doc_a = XMLDocument(element("r", element("x", text="1"),
                                    element("x", text="2")))
        doc_b = XMLDocument(element("s", element("y", text="2"),
                                    element("y", text="3")))
        r = Relation("R", ("x", "y"), [(1, 2), (2, 2), (2, 3)])
        return MultiModelQuery(
            [r],
            [TwigBinding(parse_twig("x", name="XA"), doc_a),
             TwigBinding(parse_twig("y", name="XB"), doc_b)])

    def test_attributes(self):
        assert self.make_query().attributes == ("x", "y")

    def test_naive_join_across_two_documents(self):
        out = self.make_query().naive_join()
        assert set(out) == {(1, 2), (2, 2), (2, 3)}

    def test_xjoin_and_baseline_agree(self):
        from repro.core.baseline import baseline_join
        from repro.core.xjoin import xjoin
        query = self.make_query()
        naive = query.naive_join()
        assert xjoin(query) == naive
        assert baseline_join(query) == naive

    def test_duplicate_twig_names_rejected(self):
        doc = XMLDocument(element("r", element("x", text="1")))
        with pytest.raises(QueryError):
            MultiModelQuery(
                [], [TwigBinding(parse_twig("x", name="X"), doc),
                     TwigBinding(parse_twig("x", name="X"), doc)])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_bound_dominates_naive_result_on_random_instances(seed):
    """Lemma 3.1 end-to-end: |Q(D)| <= multi-model AGM bound."""
    query = random_multimodel_instance(seed)
    assert len(query.naive_join()) <= query.size_bound().bound_ceiling
