"""Tests for the synthetic workloads and the Figure 1 scenario."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multimodel import MultiModelQuery, TwigBinding, \
    _decomposition
from repro.data.random_instances import (
    random_multimodel_instance,
    random_relation,
    random_twig,
)
from repro.data.scenarios import (
    bookstore_instance,
    figure1_document,
    figure1_query,
    figure1_relation,
    figure1_twig,
)
from repro.data.synthetic import (
    agm_tight_triangle,
    example33_instance,
    example33_relations,
    example34_instance,
    example34_relations,
    figure2_twig,
    worst_case_document,
)
from repro.relational.joins import hash_join
from repro.relational.leapfrog import leapfrog_triejoin
from repro.xml.navigation import match_embeddings

import random


class TestWorstCaseDocument:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_tag_counts(self, n):
        doc = worst_case_document(n)
        assert doc.tag_count("A") == 1
        for tag in "BCDEFGH":
            assert doc.tag_count(tag) == n

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_twig_match_count_is_n5(self, n):
        doc = worst_case_document(n)
        embeddings = match_embeddings(doc, figure2_twig())
        assert len(embeddings) == n ** 5

    def test_document_size(self):
        n = 4
        doc = worst_case_document(n)
        assert doc.size() == 1 + 7 * n


class TestExampleRelations:
    def test_example33_shapes(self):
        r1, r2 = example33_relations(5)
        assert r1.schema.attributes == ("B", "D")
        assert r2.schema.attributes == ("F", "G", "H")
        assert len(r1) == len(r2) == 5

    def test_example34_shapes(self):
        r1, r2 = example34_relations(5)
        assert r1.schema.attributes == ("A", "B", "C", "D")
        assert r2.schema.attributes == ("E", "F", "G", "H")
        assert len(r1) == len(r2) == 5

    def test_example34_instance_metadata(self):
        instance = example34_instance(3)
        assert instance.expected_result_size == 3

    def test_symbolic_exponents(self):
        assert example33_instance(2).query.symbolic_exponent() == \
            pytest.approx(3.5)
        assert example34_instance(2).query.symbolic_exponent() == 2

    def test_twig_only_exponent_is_five(self):
        instance = example34_instance(2)
        twig_only = MultiModelQuery(
            [], [TwigBinding(instance.twig, instance.document)])
        assert twig_only.symbolic_exponent() == 5


class TestAGMTriangle:
    def test_shapes(self):
        r, s, t = agm_tight_triangle(10)
        assert len(r) == len(s) == len(t) == 19

    def test_triangle_output_linear(self):
        rels = agm_tight_triangle(10)
        out = leapfrog_triejoin(rels, ("a", "b", "c"))
        assert len(out) == 3 * 10 - 2

    def test_binary_intermediate_quadratic(self):
        r, s, _ = agm_tight_triangle(10)
        assert len(hash_join(r, s)) >= 10 * 10


class TestFigure1Scenario:
    def test_relation_contents(self):
        assert (35768, "bob") in figure1_relation()

    def test_document_parses(self):
        doc = figure1_document()
        assert doc.tag_count("orderLine") == 2
        assert doc.tag_count("discount") == 2

    def test_twig_shape(self):
        twig = figure1_twig()
        assert twig.attributes == ("orderLine", "orderID", "ISBN", "price")

    def test_query_attributes(self):
        query = figure1_query()
        assert "userID" in query.attributes
        assert "ISBN" in query.attributes

    def test_bookstore_instance_sizes(self):
        query = bookstore_instance(20, 5, seed=1)
        assert len(query.relations[0]) == 20
        assert query.twigs[0].document.tag_count("orderLine") == 20

    def test_bookstore_deterministic(self):
        a = bookstore_instance(10, 3, seed=9)
        b = bookstore_instance(10, 3, seed=9)
        assert a.relations[0] == b.relations[0]


class TestRandomInstances:
    def test_random_twig_names_distinct(self):
        twig = random_twig(random.Random(5), ["x", "y"], max_nodes=6)
        names = [n.name for n in twig.nodes()]
        assert len(names) == len(set(names))

    def test_random_relation_shape(self):
        relation = random_relation(random.Random(1), "R", ["a", "b"])
        assert relation.schema.attributes == ("a", "b")

    @given(st.integers(0, 2_000))
    @settings(max_examples=30, deadline=None)
    def test_random_instance_well_formed(self, seed):
        query = random_multimodel_instance(seed)
        assert query.relations
        assert query.twigs
        graph = query.hypergraph()
        assert set(query.attributes) >= set(query.twigs[0].twig.attributes)
        assert len(graph.edges) == len(query.relations) + len(
            _decomposition(query.twigs[0].twig).paths)

    def test_random_instance_deterministic(self):
        a = random_multimodel_instance(123)
        b = random_multimodel_instance(123)
        assert a.relations[0] == b.relations[0]
        assert a.twigs[0].twig.attributes == b.twigs[0].twig.attributes
