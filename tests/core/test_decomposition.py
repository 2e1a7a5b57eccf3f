"""Tests for the twig decomposition (Figure 2's three steps)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition import (
    decompose,
    materialize_path_relation,
    path_relation_cardinality,
    root_leaf_paths,
    subtwig_root_nodes,
)
from repro.data.random_instances import random_twig
from repro.data.synthetic import figure2_twig, worst_case_document
from repro.xml.generator import random_document
from repro.xml.model import XMLDocument, element
from repro.xml.navigation import match_relation
from repro.xml.twig import TwigNode, TwigQuery
from repro.xml.twig_parser import parse_twig


class TestFigure2:
    """The decomposition must reproduce the paper's example verbatim."""

    def test_subtwig_roots(self):
        roots = subtwig_root_nodes(figure2_twig())
        assert [r.name for r in roots] == ["A", "C", "F", "G"]

    def test_path_relations_match_paper(self):
        decomposition = decompose(figure2_twig())
        schemas = [p.attributes for p in decomposition.paths]
        assert schemas == [("A", "B"), ("A", "D"), ("C", "E"),
                           ("F", "H"), ("G",)]

    def test_five_paths(self):
        assert len(decompose(figure2_twig()).paths) == 5


class TestDecompositionStructure:
    def test_pc_only_twig_single_subtwig(self):
        twig = parse_twig("a(/b(/c), /d)")
        assert len(subtwig_root_nodes(twig)) == 1
        schemas = [p.attributes for p in decompose(twig).paths]
        assert schemas == [("a", "b", "c"), ("a", "d")]

    def test_ad_only_twig_singleton_paths(self):
        twig = parse_twig("a(//b, //c)")
        schemas = [p.attributes for p in decompose(twig).paths]
        assert schemas == [("a",), ("b",), ("c",)]

    def test_single_node(self):
        twig = parse_twig("a")
        assert [p.attributes for p in decompose(twig).paths] == [("a",)]

    def test_root_leaf_paths_branching(self):
        root = TwigNode("a")
        b = root.child("b")
        b.child("c")
        b.child("d")
        paths = root_leaf_paths(root)
        assert [[n.name for n in p] for p in paths] == [
            ["a", "b", "c"], ["a", "b", "d"]]

    def test_ad_child_is_subtwig_leaf_boundary(self):
        # a//b: 'a' has no P-C children, so a is a path of its own.
        twig = parse_twig("a(//b(/c))")
        schemas = [p.attributes for p in decompose(twig).paths]
        assert schemas == [("a",), ("b", "c")]


def every_attribute_covered(twig: TwigQuery) -> bool:
    decomposition = decompose(twig)
    covered = set()
    for path in decomposition.paths:
        covered.update(path.attributes)
    return covered == set(twig.attributes)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_decomposition_covers_all_attributes(seed):
    """Every twig attribute appears in exactly one path relation."""
    twig = random_twig(random.Random(seed), ["x", "y", "z"], max_nodes=6)
    assert every_attribute_covered(twig)
    # Paths partition the attribute set (each node is in exactly one
    # sub-twig path... except branching nodes appear in several paths of
    # the same sub-twig). Check instead: path attrs form contiguous
    # root-to-leaf chains of names.
    decomposition = decompose(twig)
    for path in decomposition.paths:
        for upper, lower in zip(path.nodes, path.nodes[1:]):
            assert lower.parent is upper


class TestPathChains:
    def make_doc(self):
        tree = element(
            "a",
            element("b", element("c", text="1")),
            element("b", element("c", text="2"), element("c", text="2")),
        )
        return XMLDocument(tree)

    def test_materialized_relation_dedupes_values(self):
        doc = self.make_doc()
        twig = parse_twig("a(/b(/c))")
        (path,) = decompose(twig).paths
        relation = materialize_path_relation(doc, path)
        # (None, None, 1) and (None, None, 2): the duplicate c=2 collapses.
        assert len(relation) == 2
        assert path_relation_cardinality(doc, path) == 2

    def test_worst_case_document_path_cardinalities(self):
        n = 4
        doc = worst_case_document(n)
        decomposition = decompose(figure2_twig())
        sizes = [path_relation_cardinality(doc, p)
                 for p in decomposition.paths]
        assert sizes == [n, n, n, n, n]

    def test_pc_only_path_join_equals_twig_answer(self):
        """For a pure path twig the path relation IS the twig answer."""
        doc = self.make_doc()
        twig = parse_twig("b(/c)")
        (path,) = decompose(twig).paths
        assert materialize_path_relation(doc, path) == \
            match_relation(doc, twig)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_path_relations_relax_twig_answer(doc_seed, twig_seed):
    """The join of path relations contains the twig answer (projected).

    This is the relaxation XJoin exploits: path relations enforce P-C
    chains but not A-D edges or shared branching nodes.
    """
    doc = random_document(random.Random(doc_seed), tags=("x", "y"),
                          max_nodes=20, value_range=2)
    twig = random_twig(random.Random(twig_seed), ["x", "y"], max_nodes=4)
    answer = match_relation(doc, twig)
    for path in decompose(twig).paths:
        projected = answer.project(path.attributes)
        relaxed = materialize_path_relation(doc, path)
        assert projected.rows <= relaxed.rows
