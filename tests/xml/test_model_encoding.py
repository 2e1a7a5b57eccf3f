"""Tests for the XML document model and its region encoding."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.xml.encoding import annotate_regions, is_ancestor, is_parent
from repro.xml.generator import chain_document, random_document, star_document
from repro.xml.model import XMLDocument, XMLNode, element


@pytest.fixture
def doc():
    tree = element(
        "a",
        element("b", element("d", text="1")),
        element("c", text="2"),
    )
    return XMLDocument(tree)


class TestModel:
    def test_append_sets_parent(self):
        parent = XMLNode("p")
        child = parent.add("c")
        assert child.parent is parent
        assert parent.children == [child]

    def test_value_int(self):
        assert XMLNode("n", text=" 42 ").value == 42

    def test_value_float(self):
        assert XMLNode("n", text="2.5").value == 2.5

    def test_value_string(self):
        assert XMLNode("n", text="978-3-16-1").value == "978-3-16-1"

    def test_value_empty_is_none(self):
        assert XMLNode("n").value is None

    def test_iter_preorder(self, doc):
        assert [n.tag for n in doc.root.iter()] == ["a", "b", "d", "c"]

    def test_descendants_excludes_self(self, doc):
        assert [n.tag for n in doc.root.descendants()] == ["b", "d", "c"]

    def test_ancestors(self, doc):
        d = doc.nodes("d")[0]
        assert [n.tag for n in d.ancestors()] == ["b", "a"]

    def test_path_from_root(self, doc):
        d = doc.nodes("d")[0]
        assert [n.tag for n in d.path_from_root()] == ["a", "b", "d"]

    def test_find_all(self, doc):
        assert len(doc.root.find_all("d")) == 1

    def test_structure_equal(self):
        a = element("x", element("y", text="1"))
        b = element("x", element("y", text="1"))
        c = element("x", element("y", text="2"))
        assert a.structure_equal(b)
        assert not a.structure_equal(c)

    def test_document_indexes(self, doc):
        assert doc.size() == 4
        assert doc.tag_count("b") == 1
        assert doc.tag_count("zzz") == 0

    def test_nodes_in_document_order(self, doc):
        starts = [n.start for n in doc.nodes()]
        assert starts == sorted(starts)

    def test_reindex_after_mutation(self, doc):
        doc.root.add("e", text="9")
        doc.reindex()
        assert doc.tag_count("e") == 1


class TestRegionEncoding:
    def test_root_spans_everything(self, doc):
        for node in doc.root.descendants():
            assert doc.root.start < node.start
            assert node.end < doc.root.end

    def test_levels(self, doc):
        assert doc.root.level == 0
        assert doc.nodes("b")[0].level == 1
        assert doc.nodes("d")[0].level == 2

    def test_is_ancestor(self, doc):
        a, d = doc.nodes("a")[0], doc.nodes("d")[0]
        assert is_ancestor(a, d)
        assert not is_ancestor(d, a)

    def test_is_ancestor_irreflexive(self, doc):
        a = doc.nodes("a")[0]
        assert not is_ancestor(a, a)

    def test_is_parent(self, doc):
        a, b, d = (doc.nodes(t)[0] for t in "abd")
        assert is_parent(a, b)
        assert is_parent(b, d)
        assert not is_parent(a, d)

    def test_siblings_not_related(self, doc):
        b, c = doc.nodes("b")[0], doc.nodes("c")[0]
        assert not is_ancestor(b, c) and not is_ancestor(c, b)

    def test_starts_are_distinct(self, doc):
        starts = [n.start for n in doc.nodes()]
        assert len(starts) == len(set(starts))

    def test_deep_chain_no_recursion_error(self):
        doc = chain_document(5000)
        assert doc.nodes()[-1].level == 5000

    def test_subtree_labels_from_an_offset(self, doc):
        # Labelling a copy of b at b's own start and level reproduces
        # the labels the whole-document pass gave b's subtree.
        b = doc.nodes("b")[0]
        twin = annotate_regions(b.copy(), start=b.start, level=b.level)
        assert [(n.start, n.end, n.level) for n in twin.iter()] == \
            [(n.start, n.end, n.level) for n in b.iter()]


class TestRegionEncodingProperties:
    @given(st.integers(0, 10_000))
    def test_random_tree_labels_match_tree_relations(self, seed):
        doc = random_document(random.Random(seed), max_nodes=25)
        nodes = doc.nodes()
        for node in nodes:
            for child in node.children:
                assert is_parent(node, child)
            for descendant in node.descendants():
                assert is_ancestor(node, descendant)
        # Converse: labels never claim a relation the tree doesn't have.
        for x in nodes:
            descendants = set(map(id, x.descendants()))
            for y in nodes:
                if is_ancestor(x, y):
                    assert id(y) in descendants


class TestGenerators:
    def test_star_document_shape(self):
        doc = star_document(7)
        assert doc.tag_count("item") == 7
        assert all(n.level == 1 for n in doc.nodes("item"))

    def test_chain_document_shape(self):
        doc = chain_document(4, tags=("a", "b"))
        assert doc.size() == 5
        assert [n.tag for n in doc.nodes()] == ["root", "a", "b", "a", "b"]

    def test_random_document_bounded(self):
        doc = random_document(random.Random(1), max_nodes=15, max_depth=3)
        assert 1 <= doc.size() <= 15
        assert max(n.level for n in doc.nodes()) <= 3
