"""End-to-end tests: XPath subset -> twig -> matching on documents."""

import pytest

from repro.xml.generator import layered_document
from repro.xml.model import XMLDocument, element
from repro.xml.navigation import match_embeddings
from repro.xml.parser import parse_document
from repro.xml.twigstack import twig_stack_embeddings
from repro.xml.xpath import parse_xpath


@pytest.fixture(scope="module")
def doc():
    return parse_document("""
    <library>
      <shelf><genre>db</genre>
        <book><title>A</title><year>2008</year></book>
        <book><title>B</title><year>2012</year></book>
      </shelf>
      <shelf><genre>os</genre>
        <book><title>C</title><year>2012</year></book>
      </shelf>
      <archive>
        <book><title>D</title></book>
      </archive>
    </library>
    """)


def count(doc, xpath):
    return len(match_embeddings(doc, parse_xpath(xpath).twig))


class TestXPathSemantics:
    def test_descendant_from_root(self, doc):
        assert count(doc, "//book") == 4

    def test_child_chain(self, doc):
        assert count(doc, "//shelf/book") == 3

    def test_predicate_filters_branch(self, doc):
        assert count(doc, "//book[year]") == 3

    def test_nested_predicate(self, doc):
        assert count(doc, "//shelf[genre]/book[year]/title") == 3

    def test_double_slash_mid_path(self, doc):
        assert count(doc, "//library//title") == 4

    def test_no_match(self, doc):
        assert count(doc, "//magazine") == 0

    def test_twigstack_agrees_on_xpath_twigs(self, doc):
        for xpath in ("//book", "//shelf/book", "//shelf[genre]//title"):
            twig = parse_xpath(xpath).twig
            naive = match_embeddings(doc, twig)
            holistic = twig_stack_embeddings(doc, twig)
            keys = lambda embeddings: {  # noqa: E731
                tuple(sorted((k, v.start) for k, v in e.items()))
                for e in embeddings}
            assert keys(naive) == keys(holistic)

    def test_absolute_flag_reflects_leading_slash(self):
        assert parse_xpath("/a/b").absolute
        assert not parse_xpath("//a/b").absolute


class TestLayeredDocument:
    def test_counts(self):
        doc = layered_document([("a", 2), ("b", 3), ("c", 1)])
        assert doc.tag_count("a") == 2
        assert doc.tag_count("b") == 6
        assert doc.tag_count("c") == 6

    def test_values_are_running_counters(self):
        doc = layered_document([("a", 3)])
        assert [n.value for n in doc.nodes("a")] == [0, 1, 2]

    def test_custom_value_function(self):
        doc = layered_document([("a", 2)],
                               value_of=lambda tag, i: i % 2)
        assert [n.value for n in doc.nodes("a")] == [0, 1]

    def test_xpath_over_layers(self):
        doc = layered_document([("a", 2), ("b", 2)])
        assert len(match_embeddings(
            doc, parse_xpath("//a/b").twig)) == 4


class TestSerializerEdges:
    def test_pretty_print_with_attributes(self):
        from repro.xml.serializer import serialize
        tree = element("a", element("b", text="1",
                                    attributes={"k": "v"}),
                       attributes={"x": "1 < 2"})
        pretty = serialize(tree, indent=4, declaration=True)
        assert pretty.startswith("<?xml")
        assert 'x="1 &lt; 2"' in pretty

    def test_mixed_text_and_children_pretty(self):
        from repro.xml.parser import parse_element_tree
        from repro.xml.serializer import serialize
        tree = element("a", element("b"), text="hello")
        parsed = parse_element_tree(serialize(tree, indent=2))
        assert parsed.text.strip() == "hello"
        assert parsed.children[0].tag == "b"


class TestDocumentEdgeCases:
    def test_single_node_document(self):
        doc = XMLDocument(element("only", text="1"))
        assert doc.size() == 1
        assert doc.root.start == 0 and doc.root.end == 1

    def test_wide_document_levels(self):
        root = element("r", *[element("c", text=str(i))
                              for i in range(50)])
        doc = XMLDocument(root)
        assert all(n.level == 1 for n in doc.nodes("c"))
        starts = [n.start for n in doc.nodes("c")]
        assert starts == sorted(starts)
