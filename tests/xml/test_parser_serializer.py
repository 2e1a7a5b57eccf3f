"""Tests for the hand-written XML parser and serialiser."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import XMLParseError
from repro.xml.generator import random_document
from repro.xml.model import element
from repro.xml.parser import decode_entities, parse_document, parse_element_tree
from repro.xml.serializer import escape_attribute, escape_text, serialize


class TestBasicParsing:
    def test_single_element(self):
        root = parse_element_tree("<a/>")
        assert root.tag == "a"
        assert root.children == []

    def test_nested_elements(self):
        root = parse_element_tree("<a><b/><c><d/></c></a>")
        assert [c.tag for c in root.children] == ["b", "c"]
        assert root.children[1].children[0].tag == "d"

    def test_text_content(self):
        root = parse_element_tree("<a>hello</a>")
        assert root.text == "hello"

    def test_typed_value(self):
        root = parse_element_tree("<price>30</price>")
        assert root.value == 30

    def test_attributes(self):
        root = parse_element_tree('<a x="1" y=\'two\'/>')
        assert root.attributes == {"x": "1", "y": "two"}

    def test_whitespace_only_text_dropped(self):
        root = parse_element_tree("<a>\n  <b/>\n</a>")
        assert root.text == ""

    def test_mixed_text_concatenated(self):
        root = parse_element_tree("<a>one<b/>two</a>")
        assert root.text == "onetwo"

    def test_comment_skipped(self):
        root = parse_element_tree("<a><!-- note --><b/></a>")
        assert [c.tag for c in root.children] == ["b"]

    def test_cdata_preserved_verbatim(self):
        root = parse_element_tree("<a><![CDATA[x < y & z]]></a>")
        assert root.text == "x < y & z"

    def test_xml_declaration_skipped(self):
        root = parse_element_tree('<?xml version="1.0"?><a/>')
        assert root.tag == "a"

    def test_doctype_skipped(self):
        root = parse_element_tree("<!DOCTYPE a><a/>")
        assert root.tag == "a"

    def test_entities_in_text(self):
        root = parse_element_tree("<a>&lt;tag&gt; &amp; &quot;x&quot;</a>")
        assert root.text == '<tag> & "x"'

    def test_numeric_entities(self):
        root = parse_element_tree("<a>&#65;&#x42;</a>")
        assert root.text == "AB"

    def test_entities_in_attribute(self):
        root = parse_element_tree('<a x="&amp;&apos;"/>')
        assert root.attributes["x"] == "&'"

    def test_parse_document_is_indexed(self):
        doc = parse_document("<a><b>1</b></a>")
        assert doc.root.start == 0
        assert doc.tag_count("b") == 1

    def test_names_with_namespace_chars(self):
        root = parse_element_tree("<ns:a-b.c_1/>")
        assert root.tag == "ns:a-b.c_1"


#: Malformed documents (tests/xml/test_scanner.py re-scans them under
#: every chunking).
MALFORMED = [
    "",
    "<a>",
    "</a>",
    "<a></b>",
    "<a><b></a></b>",
    "<a/><b/>",
    "<a x=1/>",
    "<a x/>",
    '<a x="1" x="2"/>',
    "<a>&unknown;</a>",
    "text only",
    "<a>&broken</a>",
    "<!-- unterminated",
    "<a><![CDATA[x</a>",
]


class TestParseErrors:
    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_inputs_raise(self, text):
        with pytest.raises(XMLParseError):
            parse_element_tree(text)

    def test_error_carries_line_and_column(self):
        with pytest.raises(XMLParseError) as info:
            parse_element_tree("<a>\n<b></c>\n</a>")
        assert info.value.line == 2
        assert "does not match" in str(info.value)


class TestEntities:
    def test_decode_plain_passthrough(self):
        assert decode_entities("plain") == "plain"

    def test_escape_text_roundtrip(self):
        original = 'a < b & c > "d"'
        assert decode_entities(escape_text(original)) == original

    def test_escape_attribute_quotes(self):
        assert '"' not in escape_attribute('say "hi"').replace("&quot;", "")


class TestSerializerRoundtrip:
    def test_compact_roundtrip(self):
        tree = element("a", element("b", text="1 < 2"),
                       element("c", text="x&y", attributes={"k": 'v"w'}))
        text = serialize(tree)
        again = parse_element_tree(text)
        assert tree.structure_equal(again)

    def test_self_closing_for_empty(self):
        assert serialize(element("a")) == "<a/>"

    def test_declaration(self):
        text = serialize(element("a"), declaration=True)
        assert text.startswith("<?xml")

    def test_pretty_printing_parses_back(self):
        tree = element("a", element("b", element("c", text="1")))
        pretty = serialize(tree, indent=2)
        assert "\n" in pretty
        assert tree.structure_equal(parse_element_tree(pretty))

    @given(st.integers(0, 10_000))
    def test_random_roundtrip(self, seed):
        doc = random_document(random.Random(seed), max_nodes=30)
        text = serialize(doc.root)
        again = parse_element_tree(text)
        assert doc.root.structure_equal(again)

    @given(st.integers(0, 2_000))
    def test_serialize_parse_serialize_fixpoint(self, seed):
        doc = random_document(random.Random(seed), max_nodes=20)
        once = serialize(doc.root)
        twice = serialize(parse_element_tree(once))
        assert once == twice

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                          blacklist_characters="\r"),
                   max_size=40))
    def test_arbitrary_text_roundtrips(self, text):
        tree = element("a", text=text)
        parsed = parse_element_tree(serialize(tree))
        # Leading/trailing whitespace-only content is dropped by design;
        # compare the stripped text.
        assert parsed.text.strip() == text.strip()
