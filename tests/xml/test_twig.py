"""Tests for the twig query model, pattern parser, and XPath subset."""

import pytest

from repro.errors import TwigError
from repro.xml.twig import Axis, TwigNode, TwigQuery, ValueSet, \
    pattern_string
from repro.xml.twig_parser import parse_twig
from repro.xml.xpath import parse_xpath


class TestTwigModel:
    def make_figure2_twig(self):
        """The twig of Figure 2: A(/B, /D, //C(/E), //F(/H), //G)."""
        root = TwigNode("A")
        root.child("B")
        root.child("D")
        root.descendant("C").child("E")
        root.descendant("F").child("H")
        root.descendant("G")
        return TwigQuery(root)

    def test_nodes_preorder(self):
        q = self.make_figure2_twig()
        assert [n.name for n in q.nodes()] == [
            "A", "B", "D", "C", "E", "F", "H", "G"]

    def test_attributes(self):
        q = self.make_figure2_twig()
        assert q.attributes == ("A", "B", "D", "C", "E", "F", "H", "G")

    def test_leaves(self):
        q = self.make_figure2_twig()
        assert [n.name for n in q.leaves()] == ["B", "D", "E", "H", "G"]

    def test_edges_split_by_axis(self):
        q = self.make_figure2_twig()
        edges = {(p.name, c.name) for p, c in q.edges()}
        ad = {(p.name, c.name) for p, c in q.ad_edges()}
        assert ad == {("A", "C"), ("A", "F"), ("A", "G")}
        assert edges - ad == {("A", "B"), ("A", "D"), ("C", "E"), ("F", "H")}

    def test_node_lookup(self):
        q = self.make_figure2_twig()
        assert q.node("E").tag == "E"
        with pytest.raises(TwigError):
            q.node("Z")

    def test_root_to_node_path(self):
        q = self.make_figure2_twig()
        assert [n.name for n in q.root_to_node_path("E")] == ["A", "C", "E"]

    def test_duplicate_names_rejected(self):
        root = TwigNode("A")
        root.child("B")
        root.child("B")
        with pytest.raises(TwigError):
            TwigQuery(root)

    def test_name_tag_split(self):
        root = TwigNode("x", tag="item")
        q = TwigQuery(root)
        assert q.node("x").tag == "item"

    def test_value_predicate(self):
        node = TwigNode("p", predicate=lambda v: v is not None and v > 10)
        assert node.matches_value(11)
        assert not node.matches_value(10)
        assert not node.matches_value(None)

    def test_no_predicate_matches_everything(self):
        assert TwigNode("p").matches_value(None)

    def test_build_helper(self):
        q = TwigQuery.build("A", lambda a: a.child("B"))
        assert [n.name for n in q.nodes()] == ["A", "B"]

    def test_predicate_by_extension_pickles_and_agrees(self):
        """``ValueSet`` stands in for a closure where a twig is pickled:
        it keeps exactly what the closure kept, values that are equal
        across types and NaN included."""
        import pickle

        values = [1, 1.0, True, "1", None, float("nan"), 0, 26, "x"]
        for keep in (lambda v: isinstance(v, float),
                     lambda v: v is True or v is None,
                     lambda v: isinstance(v, int) and v > 0,
                     lambda v: False):
            shipped = pickle.loads(pickle.dumps(
                ValueSet(filter(keep, values))))
            assert [shipped(v) for v in values + [float("nan")]] \
                == [bool(keep(v)) for v in values + [float("nan")]]

    def test_with_predicates_copies_the_tree(self):
        twig = self.make_figure2_twig()
        twig.node("E").predicate = lambda v: v == 1
        copy = twig.with_predicates({"E": ValueSet([1]),
                                     "G": ValueSet([])})
        assert repr(copy) == repr(twig) and copy.name == twig.name
        assert all(node is not twig.node(node.name)
                   for node in copy.nodes())
        assert [(n.name, n.parent and n.parent.name) for n in copy.nodes()] \
            == [(n.name, n.parent and n.parent.name) for n in twig.nodes()]
        assert copy.node("E").matches_value(1)
        assert not copy.node("G").matches_value(1)
        assert copy.node("B").predicate is None
        assert twig.node("G").predicate is None


class TestPatternParser:
    def test_single_node(self):
        q = parse_twig("A")
        assert q.root.name == "A"
        assert q.root.is_leaf

    def test_figure2_pattern(self):
        q = parse_twig("A(/B, /D, //C(/E), //F(/H), //G)")
        assert [n.name for n in q.nodes()] == [
            "A", "B", "D", "C", "E", "F", "H", "G"]
        assert q.node("C").axis is Axis.DESCENDANT
        assert q.node("E").axis is Axis.CHILD

    def test_whitespace_tolerated(self):
        q = parse_twig(" A ( /B , //C ) ")
        assert [n.name for n in q.nodes()] == ["A", "B", "C"]

    def test_name_tag_syntax(self):
        q = parse_twig("x=item(/y=price)")
        assert q.root.tag == "item"
        assert q.node("y").tag == "price"

    def test_roundtrip_with_pattern_string(self):
        text = "A(/B, //C(/E), //G)"
        q = parse_twig(text)
        assert pattern_string(q.root) == text.replace(" ", "").replace(
            ",", ", ")

    @pytest.mark.parametrize("bad", [
        "", "A(", "A(B)", "A(/B", "A(/B,)", "A()", "(/A)", "A(/B) junk",
        "A(/B,, /C)",
    ])
    def test_malformed_patterns_raise(self, bad):
        with pytest.raises(TwigError):
            parse_twig(bad)


class TestXPath:
    def test_simple_path(self):
        compiled = parse_xpath("//a/b")
        tags = [n.tag for n in compiled.twig.nodes()]
        assert tags == ["a", "b"]
        assert not compiled.absolute

    def test_absolute_flag(self):
        assert parse_xpath("/a/b").absolute

    def test_descendant_axis(self):
        compiled = parse_xpath("//a//b")
        (node_b,) = [n for n in compiled.twig.nodes() if n.tag == "b"]
        assert node_b.axis is Axis.DESCENDANT

    def test_predicates_become_branches(self):
        compiled = parse_xpath("//a[b][.//c/e]//g")
        twig = compiled.twig
        root = twig.root
        assert root.tag == "a"
        child_tags = sorted(c.tag for c in root.children)
        assert child_tags == ["b", "c", "g"]

    def test_predicate_axes(self):
        compiled = parse_xpath("//a[.//c]")
        (node_c,) = [n for n in compiled.twig.nodes() if n.tag == "c"]
        assert node_c.axis is Axis.DESCENDANT

    def test_repeated_tags_get_distinct_names(self):
        compiled = parse_xpath("//a/b[a]")
        names = [n.name for n in compiled.twig.nodes()]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("bad", ["", "//", "//a[", "//a]", "//a[b", "a["])
    def test_malformed_xpath_raises(self, bad):
        with pytest.raises(TwigError):
            parse_xpath(bad)
