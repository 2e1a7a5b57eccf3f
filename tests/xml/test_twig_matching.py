"""Cross-checks of all twig-matching algorithms against naive navigation.

This is the load-bearing test file of the XML substrate: TwigStack,
PathStack, TJFast and the structural-join pipeline must all agree with the
brute-force matcher on random documents and random twigs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TwigError
from repro.instrumentation import JoinStats
from repro.xml.generator import chain_document, random_document
from repro.xml.model import XMLDocument, element
from repro.xml.navigation import match_embeddings, match_relation
from repro.xml.pathstack import path_stack, path_stack_relation
from repro.xml.structural_join import stack_tree_join, structural_join_pipeline
from repro.xml.tjfast import match_path_against_tags, tjfast, tjfast_embeddings
from repro.xml.twig import Axis, TwigNode, TwigQuery
from repro.xml.twig_parser import parse_twig
from repro.xml.twigstack import twig_stack, twig_stack_embeddings

from reference_oracle import ExtendedDeweyLabeler, TagStream


def sample_document():
    tree = element(
        "a",
        element("b",
                element("c", text="1"),
                element("b", element("c", text="2"))),
        element("d", element("c", text="3")),
    )
    return XMLDocument(tree)


def embedding_keys(embeddings):
    """Hashable form of node embeddings for set comparison."""
    return {
        tuple(sorted((name, node.start) for name, node in emb.items()))
        for emb in embeddings
    }


class TestNaiveNavigation:
    def test_child_axis(self):
        doc = sample_document()
        q = parse_twig("b(/c)")
        embeddings = match_embeddings(doc, q)
        # b@1 has child c=1; nested b has child c=2.
        assert len(embeddings) == 2

    def test_descendant_axis(self):
        doc = sample_document()
        q = parse_twig("b(//c)")
        assert len(match_embeddings(doc, q)) == 3

    def test_single_node_twig(self):
        doc = sample_document()
        q = parse_twig("c")
        assert len(match_embeddings(doc, q)) == 3

    def test_no_match(self):
        doc = sample_document()
        q = parse_twig("zzz")
        assert match_embeddings(doc, q) == []

    def test_value_predicate_filters(self):
        doc = sample_document()
        root = TwigNode("b")
        root.descendant("c", predicate=lambda v: v == 2)
        q = TwigQuery(root)
        embeddings = match_embeddings(doc, q)
        assert {e["c"].value for e in embeddings} == {2}

    def test_match_relation_set_semantics(self):
        # Two embeddings with identical values collapse to one row.
        tree = element("r", element("x", text="5"), element("x", text="5"))
        doc = XMLDocument(tree)
        out = match_relation(doc, parse_twig("x"))
        assert len(out) == 1


class TestStackTreeJoin:
    def test_ancestor_descendant_pairs(self):
        doc = sample_document()
        pairs = stack_tree_join(doc.nodes("b"), doc.nodes("c"))
        assert len(pairs) == 3  # (b1,c1), (b1,c2), (b2,c2)

    def test_parent_child_pairs(self):
        doc = sample_document()
        pairs = stack_tree_join(doc.nodes("b"), doc.nodes("c"),
                                axis=Axis.CHILD)
        assert len(pairs) == 2

    def test_empty_inputs(self):
        doc = sample_document()
        assert stack_tree_join([], doc.nodes("c")) == []
        assert stack_tree_join(doc.nodes("b"), []) == []

    def test_matches_naive_on_random_documents(self):
        rng = random.Random(7)
        for _ in range(25):
            doc = random_document(rng, tags=("x", "y"), max_nodes=30)
            xs, ys = doc.nodes("x"), doc.nodes("y")
            expected_ad = {(a.start, d.start) for a in xs for d in ys
                           if a.start < d.start and d.end < a.end}
            got_ad = {(a.start, d.start)
                      for a, d in stack_tree_join(xs, ys)}
            assert got_ad == expected_ad
            expected_pc = {(a.start, d.start) for a in xs for d in ys
                           if d.parent is a}
            got_pc = {(a.start, d.start)
                      for a, d in stack_tree_join(xs, ys, axis=Axis.CHILD)}
            assert got_pc == expected_pc

    def test_nested_same_tag_stack_depth(self):
        doc = chain_document(10, tags=("x",))
        xs = doc.nodes("x")
        pairs = stack_tree_join(xs, xs)
        assert len(pairs) == 45  # C(10,2) nested pairs


class TestPathStack:
    def test_simple_path(self):
        doc = sample_document()
        q = parse_twig("a(/b(/c))")
        solutions = path_stack(doc, q)
        assert {tuple(n.value for n in s) for s in solutions} == {(None, None, 1)}

    def test_descendant_path(self):
        doc = sample_document()
        q = parse_twig("a(//c)")
        assert len(path_stack(doc, q)) == 3

    def test_rejects_branching(self):
        q = parse_twig("a(/b, /c)")
        with pytest.raises(TwigError):
            path_stack(sample_document(), q)

    def test_single_node_path(self):
        doc = sample_document()
        assert len(path_stack(doc, parse_twig("c"))) == 3

    def test_recursive_tags(self):
        doc = sample_document()
        q = parse_twig("outer=b(//inner=b)")
        solutions = path_stack(doc, q)
        assert len(solutions) == 1

    def test_relation_form(self):
        doc = sample_document()
        out = path_stack_relation(doc, parse_twig("d(/c)"))
        assert set(out) == {(None, 3)}


def twig_strategy():
    """Random small twigs over tags {x, y, z} with distinct names."""

    def build(shape_seed):
        rng = random.Random(shape_seed)
        tags = ["x", "y", "z"]
        root = TwigNode("n0", tag=rng.choice(tags))
        nodes = [root]
        for index in range(rng.randint(0, 4)):
            parent = rng.choice(nodes)
            axis = rng.choice([Axis.CHILD, Axis.DESCENDANT])
            child = parent.add(f"n{index + 1}", tag=rng.choice(tags),
                               axis=axis)
            nodes.append(child)
        return TwigQuery(root)

    return st.builds(build, st.integers(0, 10_000))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), twig_strategy())
def test_all_matchers_agree_with_naive(doc_seed, twig):
    """TwigStack == TJFast == structural pipeline == naive, on random input."""
    doc = random_document(random.Random(doc_seed), tags=("x", "y", "z"),
                          max_nodes=25, value_range=2)
    expected = embedding_keys(match_embeddings(doc, twig))
    assert embedding_keys(twig_stack_embeddings(doc, twig)) == expected
    assert embedding_keys(tjfast_embeddings(doc, twig)) == expected
    expected_rel = match_relation(doc, twig)
    assert twig_stack(doc, twig) == expected_rel
    assert tjfast(doc, twig) == expected_rel
    assert structural_join_pipeline(doc, twig) == expected_rel


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_pathstack_agrees_with_naive_on_paths(seed):
    rng = random.Random(seed)
    doc = random_document(rng, tags=("x", "y"), max_nodes=25, value_range=2)
    # Build a random linear path of depth 1-3.
    node = TwigNode("p0", tag=rng.choice(["x", "y"]))
    root = node
    for index in range(rng.randint(0, 2)):
        node = node.add(f"p{index + 1}", tag=rng.choice(["x", "y"]),
                        axis=rng.choice([Axis.CHILD, Axis.DESCENDANT]))
    twig = TwigQuery(root)
    expected = embedding_keys(match_embeddings(doc, twig))
    names = [q.name for q in twig.nodes()]
    got = {
        tuple(sorted((name, n.start) for name, n in zip(names, solution)))
        for solution in path_stack(doc, twig)
    }
    assert got == expected


class TestTwigStackSpecifics:
    def test_branching_twig(self):
        doc = sample_document()
        q = parse_twig("a(/b, /d)")
        assert len(twig_stack_embeddings(doc, q)) == 1

    def test_stats_record_path_solutions(self):
        doc = sample_document()
        stats = JoinStats()
        twig_stack(doc, parse_twig("b(//c)"), stats=stats)
        labels = [s.label for s in stats.stages]
        assert any("path solutions" in label for label in labels)

    def test_empty_stream_short_circuits(self):
        doc = sample_document()
        q = parse_twig("a(/zzz)")
        assert twig_stack_embeddings(doc, q) == []

    def test_figure1_like_document(self):
        text = """
        <invoices>
          <orderLine><orderID>10963</orderID><ISBN>978-3-16-1</ISBN>
            <price>30</price></orderLine>
          <orderLine><orderID>20134</orderID><ISBN>634-3-12-2</ISBN>
            <price>20</price></orderLine>
        </invoices>
        """
        from repro.xml.parser import parse_document
        doc = parse_document(text)
        q = parse_twig("orderLine(/orderID, /ISBN, /price)")
        out = twig_stack(doc, q).project(["orderID", "ISBN", "price"])
        assert set(out) == {(10963, "978-3-16-1", 30),
                            (20134, "634-3-12-2", 20)}


class TestTJFastSpecifics:
    def test_match_path_against_tags_child_chain(self):
        path = parse_twig("a(/b(/c))")
        nodes = path.nodes()
        assert match_path_against_tags(nodes, ["a", "b", "c"]) == [(0, 1, 2)]

    def test_match_path_against_tags_descendant_gap(self):
        path = parse_twig("a(//c)")
        nodes = path.nodes()
        assert match_path_against_tags(nodes, ["a", "b", "c"]) == [(0, 2)]

    def test_match_path_root_floats(self):
        path = parse_twig("b(/c)")
        nodes = path.nodes()
        assert match_path_against_tags(nodes, ["a", "b", "c"]) == [(1, 2)]

    def test_match_path_multiple_assignments(self):
        # The leaf always maps to the stream element itself (the last
        # position); ancestors may float, giving several assignments.
        path = parse_twig("x1=x(//x2=x)")
        nodes = path.nodes()
        got = match_path_against_tags(nodes, ["x", "x", "x"])
        assert set(got) == {(0, 2), (1, 2)}

    def test_leaf_must_map_to_last(self):
        path = parse_twig("a(//b)")
        nodes = path.nodes()
        assert match_path_against_tags(nodes, ["a", "b", "c"]) == []

    def test_extended_dewey_decode(self):
        doc = sample_document()
        labeler = ExtendedDeweyLabeler(doc)
        for tag in ("c", "d"):
            for node in doc.nodes(tag):
                decoded = labeler.decode(labeler.label(node))
                assert decoded == [n.tag for n in node.path_from_root()]


class TestTagStream:
    def test_stream_orders_by_document_order(self):
        doc = sample_document()
        stream = TagStream.for_query_node(
            doc, parse_twig("c").root)
        starts = [n.start for n in stream.nodes]
        assert starts == sorted(starts)

    def test_stream_filters_by_predicate(self):
        doc = sample_document()
        node = TwigNode("c", predicate=lambda v: v == 2)
        stream = TagStream.for_query_node(doc, node)
        assert len(stream) == 1

    def test_cursor_protocol(self):
        doc = sample_document()
        stream = TagStream(doc.nodes("c"))
        seen = 0
        while not stream.eof():
            stream.head()
            stream.advance()
            seen += 1
        assert seen == 3
        stream.reset()
        assert stream.remaining() == 3
