"""The columnar document store: array invariants, caching, statistics."""

import random

import pytest

from repro.xml.columnar import (
    ColumnarDocument,
    columnar,
    document_stats,
)
from repro.xml.generator import random_document
from repro.xml.model import XMLDocument, element
from repro.xml.twig import TwigNode
from repro.xml.xmark import xmark_document


def sample_document():
    tree = element(
        "a",
        element("b",
                element("c", text="1"),
                element("b", element("c", text="2"))),
        element("d", element("c", text="3")),
    )
    return XMLDocument(tree)


class TestArrays:
    def test_arrays_mirror_node_labels(self):
        rng = random.Random(7)
        for _ in range(10):
            document = random_document(rng, max_nodes=40)
            view = ColumnarDocument(document)
            assert view.size == document.size()
            for nid, node in enumerate(view.nodes):
                assert view.starts[nid] == node.start
                assert view.ends[nid] == node.end
                assert view.levels[nid] == node.level
                assert view.values[nid] == node.value
                assert view.tags[view.tag_ids[nid]] == node.tag
                parent = view.parents[nid]
                if node.parent is None:
                    assert parent == -1
                else:
                    assert view.nodes[parent] is node.parent

    def test_document_order_and_postings_sorted(self):
        view = columnar(xmark_document(0.05, seed=1))
        assert list(view.starts) == sorted(view.starts)
        for tid in range(len(view.tags)):
            assert list(view.tag_starts[tid]) == sorted(view.tag_starts[tid])
            assert len(view.tag_nids[tid]) == len(view.tag_starts[tid]) \
                == len(view.tag_ends[tid])

    def test_path_ids_intern_root_tag_paths(self):
        view = columnar(sample_document())
        for nid in range(view.size):
            tags = tuple(n.tag for n in view.nodes[nid].path_from_root())
            assert view.paths[view.path_ids[nid]] == tags
        # Two c nodes under b chains share structure only when the whole
        # root path matches: a/b/c vs a/b/b/c vs a/d/c are distinct.
        c_paths = {view.paths[view.path_ids[nid]]
                   for nid in view.postings("c")[0]}
        assert c_paths == {("a", "b", "c"), ("a", "b", "b", "c"),
                           ("a", "d", "c")}

    def test_ancestry_walks_to_root(self):
        view = columnar(sample_document())
        deepest = max(range(view.size), key=lambda nid: view.levels[nid])
        chain = view.ancestry(deepest)
        assert chain[0] == 0 and chain[-1] == deepest
        assert [view.levels[nid] for nid in chain] == \
            list(range(len(chain)))

    def test_stream_shares_postings_without_predicate(self):
        view = columnar(sample_document())
        query_node = TwigNode("c")
        stream = view.stream(query_node)
        nids, starts, _ends = view.postings("c")
        assert stream.nids is nids and stream.starts is starts

    def test_stream_filters_with_predicate(self):
        view = columnar(sample_document())
        query_node = TwigNode("c", predicate=lambda v: v == 2)
        stream = view.stream(query_node)
        assert len(stream) == 1
        assert view.values[stream.head_nid()] == 2

    def test_unknown_tag_is_empty(self):
        view = columnar(sample_document())
        assert len(view.stream(TwigNode("zzz"))) == 0


class TestCaching:
    def test_columnar_memoised_per_document(self):
        document = sample_document()
        assert columnar(document) is columnar(document)

    def test_reindex_invalidates(self):
        document = sample_document()
        before = columnar(document)
        stats_before = document_stats(document)
        document.root.add("e", text="9")
        document.reindex()
        after = columnar(document)
        assert after is not before
        assert after.size == before.size + 1
        assert document_stats(document) is not stats_before

    def test_distinct_documents_get_distinct_views(self):
        a, b = sample_document(), sample_document()
        assert columnar(a) is not columnar(b)

    def test_views_do_not_pin_documents(self):
        """Cached views must not keep dropped documents alive."""
        import gc
        import weakref

        document = sample_document()
        ref = weakref.ref(document)
        columnar(document)
        document_stats(document)
        del document
        gc.collect()
        assert ref() is None


class TestDocumentStats:
    def test_tag_and_path_counts(self):
        stats = document_stats(sample_document())
        assert stats.size == 7
        assert stats.tag_counts["c"] == 3
        assert "zzz" not in stats.tag_counts
        assert stats.path_counts[("a", "b", "c")] == 1

    def test_stats_are_an_entry_of_the_views_derived(self):
        document = sample_document()
        stats = document_stats(document)
        assert columnar(document).derived["stats"] is stats
        columnar(document).derived.clear()  # a cold read summarises again
        assert document_stats(document) == stats
        assert document_stats(document) is not stats

    def test_an_attached_arena_holds_its_view(self):
        from repro.xml.arenaview import attach_arena_document
        from repro.xml.serializer import serialize
        from repro.xml.streaming import stream_document

        document = sample_document()
        arena = stream_document([serialize(document)])
        try:
            handle, view = attach_arena_document(arena)
            assert handle.view is view and columnar(handle) is view
            assert document_stats(handle) is view.derived["stats"]
            assert document_stats(handle) == document_stats(document)
        finally:
            arena.close()
            arena.unlink()

    def test_chain_count_is_suffix_sum(self):
        stats = document_stats(sample_document())
        # c nodes reachable by a b/c parent-child step: a/b/c and a/b/b/c.
        assert stats.chain_count(["b", "c"]) == 2
        assert stats.chain_count(["c"]) == 3
        assert stats.chain_count(["a", "b", "c"]) == 1
        assert stats.chain_count([]) == 0

    def test_chain_count_bounds_path_cardinality(self):
        """The planner estimate dominates the true distinct-row count."""
        from repro.core.decomposition import (
            decompose,
            path_relation_cardinality,
        )
        from repro.xml.twig_parser import parse_twig

        document = xmark_document(0.1, seed=3)
        stats = document_stats(document)
        twig = parse_twig("oa=open_auction(/ir=itemref, //pr=personref)")
        for path in decompose(twig).paths:
            estimate = stats.chain_count([n.tag for n in path.nodes])
            assert estimate >= path_relation_cardinality(document, path)


class TestPlannedTwigAlgorithms:
    """One pick for every shape: the matcher matrix supports no other
    rule (docs/twig_algorithms.md)."""

    def test_linear_twig_plans_accel(self):
        from repro.engine.planner import choose_twig_algorithm
        from repro.xml.twig_parser import parse_twig

        document = sample_document()
        assert choose_twig_algorithm(document, parse_twig("a(/b(//c))")) \
            == "accel"

    def test_pc_branching_plans_accel(self):
        from repro.engine.planner import choose_twig_algorithm
        from repro.xml.twig_parser import parse_twig

        document = sample_document()
        assert choose_twig_algorithm(document, parse_twig("a(/b, //c)")) \
            == "accel"

    def test_ad_only_branching_plans_accel_whatever_the_stats(self):
        from repro.engine.planner import choose_twig_algorithm
        from repro.xml.twig_parser import parse_twig

        # The old rule split these two on the leaf share of the
        # candidates (twigstack / tjfast); the pick no longer reads
        # document statistics at all.
        leaf_heavy = sample_document()  # 3 c leaves vs 3 b internals
        assert choose_twig_algorithm(
            leaf_heavy, parse_twig("b(//c1=c, //c2=c)")) == "accel"
        wide = XMLDocument(element("a", *[element("a")
                                          for _ in range(10)],
                                   element("c", element("d", text="1"))))
        assert choose_twig_algorithm(
            wide, parse_twig("a(//c, //d)")) == "accel"

    def test_plan_query_carries_twig_plan(self):
        from repro.core.multimodel import MultiModelQuery, TwigBinding
        from repro.data.scenarios import figure1_query
        from repro.engine.planner import plan_query
        from repro.errors import PlanError
        from repro.xml.twig_parser import parse_twig

        query = figure1_query()
        plan = plan_query(query)
        assert plan.algorithm == "xjoin"
        assert plan.twig_algorithm("invoices") == "accel"
        assert dict(plan.path_cardinalities)  # estimates present
        forced = plan_query(query, twig_algorithm="twigstack")
        assert forced.twig_algorithm("invoices") == "twigstack"
        with pytest.raises(PlanError, match="unknown twig algorithm"):
            plan_query(query, twig_algorithm="nope")
        branching = MultiModelQuery(
            [], [TwigBinding(parse_twig("a(/b, /c)", name="T"),
                             sample_document())])
        with pytest.raises(PlanError, match="cannot evaluate"):
            plan_query(branching, twig_algorithm="pathstack")


class TestTagValues:
    """``value_index`` and the domain counts read one cached gather per
    tag and view version, on every view kind."""

    TEXT = ("<r><a>7</a><a/><a>7</a><a>x</a><b><a/></b>"
            "<c>1</c><c>2</c></r>")

    @staticmethod
    def reference(view, tag):
        index = {}
        for nid in view.postings(tag)[0]:
            index.setdefault(view.values[nid], []).append(nid)
        return index

    def check(self, view):
        for tag in ("a", "c", "zzz"):
            index = self.reference(view, tag)
            assert view.value_index(tag) == index
            node = TwigNode(tag)
            assert view.domain(node) == (
                len(index) - (None in index), len(index.get(None, ())))
        odd = TwigNode("c", predicate=lambda v: v == 1)
        assert view.domain(odd) == (1, 0)

    def test_in_memory_view(self):
        from repro.xml.parser import parse_document

        self.check(columnar(parse_document(self.TEXT)))

    def test_attached_arena_gathers_once_per_tag(self, monkeypatch):
        from repro.xml.arenaview import ArenaValues, attach_arena_document
        from repro.xml.streaming import stream_document

        calls = []
        gather = ArenaValues.gather
        monkeypatch.setattr(
            ArenaValues, "gather",
            lambda self, nids: calls.append(len(nids)) or gather(self, nids))
        arena = stream_document([self.TEXT])
        try:
            _handle, view = attach_arena_document(arena)
            self.check(view)
            self.check(view)
            assert sorted(calls) == [0, 2, 5]  # zzz, c and a: once each
        finally:
            arena.close()
            arena.unlink()

    def test_patched_view_gathers_afresh(self):
        from repro.updates.documents import DocumentEditor
        from repro.xml.parser import parse_document

        document = parse_document(self.TEXT)
        before = columnar(document)
        self.check(before)
        assert before.domain(TwigNode("a")) == (2, 2)
        DocumentEditor(document).change_value(document.nodes("a")[1], "9")
        after = columnar(document)
        assert ("tag_values", "a") not in after.derived
        self.check(after)
        assert after.domain(TwigNode("a")) == (3, 1)
