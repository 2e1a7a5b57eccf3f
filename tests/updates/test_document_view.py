"""A document holds its columnar view: ``document.view``.

``columnar(document)`` builds it on first use and ``reindex()`` drops
it, so a document object reused after a mutation can never be served a
stale view. The update layer's patch path keeps the one view, spliced
in place: a splice resets everything it derived (the stats included),
a value edit drops what reads the edited tag's values, so a patch can
never serve stale stats or stale derived indexes either.
"""

from __future__ import annotations

import gc
import weakref

from repro.core.decomposition import decompose, twig_input
from repro.updates.documents import DocumentEditor
from repro.xml.columnar import ColumnarDocument, columnar, columnar_as, \
    document_stats
from repro.xml.interface import get_twig_algorithm
from repro.xml.model import XMLDocument, element
from repro.xml.twig import Axis, TwigNode
from repro.xml.twig_parser import parse_twig
from harness import clone_document


def build_document() -> XMLDocument:
    return XMLDocument(element(
        "a",
        element("b", element("c", text="1")),
        element("d", text="2"),
    ))


class Probe:
    """Planted in a view's ``derived``: dies when that dict does."""


def planted(view: ColumnarDocument) -> "weakref.ref":
    probe = view.derived["probe"] = Probe()
    return weakref.ref(probe)


def key_parts(key) -> set:
    """The atoms of a ``derived`` key, nested tuples flattened."""
    if not isinstance(key, tuple):
        return {key}
    return set().union(*map(key_parts, key))


def derive_everything(document: XMLDocument) -> ColumnarDocument:
    """*document*'s view with an entry of every kind derived: per-tag
    values, dictionaries, indexes and domains, the edges, the stats and
    the twig inputs of a twig with a P-C path and an A-D edge (its node
    names are not tags, so a key names a tag only as a tag)."""
    view = columnar(document)
    twig = parse_twig("r=a(/x=b(/y=c), //z=d)")
    get_twig_algorithm("accel").run(document, twig)
    decomposition = decompose(twig)
    for atom in decomposition.paths + decomposition.pairs:
        twig_input(document, atom, frozenset({"r", "z"}))
        twig_input(document, atom, order=("z", "y", "x", "r"))
    for tag in view.tags:
        view.value_index(tag)
        view.domain(TwigNode("q", tag=tag, predicate=bool))
    document_stats(document)
    return view


class TestReindex:
    def test_memoised_on_the_document(self):
        document = build_document()
        assert document.view is None
        view = columnar(document)
        assert columnar(document) is view
        assert document.view is view
        assert document_stats(document) is document_stats(document)

    def test_reused_document_never_serves_stale_view(self):
        """The regression: mutate + reindex the same object, re-read."""
        document = build_document()
        stale_view = columnar(document)
        stale_stats = document_stats(document)
        document.root.add("e", text="3")
        document.reindex()
        view = columnar(document)
        stats = document_stats(document)
        assert view is not stale_view
        assert stats is not stale_stats
        assert view.size == document.size() == stale_view.size + 1
        assert stats.tag_counts["e"] == 1
        assert "e" not in stale_stats.tag_counts

    def test_superseded_views_die_at_reindex(self):
        document = build_document()
        gc.disable()  # a view is freed by reference count alone
        try:
            for _ in range(5):
                document_stats(document)
                derived = planted(columnar(document))
                document.reindex()
                assert document.view is None
                assert derived() is None
        finally:
            gc.enable()

    def test_a_dropped_document_takes_its_view(self):
        document = build_document()
        derived = planted(columnar(document))
        document_stats(document)
        del document
        gc.collect()  # the tree is cyclic: one collection
        assert derived() is None


class TestPatch:
    def test_a_patch_keeps_the_view_and_resets_what_it_derived(self):
        """A value edit on ``d`` drops exactly what reads ``d``'s values;
        every other entry, the edges and the stats stay the same
        objects. A subtree insert moves labels: everything is reset."""
        document = build_document()
        editor = DocumentEditor(document, churn_threshold=10.0)
        view = derive_everything(document)
        stats = document_stats(document)
        values = view.tag_values("d")
        derived = planted(view)
        before = dict(view.derived)
        version = document.version
        editor.change_value(document.nodes("d")[0], "5")
        assert document.view is view and document.version == version + 1
        gone = set(before) - set(view.derived)
        assert not set(view.derived) - set(before)
        assert gone == {key for key in before
                        if "d" in key_parts(key) and key[0] != "edge"}
        assert {key[0] for key in gone if isinstance(key[0], str)} == {
            "tag_values", "tag_dictionary", "tag_codes", "value_index",
            "node_dictionary", "domain"}
        assert sum(isinstance(key[0], type) for key in gone) >= 6
        assert all(view.derived[key] is before[key] for key in view.derived)
        assert ("edge", "a", "d", Axis.DESCENDANT) in view.derived
        assert ("value_index", "c") in view.derived
        assert document_stats(document) is stats
        assert derived() is not None
        assert view.tag_values("d") == [5] != values
        assert view.value_index("d") \
            == columnar(clone_document(document)).value_index("d")
        del before  # holds the probe
        editor.insert_subtree(document.root, element("d", text="6"))
        assert document.view is view
        assert view.derived == {} and derived() is None
        assert view.tag_values("d") == [5, 6]
        assert document_stats(document) is not stats
        assert document_stats(document).tag_counts["d"] == 2

    def test_neither_path_serves_a_stale_view_or_stale_stats(self):
        """After every edit, on the patch and the rebuild path, the view
        and stats read now are a fresh clone's, and a value index read
        before the edit is not served after it."""
        for threshold in (10.0, 0.0):
            document = build_document()
            editor = DocumentEditor(document, churn_threshold=threshold)
            for step in range(6):
                before = columnar(document).value_index("c")
                if step % 3 == 0:
                    editor.change_value(document.nodes("c")[0], str(step))
                elif step % 3 == 1:
                    editor.insert_subtree(document.nodes("b")[0],
                                          element("c", text=str(step)))
                else:
                    editor.delete_subtree(document.nodes("c")[-1])
                fresh = clone_document(document)
                view = columnar(document)
                assert view.value_index("c") is not before
                assert view.value_index("c") \
                    == columnar(fresh).value_index("c"), (threshold, step)
                assert list(view.starts) == list(columnar(fresh).starts)
                assert document_stats(document) == document_stats(fresh)
            # A value edit is always a patch.
            assert (editor.rebuilds, editor.patches) == (
                (4, 2) if threshold == 0.0 else (0, 6))


class TestColumnarAs:
    def test_the_block_reads_the_given_view_then_the_documents(self):
        document = build_document()
        view = columnar(document)
        derived = planted(view)
        other = ColumnarDocument(document)
        with columnar_as(document, other):
            assert columnar(document) is other
        assert columnar(document) is view
        assert derived() is not None
