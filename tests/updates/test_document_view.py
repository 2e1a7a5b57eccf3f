"""A document holds its columnar view: ``document.view``.

``columnar(document)`` builds it on first use and ``reindex()`` drops
it, so a document object reused after a mutation can never be served a
stale view. The update layer's patch path keeps the one view, spliced
in place, and resets what it derived (the stats included), so a patch
can never serve stale stats or stale derived indexes either.
"""

from __future__ import annotations

import gc
import weakref

from repro.updates.documents import DocumentEditor
from repro.xml.columnar import ColumnarDocument, columnar, columnar_as, \
    document_stats
from repro.xml.model import XMLDocument, element
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
        document = build_document()
        editor = DocumentEditor(document, churn_threshold=10.0)
        view = columnar(document)
        stats = document_stats(document)
        values = view.tag_values("d")
        derived = planted(view)
        version = document.version
        editor.change_value(document.nodes("d")[0], "5")
        assert document.view is view and document.version == version + 1
        assert derived() is None
        assert view.tag_values("d") == [5] != values
        editor.insert_subtree(document.root, element("d", text="6"))
        assert document.view is view
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
