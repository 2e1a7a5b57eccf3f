"""QuerySession behaviour: API contracts, logs, versioning, fallbacks."""

from __future__ import annotations

import pytest

from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.data.random_instances import random_multimodel_instance
from repro.engine.planner import run_query
from repro.errors import UpdateError
from repro.relational.relation import Relation
from repro.updates.delta import SUBTREE_INSERT, VALUE_CHANGE
from repro.updates.session import QuerySession
from repro.xml.model import XMLDocument, XMLNode, element
from repro.xml.navigation import match_relation
from repro.xml.twig import TwigQuery

from harness import random_subtree, seeded_rng


def small_query() -> MultiModelQuery:
    document = XMLDocument(element(
        "lib",
        element("book", element("isbn", text="7"),
                element("price", text="30")),
        element("book", element("isbn", text="9"),
                element("price", text="40")),
    ))
    root = TwigQuery.build(
        "book", lambda book: (book.child("isbn"), book.child("price")),
        name="book")
    orders = Relation("Orders", ("user", "isbn"), [(1, 7), (2, 9), (3, 8)])
    return MultiModelQuery([orders], [TwigBinding(root, document)],
                           name="Q")


class TestRelationalUpdates:
    def test_insert_then_delete_roundtrip(self):
        query = small_query()
        session = QuerySession(query)
        baseline = session.answer()
        delta = session.insert("Orders", (9, 7))
        assert delta.inserted == ((9, 7),)
        assert (9, 7, None, 30) in session.answer().rows
        session.delete("Orders", (9, 7))
        assert session.answer() == baseline

    def test_versioned_logs_and_swapped_relation(self):
        query = small_query()
        session = QuerySession(query)
        delta = session.insert("Orders", (4, 9))
        versioned = session.relations["Orders"]
        assert versioned.version == 1
        assert delta.version == versioned.version
        # The live query now holds the new Relation object.
        assert query.relations[0] is versioned.relation
        assert (4, 9) in versioned.relation.rows

    def test_a_nullary_relation_gates_the_answer(self):
        query = small_query()
        query.relations.append(Relation("Gate", (), [()]))
        session = QuerySession(query)
        full = session.answer()
        assert full
        session.delete("Gate", ())
        assert not session.answer()
        session.insert("Gate", ())
        assert session.answer() == full == query.naive_join()

    def test_unknown_relation_rejected(self):
        session = QuerySession(small_query())
        with pytest.raises(UpdateError):
            session.insert("Nope", (1, 2))

    def test_arity_mismatch_rejected(self):
        session = QuerySession(small_query())
        with pytest.raises(UpdateError):
            session.insert("Orders", (1, 2, 3))
        with pytest.raises(UpdateError):
            session.delete("Orders", (1, 2, 3))


class TestDocumentUpdates:
    def test_subtree_insert_extends_answer(self):
        query = small_query()
        session = QuerySession(query)
        book = XMLNode("book")
        book.add("isbn", text="8")
        book.add("price", text="99")
        library = query.twigs[0].document.root
        delta = session.insert_subtree("book", library, book)
        assert delta.kind == SUBTREE_INSERT and not delta.rebuilt
        assert (3, 8, None, 99) in session.answer().rows
        session.delete_subtree("book", book)
        assert (3, 8, None, 99) not in session.answer().rows

    def test_value_change_rewrites_answer(self):
        query = small_query()
        session = QuerySession(query)
        document = query.twigs[0].document
        price = document.nodes("price")[0]
        delta = session.change_value("book", price, "31")
        assert delta.kind == VALUE_CHANGE
        assert (1, 7, None, 31) in session.answer().rows
        assert (1, 7, None, 30) not in session.answer().rows

    def test_root_deletion_rejected(self):
        query = small_query()
        session = QuerySession(query)
        with pytest.raises(UpdateError):
            session.delete_subtree("book", query.twigs[0].document.root)

    def test_foreign_node_rejected(self):
        query = small_query()
        session = QuerySession(query)
        stray = XMLDocument(element("lib", element("book")))
        with pytest.raises(UpdateError):
            session.delete_subtree("book", stray.root.children[0])

    def test_attached_subtree_rejected(self):
        query = small_query()
        session = QuerySession(query)
        document = query.twigs[0].document
        with pytest.raises(UpdateError):
            session.insert_subtree("book", document.root,
                                   document.root.children[0])

    def test_own_root_as_subtree_rejected(self):
        """Regression: inserting the document's own root under one of
        its descendants would create a parent cycle (and hang)."""
        query = small_query()
        session = QuerySession(query)
        document = query.twigs[0].document
        with pytest.raises(UpdateError):
            session.insert_subtree("book", document.root.children[0],
                                   document.root)

    def test_foreign_document_root_rejected(self):
        """Regression: a live foreign document's root must not be
        stolen and relabelled in place; a detached copy is fine."""
        query = small_query()
        session = QuerySession(query)
        document = query.twigs[0].document
        stray = XMLDocument(element("book", element("isbn", text="5"),
                                    element("price", text="1")))
        with pytest.raises(UpdateError):
            session.insert_subtree("book", document.root, stray.root)
        # The sanctioned form: insert a detached structural copy.
        session.insert_subtree("book", document.root, stray.root.copy())
        assert (None, 5, 1) in match_relation(document,
                                              query.twigs[0].twig).rows
        assert stray.root.parent is None  # foreign tree untouched
        assert stray.root.start == 0  # and keeps its own labels

    def test_deleted_subtree_can_be_reinserted(self):
        query = small_query()
        session = QuerySession(query)
        document = query.twigs[0].document
        book = document.root.children[0]
        baseline = session.answer()
        session.delete_subtree("book", book)
        session.insert_subtree("book", document.root, book, index=0)
        assert session.answer() == baseline

    def test_churn_fallback_rebuilds(self):
        query = small_query()
        session = QuerySession(query, churn_threshold=0.0)
        book = XMLNode("book")
        book.add("isbn", text="8")
        book.add("price", text="99")
        delta = session.insert_subtree(
            "book", query.twigs[0].document.root, book)
        assert delta.rebuilt
        editor = session.twig_editors["book"]
        assert editor.rebuilds == 1 and editor.patches == 0
        assert (3, 8, None, 99) in session.answer().rows

    def test_patch_and_rebuild_paths_agree(self):
        rng = seeded_rng("paths-agree")
        patched = QuerySession(random_multimodel_instance(11),
                               churn_threshold=10.0)
        rebuilt = QuerySession(random_multimodel_instance(11),
                               churn_threshold=0.0)
        for session in (patched, rebuilt):
            binding = session.query.twigs[0]
            anchor = binding.document.root
            sub = random_subtree(seeded_rng("paths-agree-sub"),
                                 ["x", "y", "z"])
            session.insert_subtree(binding.name, anchor, sub, index=0)
        assert patched.answer().sorted_rows() \
            == rebuilt.answer().sorted_rows()


class TestSessionState:
    def test_version_advances_per_update(self):
        session = QuerySession(small_query())
        v0 = session.version
        session.insert("Orders", (5, 5))
        assert session.version > v0

    def test_answer_object_cached_between_updates(self):
        session = QuerySession(small_query())
        assert session.answer() is session.answer()
        session.insert("Orders", (5, 5))
        fresh = session.answer()
        assert fresh is session.answer()

    def test_kernels_run_over_maintained_instance(self):
        query = small_query()
        session = QuerySession(query)
        session.insert("Orders", (9, 7))
        expected = query.naive_join()
        assert run_query(query, algorithm="xjoin") == expected
        assert run_query(query, algorithm="baseline") == expected
