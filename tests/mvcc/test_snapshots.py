"""Session-level snapshot semantics: copy-on-write, release, detach.

Every check compares a pinned snapshot against a rebuild-from-scratch
oracle: the same inputs cloned at pin time (fresh relations, a fresh
document tree — no shared caches) and joined naively.
"""

from __future__ import annotations

import pytest

from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.data.scenarios import figure1_query
from repro.engine.planner import run_query
from repro.errors import SnapshotError
from repro.mvcc.manager import DocumentVersion
from repro.relational.relation import Relation
from repro.updates.session import QuerySession
from repro.xml.model import XMLDocument, XMLNode


def oracle_at(session: QuerySession) -> Relation:
    """Naive join of the session's inputs cloned *right now*."""
    query = session.query
    clone = MultiModelQuery(
        [Relation(r.name, r.schema.attributes, list(r.rows))
         for r in query.relations],
        [TwigBinding(b.twig, XMLDocument(b.document.root.copy()))
         for b in query.twigs],
        name=query.name)
    return clone.naive_join()


def retained(session: QuerySession) -> tuple[int, int]:
    """(document clones, superseded relations) live snapshots keep."""
    stats = session.mvcc.stats()
    return stats["retained_documents"], stats["retained_relations"]


def order_line(order_id: int) -> XMLNode:
    line = XMLNode("orderLine")
    line.add("orderID", text=str(order_id))
    line.add("ISBN", text=f"isbn-{order_id}")
    line.add("price", text="11")
    return line


class TestCopyOnWrite:
    def test_pin_is_lazy_nothing_retained_until_a_write(self):
        session = QuerySession(figure1_query())
        snapshot = session.pin()
        assert retained(session) == (0, 0)
        # Unsuperseded pins read the live objects.
        assert snapshot.relation("R") is session.relations["R"].relation
        document = session.document_of("invoices")
        assert snapshot.document(id(document)) is document
        snapshot.release()

    def test_relational_write_preserves_the_pinned_version(self):
        session = QuerySession(figure1_query())
        snapshot = session.pin()
        frozen = oracle_at(session)
        pinned = snapshot.relation("R")
        session.insert("R", (10963, "eve"))
        assert session.relations["R"].relation is not pinned
        assert snapshot.relation("R") is pinned
        assert retained(session) == (0, 1)
        assert snapshot.answer().sorted_rows() == frozen.sorted_rows()
        assert snapshot.run().sorted_rows() == frozen.sorted_rows()
        assert session.answer().sorted_rows() != frozen.sorted_rows()
        snapshot.release()
        assert retained(session) == (0, 0)

    def test_document_write_freezes_a_clone_first(self):
        session = QuerySession(figure1_query())
        snapshot = session.pin()
        frozen = oracle_at(session)
        document = session.document_of("invoices")
        live_price = document.nodes("price")[0]
        session.change_value("invoices", live_price, "999")
        assert retained(session) == (1, 0)
        # The snapshot reads the clone, never the patched live tree.
        pinned_doc = snapshot.document(id(document))
        assert pinned_doc is not document
        assert pinned_doc.nodes("price")[0].text != "999"
        assert snapshot.run().sorted_rows() == frozen.sorted_rows()
        assert session.answer().sorted_rows() != frozen.sorted_rows()
        snapshot.release()

    def test_one_clone_serves_many_writes_at_one_version(self,
                                                         monkeypatch):
        frozen = []
        freeze = DocumentVersion.freeze

        def counted(record: DocumentVersion) -> None:
            frozen.append(record)
            freeze(record)

        monkeypatch.setattr(DocumentVersion, "freeze", counted)
        session = QuerySession(figure1_query())
        snapshot = session.pin()
        document = session.document_of("invoices")
        root = document.root
        session.insert_subtree("invoices", root, order_line(50_001))
        session.insert_subtree("invoices", root, order_line(50_002))
        session.change_value("invoices", document.nodes("price")[0], "7")
        assert len(frozen) == 1 and retained(session) == (1, 0)
        snapshot.release()
        assert frozen[0].clone is None and retained(session) == (0, 0)

    def test_staggered_snapshots_each_see_their_own_version(self):
        session = QuerySession(figure1_query())
        pinned = []
        for step in range(3):
            pinned.append((session.pin(), oracle_at(session)))
            session.insert("R", (10963, f"user-{step}"))
            session.change_value(
                "invoices",
                session.document_of("invoices").nodes("price")[0],
                str(100 + step))
        for snapshot, frozen in pinned:
            assert snapshot.answer().sorted_rows() == frozen.sorted_rows()
            assert snapshot.run().sorted_rows() == frozen.sorted_rows()
        assert session.mvcc.watermark() == 0
        # One superseded relation object and one clone per pin.
        assert retained(session) == (3, 3)
        for snapshot, _frozen in pinned:
            snapshot.release()
        assert session.mvcc.watermark() is None
        assert session.mvcc.active_count() == 0
        assert retained(session) == (0, 0)


class TestLifecycle:
    def test_released_snapshot_refuses_reads(self):
        session = QuerySession(figure1_query())
        snapshot = session.pin()
        snapshot.release()
        snapshot.release()  # idempotent
        with pytest.raises(SnapshotError, match="released"):
            snapshot.answer()
        with pytest.raises(SnapshotError, match="released"):
            snapshot.query()

    def test_context_manager_releases(self):
        session = QuerySession(figure1_query())
        with session.pin() as snapshot:
            assert session.mvcc.active_count() == 1
        assert snapshot.released
        assert session.mvcc.active_count() == 0

    def test_detach_freezes_live_documents(self):
        session = QuerySession(figure1_query())
        snapshot = session.pin()
        document = session.document_of("invoices")
        assert snapshot.document(id(document)) is document
        snapshot.detach()
        # One frozen clone per pinned document, before any write.
        assert retained(session) == (1, 0)
        clone = snapshot.document(id(document))
        assert clone is not document
        snapshot.detach()  # already frozen: no second clone
        assert snapshot.document(id(document)) is clone
        frozen = oracle_at(session)
        session.delete_subtree("invoices",
                               document.nodes("orderLine")[0])
        assert snapshot.run().sorted_rows() == frozen.sorted_rows()
        snapshot.release()

    def test_relation_only_session_supports_snapshots(self):
        query = MultiModelQuery(
            [Relation("R", ("a", "b"), [(1, 2), (2, 3)]),
             Relation("S", ("b", "c"), [(2, 9), (3, 7)])],
            name="RS")
        session = QuerySession(query)
        snapshot = session.pin()
        frozen = oracle_at(session)
        # No documents: nothing to freeze, detach or not.
        assert snapshot.documents == {}
        snapshot.detach()
        assert retained(session) == (0, 0)
        session.delete("R", (1, 2))
        session.insert("S", (3, 8))
        assert snapshot.answer().sorted_rows() == frozen.sorted_rows()
        assert snapshot.run().sorted_rows() == frozen.sorted_rows()
        snapshot.release()


class TestPlannerDefaultRun:
    def test_run_defaults_to_the_planners_choice(self):
        session = QuerySession(figure1_query())
        default = run_query(session.query)
        explicit = run_query(session.query, algorithm="baseline")
        assert default.sorted_rows() == explicit.sorted_rows()

    def test_parity_holds_across_updates(self):
        session = QuerySession(figure1_query())
        session.insert("R", (10963, "eve"))
        session.change_value(
            "invoices",
            session.document_of("invoices").nodes("price")[0], "55")
        assert run_query(session.query).sorted_rows() \
            == run_query(session.query,
                         algorithm="baseline").sorted_rows() \
            == session.answer().sorted_rows()
