"""The snapshot manager's bookkeeping: pin counts, the watermark, and
what a live pin retains.

A snapshot holds its relation objects itself; a document's pins are
counted on one :class:`~repro.mvcc.manager.DocumentVersion` record per
(document, version), which holds at most one clone. These tests read
that record and ``SnapshotManager.stats()``, the numbers the service's
``stats`` op reports.
"""

from __future__ import annotations

import gc

import pytest

from repro.data.scenarios import figure1_query
from repro.errors import SnapshotError
from repro.updates.session import QuerySession


def record_of(snapshot, session):
    """The pinned version's record of the session's one document."""
    return snapshot.documents[id(session.document_of("invoices"))]


def write_document(session, text):
    document = session.document_of("invoices")
    session.change_value("invoices", document.nodes("price")[0], text)


def retained(session) -> tuple[int, int]:
    stats = session.mvcc.stats()
    return stats["retained_documents"], stats["retained_relations"]


class TestPinning:
    def test_pin_counts_per_version(self):
        session = QuerySession(figure1_query())
        first, second = session.pin(), session.pin()
        write_document(session, "5")
        third = session.pin()
        assert record_of(first, session) is record_of(second, session)
        assert record_of(first, session).pins == 2
        assert record_of(third, session) is not record_of(first, session)
        assert record_of(third, session).pins == 1
        assert session.mvcc.stats()["pins"] == 3
        for snapshot in (first, second, third):
            snapshot.release()

    def test_release_decrements_then_clears(self):
        session = QuerySession(figure1_query())
        first, second = session.pin(), session.pin()
        record = record_of(first, session)
        write_document(session, "6")
        first.release()
        assert record.pins == 1 and record.clone is not None
        assert session.mvcc.active_count() == 1
        second.release()
        assert record.pins == 0 and record.clone is None
        assert session.mvcc.stats() == {
            "pins": 0, "watermark": None,
            "retained_documents": 0, "retained_relations": 0}

    def test_a_second_release_changes_no_count(self):
        session = QuerySession(figure1_query())
        first, second = session.pin(), session.pin()
        record = record_of(first, session)
        write_document(session, "7")
        first.release()
        first.release()
        # The other pin still counts, and still reads the clone.
        assert record.pins == 1 and record.clone is not None
        assert session.mvcc.active_count() == 1
        assert second.document(id(record.document)) is record.clone
        second.release()
        assert record.pins == 0

    def test_watermark_is_oldest_pin(self):
        session = QuerySession(figure1_query())
        assert session.mvcc.watermark() is None
        pinned = []
        for step in range(3):
            pinned.append(session.pin())
            session.insert("R", (20_000 + step, f"w{step}"))
        versions = [snapshot.version for snapshot in pinned]
        assert versions == sorted(versions) and len(set(versions)) == 3
        middle, oldest, newest = pinned[1], pinned[0], pinned[2]
        middle.release()
        assert session.mvcc.watermark() == oldest.version
        oldest.release()
        assert session.mvcc.watermark() == newest.version
        newest.release()
        assert session.mvcc.watermark() is None


class TestRetention:
    def test_an_unpinned_write_clones_nothing(self):
        session = QuerySession(figure1_query())
        snapshot = session.pin()
        snapshot.release()
        write_document(session, "8")
        session.insert("R", (20_100, "x"))
        assert retained(session) == (0, 0)
        # The released snapshot's record was not frozen after the fact.
        assert session.mvcc.stats()["pins"] == 0

    def test_each_superseded_pinned_version_has_its_own_clone(self):
        session = QuerySession(figure1_query())
        first = session.pin()
        write_document(session, "9")
        second = session.pin()
        write_document(session, "10")
        clones = (record_of(first, session).clone,
                  record_of(second, session).clone)
        assert None not in clones and clones[0] is not clones[1]
        assert retained(session) == (2, 0)
        first.release()
        assert retained(session) == (1, 0)
        second.release()
        assert retained(session) == (0, 0)

    def test_a_relation_pinned_twice_is_retained_once(self):
        session = QuerySession(figure1_query())
        first, second = session.pin(), session.pin()
        session.insert("R", (20_200, "y"))
        assert first.relation("R") is second.relation("R")
        assert retained(session) == (0, 1)
        first.release()
        assert retained(session) == (0, 1)
        second.release()
        assert retained(session) == (0, 0)

    def test_detach_makes_the_one_clone_a_later_write_keeps(self):
        session = QuerySession(figure1_query())
        snapshot = session.pin()
        snapshot.detach()
        clone = record_of(snapshot, session).clone
        assert clone is not None and retained(session) == (1, 0)
        write_document(session, "11")
        assert record_of(snapshot, session).clone is clone
        assert retained(session) == (1, 0)
        snapshot.release()
        assert clone.view is None and retained(session) == (0, 0)

    def test_a_version_moved_outside_the_session_is_refused(self):
        session = QuerySession(figure1_query())
        snapshot = session.pin()
        document = session.document_of("invoices")
        document.bump_version()  # a write that bypassed the editor
        with pytest.raises(SnapshotError, match="never preserved"):
            snapshot.document(id(document))
        with pytest.raises(SnapshotError, match="never preserved"):
            snapshot.detach()
        snapshot.release()

    def test_a_dropped_session_refuses_new_pins(self):
        session = QuerySession(figure1_query())
        manager = session.mvcc
        del session
        gc.collect()
        with pytest.raises(SnapshotError, match="released"):
            manager.pin()
