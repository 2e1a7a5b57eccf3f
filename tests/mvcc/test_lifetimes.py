"""What a version derives lives exactly as long as the version.

A relation holds its artefacts (``relation.artefacts``: statistics,
dictionaries, encoded inputs) and a document its columnar view
(``document.view``, whose ``derived`` holds the stats and twig
inputs). So these tests assert lifetimes, not cache membership: weak
references to probes planted in an artefact dict or a view's
``derived`` die when their input's version is gone. Where the parent
suites did, they run with the collector off: reclamation must not lean
on it.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import weakref

from repro.data.scenarios import bookstore_instance, figure1_query
from repro.engine.encoded import relation_artefacts
from repro.engine.planner import run_query
from repro.service.server import ReproService
from repro.updates.session import QuerySession
from repro.xml.columnar import columnar, document_stats
from repro.xml.model import element


#: The update suites' seed (``tests/updates/harness.py``), echoed by
#: :class:`TestUnpinnedStream`'s failures.
UPDATE_SEED = int(os.environ.get("REPRO_UPDATE_SEED", "20260728"))


class Probe:
    """Planted in a dict: dies when that dict does."""


def planted(derived: dict) -> "weakref.ref":
    probe = derived["probe"] = Probe()
    return weakref.ref(probe)


class TestPinnedClone:
    def test_the_clone_keeps_its_view_while_pinned(self):
        """Writer churn on the live document, subtree splices included,
        never touches the pinned clone's view or its stats."""
        session = QuerySession(figure1_query())
        snapshot = session.pin()
        document = session.document_of("invoices")
        session.change_value("invoices", document.nodes("price")[0], "1")
        clone = snapshot.document(id(document))
        assert clone is not document
        view = columnar(clone)
        stats = document_stats(clone)
        live = columnar(document)
        for _ in range(3):  # every insert splices the live view
            session.insert_subtree("invoices", document.root,
                                   element("note", text="x"))
        assert columnar(document) is live and live.size == view.size + 3
        assert columnar(clone) is view
        assert document_stats(clone) is stats
        snapshot.release()

    def test_the_last_release_drops_the_clones_view(self):
        session = QuerySession(figure1_query())
        snapshot = session.pin()
        document = session.document_of("invoices")
        session.change_value("invoices", document.nodes("price")[0], "2")
        clone = snapshot.document(id(document))
        document_stats(clone)
        derived = planted(columnar(clone).derived)
        gc.disable()
        try:
            snapshot.release()
            # The test still holds the clone; its view went anyway.
            assert clone.view is None
            assert derived() is None
        finally:
            gc.enable()

    def test_a_shared_clone_keeps_its_view_until_the_last_pin(self):
        session = QuerySession(figure1_query())
        first = session.pin()
        second = session.pin()
        document = session.document_of("invoices")
        session.change_value("invoices", document.nodes("price")[0], "3")
        clone = first.document(id(document))
        assert second.document(id(document)) is clone
        view = columnar(clone)
        first.release()
        assert second.document(id(document)) is clone
        assert clone.view is view
        second.release()
        assert clone.view is None

    def test_snapshot_reads_stay_cheap_after_writer_churn(self):
        """Reading a pinned snapshot repeatedly must reuse one frozen
        view — built once per clone, not once per read, even while the
        writer keeps superseding."""
        session = QuerySession(figure1_query())
        snapshot = session.pin()
        document = session.document_of("invoices")
        for step in range(3):
            session.change_value("invoices",
                                 document.nodes("price")[0], str(step))
        clone = snapshot.document(id(document))
        first_view = columnar(clone)
        for _ in range(3):
            assert snapshot.document(id(document)) is clone
            assert columnar(clone) is first_view
        snapshot.release()


class TestRelations:
    def test_an_unpinned_superseded_relation_dies_at_apply(self):
        session = QuerySession(figure1_query())
        run_query(session.query)
        superseded = weakref.ref(session.query.relations[0])
        artefacts = planted(relation_artefacts(superseded()))
        gc.disable()
        try:
            session.insert("R", (99, "zed"))
            assert superseded() is None and artefacts() is None
        finally:
            gc.enable()

    def test_a_pinned_superseded_relations_artefacts_die_at_release(self):
        session = QuerySession(figure1_query())
        snapshot = session.pin()
        pinned = snapshot.relation("R")
        run_query(snapshot.query())  # builds the version's artefacts
        assert pinned.artefacts
        artefacts = planted(relation_artefacts(pinned))
        session.insert("R", (99, "zed"))
        assert session.query.relations[0] is not pinned
        superseded = weakref.ref(pinned)
        del pinned
        gc.disable()
        try:
            # The snapshot still reads it, and nothing else holds it.
            assert superseded() is not None and artefacts() is not None
            snapshot.release()
            # The caller still holds the released snapshot.
            assert snapshot.released
            assert superseded() is None and artefacts() is None
        finally:
            gc.enable()


class TestServedReads:
    def test_a_superseded_relation_dies_though_evaluates_ran_on_it(self):
        """A prepared read holds the current version's relations; the
        batch that supersedes them drops it, so after the release of
        the last pin nothing holds them: not the prepared reads, not
        the held plans, not the feedback store."""
        async def request(service: ReproService, **message) -> dict:
            response = await service.handle_request(message)
            assert response["ok"], response
            return response

        async def scenario():
            service = ReproService("bookstore:orders=20,users=8")
            sid = (await request(service, op="open", tenant="t"))["session"]
            snapshot = (await request(service, op="pin", tenant="t",
                                      session=sid))["snapshot"]
            for fields in ({}, {"algorithm": "xjoin"}):
                for _ in range(3):
                    await request(service, op="query", tenant="t",
                                  session=sid, snapshot=snapshot,
                                  evaluate=True, **fields)
            assert any(held.prepared for held in service._plans.values())
            superseded = weakref.ref(service.master.relations["R"].relation)
            artefacts = planted(relation_artefacts(superseded()))
            gc.disable()
            try:
                await request(service, op="update", tenant="w", ops=[
                    {"kind": "insert", "relation": "R",
                     "row": [10005, "eve"]}])
                # The pin still reads it, and evaluates on it keep nothing.
                await request(service, op="query", tenant="t", session=sid,
                              snapshot=snapshot, evaluate=True)
                assert superseded() is not None
                await request(service, op="release", tenant="t",
                              session=sid, snapshot=snapshot)
                assert superseded() is None and artefacts() is None
            finally:
                gc.enable()

        asyncio.run(scenario())


class TestUnpinnedStream:
    def test_artefacts_live_only_on_current_versions(self):
        """After 20 seeded, unpinned batches nothing derived from a
        superseded version survives: each relation version's artefacts
        die with it, and the document keeps its one view, whose
        ``derived`` each splice resets."""
        rng = random.Random(f"{UPDATE_SEED}:unpinned-stream")
        session = QuerySession(bookstore_instance(20, 5, seed=1))
        relation_probes: "list[tuple[weakref.ref, weakref.ref]]" = []
        view_probes: "list[tuple[int, weakref.ref]]" = []
        gc.collect()
        gc.disable()
        try:
            for _ in range(20):
                document = session.document_of("invoices")
                roll = rng.random()
                if roll < 0.4:
                    session.insert("R", (rng.randrange(10_000, 10_030),
                                         f"u{rng.randrange(5)}"))
                elif roll < 0.6:
                    rows = sorted(session.query.relations[0].rows)
                    session.delete("R", rng.choice(rows))
                elif roll < 0.8:
                    session.change_value(
                        "invoices", rng.choice(document.nodes("price")),
                        str(rng.randrange(5, 80)))
                else:
                    session.insert_subtree(
                        "invoices", document.root,
                        element("orderLine",
                                element("orderID",
                                        text=str(rng.randrange(10_000,
                                                               10_030))),
                                element("ISBN", text="isbn-new"),
                                element("price", text="9")))
                assert run_query(session.query) == session.answer()
                for relation in session.query.relations:
                    relation_probes.append((
                        weakref.ref(relation),
                        planted(relation_artefacts(relation))))
                # Each batch plants a new probe in the one view's
                # ``derived``, and a splice resets it: only the current
                # probe may survive the next batch.
                view = columnar(document)
                view_probes.append((id(view), planted(view.derived)))
                del view, document
            alive = [relation() for relation, artefacts in relation_probes
                     if artefacts() is not None]
            note = f"REPRO_UPDATE_SEED={UPDATE_SEED}"
            assert set(map(id, alive)) \
                == set(map(id, session.query.relations)), note
            assert [ident for ident, probe in view_probes
                    if probe() is not None] \
                == [id(session.document_of("invoices").view)], note
        finally:
            gc.enable()
