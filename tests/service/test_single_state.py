"""One corpus state behind the service.

The master :class:`QuerySession` is the only copy of the corpus: a wire
session is a tenant-scoped set of pins on it, a batch is applied once
however many sessions are open, a read of a still-current version
evaluates the live objects in place, and pins of several tenants on a
superseded version share the one frozen clone the writer took —
retained until the last of them goes.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

from repro.engine.planner import run_query
from repro.mvcc.manager import SnapshotManager
from repro.service.corpus import corpus_query
from repro.service.protocol import rows_to_wire
from repro.service.server import ReproService
from repro.service.tenancy import TenantQuota
from repro.updates.session import QuerySession
from repro.xml.columnar import columnar, document_stats
from repro.xml.model import XMLNode

INSERT = {"kind": "insert", "relation": "R", "row": [10963, "eve"]}
REPRICE = {"kind": "change_value", "input": "invoices", "start": 1,
           "text": "changed"}
GRAFT = {"kind": "insert_subtree", "input": "invoices", "parent_start": 0,
         "xml": "<note>n</note>"}


async def call(service: ReproService, **message) -> dict:
    response = await service.handle_request(message)
    assert response["ok"], response
    return response


async def open_session(service: ReproService, tenant: str) -> str:
    return (await call(service, op="open", tenant=tenant))["session"]


async def pin(service: ReproService, tenant: str, sid: str) -> str:
    return (await call(service, op="pin", tenant=tenant,
                       session=sid))["snapshot"]


async def read(service: ReproService, tenant: str, sid: str,
               snapshot: "str | None" = None, **fields) -> dict:
    if snapshot is not None:
        fields["snapshot"] = snapshot
    return await call(service, op="query", tenant=tenant, session=sid,
                      **fields)


def the_document_chain(service: ReproService):
    (chain,) = service.master.mvcc.document_chains.values()
    return chain


def counting(monkeypatch, owner, name: str) -> list:
    """Count calls of ``owner.name`` (still made) in the returned list."""
    calls: list = []
    original = getattr(owner, name)

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_sessions_build_nothing_and_a_batch_is_applied_once(monkeypatch):
    built = counting(monkeypatch, QuerySession, "__init__")
    copied = counting(monkeypatch, XMLNode, "copy")
    applied = counting(monkeypatch, ReproService, "_apply_op")

    async def scenario():
        service = ReproService("figure1")
        sids = [await open_session(service, tenant)
                for tenant in ("a", "a", "b", "b", "c")]
        assert len(set(sids)) == 5
        assert built == [service.master] and not copied
        batch = await call(service, op="update", tenant="a",
                           ops=[INSERT, REPRICE, GRAFT])
        assert batch["applied"] == 3 and len(applied) == 3
        assert built == [service.master] and not copied
        answers = [await read(service, sid.split("-")[0], sid)
                   for sid in sids]
        assert all(answer["rows"] == rows_to_wire(service.master.answer())
                   and answer["batches"] == 1 for answer in answers)
        await service.aclose()

    asyncio.run(scenario())


def test_two_tenants_share_one_clone_until_the_last_release():
    async def scenario():
        service = ReproService("figure1")
        sessions = {tenant: await open_session(service, tenant)
                    for tenant in ("a", "b")}
        before = (await read(service, "a", sessions["a"]))["rows"]
        pins = {tenant: await pin(service, tenant, sid)
                for tenant, sid in sessions.items()}
        assert (await call(service, op="stats"))["mvcc"] == {
            "pins": 2, "watermark": 0,
            "retained_documents": 0, "retained_relations": 0}

        await call(service, op="update", tenant="w", ops=[INSERT, REPRICE])
        chain = the_document_chain(service)
        (version,) = chain.retained_versions()
        assert (await call(service, op="stats"))["mvcc"] == {
            "pins": 2, "watermark": 0,
            "retained_documents": 1, "retained_relations": 1}
        assert (await read(service, "a", sessions["a"]))["rows"] != before

        async def reads_pre_write(tenant: str) -> None:
            for extra in ({}, {"evaluate": True}):
                response = await read(service, tenant, sessions[tenant],
                                      pins[tenant], **extra)
                assert response["rows"] == before, (tenant, extra)
                assert response["batches"] == 0

        await reads_pre_write("a")
        await reads_pre_write("b")
        assert chain.retained_versions() == (version,)  # still one clone

        await call(service, op="release", tenant="a",
                   session=sessions["a"], snapshot=pins["a"])
        await reads_pre_write("b")
        assert (await call(service, op="stats"))["mvcc"]["pins"] == 1

        clone = chain.artifact(version)
        document_stats(clone)
        assert columnar(clone).derived  # the evaluates' encoded inputs

        class Probe:
            """Planted in the view's ``derived``: dies when it does."""

        probe = columnar(clone).derived["probe"] = Probe()
        derived = weakref.ref(probe)
        del probe
        gc.disable()  # reclamation must not lean on the collector
        try:
            await call(service, op="release", tenant="b",
                       session=sessions["b"], snapshot=pins["b"])
            assert chain.retained_versions() == ()
            assert clone.view is None  # stats and tries went with it
            assert derived() is None
        finally:
            gc.enable()
        assert (await call(service, op="stats"))["mvcc"] == {
            "pins": 0, "watermark": None,
            "retained_documents": 0, "retained_relations": 0}
        await service.aclose()

    asyncio.run(scenario())


def test_close_releases_only_that_sessions_pins():
    async def scenario():
        service = ReproService(
            "figure1", quota=TenantQuota(max_sessions=1, max_snapshots=1))
        a = await open_session(service, "a")
        b = await open_session(service, "b")
        a_pin, b_pin = await pin(service, "a", a), await pin(service, "b", b)
        before = (await read(service, "b", b, b_pin))["rows"]
        # Quotas count per tenant, as they did with private sessions.
        for refused in ({"op": "open", "tenant": "a"},
                        {"op": "pin", "tenant": "a", "session": a}):
            assert (await service.handle_request(refused))["error"] \
                == "quota"
        await call(service, op="update", tenant="a", ops=[INSERT, REPRICE])

        await call(service, op="close", tenant="a", session=a)
        stats = await call(service, op="stats")
        assert stats["mvcc"]["pins"] == 1
        assert stats["tenants"]["a"] == {
            "sessions": 0, "snapshots": 0, "pending_updates": 0}
        assert stats["tenants"]["b"]["snapshots"] == 1
        gone = await service.handle_request(
            {"op": "query", "tenant": "a", "session": a, "snapshot": a_pin})
        assert gone["error"] == "unknown_session"
        for extra in ({}, {"evaluate": True}):
            kept = await read(service, "b", b, b_pin, **extra)
            assert kept["rows"] == before
        # The freed slots are usable again.
        a = await open_session(service, "a")
        await pin(service, "a", a)
        await service.aclose()
        assert service.master.mvcc.active_count() == 0

    asyncio.run(scenario())


def test_concurrent_inline_reads_of_one_version():
    """Several tenants evaluate one pinned version at once. Each evaluate
    runs on the loop over the live inputs, so the pins share them and no
    clone is taken while no batch supersedes the version."""
    tenants = ("a", "b", "c", "d")
    spec = "bookstore:orders=40,users=12"

    async def scenario():
        service = ReproService(spec)
        sessions = {tenant: await open_session(service, tenant)
                    for tenant in tenants}
        oracle = QuerySession(corpus_query(spec))
        price = oracle.document_of("invoices").nodes("price")[0].start
        for round_number in range(4):
            expected = rows_to_wire(run_query(oracle.query).rows)
            pins = {tenant: await pin(service, tenant, sid)
                    for tenant, sid in sessions.items()}
            responses = await asyncio.gather(*(
                read(service, tenant, sessions[tenant], pins[tenant],
                     evaluate=True) for tenant in tenants))
            assert [response["rows"] for response in responses] \
                == [expected] * len(tenants), round_number
            assert the_document_chain(service).retained_versions() == ()
            for tenant in tenants:
                await call(service, op="release", tenant=tenant,
                           session=sessions[tenant], snapshot=pins[tenant])
            # The next round reads the new version, still in place.
            text = str(50 + round_number)
            await call(service, op="update", tenant="w", ops=[{
                "kind": "change_value", "input": "invoices",
                "start": price, "text": text}])
            oracle.change_value(
                "invoices",
                oracle.document_of("invoices").node_by_start(price), text)
        await service.aclose()

    asyncio.run(scenario())


def test_an_evaluate_on_a_current_pin_clones_nothing(monkeypatch):
    frozen = counting(monkeypatch, SnapshotManager, "_freeze_document")

    async def scenario():
        service = ReproService("bookstore:orders=40,users=12")
        sid = await open_session(service, "a")
        snapshot = await pin(service, "a", sid)
        answer = await read(service, "a", sid, snapshot)
        for pinned in (snapshot, None):
            evaluated = await read(service, "a", sid, pinned, evaluate=True)
            assert evaluated["rows"] == answer["rows"]
        assert (await call(service, op="stats"))["mvcc"][
            "retained_documents"] == 0
        await service.aclose()

    asyncio.run(scenario())
    assert frozen == []


def test_a_pin_before_a_batch_reads_the_writers_one_clone(monkeypatch):
    frozen = counting(monkeypatch, SnapshotManager, "_freeze_document")

    async def scenario():
        service = ReproService("figure1")
        sid = await open_session(service, "a")
        snapshot = await pin(service, "a", sid)
        before = await read(service, "a", sid, snapshot, evaluate=True)
        assert frozen == []
        await call(service, op="update", tenant="w", ops=[INSERT, REPRICE])
        assert len(frozen) == 1  # taken by before_document_write
        chain = the_document_chain(service)
        assert len(chain.retained_versions()) == 1
        for extra in ({}, {"evaluate": True}):
            after = await read(service, "a", sid, snapshot, **extra)
            assert after["rows"] == before["rows"] \
                and after["batches"] == 0, extra
        assert (await read(service, "a", sid, evaluate=True))["rows"] \
            != before["rows"]
        assert len(frozen) == 1
        await call(service, op="release", tenant="a", session=sid,
                   snapshot=snapshot)
        assert chain.retained_versions() == ()
        assert (await call(service, op="stats"))["mvcc"][
            "retained_documents"] == 0
        await service.aclose()

    asyncio.run(scenario())


def test_a_served_dblp_evaluate_copies_no_tree(monkeypatch):
    copied = counting(monkeypatch, XMLNode, "copy")

    async def scenario():
        service = ReproService("dblp:2000")
        sid = await open_session(service, "a")
        snapshot = await pin(service, "a", sid)
        answer = await read(service, "a", sid, snapshot)
        evaluated = await read(service, "a", sid, snapshot, evaluate=True)
        assert evaluated["rows"] == answer["rows"]
        await service.aclose()

    asyncio.run(scenario())
    assert copied == []
