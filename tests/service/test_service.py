"""ReproService request handling, in process (no sockets).

Every test drives :meth:`ReproService.handle_request` directly inside
one event loop, so the full dispatch path — validation, quotas, the
single-writer queue, snapshot evaluation — is exercised without TCP.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.engine.interface import available_algorithms
from repro.engine.planner import run_query
from repro.errors import EngineError, PlanError
from repro.service.corpus import corpus_query
from repro.service.protocol import rows_to_wire
from repro.service.server import ReproService
from repro.service.tenancy import TenantQuota


def run(scenario):
    """Execute one async scenario (a fresh loop per test)."""
    return asyncio.run(scenario())


async def call(service: ReproService, **message):
    return await service.handle_request(message)


async def open_session(service: ReproService, tenant: str = "t") -> str:
    response = await call(service, op="open", tenant=tenant)
    assert response["ok"], response
    return response["session"]


INSERT = {"kind": "insert", "relation": "R", "row": [10963, "eve"]}


class TestBasicOps:
    def test_ping_and_corpus(self):
        async def scenario():
            service = ReproService("figure1")
            pong = await call(service, op="ping", id=1)
            assert pong == {"id": 1, "ok": True, "pong": True, "batches": 0}
            corpus = await call(service, op="corpus")
            assert corpus["corpus"] == "figure1"
            assert corpus["relations"] == {"R": 3}
            assert set(corpus["inputs"]) == {"invoices"}
        run(scenario)

    def test_open_query_close(self):
        async def scenario():
            service = ReproService("figure1")
            sid = await open_session(service)
            answer = await call(service, op="query", tenant="t",
                                session=sid)
            assert answer["ok"] and answer["mode"] == "answer"
            assert answer["rows"]  # figure1 has matches
            evaluated = await call(service, op="query", tenant="t",
                                   session=sid, evaluate=True)
            assert evaluated["mode"] == "run"
            assert evaluated["rows"] == answer["rows"]
            closed = await call(service, op="close", tenant="t",
                                session=sid)
            assert closed["ok"]
            gone = await call(service, op="query", tenant="t", session=sid)
            assert gone["error"] == "unknown_session"
        run(scenario)

    def test_error_codes(self):
        async def scenario():
            service = ReproService("figure1")
            assert (await call(service, op="evict"))["error"] \
                == "bad_request"
            assert (await call(service, op="open"))["error"] \
                == "bad_request"
            assert (await call(service, op="query", tenant="t",
                               session="t-9"))["error"] == "unknown_session"
            sid = await open_session(service)
            missing = await call(service, op="query", tenant="t",
                                 session=sid, snapshot=f"{sid}.s9")
            assert missing["error"] == "unknown_snapshot"
            released = await call(service, op="release", tenant="t",
                                  session=sid, snapshot=f"{sid}.s9")
            assert released["error"] == "unknown_snapshot"
        run(scenario)

    def test_shutdown_releases_everything(self):
        async def scenario():
            service = ReproService("figure1")
            sid = await open_session(service)
            await call(service, op="pin", tenant="t", session=sid)
            bye = await call(service, op="shutdown")
            assert bye["ok"] and bye["bye"]
            state_sessions = service.sessions.all_states()
            assert all(not state.snapshots for state in state_sessions)
        run(scenario)


class TestSnapshots:
    def test_pinned_reads_are_stable_across_updates(self):
        async def scenario():
            service = ReproService("figure1")
            sid = await open_session(service)
            before = await call(service, op="query", tenant="t",
                                session=sid)
            pinned = await call(service, op="pin", tenant="t", session=sid)
            assert pinned["batches"] == 0
            applied = await call(
                service, op="update", tenant="t",
                ops=[INSERT,
                     {"kind": "change_value", "input": "invoices",
                      "start": 1, "text": "changed"}])
            assert applied["ok"] and applied["batches"] == 1
            live = await call(service, op="query", tenant="t", session=sid)
            assert live["rows"] != before["rows"]
            for extra in ({}, {"evaluate": True}):
                stable = await call(service, op="query", tenant="t",
                                    session=sid,
                                    snapshot=pinned["snapshot"], **extra)
                assert stable["rows"] == before["rows"], extra
                assert stable["batches"] == 0
            released = await call(service, op="release", tenant="t",
                                  session=sid,
                                  snapshot=pinned["snapshot"])
            assert released["ok"]
            gone = await call(service, op="query", tenant="t", session=sid,
                              snapshot=pinned["snapshot"])
            assert gone["error"] == "unknown_snapshot"
        run(scenario)


async def through_both_doors(service: ReproService, **overrides):
    """One ``query`` with and without a pinned snapshot (same state)."""
    sid = await open_session(service)
    pinned = await call(service, op="pin", tenant="t", session=sid)
    with_snapshot = await call(service, op="query", tenant="t", session=sid,
                               snapshot=pinned["snapshot"], **overrides)
    without = await call(service, op="query", tenant="t", session=sid,
                         **overrides)
    await call(service, op="release", tenant="t", session=sid,
               snapshot=pinned["snapshot"])
    assert service.master.mvcc.active_count() == 0  # no door leaks a pin
    return with_snapshot, without


@pytest.mark.parametrize("corpus", ["figure1", "triangle:n=8"])
class TestOneReadPath:
    """A ``query`` takes the same overrides with and without a
    ``snapshot`` and answers the same — the library's rows, or
    ``bad_request`` carrying the library's refusal."""

    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_algorithm_override(self, corpus, algorithm):
        try:
            expected = {"ok": True, "mode": "run", "algorithm": algorithm,
                        "rows": rows_to_wire(run_query(
                            corpus_query(corpus), algorithm=algorithm).rows)}
        except (PlanError, EngineError) as refusal:
            expected = {"ok": False, "error": "bad_request",
                        "message": str(refusal)}

        async def scenario():
            doors = await through_both_doors(ReproService(corpus),
                                             algorithm=algorithm)
            for response in doors:
                assert expected.items() <= response.items(), response
            assert doors[0] == doors[1]
        run(scenario)

    def test_order_override(self, corpus):
        attributes = list(corpus_query(corpus).attributes)

        async def scenario():
            service = ReproService(corpus)
            live = await call(service, op="query", tenant="t",
                              session=await open_session(service))
            for order in ("appearance", attributes[::-1]):
                first, second = await through_both_doors(service,
                                                         order=order)
                assert first == second
                assert first["mode"] == "run"  # the override is honoured
                assert first["rows"] == live["rows"]
        run(scenario)

    @pytest.mark.parametrize("override", [
        {"algorithm": "nested_loops"}, {"order": "alphabetical"},
        {"order": ["no", "such", "attributes"]}])
    def test_unknown_names_are_bad_requests(self, corpus, override):
        async def scenario():
            first, second = await through_both_doors(ReproService(corpus),
                                                     **override)
            assert first == second
            assert first["error"] == "bad_request"
            assert "choose from" in first["message"] \
                or "attributes" in first["message"]
        run(scenario)


class TestAtomicBatches:
    def test_invalid_batch_applies_nowhere(self):
        async def scenario():
            service = ReproService("figure1")
            sid = await open_session(service)
            before = await call(service, op="query", tenant="t",
                                session=sid)
            # Valid insert + invalid root delete: all-or-nothing.
            rejected = await call(
                service, op="update", tenant="t",
                ops=[INSERT,
                     {"kind": "delete_subtree", "input": "invoices",
                      "start": 0}])
            assert rejected["error"] == "update"
            assert service.batches_applied == 0
            after = await call(service, op="query", tenant="t",
                               session=sid)
            assert after["rows"] == before["rows"]
        run(scenario)

    def test_update_error_catalogue(self):
        async def scenario():
            service = ReproService("figure1")
            cases = [
                [{"kind": "insert", "relation": "S", "row": [1]}],
                [{"kind": "insert", "relation": "R", "row": [1]}],
                [{"kind": "change_value", "input": "nope",
                  "start": 1, "text": "x"}],
                [{"kind": "change_value", "input": "invoices",
                  "start": 10_000, "text": "x"}],
                [{"kind": "insert_subtree", "input": "invoices",
                  "parent_start": 0, "xml": "<a><b></a>"}],
                [{"kind": "insert_subtree", "input": "invoices",
                  "parent_start": 0, "xml": "<e/>", "index": 99}],
            ]
            for ops in cases:
                response = await call(service, op="update", tenant="t",
                                      ops=ops)
                assert response["error"] == "update", (ops, response)
            assert service.batches_applied == 0
        run(scenario)

    def test_sessions_opened_before_and_after_a_batch_read_the_same_state(
            self):
        async def scenario():
            service = ReproService("figure1")
            first = await open_session(service, "a")
            second = await open_session(service, "b")
            await call(service, op="update", tenant="a", ops=[INSERT])
            one = await call(service, op="query", tenant="a",
                             session=first)
            two = await call(service, op="query", tenant="b",
                             session=second)
            assert one["rows"] == two["rows"]
            assert one["batches"] == two["batches"] == 1
            # A session opened *after* the batch sees the same state.
            third = await open_session(service, "c")
            late = await call(service, op="query", tenant="c",
                              session=third)
            assert late["rows"] == one["rows"]
        run(scenario)


class TestQuotasAndBackpressure:
    def test_session_quota_surfaces_on_the_wire(self):
        async def scenario():
            service = ReproService(
                "figure1", quota=TenantQuota(max_sessions=1))
            await open_session(service)
            denied = await call(service, op="open", tenant="t")
            assert denied["error"] == "quota"
        run(scenario)

    def test_snapshot_quota(self):
        async def scenario():
            service = ReproService(
                "figure1", quota=TenantQuota(max_snapshots=1))
            sid = await open_session(service)
            first = await call(service, op="pin", tenant="t", session=sid)
            assert first["ok"]
            denied = await call(service, op="pin", tenant="t", session=sid)
            assert denied["error"] == "quota"
            await call(service, op="release", tenant="t", session=sid,
                       snapshot=first["snapshot"])
            again = await call(service, op="pin", tenant="t", session=sid)
            assert again["ok"]
        run(scenario)

    def test_full_queue_answers_backpressure(self):
        async def scenario():
            service = ReproService("figure1", queue_limit=1)
            queue = service._ensure_writer()
            blocker = asyncio.get_running_loop().create_future()
            tenant = service.sessions.admit_update("t")
            queue.put_nowait(([dict(INSERT)], tenant, blocker))
            # No await between the fill above and the request below, so
            # the writer task cannot drain first: the queue is full.
            denied = await call(service, op="update", tenant="t",
                                ops=[dict(INSERT)])
            assert denied["error"] == "backpressure"
            assert tenant.pending_updates == 1  # the rejected batch undone
            assert await blocker == 1           # the queued batch applied
            await service.aclose()
        run(scenario)

    def test_pending_update_quota(self):
        async def scenario():
            service = ReproService(
                "figure1", quota=TenantQuota(max_pending_updates=0))
            denied = await call(service, op="update", tenant="t",
                                ops=[dict(INSERT)])
            assert denied["error"] == "quota"
        run(scenario)


@pytest.mark.usefixtures("rank_decided_races")
class TestPlanCache:
    def test_plans_are_shared_across_tenants(self):
        async def scenario():
            service = ReproService("figure1")
            first = await open_session(service, "a")
            second = await open_session(service, "b")
            for tenant, sid in (("a", first), ("b", second),
                                ("a", first), ("b", second)):
                pinned = await call(service, op="pin", tenant=tenant,
                                    session=sid)
                response = await call(service, op="query", tenant=tenant,
                                      session=sid,
                                      snapshot=pinned["snapshot"],
                                      evaluate=True)
                assert response["ok"]
                await call(service, op="release", tenant=tenant,
                           session=sid, snapshot=pinned["snapshot"])
            stats = await call(service, op="stats")
            cache = stats["plan_cache"]
            # The first executed query's feedback bumps the stats epoch
            # (keys are epoch-stamped), after which identical
            # observations keep it stable; admission threshold 2 then
            # gives miss, miss, miss+admit, hit — the fourth
            # tenant-request is served from the shared cache.
            assert cache["hits"] == 1
            assert cache["admitted"] == 1
            assert stats["adaptive"]["observations"] == 4
        run(scenario)

    def test_churn_keys_out_cached_plans(self):
        async def scenario():
            service = ReproService("figure1")
            sid = await open_session(service)

            async def snapshot_query():
                pinned = await call(service, op="pin", tenant="t",
                                    session=sid)
                response = await call(service, op="query", tenant="t",
                                      session=sid,
                                      snapshot=pinned["snapshot"],
                                      evaluate=True)
                assert response["ok"]
                await call(service, op="release", tenant="t",
                           session=sid, snapshot=pinned["snapshot"])

            for _ in range(4):  # converge to a cache hit (see above)
                await snapshot_query()
            stats = await call(service, op="stats")
            assert stats["plan_cache"]["hits"] == 1
            epoch = stats["adaptive"]["epoch"]
            # One row into R's three is churn (over a quarter): R's
            # generation advances, the epoch moves, and the cached plan
            # is keyed out — the next identical query is a miss, not a
            # stale hit.
            applied = await call(service, op="update", tenant="t",
                                 ops=[dict(INSERT)])
            assert applied["ok"]
            stats = await call(service, op="stats")
            assert stats["adaptive"]["generations"]["R"] == 1
            assert stats["adaptive"]["epoch"] == epoch + 1
            await snapshot_query()
            stats = await call(service, op="stats")
            assert stats["plan_cache"]["hits"] == 1  # miss — no new hit
            # With the epoch stable again the cache re-converges.
            await snapshot_query()
            await snapshot_query()
            stats = await call(service, op="stats")
            assert stats["plan_cache"]["hits"] == 2
        run(scenario)

    def test_stats_shape(self):
        async def scenario():
            service = ReproService("figure1")
            sid = await open_session(service)
            await call(service, op="query", tenant="t", session=sid)
            stats = await call(service, op="stats")
            assert stats["queries"] == 1
            assert stats["tenants"]["t"]["sessions"] == 1
            assert stats["queue_depth"] == 0
            assert stats["adaptive"]["generations"] == \
                {"R": 0, "invoices": 0}
            assert {"races", "race_ms", "encodes", "epoch"} \
                <= set(stats["adaptive"])
        run(scenario)
