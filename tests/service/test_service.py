"""ReproService request handling, in process (no sockets).

Every test drives :meth:`ReproService.handle_request` directly inside
one event loop, so the full dispatch path — validation, quotas, the
in-request update, snapshot evaluation — is exercised without TCP.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.engine.interface import available_algorithms
from repro.engine.planner import run_query
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
    """A ``query`` answers the same with and without a ``snapshot``:
    an evaluate runs the service's one plan, and a request naming a plan
    of its own (``algorithm`` or ``order``) is ``bad_request``."""

    def test_an_evaluate_runs_the_held_plan(self, corpus):
        expected = rows_to_wire(run_query(corpus_query(corpus)).rows)

        async def scenario():
            service = ReproService(corpus)
            doors = await through_both_doors(service, evaluate=True)
            for response in doors:
                assert response["ok"] and response["mode"] == "run"
                assert response["rows"] == expected
                assert response["algorithm"] == service._plan.algorithm
                assert "twigs" not in response
        run(scenario)

    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_algorithm_override(self, corpus, algorithm):
        async def scenario():
            doors = await through_both_doors(ReproService(corpus),
                                             algorithm=algorithm)
            for response in doors:
                assert response["error"] == "bad_request", response
                assert "'algorithm'" in response["message"]
            assert doors[0] == doors[1]
        run(scenario)

    def test_order_override(self, corpus):
        attributes = list(corpus_query(corpus).attributes)

        async def scenario():
            service = ReproService(corpus)
            for order in ("appearance", attributes[::-1]):
                first, second = await through_both_doors(
                    service, order=order, evaluate=True)
                assert first == second
                assert first["error"] == "bad_request"
                assert "'order'" in first["message"]
            assert service._plan is None  # a refusal plans nothing
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
            assert "is not accepted" in first["message"]
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

    @pytest.mark.parametrize("ops, code", [
        ([{"kind": "insert", "relation": "R", "row": [10001, "ok"]},
          {"kind": "insert", "relation": "R", "row": [[1], "bad"]}],
         "bad_request"),
        # Start 198 names a node before the delete, another one after.
        ([{"kind": "delete_subtree", "input": "invoices", "start": 1},
          {"kind": "change_value", "input": "invoices", "start": 198,
           "text": "x"}],
         "update"),
    ], ids=["non-scalar-row", "edit-after-splice"])
    def test_a_refused_batch_leaves_no_trace(self, ops, code):
        async def scenario():
            service = ReproService("bookstore:orders=20,users=8")
            document = service.master.document_of("invoices")
            before = await call(service, op="corpus")
            version = document.version
            response = await call(service, op="update", tenant="t",
                                  ops=ops)
            assert response["error"] == code, response
            after = await call(service, op="corpus")
            assert after["relations"] == before["relations"] == {"R": 20}
            assert after["inputs"] == before["inputs"]
            assert document.version == version
            assert (await call(service, op="stats"))["batches"] == 0
        run(scenario)

    def test_a_splice_may_follow_edits_of_its_document(self):
        async def scenario():
            service = ReproService("bookstore:orders=20,users=8")
            size = service.master.document_of("invoices").size()
            response = await call(service, op="update", tenant="t", ops=[
                {"kind": "change_value", "input": "invoices", "start": 198,
                 "text": "x"},
                {"kind": "delete_subtree", "input": "invoices", "start": 1},
                INSERT])
            assert response["ok"] and response["batches"] == 1, response
            assert service.master.document_of("invoices").size() < size
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


class TestMixedTypes:
    def test_a_number_beside_strings_breaks_no_query(self):
        """R's ``userID`` holds strings; one numeric value must not break
        the sorted wire form of any later answer."""
        async def scenario():
            service = ReproService("bookstore:orders=20,users=8")
            response = await call(service, op="update", tenant="w", ops=[
                {"kind": "insert", "relation": "R", "row": [10001, 7]}])
            assert response["ok"], response
            for tenant in ("a", "b"):
                sid = await open_session(service, tenant)
                answer = await call(service, op="query", tenant=tenant,
                                    session=sid)
                evaluated = await call(service, op="query", tenant=tenant,
                                       session=sid, evaluate=True)
                assert answer["ok"] and evaluated["ok"], (answer, evaluated)
                assert answer["rows"] and answer["rows"] == evaluated["rows"]
        run(scenario)


class TestQuotas:
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


@pytest.mark.usefixtures("rank_decided_races")
class TestHeldPlans:
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
            # A held plan records the epoch it was planned at, and an
            # executed query moves no epoch: miss, then hit, hit, hit —
            # every later tenant-request reuses the one held plan.
            assert (cache["misses"], cache["hits"]) == (1, 3)
            assert service._plan is not None  # the one held plan
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

            for _ in range(4):  # one miss, then hits (see above)
                await snapshot_query()
            stats = await call(service, op="stats")
            assert stats["plan_cache"]["hits"] == 3
            epoch = stats["adaptive"]["epoch"]
            # One row into R's three is churn (over a quarter): R's
            # generation advances, the epoch moves, and the held plan
            # is re-planned — the next identical query is a miss, not a
            # stale hit.
            applied = await call(service, op="update", tenant="t",
                                 ops=[dict(INSERT)])
            assert applied["ok"]
            stats = await call(service, op="stats")
            assert stats["adaptive"]["generations"]["R"] == 1
            assert stats["adaptive"]["epoch"] == epoch + 1
            await snapshot_query()
            stats = await call(service, op="stats")
            assert stats["plan_cache"]["hits"] == 3  # miss — no new hit
            # With the epoch stable again the held plan is reused.
            await snapshot_query()
            await snapshot_query()
            stats = await call(service, op="stats")
            assert stats["plan_cache"]["hits"] == 5
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
