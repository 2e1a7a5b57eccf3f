"""Prepared reads: a served query does its per-version work once.

An evaluate's plan comes from the shared plan cache; its version-bound
half — the re-bound query, the encoded instance, the raw stage
estimates — is kept beside the resident plan while the pinned version
is current, and the next batch drops it. A maintained answer's wire
body is made once per answer version and shared by every tenant.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.engine import adaptive, planner
from repro.engine.planner import run_query
from repro.service import server
from repro.service.cache import PlanCache
from repro.service.protocol import decode_message, encode_message, \
    rows_to_wire
from repro.service.server import ReproService

CORPUS = "bookstore:orders=20,users=8"
#: One row into R's 20: no churn burst, so the plan survives the batch.
INSERT = {"kind": "insert", "relation": "R", "row": [10005, "eve"]}


async def call(service: ReproService, **message) -> dict:
    response = await service.handle_request(message)
    assert response["ok"], response
    return response


async def open_pin(service: ReproService, tenant: str) -> tuple[str, str]:
    sid = (await call(service, op="open", tenant=tenant))["session"]
    pinned = await call(service, op="pin", tenant=tenant, session=sid)
    return sid, pinned["snapshot"]


async def evaluate(service: ReproService, tenant: str, sid: str,
                   snapshot: "str | None" = None, **fields) -> dict:
    if snapshot is not None:
        fields["snapshot"] = snapshot
    return await call(service, op="query", tenant=tenant, session=sid,
                      evaluate=True, **fields)


async def prepared_stats(service: ReproService) -> dict:
    return (await call(service, op="stats"))["prepared"]


def expected_rows(service: ReproService) -> list:
    return rows_to_wire(run_query(service.master.query).rows)


@pytest.fixture
def plan_calls(monkeypatch) -> list:
    """Every ``plan_query`` call, whichever module's name made it."""
    calls: list = []
    original = planner.plan_query

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    for module in (planner, adaptive, server):
        monkeypatch.setattr(module, "plan_query", counted)
    return calls


def test_evaluates_at_one_version_plan_once(plan_calls):
    async def scenario():
        service = ReproService(CORPUS)
        plan_calls.clear()  # the master's first answer planned too
        sid, snapshot = await open_pin(service, "t")
        responses = [await evaluate(service, "t", sid, snapshot,
                                    algorithm="xjoin") for _ in range(5)]
        assert len(plan_calls) == 1
        assert await prepared_stats(service) == {"builds": 1, "hits": 4}
        # The plan cache still counts every request; the second one
        # admits the plan.
        cache = (await call(service, op="stats"))["plan_cache"]
        assert (cache["misses"], cache["hits"], cache["admitted"]) \
            == (2, 3, 1)
        assert all(response["rows"] == expected_rows(service)
                   for response in responses)
    asyncio.run(scenario())


def test_the_service_keeps_the_plan_cache_it_is_given():
    cache = PlanCache(capacity=4)  # empty, hence falsy
    assert ReproService(CORPUS, plan_cache=cache).plan_cache is cache


def test_the_next_version_plans_once_more(plan_calls, rank_decided_races):
    """With the plan resident, every version pays one ``plan_query``
    (its validation points), however many evaluates it serves."""
    async def scenario():
        service = ReproService(CORPUS)
        sid, _ = await open_pin(service, "t")
        for _ in range(4):  # the epoch settles, the plan is admitted
            await evaluate(service, "t", sid)
        await call(service, op="update", tenant="w", ops=[INSERT])
        before = len(plan_calls)
        for _ in range(4):
            response = await evaluate(service, "t", sid)
        assert len(plan_calls) == before + 1
        assert response["rows"] == expected_rows(service)
    asyncio.run(scenario())


def test_a_write_between_two_evaluates_gets_a_new_prepared_read(
        rank_decided_races):
    async def scenario():
        service = ReproService(CORPUS)
        sid, _ = await open_pin(service, "t")
        for _ in range(4):
            first = await evaluate(service, "t", sid)
        held = dict(service._prepared)
        assert held and (await prepared_stats(service))["hits"]
        counts = await prepared_stats(service)
        await call(service, op="update", tenant="w", ops=[INSERT])
        assert not service._prepared  # the batch dropped them
        second = await evaluate(service, "t", sid)
        assert await prepared_stats(service) == {
            "builds": counts["builds"] + 1, "hits": counts["hits"]}
        assert service._prepared.keys() <= held.keys()  # a plan survived
        assert not set(map(id, service._prepared.values())) \
            & set(map(id, held.values()))
        assert second["rows"] == expected_rows(service)
        assert [10005, "eve"] in [row[:2] for row in second["rows"]]
        assert [10005, "eve"] not in [row[:2] for row in first["rows"]]
    asyncio.run(scenario())


def test_three_evaluates_at_one_pin_build_once_and_reuse_inputs(
        rank_decided_races):
    async def scenario():
        service = ReproService(CORPUS)
        sid, snapshot = await open_pin(service, "t")
        for _ in range(3):  # settle: the plan is resident
            await evaluate(service, "t", sid, snapshot)
        await call(service, op="update", tenant="w", ops=[INSERT])
        sid, snapshot = await open_pin(service, "u")
        counts = await prepared_stats(service)
        await evaluate(service, "u", sid, snapshot)
        inputs = (await call(service, op="stats"))["adaptive"]["inputs"]
        for _ in range(2):
            await evaluate(service, "u", sid, snapshot)
        assert await prepared_stats(service) == {
            "builds": counts["builds"] + 1, "hits": counts["hits"] + 2}
        # A reused prepared read builds no input: each counts reused.
        after = (await call(service, op="stats"))["adaptive"]["inputs"]
        assert {name: [built, reused + 2]
                for name, (built, reused) in inputs.items()} == after
    asyncio.run(scenario())


def test_a_superseded_pin_builds_its_own_and_keeps_nothing():
    async def scenario():
        service = ReproService(CORPUS)
        sid, snapshot = await open_pin(service, "t")
        for _ in range(4):
            before = await evaluate(service, "t", sid, snapshot)
        await call(service, op="update", tenant="w", ops=[INSERT])
        counts = await prepared_stats(service)
        for _ in range(2):
            stale = await evaluate(service, "t", sid, snapshot)
            assert stale["rows"] == before["rows"]
            assert not service._prepared
        assert await prepared_stats(service) == {
            "builds": counts["builds"] + 2, "hits": counts["hits"]}
    asyncio.run(scenario())


def test_tenants_at_one_version_share_one_answer_body():
    async def scenario():
        service = ReproService(CORPUS)
        first_sid, first = await open_pin(service, "a")
        second_sid, second = await open_pin(service, "b")
        one = await call(service, op="query", tenant="a",
                         session=first_sid, snapshot=first)
        other = await call(service, op="query", tenant="b",
                           session=second_sid, snapshot=second)
        assert one["rows"] is other["rows"]
        assert one["rows"] == expected_rows(service)
        assert decode_message(encode_message(one)) == one
        await call(service, op="update", tenant="w", ops=[INSERT])
        newer = await call(service, op="query", tenant="b",
                           session=second_sid)
        assert newer["rows"] is not one["rows"]
        assert newer["rows"] == expected_rows(service)
        again = await call(service, op="query", tenant="a",
                           session=first_sid, snapshot=first)
        assert again["rows"] is one["rows"]  # the pinned version's body
    asyncio.run(scenario())


def test_only_answered_queries_are_counted():
    async def scenario():
        service = ReproService(CORPUS)
        sid, snapshot = await open_pin(service, "t")
        refused = [{"snapshot": "nope"}, {"algorithm": "nope"},
                   {"order": "nope"}, {"order": ["a"]},
                   {"order": [["a"]]}, {"order": {"a": 1}}, {"order": 5},
                   {"algorithm": ["x"]}, {"evaluate": "yes"}]
        for fields in refused:
            response = await service.handle_request(
                {"op": "query", "tenant": "t", "session": sid, **fields})
            assert not response["ok"], response
            assert response["error"] in ("bad_request",
                                         "unknown_snapshot"), response
        await call(service, op="query", tenant="t", session=sid,
                   snapshot=snapshot)
        assert (await call(service, op="stats"))["queries"] == 1
    asyncio.run(scenario())
