"""Prepared reads: a served query does its per-version work once.

An evaluate's plan is the service's held plan for its overrides; its
version-bound half — the re-bound query and the encoded instance — is
kept beside the held plan while the pinned version
is current, and the next batch drops it. A maintained answer's wire
body is made once per answer version and shared by every tenant.
"""

from __future__ import annotations

import asyncio
import itertools

import pytest

from repro.engine import adaptive, planner
from repro.engine.planner import run_query
from repro.instrumentation import JoinStats, StageStats
from repro.service import server
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


def held_reads(service: ReproService) -> dict:
    """Override key -> the prepared read held beside its plan."""
    return {key: held.prepared for key, held in service._plans.items()
            if held.prepared is not None}


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
        # The first request plans; the other four reuse the held plan.
        cache = (await call(service, op="stats"))["plan_cache"]
        assert (cache["misses"], cache["hits"], cache["size"]) == (1, 4, 1)
        assert all(response["rows"] == expected_rows(service)
                   for response in responses)
    asyncio.run(scenario())


def test_the_next_version_plans_once_more(plan_calls, rank_decided_races):
    """With the plan resident, every version pays one ``plan_query``
    (its validation points), however many evaluates it serves."""
    async def scenario():
        service = ReproService(CORPUS)
        sid, _ = await open_pin(service, "t")
        for _ in range(4):  # the plan is held
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
        held = held_reads(service)
        assert held and (await prepared_stats(service))["hits"]
        counts = await prepared_stats(service)
        await call(service, op="update", tenant="w", ops=[INSERT])
        assert not held_reads(service)  # the batch dropped them
        assert service._plans  # but not the plans
        second = await evaluate(service, "t", sid)
        assert await prepared_stats(service) == {
            "builds": counts["builds"] + 1, "hits": counts["hits"]}
        assert held_reads(service).keys() <= held.keys()  # a plan survived
        assert not set(map(id, held_reads(service).values())) \
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
        for _ in range(3):  # the plan is held
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
            assert not held_reads(service)
        assert await prepared_stats(service) == {
            "builds": counts["builds"] + 2, "hits": counts["hits"]}
    asyncio.run(scenario())


def test_a_re_race_that_keeps_the_plan_keeps_the_prepared_read(
        rank_decided_races):
    """The epoch moving re-races the adaptive plan; when the race
    crowns the same order and algorithm, the held prepared read stays."""
    async def scenario():
        service = ReproService(CORPUS)
        sid, snapshot = await open_pin(service, "t")
        responses = [await evaluate(service, "t", sid, snapshot)]
        before = await call(service, op="stats")
        service.adaptive.store.bump_epoch()
        for _ in range(2):
            responses.append(await evaluate(service, "t", sid, snapshot))
        after = await call(service, op="stats")
        assert after["adaptive"]["races"] == before["adaptive"]["races"] + 1
        assert after["prepared"]["builds"] == before["prepared"]["builds"]
        assert all(response["rows"] == expected_rows(service)
                   for response in responses)
    asyncio.run(scenario())


def test_held_plans_stay_within_their_bound():
    """Clients choose the override keys: every order permutation is
    one, and the oldest held plan goes first at the bound."""
    async def scenario():
        service = ReproService(CORPUS)
        sid, snapshot = await open_pin(service, "t")
        orders = list(itertools.permutations(service.master.query.attributes))
        assert len(orders) == 120 > server.HELD_PLANS
        expected = expected_rows(service)
        assert (await evaluate(service, "t", sid, snapshot))["rows"] \
            == expected
        for order in orders:
            response = await evaluate(service, "t", sid, snapshot,
                                      order=list(order))
            assert response["rows"] == expected, order
            assert len(service._plans) <= server.HELD_PLANS
        assert (await call(service, op="stats"))["plan_cache"]["size"] \
            == server.HELD_PLANS
        assert (None, None) not in service._plans  # the oldest went
        assert (await evaluate(service, "t", sid, snapshot))["rows"] \
            == expected
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


def test_an_adaptive_evaluate_records_stages_only(monkeypatch):
    """``observe`` reads input counts: the kernel counts no seeks and
    times no level for it."""
    observed = []
    observe = adaptive.AdaptivePlanner.observe

    def spy(self, query, order, stats):
        observed.append(stats)
        return observe(self, query, order, stats)

    monkeypatch.setattr(adaptive.AdaptivePlanner, "observe", spy)

    async def scenario():
        service = ReproService(CORPUS)
        sid, snapshot = await open_pin(service, "t")
        await evaluate(service, "t", sid, snapshot)
        (stats,) = observed
        assert type(stats) is StageStats and not stats.counting
        assert stats.stage_sizes() and stats.inputs
        assert (stats.seeks, stats.comparisons, stats.phase_times) == \
            (0, 0, {})
    asyncio.run(scenario())


def test_stage_only_stats_count_the_same_inputs(monkeypatch,
                                               rank_decided_races):
    """``observe`` counts the same runs and inputs from a stages-only
    run as from a fully counted one: ``stats["adaptive"]`` is
    unchanged."""
    async def served(stats_class) -> dict:
        monkeypatch.setattr(server, "StageStats", stats_class)
        service = ReproService(CORPUS)
        sid, snapshot = await open_pin(service, "t")
        for _ in range(3):
            await evaluate(service, "t", sid, snapshot)
        await call(service, op="update", tenant="w", ops=[INSERT])
        sid, snapshot = await open_pin(service, "u")
        await evaluate(service, "u", sid, snapshot)
        counted = (await call(service, op="stats"))["adaptive"]
        counted.pop("race_ms")
        return counted

    assert asyncio.run(served(StageStats)) == asyncio.run(served(JoinStats))
