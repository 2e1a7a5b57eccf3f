"""The held plan: one plan, dated by the drift epoch.

The service holds one plan, planned by the adaptive planner: the epoch
it was planned at, the plan (which survives batches) and, while the
pinned version is current, its prepared read. A batch drops only the
prepared read; the epoch moving re-plans, and a re-plan that keeps the
order and algorithm keeps the prepared read. A ``query`` naming a plan
of its own (``algorithm`` or ``order``) is refused before anything is
pinned or planned.
"""

from __future__ import annotations

import asyncio
import importlib
import inspect
import json

import pytest

import repro.service
from repro.engine import adaptive, planner
from repro.engine.planner import plan_query, run_query
from repro.service import ServiceClient, server
from repro.service.protocol import decode_message, rows_to_wire
from repro.service.server import ReproService

CORPUS = "bookstore:orders=20,users=8"
#: One row into R's 20: no churn burst, so the epoch holds.
INSERT = {"kind": "insert", "relation": "R", "row": [10005, "eve"]}


def run(scenario):
    """Execute one async scenario (a fresh loop per test)."""
    return asyncio.run(scenario())


async def call(service: ReproService, **message) -> dict:
    response = await service.handle_request(message)
    assert response["ok"], response
    return response


async def open_pin(service: ReproService, tenant: str) -> tuple[str, str]:
    sid = (await call(service, op="open", tenant=tenant))["session"]
    pinned = await call(service, op="pin", tenant=tenant, session=sid)
    return sid, pinned["snapshot"]


async def evaluate(service: ReproService, sid: str, snapshot: str) -> dict:
    return await call(service, op="query", tenant="t", session=sid,
                      snapshot=snapshot, evaluate=True)


async def counters(service: ReproService) -> dict:
    stats = await call(service, op="stats")
    return dict(stats["plan_cache"], builds=stats["prepared"]["builds"],
                prepared_hits=stats["prepared"]["hits"],
                queries=stats["queries"])


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


class TestLookups:
    def test_the_plan_is_held_once_across_pins(self):
        async def scenario():
            service = ReproService(CORPUS)
            responses = []
            for _ in range(2):
                sid, snapshot = await open_pin(service, "t")
                for _ in range(2):
                    responses.append(await evaluate(service, sid, snapshot))
            after = await counters(service)
            assert (after["misses"], after["hits"]) == (1, 3)
            assert (after["builds"], after["prepared_hits"]) == (1, 3)
            assert service._plan.algorithm == "xjoin"
            assert all(response["rows"] == expected_rows(service)
                       for response in responses)
        run(scenario)

    def test_stats_report_the_held_plan(self):
        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            for _ in range(3):
                await evaluate(service, sid, snapshot)
            cache = (await call(service, op="stats"))["plan_cache"]
            assert set(cache) == {"hits", "misses", "rejected"}
            assert cache["rejected"] == 0  # the one plan is always held
            assert cache["hits"] + cache["misses"] == 3
        run(scenario)


class TestBatches:
    def test_a_batch_keeps_the_plan_and_drops_the_prepared_read(self):
        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            await evaluate(service, sid, snapshot)
            before = (service._plan_epoch, service._plan)
            assert service._prepared is not None
            await call(service, op="update", tenant="w", ops=[INSERT])
            assert (service._plan_epoch, service._plan) == before
            assert service._prepared is None
        run(scenario)

    def test_the_next_version_re_derives_the_held_order(self, plan_calls):
        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            await evaluate(service, sid, snapshot)
            await call(service, op="update", tenant="w", ops=[INSERT])
            held = service._plan
            plan_calls.clear()
            sid, snapshot = await open_pin(service, "t")
            response = await evaluate(service, sid, snapshot)
            assert plan_calls == [{"algorithm": held.algorithm,
                                   "order": held.order}]
            assert (await counters(service))["hits"] == 1  # the plan held
            assert service._plan is held
            assert service._prepared is not None
            assert response["rows"] == expected_rows(service)
        run(scenario)

    def test_a_superseded_pin_is_answered_without_a_held_read(self):
        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            before = await evaluate(service, sid, snapshot)
            await call(service, op="update", tenant="w", ops=[INSERT])
            service.adaptive.store.bump_epoch()
            stale = await evaluate(service, sid, snapshot)
            assert stale["rows"] == before["rows"]
            assert service._plan_epoch == service.adaptive.epoch  # re-planned
            assert service._prepared is None  # its version is not current
        run(scenario)


class TestEpochs:
    def test_the_held_plan_records_the_epoch_it_was_planned_at(self):
        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            await evaluate(service, sid, snapshot)
            assert service._plan_epoch == service.adaptive.epoch
            planned_at = service.adaptive.store.bump_epoch()
            await evaluate(service, sid, snapshot)
            assert service._plan_epoch == planned_at
        run(scenario)

    def test_a_re_race_to_the_same_plan_keeps_its_read(
            self, rank_decided_races):
        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            await evaluate(service, sid, snapshot)
            prepared = service._prepared
            before = await counters(service)
            service.adaptive.store.bump_epoch()
            response = await evaluate(service, sid, snapshot)
            after = await counters(service)
            assert after["misses"] == before["misses"] + 1
            assert after["builds"] == before["builds"]
            assert after["prepared_hits"] == before["prepared_hits"] + 1
            assert service._prepared is prepared
            assert response["rows"] == expected_rows(service)
        run(scenario)

    def test_a_re_plan_to_a_new_order_drops_the_prepared_read(
            self, monkeypatch):
        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            await evaluate(service, sid, snapshot)
            old = service._prepared
            order = tuple(reversed(service._plan.order))
            monkeypatch.setattr(
                service.adaptive, "plan",
                lambda query, **_: plan_query(query, order=order))
            before = await counters(service)
            service.adaptive.store.bump_epoch()
            response = await evaluate(service, sid, snapshot)
            assert service._plan.order == order
            assert service._prepared is not old
            assert service._prepared.plan.order == order
            assert (await counters(service))["builds"] \
                == before["builds"] + 1
            assert response["rows"] == expected_rows(service)
        run(scenario)

    def test_mixed_traffic_plans_at_most_once_per_epoch(self):
        """Reads between batches, some of them churn bursts: the plan
        is planned from scratch at most once per epoch and no plan of a
        dead epoch is held."""
        async def scenario():
            service = ReproService(CORPUS)
            epochs = set()
            row = 30000
            for batch in range(6):
                sid, snapshot = await open_pin(service, "t")
                for _ in range(3):
                    epochs.add(service.adaptive.epoch)
                    response = await evaluate(service, sid, snapshot)
                    assert response["rows"] == expected_rows(service)
                await call(service, op="release", tenant="t",
                           session=sid, snapshot=snapshot)
                size = 8 if batch % 2 else 1  # odd batches churn
                ops = [{"kind": "insert", "relation": "R",
                        "row": [row + i, "eve"]} for i in range(size)]
                row += size
                await call(service, op="update", tenant="w", ops=ops)
            cache = (await call(service, op="stats"))["plan_cache"]
            assert 1 <= cache["misses"] <= len(epochs)
            assert service._plan is not None
            assert service._plan_epoch <= service.adaptive.epoch
        run(scenario)


class TestRefusedOverrides:
    """A ``query`` naming ``algorithm`` or ``order`` is ``bad_request``:
    it plans nothing, holds nothing and is not counted as served."""

    @staticmethod
    async def refuse(service: ReproService, sid: str, **fields) -> None:
        line = json.dumps({"op": "query", "tenant": "t", "session": sid,
                           "evaluate": True, **fields})
        response = decode_message(await service.handle_line(line))
        assert not response["ok"]
        assert response["error"] == "bad_request", response

    @pytest.mark.parametrize("fields", [
        {"algorithm": "xjoin"}, {"algorithm": "baseline"},
        {"order": "domain"}, {"order": ["x", "y"]},
        {"algorithm": "xjoin", "order": "bound"}])
    def test_an_override_is_refused_through_the_wire(self, fields):
        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            await self.refuse(service, sid, **fields)
            await self.refuse(service, sid, snapshot=snapshot, **fields)
            assert service._plan is None and service._prepared is None
            after = await counters(service)
            assert (after["misses"], after["hits"], after["builds"],
                    after["queries"]) == (0, 0, 0, 0)
            assert service.master.mvcc.active_count() == 1  # the one pin
        run(scenario)

    def test_refused_overrides_leave_the_held_plan_alone(self):
        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            await evaluate(service, sid, snapshot)
            held, prepared = service._plan, service._prepared
            before = await counters(service)
            for fields in ({"algorithm": "leapfrog"}, {"order": "domain"}):
                await self.refuse(service, sid, snapshot=snapshot,
                                  **fields)
            assert (service._plan, service._prepared) == (held, prepared)
            assert await counters(service) == before
            response = await evaluate(service, sid, snapshot)
            assert response["rows"] == expected_rows(service)
            assert (await counters(service))["prepared_hits"] == 1
        run(scenario)


class TestRemovedKnobs:
    @pytest.mark.parametrize("knob", ["plan_cache", "adaptive"])
    def test_the_service_takes_only_a_corpus_and_a_quota(self, knob):
        assert list(inspect.signature(ReproService).parameters) \
            == ["corpus", "quota"]
        with pytest.raises(TypeError):
            ReproService(CORPUS, **{knob: None})

    def test_the_cache_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.service.cache")
        assert sorted(repro.service.__all__) == [
            "ReproService", "ServiceClient", "SessionManager",
            "TenantQuota", "available_corpora", "corpus_query"]

    def test_the_override_machinery_is_gone(self):
        assert not hasattr(server, "HELD_PLANS")
        assert not hasattr(ReproService(CORPUS), "_plans")
        assert list(inspect.signature(ServiceClient.query).parameters) \
            == ["self", "tenant", "session", "snapshot", "evaluate"]
