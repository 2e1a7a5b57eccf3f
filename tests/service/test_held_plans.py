"""Held plans: one plan per query override, dated by the drift epoch.

The service holds one entry per override key ``(algorithm, order)``:
the epoch it was planned at, its plan (which survives batches) and,
while the pinned version is current, its prepared read. A batch drops
only the prepared halves; the epoch moving re-plans, and a re-plan that
keeps the order and algorithm keeps the prepared read. The entries are
bounded by ``server.HELD_PLANS``, oldest first out.
"""

from __future__ import annotations

import asyncio
import importlib
import inspect

import pytest

import repro.service
from repro.engine import adaptive, planner
from repro.engine.planner import plan_query, run_query
from repro.service import server
from repro.service.protocol import rows_to_wire
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


async def evaluate(service: ReproService, sid: str, snapshot: str,
                   **fields) -> dict:
    return await call(service, op="query", tenant="t", session=sid,
                      snapshot=snapshot, evaluate=True, **fields)


async def counters(service: ReproService) -> dict:
    stats = await call(service, op="stats")
    return dict(stats["plan_cache"], builds=stats["prepared"]["builds"],
                prepared_hits=stats["prepared"]["hits"])


def expected_rows(service: ReproService) -> list:
    return rows_to_wire(run_query(service.master.query).rows)


def override(algorithm: "str | None", order: "tuple | None") -> dict:
    """An override key as the fields of a ``query`` request."""
    fields: dict = {}
    if algorithm is not None:
        fields["algorithm"] = algorithm
    if order is not None:
        fields["order"] = list(order)
    return fields


def some_order(service: ReproService) -> tuple:
    return tuple(reversed(service.master.query.attributes))


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
    def test_one_override_is_held_once_across_pins(self):
        async def scenario():
            service = ReproService(CORPUS)
            for _ in range(2):
                sid, snapshot = await open_pin(service, "t")
                await evaluate(service, sid, snapshot, algorithm="xjoin")
            after = await counters(service)
            assert (after["misses"], after["hits"], after["size"]) \
                == (1, 1, 1)
            assert (after["builds"], after["prepared_hits"]) == (1, 1)
        run(scenario)

    # The operators that evaluate the corpus's twig inputs.
    @pytest.mark.parametrize("algorithm", ["xjoin", "baseline"])
    def test_an_algorithm_override_plans_once(self, algorithm):
        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            responses = [await evaluate(service, sid, snapshot,
                                        algorithm=algorithm)
                         for _ in range(4)]
            after = await counters(service)
            assert (after["misses"], after["hits"]) == (1, 3)
            assert (after["builds"], after["prepared_hits"]) == (1, 3)
            held = service._plans[(algorithm, None)]
            assert held.plan.algorithm == algorithm
            assert all(response["rows"] == expected_rows(service)
                       for response in responses)
        run(scenario)

    def test_each_override_key_is_held_apart(self):
        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            order = some_order(service)
            for fields in ({}, {"algorithm": "xjoin"},
                           {"order": list(order)},
                           {"algorithm": "xjoin", "order": list(order)}):
                response = await evaluate(service, sid, snapshot, **fields)
                assert response["rows"] == expected_rows(service)
            assert set(service._plans) == {
                (None, None), ("xjoin", None), (None, order),
                ("xjoin", order)}
            assert service._plans[(None, order)].plan.order == order
        run(scenario)

    def test_stats_report_the_held_plans(self):
        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            for fields in ({}, {"algorithm": "xjoin"}, {}):
                await evaluate(service, sid, snapshot, **fields)
            cache = (await call(service, op="stats"))["plan_cache"]
            assert set(cache) == {"size", "hits", "misses", "rejected"}
            assert cache["size"] == len(service._plans) == 2
            assert cache["rejected"] == 0  # every plan is held
            assert cache["hits"] + cache["misses"] == 3
        run(scenario)


class TestBatches:
    def test_a_batch_keeps_every_plan_and_drops_every_prepared_read(self):
        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            for fields in ({"algorithm": "xjoin"},
                           {"order": list(some_order(service))}):
                await evaluate(service, sid, snapshot, **fields)
            before = {key: (held.epoch, held.plan)
                      for key, held in service._plans.items()}
            assert all(held.prepared is not None
                       for held in service._plans.values())
            await call(service, op="update", tenant="w", ops=[INSERT])
            assert {key: (held.epoch, held.plan)
                    for key, held in service._plans.items()} == before
            assert all(held.prepared is None
                       for held in service._plans.values())
        run(scenario)

    def test_the_next_version_re_derives_the_held_order(self, plan_calls):
        async def scenario():
            service = ReproService(CORPUS)
            order = some_order(service)
            sid, snapshot = await open_pin(service, "t")
            await evaluate(service, sid, snapshot, order=list(order))
            await call(service, op="update", tenant="w", ops=[INSERT])
            held = service._plans[(None, order)]
            plan_calls.clear()
            sid, snapshot = await open_pin(service, "t")
            response = await evaluate(service, sid, snapshot,
                                      order=list(order))
            assert plan_calls == [{"algorithm": held.plan.algorithm,
                                   "order": held.plan.order}]
            assert (await counters(service))["hits"] == 1  # the plan held
            assert held.prepared is not None
            assert response["rows"] == expected_rows(service)
        run(scenario)

    def test_a_superseded_pin_is_answered_without_a_held_read(self):
        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            before = await evaluate(service, sid, snapshot,
                                    algorithm="xjoin")
            await call(service, op="update", tenant="w", ops=[INSERT])
            service.adaptive.store.bump_epoch()
            stale = await evaluate(service, sid, snapshot,
                                   algorithm="xjoin")
            assert stale["rows"] == before["rows"]
            held = service._plans[("xjoin", None)]
            assert held.epoch == service.adaptive.epoch  # re-planned
            assert held.prepared is None  # its version is not current
        run(scenario)


class TestEpochs:
    def test_a_held_entry_records_the_epoch_it_was_planned_at(self):
        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            await evaluate(service, sid, snapshot, algorithm="xjoin")
            held = service._plans[("xjoin", None)]
            assert held.epoch == service.adaptive.epoch
            planned_at = service.adaptive.store.bump_epoch()
            await evaluate(service, sid, snapshot, algorithm="xjoin")
            assert service._plans[("xjoin", None)] is held
            assert held.epoch == planned_at
        run(scenario)

    def test_an_override_re_planned_to_the_same_plan_keeps_its_read(self):
        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            await evaluate(service, sid, snapshot, algorithm="xjoin")
            prepared = service._plans[("xjoin", None)].prepared
            before = await counters(service)
            service.adaptive.store.bump_epoch()
            response = await evaluate(service, sid, snapshot,
                                      algorithm="xjoin")
            after = await counters(service)
            assert after["misses"] == before["misses"] + 1
            assert after["builds"] == before["builds"]
            assert after["prepared_hits"] == before["prepared_hits"] + 1
            assert service._plans[("xjoin", None)].prepared is prepared
            assert response["rows"] == expected_rows(service)
        run(scenario)

    def test_a_re_plan_to_a_new_order_drops_the_prepared_read(
            self, monkeypatch):
        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            await evaluate(service, sid, snapshot)
            held = service._plans[(None, None)]
            old = held.prepared
            order = tuple(reversed(held.plan.order))
            monkeypatch.setattr(
                service.adaptive, "plan",
                lambda query, **_: plan_query(query, order=order))
            before = await counters(service)
            service.adaptive.store.bump_epoch()
            response = await evaluate(service, sid, snapshot)
            assert held.plan.order == order
            assert held.prepared is not old
            assert held.prepared.plan.order == order
            assert (await counters(service))["builds"] \
                == before["builds"] + 1
            assert response["rows"] == expected_rows(service)
        run(scenario)

    def test_mixed_traffic_plans_at_most_once_per_epoch(self):
        """Reads between batches, some of them churn bursts: the one
        un-overridden key is planned from scratch at most once per
        epoch and no entry of a dead epoch is held."""
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
            assert cache["size"] == 1
            assert service._plans[(None, None)].epoch \
                <= service.adaptive.epoch
        run(scenario)


class TestBound:
    def test_past_the_bound_the_oldest_goes_first(self, monkeypatch):
        monkeypatch.setattr(server, "HELD_PLANS", 2)

        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            for key in ((None, None), ("xjoin", None), ("baseline", None)):
                response = await evaluate(service, sid, snapshot,
                                          **override(*key))
                assert response["rows"] == expected_rows(service)
                assert len(service._plans) <= 2
            assert list(service._plans) == [("xjoin", None),
                                            ("baseline", None)]
        run(scenario)

    def test_an_evicted_key_is_planned_again(self, monkeypatch):
        monkeypatch.setattr(server, "HELD_PLANS", 1)

        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            for algorithm in ("xjoin", "baseline", "xjoin"):
                response = await evaluate(service, sid, snapshot,
                                          algorithm=algorithm)
                assert response["rows"] == expected_rows(service)
            after = await counters(service)
            assert (after["misses"], after["hits"], after["size"]) \
                == (3, 0, 1)
            assert after["builds"] == 3
            assert list(service._plans) == [("xjoin", None)]
        run(scenario)


class TestRefusedOverrides:
    """An override the planner or a kernel refuses holds nothing: the
    corpus has twig inputs, which ``leapfrog`` cannot evaluate."""

    async def refuse(self, service: ReproService, sid: str,
                     snapshot: str) -> None:
        response = await service.handle_request(dict(
            op="query", tenant="t", session=sid, snapshot=snapshot,
            evaluate=True, algorithm="leapfrog"))
        assert not response["ok"]
        assert response["error"] == "bad_request"

    def test_a_refused_override_leaves_no_held_entry(self):
        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            await evaluate(service, sid, snapshot)
            before = await counters(service)
            for _ in range(3):
                await self.refuse(service, sid, snapshot)
            after = await counters(service)
            assert (after["size"], after["builds"]) \
                == (before["size"], before["builds"]) == (1, 1)
            assert list(service._plans) == [(None, None)]
        run(scenario)

    def test_refused_overrides_do_not_evict_the_adaptive_plan(
            self, monkeypatch):
        monkeypatch.setattr(server, "HELD_PLANS", 1)

        async def scenario():
            service = ReproService(CORPUS)
            sid, snapshot = await open_pin(service, "t")
            await evaluate(service, sid, snapshot)
            held = service._plans[(None, None)]
            for _ in range(3):
                await self.refuse(service, sid, snapshot)
            assert service._plans == {(None, None): held}
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
