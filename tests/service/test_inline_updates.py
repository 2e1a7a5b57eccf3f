"""An update applies inside its own request.

No handler of :class:`ReproService` is a coroutine, so no request can
interleave with a batch or an evaluate: a batch is applied, and its
number known, before its ``update`` request returns. Many tenants
updating at once therefore see consecutive batch numbers, and a pin
taken after an update response always reflects that batch.
"""

from __future__ import annotations

import asyncio
import inspect

import pytest

from repro.service.protocol import OPERATIONS
from repro.service.server import ReproService

TENANTS = 8
BATCHES = 3


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_every_handler_is_a_plain_method(name):
    assert not inspect.iscoroutinefunction(
        getattr(ReproService, f"_op_{name}"))


def test_concurrent_tenants_update_in_their_own_requests():
    async def scenario():
        service = ReproService("figure1")
        applied: "list[int]" = []

        async def tenant(index: int) -> None:
            name = f"tenant{index}"

            async def call(**message):
                response = await service.handle_request(
                    {"tenant": name, **message})
                assert response["ok"], response
                return response

            sid = (await call(op="open"))["session"]
            first = await call(op="pin", session=sid)
            for step in range(BATCHES):
                row = [50_000 + BATCHES * index + step, name]
                update = await call(op="update", ops=[
                    {"kind": "insert", "relation": "R", "row": row}])
                assert update["applied"] == 1
                applied.append(update["batches"])
                # Whatever ran in between, this batch is already in.
                pinned = await call(op="pin", session=sid)
                assert pinned["batches"] >= update["batches"]
                answer = await call(op="query", session=sid,
                                    snapshot=pinned["snapshot"])
                assert answer["batches"] == pinned["batches"]
                await call(op="release", session=sid,
                           snapshot=pinned["snapshot"])
                await asyncio.sleep(0)  # let the other tenants in
            # The pin taken before any batch still reads its own prefix.
            held = await call(op="query", session=sid,
                              snapshot=first["snapshot"], evaluate=True)
            assert held["batches"] == first["batches"]

        await asyncio.gather(*(tenant(index) for index in range(TENANTS)))
        assert sorted(applied) == list(range(1, TENANTS * BATCHES + 1))
        stats = await service.handle_request({"op": "stats"})
        assert stats["batches"] == stats["updates"] == TENANTS * BATCHES
        assert stats["queue_depth"] == 0
        assert set(stats["tenants"]) == {f"tenant{index}"
                                         for index in range(TENANTS)}
        for counts in stats["tenants"].values():
            assert set(counts) == {"sessions", "snapshots"}
            assert counts == {"sessions": 1, "snapshots": 1}
        relation = service.master.relations["R"].relation
        assert {(50_000 + k) for k in range(TENANTS * BATCHES)} \
            <= {row[0] for row in relation.rows}
        await service.aclose()
        assert service.master.mvcc.active_count() == 0

    asyncio.run(scenario())


def test_an_update_leaves_no_tenant_entry():
    async def scenario():
        service = ReproService("figure1")
        response = await service.handle_request(
            {"op": "update", "tenant": "writer", "ops": [
                {"kind": "insert", "relation": "R",
                 "row": [60_000, "w"]}]})
        assert response["ok"] and response["batches"] == 1
        stats = await service.handle_request({"op": "stats"})
        assert stats["tenants"] == {}
        missing = await service.handle_request(
            {"op": "update", "ops": []})
        assert missing["error"] == "bad_request"

    asyncio.run(scenario())
