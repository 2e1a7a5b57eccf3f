"""Plans follow statistical drift, not the batch counter.

The service's plan validity is the feedback store's drift ledger: small
update batches *inherit* race winners and cached plans;
only deltas adding up to a churn burst (25 % of an input since its
generation began) advance the input's generation, bump the epoch and
re-race — once. Every answer along the way must equal the serial
:class:`~repro.updates.session.QuerySession` oracle at its batch stamp.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service.corpus import corpus_query
from repro.service.protocol import rows_to_wire
from repro.service.server import ReproService
from repro.updates.session import QuerySession

CORPUS = "bookstore:orders=40,users=12"

pytestmark = pytest.mark.usefixtures("rank_decided_races")


class Harness:
    """One service, one session, and the serial oracle beside them."""

    def __init__(self, corpus: str = CORPUS):
        self.service = ReproService(corpus)
        self.oracle = QuerySession(corpus_query(corpus))
        self.sid = ""

    async def call(self, **message) -> dict:
        response = await self.service.handle_request(message)
        assert response["ok"], response
        return response

    async def open(self) -> "Harness":
        self.sid = (await self.call(op="open", tenant="t"))["session"]
        return self

    async def pin(self) -> str:
        return (await self.call(op="pin", tenant="t",
                                session=self.sid))["snapshot"]

    async def evaluate(self, snapshot: "str | None" = None) -> dict:
        """A full evaluation of *snapshot* (default: a fresh pin)."""
        pinned = snapshot or await self.pin()
        response = await self.call(op="query", tenant="t", session=self.sid,
                                   snapshot=pinned, evaluate=True)
        await self.call(op="release", tenant="t", session=self.sid,
                        snapshot=pinned)
        return response

    async def update(self, ops: "list[dict]") -> None:
        await self.call(op="update", tenant="t", ops=ops)
        for op in ops:
            if op["kind"] == "change_value":
                node = self.oracle.document_of(op["input"]).node_by_start(
                    op["start"])
                self.oracle.change_value(op["input"], node, op["text"])
            else:
                getattr(self.oracle, op["kind"])(op["relation"],
                                                 tuple(op["row"]))

    def expected(self) -> list:
        return rows_to_wire(self.oracle.answer().rows)

    async def stats(self) -> dict:
        return await self.call(op="stats")

    async def warm_up(self) -> dict:
        """Evaluate until planning is a cache hit; returns the stats."""
        for _ in range(4):
            await self.evaluate()
        return await self.stats()


def fresh_rows(count: int, tag: str) -> "list[dict]":
    """Inserts under keys nothing else holds: the relation grows, no
    other statistic (key frequencies, the answer) moves."""
    return [{"kind": "insert", "relation": "R",
             "row": [500_000 + index, f"{tag}-{index}"]}
            for index in range(count)]


def run(scenario):
    return asyncio.run(scenario())


def test_a_read_only_corpus_races_once():
    """An executed evaluate moves no epoch: with no write, the first
    evaluate races and every later one is served the held plan."""
    async def scenario():
        harness = await Harness().open()
        for _ in range(6):
            response = await harness.evaluate()
            assert response["rows"] == harness.expected()
        stats = await harness.stats()
        assert stats["adaptive"]["races"] == 1
        assert stats["adaptive"]["epoch"] == 0
        assert stats["adaptive"]["observations"] == 6
        assert (stats["plan_cache"]["misses"],
                stats["plan_cache"]["hits"]) == (1, 5)
        await harness.service.aclose()
    run(scenario)


def test_small_batches_inherit_the_plan():
    async def scenario():
        # 120 rows: the 20 single-row deltas stay under the quarter.
        harness = await Harness("bookstore:orders=120,users=12").open()
        warm = await harness.warm_up()
        prices = [node.start for node in
                  harness.oracle.document_of("invoices").nodes("price")]
        pending = None
        for batch in range(1, 21):
            if pending is None:
                # An order the invoices hold: the answer really changes.
                pending = [10_000 + batch, f"drift-{batch}"]
                ops = [{"kind": "insert", "relation": "R", "row": pending}]
            else:
                ops = [{"kind": "delete", "relation": "R", "row": pending}]
                pending = None
            if batch % 3 == 0:
                ops.append({"kind": "change_value", "input": "invoices",
                            "start": prices[batch], "text": str(5 + batch)})
            await harness.update(ops)
            response = await harness.evaluate()
            assert response["batches"] == batch
            assert response["rows"] == harness.expected()
        stats = await harness.stats()
        assert stats["adaptive"]["races"] == warm["adaptive"]["races"]
        assert stats["adaptive"]["epoch"] == warm["adaptive"]["epoch"]
        assert stats["adaptive"]["generations"] == {"R": 0, "invoices": 0}
        # Every post-batch evaluate was served the inherited plan.
        assert stats["plan_cache"]["hits"] == \
            warm["plan_cache"]["hits"] + 20
        assert stats["plan_cache"]["misses"] == warm["plan_cache"]["misses"]
        await harness.service.aclose()
    run(scenario)


def test_a_burst_re_races_exactly_once():
    async def scenario():
        harness = await Harness().open()
        warm = await harness.warm_up()
        service = harness.service
        # One batch growing R (40 rows) by more than a quarter.
        await harness.update(fresh_rows(11, "burst"))
        burst = await harness.stats()
        assert burst["adaptive"]["generations"] == {"R": 1, "invoices": 0}
        assert burst["adaptive"]["epoch"] == warm["adaptive"]["epoch"] + 1
        assert burst["adaptive"]["races"] == warm["adaptive"]["races"]
        for _ in range(4):  # a miss + race, then hits
            response = await harness.evaluate()
            assert response["rows"] == harness.expected()
        stats = await harness.stats()
        assert stats["adaptive"]["races"] == warm["adaptive"]["races"] + 1
        assert stats["adaptive"]["epoch"] == burst["adaptive"]["epoch"]
        assert stats["plan_cache"]["hits"] == warm["plan_cache"]["hits"] + 3
        assert stats["plan_cache"]["misses"] == \
            warm["plan_cache"]["misses"] + 1
        # One plan is held, dated by the burst's epoch: no pre-burst
        # plan stays beside it.
        assert service._plan is not None  # the one held plan
        assert service._plan_epoch == burst["adaptive"]["epoch"]
        await service.aclose()
    run(scenario)


def test_single_row_inserts_invalidate_cumulatively():
    async def scenario():
        # 300 rows: the ledger fills at the 76th single-row insert, and
        # the next generation (376 rows) has room for the other 24.
        harness = await Harness("bookstore:orders=300,users=40").open()
        warm = await harness.warm_up()
        for op in fresh_rows(100, "trickle"):
            await harness.update([op])
        stats = await harness.stats()
        assert stats["batches"] == 100
        assert stats["adaptive"]["generations"] == {"R": 1, "invoices": 0}
        assert stats["adaptive"]["epoch"] == warm["adaptive"]["epoch"] + 1
        response = await harness.evaluate()
        assert response["rows"] == harness.expected()
        assert (await harness.stats())["adaptive"]["races"] == \
            warm["adaptive"]["races"] + 1
        await harness.service.aclose()
    run(scenario)


def test_a_snapshot_pinned_before_the_burst_keeps_its_rows():
    async def scenario():
        harness = await Harness().open()
        await harness.warm_up()
        before = harness.expected()
        pinned = await harness.pin()
        # Orders the invoices hold, so the burst changes the answer.
        await harness.update([
            {"kind": "insert", "relation": "R",
             "row": [10_000 + index, f"late-{index}"]}
            for index in range(12)])
        after = harness.expected()
        assert after != before
        stale = await harness.evaluate(pinned)
        # Planned after the burst (the cache no longer keys on batches),
        # evaluated over its own pinned inputs.
        assert stale["batches"] == 0 and stale["rows"] == before
        live = await harness.evaluate()
        assert live["batches"] == 1 and live["rows"] == after
        await harness.service.aclose()
    run(scenario)


def test_a_race_counts_the_inputs_it_encodes():
    async def scenario():
        harness = await Harness("bookstore:orders=20,users=8").open()
        await harness.evaluate()
        before = (await harness.stats())["adaptive"]
        # 12 rows on R's 20: a churn burst, so the next evaluate re-races
        # and the race encodes R's new version.
        await harness.update(fresh_rows(12, "churn"))
        await harness.evaluate()
        after = (await harness.stats())["adaptive"]
        assert after["races"] == before["races"] + 1
        assert after["inputs"]["R"][0] > before["inputs"]["R"][0]

        def built(adaptive: dict) -> int:
            return sum(built for built, _ in adaptive["inputs"].values())

        # The run reuses what the race built, so every build is an encode.
        assert built(after) - built(before) \
            == after["encodes"] - before["encodes"] > 0
        await harness.service.aclose()
    run(scenario)
