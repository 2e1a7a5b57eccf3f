"""The two served workloads: ``serve_read`` and ``serve_mixed``.

An in-process :class:`~repro.service.ReproService` on loopback TCP and
two closed-loop :class:`~repro.service.ServiceClient` connections, each
sending its next request only when the previous one is answered. The
seeded operation stream is the same whichever door it enters by, which
is what the traced pass relies on: it replays one fixed stretch of the
stream over TCP, through ``handle_line``, through ``handle_request``
and against a bare ``QuerySession``, and a layer's time is its replay
minus the one beneath it.
"""

from __future__ import annotations

import asyncio
import io
import random
import time
from contextlib import nullcontext, redirect_stdout

from harness import Gate, Samples, Tracer, quiesced
from library import Workload, join_counters, traced_run_query

from repro.errors import ServiceError
from repro.instrumentation import JoinStats
from repro.service import ReproService, ServiceClient, corpus_query
from repro.service.protocol import (
    decode_message,
    encode_message,
    rows_to_wire,
)
from repro.updates.session import QuerySession

HOST = "127.0.0.1"


class OpStream:
    """One client's seeded operations: ``("answer"|"evaluate", None)``
    or ``("update", batch)``. Update batches alternate a relational
    insert with the delete of that same row; every third batch also
    re-prices one order line (an XML ``change_value``).

    The stream is dealt in hands of *mix* = (answers, evaluates,
    writes) draws, each hand in a seeded order, so every seed issues the
    kinds in exactly the same shares: an evaluate costs 70 answers, and
    with kinds drawn independently the evaluates' share of a run (and
    with it the throughput) moved by 15 % from seed to seed.

    A write is followed by an evaluate of the same connection (read your
    write): every such evaluate plans against statistics one batch newer
    than the last plan. Were evaluates drawn independently of writes,
    about half of them would re-plan and half would not, and the median
    of that two-peaked distribution flips between the peaks from run to
    run."""

    def __init__(self, seed: int, client: int, mix: "tuple[int, int, int]",
                 orders: int, price_starts: list[int], twig_input: str):
        self.rng = random.Random(seed * 7919 + client)
        self.client = client
        self.mix = mix
        self.orders = orders
        self.price_starts = price_starts
        self.twig_input = twig_input
        self.batches = 0
        self.pending: "list | None" = None
        self.queue: list[tuple] = []

    def _batch(self) -> list[dict]:
        rng = self.rng
        self.batches += 1
        if self.pending is None:
            # An order id the invoices hold, under a user only this
            # client writes: the insert adds answer rows, never a clash.
            self.pending = [10_000 + rng.randrange(self.orders),
                            f"bench-{self.client}-{self.batches}"]
            ops = [{"kind": "insert", "relation": "R", "row": self.pending}]
        else:
            ops = [{"kind": "delete", "relation": "R", "row": self.pending}]
            self.pending = None
        if self.batches % 3 == 0:
            ops.append({"kind": "change_value", "input": self.twig_input,
                        "start": rng.choice(self.price_starts),
                        "text": str(rng.randint(5, 80))})
        return ops

    def take(self, count: int) -> list[tuple]:
        """The next *count* operations (a write's evaluate may fall into
        the next call)."""
        queue = self.queue
        while len(queue) < count:
            answers, evaluates, writes = self.mix
            hand = (["answer"] * answers + ["evaluate"] * evaluates
                    + ["write"] * writes)
            self.rng.shuffle(hand)
            for kind in hand:
                if kind == "write":
                    queue += [("update", self._batch()), ("evaluate", None)]
                else:
                    queue.append((kind, None))
        self.queue = queue[count:]
        return queue[:count]


class LineDoor:
    """The service entered through ``handle_line`` (wire codec, no TCP)."""

    def __init__(self, service: ReproService):
        self.service = service
        self.counter = 0

    async def request(self, op: str, **fields) -> dict:
        self.counter += 1
        line = encode_message({"op": op, "id": self.counter, **fields})
        return _checked(decode_message(await self.service.handle_line(line)))


class RequestDoor:
    """The service entered through ``handle_request`` (no codec); with a
    tracer, every request is one span named after its operation."""

    def __init__(self, service: ReproService, tracer: "Tracer | None" = None):
        self.service = service
        self.tracer = tracer

    async def request(self, op: str, **fields) -> dict:
        if self.tracer is None:
            return _checked(await self.service.handle_request(
                {"op": op, **fields}))
        name = op
        if op == "query":
            name = "query_evaluate" if fields.get("evaluate") \
                else "query_answer"
        with self.tracer.span(f"service.op.{name}"):
            return _checked(await self.service.handle_request(
                {"op": op, **fields}))


def _checked(response: dict) -> dict:
    if not response.get("ok"):
        raise ServiceError(response.get("error", "internal"),
                           response.get("message", "unknown error"))
    return response


async def cycle(door, tenant: str, sid: str, kind: str, batch) -> dict:
    """One operation: an acknowledged update batch, or pin → query →
    release. Returns the update or query response."""
    if kind == "update":
        return await door.request("update", tenant=tenant, ops=batch)
    pinned = await door.request("pin", tenant=tenant, session=sid)
    fields = {"evaluate": True} if kind == "evaluate" else {}
    response = await door.request("query", tenant=tenant, session=sid,
                                  snapshot=pinned["snapshot"], **fields)
    await door.request("release", tenant=tenant, session=sid,
                       snapshot=pinned["snapshot"])
    return response


def apply_batch(session: QuerySession, batch: list[dict],
                tracer: "Tracer | None" = None) -> None:
    """One wire batch applied to a bare session, as the service's
    writer applies it to the master and to every open session."""
    for op in batch:
        kind = op["kind"]
        if kind == "change_value":
            node = session.document_of(op["input"]).node_by_start(op["start"])
        with tracer.span(f"updates.{kind}") if tracer else nullcontext():
            if kind == "change_value":
                session.change_value(op["input"], node, op["text"])
            else:  # insert / delete, named like the session's methods
                getattr(session, kind)(op["relation"], tuple(op["row"]))


class Serve(Workload):
    """Both served workloads; the subclasses fix the operation mix."""

    ORDERS = 200
    USERS = 40
    CLIENTS = 2
    #: A set-up is 40 ms and the first evaluate after it 22 ms: many.
    setups = 9
    #: Operations per client in one round of the untraced run: short
    #: rounds, because a round is one load-compensation block and the
    #: collector stays off inside it (cyclic garbage piles up).
    ROUND_OPS = 12
    #: Operations per client in each replay of the traced pass.
    TRACE_OPS = 60
    #: One hand of the operation stream (see OpStream): answers,
    #: evaluates, writes (each write is an update plus an evaluate).
    MIX = (1, 0, 0)

    def __init__(self, seed: int, quick: bool, gate: Gate):
        super().__init__(seed, quick, gate)
        # The corpus is the same for every seed; the seed draws the
        # operation stream (kinds, rows, re-priced order lines).
        self.spec = (f"bookstore:orders={self.ORDERS // self.scale},"
                     f"users={self.USERS // self.scale}")
        self.loop = asyncio.new_event_loop()
        #: (kind, response, batch) of every completed operation.
        self.log: list[tuple] = []
        self.service = None

    # -- the operation stream ----------------------------------------------

    def streams(self) -> list[OpStream]:
        template = corpus_query(self.spec)
        binding = template.twigs[0]
        starts = [node.start for node in binding.document.nodes("price")]
        return [OpStream(self.seed, client, self.MIX,
                         self.ORDERS // self.scale, starts, binding.name)
                for client in range(self.CLIENTS)]

    # -- set-up: service, server, connections, sessions --------------------

    def setup(self) -> None:
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        self.service = ReproService(self.spec)
        # serve_tcp announces the port the kernel picked on stdout.
        announced = io.StringIO()
        with redirect_stdout(announced):
            self.server = asyncio.ensure_future(
                self.service.serve_tcp(HOST, 0))
            while not announced.getvalue():
                await asyncio.sleep(0)
        port = int(announced.getvalue().rsplit(":", 1)[1])
        self.clients = [await ServiceClient.connect(HOST, port)
                        for _ in range(self.CLIENTS)]
        self.tenants = [f"tenant-{index}" for index in range(self.CLIENTS)]
        self.sids = [await client.open(tenant)
                     for client, tenant in zip(self.clients, self.tenants)]
        self.ops = self.streams()
        self.log = []

    def teardown(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self._teardown())
            self.service = None

    async def _teardown(self) -> None:
        for client, tenant, sid in zip(self.clients, self.tenants,
                                       self.sids):
            await client.close(tenant, sid)
        stats = await self.clients[0].stats()
        for tenant, counts in stats["tenants"].items():
            if counts["sessions"] or counts["snapshots"]:
                self.gate.fail(f"{tenant} still holds {counts} at shutdown")
        await self.clients[0].shutdown()
        for client in self.clients:
            await client.aclose()
        # The server task and its per-connection handlers all end here.
        await asyncio.gather(*(asyncio.all_tasks()
                               - {asyncio.current_task()}))

    # -- the timed run -----------------------------------------------------

    async def _client_loop(self, door, index: int, ops: list[tuple],
                           samples: Samples,
                           label: "str | None" = None,
                           tracer: "Tracer | None" = None) -> None:
        """One connection's closed loop over *ops*; every cycle is one
        sample under its kind (or *label*), and one root span when
        traced."""
        tenant, sid = self.tenants[index], self.sids[index]
        for kind, batch in ops:
            start = time.perf_counter_ns()
            try:
                with tracer.span("cycle") if tracer else nullcontext():
                    response = await cycle(door, tenant, sid, kind, batch)
            except ServiceError as error:
                self.gate.fail(f"{kind} refused: {error}")
                continue
            samples.add(label or kind, time.perf_counter_ns() - start,
                        busy=False)
            self.log.append((kind, response, batch))

    def first_query(self, samples: Samples) -> None:
        with samples.block():
            self.loop.run_until_complete(self._client_loop(
                self.clients[0], 0, [("evaluate", None)], samples,
                label="first_query"))

    def round(self, samples: Samples) -> int:
        count = self.ROUND_OPS // self.scale
        plans = [stream.take(count) for stream in self.ops]
        with samples.block():
            start = time.perf_counter_ns()
            self.loop.run_until_complete(
                self._concurrently(plans, samples))
            samples.add("round", time.perf_counter_ns() - start)
        return count * self.CLIENTS

    async def _concurrently(self, plans: list[list], samples: Samples):
        """Every connection works through its own plan, closed loop."""
        await asyncio.gather(*(
            self._client_loop(client, index, plan, samples)
            for index, (client, plan)
            in enumerate(zip(self.clients, plans))))

    def finish(self, samples: Samples) -> None:
        # The headline query of a served workload is the evaluate cycle.
        samples.ns["query"] = samples.ns.get("evaluate", [])
        del samples.ns["round"]  # busy time only, not an operation
        self.extra["service.answer_p50_ms"] = samples.p50_ms("answer")
        self.extra["service.update_p50_ms"] = samples.p50_ms("update")

    # -- the serial oracle -------------------------------------------------

    def check(self) -> int:
        return self._verify(self.log)

    def _verify(self, log: list[tuple]) -> int:
        """Every answer against ``corpus_query(spec)`` plus the same
        batches, in the order the service numbered them, on a bare
        session. Returns the final state's max_intermediate."""
        gate = self.gate
        oracle = QuerySession(corpus_query(self.spec))
        batches = {response["batches"]: batch
                   for kind, response, batch in log if kind == "update"}
        gate.check(sorted(batches) == list(range(1, len(batches) + 1)),
                   "update batch numbers are not 1..n")
        expected = {0: rows_to_wire(oracle.answer().rows)}
        for number in sorted(batches):
            apply_batch(oracle, batches[number])
            expected[number] = rows_to_wire(oracle.answer().rows)
        wrong = sum(1 for kind, response, _batch in log if kind != "update"
                    and response["rows"] != expected.get(response["batches"]))
        gate.check(wrong == 0, f"{wrong} snapshot answers differ from the "
                               f"serial oracle at their batch stamp")
        gate.check(oracle.mvcc.active_count() == 0, "oracle leaked a pin")
        stats = JoinStats()
        from repro.engine import run_query

        run_query(oracle.query, stats=stats)
        return stats.max_intermediate

    # -- the traced pass ---------------------------------------------------

    async def _replay(self, door, samples: Samples,
                      tracer: "Tracer | None" = None) -> None:
        """The first TRACE_OPS operations of every client, clients taking
        turns, through *door*."""
        count = self.TRACE_OPS // self.scale
        plans = [stream.take(count) for stream in self.streams()]
        self.log = []
        with samples.block():
            for step in range(count):
                for index, plan in enumerate(plans):
                    await self._client_loop(door, index, [plan[step]],
                                            samples, tracer=tracer)

    async def _in_process(self, make_door, samples: Samples,
                          tracer: "Tracer | None" = None) -> dict:
        """One replay against a fresh service without a server. Returns
        the service's public stats at the end."""
        service = ReproService(self.spec)
        door = make_door(service)
        self.sids = [(await door.request("open", tenant=tenant))["session"]
                     for tenant in self.tenants]
        await self._replay(door, samples, tracer)
        self._verify(self.log)
        stats = await door.request("stats")
        for tenant, sid in zip(self.tenants, self.sids):
            await door.request("close", tenant=tenant, session=sid)
        await service.aclose()
        return stats

    async def _tcp_replay(self, samples: Samples) -> int:
        """The replay over TCP, clients concurrent as in the untraced
        run, with the queue depth polled between rounds of ten."""
        count = self.TRACE_OPS // self.scale
        plans = [stream.take(count) for stream in self.streams()]
        self.log = []
        depth = 0
        with samples.block():
            for lo in range(0, count, 10):
                await self._concurrently(
                    [plan[lo:lo + 10] for plan in plans], samples)
                stats = await self.clients[0].stats()
                depth = max(depth, stats["queue_depth"])
        return depth

    def trace(self, tracer: Tracer, samples: Samples) -> dict:
        self.teardown()  # the untraced run's service has moved on
        return self.loop.run_until_complete(self._trace(tracer, samples))

    async def _trace(self, tracer: Tracer, untraced: Samples) -> dict:
        wire, line, plain, spans = Samples(), Samples(), Samples(), Samples()

        await self._setup()
        depth = await self._tcp_replay(wire)
        self._verify(self.log)
        await self._teardown()
        self.service = None

        await self._in_process(LineDoor, line)
        stats = await self._in_process(RequestDoor, plain)
        await self._in_process(lambda service: RequestDoor(service, tracer),
                               spans, tracer)
        library = self._library_replay(tracer)

        cache = stats["plan_cache"]
        # The answer cycle (pin -> answer -> release) through each door.
        # Its medians are steady where the evaluate cycle's are not (the
        # planner races by wall clock). Over TCP the two connections are
        # concurrent, so transport_ms holds the sockets, the stream
        # codecs and the wait behind the other connection on the loop.
        over_tcp, by_line, by_request = (
            door.p50_ms("answer", raw=True) for door in (wire, line, plain))
        layer = {
            "service.wire_cycle_ms": over_tcp,
            "service.handle_request_ms": by_request,
            "service.transport_ms": over_tcp - by_line,
            "service.protocol_ms": by_line - by_request,
            "service.plan_cache_hit_ratio":
                cache["hits"] / max(cache["hits"] + cache["misses"], 1),
            "service.plan_cache_rejected": cache["rejected"],
            "service.offloaded": stats["offloaded"],
            "service.queue_depth_max": depth,
            "engine.adaptive_races": stats["adaptive"]["races"],
            "trace.overhead_share":
                spans.p50_ms("answer", raw=True) / by_request - 1,
        }
        tail = untraced.tail("answer")
        layer["service.cycle_tail_ms"] = tail[1] if tail else 0.0
        layer.update(library)
        return layer

    def _library_replay(self, tracer: Tracer) -> dict:
        """The same operations against a bare QuerySession: what the
        update, MVCC and engine layers cost with no service around."""
        from repro.engine import AdaptivePlanner, FeedbackStore

        count = self.TRACE_OPS // self.scale
        plans = [stream.take(count) for stream in self.streams()]
        with tracer.span("library.open"):
            with tracer.span("updates.session_open"):
                session = QuerySession(corpus_query(self.spec))
        adaptive = AdaptivePlanner(store=FeedbackStore())
        stats = result = None
        with quiesced():
            for step in range(count):
                for plan in plans:
                    with tracer.span("library.cycle"):
                        kind, batch = plan[step]
                        if kind == "update":
                            apply_batch(session, batch, tracer)
                            with tracer.span("updates.answer_after_delta"):
                                session.answer()
                            adaptive.store.bump_epoch()
                            continue
                        with tracer.span("mvcc.pin"):
                            snapshot = session.pin()
                        if kind == "answer":
                            with tracer.span("mvcc.snapshot_answer"):
                                snapshot.answer()
                        else:
                            with tracer.span("mvcc.detach"):
                                snapshot.detach()
                                query = snapshot.query()
                            with tracer.span("engine.adaptive_plan"):
                                chosen = adaptive.plan(query)
                            result, stats = traced_run_query(
                                tracer, query, plan=chosen, root=None)
                            with tracer.span("engine.observe"):
                                adaptive.observe(query, chosen.order, stats)
                        with tracer.span("mvcc.release"):
                            snapshot.release()
        layer = {"mvcc.active_pins_end": session.mvcc.active_count()}
        self.gate.check(session.mvcc.active_count() == 0,
                        "the library replay leaked a pin")
        if stats is not None:
            layer.update(join_counters(stats, len(result)))
        return layer


class ServeRead(Serve):
    """Reads only: two plan-cache keys, no writer."""

    name = "serve_read"
    MIX = (7, 3, 0)  # 70 % answer / 30 % evaluate


class ServeMixed(Serve):
    """Writes beside reads: every batch bumps the statistics epoch."""

    name = "serve_mixed"
    MIX = (22, 0, 9)  # of 40 operations: 55 % answer, 22.5 % each of
    #                   update and evaluate
