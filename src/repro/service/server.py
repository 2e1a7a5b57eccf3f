"""The asyncio query service: snapshot reads under a single writer.

One :class:`ReproService` hosts one corpus. Consistency comes from three
structural rules, not from locks:

1. **One state, one writer.** The master :class:`~repro.updates.session.
   QuerySession` is the only copy of the corpus, and only the writer
   task calls its editors (which patch documents *in place*). A wire
   session holds no data: it is a tenant-scoped set of pins on the
   master. A reader never watches a tree change under it, because the
   MVCC layer freezes a pinned version into a clone before the first
   write that supersedes it — one clone per (document, version), shared
   by every pin on that version, whichever tenant took it.
2. **Atomic batches.** A batch is validated against the master, then
   applied in one synchronous step of the single writer task — no
   ``await`` between the first and last mutation. Snapshots are pinned
   between steps of the event loop, so a pin always observes a whole
   number of batches: torn reads are impossible by construction.
3. **Detach before offload.** A query may only leave the event-loop
   thread once its snapshot is *detached* (every pinned document frozen
   into a clone, every relation an immutable retained object) and its
   inputs are resolved; the worker thread then races nothing.

Every read is a snapshot read: a ``query`` that names no snapshot pins
one, answers from it and releases it inside the one request.

The writer queue is bounded: when producers outrun the writer the
service answers ``backpressure`` instead of buffering without limit, and
per-tenant ``pending_updates`` quotas stop one tenant from filling the
shared queue.
"""

from __future__ import annotations

import asyncio
import sys
from typing import Any

from repro.core.multimodel import MultiModelQuery
from repro.engine.adaptive import AdaptivePlanner, FeedbackStore
from repro.engine.planner import plan_query, run_query
from repro.errors import (
    EngineError,
    PlanError,
    ReproError,
    ServiceError,
    TransportError,
)
from repro.instrumentation import JoinStats
from repro.mvcc import Snapshot
from repro.service.cache import PlanCache
from repro.service.corpus import corpus_query
from repro.service.protocol import (
    decode_message,
    encode_message,
    error_response,
    ok_response,
    require_field,
    rows_to_wire,
    validate_request,
    validate_update_ops,
)
from repro.service.tenancy import SessionManager, TenantQuota
from repro.updates.session import QuerySession
from repro.xml.parser import parse_element_tree


class ReproService:
    """One corpus, many tenants, one writer, snapshot-consistent reads."""

    def __init__(self, corpus: "str | MultiModelQuery" = "figure1", *,
                 quota: TenantQuota | None = None,
                 queue_limit: int = 32,
                 offload_threshold: int = 4096,
                 workers: int = 0,
                 plan_cache: PlanCache | None = None,
                 adaptive: bool = True):
        if isinstance(corpus, str):
            self.corpus_spec = corpus
            query = corpus_query(corpus)
        else:
            self.corpus_spec = corpus.name
            query = corpus
        #: The adaptive planner behind un-overridden snapshot queries:
        #: races plans per query signature, learns cardinality
        #: corrections from every executed snapshot query, and keys the
        #: shared plan cache by its feedback epoch. Inputs are stamped
        #: *logically* (their drift generation) because snapshot
        #: queries run over detached per-version clones: corrections
        #: learned from one tenant's snapshot apply to every tenant
        #: until the master's deltas add up to a churn burst, which
        #: advances the generation and retires them (and every cached
        #: plan) at once. Small batches inherit all of it.
        self.adaptive = AdaptivePlanner(store=FeedbackStore(
            stamp_fn=self._logical_stamps)) if adaptive else None
        #: The corpus: the one state every batch is applied to and
        #: every snapshot is pinned on; its deltas feed the planner's
        #: drift ledger.
        self.master = QuerySession(
            query, feedback=self.adaptive.store if adaptive else None)
        self.sessions = SessionManager(quota)
        self.plan_cache = plan_cache or PlanCache()
        self.queue_limit = queue_limit
        #: Input-size floor (rows + nodes) above which a detached
        #: snapshot query is evaluated off the event-loop thread.
        self.offload_threshold = offload_threshold
        #: Worker processes for offloaded queries (0 = in-thread).
        self.workers = workers
        #: Whole update batches applied since startup; every snapshot
        #: records the value at pin time, so clients can correlate an
        #: answer with the exact prefix of the update stream it reflects.
        self.batches_applied = 0
        self.updates_applied = 0
        self.queries_served = 0
        self.offloaded_queries = 0
        self._queue: "asyncio.Queue | None" = None
        self._writer_task: "asyncio.Task | None" = None
        self._shutdown_event: "asyncio.Event | None" = None
        self._closing = False

    def _logical_stamps(self, query: MultiModelQuery) -> dict[str, int]:
        """Per-input generation stamps for the feedback store (see
        ``adaptive`` in ``__init__``)."""
        return self.adaptive.store.generations(query)

    # -- lifecycle ---------------------------------------------------------

    def _shutdown(self) -> asyncio.Event:
        if self._shutdown_event is None:
            self._shutdown_event = asyncio.Event()
        return self._shutdown_event

    def _ensure_writer(self) -> asyncio.Queue:
        """The single-writer queue (task spawned on first update)."""
        if self._queue is None:
            self._queue = asyncio.Queue(maxsize=self.queue_limit)
            self._writer_task = asyncio.get_running_loop().create_task(
                self._writer_loop())
        return self._queue

    async def _writer_loop(self) -> None:
        """Drain the update queue, one atomic batch per step."""
        assert self._queue is not None
        while True:
            ops, tenant, future = await self._queue.get()
            try:
                if not future.cancelled():
                    future.set_result(self._apply_batch(ops))
            except Exception as error:  # surfaced to the one requester
                if not future.cancelled():
                    future.set_exception(error)
            finally:
                tenant.pending_updates -= 1
                self._queue.task_done()

    async def aclose(self) -> None:
        """Release every session and stop the writer task."""
        self._closing = True
        for state in self.sessions.all_states():
            state.release_all()
        if self._writer_task is not None:
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
            self._writer_task = None
        self._shutdown().set()

    # -- the update path ---------------------------------------------------

    def _resolve_node(self, op: dict[str, Any]):
        """The node one document-addressing operation names."""
        start = op.get("parent_start", op.get("start"))
        node = self.master.document_of(op["input"]).node_by_start(start)
        if node is None:
            raise ServiceError(
                "update",
                f"input {op['input']!r} has no node with start label "
                f"{start} at the current version")
        return node

    def _validate_batch(self, ops: list[dict[str, Any]]) -> None:
        """All-or-nothing gate: check every op against the corpus before
        the first one is applied."""
        master = self.master
        for op in ops:
            kind = op["kind"]
            if kind in ("insert", "delete"):
                versioned = master.relations.get(op["relation"])
                if versioned is None:
                    raise ServiceError(
                        "update",
                        f"unknown relation {op['relation']!r}; choose "
                        f"from {sorted(master.relations)!r}")
                if len(op["row"]) != versioned.relation.schema.arity:
                    raise ServiceError(
                        "update",
                        f"relation {op['relation']!r} has arity "
                        f"{versioned.relation.schema.arity}, row "
                        f"{op['row']!r} has {len(op['row'])}")
                continue
            if op["input"] not in master.answers:
                raise ServiceError(
                    "update",
                    f"unknown twig input {op['input']!r}; choose from "
                    f"{sorted(master.answers)!r}")
            node = self._resolve_node(op)
            if kind == "insert_subtree":
                try:
                    parse_element_tree(op["xml"])
                except ReproError as error:
                    raise ServiceError(
                        "update", f"invalid subtree XML: {error}") from None
                index = op.get("index")
                if index is not None and not (
                        isinstance(index, int)
                        and 0 <= index <= len(node.children)):
                    raise ServiceError(
                        "update",
                        f"insert index {index!r} out of range for a node "
                        f"with {len(node.children)} children")
            elif kind == "delete_subtree" and node.parent is None:
                raise ServiceError("update",
                                   "cannot delete the document root")

    def _apply_op(self, op: dict[str, Any]) -> None:
        """Apply one validated operation to the corpus."""
        master = self.master
        kind = op["kind"]
        if kind == "insert":
            master.insert(op["relation"], tuple(op["row"]))
        elif kind == "delete":
            master.delete(op["relation"], tuple(op["row"]))
        elif kind == "insert_subtree":
            master.insert_subtree(op["input"], self._resolve_node(op),
                                  parse_element_tree(op["xml"]),
                                  index=op.get("index"))
        elif kind == "delete_subtree":
            master.delete_subtree(op["input"], self._resolve_node(op))
        else:  # change_value
            master.change_value(op["input"], self._resolve_node(op),
                                op["text"])

    def _apply_batch(self, ops: list[dict[str, Any]]) -> int:
        """Validate, then apply one batch. Fully synchronous: between
        the first and last mutation no coroutine runs, so every pin
        (and every read) sees a whole number of batches."""
        self._validate_batch(ops)
        for op in ops:
            self._apply_op(op)
        self.batches_applied += 1
        self.updates_applied += len(ops)
        return self.batches_applied

    # -- the read path -----------------------------------------------------

    def _plan_for(self, query: MultiModelQuery,
                  algorithm: "str | None",
                  order: "str | tuple | None"
                  ) -> tuple[str, tuple, tuple]:
        """(algorithm, order, twig algorithms) via the shared plan cache.

        Keyed by (corpus, stats epoch, overrides): a plan is correct on
        any state of the corpus, so sessions, tenants and snapshots —
        whatever batch they pinned — share it until the statistics
        drift. The stats epoch (bumped by the feedback loop on material
        correction changes and by an input's generation advancing, not
        by the batch counter) keys out plans built against drifted
        statistics instead of serving them forever.

        Un-overridden queries are planned by the adaptive planner — the
        raced winner is what lands in the shared cache, so tenants
        hitting the cache benefit from a race they never ran.
        """
        order_key = tuple(order) if isinstance(order, list) else order
        epoch = self.adaptive.epoch if self.adaptive is not None else -1
        key = (self.corpus_spec, epoch, algorithm, order_key)
        cached = self.plan_cache.get(key)
        if cached is not None:
            return cached
        if self.adaptive is not None and algorithm is None \
                and order is None:
            plan = self.adaptive.plan(query)
        else:
            plan = plan_query(query, algorithm=algorithm, order=order)
        # The twig matchers travel with the cached plan, so the
        # response can report which backend — e.g. ``accel`` — served
        # each twig input without replanning.
        resolved = (plan.algorithm, plan.order, plan.twig_algorithms)
        self.plan_cache.put(key, resolved)
        return resolved

    def _query_cost(self, query: MultiModelQuery) -> int:
        """A cheap input-size proxy deciding thread offload."""
        return (sum(len(relation) for relation in query.relations)
                + sum(binding.document.size() for binding in query.twigs))

    def _pin(self) -> Snapshot:
        """Pin the corpus's current version, stamped with the number of
        batches it reflects (clients correlate answers by it)."""
        snapshot = self.master.pin()
        snapshot.metadata["batches"] = self.batches_applied
        return snapshot

    async def _evaluate_snapshot(self, snapshot: Snapshot,
                                 message: dict[str, Any]) -> dict[str, Any]:
        """Answer one ``query`` at *snapshot* — the only read path."""
        batches = snapshot.metadata["batches"]
        algorithm = message.get("algorithm")
        order = message.get("order")
        if not (message.get("evaluate") or algorithm or order):
            relation = snapshot.answer()
            return {"rows": rows_to_wire(relation.rows),
                    "attributes": list(relation.schema.attributes),
                    "version": snapshot.version, "batches": batches,
                    "mode": "answer"}
        # Resolve inputs and plan on the loop thread; offload only once
        # the snapshot no longer touches anything the writer mutates.
        snapshot.detach()
        query = snapshot.query()
        adaptive_run = (self.adaptive is not None and algorithm is None
                        and order is None)
        stats = JoinStats() if adaptive_run else None
        offloaded = self._query_cost(query) >= self.offload_threshold
        try:
            algorithm, order, twigs = self._plan_for(query, algorithm,
                                                     order)
            if offloaded:
                self.offloaded_queries += 1
                relation = await asyncio.to_thread(
                    run_query, query, algorithm=algorithm, order=order,
                    workers=self.workers, stats=stats)
            else:
                relation = run_query(query, algorithm=algorithm,
                                     order=order, stats=stats)
        except TransportError:
            raise  # a worker fault, not the client's request
        except (PlanError, EngineError) as error:
            # The planner or a kernel refused the client's override.
            raise ServiceError("bad_request", str(error)) from None
        if adaptive_run:
            # Close the feedback loop: fold this query's observed stage
            # sizes into the shared correction store.
            self.adaptive.observe(query, tuple(order), stats)
        return {"rows": rows_to_wire(relation.rows),
                "attributes": list(relation.schema.attributes),
                "version": snapshot.version, "batches": batches,
                "mode": "run", "algorithm": algorithm,
                "twigs": dict(twigs), "offloaded": offloaded}

    # -- request dispatch --------------------------------------------------

    async def handle_request(self, message: dict[str, Any]
                             ) -> dict[str, Any]:
        """One request in, one response envelope out (never raises)."""
        request_id = message.get("id")
        try:
            op = validate_request(message)
            handler = getattr(self, f"_op_{op}")
            fields = await handler(message)
            return ok_response(request_id, **fields)
        except Exception as error:  # noqa: BLE001 — becomes the envelope
            return error_response(request_id, error)

    async def handle_line(self, line: "bytes | str") -> bytes:
        """One wire line in, one encoded response line out."""
        try:
            message = decode_message(line)
        except ServiceError as error:
            return encode_message(error_response(None, error))
        return encode_message(await self.handle_request(message))

    # Each _op_* returns the success-envelope fields for one operation.

    async def _op_ping(self, message: dict[str, Any]) -> dict[str, Any]:
        return {"pong": True, "batches": self.batches_applied}

    async def _op_corpus(self, message: dict[str, Any]) -> dict[str, Any]:
        master = self.master
        return {
            "corpus": self.corpus_spec,
            "attributes": list(master.query.attributes),
            "relations": {name: len(versioned.relation)
                          for name, versioned in master.relations.items()},
            "inputs": {name: answer.document.size() if hasattr(
                answer, "document") else 0
                for name, answer in master.answers.items()},
            "batches": self.batches_applied,
        }

    async def _op_open(self, message: dict[str, Any]) -> dict[str, Any]:
        tenant = require_field(message, "tenant", str)
        state = self.sessions.admit_session(tenant)
        return {"session": state.sid, "version": self.master.version,
                "batches": self.batches_applied}

    async def _op_close(self, message: dict[str, Any]) -> dict[str, Any]:
        tenant = require_field(message, "tenant", str)
        sid = require_field(message, "session", str)
        self.sessions.close_session(tenant, sid)
        return {"closed": sid}

    async def _op_pin(self, message: dict[str, Any]) -> dict[str, Any]:
        tenant = require_field(message, "tenant", str)
        sid = require_field(message, "session", str)
        state = self.sessions.state(tenant, sid)
        self.sessions.admit_snapshot(state)
        snapshot = self._pin()
        return {"snapshot": state.register_snapshot(snapshot),
                "version": snapshot.version,
                "batches": self.batches_applied}

    async def _op_release(self, message: dict[str, Any]) -> dict[str, Any]:
        tenant = require_field(message, "tenant", str)
        sid = require_field(message, "session", str)
        snapshot_id = require_field(message, "snapshot", str)
        state = self.sessions.state(tenant, sid)
        state.snapshot(snapshot_id).release()
        del state.snapshots[snapshot_id]
        return {"released": snapshot_id}

    async def _op_query(self, message: dict[str, Any]) -> dict[str, Any]:
        tenant = require_field(message, "tenant", str)
        sid = require_field(message, "session", str)
        state = self.sessions.state(tenant, sid)
        self.queries_served += 1
        snapshot_id = message.get("snapshot")
        if snapshot_id is not None:
            return await self._evaluate_snapshot(
                state.snapshot(snapshot_id), message)
        with self._pin() as snapshot:  # released when the request ends
            return await self._evaluate_snapshot(snapshot, message)

    async def _op_update(self, message: dict[str, Any]) -> dict[str, Any]:
        tenant_name = require_field(message, "tenant", str)
        ops = validate_update_ops(message.get("ops"))
        queue = self._ensure_writer()
        tenant = self.sessions.admit_update(tenant_name)
        future = asyncio.get_running_loop().create_future()
        try:
            queue.put_nowait((ops, tenant, future))
        except asyncio.QueueFull:
            tenant.pending_updates -= 1
            raise ServiceError(
                "backpressure",
                f"the update queue is full ({self.queue_limit} batches); "
                f"retry after in-flight updates drain") from None
        batches = await future
        return {"applied": len(ops), "batches": batches}

    async def _op_stats(self, message: dict[str, Any]) -> dict[str, Any]:
        mvcc = self.master.mvcc

        def retained(chains: dict) -> int:
            return sum(len(chain.retained_versions())
                       for chain in chains.values())

        return {
            "corpus": self.corpus_spec,
            "batches": self.batches_applied,
            "updates": self.updates_applied,
            "queries": self.queries_served,
            "offloaded": self.offloaded_queries,
            "queue_depth": (self._queue.qsize()
                            if self._queue is not None else 0),
            "tenants": self.sessions.counts(),
            "mvcc": {
                "pins": mvcc.active_count(),
                "watermark": mvcc.watermark(),
                "retained_documents": retained(mvcc.document_chains),
                "retained_relations": retained(mvcc.relation_chains)},
            "plan_cache": self.plan_cache.stats(),
            "adaptive": (dict(
                self.adaptive.store.stats(), **self.adaptive.racer.stats(),
                generations=self._logical_stamps(self.master.query))
                if self.adaptive is not None else None),
        }

    async def _op_shutdown(self, message: dict[str, Any]) -> dict[str, Any]:
        await self.aclose()
        return {"bye": True}

    # -- transports --------------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """One TCP client: a line in, a line out, until EOF or shutdown."""
        try:
            while not self._closing:
                line = await reader.readline()
                if not line:
                    break
                writer.write(await self.handle_line(line))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def serve_tcp(self, host: str = "127.0.0.1",
                        port: int = 0) -> None:
        """Serve line-JSON over TCP until a ``shutdown`` request.

        With ``port=0`` the kernel picks a free port; the actual one is
        printed as ``repro serve: listening on HOST:PORT`` (machine-
        readable — the CI smoke step parses it).
        """
        server = await asyncio.start_server(self._serve_connection,
                                            host, port)
        actual_port = server.sockets[0].getsockname()[1]
        print(f"repro serve: listening on {host}:{actual_port}",
              flush=True)
        async with server:
            await self._shutdown().wait()

    async def serve_stdio(self) -> None:
        """Serve line-JSON on stdin/stdout until EOF or ``shutdown``."""
        loop = asyncio.get_running_loop()
        while not self._closing:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if not line:
                await self.aclose()
                break
            sys.stdout.buffer.write(await self.handle_line(line))
            sys.stdout.buffer.flush()

    def __repr__(self) -> str:
        return (f"ReproService({self.corpus_spec!r}, "
                f"{len(self.sessions.all_states())} sessions, "
                f"{self.batches_applied} batches)")
