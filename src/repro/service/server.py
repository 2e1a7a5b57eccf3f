"""The asyncio query service: snapshot reads beside in-request updates.

One :class:`ReproService` hosts one corpus. Consistency comes from three
structural rules, not from locks:

1. **One state.** The master :class:`~repro.updates.session.
   QuerySession` is the only copy of the corpus, and only an ``update``
   request calls its editors (which patch documents *in place*). A wire
   session holds no data: it is a tenant-scoped set of pins on the
   master. A reader never watches a tree change under it, because the
   MVCC layer freezes a pinned version into a clone before the first
   write that supersedes it — one clone per (document, version), shared
   by every pin on that version, whichever tenant took it. A pin whose
   version is still current clones nothing: it reads the live objects.
2. **Atomic batches.** An ``update`` validates its batch against the
   master, then applies it inside its own request, in one synchronous
   step — no ``await`` between the first and last mutation. Snapshots
   are pinned by other requests, so a pin always observes a whole
   number of batches: torn reads are impossible by construction.
3. **Evaluate on the loop.** Every query is evaluated inline on the
   event loop over its snapshot's own inputs: the live objects while
   the pinned version is current, the retained clone once a batch has
   superseded it. Nothing awaits between resolving the inputs and the
   end of the evaluation, so no mutation can land mid-evaluate.

Every ``_op_*`` handler is a plain method, so rules 2 and 3 hold by the
handlers' type: no request can interleave with a batch or an evaluate.
Every read is a snapshot read: a ``query`` that names no snapshot pins
one, answers from it and releases it inside the one request.
"""

from __future__ import annotations

import asyncio
import sys
from contextlib import nullcontext
from typing import Any

from repro.core.multimodel import MultiModelQuery
from repro.engine.adaptive import AdaptivePlanner
from repro.engine.planner import PreparedQuery, QueryPlan, plan_query, prepare
from repro.errors import ReproError, ServiceError
from repro.instrumentation import StageStats
from repro.mvcc import Snapshot
from repro.service.corpus import corpus_query
from repro.service.protocol import (
    answer_rows,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    query_evaluate,
    require_field,
    rows_to_wire,
    validate_request,
    validate_update_ops,
)
from repro.service.tenancy import SessionManager, TenantQuota
from repro.updates.session import QuerySession
from repro.xml.parser import parse_element_tree

class ReproService:
    """One corpus, many tenants, snapshot-consistent reads."""

    def __init__(self, corpus: "str | MultiModelQuery" = "figure1", *,
                 quota: TenantQuota | None = None):
        if isinstance(corpus, str):
            self.corpus_spec = corpus
            query = corpus_query(corpus)
        else:
            self.corpus_spec = corpus.name
            query = corpus
        #: The adaptive planner behind every evaluate: races plans per
        #: query signature, and dates the held plan by the epoch of its
        #: drift ledger. A snapshot query reads the live objects or,
        #: once a batch supersedes its pin, the retained clone; either
        #: shares the race winner until the master's deltas add up to a
        #: churn burst (a quarter of an input's rows or nodes), which
        #: advances an input's generation and re-plans the held plan.
        #: Small batches keep it.
        self.adaptive = AdaptivePlanner()
        #: The corpus: the one state every batch is applied to and
        #: every snapshot is pinned on; its deltas feed the planner's
        #: drift ledger, and the answer a document edit leaves stale is
        #: derived again in the order the planner crowns.
        self.master = QuerySession(query, planner=self.adaptive)
        self.sessions = SessionManager(quota)
        #: The held plan (``_prepared_for``), the drift epoch it was
        #: planned at and, while the master's version is current, its
        #: prepared read, which every batch drops.
        self._plan: "QueryPlan | None" = None
        self._plan_epoch = -1
        self._prepared: "PreparedQuery | None" = None
        self.plan_hits = self.plan_misses = 0
        self.prepared_builds = self.prepared_hits = 0
        #: Whole update batches applied since startup; every snapshot
        #: records the value at pin time, so clients can correlate an
        #: answer with the exact prefix of the update stream it reflects.
        self.batches_applied = 0
        self.updates_applied = 0
        self.queries_served = 0
        self._shutdown_event: "asyncio.Event | None" = None
        self._closing = False

    # -- lifecycle ---------------------------------------------------------

    def _shutdown(self) -> asyncio.Event:
        if self._shutdown_event is None:
            self._shutdown_event = asyncio.Event()
        return self._shutdown_event

    def close(self) -> None:
        """Release every session and wake the serving transport."""
        self._closing = True
        for state in self.sessions.all_states():
            state.release_all()
        self._shutdown().set()

    async def aclose(self) -> None:
        """:meth:`close`, for callers that await the service's lifecycle."""
        self.close()

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
        the first one is applied.

        Labels are checked at the pre-batch version, so no op may
        follow a subtree insert or delete of its document: the splice
        would move the labels it names."""
        master = self.master
        spliced: set[int] = set()
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
            if op["input"] not in master.twig_editors:
                raise ServiceError(
                    "update",
                    f"unknown twig input {op['input']!r}; choose from "
                    f"{sorted(master.twig_editors)!r}")
            document = id(master.document_of(op["input"]))
            if document in spliced:
                raise ServiceError(
                    "update",
                    f"a {kind} on input {op['input']!r} follows a subtree "
                    "insert or delete of its document in the same batch; "
                    "send it in the next batch")
            if kind in ("insert_subtree", "delete_subtree"):
                spliced.add(document)
            node = self._resolve_node(op)
            if kind == "insert_subtree":
                try:
                    parse_element_tree(op["xml"])
                except ReproError as error:
                    raise ServiceError(
                        "update", f"invalid subtree XML: {error}") from None
                index = op.get("index")
                if index is not None and not \
                        0 <= index <= len(node.children):
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
        self._prepared = None  # it reads the live documents
        for op in ops:
            self._apply_op(op)
        self.batches_applied += 1
        self.updates_applied += len(ops)
        return self.batches_applied

    # -- the read path -----------------------------------------------------

    def _prepared_for(self, snapshot: Snapshot) -> PreparedQuery:
        """The prepared read of an evaluate at *snapshot*: the held plan,
        bound to the snapshot's inputs.

        A plan is correct on any state of the corpus, so every tenant
        and snapshot shares it until the drift epoch (not the batch
        counter) moves; then the adaptive planner plans again, and a
        re-plan that keeps the order and algorithm keeps the prepared
        read. That is held only while *snapshot* pins the current
        version: the next batch patches the documents it reads."""
        epoch, plan = self.adaptive.epoch, None
        if self._plan_epoch == epoch:  # -1 until the first plan
            self.plan_hits += 1
        else:
            self.plan_misses += 1
            query = snapshot.query()
            plan = self.adaptive.plan(query)
            if self._plan is None or (plan.order, plan.algorithm) != \
                    (self._plan.order, self._plan.algorithm):
                self._prepared = None  # it runs the superseded plan
            self._plan, self._plan_epoch = plan, epoch
        current = snapshot.version == self.master.version
        if current and self._prepared is not None:
            self.prepared_hits += 1
            return self._prepared
        if plan is None:  # the held plan, re-derived at this version
            query = snapshot.query()
            plan = plan_query(query, algorithm=self._plan.algorithm,
                              order=self._plan.order)
        prepared = prepare(query, plan)
        self.prepared_builds += 1
        if current:
            self._prepared = prepared
        return prepared

    def _pin(self) -> Snapshot:
        """Pin the corpus's current version, stamped with the number of
        batches it reflects (clients correlate answers by it)."""
        snapshot = self.master.pin()
        snapshot.metadata["batches"] = self.batches_applied
        return snapshot

    def _evaluate_snapshot(self, snapshot: Snapshot,
                           evaluate: bool) -> dict[str, Any]:
        """Answer one ``query`` at *snapshot* — the only read path.

        Synchronous: no coroutine, an update included, runs until the
        answer is built, so the pinned inputs cannot change under it.
        """
        batches = snapshot.metadata["batches"]
        if not evaluate:
            relation = snapshot.answer()
            return {"rows": answer_rows(relation),
                    "attributes": list(relation.schema.attributes),
                    "version": snapshot.version, "batches": batches,
                    "mode": "answer"}
        # Over the pinned inputs: live, or the retained clone.
        prepared = self._prepared_for(snapshot)
        # Only the input counts are read: no seek counting.
        stats = StageStats()
        relation = prepared.run(stats)
        # Count the run and the inputs it built or reused.
        self.adaptive.observe(prepared.query, prepared.plan.order, stats)
        return {"rows": rows_to_wire(relation.rows),
                "attributes": list(relation.schema.attributes),
                "version": snapshot.version, "batches": batches,
                "mode": "run", "algorithm": prepared.plan.algorithm}

    # -- request dispatch --------------------------------------------------

    async def handle_request(self, message: dict[str, Any]
                             ) -> dict[str, Any]:
        """One request in, one response envelope out (never raises)."""
        request_id = message.get("id")
        try:
            op = validate_request(message)
            handler = getattr(self, f"_op_{op}")
            fields = handler(message)
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

    # Each _op_* returns the success-envelope fields for one operation;
    # none is a coroutine, so no request runs inside another.

    def _op_ping(self, message: dict[str, Any]) -> dict[str, Any]:
        return {"pong": True, "batches": self.batches_applied}

    def _op_corpus(self, message: dict[str, Any]) -> dict[str, Any]:
        master = self.master
        return {
            "corpus": self.corpus_spec,
            "attributes": list(master.query.attributes),
            "relations": {name: len(versioned.relation)
                          for name, versioned in master.relations.items()},
            "inputs": {name: editor.document.size()
                       for name, editor in master.twig_editors.items()},
            "batches": self.batches_applied,
        }

    def _op_open(self, message: dict[str, Any]) -> dict[str, Any]:
        tenant = require_field(message, "tenant", str)
        state = self.sessions.admit_session(tenant)
        return {"session": state.sid, "version": self.master.version,
                "batches": self.batches_applied}

    def _op_close(self, message: dict[str, Any]) -> dict[str, Any]:
        tenant = require_field(message, "tenant", str)
        sid = require_field(message, "session", str)
        self.sessions.close_session(tenant, sid)
        return {"closed": sid}

    def _op_pin(self, message: dict[str, Any]) -> dict[str, Any]:
        tenant = require_field(message, "tenant", str)
        sid = require_field(message, "session", str)
        state = self.sessions.state(tenant, sid)
        self.sessions.admit_snapshot(state)
        snapshot = self._pin()
        return {"snapshot": state.register_snapshot(snapshot),
                "version": snapshot.version,
                "batches": self.batches_applied}

    def _op_release(self, message: dict[str, Any]) -> dict[str, Any]:
        tenant = require_field(message, "tenant", str)
        sid = require_field(message, "session", str)
        snapshot_id = require_field(message, "snapshot", str)
        state = self.sessions.state(tenant, sid)
        state.snapshot(snapshot_id).release()
        del state.snapshots[snapshot_id]
        return {"released": snapshot_id}

    def _op_query(self, message: dict[str, Any]) -> dict[str, Any]:
        tenant = require_field(message, "tenant", str)
        sid = require_field(message, "session", str)
        state = self.sessions.state(tenant, sid)
        snapshot_id = message.get("snapshot")
        evaluate = query_evaluate(message)  # checked before any pin
        # Without a snapshot, one is pinned for the request and released.
        with self._pin() if snapshot_id is None \
                else nullcontext(state.snapshot(snapshot_id)) as snapshot:
            response = self._evaluate_snapshot(snapshot, evaluate)
        self.queries_served += 1  # answered ones only
        return response

    def _op_update(self, message: dict[str, Any]) -> dict[str, Any]:
        require_field(message, "tenant", str)
        ops = validate_update_ops(message.get("ops"))
        return {"applied": len(ops), "batches": self._apply_batch(ops)}

    def _op_stats(self, message: dict[str, Any]) -> dict[str, Any]:
        return {
            "corpus": self.corpus_spec,
            "batches": self.batches_applied,
            "updates": self.updates_applied,
            "queries": self.queries_served,
            # Always 0 (no query leaves the loop, no update waits in a
            # queue); the e2e harness reads both.
            "offloaded": 0,
            "queue_depth": 0,
            "tenants": self.sessions.counts(),
            "mvcc": self.master.mvcc.stats(),
            # ``rejected`` is 0 (the one plan is always held); the
            # harness reads it.
            "plan_cache": {"hits": self.plan_hits,
                           "misses": self.plan_misses, "rejected": 0},
            "prepared": {"builds": self.prepared_builds,
                         "hits": self.prepared_hits},
            "adaptive": dict(
                self.adaptive.store.stats(), **self.adaptive.racer.stats(),
                generations=self.adaptive.store.generations(
                    self.master.query)),
        }

    def _op_shutdown(self, message: dict[str, Any]) -> dict[str, Any]:
        self.close()
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
                self.close()
                break
            sys.stdout.buffer.write(await self.handle_line(line))
            sys.stdout.buffer.flush()

    def __repr__(self) -> str:
        return (f"ReproService({self.corpus_spec!r}, "
                f"{len(self.sessions.all_states())} sessions, "
                f"{self.batches_applied} batches)")
