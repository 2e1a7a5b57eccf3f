"""The end-to-end acceptance scenario over real TCP.

Eight concurrent clients query pinned snapshots while a ninth streams
interleaved relational + XML update batches. Every answer must be
byte-identical to a serial oracle evaluated at the snapshot's exact
batch count — which also proves no batch is ever observed torn: a half-
applied batch would match no oracle state at all.

The oracle is built by replaying the same deterministic batch sequence
against a private copy of the corpus (specs resolve to fresh state, see
:mod:`repro.service.corpus`) and recording the answer after each batch.
Batch generation is adaptive — delete targets are picked from the
replayed state's current labels — so the stream exercises inserts,
deletes, subtree insertion/deletion and value changes.
"""

from __future__ import annotations

import asyncio

from repro.service.client import ServiceClient
from repro.service.corpus import corpus_query
from repro.service.server import ReproService
from repro.service.tenancy import TenantQuota
from repro.updates.session import QuerySession
from repro.xml.parser import parse_element_tree

CORPUS = "bookstore:orders=12,users=5,seed=3"
CLIENTS = 8
ROUNDS = 5


def order_line_xml(step: int) -> str:
    return (f"<orderLine><orderID>{77_000 + step}</orderID>"
            f"<ISBN>isbn-new-{step}</ISBN><price>{5 + step % 9}</price>"
            "</orderLine>")


def apply_batch(session: QuerySession, ops: "list[dict]") -> None:
    """Mirror the server's dispatch for the oracle replay."""
    for op in ops:
        if op["kind"] == "insert":
            session.insert(op["relation"], tuple(op["row"]))
        elif op["kind"] == "delete":
            session.delete(op["relation"], tuple(op["row"]))
        elif op["kind"] == "insert_subtree":
            document = session.document_of(op["input"])
            session.insert_subtree(
                op["input"], document.node_by_start(op["parent_start"]),
                parse_element_tree(op["xml"]), index=op.get("index"))
        elif op["kind"] == "delete_subtree":
            document = session.document_of(op["input"])
            session.delete_subtree(op["input"],
                                   document.node_by_start(op["start"]))
        else:
            document = session.document_of(op["input"])
            session.change_value(op["input"],
                                 document.node_by_start(op["start"]),
                                 op["text"])


def wire_rows(session: QuerySession) -> "list[list]":
    return [list(row) for row in sorted(session.answer().rows)]


def build_stream() -> "tuple[list[list[dict]], list[list[list]]]":
    """(batches, oracle answer after k batches for k = 0..len(batches)).

    Generated against a replayed private corpus so document addresses
    (region ``start`` labels) are valid at each batch's apply point —
    exactly as they will be on the server, which applies the same
    prefix first.
    """
    oracle = QuerySession(corpus_query(CORPUS))
    twig = oracle.query.twigs[0].name
    batches: "list[list[dict]]" = []
    answers = [wire_rows(oracle)]
    for step in range(24):
        document = oracle.document_of(twig)
        ops: "list[dict]" = [
            {"kind": "insert", "relation": "R",
             "row": [10_000 + step % 12, f"user-{step:04d}"]}]
        if step % 2 == 1:
            ops.append({"kind": "delete", "relation": "R",
                        "row": [10_000 + (step - 1) % 12,
                                f"user-{step - 1:04d}"]})
        if step % 3 == 0:
            ops.append({"kind": "insert_subtree", "input": twig,
                        "parent_start": document.root.start,
                        "xml": order_line_xml(step)})
        if step % 3 == 1:
            lines = document.nodes("orderLine")
            ops.append({"kind": "delete_subtree", "input": twig,
                        "start": lines[step % len(lines)].start})
        if step % 3 == 2:
            prices = document.nodes("price")
            ops.append({"kind": "change_value", "input": twig,
                        "start": prices[step % len(prices)].start,
                        "text": str(step)})
        apply_batch(oracle, ops)
        batches.append(ops)
        answers.append(wire_rows(oracle))
    return batches, answers


async def writer_client(host: str, port: int,
                        batches: "list[list[dict]]") -> None:
    client = await ServiceClient.connect(host, port)
    try:
        for index, ops in enumerate(batches):
            applied = await client.update("writer", ops)
            assert applied["batches"] == index + 1
    finally:
        await client.aclose()


async def reader_client(host: str, port: int, tenant: str,
                        answers: "list[list[list]]",
                        observed: "list[int]") -> None:
    client = await ServiceClient.connect(host, port)
    try:
        sid = await client.open(tenant)
        for round_index in range(ROUNDS):
            pinned = await client.pin(tenant, sid)
            batches = pinned["batches"]
            observed.append(batches)
            expected = answers[batches]
            # Both read paths: the O(1) maintained answer and a full
            # re-evaluation over the pinned inputs, on the loop.
            answer = await client.query(tenant, sid,
                                        snapshot=pinned["snapshot"])
            assert answer["batches"] == batches
            assert answer["rows"] == expected, \
                f"{tenant} r{round_index}: answer diverged at {batches}"
            evaluated = await client.query(tenant, sid,
                                           snapshot=pinned["snapshot"],
                                           evaluate=True)
            assert evaluated["rows"] == expected, \
                f"{tenant} r{round_index}: evaluation diverged at {batches}"
            await client.release(tenant, sid, pinned["snapshot"])
        await client.close(tenant, sid)
    finally:
        await client.aclose()


def test_eight_concurrent_readers_under_an_update_stream():
    batches, answers = build_stream()

    async def scenario():
        service = ReproService(
            CORPUS, quota=TenantQuota(max_sessions=2, max_snapshots=4))
        server = await asyncio.start_server(service._serve_connection,
                                            "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        observed: "list[int]" = []
        try:
            await asyncio.gather(
                writer_client("127.0.0.1", port, batches),
                *(reader_client("127.0.0.1", port, f"tenant-{index}",
                                answers, observed)
                  for index in range(CLIENTS)))
        finally:
            await service.aclose()
            server.close()
            await server.wait_closed()
        return service, observed

    service, observed = asyncio.run(scenario())
    assert service.batches_applied == len(batches)
    assert len(observed) == CLIENTS * ROUNDS
    # The run only proves concurrency if pins actually interleaved with
    # the stream: some mid-stream state must have been observed.
    assert any(0 < batches_seen < len(batches)
               for batches_seen in observed), observed
    # Every session was closed, every snapshot released.
    assert not service.sessions.all_states() \
        or all(not state.snapshots
               for state in service.sessions.all_states())


def test_oracle_stream_is_self_consistent():
    """The generator itself: replaying the emitted batches on a second
    private corpus reproduces the recorded oracle states exactly."""
    batches, answers = build_stream()
    replay = QuerySession(corpus_query(CORPUS))
    assert wire_rows(replay) == answers[0]
    for index, ops in enumerate(batches):
        apply_batch(replay, ops)
        assert wire_rows(replay) == answers[index + 1], f"batch {index}"
