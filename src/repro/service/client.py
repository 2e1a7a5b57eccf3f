"""An asyncio client for the line-JSON service protocol.

Thin by design: every method sends one request object and returns the
decoded success envelope, raising :class:`~repro.errors.ServiceError`
with the server's error code otherwise — so tests and benchmarks read
like the protocol they exercise.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.errors import ServiceError
from repro.service.protocol import decode_message, encode_message


class ServiceClient:
    """One TCP connection speaking the service's line-JSON protocol."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._request_counter = 0

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        """Open a connection to a running ``repro serve``."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def aclose(self) -> None:
        """Close the connection (the server side sees EOF)."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """Send one request; return the success envelope or raise.

        The response's ``id`` is checked against the request's, so a
        protocol desync fails loudly instead of mismatching answers.
        """
        self._request_counter += 1
        request_id = self._request_counter
        message = {"op": op, "id": request_id, **fields}
        self._writer.write(encode_message(message))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ServiceError("connection",
                               "server closed the connection mid-request")
        response = decode_message(line)
        if response.get("id") != request_id:
            raise ServiceError(
                "connection",
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id!r}")
        if not response.get("ok"):
            raise ServiceError(response.get("error", "internal"),
                               response.get("message", "unknown error"))
        return response

    # -- one convenience per protocol op -----------------------------------

    async def ping(self) -> dict[str, Any]:
        """Liveness check; returns the current batch count."""
        return await self.request("ping")

    async def corpus(self) -> dict[str, Any]:
        """The hosted corpus's shape (inputs, sizes, attributes)."""
        return await self.request("corpus")

    async def open(self, tenant: str) -> str:
        """Open a session; returns its id."""
        response = await self.request("open", tenant=tenant)
        return response["session"]

    async def close(self, tenant: str, session: str) -> None:
        """Close a session, releasing its snapshots."""
        await self.request("close", tenant=tenant, session=session)

    async def pin(self, tenant: str, session: str) -> dict[str, Any]:
        """Pin a snapshot; returns ``{"snapshot", "version", "batches"}``."""
        return await self.request("pin", tenant=tenant, session=session)

    async def release(self, tenant: str, session: str,
                      snapshot: str) -> None:
        """Release a pinned snapshot."""
        await self.request("release", tenant=tenant, session=session,
                           snapshot=snapshot)

    async def query(self, tenant: str, session: str, *,
                    snapshot: str | None = None,
                    evaluate: bool = False,
                    algorithm: str | None = None,
                    order: "str | list | None" = None) -> dict[str, Any]:
        """Query the live session, or a pinned snapshot of it."""
        fields: dict[str, Any] = {"tenant": tenant, "session": session}
        if snapshot is not None:
            fields["snapshot"] = snapshot
        if evaluate:
            fields["evaluate"] = True
        if algorithm is not None:
            fields["algorithm"] = algorithm
        if order is not None:
            fields["order"] = order
        return await self.request("query", **fields)

    async def update(self, tenant: str,
                     ops: list[dict[str, Any]]) -> dict[str, Any]:
        """Submit one atomic update batch; returns the batch number."""
        return await self.request("update", tenant=tenant, ops=ops)

    async def stats(self) -> dict[str, Any]:
        """Service-wide counters (tenants, mvcc, held plans)."""
        return await self.request("stats")

    async def shutdown(self) -> None:
        """Ask the server to shut down cleanly."""
        await self.request("shutdown")
