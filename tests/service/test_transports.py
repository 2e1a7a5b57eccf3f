"""The service's two wire transports and its client, end to end.

``repro serve --stdio`` and ``repro serve --port 0`` run in their own
interpreter, exactly as a user starts them; the TCP one is driven by
:class:`~repro.service.client.ServiceClient`. The client's own failure
modes (a dropped connection, a desynchronised response id, an error
envelope) are checked against tiny in-process fake servers.
"""

import asyncio
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.data.scenarios import figure1_query
from repro.engine import run_query
from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.protocol import decode_message, encode_message

REPO = Path(__file__).resolve().parents[2]
TIMEOUT = 120


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


def _serve_stdio(lines):
    done = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--stdio"], cwd=REPO,
        env=_env(), input="".join(line + "\n" for line in lines),
        capture_output=True, text=True, timeout=TIMEOUT)
    return done.returncode, [json.loads(line)
                             for line in done.stdout.splitlines()]


class TestStdio:
    def test_one_response_per_line_until_shutdown(self):
        code, responses = _serve_stdio([
            '{"id": 1, "op": "ping"}',
            '{"id": 2, "op": "corpus"}',
            '{"id": 3, "op": "shutdown"}',
            '{"id": 4, "op": "ping"}',  # after shutdown: never read
        ])
        assert code == 0
        assert [r["id"] for r in responses] == [1, 2, 3]
        assert all(r["ok"] for r in responses)
        assert responses[1]["corpus"] == "figure1"
        assert responses[2]["bye"] is True

    def test_bad_lines_get_error_envelopes_and_serving_goes_on(self):
        code, responses = _serve_stdio([
            "not json",
            '{"id": 1, "op": "nope"}',
            '{"id": 2, "op": "ping"}',
        ])
        assert code == 0
        assert [(r["id"], r["ok"]) for r in responses] == [
            (None, False), (1, False), (2, True)]
        assert {r["error"] for r in responses[:2]} == {"bad_request"}

    def test_end_of_input_stops_the_server(self):
        code, responses = _serve_stdio([])
        assert code == 0
        assert responses == []


class TestTcp:
    def test_client_session_over_a_served_port(self):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--corpus", "figure1"], cwd=REPO, env=_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        watchdog = threading.Timer(TIMEOUT, process.kill)
        watchdog.start()
        try:
            banner = process.stdout.readline()
            assert banner.startswith("repro serve: listening on 127.0.0.1:")
            port = int(banner.rsplit(":", 1)[1])

            async def drive():
                client = await ServiceClient.connect("127.0.0.1", port)
                try:
                    assert (await client.ping())["pong"] is True
                    corpus = await client.corpus()
                    session = await client.open("alice")
                    answer = await client.query("alice", session,
                                                evaluate=True)
                    with pytest.raises(ServiceError) as refused:
                        await client.request(
                            "query", tenant="alice", session=session,
                            evaluate=True, algorithm="xjoin")
                    assert refused.value.code == "bad_request"
                    stats = await client.stats()
                    with pytest.raises(ServiceError) as info:
                        await client.request("nope")
                    await client.close("alice", session)
                    await client.shutdown()
                finally:
                    await client.aclose()
                return corpus, answer, stats, info.value

            corpus, answer, stats, error = asyncio.run(drive())
            assert process.wait(timeout=TIMEOUT) == 0
        finally:
            watchdog.cancel()
            process.kill()
            process.communicate()
        assert corpus["corpus"] == "figure1"
        expected = run_query(figure1_query()).sorted_rows()
        assert [tuple(row) for row in answer["rows"]] == expected
        assert answer["algorithm"] == "xjoin"
        assert "plan_cache" in stats
        assert error.code == "bad_request"


async def _with_fake_server(reply, call):
    """Run *call(client)* against a server that answers every request
    line with ``reply(request)`` (None closes the connection)."""
    async def handle(reader, writer):
        line = await reader.readline()
        response = reply(decode_message(line))
        if response is not None:
            writer.write(encode_message(response))
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    async with server:
        client = await ServiceClient.connect("127.0.0.1", port)
        try:
            return await call(client)
        finally:
            await client.aclose()


class TestClientFailures:
    def _error(self, reply):
        async def call(client):
            with pytest.raises(ServiceError) as info:
                await client.ping()
            return info.value
        return asyncio.run(_with_fake_server(reply, call))

    def test_dropped_connection(self):
        error = self._error(lambda request: None)
        assert error.code == "connection"
        assert "closed the connection" in str(error)

    def test_mismatched_response_id(self):
        error = self._error(lambda request: {"id": request["id"] + 1,
                                             "ok": True})
        assert error.code == "connection"
        assert "does not match" in str(error)

    def test_error_envelope_keeps_the_server_code(self):
        error = self._error(lambda request: {
            "id": request["id"], "ok": False, "error": "unknown_session",
            "message": "no such session"})
        assert error.code == "unknown_session"
        assert "no such session" in str(error)

    def test_success_envelope_is_returned_whole(self):
        async def call(client):
            return await client.ping()
        response = asyncio.run(_with_fake_server(
            lambda request: {"id": request["id"], "ok": True, "pong": True},
            call))
        assert response == {"id": 1, "ok": True, "pong": True}
