"""End-to-end HTTP tests over real sockets (asyncio, in-process server)."""

from __future__ import annotations

import asyncio
import json

from repro.robust.retry import RetryPolicy
from repro.service.app import AnalysisService, ServiceConfig, make_handler
from repro.service.admission import AdmissionConfig
from repro.service.supervisor import SupervisorConfig

GRAMMAR = """
%grammar http-smoke
%start S
S : T | S T ;
T : X | Y ;
X : 'a' ;
Y : 'a' 'a' 'b' ;
"""


def _config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        workers=1,
        journal_path=str(tmp_path / "journal.jsonl"),
        cache_dir=str(tmp_path / "cache"),
        supervisor=SupervisorConfig(
            heartbeat_interval=0.05,
            hang_timeout=2.0,
            retry=RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0),
        ),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


async def _request(port, method, path, body=None, raw_body=None):
    """One HTTP round trip; returns (status, parsed_body, headers)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = (
        raw_body
        if raw_body is not None
        else (json.dumps(body).encode() if body is not None else b"")
    )
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: localhost\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, json.loads(body_blob), headers


class _Server:
    """Async context manager: a live service on an ephemeral port."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.service: AnalysisService | None = None
        self.port = 0

    async def __aenter__(self) -> "_Server":
        self.service = AnalysisService(self.config)
        await self.service.start()
        self._server = await asyncio.start_server(
            make_handler(self.service), "127.0.0.1", 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info) -> None:
        self._server.close()
        await self._server.wait_closed()
        await self.service.shutdown(drain_timeout=1.0)


class TestAnalyzeRoute:
    def test_submit_wait_completes_with_reports(self, tmp_path):
        async def scenario():
            async with _Server(_config(tmp_path)) as server:
                status, body, _ = await _request(
                    server.port,
                    "POST",
                    "/v1/analyze?wait=60",
                    body={"grammar": GRAMMAR, "name": "smoke"},
                )
                assert status == 200
                assert body["state"] == "completed"
                assert body["result"]["ok"]
                assert body["result"]["conflicts"] == 1
                assert body["result"]["reports"]
                assert "grammar" not in body  # text elided from public view

        asyncio.run(scenario())

    def test_submit_without_wait_is_accepted_then_pollable(self, tmp_path):
        async def scenario():
            async with _Server(_config(tmp_path)) as server:
                status, body, _ = await _request(
                    server.port,
                    "POST",
                    "/v1/analyze",
                    body={"grammar": GRAMMAR, "name": "poll-me"},
                )
                assert status == 202
                assert body["state"] == "queued"
                job_id = body["id"]
                for _ in range(600):
                    status, body, _ = await _request(
                        server.port, "GET", f"/v1/jobs/{job_id}"
                    )
                    assert status == 200
                    if body["state"] not in ("queued", "running"):
                        break
                    await asyncio.sleep(0.05)
                assert body["state"] == "completed"

        asyncio.run(scenario())

    def test_malformed_json_is_400(self, tmp_path):
        async def scenario():
            async with _Server(_config(tmp_path)) as server:
                status, body, _ = await _request(
                    server.port, "POST", "/v1/analyze", raw_body=b"{not json"
                )
                assert status == 400
                assert "malformed" in body["error"]

        asyncio.run(scenario())

    def test_unknown_option_is_400(self, tmp_path):
        async def scenario():
            async with _Server(_config(tmp_path)) as server:
                status, body, _ = await _request(
                    server.port,
                    "POST",
                    "/v1/analyze",
                    body={"grammar": GRAMMAR, "options": {"warp_speed": True}},
                )
                assert status == 400
                assert "warp_speed" in body["error"]

        asyncio.run(scenario())

    def test_full_queue_is_503_with_retry_after(self, tmp_path):
        async def scenario():
            config = _config(
                tmp_path, admission=AdmissionConfig(max_queue=0)
            )
            async with _Server(config) as server:
                status, body, headers = await _request(
                    server.port,
                    "POST",
                    "/v1/analyze",
                    body={"grammar": GRAMMAR},
                )
                assert status == 503
                assert "retry-after" in headers
                assert int(headers["retry-after"]) >= 1
                assert "queue full" in body["error"]

        asyncio.run(scenario())

    def test_oversize_grammar_is_413(self, tmp_path):
        async def scenario():
            config = _config(
                tmp_path, admission=AdmissionConfig(max_grammar_bytes=16)
            )
            async with _Server(config) as server:
                status, body, _ = await _request(
                    server.port, "POST", "/v1/analyze", body={"grammar": GRAMMAR}
                )
                assert status == 413

        asyncio.run(scenario())


class TestJobsRoute:
    def test_unknown_job_is_404(self, tmp_path):
        async def scenario():
            async with _Server(_config(tmp_path)) as server:
                status, body, _ = await _request(
                    server.port, "GET", "/v1/jobs/deadbeef"
                )
                assert status == 404

        asyncio.run(scenario())

    def test_wrong_method_is_405(self, tmp_path):
        async def scenario():
            async with _Server(_config(tmp_path)) as server:
                status, _, _ = await _request(server.port, "GET", "/v1/analyze")
                assert status == 405
                status, _, _ = await _request(
                    server.port, "POST", "/v1/jobs/abc", body={}
                )
                assert status == 405

        asyncio.run(scenario())

    def test_unknown_route_is_404(self, tmp_path):
        async def scenario():
            async with _Server(_config(tmp_path)) as server:
                status, _, _ = await _request(server.port, "GET", "/v2/nope")
                assert status == 404

        asyncio.run(scenario())


class TestProbes:
    def test_healthz_reports_the_full_picture(self, tmp_path):
        async def scenario():
            async with _Server(_config(tmp_path)) as server:
                await _request(
                    server.port,
                    "POST",
                    "/v1/analyze?wait=60",
                    body={"grammar": GRAMMAR, "name": "observed"},
                )
                status, body, _ = await _request(server.port, "GET", "/healthz")
                assert status == 200
                assert body["status"] == "ok"
                assert body["queue_depth"] == 0
                assert body["jobs"].get("completed") == 1
                assert body["admission"]["admitted"] == 1
                assert "breakers" in body
                assert "retries" in body
                # Phase metrics prove where analysis time went.
                assert any(
                    path == "automaton" or path.startswith("automaton/")
                    for path in body["phases"]
                )

        asyncio.run(scenario())

    def test_readyz_flips_to_503_when_draining(self, tmp_path):
        async def scenario():
            async with _Server(_config(tmp_path)) as server:
                status, body, _ = await _request(server.port, "GET", "/readyz")
                assert status == 200
                assert body["ready"]
                server.service.draining = True
                status, body, _ = await _request(server.port, "GET", "/readyz")
                assert status == 503
                assert not body["ready"]
                server.service.draining = False

        asyncio.run(scenario())


class TestCacheVisibility:
    def test_second_request_shows_no_build_phase(self, tmp_path):
        """Acceptance criterion, end to end over HTTP."""

        async def scenario():
            async with _Server(_config(tmp_path)) as server:
                _, first, _ = await _request(
                    server.port,
                    "POST",
                    "/v1/analyze?wait=60",
                    body={"grammar": GRAMMAR, "name": "warmup"},
                )
                assert any(
                    p == "automaton" or p.startswith("automaton/")
                    for p in first["result"]["phases"]
                )
                _, second, _ = await _request(
                    server.port,
                    "POST",
                    "/v1/analyze?wait=60",
                    body={"grammar": GRAMMAR, "name": "warmup"},
                )
                assert second["state"] == "completed"
                assert not any(
                    p == "automaton" or p.startswith("automaton/")
                    for p in second["result"]["phases"]
                )
                assert "cache/decode" in second["result"]["phases"]

        asyncio.run(scenario())
