"""End-to-end loopback tests: real sockets, real admission control.

The flagship assertions from the acceptance criteria live here: a result
obtained through the service is bit-identical (up to exact JSON float
round-tripping) to the same JobSpec executed directly; a saturated server
answers 429 with Retry-After and never drops an accepted job; SIGTERM-style
drain leaves every job terminal.  Connection reuse is checked on raw
sockets: which requests keep a connection open and which close it.
"""

import asyncio
import http.client
import json
import socket
import sys
import threading
import time

import pytest

from repro.experiments.executor import result_to_jsonable
from repro.serve import (
    ClientError,
    LoadGenerator,
    ServeClient,
    ServerBusy,
    ServerThread,
    ServiceConfig,
)
from repro.serve.http import BadRequest, HttpApi, Request, _read_request
from repro.serve.jobs import JobState

from tests.serve.helpers import FAST_SPEC, SLOW_SPEC, fast_jobspec, slow_spec


def exchange(port: int, raw: bytes) -> bytes:
    """Send raw request bytes; everything the server sends until it closes.

    A server that keeps the socket open fails the test on the timeout.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(raw)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def long_spec(seed: int) -> dict:
    """A job that runs for seconds, far past the deadlines tested against it."""
    return dict(SLOW_SPEC, num_requests=40_000, seed=seed)


def endless_spec(seed: int) -> dict:
    """A job that runs for about 15 s, far longer than a shutdown may take."""
    return dict(SLOW_SPEC, num_requests=200_000, seed=seed)


def stopping_time(server: ServerThread) -> float:
    """Seconds :meth:`ServerThread.stop` took; its thread must be gone."""
    started = time.monotonic()
    server.stop()
    elapsed = time.monotonic() - started
    assert not server._thread.is_alive()
    return elapsed


class TestPlumbing:
    def test_healthz_and_metrics(self, cached_server):
        client = cached_server.client()
        assert client.healthz() == {"status": "ok"}
        metrics = client.metrics()
        assert metrics["state"] == "running"
        assert metrics["queue_capacity"] == 8
        assert metrics["workers"] == 2

    def test_schemes_lists_the_registry(self, cached_server):
        client = cached_server.client()
        schemes = client.schemes()
        names = {scheme["name"] for scheme in schemes}
        assert {"unprotected", "obfusmem_auth", "oram", "hide"} <= names
        auth = next(s for s in schemes if s["name"] == "obfusmem_auth")
        assert "authenticated" in auth["traits"]
        assert auth["stages"][-1] == "pcm-channels"

    def test_unknown_routes_and_jobs_are_404(self, cached_server):
        client = cached_server.client()
        status, _headers, payload = client.request("GET", "/nope")
        assert status == 404 and "error" in payload
        status, _headers, payload = client.request("GET", "/jobs/j999999-deadbeef")
        assert status == 404

    def test_malformed_submissions_are_400(self, cached_server):
        client = cached_server.client()
        status, _headers, payload = client.request("POST", "/jobs", {"level": "oram"})
        assert status == 400 and "benchmark" in payload["error"]
        status, _headers, payload = client.request(
            "POST", "/jobs", dict(FAST_SPEC, level="obfusmen_auth")
        )
        assert status == 400 and "obfusmem_auth" in payload["error"]  # hint
        submission = dict(FAST_SPEC, timeout_s=float("nan"))  # sent as NaN
        status, _headers, payload = client.request("POST", "/jobs", submission)
        assert status == 400 and "finite" in payload["error"]

    def test_method_misuse_is_405(self, cached_server):
        client = cached_server.client()
        status, _headers, _payload = client.request("POST", "/healthz", {})
        assert status == 405
        status, _headers, _payload = client.request("DELETE", "/jobs")
        assert status == 405


class TestEndToEnd:
    def test_served_result_matches_direct_execution(self, cached_server):
        client = cached_server.client()
        served = client.run(FAST_SPEC)
        direct = result_to_jsonable(fast_jobspec().execute())
        assert served == direct  # bit-identical through the whole stack

    def test_repeat_submission_is_a_cache_hit(self, cached_server):
        client = cached_server.client()
        cold = client.run(FAST_SPEC)
        warm_job = client.submit(FAST_SPEC)
        final = client.wait(warm_job["id"], deadline_s=60.0)
        assert final["state"] == "done"
        assert final["source"] in ("memory", "disk", "coalesced")
        assert final["result"] == cold

    def test_long_poll_returns_completed_job(self, cached_server):
        client = cached_server.client()
        job = client.submit(FAST_SPEC)
        final = client.job(job["id"], wait_s=30.0)
        assert final["state"] == "done"
        assert [state for _t, state in final["transitions"]] == [
            "queued",
            "running",
            "done",
        ]

    def test_progress_event_stream(self, cached_server):
        client = cached_server.client()
        job = client.submit(FAST_SPEC)
        connection = http.client.HTTPConnection(
            "127.0.0.1", cached_server.port, timeout=60
        )
        try:
            connection.request("GET", f"/jobs/{job['id']}/events")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/x-ndjson"
            # No length: read() below returns only once the server closes.
            assert response.getheader("Connection") == "close"
            lines = [
                json.loads(line)
                for line in response.read().decode().strip().splitlines()
            ]
        finally:
            connection.close()
        states = [line["state"] for line in lines]
        assert states[0] == "queued"
        assert states[-1] == "done"
        assert lines[-1]["source"] in ("simulated", "memory", "disk", "coalesced")


@pytest.fixture
def counted_server(monkeypatch):
    """A 1-worker server plus the list of connections it accepted."""
    accepted = []
    serve = HttpApi.handle_connection

    async def counting(api, reader, writer):
        accepted.append(writer.get_extra_info("peername"))
        await serve(api, reader, writer)

    monkeypatch.setattr(HttpApi, "handle_connection", counting)
    with ServerThread(ServiceConfig(workers=1, cache_dir=None)) as server:
        yield server, accepted


class TestKeepAlive:
    def test_one_client_reuses_one_connection_per_thread(self, counted_server):
        server, accepted = counted_server
        client = server.client()
        for _ in range(3):
            assert client.healthz() == {"status": "ok"}
        assert client.metrics()["state"] == "running"
        assert len(accepted) == 1
        # A second thread never shares the first one's socket.
        thread = threading.Thread(target=client.healthz)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert len(accepted) == 2
        assert client.healthz() == {"status": "ok"}
        assert len(accepted) == 2
        assert client.stats["retries_connect"] == 0

    def test_threads_sharing_a_client_get_their_own_answers(self, counted_server):
        server, accepted = counted_server
        client = server.client()
        mismatches = []

        def hammer(thread_index: int) -> None:
            for round_index in range(20):
                job_id = f"j{thread_index:03d}{round_index:03d}-deadbeef"
                status, _headers, payload = client.request("GET", f"/jobs/{job_id}")
                if status != 404 or job_id not in payload["error"]:
                    mismatches.append((job_id, status, payload))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert 1 <= len(accepted) <= 8

    def test_responses_on_a_kept_connection_say_keep_alive(self, cached_server):
        first = b"GET /healthz HTTP/1.1\r\n\r\n"
        last = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        reply = exchange(cached_server.port, first + first + last)
        assert reply.count(b"HTTP/1.1 200 OK") == 3
        assert reply.count(b"Connection: keep-alive") == 2
        assert reply.count(b"Connection: close") == 1

    @pytest.mark.parametrize(
        "raw",
        [
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /healthz HTTP/1.0\r\n\r\n",
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_close_requests_get_one_response_then_eof(self, cached_server, raw):
        reply = exchange(cached_server.port, raw + raw)
        assert reply.count(b"HTTP/1.1 200 OK") == 1
        assert b"Connection: close" in reply
        assert reply.endswith(b'{"status": "ok"}\n')

    def test_malformed_request_line_is_400_then_eof(self, cached_server):
        good = b"GET /healthz HTTP/1.1\r\n\r\n"
        reply = exchange(cached_server.port, b"NONSENSE\r\n\r\n" + good)
        assert reply.startswith(b"HTTP/1.1 400 Bad Request")
        assert b"Connection: close" in reply
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_chunked_request_body_is_400_then_eof(self, cached_server):
        raw = (
            b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n"
        )
        reply = exchange(cached_server.port, raw)
        assert reply.startswith(b"HTTP/1.1 400 Bad Request")
        assert reply.count(b"HTTP/1.1 ") == 1


class TestWireInput:
    @pytest.mark.parametrize(
        "text, expected",
        [("2.5", 2.5), ("0", 0.0), ("x", None), ("nan", None), ("inf", None)],
    )
    def test_query_float_admits_only_finite_numbers(self, text, expected):
        request = Request("GET", "/jobs/j1", {"wait_s": [text]}, {}, b"")
        assert request.query_float("wait_s") == expected

    @pytest.mark.parametrize(
        "head",
        [
            b"GET /" + b"a" * 2048 + b" HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nX-Long: " + b"a" * 2048 + b"\r\n\r\n",
        ],
        ids=["request-line", "header-line"],
    )
    def test_overlong_head_line_is_a_bad_request(self, head):
        async def parse():
            reader = asyncio.StreamReader(limit=1024)
            reader.feed_data(head)
            reader.feed_eof()
            return await _read_request(reader)

        with pytest.raises(BadRequest, match="too long"):
            asyncio.run(parse())


class TestBackpressure:
    def test_saturated_server_answers_429_with_retry_after(self, tiny_server):
        raw = tiny_server.client(max_retries=0)
        accepted = []
        refusal = None
        # depth 2 + 1 worker: a burst of cold jobs must hit admission
        # control.  The low-level exchange exposes the raw status and
        # headers that the retrying client normally absorbs.
        for seed in range(101, 109):
            status, headers, payload = raw._once(
                "POST", "/jobs", json.dumps(slow_spec(seed)).encode()
            )
            if status == 202:
                accepted.append(payload)
                continue
            refusal = (status, headers, payload)
            break
        assert refusal is not None, "queue never saturated"
        status, headers, payload = refusal
        assert status == 429
        assert float(headers["Retry-After"]) > 0
        assert payload["retry_after_s"] > 0
        # The service itself stays responsive while saturated.
        assert raw.request("GET", "/metrics")[0] == 200
        # Accepted jobs are never dropped: every one reaches a terminal state.
        for job in accepted:
            raw.cancel(job["id"])
        for job in accepted:
            final = raw.wait(job["id"], deadline_s=120.0)
            assert final["state"] in ("done", "cancelled")

    def test_retrying_clients_ride_out_saturation(self, tiny_server):
        # Closed-loop load with more concurrency than the queue admits:
        # the clients' 429 retries must land every single request.
        generator = LoadGenerator(
            host="127.0.0.1",
            port=tiny_server.port,
            spec=slow_spec(seed=151),
            threads=3,
            requests_per_thread=2,
            deadline_s=300.0,
        )
        report = generator.run()
        assert report.failed == 0
        assert report.completed == 6
        assert len(report.latencies_s) == 6
        assert report.to_jsonable()["latency_p95_s"] >= report.to_jsonable()[
            "latency_p50_s"
        ]

    def test_busy_error_when_retry_budget_exhausts(self, tiny_server):
        raw = tiny_server.client(max_retries=0)
        with pytest.raises(ServerBusy) as busy:
            for seed in range(201, 209):
                raw.submit(slow_spec(seed))
        assert busy.value.retry_after_s > 0


class TestWaitDeadline:
    def test_wait_raises_near_its_deadline_not_after_a_poll(self, tiny_server):
        client = tiny_server.client()
        job = client.submit(long_spec(seed=195))
        try:
            started = time.monotonic()
            with pytest.raises(ClientError, match="at deadline"):
                client.wait(job["id"], poll_s=5.0, deadline_s=0.5)
            assert time.monotonic() - started < 1.5
        finally:
            client.cancel(job["id"])


class TestCancellation:
    def test_delete_cancels_a_running_job(self, tiny_server):
        client = tiny_server.client()
        job = client.submit(slow_spec(seed=161))
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] in ("queued", "running", "cancelled")
        final = client.wait(job["id"], deadline_s=60.0)
        assert final["state"] == "cancelled"
        assert "result" not in final

    def test_delete_after_completion_is_409(self, cached_server):
        client = cached_server.client()
        client.run(FAST_SPEC)
        jobs = client.request("GET", "/jobs")[2]["jobs"]
        done = next(job for job in jobs if job["state"] == "done")
        status, _headers, payload = client.request("DELETE", f"/jobs/{done['id']}")
        assert status == 409
        assert payload["job"]["state"] == "done"


class TestGracefulShutdown:
    def test_drain_finishes_inflight_and_refuses_new_work(self):
        config = ServiceConfig(workers=2, queue_depth=8, cache_dir=None)
        server = ServerThread(config).start()
        client = server.client()
        jobs = [client.submit(slow_spec(seed)) for seed in (171, 172, 173)]
        server.stop()  # the SIGTERM path: drain, then join
        board = server.service.board
        states = {job["id"]: board.get(job["id"]).state for job in jobs}
        assert all(state is JobState.DONE for state in states.values())
        # The socket is closed: new submissions cannot reach the service.
        with pytest.raises((ConnectionError, OSError)):
            server.client(max_retries=0).submit(FAST_SPEC)

    def test_drain_ends_a_long_poll_then_closes_its_connection(self):
        config = ServiceConfig(workers=1, queue_depth=8, cache_dir=None)
        server = ServerThread(config, drain_grace_s=0.05).start()
        with ServeClient(server.host, server.port) as client:
            job = client.submit(endless_spec(seed=177))
            replies = []
            poll = threading.Thread(
                target=lambda: replies.append(
                    client.request("GET", f"/jobs/{job['id']}?wait_s=120")
                )
            )
            poll.start()
            time.sleep(0.5)  # the long-poll is in flight
            stop_s = stopping_time(server)
            poll.join(timeout=10.0)
            assert not poll.is_alive()
        assert stop_s < 5.0
        # Drain cancelled the job past its grace, which answered the poll.
        status, headers, payload = replies[0]
        assert status == 200 and payload["state"] == "cancelled"
        assert headers["Connection"] == "close"

    def test_drain_ends_a_progress_stream(self):
        config = ServiceConfig(workers=1, queue_depth=8, cache_dir=None)
        server = ServerThread(config, drain_grace_s=0.05).start()
        with ServeClient(server.host, server.port) as client:
            job = client.submit(endless_spec(seed=178))
        raw = f"GET /jobs/{job['id']}/events HTTP/1.1\r\n\r\n".encode("ascii")
        replies = []
        stream = threading.Thread(
            target=lambda: replies.append(exchange(server.port, raw))
        )
        stream.start()
        time.sleep(0.5)  # the stream is open on the running job
        assert stopping_time(server) < 5.0
        stream.join(timeout=10.0)
        assert not stream.is_alive()
        last = json.loads(replies[0].splitlines()[-1])
        assert last["state"] == "cancelled"

    def test_drain_past_grace_cancels_leftovers(self):
        config = ServiceConfig(workers=1, queue_depth=8, cache_dir=None)
        server = ServerThread(config, drain_grace_s=0.05).start()
        client = server.client()
        jobs = [client.submit(slow_spec(seed)) for seed in range(181, 186)]
        server.stop()
        board = server.service.board
        finals = [board.get(job["id"]).state for job in jobs]
        assert all(state.terminal for state in finals)
        assert JobState.CANCELLED in finals
