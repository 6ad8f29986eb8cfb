"""Client retry-policy tests against a scripted one-shot HTTP server.

The real service is deliberately absent here: each test scripts the exact
byte-level responses (429s, dropped connections, error statuses) so the
client's retry, backoff and error-translation behaviour is pinned without
any timing dependence on a live simulation.
"""

import json
import socket
import threading

import pytest

from repro.serve.client import (
    RequestFailed,
    ServeClient,
    ServerBusy,
    JobFailed,
)

from tests.serve.helpers import FAST_SPEC


def http_response(
    status: int, payload: dict, extra_headers: tuple = (), connection: str = "close"
) -> bytes:
    """One full scripted HTTP/1.1 response with a JSON body."""
    body = json.dumps(payload).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} Scripted",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {connection}",
        *extra_headers,
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


class ScriptedServer:
    """Serve a fixed list of canned responses, one connection each.

    An item of ``b"..."`` is written verbatim; the sentinel string
    ``"drop"`` closes the connection without answering (the client sees
    ``RemoteDisconnected``, a ``ConnectionError``).  Every connection is
    closed after its one item, even when the response says keep-alive.
    """

    def __init__(self, script: list):
        self.script = list(script)
        self.requests: list[bytes] = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self) -> "ScriptedServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._listener.close()
        self._thread.join(timeout=10.0)

    def _serve(self) -> None:
        for item in self.script:
            try:
                connection, _peer = self._listener.accept()
            except OSError:  # listener closed mid-script
                return
            try:
                self.requests.append(connection.recv(65536))
                if item != "drop":
                    connection.sendall(item)
            finally:
                connection.close()


def client_for(server: ScriptedServer, **overrides) -> ServeClient:
    """A fast-backoff client pointed at the scripted server."""
    params = dict(max_retries=3, backoff_s=0.001, backoff_cap_s=0.002)
    params.update(overrides)
    return ServeClient("127.0.0.1", server.port, **params)


JOB = {"id": "j000001-abcdef00", "state": "queued"}


class TestBusyRetries:
    def test_retries_429_until_accepted(self):
        script = [
            http_response(429, {"retry_after_s": 0.01}, ("Retry-After: 0.01",)),
            http_response(429, {"retry_after_s": 0.01}, ("Retry-After: 0.01",)),
            http_response(202, JOB),
        ]
        with ScriptedServer(script) as server:
            client = client_for(server)
            job = client.submit(FAST_SPEC)
        assert job == JOB
        assert client.stats["retries_busy"] == 2
        assert client.stats["requests"] == 3

    def test_server_busy_after_retry_budget(self):
        script = [
            http_response(429, {"retry_after_s": 0.5}, ("Retry-After: 0.5",))
        ] * 3
        with ScriptedServer(script) as server:
            client = client_for(server, max_retries=2, backoff_s=0.0)
            with pytest.raises(ServerBusy) as busy:
                client.submit(FAST_SPEC)
        assert busy.value.retry_after_s == 0.5
        assert client.stats["retries_busy"] == 2

    def test_retry_after_prefers_header_then_body(self):
        client = ServeClient(backoff_s=0.125)
        assert client._retry_after({"Retry-After": "2"}, {"retry_after_s": 9}) == 2.0
        assert client._retry_after({}, {"retry_after_s": 9}) == 9.0
        assert client._retry_after({"Retry-After": "soon"}, None) == 0.125


class TestConnectionRetries:
    def test_retries_dropped_connections(self):
        script = ["drop", "drop", http_response(200, {"status": "ok"})]
        with ScriptedServer(script) as server:
            client = client_for(server)
            assert client.healthz() == {"status": "ok"}
        assert client.stats["retries_connect"] == 2
        assert len(server.requests) == 3

    def test_connection_error_when_nothing_listens(self):
        with ScriptedServer([]) as server:
            port = server.port
        client = ServeClient("127.0.0.1", port, max_retries=1, backoff_s=0.0)
        with pytest.raises(ConnectionError):
            client.healthz()
        assert client.stats["requests"] == 2


class TestKeptConnections:
    def test_connection_closed_while_idle_is_reopened_without_a_retry(self):
        ok = http_response(200, {"status": "ok"}, connection="keep-alive")
        with ScriptedServer([ok, ok]) as server:
            with client_for(server) as client:
                assert client.healthz() == {"status": "ok"}
                # The server has closed the kept socket; the client finds
                # out on its next request and reconnects for free.
                assert client.healthz() == {"status": "ok"}
        assert client.stats == {"requests": 2, "retries_connect": 0, "retries_busy": 0}
        assert len(server.requests) == 2

    def test_connection_close_answer_closes_the_socket(self):
        with ScriptedServer([http_response(200, {"status": "ok"})]) as server:
            with client_for(server) as client:
                client.healthz()
                assert client._connection().sock is None

    def test_close_is_idempotent_and_the_client_stays_usable(self):
        ok = http_response(200, {"status": "ok"}, connection="keep-alive")
        with ScriptedServer([ok, ok]) as server:
            client = client_for(server)
            client.healthz()
            client.close()
            client.close()
            assert client.healthz() == {"status": "ok"}
            client.close()
        assert client.stats["retries_connect"] == 0


class TestBackoffSchedule:
    def test_backoff_is_capped_exponential(self):
        class UpperBound:
            """An rng stub whose uniform() always returns the ceiling."""

            @staticmethod
            def uniform(low, high):
                return high

        client = ServeClient(backoff_s=0.1, backoff_cap_s=0.5, rng=UpperBound())
        schedule = [client._backoff(attempt) for attempt in range(5)]
        assert schedule == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_backoff_jitter_stays_in_range(self):
        client = ServeClient(backoff_s=0.1, backoff_cap_s=0.4)
        for attempt in range(6):
            value = client._backoff(attempt)
            assert 0.0 <= value <= 0.4


class TestErrorTranslation:
    def test_non_retryable_status_raises_request_failed(self):
        script = [http_response(404, {"error": "no route for /healthz"})]
        with ScriptedServer(script) as server:
            client = client_for(server)
            with pytest.raises(RequestFailed) as failure:
                client.healthz()
        assert failure.value.status == 404
        assert "no route" in str(failure.value)
        assert client.stats["requests"] == 1  # 404 is never retried

    def test_run_raises_job_failed_on_bad_terminal_state(self):
        failed_job = dict(JOB, state="failed", error="scheme exploded")
        script = [http_response(202, JOB), http_response(200, failed_job)]
        with ScriptedServer(script) as server:
            client = client_for(server)
            with pytest.raises(JobFailed) as failure:
                client.run(FAST_SPEC)
        assert failure.value.job["error"] == "scheme exploded"
        assert "failed" in str(failure.value)
