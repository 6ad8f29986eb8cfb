"""A blocking, retrying client for the simulation service.

:class:`ServeClient` speaks the service's HTTP/JSON API over
``http.client`` (stdlib only) and absorbs the two transient failure modes
a well-behaved client must handle:

* **connection errors** (service restarting, socket races) retry with
  exponential backoff plus jitter;
* **429 Too Many Requests** (admission control) honours the server's
  ``Retry-After`` hint, clamped into the backoff schedule.

Anything else — 400s from malformed specs, 404s, 503 while draining —
raises immediately; retrying would not change the answer.

Each thread that uses a client keeps one HTTP/1.1 connection open
between calls; :meth:`ServeClient.close` (or leaving a ``with`` block)
closes them.  Usage::

    from repro.serve.client import ServeClient

    with ServeClient("127.0.0.1", 8787) as client:
        result = client.run({"benchmark": "mcf", "level": "obfusmem_auth"})
    print(result["execution_time_ns"])
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time

from repro.experiments.executor import JobSpec

#: States in which a job will never produce further progress.
TERMINAL_STATES = frozenset({"done", "failed", "timeout", "cancelled"})


class ClientError(Exception):
    """Base class for client-side failures."""


class ServerBusy(ClientError):
    """Admission control kept refusing (429) for the whole retry budget.

    Carries the final refusal's ``retry_after_s`` hint so callers that
    manage their own pacing can still honour the server's backpressure.
    """

    def __init__(self, message: str, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class RequestFailed(ClientError):
    """The server answered with a non-retryable error status."""

    def __init__(self, status: int, payload):
        detail = payload.get("error") if isinstance(payload, dict) else payload
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.payload = payload


class JobFailed(ClientError):
    """The submitted job finished in a non-DONE terminal state."""

    def __init__(self, job: dict):
        super().__init__(
            f"job {job.get('id')} ended {job.get('state')}: {job.get('error')}"
        )
        self.job = job


class ServeClient:
    """Blocking HTTP client with exponential-backoff retries.

    One instance per target service.  Each calling thread gets its own
    kept-alive connection, so two requests never interleave on one
    socket; a ``Connection: close`` answer closes it and the next call
    reconnects.  :meth:`close` closes every thread's connection.
    ``stats`` counts attempts and retries for load-generation reports.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        timeout_s: float = 30.0,
        max_retries: int = 6,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        rng: random.Random | None = None,
    ):
        self.host = host
        self.port = int(port)
        self.timeout_s = timeout_s
        self.max_retries = max(0, int(max_retries))
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self._rng = rng or random.Random()
        self.stats = {"requests": 0, "retries_connect": 0, "retries_busy": 0}
        #: Thread ident -> that thread's connection.  An ident is reused
        #: only after its thread ended, so no connection is ever shared.
        self._connections: dict[int, http.client.HTTPConnection] = {}
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close every thread's connection; a later call reconnects."""
        with self._lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport -----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection (it connects on first use)."""
        key = threading.get_ident()
        connection = self._connections.get(key)
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
            with self._lock:
                self._connections[key] = connection
        return connection

    def _once(self, method: str, path: str, body: bytes | None):
        """One HTTP exchange: ``(status, headers, decoded JSON payload)``.

        A kept connection the server closed while it sat idle fails before
        any response byte; the server then never saw the request, so it is
        sent once more on a fresh connection.
        """
        connection = self._connection()
        reused = connection.sock is not None
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
            except (BrokenPipeError, ConnectionResetError):
                if not reused:
                    raise
                connection.close()
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
            raw = response.read()
        except BaseException:
            connection.close()
            raise
        try:
            payload = json.loads(raw) if raw else None
        except ValueError:
            payload = {"error": raw.decode("utf-8", "replace")}
        return response.status, dict(response.getheaders()), payload

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with full jitter, capped."""
        ceiling = min(self.backoff_cap_s, self.backoff_s * (2**attempt))
        return self._rng.uniform(0.0, ceiling) if ceiling > 0 else 0.0

    def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, dict, dict]:
        """Issue one API request, retrying connection failures and 429s.

        Returns ``(status, headers, json_payload)`` for any non-retryable
        response, raising :class:`ServerBusy` only when 429s exhaust the
        retry budget and ``ConnectionError`` when the service stays
        unreachable.
        """
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            self.stats["requests"] += 1
            try:
                status, headers, decoded = self._once(method, path, body)
            except (ConnectionError, OSError) as error:
                last_error = error
                self.stats["retries_connect"] += 1
                if attempt >= self.max_retries:
                    break
                time.sleep(self._backoff(attempt))
                continue
            if status == 429 and attempt < self.max_retries:
                self.stats["retries_busy"] += 1
                retry_after = self._retry_after(headers, decoded)
                time.sleep(max(retry_after, self._backoff(attempt)))
                continue
            if status == 429:
                raise ServerBusy(
                    f"server still saturated after {self.max_retries} retries",
                    retry_after_s=self._retry_after(headers, decoded),
                )
            return status, headers, decoded
        raise ConnectionError(
            f"could not reach {self.host}:{self.port} "
            f"after {self.max_retries + 1} attempts: {last_error}"
        )

    def _retry_after(self, headers: dict, payload) -> float:
        """The server's Retry-After hint (header first, then body), in seconds."""
        for source in (headers.get("Retry-After"),):
            try:
                return max(0.0, float(source))
            except (TypeError, ValueError):
                pass
        if isinstance(payload, dict):
            try:
                return max(0.0, float(payload.get("retry_after_s")))
            except (TypeError, ValueError):
                pass
        return self.backoff_s

    def _expect(self, statuses: tuple[int, ...], method: str, path: str, payload=None):
        status, _headers, decoded = self.request(method, path, payload)
        if status not in statuses:
            raise RequestFailed(status, decoded)
        return decoded

    # -- API surface ---------------------------------------------------------

    def healthz(self) -> dict:
        """``GET /healthz``."""
        return self._expect((200,), "GET", "/healthz")

    def metrics(self) -> dict:
        """``GET /metrics``."""
        return self._expect((200,), "GET", "/metrics")

    def schemes(self) -> list[dict]:
        """``GET /schemes``: the registry's wire-format scheme descriptions."""
        return self._expect((200,), "GET", "/schemes")["schemes"]

    def submit(
        self, spec: JobSpec | dict, timeout_s: float | None = None
    ) -> dict:
        """``POST /jobs``: submit a spec (object or wire dict); the job JSON."""
        payload = spec.to_jsonable() if isinstance(spec, JobSpec) else dict(spec)
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        return self._expect((202,), "POST", "/jobs", payload)

    def job(self, job_id: str, wait_s: float | None = None) -> dict:
        """``GET /jobs/<id>`` (long-polling for completion with ``wait_s``)."""
        path = f"/jobs/{job_id}"
        if wait_s is not None:
            path += f"?wait_s={wait_s:g}"
        return self._expect((200,), "GET", path)

    def cancel(self, job_id: str) -> dict:
        """``DELETE /jobs/<id>``; 409 (already finished) returns the job."""
        status, _headers, decoded = self.request("DELETE", f"/jobs/{job_id}")
        if status not in (202, 409):
            raise RequestFailed(status, decoded)
        return decoded

    def wait(self, job_id: str, poll_s: float = 10.0, deadline_s: float = 600.0) -> dict:
        """Long-poll until the job is terminal; returns the final job JSON.

        Each poll waits at most until the deadline, so a job still running
        then raises :class:`ClientError` about ``deadline_s`` after the call.
        """
        deadline = time.monotonic() + deadline_s
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            job = self.job(job_id, wait_s=min(poll_s, remaining))
            if job["state"] in TERMINAL_STATES:
                return job
            if time.monotonic() >= deadline:
                raise ClientError(f"job {job_id} still {job['state']} at deadline")

    def run(
        self,
        spec: JobSpec | dict,
        timeout_s: float | None = None,
        deadline_s: float = 600.0,
    ) -> dict:
        """Submit, wait, and return the result dict of a successful job.

        Raises :class:`JobFailed` when the job ends FAILED / TIMEOUT /
        CANCELLED, so callers can rely on the returned result being real.
        """
        job = self.submit(spec, timeout_s=timeout_s)
        final = self.wait(job["id"], deadline_s=deadline_s)
        if final["state"] != "done":
            raise JobFailed(final)
        return final["result"]
