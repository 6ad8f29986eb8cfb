"""A stdlib-only asyncio HTTP/1.1 front end for the simulation service.

No framework: connections are ``asyncio.start_server`` streams, requests
are parsed with a small strict reader (request line, headers,
``Content-Length`` body, 1 MiB cap), and connections are persistent
HTTP/1.1: one connection answers requests in turn until the client asks
for ``Connection: close`` (or speaks HTTP/1.0), a request fails to parse,
a ``/jobs/<id>/events`` stream ends, or the server stops.  Every
response's ``Connection`` header (``keep-alive`` or ``close``) says
whether the connection stays open.  That is the protocol surface a
retrying client actually needs, and nothing more.

Routes::

    GET    /healthz           liveness + drain state
    GET    /metrics           live service metrics (see SimulationService.metrics)
    GET    /schemes           the protection-scheme registry, wire-format
    GET    /attacks           the attacker registry, wire-format
    GET    /jobs              every known job (summaries, no result payloads)
    POST   /jobs              submit a JobSpec-shaped JSON body -> 202 + job
                              (429 + Retry-After when saturated, 503 draining)
    GET    /jobs/<id>         one job, result included when done
                              (?wait_s=N long-polls for completion)
    GET    /jobs/<id>/events  progress stream: one JSON line per transition
    DELETE /jobs/<id>         cancel a queued or running job

Error bodies are JSON: ``{"error": "..."}`` with the matching status code.

The front end is a thin shell: every route delegates to
:class:`~repro.serve.service.SimulationService`, which runs jobs on its
supervised pool of persistent worker processes.  ``docs/serving.md``
documents this surface for operators — every endpoint, status code,
``Retry-After`` semantics, and the full ``/metrics`` key table.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from urllib.parse import parse_qs, urlsplit

from repro.attacks import available_attackers
from repro.errors import ConfigurationError
from repro.schemes import available_schemes
from repro.serve.service import (
    ServiceDraining,
    ServiceSaturated,
    SimulationService,
    decode_submission,
)

#: Largest request body the server will read.
MAX_BODY_BYTES = 1 << 20

#: HTTP reason phrases for the statuses this API emits.
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, list[str]]
    headers: dict[str, str]
    body: bytes
    #: False when the client asked to close the connection after this
    #: request (``Connection: close``, or any HTTP/1.0 request).
    keep_alive: bool = True

    def json(self):
        """The body decoded as JSON (raises ``ConfigurationError`` politely)."""
        if not self.body:
            raise ConfigurationError("request body must be a JSON object")
        try:
            return json.loads(self.body)
        except ValueError:
            raise ConfigurationError("request body is not valid JSON") from None

    def query_float(self, name: str) -> float | None:
        """A finite float query parameter, or None when absent/malformed."""
        values = self.query.get(name)
        if not values:
            return None
        try:
            value = float(values[0])
        except ValueError:
            return None
        return value if math.isfinite(value) else None


@dataclass
class Response:
    """One JSON response: status, payload, extra headers."""

    status: int
    payload: dict | list
    headers: dict[str, str] = field(default_factory=dict)

    def encode(self, keep_alive: bool = False) -> bytes:
        """The full HTTP/1.1 wire form of this response."""
        body = (json.dumps(self.payload) + "\n").encode("utf-8")
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines += [f"{name}: {value}" for name, value in self.headers.items()]
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


class BadRequest(Exception):
    """A request the parser refuses to interpret."""


async def _readline(reader: asyncio.StreamReader) -> bytes:
    """One line of the request head; an over-long line is a bad request."""
    try:
        return await reader.readline()
    except ValueError:  # longer than the stream's line limit
        raise BadRequest("request head line too long") from None


async def _read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request off the stream; None on a cleanly closed socket."""
    try:
        request_line = await _readline(reader)
    except ConnectionError:
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequest("malformed request line")
    method, target, version = parts[0].upper(), parts[1], parts[2]
    headers: dict[str, str] = {}
    while True:
        line = await _readline(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator:
            raise BadRequest("malformed header line")
        headers[name.strip().lower()] = value.strip()
    # Only Content-Length framing is understood; guessing at any other
    # body framing would misread the next request on a kept connection.
    if "transfer-encoding" in headers:
        raise BadRequest("Transfer-Encoding request bodies are not supported")
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise BadRequest("malformed Content-Length") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise BadRequest(f"body larger than {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    connection = headers.get("connection", "").lower()
    tokens = {token.strip() for token in connection.split(",")}
    return Request(
        method=method,
        path=split.path.rstrip("/") or "/",
        query=parse_qs(split.query),
        headers=headers,
        body=body,
        keep_alive=version != "HTTP/1.0" and "close" not in tokens,
    )


class HttpApi:
    """Routes HTTP requests onto a :class:`SimulationService`.

    :func:`start_http_server` builds one and starts it listening.  Shut
    it down in three steps: :meth:`close`, then drain the service, then
    ``await`` :meth:`wait_closed`.
    """

    def __init__(self, service: SimulationService):
        self.service = service
        self.server: asyncio.base_events.Server | None = None
        #: Set by :meth:`close`: no connection is kept alive any longer.
        self._closing = False
        #: The task serving each open connection.
        self._handlers: set[asyncio.Task] = set()
        #: Connections waiting for their next request.
        self._idle: set[asyncio.StreamWriter] = set()

    @property
    def port(self) -> int:
        """The TCP port the server listens on."""
        return self.server.sockets[0].getsockname()[1]

    def close(self) -> None:
        """Stop listening and close idle connections.

        A connection busy with a request answers it with
        ``Connection: close`` and then closes.  A long-poll or progress
        stream stays busy until its job ends, which draining the service
        guarantees.
        """
        self._closing = True
        self.server.close()
        for writer in list(self._idle):
            writer.close()

    async def wait_closed(self) -> None:
        """Wait until every connection has closed; call after draining."""
        if self._handlers:
            await asyncio.wait(list(self._handlers))
        await self.server.wait_closed()

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: requests in turn, until it must close."""
        handler = asyncio.current_task()
        self._handlers.add(handler)
        try:
            while not self._closing:
                self._idle.add(writer)
                try:
                    request = await _read_request(reader)
                except (BadRequest, asyncio.IncompleteReadError) as error:
                    await self._write(writer, Response(400, {"error": str(error)}))
                    return
                finally:
                    self._idle.discard(writer)
                # :meth:`close` closed the connection while it waited: a
                # request that arrived meanwhile is left unprocessed.
                if request is None or writer.is_closing():
                    return
                if request.method == "GET" and self._is_events_path(request.path):
                    await self._stream_events(request, writer)
                    return
                response = await self._respond(request)
                keep_alive = request.keep_alive and not self._closing
                await self._write(writer, response, keep_alive)
                if not keep_alive:
                    return
        finally:
            self._handlers.discard(handler)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _respond(self, request: Request) -> Response:
        """Dispatch one request, mapping service errors to error responses."""
        try:
            return await self.dispatch(request)
        except ConfigurationError as error:
            return Response(400, {"error": str(error)})
        except ServiceSaturated as error:
            return Response(
                429,
                {"error": str(error), "retry_after_s": error.retry_after_s},
                headers={"Retry-After": f"{error.retry_after_s:g}"},
            )
        except ServiceDraining as error:
            return Response(503, {"error": str(error)})
        except Exception as error:  # pragma: no cover - defensive
            return Response(500, {"error": f"internal error: {error!r}"})

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        keep_alive: bool = False,
    ) -> None:
        try:
            writer.write(response.encode(keep_alive))
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - client gone
            pass

    # -- routing -------------------------------------------------------------

    @staticmethod
    def _is_events_path(path: str) -> bool:
        parts = path.strip("/").split("/")
        return len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events"

    async def dispatch(self, request: Request) -> Response:
        """Route one parsed request; exceptions map to error responses."""
        parts = [part for part in request.path.strip("/").split("/") if part]
        if request.path == "/healthz":
            return self._healthz(request)
        if request.path == "/metrics":
            return self._metrics(request)
        if request.path == "/schemes":
            return self._schemes(request)
        if request.path == "/attacks":
            return self._attacks(request)
        if parts[:1] == ["jobs"]:
            if len(parts) == 1:
                if request.method == "POST":
                    return self._submit(request)
                if request.method == "GET":
                    return self._list_jobs(request)
                return Response(405, {"error": "use GET or POST on /jobs"})
            if len(parts) == 2:
                if request.method == "GET":
                    return await self._get_job(request, parts[1])
                if request.method == "DELETE":
                    return await self._cancel_job(request, parts[1])
                return Response(405, {"error": "use GET or DELETE on /jobs/<id>"})
        return Response(404, {"error": f"no route for {request.path}"})

    def _require_get(self, request: Request) -> Response | None:
        if request.method != "GET":
            return Response(405, {"error": f"{request.path} only supports GET"})
        return None

    def _healthz(self, request: Request) -> Response:
        """Liveness: 200 while serving, 503 once draining."""
        refusal = self._require_get(request)
        if refusal is not None:
            return refusal
        if self.service.draining:
            return Response(503, {"status": "draining"})
        return Response(200, {"status": "ok"})

    def _metrics(self, request: Request) -> Response:
        refusal = self._require_get(request)
        if refusal is not None:
            return refusal
        return Response(200, self.service.metrics())

    def _schemes(self, request: Request) -> Response:
        refusal = self._require_get(request)
        if refusal is not None:
            return refusal
        return Response(
            200, {"schemes": [scheme.to_jsonable() for scheme in available_schemes()]}
        )

    def _attacks(self, request: Request) -> Response:
        refusal = self._require_get(request)
        if refusal is not None:
            return refusal
        return Response(
            200,
            {"attacks": [attacker.to_jsonable() for attacker in available_attackers()]},
        )

    def _submit(self, request: Request) -> Response:
        spec, timeout_s = decode_submission(request.json())
        job = self.service.submit(spec, timeout_s=timeout_s)
        return Response(202, job.to_jsonable(include_result=False))

    def _list_jobs(self, request: Request) -> Response:
        jobs = [
            job.to_jsonable(include_result=False) for job in self.service.board.jobs()
        ]
        return Response(200, {"jobs": jobs})

    async def _get_job(self, request: Request, job_id: str) -> Response:
        job = self.service.board.get(job_id)
        if job is None:
            return Response(404, {"error": f"unknown job {job_id!r}"})
        wait_s = request.query_float("wait_s")
        if wait_s is not None and not job.state.terminal:
            await self.service.board.wait(job, timeout_s=min(wait_s, 300.0))
        return Response(200, job.to_jsonable())

    async def _cancel_job(self, request: Request, job_id: str) -> Response:
        job = self.service.board.get(job_id)
        if job is None:
            return Response(404, {"error": f"unknown job {job_id!r}"})
        cancelled = await self.service.cancel(job)
        if not cancelled:
            return Response(
                409,
                {
                    "error": f"job already {job.state.value}",
                    "job": job.to_jsonable(include_result=False),
                },
            )
        return Response(202, job.to_jsonable(include_result=False))

    # -- progress streaming ----------------------------------------------------

    async def _stream_events(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        """``GET /jobs/<id>/events``: newline-delimited JSON state stream.

        Emits every recorded transition immediately, then one line per new
        transition until the job is terminal.  The body is close-delimited
        (``Connection: close``), so any HTTP/1.1 client can consume it
        line by line.
        """
        job_id = request.path.strip("/").split("/")[1]
        job = self.service.board.get(job_id)
        if job is None:
            response = Response(404, {"error": f"unknown job {job_id!r}"})
            await self._write(writer, response)
            return
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("ascii"))
            emitted = 0
            while True:
                transitions = list(job.transitions)
                for when, state in transitions[emitted:]:
                    line = {"id": job.id, "t": when, "state": state}
                    if state == job.state.value and job.state.terminal:
                        line["source"] = job.source
                        line["error"] = job.error
                    writer.write((json.dumps(line) + "\n").encode("utf-8"))
                emitted = len(transitions)
                await writer.drain()
                if job.state.terminal:
                    return
                await self.service.board.wait(
                    job, timeout_s=30.0, seen_transitions=emitted
                )
        except (ConnectionError, OSError):  # pragma: no cover - client gone
            pass


async def start_http_server(
    service: SimulationService, host: str = "127.0.0.1", port: int = 0
) -> HttpApi:
    """Start serving ``service`` over HTTP; returns the listening API.

    ``port=0`` binds an ephemeral port; read the real one off
    :attr:`HttpApi.port`.  Shut it down with ``api.close()``, then
    ``await service.drain()``, then ``await api.wait_closed()``.
    """
    api = HttpApi(service)
    api.server = await asyncio.start_server(api.handle_connection, host=host, port=port)
    return api
