"""An in-process server harness: the service on a background thread.

Tests, benchmarks and the CI smoke step all need a real server — real
sockets, real admission control — without a subprocess to babysit.
:class:`ServerThread` runs a :class:`~repro.serve.service.SimulationService`
plus its HTTP front end on a dedicated thread with its own event loop,
hands back the ephemeral port, and drains cleanly on :meth:`stop` (the
same code path SIGTERM takes in the CLI)::

    from repro.serve.harness import ServerThread
    from repro.serve.service import ServiceConfig

    with ServerThread(ServiceConfig(workers=2, queue_depth=8)) as server:
        client = server.client()
        client.healthz()

The context-manager exit performs a graceful drain: the clients
:meth:`ServerThread.client` handed out close their kept connections, the
server closes every other idle one, and every accepted job reaches a
terminal state before the thread joins.
"""

from __future__ import annotations

import asyncio
import threading

from repro.serve.client import ServeClient
from repro.serve.http import start_http_server
from repro.serve.service import ServiceConfig, SimulationService


class ServerThread:
    """Run service + HTTP API on a private thread/event loop."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        host: str = "127.0.0.1",
        drain_grace_s: float | None = None,
    ):
        self.config = config or ServiceConfig()
        self.host = host
        self.drain_grace_s = drain_grace_s
        self.service: SimulationService | None = None
        self.port: int | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._startup_error: BaseException | None = None
        self._clients: list[ServeClient] = []
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve-harness", daemon=True
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServerThread":
        """Start the thread and block until the server is accepting."""
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("serve harness failed to start within 30 s")
        if self._startup_error is not None:
            raise RuntimeError("serve harness failed to start") from self._startup_error
        return self

    def stop(self) -> None:
        """Close handed-out clients, drain, join the thread (idempotent)."""
        for client in self._clients:
            client.close()
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        self._thread.join(timeout=60.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def client(self, **overrides) -> ServeClient:
        """A :class:`ServeClient` pointed at this server, closed by :meth:`stop`."""
        assert self.port is not None, "harness not started"
        client = ServeClient(self.host, self.port, **overrides)
        self._clients.append(client)
        return client

    # -- thread body ---------------------------------------------------------

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as error:  # pragma: no cover - surfaced in start()
            self._startup_error = error
            self._ready.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.service = SimulationService(self.config)
        await self.service.start()
        api = await start_http_server(self.service, host=self.host, port=0)
        self.port = api.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            api.close()
            await self.service.drain(grace_s=self.drain_grace_s)
            await api.wait_closed()
