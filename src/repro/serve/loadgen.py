"""A small closed-loop load generator for the simulation service.

Two drive modes, both closed loop (each client waits for its response
before sending the next, so throughput is what the service actually
sustains, not what an open-loop generator wishes it would):

* **repeat mode** (``spec=``): ``threads`` clients each issue
  ``requests_per_thread`` submit-and-wait round trips of one spec —
  the cache/coalescing stress shape;
* **sweep mode** (``specs=``): the threads drain a shared work list of
  distinct specs, each submitted exactly once — the shape that keeps
  every persistent worker of the pool busy, since no two specs coalesce.

This is the measurement half of ``benchmarks/test_serve_throughput.py``
and ``benchmarks/test_serve_pool_scaling.py``; it is also handy
interactively::

    from repro.serve.loadgen import LoadGenerator

    report = LoadGenerator("127.0.0.1", 8787,
                           spec={"benchmark": "mcf", "level": "obfusmem_auth"},
                           threads=4, requests_per_thread=25).run()
    print(report.to_jsonable())
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass, field

from repro.serve.client import ClientError, ServeClient


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted latency list."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[rank]


@dataclass
class LoadReport:
    """What one load-generation run measured."""

    requests: int = 0
    completed: int = 0
    failed: int = 0
    wall_s: float = 0.0
    #: Per-request submit-to-result latencies, seconds, completion order.
    latencies_s: list[float] = field(default_factory=list)
    #: Aggregated client transport counters (attempts, 429/connect retries).
    client_stats: dict[str, int] = field(default_factory=dict)

    @property
    def requests_per_sec(self) -> float:
        """Completed requests per wall-clock second."""
        return self.completed / self.wall_s if self.wall_s else 0.0

    @property
    def mean_latency_s(self) -> float:
        """Mean submit-to-result latency."""
        if not self.latencies_s:
            return 0.0
        return sum(self.latencies_s) / len(self.latencies_s)

    def to_jsonable(self) -> dict:
        """The report as a JSON-ready summary (latencies collapsed)."""
        ordered = sorted(self.latencies_s)
        return {
            "requests": self.requests,
            "completed": self.completed,
            "failed": self.failed,
            "wall_s": round(self.wall_s, 4),
            "requests_per_sec": round(self.requests_per_sec, 2),
            "latency_mean_s": round(self.mean_latency_s, 6),
            "latency_p50_s": round(_percentile(ordered, 0.50), 6),
            "latency_p95_s": round(_percentile(ordered, 0.95), 6),
            "latency_max_s": round(ordered[-1], 6) if ordered else 0.0,
            "client_stats": dict(self.client_stats),
        }


class LoadGenerator:
    """Closed-loop load: repeated single-spec rounds, or a distinct-spec sweep.

    Exactly one of ``spec`` (repeat mode: ``threads`` x
    ``requests_per_thread`` submissions of the same spec) or ``specs``
    (sweep mode: the threads share one work list, each spec submitted
    once) must be given.
    """

    def __init__(
        self,
        host: str,
        port: int,
        spec: dict | None = None,
        threads: int = 2,
        requests_per_thread: int = 10,
        timeout_s: float | None = None,
        deadline_s: float = 600.0,
        specs: list[dict] | None = None,
    ):
        if (spec is None) == (specs is None):
            raise ValueError("provide exactly one of spec= or specs=")
        self.host = host
        self.port = port
        self.spec = None if spec is None else dict(spec)
        self.specs = None if specs is None else [dict(item) for item in specs]
        self.threads = max(1, int(threads))
        self.requests_per_thread = max(1, int(requests_per_thread))
        self.timeout_s = timeout_s
        self.deadline_s = deadline_s

    def run(self) -> LoadReport:
        """Drive the full load and aggregate every thread's measurements."""
        report = LoadReport()
        lock = threading.Lock()
        clients = [
            ServeClient(self.host, self.port) for _ in range(self.threads)
        ]
        # Sweep mode drains this shared backlog; deque.popleft is atomic,
        # so the threads need no extra coordination to split the work.
        backlog = collections.deque(self.specs or ())

        def one_request(client: ServeClient, spec: dict) -> None:
            started = time.perf_counter()
            try:
                client.run(
                    spec,
                    timeout_s=self.timeout_s,
                    deadline_s=self.deadline_s,
                )
            except (ClientError, ConnectionError):
                with lock:
                    report.requests += 1
                    report.failed += 1
                return
            latency = time.perf_counter() - started
            with lock:
                report.requests += 1
                report.completed += 1
                report.latencies_s.append(latency)

        def worker(client: ServeClient) -> None:
            if self.spec is not None:
                for _ in range(self.requests_per_thread):
                    one_request(client, self.spec)
                return
            while True:
                try:
                    spec = backlog.popleft()
                except IndexError:
                    return
                one_request(client, spec)

        started = time.perf_counter()
        pool = [
            threading.Thread(target=worker, args=(client,), daemon=True)
            for client in clients
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        report.wall_s = time.perf_counter() - started
        for client in clients:
            client.close()
            for key, value in client.stats.items():
                report.client_stats[key] = report.client_stats.get(key, 0) + value
        return report
