"""The serve-mix workload: open-loop traffic against an in-process server.

One :class:`~repro.serve.harness.ServerThread` with one pool worker and a
persistent cache in a scratch directory inside the checkout.  Set-up
primes a small hot set, so most arrivals are warm result-cache hits; a
fixed share are distinct-seed cold jobs that simulate in the worker and
write result and trace entries while the hits are served.
"""

from __future__ import annotations

import json
import os
import random

from common import remove_dir, scratch_dir
from loadgen import Outcome, run_in_child, schedule, with_cold


HOT_BENCHMARKS = ("mcf", "libquantum", "astar")
HOT_SCHEMES = ("unprotected", "obfusmem_auth")
HOT_REQUESTS = 1000
#: Cold jobs differ only in their seed, so their latencies form one cluster.
COLD_SPEC = {"benchmark": "libquantum", "level": "obfusmem_auth", "num_requests": 400}
#: Offered load: arrivals per second, and the share that are cold jobs.
#: ``capacity.py`` measured one worker (a cold job runs 33-40 ms) busy
#: about a quarter of the time at 45/s and 84-95 % from 180/s on, where
#: completions fall behind the offered cold rate.  The median queue wait
#: stays flat (1-2 ms) up to 110/s and jumps to ~90 ms by 135/s.  The hit
#: tail rises first: ~6-7 ms at 45-60/s, ~13 ms at 90/s, ~19 ms at 110/s.
#: At 45/s, 7 cold completions a second share the event loop with the
#: hits, and even the ~1.5x slower state the shared host drifts into
#: (like ~67/s) stays below the rise of the hit tail and far below the
#: queue-wait knee.
RATE_PER_S = 45.0
COLD_SHARE = 0.15
#: A window replays one arrival schedule this many times (fresh cold seeds
#: each round), so every arrival slot is measured once per round.
ROUNDS = 10


def hot_specs(variant: int) -> list[dict]:
    """The primed specs (wire form) every warm hit repeats."""
    seed = 2017 + 101 * variant
    return [
        {
            "benchmark": benchmark,
            "level": scheme,
            "num_requests": HOT_REQUESTS,
            "seed": seed,
        }
        for benchmark in HOT_BENCHMARKS
        for scheme in HOT_SCHEMES
    ]


def cold_specs(variant: int, count: int, round_index: int) -> list[dict]:
    """``count`` specs with seeds no other arrival or round uses."""
    base = 100_000 + 10_000 * variant + 1_000 * round_index
    return [{**COLD_SPEC, "seed": base + index} for index in range(count)]


class ServeMix:
    """Server lifetime: :meth:`start` (set-up), :meth:`drive`, :meth:`stop`."""

    name = "serve-mix"

    def __init__(self, variant: int, rate_per_s: float = RATE_PER_S):
        self.variant = variant
        self.rate_per_s = rate_per_s
        self.hot = hot_specs(variant)
        self.server = None
        self.directory = None

    def start(self) -> None:
        """Start the server (forking its worker) and prime the hot set."""
        from repro.serve.harness import ServerThread
        from repro.serve.service import ServiceConfig

        self.directory = scratch_dir("serve-cache-")
        self.server = ServerThread(
            ServiceConfig(
                workers=1,
                queue_depth=64,
                cache_dir=self.directory,
                default_timeout_s=120.0,
            )
        ).start()
        try:
            client = self.server.client()
            pin_worker(client.metrics())
            for spec in self.hot:
                client.run(spec)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Drain the server, join its worker and remove the cache."""
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.directory is not None:
            remove_dir(self.directory)
            self.directory = None

    def drive(self, seconds: float, seed: int, phase: int = 0) -> dict:
        """Run one open-loop window of :data:`ROUNDS` rounds.

        Every round replays the same seeded schedule of hits and cold
        slots; cold slots get fresh seeds each round, so they stay cold.
        Returns the outcomes per round plus server facts.
        """
        from common import peak_rss_mib

        rng = random.Random(f"serve-mix/{seed}/{phase}")
        round_s = seconds / ROUNDS
        cold_count = round(self.rate_per_s * round_s * COLD_SHARE)
        template = schedule(rng, round_s, self.rate_per_s, self.hot, cold_count)
        schedules = [
            with_cold(
                template, cold_specs(self.variant, cold_count, phase * ROUNDS + index)
            )
            for index in range(ROUNDS)
        ]
        # The clients run in a process of their own, as users would: threads
        # here would hold the server's interpreter lock while they parse
        # responses, and a hit that arrives meanwhile would wait for it.
        rounds, retries, requests = run_in_child(
            self.server.host, self.server.port, schedules, seed, seconds + 60.0
        )
        metrics = self.server.client().metrics()
        workers = [row["pid"] for row in metrics["workers_detail"] if row["alive"]]
        return {
            "rounds": rounds,
            "metrics": metrics,
            "retries": retries,
            "http_requests": requests,
            "rss_mib": peak_rss_mib() + sum(peak_rss_mib(pid) for pid in workers),
        }


def pin_worker(metrics: dict) -> None:
    """Keep the pool worker off the CPU the server and clients run on.

    The benchmark process is pinned to its last allowed CPU; the
    worker forked from it would share that CPU, so it moves to the others.
    """
    others = sorted(os.sched_getaffinity(0) ^ set(range(os.cpu_count() or 1)))
    if not others:
        return
    for row in metrics["workers_detail"]:
        os.sched_setaffinity(row["pid"], others)


def pool_busy_frac(window: dict) -> float:
    """Share of the window's wall time the pool worker spent simulating."""
    span = sum(max(o.done_s for o in one) for one in window["rounds"])
    busy = sum(
        o.job["wall_ms"] / 1000.0
        for one in window["rounds"]
        for o in one
        if served(o) and o.job["source"] == "simulated"
    )
    return busy / span


def served(outcome: Outcome) -> bool:
    """True when the arrival ended with a result."""
    return outcome.error is None and outcome.job is not None


def verify(outcomes: list[Outcome]) -> int:
    """Compare every served result with in-process ``JobSpec.execute()``.

    Returns the number of arrivals that failed or returned a result that
    differs from the local simulation of the same spec.  Runs with the
    persistent trace cache off, so nothing the server wrote is read.
    """
    from repro.experiments import trace_cache
    from repro.experiments.executor import result_to_jsonable, spec_from_jsonable

    trace_cache.configure(enabled=False)
    trace_cache.clear_memo()
    expected: dict[str, dict] = {}
    failed = 0
    for outcome in outcomes:
        if not served(outcome):
            failed += 1
            continue
        key = json.dumps(outcome.arrival.spec, sort_keys=True)
        if key not in expected:
            result = spec_from_jsonable(outcome.arrival.spec).execute()
            expected[key] = json.loads(json.dumps(result_to_jsonable(result)))
        if outcome.job["result"] != expected[key]:
            failed += 1
    return failed
