"""Open-loop load generator for the serve-mix workload.

``repro.serve.loadgen.LoadGenerator`` is closed-loop: each client sends
its next request only after the previous one returns, so a slow server
receives less load.  Here arrivals follow a seeded schedule fixed before
the run, whatever the server does.  Each request is timed from the moment
it was *due*, so a stall also charges the requests queued behind it, and
the generator reports how late it sent each one.

Two threads, one connection each:

* the *sender* sends every arrival at its due time (``POST /jobs``) and
  waits for the arrivals scheduled as warm hits itself;
* the *waiter* long-polls the arrivals scheduled as cold jobs, so a
  simulation in progress never delays later sends.

:func:`run_rounds` is meant to run in a process apart from the server's,
as real clients do, so the threads never hold the server's interpreter
lock.  :func:`run_in_child` starts that process, a fresh interpreter
running this file, which reads the rounds as JSON on its standard input
and writes the outcomes as JSON on its standard output.
"""

from __future__ import annotations

import dataclasses
import json
import os
import queue
import random
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from common import SRC, run_child
from repro.serve.client import ClientError, ServeClient

perf = time.perf_counter


@dataclass(frozen=True)
class Arrival:
    """One scheduled request."""

    #: Seconds after the schedule starts at which the request is due.
    due_s: float
    #: The job spec in wire form (None in a template's cold slots).
    spec: dict | None
    #: ``"hit"`` (a primed spec) or ``"cold"`` (a spec never seen before).
    kind: str


@dataclass
class Outcome:
    """What happened to one arrival (offsets from the schedule start)."""

    arrival: Arrival
    sent_s: float = 0.0
    done_s: float = 0.0
    #: The final job JSON (``GET /jobs/<id>``), or None on failure.
    job: dict | None = None
    error: str | None = None

    @property
    def latency_s(self) -> float:
        """Completion time measured from the due time."""
        return self.done_s - self.arrival.due_s

    @property
    def lag_s(self) -> float:
        """How late the generator sent the request."""
        return self.sent_s - self.arrival.due_s


def schedule(
    rng: random.Random,
    seconds: float,
    rate_per_s: float,
    hot: list[dict],
    cold_count: int,
) -> list[Arrival]:
    """A seeded Poisson schedule of ``rate_per_s * seconds`` arrivals.

    Conditioned on its count, a Poisson process places arrivals uniformly,
    so the due times are sorted uniform draws.  ``cold_count`` random slots
    are cold (their spec is left ``None`` for :func:`with_cold` to fill);
    every other slot repeats a random ``hot`` spec.
    """
    count = round(rate_per_s * seconds)
    due = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    cold_slots = set(rng.sample(range(count), cold_count))
    return [
        Arrival(at, None, "cold")
        if index in cold_slots
        else Arrival(at, rng.choice(hot), "hit")
        for index, at in enumerate(due)
    ]


def with_cold(template: list[Arrival], cold: list[dict]) -> list[Arrival]:
    """``template`` with its cold slots taking ``cold`` specs in order."""
    specs = iter(cold)
    return [
        Arrival(arrival.due_s, next(specs), "cold")
        if arrival.kind == "cold"
        else arrival
        for arrival in template
    ]


def run_rounds(
    host: str, port: int, rounds: list[list[Arrival]], seed: int
) -> tuple[list[list[Outcome]], int, int]:
    """Send each round's schedule in turn, one generator per round.

    Returns the outcomes per round, the retries and the HTTP requests.
    """
    outcomes, retries, requests = [], 0, 0
    for index, arrivals in enumerate(rounds):
        generator = OpenLoopGenerator(host, port, arrivals, seed=seed + index)
        outcomes.append(generator.run())
        retries += generator.retries
        requests += generator.requests
    return outcomes, retries, requests


def run_in_child(
    host: str, port: int, rounds: list[list[Arrival]], seed: int, timeout_s: float
) -> tuple[list[list[Outcome]], int, int]:
    """:func:`run_rounds` in a child interpreter; waits for it to exit.

    A plain child process rather than :mod:`multiprocessing`: its spawn
    start method leaves a resource-tracker process running that nothing
    waits for.
    """
    request = {
        "host": host,
        "port": port,
        "seed": seed,
        "rounds": [[dataclasses.asdict(a) for a in arrivals] for arrivals in rounds],
    }
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    completed = run_child(
        [sys.executable, str(Path(__file__).resolve())],
        timeout=timeout_s,
        input=json.dumps(request),
        env=env,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"load generator exited {completed.returncode}: {completed.stderr[-2000:]}"
        )
    reply = json.loads(completed.stdout)
    outcomes = [
        [Outcome(arrival, **fields) for arrival, fields in zip(arrivals, done)]
        for arrivals, done in zip(rounds, reply["rounds"])
    ]
    return outcomes, reply["retries"], reply["requests"]


def main() -> int:
    """Child side of :func:`run_in_child`: JSON in, JSON out."""
    request = json.load(sys.stdin)
    rounds = [[Arrival(**a) for a in arrivals] for arrivals in request["rounds"]]
    outcomes, retries, requests = run_rounds(
        request["host"], request["port"], rounds, request["seed"]
    )
    fields = ("sent_s", "done_s", "job", "error")
    json.dump(
        {
            "rounds": [
                [{name: getattr(o, name) for name in fields} for o in one]
                for one in outcomes
            ],
            "retries": retries,
            "requests": requests,
        },
        sys.stdout,
    )
    return 0


class OpenLoopGenerator:
    """Drive one server with a fixed arrival schedule (two threads)."""

    def __init__(self, host: str, port: int, arrivals: list[Arrival], seed: int):
        self.arrivals = arrivals
        self.clients = [
            ServeClient(host, port, rng=random.Random(seed + index))
            for index in range(2)
        ]
        self.outcomes = [Outcome(arrival) for arrival in arrivals]
        self._cold: queue.Queue = queue.Queue()
        self._start = 0.0

    def run(self) -> list[Outcome]:
        """Send every arrival on schedule; returns once all have finished."""
        waiter = threading.Thread(target=self._wait_cold, name="perfbench-waiter")
        self._start = perf()
        waiter.start()
        try:
            self._send_all()
        finally:
            self._cold.put(None)
            waiter.join()
        return self.outcomes

    @property
    def retries(self) -> int:
        """429 and connection retries across both clients."""
        return sum(
            client.stats["retries_connect"] + client.stats["retries_busy"]
            for client in self.clients
        )

    @property
    def requests(self) -> int:
        """HTTP requests issued across both clients (retries included)."""
        return sum(client.stats["requests"] for client in self.clients)

    def _now(self) -> float:
        return perf() - self._start

    def _send_all(self) -> None:
        client = self.clients[0]
        for outcome in self.outcomes:
            delay = outcome.arrival.due_s - self._now()
            if delay > 0:
                time.sleep(delay)
            outcome.sent_s = self._now()
            try:
                job = client.submit(outcome.arrival.spec)
            except (ClientError, OSError) as error:
                outcome.error = f"submit: {error}"
                outcome.done_s = self._now()
                continue
            if outcome.arrival.kind == "cold":
                self._cold.put((outcome, job["id"]))
            else:
                self._finish(client, outcome, job["id"])

    def _wait_cold(self) -> None:
        client = self.clients[1]
        while True:
            item = self._cold.get()
            if item is None:
                return
            self._finish(client, *item)

    def _finish(self, client: ServeClient, outcome: Outcome, job_id: str) -> None:
        try:
            outcome.job = client.wait(job_id, poll_s=10.0, deadline_s=60.0)
        except (ClientError, OSError) as error:
            outcome.error = f"wait: {error}"
        outcome.done_s = self._now()
        if outcome.job is not None and outcome.job["state"] != "done":
            outcome.error = f"job ended {outcome.job['state']}: {outcome.job['error']}"


if __name__ == "__main__":
    sys.exit(main())
