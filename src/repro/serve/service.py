"""The simulation service: pooled workers, coalesced admission, metrics, drain.

:class:`SimulationService` is the serving core the HTTP layer fronts.  It
owns a :class:`~repro.serve.pool.WorkerPool` of *persistent* simulation
worker processes (no fork-per-job: each worker imports the simulator once
and then executes job after job), a :class:`~repro.serve.jobs.JobBoard`
of every accepted job, and one
:class:`~repro.experiments.executor.ParallelRunner` used as the cache
front (shared in-memory result dict + persistent
:class:`~repro.experiments.executor.ResultCache`).  The service process
only probes finished results; it never builds a trace, so it leaves the
process-wide :mod:`repro.experiments.runner` config alone — each pool
worker points that config at the service's cache directory instead.

Admission queues with backpressure: :meth:`submit` accepts a job — which
is then *never* dropped; it always reaches a terminal state — until the
number of active (queued + running) jobs reaches ``queue_depth``; only
past that does it raise :class:`ServiceSaturated` (translated to HTTP 429
+ ``Retry-After``).  During shutdown it raises :class:`ServiceDraining`
(503).  A refused submission has no side effects.

Jobs queue for the pool in arrival order, and duplicate in-flight
submissions never reach a second worker: followers coalesce onto the
leader at admission and are completed with the leader's result
(``source == "coalesced"``), so a thundering herd of identical specs
costs one simulation.  Cache hits (in-memory or on-disk) complete on the
event loop without touching the pool at all.

The pool supervises its processes: a worker that dies mid-job is
respawned and the job requeued (up to ``max_requeues`` times) before it
is FAILED; mid-run cancellation kills the worker process (the slot
respawns), so a stuck simulation releases its CPU.  With a persistent
cache directory, a job that reaches its per-slice deadline is *preempted*
rather than killed: the worker checkpoints the live simulation into the
shared :class:`~repro.experiments.checkpoints.CheckpointStore`, the job
requeues (state PREEMPTED), and its next slice resumes from the snapshot
— long traces complete across as many slices as ``max_preemptions``
allows, in bounded memory, without ever restarting from zero.  Without a
cache directory the old deadline kill applies.  Worker health —
per-worker inflight/completed counters, restarts, preemptions — ships
through :meth:`metrics`.

:meth:`drain` implements graceful shutdown (what SIGTERM triggers): stop
admitting, let queued and running jobs finish — or, past the grace
deadline, cancel them — and stop the pool.  Nothing accepted is ever
silently lost; every job ends DONE, FAILED, TIMEOUT or CANCELLED.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.executor import (
    DEFAULT_CACHE_DIR,
    JobSpec,
    ParallelRunner,
    ResultCache,
    result_from_jsonable,
)
from repro.sim.statistics import StatRegistry
from repro.errors import ConfigurationError
from repro.serve.jobs import Job, JobBoard, JobState
from repro.serve.pool import PoolOutcome, WorkerPool


class ServeError(Exception):
    """Base class for serving-layer failures."""


class ServiceSaturated(ServeError):
    """The backlog is at capacity; retry after ``retry_after_s`` seconds."""

    def __init__(self, retry_after_s: float):
        super().__init__(
            f"job backlog is at capacity; retry after {retry_after_s:.1f} s"
        )
        self.retry_after_s = retry_after_s


class ServiceDraining(ServeError):
    """The service is shutting down and no longer admits jobs."""

    def __init__(self):
        super().__init__("service is draining; submit to another instance")


@dataclass
class ServiceConfig:
    """Everything a service instance needs to know at start-up."""

    #: Persistent worker processes in the pool.
    workers: int = 2
    #: Max active (queued + running) jobs before admission answers 429.
    queue_depth: int = 16
    cache_dir: Path | None = DEFAULT_CACHE_DIR
    #: LRU byte budget for the persistent cache (None or negative: unbounded).
    cache_bytes: int | None = None
    #: Default per-job timeout when a submission does not carry one.
    default_timeout_s: float | None = 300.0
    #: What a 429 tells clients to wait (scaled by backlog fullness).
    retry_after_s: float = 1.0
    #: How long :meth:`SimulationService.drain` waits before cancelling
    #: the jobs that are still queued or running.
    drain_grace_s: float = 30.0
    #: How many times a job is requeued after its worker process dies
    #: mid-run before the job is FAILED.
    max_requeues: int = 2
    #: How many checkpoint-and-requeue slices a job may consume before it
    #: resolves to TIMEOUT (only meaningful with a cache directory).
    max_preemptions: int = 8

    def __post_init__(self) -> None:
        self.workers = max(1, int(self.workers))
        self.queue_depth = max(1, int(self.queue_depth))
        self.max_requeues = max(0, int(self.max_requeues))
        self.max_preemptions = max(0, int(self.max_preemptions))
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)


class SimulationService:
    """Accepts JobSpecs, executes them through the pooled fleet, keeps score.

    Construct, then ``await start()`` on the serving event loop; every
    other method must be called on that same loop (the HTTP layer does).
    The pool's supervisor thread reports worker events back onto the loop
    through ``run_coroutine_threadsafe``, so the
    :class:`~repro.serve.jobs.JobBoard` only ever mutates on the loop.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        cache = None
        if self.config.cache_dir is not None:
            cache = ResultCache(
                self.config.cache_dir, max_bytes=self.config.cache_bytes
            )
        self.runner = ParallelRunner(workers=1, cache=cache)
        self.board: JobBoard | None = None
        self.stats = StatRegistry()
        self.started_at: float | None = None
        self.draining = False
        self._pool: WorkerPool | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        #: digest -> the job a worker is (or will be) simulating.
        self._inflight: dict[str, Job] = {}
        #: digest -> jobs coalescing onto the in-flight leader.
        self._followers: dict[str, list[Job]] = {}
        self._sim_events_total = 0
        self._sim_wall_ms_total = 0.0
        self._trace_cache_hits_total = 0
        self._trace_cache_misses_total = 0
        self._checkpoint_hits_total = 0
        self._checkpoint_misses_total = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Create the board and spawn the worker pool (idempotent)."""
        if self._pool is not None:
            return
        self.board = JobBoard()
        self._loop = asyncio.get_running_loop()
        self._pool = WorkerPool(
            workers=self.config.workers,
            cache_dir=self.config.cache_dir,
            cache_bytes=self.config.cache_bytes,
            on_running=self._pool_running,
            on_outcome=self._pool_outcome,
            on_requeue=self._pool_requeue,
            on_preempted=self._pool_preempted,
            max_requeues=self.config.max_requeues,
            max_preemptions=self.config.max_preemptions,
        ).start()
        self.started_at = time.monotonic()

    async def drain(self, grace_s: float | None = None) -> None:
        """Graceful shutdown: stop admitting, finish (or cancel) every job.

        Waits up to ``grace_s`` (default: the config's ``drain_grace_s``)
        for the backlog and in-flight jobs to finish.  Whatever is still
        alive past the deadline is cancelled — and therefore recorded as
        CANCELLED, not lost.  Finally the worker pool is stopped and its
        processes joined.
        """
        if self._pool is None:
            self.draining = self.board is not None or self.draining
            return
        self.draining = True
        grace = self.config.drain_grace_s if grace_s is None else grace_s
        await self._settle(grace)
        for job in self.board.jobs():
            if not job.state.terminal:
                await self.cancel(job)
        await self._settle(10.0)
        pool, self._pool = self._pool, None
        pool.stop()

    async def _settle(self, grace_s: float) -> bool:
        """Wait up to ``grace_s`` for every known job to reach terminal."""
        deadline = time.monotonic() + max(0.0, grace_s)
        for job in self.board.jobs():
            if job.state.terminal:
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            if not await self.board.wait(job, timeout_s=remaining):
                return False
        return True

    # -- admission -----------------------------------------------------------

    def submit(self, spec: JobSpec, timeout_s: float | None = None) -> Job:
        """Admit one spec as a new job, or refuse without side effects.

        Raises :class:`ServiceDraining` during shutdown and
        :class:`ServiceSaturated` when the active backlog (queued plus
        running jobs) is at ``queue_depth`` — backpressure; the caller
        should retry after ``retry_after_s``.
        """
        if self.draining:
            raise ServiceDraining()
        if self.board is None or self._pool is None:
            raise ServeError("service is not started")
        serve = self.stats.group("serve")
        if self.board.active >= self.config.queue_depth:
            serve.add("rejected_saturated")
            raise ServiceSaturated(self._retry_after())
        if timeout_s is None:
            timeout_s = self.config.default_timeout_s
        job = self.board.create(spec, timeout_s=timeout_s)
        serve.add("submitted")
        self._route(job)
        return job

    def _retry_after(self) -> float:
        """Backpressure hint: one base interval per active job."""
        active = 0 if self.board is None else self.board.active
        return round(self.config.retry_after_s * max(1, active), 3)

    async def cancel(self, job: Job) -> bool:
        """Cancel a queued or running job; False when it already finished.

        Followers and pool-queued jobs flip straight to CANCELLED.  For a
        job already on a worker, the pool kills the worker process and the
        supervisor reports the CANCELLED outcome shortly after.
        """
        if job.state.terminal:
            return False
        job.cancel.set()
        followers = self._followers.get(job.digest)
        if followers is not None and job in followers:
            followers.remove(job)
            await self._finish_unpooled(job)
            return True
        if self._inflight.get(job.digest) is job and self._pool is not None:
            if self._pool.cancel(job) == "queued":
                self._inflight.pop(job.digest, None)
                await self._finish_unpooled(job)
                for follower in self._followers.pop(job.digest, []):
                    self._route(follower)
            # "running": the supervisor kills the worker and reports the
            # cancelled outcome; "missing": its outcome is already in
            # flight and the cancel event decides at completion time.
        return True

    # -- routing and completion ----------------------------------------------

    def _route(self, job: Job) -> None:
        """Send one accepted job down the cheapest path that resolves it.

        Follower (a leader is in flight for the digest) -> coalesce;
        cache hit -> complete on the loop; otherwise the job becomes the
        digest's leader and is dispatched to the pool.
        """
        if job.state.terminal:
            return
        if job.cancel.is_set():
            self._spawn_task(self._finish_unpooled(job))
            return
        leader = self._inflight.get(job.digest)
        if leader is not None:
            self._followers.setdefault(job.digest, []).append(job)
            return
        result, source = self.runner.lookup(job.spec)
        if result is not None:
            self._spawn_task(self._finish_unpooled(job, result, source))
            return
        if self._pool is None:
            self._spawn_task(
                self._finish_failed(job, "service stopped before execution")
            )
            return
        self._inflight[job.digest] = job
        try:
            self._pool.dispatch(job)
        except RuntimeError:
            self._inflight.pop(job.digest, None)
            self._spawn_task(
                self._finish_failed(job, "service stopped before execution")
            )

    def _spawn_task(self, coroutine) -> None:
        """Run a completion coroutine as a task on the serving loop."""
        asyncio.get_running_loop().create_task(coroutine)

    async def _finish_unpooled(
        self, job: Job, result=None, source: str | None = None
    ) -> None:
        """End a job no worker runs: a cache hit, a follower or an early cancel.

        A coalesced follower takes its leader's result; a job cancelled
        before a worker took it has none.  The job ends CANCELLED when
        cancel was requested or there is no ``result``; otherwise it goes
        RUNNING, then DONE from ``source``, counting ``completed`` and
        ``hits_<source>``.
        """
        if job.state.terminal:
            return
        serve = self.stats.group("serve")
        if result is None or job.cancel.is_set():
            await self.board.advance(
                job, JobState.CANCELLED, error="cancelled while queued"
            )
            serve.add("cancelled")
            return
        await self.board.advance(job, JobState.RUNNING)
        await self.board.advance(job, JobState.DONE, source=source, result=result)
        serve.add("completed")
        serve.add(f"hits_{source}")

    async def _finish_failed(self, job: Job, error: str) -> None:
        """Record a job the service could not hand to the pool."""
        if job.state.terminal:
            return
        await self.board.advance(job, JobState.FAILED, error=error)
        self.stats.group("serve").add("failed")

    def _add_slice_cost(self, job: Job, outcome: PoolOutcome) -> None:
        """Add one slice's wall time and kernel events to the job record.

        A simulated slice (finished or preempted) also adds its events,
        wall time, trace-cache lookups and checkpoint probes to the
        service totals, so a long job's progress shows in ``/metrics``
        while it is still being resumed slice after slice.  A job that is
        already terminal keeps its record.
        """
        if not job.state.terminal:
            job.wall_ms += outcome.wall_ms
            job.sim_events += outcome.sim_events
        if outcome.status == "preempted" or outcome.source == "simulated":
            self._sim_events_total += outcome.sim_events
            self._sim_wall_ms_total += outcome.wall_ms
            self._trace_cache_hits_total += outcome.trace_cache_hits
            self._trace_cache_misses_total += outcome.trace_cache_misses
            self._checkpoint_hits_total += outcome.checkpoint_hits
            self._checkpoint_misses_total += outcome.checkpoint_misses

    async def _finish_pooled(self, job: Job, outcome: PoolOutcome) -> None:
        """Record a pool outcome for a leader; resolve its followers."""
        serve = self.stats.group("serve")
        if self._inflight.get(job.digest) is job:
            self._inflight.pop(job.digest, None)
        followers = self._followers.pop(job.digest, [])
        self._add_slice_cost(job, outcome)
        if outcome.status == "ok":
            result = result_from_jsonable(outcome.result_payload)
            # The worker already persisted the entry; only the in-process
            # memory layer needs feeding here.
            self.runner.memory[job.digest] = result
            await self.board.advance(
                job, JobState.DONE, source=outcome.source, result=result
            )
            serve.add("completed")
            if outcome.source == "simulated":
                serve.add("simulations")
            else:
                serve.add(f"hits_{outcome.source}")
            for follower in followers:
                await self._finish_unpooled(follower, result, "coalesced")
            return
        state = {
            "timeout": JobState.TIMEOUT,
            "cancelled": JobState.CANCELLED,
        }.get(outcome.status, JobState.FAILED)
        await self.board.advance(job, state, error=outcome.error)
        serve.add(
            {"timeout": "timeouts", "cancelled": "cancelled"}.get(
                outcome.status, "failed"
            )
        )
        # The leader never produced a result: re-route every follower so
        # one of them becomes the new leader (or hits the cache).
        for follower in followers:
            self._route(follower)

    # -- pool callbacks (supervisor thread -> event loop) ----------------------

    def _schedule(self, coroutine) -> None:
        """Bridge a pool-thread event onto the serving loop, tolerantly."""
        loop = self._loop
        if loop is None or loop.is_closed():
            coroutine.close()
            return
        try:
            asyncio.run_coroutine_threadsafe(coroutine, loop)
        except RuntimeError:  # pragma: no cover - loop shut down mid-call
            coroutine.close()

    def _pool_running(self, job: Job, worker_index: int) -> None:
        """Pool callback: a worker started simulating ``job``."""
        self._schedule(self.board.advance(job, JobState.RUNNING))

    def _pool_requeue(self, job: Job) -> None:
        """Pool callback: ``job`` lost its worker and went back in queue."""
        self._schedule(self._mark_requeued(job))

    async def _mark_requeued(self, job: Job) -> None:
        """Record a crash-requeue on the board and the counters."""
        self.stats.group("serve").add("requeued")
        await self.board.advance(job, JobState.QUEUED)

    def _pool_outcome(self, job: Job, outcome: PoolOutcome) -> None:
        """Pool callback: ``job`` finished (ok/failed/timeout/cancelled)."""
        self._schedule(self._finish_pooled(job, outcome))

    def _pool_preempted(self, job: Job, outcome: PoolOutcome) -> None:
        """Pool callback: ``job`` was checkpointed at its budget, requeued."""
        self._schedule(self._mark_preempted(job, outcome))

    async def _mark_preempted(self, job: Job, outcome: PoolOutcome) -> None:
        """Record one preemption slice: its cost plus the PREEMPTED state."""
        self.stats.group("serve").add("preempted")
        self._add_slice_cost(job, outcome)
        await self.board.advance(job, JobState.PREEMPTED)

    # -- observability -------------------------------------------------------

    def metrics(self) -> dict:
        """Live service metrics (what ``GET /metrics`` serves).

        Combines job counters, backlog gauges, worker-fleet health (per
        worker: pid, state, completed jobs, restarts), cache effectiveness
        and the simulation kernel's events/sec.  Every key is documented
        in ``docs/serving.md``.
        """
        counters = self.stats.as_dict()
        completed = counters.get("serve.completed", 0.0)
        simulations = counters.get("serve.simulations", 0.0)
        hits = completed - simulations
        uptime = (
            0.0 if self.started_at is None else time.monotonic() - self.started_at
        )
        sim_wall_s = self._sim_wall_ms_total / 1000.0
        trace_lookups = self._trace_cache_hits_total + self._trace_cache_misses_total
        if self._pool is not None:
            fleet = self._pool.snapshot()
        else:
            fleet = {
                "queued": 0,
                "running": 0,
                "workers_online": 0,
                "restarts_total": 0,
                "kills_total": 0,
                "requeues_total": 0,
                "preemptions_total": 0,
                "workers": [],
            }
        checkpoint_probes = self._checkpoint_hits_total + self._checkpoint_misses_total
        return {
            "state": "draining" if self.draining else "running",
            "uptime_s": round(uptime, 3),
            "workers": self.config.workers,
            "workers_online": fleet["workers_online"],
            "worker_restarts": fleet["restarts_total"],
            "worker_kills": fleet["kills_total"],
            "job_requeues": fleet["requeues_total"],
            "job_preemptions": fleet["preemptions_total"],
            "queue_depth": fleet["queued"],
            "queue_capacity": self.config.queue_depth,
            "jobs_active": 0 if self.board is None else self.board.active,
            "jobs_in_flight": fleet["running"],
            "jobs_coalescing": sum(len(jobs) for jobs in self._followers.values()),
            "jobs_known": 0 if self.board is None else len(self.board),
            "workers_detail": fleet["workers"],
            "counters": {key: value for key, value in sorted(counters.items())},
            "cache_hits": hits,
            "cache_hit_ratio": round(hits / completed, 4) if completed else 0.0,
            "sim_events_total": self._sim_events_total,
            "sim_wall_s_total": round(sim_wall_s, 3),
            "sim_events_per_sec": (
                round(self._sim_events_total / sim_wall_s, 1) if sim_wall_s else 0.0
            ),
            "trace_cache_hits": self._trace_cache_hits_total,
            "trace_cache_misses": self._trace_cache_misses_total,
            "trace_cache_hit_ratio": (
                round(self._trace_cache_hits_total / trace_lookups, 4)
                if trace_lookups
                else 0.0
            ),
            "checkpoint_hits": self._checkpoint_hits_total,
            "checkpoint_misses": self._checkpoint_misses_total,
            "checkpoint_hit_ratio": (
                round(self._checkpoint_hits_total / checkpoint_probes, 4)
                if checkpoint_probes
                else 0.0
            ),
        }


def decode_submission(payload: dict) -> tuple[JobSpec, float | None]:
    """Decode a ``POST /jobs`` body into ``(spec, timeout_s)``.

    The body is JobSpec-shaped (``benchmark``, ``level``, optional
    ``machine``/``num_requests``/``seed``/``cores``) with one service-level
    extra: ``timeout_s``.  Raises
    :class:`~repro.errors.ConfigurationError` on anything malformed.
    """
    from repro.experiments.executor import spec_from_jsonable

    if not isinstance(payload, dict):
        raise ConfigurationError("job submission must be a JSON object")
    payload = dict(payload)
    timeout_s = payload.pop("timeout_s", None)
    if timeout_s is not None:
        try:
            timeout_s = float(timeout_s)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError("timeout_s must be a number") from None
        # A NaN deadline never fires: ``now >= nan`` is always false.
        if not math.isfinite(timeout_s) or timeout_s <= 0:
            raise ConfigurationError("timeout_s must be a positive finite number")
    return spec_from_jsonable(payload), timeout_s
