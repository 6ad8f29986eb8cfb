"""A supervised pool of persistent simulation worker processes.

This is the execution fleet behind :class:`~repro.serve.service.
SimulationService`.  Where the service used to fork one controlled child
per job, the pool keeps ``workers`` *persistent* processes alive — each
one imports the simulator once, then executes job after job over a duplex
pipe — so steady-state throughput scales with worker count instead of
paying a fork + import per simulation.

The moving parts:

* :func:`_pool_worker_main` — the worker-process loop: receive a spec and
  a wall-clock budget, probe the shared on-disk
  :class:`~repro.experiments.executor.ResultCache`, simulate on a miss
  (counting kernel events), persist, reply.  With a cache directory the
  worker also holds a :class:`~repro.experiments.checkpoints.
  CheckpointStore`: a budgeted job that cannot finish in time is
  *checkpointed and preempted* — the worker snapshots the live
  :class:`~repro.system.world.SimWorld`, persists it, and replies
  ``preempted`` instead of being killed; the job requeues and its next
  slice resumes from the snapshot.
* :class:`WorkerHandle` — the supervisor's view of one worker slot:
  process, pipe, current job, deadline, restart/completion counters.
* :class:`WorkerPool` — the supervisor: shards queued jobs by spec digest,
  assigns them to idle workers (with work stealing so one hot shard cannot
  idle the fleet), enforces per-job deadlines and cancellation by killing
  the worker process, requeues jobs whose worker crashed mid-run, and
  respawns dead workers.  It reports everything that happens through three
  callbacks (``on_running``, ``on_outcome``, ``on_requeue``) so the
  service can keep its :class:`~repro.serve.jobs.JobBoard` authoritative.
* :class:`PoolOutcome` — one job's final verdict as the pool saw it.

Concurrency model: all pool state is guarded by one lock; a single
supervisor thread multiplexes every worker pipe (plus the process
sentinels and a wake pipe) through :func:`multiprocessing.connection.wait`.
Callbacks fire on the supervisor thread — the service bridges them onto
its event loop with ``run_coroutine_threadsafe``.

Shared-cache safety: every worker writes the same cache directory —
results and traces through one
:class:`~repro.experiments.executor.ResultCache`, snapshots through a
:class:`~repro.experiments.checkpoints.CheckpointStore`.  Each worker
points its process's :mod:`repro.experiments.runner` config at that
directory once at start, so its front-end traces land there too.  Entry
writes are atomic (write-then-rename) and byte-budget eviction is
serialized by the single-evictor ``flock`` lease (see
:class:`~repro.experiments.executor.JsonFileCache`), so N workers can
evict concurrently without double-unlinking or corrupting entries.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.experiments import runner, trace_cache
from repro.experiments.checkpoints import CheckpointStore, world_for_spec
from repro.experiments.executor import _fork_context, result_to_jsonable
from repro.serve.jobs import Job

#: Kernel events between wall-clock budget checks while a budgeted job
#: runs — small enough that a slice overshoots its budget by milliseconds,
#: large enough that the check never shows up in a profile.
PREEMPT_SLICE_EVENTS = 20_000


def _simulate_sliced(spec, store, budget_s):
    """Run ``spec``, preempting at the wall budget.

    Resumes from the deepest usable snapshot in ``store`` when one exists.
    Returns ``(result, events, trace_hits, trace_misses, ckpt_hits,
    ckpt_misses)`` — ``events`` is the kernel events this slice executed
    (the engine's own count, less the snapshot's), and ``result`` is None
    when the budget expired before the simulation finished, in which case
    the live world was checkpointed to ``store`` so the next slice can
    resume it.  Without a store or budget this degrades to a plain
    start-to-finish run.
    """
    hits_before, misses_before = trace_cache.counters()
    deadline = None if budget_s is None else time.perf_counter() + float(budget_s)
    world, forked_from = world_for_spec(spec, store)
    ckpt_hits, ckpt_misses = (0, 0)
    if store is not None:
        ckpt_hits, ckpt_misses = (1, 0) if forked_from else (0, 1)
    finished = False
    if deadline is None or store is None:
        world.run()
        finished = True
    else:
        while True:
            if world.run(stop_after_events=PREEMPT_SLICE_EVENTS):
                finished = True
                break
            if time.perf_counter() >= deadline:
                try:
                    store.put(spec, world.snapshot())
                except Exception:
                    continue  # cannot persist progress: keep simulating
                break
    hits_after, misses_after = trace_cache.counters()
    return (
        world.result() if finished else None,
        world.events_executed - forked_from,
        hits_after - hits_before,
        misses_after - misses_before,
        ckpt_hits,
        ckpt_misses,
    )


def _pool_worker_main(connection, worker_index, cache_dir, cache_bytes) -> None:
    """Entry point of one persistent worker process.

    First points this process's :mod:`repro.experiments.runner` config at
    ``cache_dir`` (disabled when None), so results and the traces
    :func:`~repro.experiments.trace_cache.cached_trace` builds share one
    store.  Then loops forever: receive ``("run", job_id, spec,
    budget_s)``, resolve it through the shared on-disk cache or a fresh
    simulation (counting kernel events and trace-cache hits), persist a
    fresh result, and reply with one of::

        ("ok", job_id, source, result_json, wall_ms,
         events, trace_hits, trace_misses, ckpt_hits, ckpt_misses)
        ("preempted", job_id, events, wall_ms, ckpt_hits, ckpt_misses)
        ("error", job_id, message, wall_ms)

    ``preempted`` means the wall budget expired first: the worker
    checkpointed the live world to the shared store and stayed healthy —
    the supervisor requeues the job and a later slice resumes it.  A
    ``("stop",)`` message — or the pipe closing — ends the loop.  The
    worker never exits on a job failure: exceptions travel back as
    ``error`` replies.
    """
    runner.configure(
        cache_enabled=cache_dir is not None,
        cache_dir=cache_dir,
        cache_bytes=-1 if cache_bytes is None else max(0, cache_bytes),
    )
    cache = runner.disk_cache()
    store = None
    if cache_dir is not None:
        store = CheckpointStore(cache_dir, max_bytes=cache_bytes)
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            break
        if not isinstance(message, tuple) or not message or message[0] == "stop":
            break
        _kind, job_id, spec, budget_s = message
        started = time.perf_counter()
        try:
            cached = None if cache is None else cache.get(spec)
            if cached is not None:
                wall_ms = (time.perf_counter() - started) * 1000.0
                payload = result_to_jsonable(cached)
                reply = ("ok", job_id, "disk", payload, wall_ms, 0, 0, 0, 0, 0)
            else:
                result, events, trace_hits, trace_misses, ckpt_hits, ckpt_misses = (
                    _simulate_sliced(spec, store, budget_s)
                )
                if result is None:
                    wall_ms = (time.perf_counter() - started) * 1000.0
                    reply = (
                        "preempted",
                        job_id,
                        events,
                        wall_ms,
                        ckpt_hits,
                        ckpt_misses,
                    )
                else:
                    if cache is not None:
                        cache.put(spec, result)
                    wall_ms = (time.perf_counter() - started) * 1000.0
                    reply = (
                        "ok",
                        job_id,
                        "simulated",
                        result_to_jsonable(result),
                        wall_ms,
                        events,
                        trace_hits,
                        trace_misses,
                        ckpt_hits,
                        ckpt_misses,
                    )
        except Exception as exc:
            wall_ms = (time.perf_counter() - started) * 1000.0
            reply = ("error", job_id, f"{type(exc).__name__}: {exc}", wall_ms)
        try:
            connection.send(reply)
        except (OSError, ValueError):
            break
    try:
        connection.close()
    except OSError:  # pragma: no cover - already closed
        pass


@dataclass(frozen=True)
class PoolOutcome:
    """One job's final verdict as reported by the pool.

    ``status`` is ``"ok"`` (``result_payload`` holds the result in its
    cache-JSON form and ``source`` says whether the worker simulated it or
    found it on disk), ``"timeout"``, ``"cancelled"`` or ``"failed"``
    (``error`` holds the reason).  Results travel as JSON payloads — the
    same round trip the cache performs — so a pooled result is
    bit-identical to a cached one.
    """

    status: str
    source: str | None = None
    result_payload: dict | None = None
    error: str | None = None
    wall_ms: float = 0.0
    sim_events: int = 0
    trace_cache_hits: int = 0
    trace_cache_misses: int = 0
    #: Checkpoint-store probes by the finishing slice: 1/0 when the worker
    #: resumed from a stored snapshot, 0/1 when it had to start cold.
    checkpoint_hits: int = 0
    checkpoint_misses: int = 0
    worker: int | None = None


@dataclass
class WorkerHandle:
    """The supervisor's view of one worker slot.

    The *slot* (index) is stable; the process behind it is replaced
    whenever it dies — deliberately (timeout/cancel kill) or not (crash).
    """

    index: int
    process: multiprocessing.process.BaseProcess
    conn: multiprocessing.connection.Connection
    job: Job | None = None
    #: Monotonic deadline for the running job (None: no timeout).
    deadline: float | None = None
    #: Why the supervisor terminated this process ("timeout"/"cancelled"),
    #: or None while it is trusted to be healthy.
    kill_reason: str | None = None
    completed: int = 0
    restarts: int = 0
    started_at: float = field(default_factory=time.monotonic)

    def describe(self) -> dict:
        """This slot as a JSON-ready dict (one ``workers_detail`` row)."""
        return {
            "worker": self.index,
            "pid": self.process.pid,
            "alive": self.process.is_alive(),
            "state": "busy" if self.job is not None else "idle",
            "job": None if self.job is None else self.job.id,
            "completed": self.completed,
            "restarts": self.restarts,
        }


class WorkerPool:
    """Supervise N persistent worker processes executing sharded jobs.

    Jobs enter through :meth:`dispatch` into per-shard deques (shard =
    spec digest mod ``workers``), giving duplicate digests a deterministic
    home; an idle worker drains its own shard first and steals from the
    deepest backlog otherwise.  One supervisor thread multiplexes every
    worker pipe, enforces deadlines and cancellation (by killing the
    worker process), requeues jobs whose worker died mid-run (up to
    ``max_requeues`` times, then FAILs them) and respawns dead workers.

    Everything the pool decides is reported through callbacks, all fired
    on the supervisor thread:

    * ``on_running(job, worker_index)`` — the job was handed to a worker;
    * ``on_outcome(job, PoolOutcome)`` — the job finished, one way or
      another (including "cancelled while queued");
    * ``on_requeue(job)`` — the job's worker died and the job went back
      to the front of its shard (``job.attempts`` was incremented);
    * ``on_preempted(job, events, wall_ms, ckpt_hits, ckpt_misses)`` — the
      job's wall budget expired, the worker checkpointed it, and it went
      back to the front of its shard (``job.preemptions`` incremented).

    Preemption is active only when the pool has a ``cache_dir`` to hold
    checkpoints; without one, a job past its deadline is killed exactly as
    before.  With preemption, the supervisor's own deadline kill becomes a
    safety net at ``timeout_s + preempt_grace_s`` — it only fires when a
    worker fails to preempt itself.  A job preempted more than
    ``max_preemptions`` times resolves to a timeout outcome.
    """

    def __init__(
        self,
        workers: int,
        cache_dir=None,
        cache_bytes: int | None = None,
        *,
        on_running=None,
        on_outcome=None,
        on_requeue=None,
        on_preempted=None,
        max_requeues: int = 2,
        max_preemptions: int = 8,
        preempt_grace_s: float = 10.0,
        poll_s: float = 0.02,
    ):
        self.workers = max(1, int(workers))
        self.cache_dir = cache_dir
        self.cache_bytes = cache_bytes
        self.max_requeues = max(0, int(max_requeues))
        self.max_preemptions = max(0, int(max_preemptions))
        self.preempt_grace_s = max(0.0, float(preempt_grace_s))
        self.poll_s = max(0.001, float(poll_s))
        self._on_running = on_running or (lambda job, worker: None)
        self._on_outcome = on_outcome or (lambda job, outcome: None)
        self._on_requeue = on_requeue or (lambda job: None)
        self._on_preempted = on_preempted or (
            lambda job, events, wall_ms, hits, misses: None
        )
        self._context = _fork_context() or multiprocessing.get_context()
        self._lock = threading.Lock()
        self._shards: list[deque[Job]] = [deque() for _ in range(self.workers)]
        self._handles: list[WorkerHandle] = []
        self._started = False
        self._stopping = False
        self._crash_restarts = 0
        self._kills = 0
        self._requeues = 0
        self._preemptions = 0
        self._wake_r, self._wake_w = self._context.Pipe(duplex=False)
        self._thread = threading.Thread(
            target=self._supervise, name="repro-serve-pool", daemon=True
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Spawn every worker process and the supervisor thread (once)."""
        with self._lock:
            if self._started:
                return self
            self._handles = [
                WorkerHandle(index, *self._spawn(index))
                for index in range(self.workers)
            ]
            self._started = True
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the supervisor and every worker; report leftovers cancelled.

        Idle workers are asked to exit and joined; workers still busy past
        a short grace are terminated.  Any job still queued or running is
        reported through ``on_outcome`` as cancelled — the pool never
        swallows an accepted job silently.
        """
        with self._lock:
            stopping_already = self._stopping
            self._stopping = True
        self._poke()
        if not stopping_already and self._started:
            self._thread.join(timeout=30.0)
        with self._lock:
            leftovers = [job for shard in self._shards for job in shard]
            for shard in self._shards:
                shard.clear()
            handles = list(self._handles)
        for job in leftovers:
            self._emit(job, PoolOutcome(status="cancelled", error="worker pool stopped"))
        for handle in handles:
            try:
                handle.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for handle in handles:
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            if handle.process.is_alive():  # pragma: no cover - terminate ignored
                handle.process.kill()
                handle.process.join(timeout=2.0)
            if handle.job is not None:
                job, handle.job = handle.job, None
                self._emit(
                    job,
                    PoolOutcome(
                        status="cancelled",
                        error="worker pool stopped",
                        worker=handle.index,
                    ),
                )
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for pipe_end in (self._wake_r, self._wake_w):
            try:
                pipe_end.close()
            except OSError:  # pragma: no cover - already closed
                pass

    # -- submission-side API (any thread) ------------------------------------

    def dispatch(self, job: Job) -> None:
        """Queue one job on its digest's home shard and wake the supervisor."""
        with self._lock:
            if self._stopping:
                raise RuntimeError("worker pool is stopping")
            self._shards[self._shard_of(job.digest)].append(job)
        self._poke()

    def cancel(self, job: Job) -> str:
        """Take the job out of the pool; returns where it was found.

        ``"queued"``: removed from its shard before any worker saw it —
        the caller records the cancellation (no outcome will fire).
        ``"running"``: its worker process is being killed; the cancelled
        outcome follows through ``on_outcome``.  ``"missing"``: the pool
        no longer holds it (its outcome is already reported or in flight).
        """
        with self._lock:
            for shard in self._shards:
                if job in shard:
                    shard.remove(job)
                    return "queued"
            for handle in self._handles:
                if handle.job is job:
                    if handle.kill_reason is None:
                        self._kill(handle, "cancelled")
                    return "running"
        return "missing"

    def snapshot(self) -> dict:
        """Live fleet gauges for ``/metrics`` (thread-safe, JSON-ready)."""
        with self._lock:
            return {
                "queued": sum(len(shard) for shard in self._shards),
                "running": sum(1 for h in self._handles if h.job is not None),
                "workers_online": sum(
                    1 for h in self._handles if h.process.is_alive()
                ),
                "restarts_total": self._crash_restarts,
                "kills_total": self._kills,
                "requeues_total": self._requeues,
                "preemptions_total": self._preemptions,
                "workers": [handle.describe() for handle in self._handles],
            }

    # -- supervisor internals (hold self._lock) ------------------------------

    def _shard_of(self, digest: str) -> int:
        """A digest's home shard: stable, uniform over the worker count."""
        return int(digest[:8], 16) % self.workers

    def _spawn(self, index: int):
        """Fork one worker process; returns ``(process, parent_conn)``."""
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_pool_worker_main,
            args=(child_conn, index, self.cache_dir, self.cache_bytes),
            name=f"repro-pool-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    def _poke(self) -> None:
        """Wake the supervisor out of its poll wait immediately."""
        try:
            self._wake_w.send_bytes(b"!")
        except (OSError, ValueError):  # pragma: no cover - pool torn down
            pass

    def _emit(self, job: Job, outcome: PoolOutcome) -> None:
        """Report one outcome; a callback error must never kill the pool."""
        try:
            self._on_outcome(job, outcome)
        except Exception:  # pragma: no cover - defensive
            pass

    def _kill(self, handle: WorkerHandle, reason: str) -> None:
        """Terminate a busy worker deliberately (timeout or cancellation)."""
        handle.kill_reason = reason
        self._kills += 1
        try:
            handle.process.terminate()
        except OSError:  # pragma: no cover - already dead
            pass

    def _supervise(self) -> None:
        """The supervisor loop: collect, sweep, enforce, assign, wait."""
        while True:
            with self._lock:
                if self._stopping:
                    return
                self._collect()
                self._sweep_cancelled()
                self._enforce_deadlines()
                self._assign()
                waitables: list = [self._wake_r]
                for handle in self._handles:
                    waitables.append(handle.process.sentinel)
                    if handle.job is not None:
                        waitables.append(handle.conn)
            try:
                ready = multiprocessing.connection.wait(waitables, timeout=self.poll_s)
            except OSError:  # pragma: no cover - fd raced away at respawn
                ready = []
            if self._wake_r in ready:
                try:
                    while self._wake_r.poll(0):
                        self._wake_r.recv_bytes()
                except (EOFError, OSError):  # pragma: no cover - torn down
                    pass

    def _collect(self) -> None:
        """Harvest finished jobs and reap dead workers."""
        for handle in self._handles:
            if handle.job is not None:
                if handle.kill_reason is None and self._try_receive(handle):
                    continue
                if not handle.process.is_alive():
                    self._reap(handle)
            elif not handle.process.is_alive():
                # An idle worker died out of band: replace the process.
                self._respawn(handle, crashed=True)

    def _try_receive(self, handle: WorkerHandle) -> bool:
        """Pull one reply off a busy worker's pipe, if present."""
        job = handle.job
        try:
            if not handle.conn.poll(0):
                return False
            payload = handle.conn.recv()
        except (EOFError, OSError):
            return False  # died mid-send; the is_alive() check reaps it
        if not isinstance(payload, tuple) or len(payload) < 2 or payload[1] != job.id:
            return False  # stale or malformed reply: drop it
        if payload[0] == "ok":
            (
                _kind,
                _job_id,
                source,
                result_payload,
                wall_ms,
                events,
                hits,
                misses,
                ckpt_hits,
                ckpt_misses,
            ) = payload
            outcome = PoolOutcome(
                status="ok",
                source=str(source),
                result_payload=result_payload,
                wall_ms=float(wall_ms),
                sim_events=int(events),
                trace_cache_hits=int(hits),
                trace_cache_misses=int(misses),
                checkpoint_hits=int(ckpt_hits),
                checkpoint_misses=int(ckpt_misses),
                worker=handle.index,
            )
        elif payload[0] == "preempted":
            self._preempt(handle, payload)
            return True
        else:
            _kind, _job_id, message, wall_ms = payload
            outcome = PoolOutcome(
                status="failed",
                error=str(message),
                wall_ms=float(wall_ms),
                worker=handle.index,
            )
        handle.job = None
        handle.deadline = None
        handle.completed += 1
        self._emit(job, outcome)
        return True

    def _preempt(self, handle: WorkerHandle, payload: tuple) -> None:
        """A worker checkpointed its job at the budget: requeue, not kill.

        The job goes back to the *front* of its home shard so it resumes
        promptly; past ``max_preemptions`` slices it resolves to a timeout
        outcome (the worker stays alive either way).  A cancellation that
        raced the preemption resolves to cancelled here.
        """
        _kind, _job_id, events, wall_ms, ckpt_hits, ckpt_misses = payload
        job, handle.job = handle.job, None
        handle.deadline = None
        job.preemptions += 1
        self._preemptions += 1
        try:
            self._on_preempted(
                job, int(events), float(wall_ms), int(ckpt_hits), int(ckpt_misses)
            )
        except Exception:  # pragma: no cover - defensive
            pass
        if job.cancel.is_set():
            self._emit(
                job,
                PoolOutcome(
                    status="cancelled",
                    error="cancelled by request",
                    worker=handle.index,
                ),
            )
        elif job.preemptions > self.max_preemptions:
            self._emit(
                job,
                PoolOutcome(
                    status="timeout",
                    error=(
                        f"preempted {job.preemptions} times without finishing "
                        f"({float(job.timeout_s):.3f} s budget per slice)"
                    ),
                    worker=handle.index,
                ),
            )
        else:
            self._shards[self._shard_of(job.digest)].appendleft(job)

    def _reap(self, handle: WorkerHandle) -> None:
        """A busy worker died: resolve its job, then replace the process.

        A deliberate kill resolves to the timeout/cancelled outcome it was
        issued for.  An unexpected death requeues the job at the front of
        its home shard — bounded by ``max_requeues``, past which the job
        fails with the worker's exit code in the error.
        """
        job, handle.job = handle.job, None
        handle.deadline = None
        reason, handle.kill_reason = handle.kill_reason, None
        if reason == "timeout":
            self._emit(
                job,
                PoolOutcome(
                    status="timeout",
                    error=f"timed out after {float(job.timeout_s):.3f} s",
                    worker=handle.index,
                ),
            )
        elif reason == "cancelled":
            self._emit(
                job,
                PoolOutcome(
                    status="cancelled",
                    error="cancelled by request",
                    worker=handle.index,
                ),
            )
        elif job.attempts < self.max_requeues:
            job.attempts += 1
            self._requeues += 1
            self._shards[self._shard_of(job.digest)].appendleft(job)
            try:
                self._on_requeue(job)
            except Exception:  # pragma: no cover - defensive
                pass
        else:
            self._emit(
                job,
                PoolOutcome(
                    status="failed",
                    error=(
                        f"worker process died mid-job "
                        f"(exit code {handle.process.exitcode}) "
                        f"after {job.attempts + 1} attempt(s)"
                    ),
                    worker=handle.index,
                ),
            )
        self._respawn(handle, crashed=reason is None)

    def _respawn(self, handle: WorkerHandle, crashed: bool) -> None:
        """Replace a dead worker process behind its slot."""
        if self._stopping:
            return
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        handle.process.join(timeout=5.0)
        handle.process, handle.conn = self._spawn(handle.index)
        handle.kill_reason = None
        handle.started_at = time.monotonic()
        handle.restarts += 1
        if crashed:
            self._crash_restarts += 1

    def _sweep_cancelled(self) -> None:
        """Resolve cancelled queued jobs; kill workers on cancelled jobs."""
        for shard in self._shards:
            for job in [item for item in shard if item.cancel.is_set()]:
                shard.remove(job)
                self._emit(
                    job,
                    PoolOutcome(status="cancelled", error="cancelled while queued"),
                )
        for handle in self._handles:
            if (
                handle.job is not None
                and handle.kill_reason is None
                and handle.job.cancel.is_set()
            ):
                self._kill(handle, "cancelled")

    def _enforce_deadlines(self) -> None:
        """Kill workers whose job ran past its deadline."""
        now = time.monotonic()
        for handle in self._handles:
            if (
                handle.job is not None
                and handle.kill_reason is None
                and handle.deadline is not None
                and now >= handle.deadline
            ):
                self._kill(handle, "timeout")

    def _next_job(self, index: int) -> Job | None:
        """The next job for worker ``index``: own shard first, then steal."""
        shard = self._shards[index]
        if shard:
            return shard.popleft()
        richest = max(self._shards, key=len)
        if richest:
            return richest.popleft()
        return None

    def _assign(self) -> None:
        """Hand queued jobs to idle, healthy workers."""
        for handle in self._handles:
            if (
                handle.job is not None
                or handle.kill_reason is not None
                or not handle.process.is_alive()
            ):
                continue
            while True:
                job = self._next_job(handle.index)
                if job is None:
                    break
                if job.cancel.is_set():
                    self._emit(
                        job,
                        PoolOutcome(
                            status="cancelled", error="cancelled while queued"
                        ),
                    )
                    continue
                # With a checkpoint store the worker preempts itself at the
                # budget; the supervisor's kill becomes a grace-padded
                # safety net.  Without one, the old deadline kill applies.
                budget = (
                    None
                    if job.timeout_s is None or self.cache_dir is None
                    else float(job.timeout_s)
                )
                try:
                    handle.conn.send(("run", job.id, job.spec, budget))
                except (OSError, ValueError):
                    # The worker became unusable under us: put the job back
                    # (not the job's fault — no attempts charge) and respawn.
                    self._shards[self._shard_of(job.digest)].appendleft(job)
                    self._respawn(handle, crashed=True)
                    break
                handle.job = job
                if job.timeout_s is None:
                    handle.deadline = None
                else:
                    grace = 0.0 if budget is None else self.preempt_grace_s
                    handle.deadline = (
                        time.monotonic() + float(job.timeout_s) + grace
                    )
                try:
                    self._on_running(job, handle.index)
                except Exception:  # pragma: no cover - defensive
                    pass
                break
