"""Job lifecycle: states, the job record, and the async job board.

A submitted simulation becomes a :class:`Job` — a job id, the decoded
:class:`~repro.experiments.executor.JobSpec`, a timeout, and a lifecycle
that only ever moves forward::

    QUEUED ──► RUNNING ──► DONE
       │          ├──────► FAILED
       │          ├──────► TIMEOUT
       │          ├──────► PREEMPTED ──► RUNNING … (resumed from checkpoint)
       └──────────┴──────► CANCELLED

A job that loses its worker mid-run (the process crashed) may be requeued:
the lifecycle then records RUNNING ──► QUEUED ──► RUNNING … with the
``attempts`` counter ticking once per requeue, until the job lands in a
terminal state or the supervisor gives up and FAILs it.

PREEMPTED is *not* terminal: when the pool runs with a persistent cache,
a job that reaches its per-slice deadline is checkpointed by its worker
and requeued rather than killed — the ``preemptions`` counter ticks, the
job goes back in queue, and the next slice resumes the simulation from
the stored checkpoint.  Long traces therefore complete across slices; a
job that exceeds ``max_preemptions`` slices lands in TIMEOUT.

The :class:`JobBoard` owns every job the service has accepted, allocates
ids, records state transitions (with timestamps, for the progress stream)
and wakes long-poll waiters through one :class:`asyncio.Condition`.  All
board mutation happens on the service's event loop; the only cross-thread
signal is each job's ``cancel`` event, which the pool supervisor checks
when deciding whether to dispatch or kill the job's worker process.
"""

from __future__ import annotations

import asyncio
import enum
import itertools
import threading
import time
from dataclasses import dataclass, field

from repro.experiments.executor import JobSpec, result_to_jsonable
from repro.schemes import scheme_name_of
from repro.system.simulator import RunResult


class JobState(enum.Enum):
    """Where a job is in its lifecycle."""

    QUEUED = "queued"
    RUNNING = "running"
    #: Non-terminal: the worker checkpointed the job at its slice deadline
    #: and requeued it; the next RUNNING slice resumes from the snapshot.
    PREEMPTED = "preempted"
    DONE = "done"
    FAILED = "failed"
    TIMEOUT = "timeout"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """Whether the job has finished (successfully or not)."""
        return self in _TERMINAL_STATES


_TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.TIMEOUT, JobState.CANCELLED}
)


@dataclass
class Job:
    """One accepted simulation job and everything that happened to it."""

    id: str
    spec: JobSpec
    digest: str
    timeout_s: float | None = None
    state: JobState = JobState.QUEUED
    #: Which layer produced the result: "memory" | "disk" | "coalesced" |
    #: "simulated" (None until the job resolves).
    source: str | None = None
    result: RunResult | None = None
    error: str | None = None
    wall_ms: float = 0.0
    #: Simulation-kernel events executed (cold jobs only; the PR-3
    #: profiling hook surfaced per job).
    sim_events: int = 0
    #: How many times the job was requeued after its worker process died
    #: mid-run (0 for the overwhelming majority of jobs).
    attempts: int = 0
    #: How many deadline slices ended with a checkpoint-and-requeue instead
    #: of a kill (0 unless the pool runs with a persistent cache).
    preemptions: int = 0
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    #: ``(wall-clock time, state value)`` per transition — the progress feed.
    transitions: list[tuple[float, str]] = field(default_factory=list)
    #: Set to interrupt a queued or running job; the pool supervisor
    #: observes it and terminates the worker process running the job.
    cancel: threading.Event = field(default_factory=threading.Event)

    def __post_init__(self) -> None:
        if not self.transitions:
            self.transitions.append((self.submitted_at, self.state.value))

    def to_jsonable(self, include_result: bool = True) -> dict:
        """The job as the JSON object ``GET /jobs/<id>`` serves."""
        payload = {
            "id": self.id,
            "state": self.state.value,
            "benchmark": self.spec.benchmark,
            "level": scheme_name_of(self.spec.level),
            "digest": self.digest,
            "spec": self.spec.to_jsonable(),
            "timeout_s": self.timeout_s,
            "source": self.source,
            "error": self.error,
            "wall_ms": round(self.wall_ms, 3),
            "sim_events": self.sim_events,
            "attempts": self.attempts,
            "preemptions": self.preemptions,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "transitions": [list(item) for item in self.transitions],
        }
        if include_result and self.result is not None:
            payload["result"] = result_to_jsonable(self.result)
        return payload


class JobBoard:
    """Every job the service has accepted, with async completion signalling."""

    def __init__(self):
        self._jobs: dict[str, Job] = {}
        self._sequence = itertools.count(1)
        self._condition = asyncio.Condition()
        self._active = 0

    def __len__(self) -> int:
        return len(self._jobs)

    @property
    def active(self) -> int:
        """How many accepted jobs have not yet reached a terminal state.

        This is the admission-control gauge: it counts queued *and*
        running jobs (including coalescing followers), so backpressure
        reflects total outstanding work, not just one queue's length.
        """
        return self._active

    def create(self, spec: JobSpec, timeout_s: float | None = None) -> Job:
        """Mint a new QUEUED job for ``spec`` and register it."""
        digest = spec.digest()
        job = Job(
            id=f"j{next(self._sequence):06d}-{digest[:8]}",
            spec=spec,
            digest=digest,
            timeout_s=timeout_s,
        )
        self._jobs[job.id] = job
        self._active += 1
        return job

    def get(self, job_id: str) -> Job | None:
        """The job with this id, or None."""
        return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every known job, oldest first."""
        return list(self._jobs.values())

    async def advance(
        self,
        job: Job,
        state: JobState,
        *,
        source: str | None = None,
        result: RunResult | None = None,
        error: str | None = None,
    ) -> None:
        """Move a job forward and wake every waiter.

        Terminal states are sticky: advancing an already-terminal job is a
        no-op, so a cancellation that races job completion cannot overwrite
        the recorded outcome.
        """
        if job.state.terminal:
            return
        now = time.time()
        job.state = state
        job.transitions.append((now, state.value))
        if state is JobState.RUNNING:
            job.started_at = now
        if source is not None:
            job.source = source
        if result is not None:
            job.result = result
        if error is not None:
            job.error = error
        if state.terminal:
            job.finished_at = now
            self._active -= 1
        async with self._condition:
            self._condition.notify_all()

    async def wait(
        self,
        job: Job,
        timeout_s: float | None = None,
        seen_transitions: int | None = None,
    ) -> bool:
        """Block until the job finishes; False only on timeout.

        With ``seen_transitions`` set, also return as soon as the job
        records a transition past that count — the progress stream passes
        the number it has already emitted to wake on every intermediate
        state change, not just the terminal one.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s

        def ready() -> bool:
            if job.state.terminal:
                return True
            if seen_transitions is None:
                return False
            return len(job.transitions) > seen_transitions

        async with self._condition:
            while not ready():
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                try:
                    await asyncio.wait_for(self._condition.wait(), remaining)
                except asyncio.TimeoutError:
                    return False
        return True
