"""Checkpointable simulation worlds.

A :class:`SimWorld` is the state of one (traces, scheme, machine) simulation
— engine, statistics, and the full component stack — packaged so the run
can *pause between events* and continue later, possibly in a different
process.  :func:`repro.system.simulator.run_traces` is a thin wrapper that
builds a world and runs it to completion; everything checkpoint-aware (the
warm-start sweep executor, the preemptible serving pool) drives a world
directly:

* :meth:`SimWorld.run` accepts ``stop_after_events`` and returns whether the
  simulation finished, so callers can execute in bounded slices;
* :meth:`SimWorld.snapshot` freezes the paused world into a
  :class:`SimCheckpoint` — one versioned, content-addressed blob;
* :meth:`SimCheckpoint.thaw` reinstates the world bit-identically: resuming
  a thawed world produces exactly the statistics an uninterrupted run
  produces (the golden-determinism grid enforces this for every scheme).

The blob is a :mod:`pickle` of the whole object graph.  That works because
the simulation layer is written to be picklable end to end: every pending
event callback is a ``functools.partial`` over bound methods (never a
closure), the engine's fired-sentinel is a pickle-stable singleton, and
profiler hooks are dropped on capture and reattached from the class default
on thaw.  Sharing matters as much as content: heap entries referenced by
both the event queue and a component (cancellable wakeups), and counter
dicts bound by hot paths, are shared *references* — pickling the graph in
one pass preserves that aliasing where per-component serialization could
not.

Fork-from-snapshot
------------------

Sweeps that vary only ``num_requests`` share a trace prefix (the generator
streams one rng, so a shorter trace is a bit-identical prefix of a longer
one).  A checkpoint taken while every core still has trace left to issue
(:attr:`SimCheckpoint.safe_prefix`) is therefore a valid *starting point*
for any longer run of the same spec: thaw it, :meth:`SimWorld.retarget`
the cores onto the longer traces (verified record-by-record to really be
an extension), and run on.  The executor's warm-start sweep is built on
exactly this.
"""

from __future__ import annotations

import hashlib
import pickle
from base64 import b64decode, b64encode
from dataclasses import dataclass

from repro.cpu.core import TraceDrivenCore
from repro.cpu.trace import Trace
from repro.crypto.rng import DeterministicRng
from repro.errors import CheckpointError, SimulationError
from repro.mem.bus import MemoryBus
from repro.mem.request import ensure_request_ids_above, request_id_watermark
from repro.schemes import level_for, resolve_scheme
from repro.sim import profiling
from repro.sim.engine import Engine, ns_to_ps
from repro.sim.statistics import StatRegistry
from repro.system.builder import build_system
from repro.system.config import MachineConfig

#: Bump when the pickled world layout changes incompatibly; thaw refuses
#: blobs from another version rather than resuming garbage.
CHECKPOINT_VERSION = 2

_MAX_EVENTS_PER_REQUEST = 2000  # generous livelock guard (per drain phase)


class SimWorld:
    """One simulation's full state, runnable in bounded event slices."""

    def __init__(
        self,
        traces: list[Trace],
        level,
        machine: MachineConfig | None = None,
        window: int | list[int] = 4,
        seed: int = 2017,
        bus: MemoryBus | None = None,
    ):
        if not traces:
            raise SimulationError("need at least one trace")
        windows = window if isinstance(window, list) else [window] * len(traces)
        if len(windows) != len(traces):
            raise SimulationError(f"{len(windows)} windows for {len(traces)} traces")
        self.machine = machine or MachineConfig()
        self.scheme = resolve_scheme(level)
        #: The caller's original designator, echoed into the result so a
        #: registry name round-trips as the caller spelled it.
        self.level = level
        self.seed = seed
        self.engine = Engine()
        self.stats = StatRegistry()
        rng = DeterministicRng(seed).fork(f"run-{traces[0].name}-{self.scheme.name}")
        self.system = build_system(
            self.scheme, self.machine, self.engine, self.stats, rng, bus=bus
        )
        self.cores = [
            TraceDrivenCore(
                self.engine,
                trace,
                self.system.port,
                window=core_window,
                stats=self.stats,
                core_id=i,
            )
            for i, (trace, core_window) in enumerate(zip(traces, windows))
        ]
        self.traces = traces
        self._started = False
        self._flushed = False
        self._finished = False
        #: Events executed in the current drain phase, counted *across*
        #: slices so the livelock guard keeps its uninterrupted meaning.
        self._phase_events = 0

    # -- bookkeeping --------------------------------------------------------

    @property
    def total_requests(self) -> int:
        return sum(len(trace) for trace in self.traces)

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def events_executed(self) -> int:
        """Cumulative events executed — the checkpoint progress key."""
        return self.engine.events_executed

    @property
    def _event_guard(self) -> int:
        return _MAX_EVENTS_PER_REQUEST * self.total_requests

    # -- execution ----------------------------------------------------------

    def run(self, stop_after_events: int | None = None) -> bool:
        """Advance the simulation; returns True when it has finished.

        Without a budget this runs to completion exactly as the original
        single-shot runner did.  With ``stop_after_events`` the engine stops
        cleanly (between events) once that many fire in this call, leaving
        the world in a snapshottable pause; call :meth:`run` again to
        continue.  Slicing never changes event order, so results are
        bit-identical to an uninterrupted run.
        """
        if self._finished:
            return True
        remaining = stop_after_events
        if remaining is not None and remaining <= 0:
            return False
        with profiling.phase("engine"):
            if not self._started:
                self._started = True
                for core in self.cores:
                    core.start()
            while True:
                before = self.engine.events_executed
                self.engine.run(
                    max_events=self._event_guard - self._phase_events,
                    stop_after_events=remaining,
                )
                executed = self.engine.events_executed - before
                self._phase_events += executed
                if remaining is not None:
                    remaining -= executed
                if self.engine.pending_events():
                    # Clean stop on the slice budget; events remain.
                    return False
                if self._flushed:
                    break  # drained after the flush: done
                self._require_cores_done()
                self._flushed = True
                self.system.flush()
                self._phase_events = 0
                if remaining is not None and remaining <= 0:
                    if self.engine.pending_events():
                        return False
                    break
        self._finished = True
        return True

    def _require_cores_done(self) -> None:
        for core in self.cores:
            if not core.done:
                raise SimulationError(
                    f"{core.trace.name}/{self.scheme.name}: core {core.core_id} "
                    f"did not finish ({core._index}/{len(core.trace)} issued)"
                )

    def result(self):
        """The run's measurements; only meaningful once finished."""
        from repro.system.simulator import RunResult

        if not self._finished:
            raise SimulationError("simulation has not finished")
        return RunResult(
            benchmark=self.traces[0].name,
            level=level_for(self.scheme.name) or self.scheme.name,
            channels=self.machine.channels,
            execution_time_ns=max(core.execution_time_ns for core in self.cores),
            num_requests=self.total_requests,
            instructions=sum(trace.total_instructions for trace in self.traces),
            stats=self.stats.as_dict(),
        )

    # -- checkpointing ------------------------------------------------------

    @property
    def safe_prefix(self) -> bool:
        """True while this state is a valid prefix of any *longer* run.

        Holds while no core has observed its end-of-trace (each still has
        records left to issue) and the flush has not begun: up to here the
        world's evolution is identical under any trace extension, so a
        snapshot may seed runs with larger ``num_requests``.
        """
        return not self._flushed and all(
            core._index < len(core._records) for core in self.cores
        )

    @property
    def trace_progress(self) -> float:
        """Fraction of the slowest core's trace already issued, in [0, 1].

        The scheduler's save-policy signal: kernel-event counts vary by an
        order of magnitude across schemes for the same request count, but
        trace position is scheme-independent, so "snapshot near the end of
        the shared prefix" can be expressed as a progress fraction.
        """
        if not self.cores:
            return 1.0
        return min(
            core._index / len(core._records) if core._records else 1.0
            for core in self.cores
        )

    def snapshot(self) -> "SimCheckpoint":
        """Freeze the paused world into a content-addressed checkpoint."""
        with profiling.phase("checkpoint_save"):
            try:
                payload = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                raise CheckpointError(f"world is not picklable: {exc}") from exc
            return SimCheckpoint(
                version=CHECKPOINT_VERSION,
                payload=payload,
                digest=hashlib.sha256(payload).hexdigest(),
                events_executed=self.engine.events_executed,
                now_ps=self.engine.now_ps,
                issued_indices=tuple(core._index for core in self.cores),
                num_requests=self.total_requests,
                safe_prefix=self.safe_prefix,
                finished=self._finished,
                request_id_watermark=request_id_watermark(),
                benchmark=self.traces[0].name,
                scheme=self.scheme.name,
            )

    def retarget(self, traces: list[Trace]) -> None:
        """Swap in longer traces after a safe-prefix thaw.

        Each new trace must literally extend the corresponding current one
        (record-by-record equality over the current length) — anything else
        means the checkpoint belongs to a different workload and resuming
        would silently compute nonsense, so this verifies rather than
        trusts.
        """
        if len(traces) != len(self.cores):
            raise CheckpointError(
                f"{len(traces)} traces for {len(self.cores)} cores"
            )
        if not self.safe_prefix:
            raise CheckpointError(
                "checkpoint is not a safe prefix: a core already saw its "
                "end of trace, so it cannot be extended"
            )
        for core, trace in zip(self.cores, traces):
            old = core.trace.records
            if len(trace.records) < len(old) or trace.records[: len(old)] != old:
                raise CheckpointError(
                    f"trace {trace.name!r} does not extend {core.trace.name!r}"
                )
            core.trace = trace
            core._records = trace.records
            core._gaps_ps = [ns_to_ps(record.gap_ns) for record in trace.records]
        self.traces = traces


@dataclass(frozen=True)
class SimCheckpoint:
    """A versioned, content-addressed frozen :class:`SimWorld`.

    ``payload`` is the pickled world; ``digest`` is its SHA-256, verified on
    thaw so storage damage surfaces as :class:`CheckpointError` rather than
    a corrupt resume.  The metadata fields exist so stores and schedulers
    can index and select checkpoints *without* unpickling anything.
    """

    version: int
    payload: bytes
    digest: str
    events_executed: int
    now_ps: int
    issued_indices: tuple[int, ...]
    num_requests: int
    safe_prefix: bool
    finished: bool
    request_id_watermark: int
    benchmark: str
    scheme: str

    def thaw(self) -> SimWorld:
        """Reinstate the frozen world (verifying version and content)."""
        with profiling.phase("checkpoint_restore"):
            if self.version != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"checkpoint version {self.version} != {CHECKPOINT_VERSION}"
                )
            if hashlib.sha256(self.payload).hexdigest() != self.digest:
                raise CheckpointError("checkpoint payload digest mismatch")
            try:
                world = pickle.loads(self.payload)
            except Exception as exc:
                raise CheckpointError(f"checkpoint did not unpickle: {exc}") from exc
            if not isinstance(world, SimWorld):
                raise CheckpointError(
                    f"checkpoint holds {type(world).__name__}, not SimWorld"
                )
            # Ids minted after the resume must clear every id frozen inside
            # the payload, even in a process whose counter is far behind.
            ensure_request_ids_above(self.request_id_watermark)
            return world

    # -- wire form ----------------------------------------------------------

    def to_jsonable(self) -> dict:
        """JSON-safe form (payload base64) for the persistent store."""
        return {
            "version": self.version,
            "payload_b64": b64encode(self.payload).decode("ascii"),
            "digest": self.digest,
            "events_executed": self.events_executed,
            "now_ps": self.now_ps,
            "issued_indices": list(self.issued_indices),
            "num_requests": self.num_requests,
            "safe_prefix": self.safe_prefix,
            "finished": self.finished,
            "request_id_watermark": self.request_id_watermark,
            "benchmark": self.benchmark,
            "scheme": self.scheme,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "SimCheckpoint":
        """Inverse of :meth:`to_jsonable`; raises on malformed input."""
        try:
            return cls(
                version=int(data["version"]),
                payload=b64decode(data["payload_b64"]),
                digest=str(data["digest"]),
                events_executed=int(data["events_executed"]),
                now_ps=int(data["now_ps"]),
                issued_indices=tuple(int(i) for i in data["issued_indices"]),
                num_requests=int(data["num_requests"]),
                safe_prefix=bool(data["safe_prefix"]),
                finished=bool(data["finished"]),
                request_id_watermark=int(data["request_id_watermark"]),
                benchmark=str(data["benchmark"]),
                scheme=str(data["scheme"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint record: {exc}") from exc
