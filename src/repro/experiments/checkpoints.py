"""Persistent simulation checkpoints: warm-started sweeps and preemption.

The executor's :class:`~repro.experiments.executor.ResultCache` memoizes
*finished* runs.  This module memoizes *partial* ones: a
:class:`CheckpointStore` keeps frozen :class:`~repro.system.world.SimWorld`
blobs (see :class:`~repro.system.world.SimCheckpoint`) in the same
content-addressed cache directory, keyed by

* the spec's :meth:`~repro.experiments.executor.JobSpec.prefix_digest` —
  everything that shapes the simulated world *except* ``num_requests`` —
* the per-core request count the producing run was targeting, and
* the number of kernel events executed when the snapshot was taken.

Two consumers share the store:

* **Warm-started sweeps** — request-count sweeps of one configuration share
  a trace prefix, so a safe-prefix checkpoint saved by the ``n=1000`` job
  lets the ``n=4000`` job skip the first chunk of its simulation entirely:
  thaw, retarget onto the longer traces, run only the remainder.
  :func:`execute_with_checkpoints` packages that fork-or-cold decision, and
  :class:`~repro.experiments.executor.ParallelRunner` applies it to every
  sweep job when given a store.
* **Preemptible serving** — the worker pool checkpoints a long job when its
  deadline slice expires and requeues it; the next slice resumes from the
  stored blob instead of starting over (see :mod:`repro.serve.pool`).

Durability properties are inherited from
:class:`~repro.experiments.executor.JsonFileCache`: atomic write-then-rename,
damage degrading to a miss, and one shared LRU byte budget with the result
and trace entries — checkpoints are by far the largest entries, so a
byte-bounded directory naturally sheds the *oldest* checkpoints first and a
long-running service stays bounded-memory.  On top of that, :meth:`put`
prunes each (prefix, length) family to its deepest few snapshots so a long
job's periodic saves do not accumulate.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CheckpointError
from repro.experiments.executor import CACHE_SCHEMA_VERSION, JobSpec, JsonFileCache
from repro.system.simulator import RunResult
from repro.system.world import SimCheckpoint, SimWorld

#: Default kernel-event slice between periodic checkpoint saves.  A default
#: executor job (4000 requests) executes on the order of 1e5 events, so this
#: yields a handful of save points per job — enough to fork from, cheap
#: enough to never dominate the run.
DEFAULT_CHECKPOINT_INTERVAL_EVENTS = 50_000

#: How many snapshots :meth:`CheckpointStore.put` keeps per (prefix, length)
#: family — the deepest ones win, older save points are pruned.
KEEP_PER_FAMILY = 3

#: Entry file names carry the selection metadata — family prefix, target
#: request count, kernel-event depth — so the store can rank and prune
#: entries without opening a single payload.
_ENTRY_NAME = re.compile(r"^ckpt-[0-9a-f]{32}-(\d{9})-(\d{12})\.json$")


@dataclass(frozen=True)
class StoredCheckpoint:
    """One store entry: the frozen world plus its selection metadata."""

    checkpoint: SimCheckpoint
    #: Per-core request count of the run that saved this snapshot.
    num_requests: int
    path: Path


@dataclass(frozen=True)
class CheckpointedRun:
    """What :func:`execute_with_checkpoints` did for one spec."""

    result: RunResult
    #: Kernel events the resumed world had already executed at thaw time
    #: (0 for a cold start).
    forked_from_events: int
    #: Periodic snapshots persisted during this run.
    checkpoints_saved: int
    #: Kernel events this run actually executed (total minus forked).
    events_executed: int


class CheckpointStore(JsonFileCache):
    """Content-addressed persistent store of partial-simulation snapshots.

    Entries live beside result/trace entries (``ckpt-*.json``) and share
    their directory's LRU byte budget.  Reads verify the schema version and
    the *full* prefix digest (file names carry a truncation), and the
    checkpoint payload itself is SHA-256-verified on thaw — damage at any
    layer degrades to a cache miss.
    """

    def path_for(self, spec: JobSpec, events: int, num_requests: int) -> Path:
        """Entry path for one (spec family, target length, progress) point."""
        return self.directory / (
            f"ckpt-{spec.prefix_digest()[:32]}-"
            f"{int(num_requests):09d}-{int(events):012d}.json"
        )

    def put(self, spec: JobSpec, checkpoint: SimCheckpoint) -> Path | None:
        """Persist one snapshot taken while executing ``spec``.

        Finished worlds are refused (the result cache owns completed runs).
        After the write, the (prefix, length) family is pruned to its
        :data:`KEEP_PER_FAMILY` deepest snapshots.
        """
        if checkpoint.finished:
            raise CheckpointError("refusing to store a finished world")
        path = self.path_for(spec, checkpoint.events_executed, spec.num_requests)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "prefix_digest": spec.prefix_digest(),
            "num_requests": spec.num_requests,
            "checkpoint": checkpoint.to_jsonable(),
        }
        self.write_json(path, payload)
        self._prune_family(spec)
        return path

    def _family_index(self, spec: JobSpec) -> list[tuple[int, int, Path]]:
        """``(events, num_requests, path)`` per family entry, deepest first.

        Parsed from file names alone — no payload is opened.  The full
        prefix digest is still verified by :meth:`_load` before an entry
        is ever used, so a truncated-name collision costs one wasted read,
        never a wrong fork.
        """
        prefix32 = spec.prefix_digest()[:32]
        index = []
        for path in self.directory.glob(f"ckpt-{prefix32}-*.json"):
            match = _ENTRY_NAME.match(path.name)
            if match is None:
                continue
            index.append((int(match.group(2)), int(match.group(1)), path))
        index.sort(reverse=True)
        return index

    def _load(self, path: Path, prefix: str) -> StoredCheckpoint | None:
        """Decode one entry; None when damaged, stale or a digest collision."""
        payload = self.read_json(path)
        if payload is None or payload.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        if payload.get("prefix_digest") != prefix:
            return None  # truncated-name collision: a different family
        try:
            return StoredCheckpoint(
                checkpoint=SimCheckpoint.from_jsonable(payload["checkpoint"]),
                num_requests=int(payload["num_requests"]),
                path=path,
            )
        except (CheckpointError, KeyError, TypeError, ValueError):
            return None

    def candidates(self, spec: JobSpec) -> list[StoredCheckpoint]:
        """Every readable entry of ``spec``'s family, deepest first."""
        prefix = spec.prefix_digest()
        found = [
            entry
            for _events, _num_requests, path in self._family_index(spec)
            if (entry := self._load(path, prefix)) is not None
        ]
        found.sort(key=lambda entry: entry.checkpoint.events_executed, reverse=True)
        return found

    def deepest(self, spec: JobSpec) -> StoredCheckpoint | None:
        """The furthest-along snapshot that can seed ``spec``, if any.

        A snapshot is usable when it was saved targeting the *same* request
        count, or targeting a shorter one while still a safe prefix (every
        core mid-trace), in which case the thawed world is retargeted onto
        ``spec``'s longer traces.  The family *index* (file names) is
        scanned deepest-first and only plausible entries are decoded —
        typically exactly one payload read, however many snapshots the
        directory holds.
        """
        prefix = spec.prefix_digest()
        for events, num_requests, path in self._family_index(spec):
            if events <= 0 or num_requests > spec.num_requests:
                continue
            entry = self._load(path, prefix)
            if entry is None:
                continue
            if entry.num_requests == spec.num_requests:
                return entry
            if entry.checkpoint.safe_prefix:
                return entry
        return None

    def _prune_family(self, spec: JobSpec) -> None:
        """Keep only the deepest few snapshots of ``spec``'s family.

        Works off the file-name index alone, so a periodic save costs one
        write plus a directory listing — and unreadable (damaged) siblings
        are pruned right along with shallow ones instead of lingering.
        """
        matching = [
            (events, path)
            for events, num_requests, path in self._family_index(spec)
            if num_requests == spec.num_requests
        ]
        for _events, path in matching[KEEP_PER_FAMILY:]:
            path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Execution helpers


def build_world(spec: JobSpec) -> SimWorld:
    """A cold :class:`SimWorld` for one spec (traces via the trace cache)."""
    from repro.cpu.spec_profiles import SPEC_PROFILES
    from repro.experiments.trace_cache import traces_for_benchmark

    profile = SPEC_PROFILES[spec.benchmark]
    traces = traces_for_benchmark(
        spec.benchmark, spec.num_requests, spec.seed, cores=spec.cores
    )
    return SimWorld(
        traces, spec.level, machine=spec.machine, window=profile.window, seed=spec.seed
    )


def world_for_spec(
    spec: JobSpec, store: CheckpointStore | None
) -> tuple[SimWorld, int]:
    """A world positioned as far along ``spec`` as the store allows.

    Returns ``(world, forked_from_events)`` — 0 events when no usable
    snapshot existed and the world is cold.  Any failure to thaw or
    retarget a stored snapshot (damage, version skew, non-extending
    traces) deletes the offending entry and falls back to a cold start:
    checkpoints accelerate, they can never be required for correctness.
    """
    if store is None:
        return build_world(spec), 0
    entry = store.deepest(spec)
    if entry is None:
        return build_world(spec), 0
    try:
        world = entry.checkpoint.thaw()
        if entry.num_requests != spec.num_requests:
            from repro.experiments.trace_cache import traces_for_benchmark

            world.retarget(
                traces_for_benchmark(
                    spec.benchmark, spec.num_requests, spec.seed, cores=spec.cores
                )
            )
        return world, entry.checkpoint.events_executed
    except CheckpointError:
        entry.path.unlink(missing_ok=True)
        return build_world(spec), 0


def execute_with_checkpoints(
    spec: JobSpec,
    store: CheckpointStore | None,
    interval_events: int = DEFAULT_CHECKPOINT_INTERVAL_EVENTS,
    save_milestones: tuple[float, ...] | None = None,
) -> CheckpointedRun:
    """Run one spec warm-from-checkpoint, saving new snapshots on the way.

    The simulation executes in ``interval_events`` slices.  With the
    default ``save_milestones=None``, a snapshot is persisted at *every*
    slice boundary that is still a safe prefix (the original periodic
    policy; fine for long jobs where the interval yields a handful of
    saves).  A snapshot save costs a full world pickle — milliseconds —
    while pausing the engine costs nothing, so schedulers that slice
    finely pass ``save_milestones``: a sorted tuple of trace-progress
    fractions, and a snapshot is saved only at the first boundary past
    each milestone (``()`` forks from the store but never saves — right
    for the deepest member of a sweep family, whose snapshots nobody
    would ever fork from).  The result is bit-identical to
    :meth:`JobSpec.execute` — the golden-determinism suite holds this
    over the whole scheme grid.
    """
    world, forked_from = world_for_spec(spec, store)
    interval = max(1, int(interval_events))
    saved = 0
    if store is None:
        world.run()
    elif save_milestones is None:
        while not world.run(stop_after_events=interval):
            if world.safe_prefix:
                store.put(spec, world.snapshot())
                saved += 1
    else:
        # Adaptive probing: estimate the event cost of reaching the next
        # milestone from the rate observed so far (events executed over
        # trace progress), undershoot it slightly, and re-probe.  A run
        # reaches each milestone in a handful of slices whatever the
        # scheme's events-per-request rate — fixed-interval slicing would
        # need hundreds of pauses on heavy schemes to catch a late
        # milestone on light ones.
        pending = sorted(save_milestones)
        finished = False
        while pending and not finished:
            progress = world.trace_progress
            if progress >= pending[0]:
                if world.safe_prefix:
                    store.put(spec, world.snapshot())
                    saved += 1
                pending = [m for m in pending if progress < m]
                continue
            if progress > 0 and world.events_executed > 0:
                estimate = world.events_executed / progress
                step = max(
                    interval, int((pending[0] - progress) * estimate * 0.9)
                )
            else:
                step = interval
            finished = world.run(stop_after_events=step)
        if not finished:
            world.run()
    return CheckpointedRun(
        result=world.result(),
        forked_from_events=forked_from,
        checkpoints_saved=saved,
        events_executed=world.events_executed - forked_from,
    )


def _checkpointed_job(item: tuple) -> "ExecutionOutcome":
    """Worker entry point used by :class:`ParallelRunner` (fork-pool safe).

    Returns an :class:`~repro.experiments.executor.ExecutionOutcome` whose
    provenance fields record whether (and how deep) the job forked from a
    stored snapshot, so the run manifest can audit warm starts.
    """
    from repro.experiments.executor import ExecutionOutcome

    spec, directory, max_bytes, interval, milestones = item
    store = CheckpointStore(directory, max_bytes=max_bytes)
    started = time.perf_counter()
    run = execute_with_checkpoints(
        spec, store, interval_events=interval, save_milestones=milestones
    )
    return ExecutionOutcome(
        result=run.result,
        wall_ms=(time.perf_counter() - started) * 1000.0,
        checkpoint_hits=1 if run.forked_from_events > 0 else 0,
        resumed_from_events=run.forked_from_events,
    )


def checkpointed_jobs(
    store: CheckpointStore,
    interval_events: int,
    specs: list[JobSpec],
    save_milestones: tuple[float, ...] | None = None,
) -> tuple:
    """(callable, payloads) pair for the runner's execution fan-out."""
    items = [
        (spec, str(store.directory), store.max_bytes, interval_events, save_milestones)
        for spec in specs
    ]
    return _checkpointed_job, items
