"""Parallel experiment execution with a persistent on-disk result cache.

The paper's evaluation is a grid of independent (benchmark x protection
level x machine config x seed) simulations.  This module is the execution
layer that grid rides on:

* :class:`JobSpec` — a content-hashable description of one simulation
  (benchmark, protection level, machine config, request count, seed,
  cores).  Two specs that are equal by value share one cache identity,
  no matter which process built them.
* :class:`ResultCache` — a content-addressed store of job results as
  JSON files under a directory (``.repro-cache/`` by convention), so
  regenerating any table or figure is a cache hit *across processes*, not
  just within one.  Its docstring defines the job protocol that
  :class:`JobSpec` and the attack matrix's cell specs follow.
* :class:`ParallelRunner` — fans a list of jobs out over
  ``multiprocessing`` workers (``fork`` start method), collects results in
  job order, and records a :class:`RunManifest` of what ran, which cache
  layer served each job, and how long every job took.

Usage::

    from repro.experiments.executor import JobSpec, ParallelRunner, ResultCache
    from repro.system.config import ProtectionLevel

    specs = [JobSpec("mcf", level, num_requests=1000) for level in ProtectionLevel]
    runner = ParallelRunner(workers=4, cache=ResultCache(".repro-cache"))
    results = runner.run(specs, label="mcf-levels")  # ordered like specs
    print(f"{runner.manifest.cache_misses} simulated, "
          f"{runner.manifest.cache_hits} served from cache")

Determinism: every job is fully described by its spec and runs on its own
deterministically seeded system, so serial execution (``workers=1``, or a
platform without ``fork``) produces results bit-identical to parallel
execution, and a cached result is bit-identical to a fresh simulation up
to JSON float round-tripping (which Python performs exactly).
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import json
import multiprocessing
import os
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path

try:  # POSIX file locking for the single-evictor lease (absent on win32).
    import fcntl
except ImportError:  # pragma: no cover - platform-dependent
    fcntl = None

from repro.cpu.spec_profiles import BENCHMARK_NAMES, SPEC_PROFILES
from repro.errors import ConfigurationError
from repro.schemes import level_for, resolve_scheme, scheme_name_of
from repro.sim.statistics import StatRegistry
from repro.system.config import MachineConfig, ProtectionLevel
from repro.system.simulator import RunResult
from repro.system.world import SimWorld

#: Bumped whenever the simulation physics or the result format changes in a
#: way that invalidates previously cached results.  The version participates
#: in every job digest, so a bump orphans (rather than corrupts) old entries.
CACHE_SCHEMA_VERSION = 1

#: Version of the run-manifest JSON layout.  :meth:`RunManifest.load` rejects
#: files written under a different version (or damaged files) by returning
#: ``None`` — version skew degrades to "no manifest", never to a crash.
#: v2 added checkpoint warm-start provenance per record and sweep warnings.
MANIFEST_SCHEMA_VERSION = 2

#: Default location of the persistent result cache, relative to the working
#: directory.  Override with ``--cache-dir`` or ``REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = Path(".repro-cache")

#: Environment variables controlling the persistent cache, read once by
#: :mod:`repro.experiments.runner` (which re-exports the names).
NO_CACHE_ENV = "REPRO_NO_CACHE"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_BYTES_ENV = "REPRO_CACHE_BYTES"

DEFAULT_REQUESTS = 4000
DEFAULT_SEED = 2017

#: Trace-progress fractions at which a checkpointed run saves a snapshot
#: (see :func:`repro.experiments.checkpoints.execute_with_checkpoints`).
#: A save costs a full world pickle (milliseconds — comparable to
#: simulating thousands of events), so a run saves once, as late as the
#: probe slices can catch: the deeper the snapshot, the less of its prefix
#: a longer run of the family replays.
SAVE_MILESTONES = (0.9,)


def _jsonable(value):
    """Canonical JSON-ready form of configs: dataclasses, enums, scalars."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ConfigurationError(f"cannot serialize {type(value).__name__} in a job spec")


def content_digest(payload: dict) -> str:
    """sha256 of ``payload``'s canonical JSON: a job's content address."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def result_to_jsonable(result: RunResult) -> dict:
    """A ``RunResult`` as a JSON-ready dict (enums become their values)."""
    return {
        "benchmark": result.benchmark,
        "level": scheme_name_of(result.level),
        "channels": result.channels,
        "execution_time_ns": result.execution_time_ns,
        "num_requests": result.num_requests,
        "instructions": result.instructions,
        "stats": dict(result.stats),
    }


def result_from_jsonable(payload: dict) -> RunResult:
    """Rebuild a ``RunResult`` from :func:`result_to_jsonable` output."""
    return RunResult(
        benchmark=payload["benchmark"],
        level=level_for(payload["level"]) or str(payload["level"]),
        channels=int(payload["channels"]),
        execution_time_ns=float(payload["execution_time_ns"]),
        num_requests=int(payload["num_requests"]),
        instructions=float(payload["instructions"]),
        stats={str(k): float(v) for k, v in payload["stats"].items()},
    )


@dataclass(frozen=True)
class JobSpec:
    """One simulation job: everything :func:`repro.system.run_benchmark` needs.

    The spec is hashable by value (all fields are frozen dataclasses, enums
    or scalars) and content-addressable via :meth:`digest`, which is the
    persistent cache key.
    """

    benchmark: str
    #: A :class:`ProtectionLevel` member or a registry scheme name.  Both
    #: spellings of a built-in scheme share one cache identity (the digest
    #: serializes the scheme name either way).
    level: ProtectionLevel | str
    machine: MachineConfig = field(default_factory=MachineConfig)
    num_requests: int = DEFAULT_REQUESTS
    seed: int = DEFAULT_SEED
    cores: int = 1

    def __post_init__(self) -> None:
        if self.machine is None:
            # Positional callers pass None for "the default machine"; the
            # digest must not tell the two spellings apart.
            object.__setattr__(self, "machine", MachineConfig())
        if self.benchmark not in SPEC_PROFILES:
            raise ConfigurationError(
                f"unknown benchmark {self.benchmark!r}; choose from {BENCHMARK_NAMES}"
            )
        resolve_scheme(self.level)  # unknown schemes fail fast, with a hint
        for name in ("num_requests", "cores"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"JobSpec {name} must be positive")

    #: The :class:`ResultCache` codec for this job's :class:`RunResult`.
    encode_result = staticmethod(result_to_jsonable)
    decode_result = staticmethod(result_from_jsonable)

    @property
    def schema(self) -> int:
        """Cache schema token, read from :data:`CACHE_SCHEMA_VERSION` per call."""
        return CACHE_SCHEMA_VERSION

    def to_jsonable(self) -> dict:
        """The full job spec as a canonical JSON-ready dict."""
        return _jsonable(self)

    def digest(self) -> str:
        """Content hash of the spec plus the cache schema version."""
        return content_digest({"schema": self.schema, "spec": self.to_jsonable()})

    def prefix_digest(self) -> str:
        """Content hash of everything but ``num_requests``.

        Two specs differing only in request count simulate the *same world*
        for their shared trace prefix (the generator streams one rng, so the
        shorter trace is a bit-identical prefix of the longer).  This digest
        is the checkpoint-store key: a safe-prefix checkpoint saved under it
        by a short run can seed any longer run of the family.
        """
        prefix = self.to_jsonable()
        del prefix["num_requests"]
        return content_digest({"schema": self.schema, "prefix": prefix})

    def world(self) -> SimWorld:
        """A cold :class:`~repro.system.world.SimWorld` for this spec.

        The front-end traces come through :mod:`repro.experiments.trace_cache`
        and the runner's result store: warm runs skip trace generation
        entirely, cold runs generate and persist.  Cached traces
        round-trip through JSON exactly, so the world is bit-identical to
        the one :func:`repro.system.run_benchmark` builds either way.
        """
        # Imported lazily: trace_cache builds on this module's store.
        from repro.experiments.trace_cache import traces_for_benchmark

        traces = traces_for_benchmark(
            self.benchmark, self.num_requests, self.seed, cores=self.cores
        )
        return SimWorld(
            traces,
            self.level,
            machine=self.machine,
            window=SPEC_PROFILES[self.benchmark].window,
            seed=self.seed,
        )

    def execute(self) -> RunResult:
        """Run the simulation this spec describes (the result is not cached)."""
        world = self.world()
        world.run()
        return world.result()


def sweep_specs(
    benchmarks: list[str],
    levels: list[ProtectionLevel | str],
    machine: MachineConfig | None = None,
    num_requests: int = DEFAULT_REQUESTS,
    seed: int = DEFAULT_SEED,
    cores: int = 1,
) -> list[JobSpec]:
    """The full (benchmark x level) grid as specs, benchmark-major.

    A value listed twice yields digest-identical specs;
    :meth:`ParallelRunner.run` executes each digest once per call.
    """
    machine = machine or MachineConfig()
    return [
        JobSpec(benchmark, level, machine, num_requests, seed, cores)
        for benchmark in benchmarks
        for level in levels
    ]


def _value_from_hint(hint, value):
    """Rebuild one field value from its JSON form, guided by its type hint."""
    if dataclasses.is_dataclass(hint) and isinstance(hint, type):
        return _dataclass_from_jsonable(hint, value)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        try:
            return hint(value)
        except ValueError:
            choices = [member.value for member in hint]
            raise ConfigurationError(
                f"invalid {hint.__name__} value {value!r}; choose from {choices}"
            ) from None
    return value


def _dataclass_from_jsonable(cls, payload):
    """Rebuild a (possibly nested) config dataclass from :func:`_jsonable` output."""
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"expected an object for {cls.__name__}, got {type(payload).__name__}"
        )
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - names)
    if unknown:
        raise ConfigurationError(f"unknown {cls.__name__} fields: {unknown}")
    hints = typing.get_type_hints(cls)
    kwargs = {
        name: _value_from_hint(hints[name], value) for name, value in payload.items()
    }
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as error:
        # A validator compared a wrongly-typed wire value.
        raise ConfigurationError(f"invalid {cls.__name__}: {error}") from None


def spec_from_jsonable(payload: dict) -> JobSpec:
    """Rebuild a :class:`JobSpec` from its :meth:`JobSpec.to_jsonable` form.

    This is the wire decoder for the serving layer: a client POSTs the
    JSON form of a spec (``level`` as a registry scheme name, the machine
    config as nested objects with enum values as strings) and the rebuilt
    spec is *digest-identical* to the one a local caller would construct,
    so remote submissions share cache entries with local sweeps.  Unknown
    fields, unknown benchmarks/schemes and invalid enum values all raise
    :class:`~repro.errors.ConfigurationError`.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"expected a job-spec object, got {type(payload).__name__}"
        )
    payload = dict(payload)
    if "benchmark" not in payload or "level" not in payload:
        raise ConfigurationError("a job spec needs at least 'benchmark' and 'level'")
    level = payload.pop("level")
    if not isinstance(level, str):
        raise ConfigurationError("'level' must be a scheme name string on the wire")
    machine_payload = payload.pop("machine", None)
    machine = (
        MachineConfig()
        if machine_payload is None
        else _dataclass_from_jsonable(MachineConfig, machine_payload)
    )
    names = {f.name for f in dataclasses.fields(JobSpec)}
    unknown = sorted(set(payload) - names)
    if unknown:
        raise ConfigurationError(f"unknown JobSpec fields: {unknown}")
    scalars = {}
    for name, caster in (
        ("num_requests", int),
        ("seed", int),
        ("cores", int),
        ("benchmark", str),
    ):
        if name in payload:
            try:
                scalars[name] = caster(payload[name])
            except (TypeError, ValueError, OverflowError):
                raise ConfigurationError(
                    f"JobSpec field {name!r} must be {caster.__name__}-like, "
                    f"got {payload[name]!r}"
                ) from None
    # ProtectionLevel members and their registry names share one digest, so
    # decoding to the bare name keeps wire submissions cache-compatible.
    return JobSpec(level=level, machine=machine, **scalars)


class JsonFileCache:
    """Shared machinery for content-addressed JSON stores under one directory.

    Concrete stores — :class:`ResultCache` for job results and front-end
    traces, and :class:`repro.experiments.checkpoints.CheckpointStore` for
    simulation snapshots — provide the entry naming and payload
    validation; this base owns the durable parts: tolerant reads (damage
    degrades to a miss), atomic write-then-rename persistence,
    mtime-as-LRU-clock touching on hits, and byte-budget eviction over
    every ``*.json`` entry in the directory.  Different entry kinds sharing
    one directory therefore also share one LRU byte budget: a burst of
    trace writes can evict cold results and vice versa, keeping the
    *directory* bounded, not each kind separately.

    With ``max_bytes`` set, every write evicts least-recently-used entries
    (by file mtime) until the directory fits the byte budget again.  A
    long-lived service can therefore point at one cache directory forever
    without unbounded growth.  Eviction removes oldest-first, so the entry
    just written is only ever evicted when it alone exceeds the budget.

    Many processes may share one directory (the worker pool does exactly
    that).  Writes are already safe under concurrency — write-then-rename
    means readers only ever see whole entries — and eviction is serialized
    by a *single-evictor lease*: a ``flock``-ed sentinel file in the cache
    directory that at most one process holds at a time.  A process that
    fails to take the lease simply skips eviction; the budget is enforced
    again on the next write by whoever wins the lease then.  Two evictors
    can therefore never race each other into double-unlinking or
    over-evicting a directory that a concurrent writer is refilling.
    """

    #: Sentinel file (not a ``*.json`` entry, so never itself evicted) that
    #: serializes eviction across processes sharing the directory.
    EVICTOR_LEASE_NAME = ".evictor-lease"

    def __init__(
        self,
        directory: str | Path = DEFAULT_CACHE_DIR,
        max_bytes: int | None = None,
    ):
        self.directory = Path(directory)
        # A negative budget means unbounded, as a missing one does.
        unbounded = max_bytes is None or max_bytes < 0
        self.max_bytes = None if unbounded else int(max_bytes)

    def read_json(self, path: Path) -> dict | None:
        """Parse one entry; None on absence, damage or a non-object root."""
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def write_json(self, path: Path, payload: dict) -> Path:
        """Atomically persist one entry, then enforce the byte budget."""
        self.directory.mkdir(parents=True, exist_ok=True)
        # Write-then-rename so concurrent writers (or a crash) can never
        # leave a half-written entry under the final name.
        scratch = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        scratch.write_text(json.dumps(payload, sort_keys=True, indent=1))
        os.replace(scratch, path)
        if self.max_bytes is not None:
            self.evict()
        return path

    def touch(self, path: Path) -> None:
        """Refresh an entry's LRU clock (a cache hit is a "use")."""
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry raced away; still a hit
            pass

    def size_bytes(self) -> int:
        """Total bytes currently held by cache entries."""
        return sum(size for _path, _mtime, size in self._entries())

    @contextlib.contextmanager
    def _evictor_lease(self):
        """Try to become the directory's sole evictor; yields True on success.

        The lease is a ``flock(LOCK_EX | LOCK_NB)`` on a sentinel file in
        the cache directory, released when the context exits.  On platforms
        without ``fcntl`` (no POSIX locks) the lease is granted
        unconditionally — single-process behaviour is unchanged there.
        """
        if fcntl is None:  # pragma: no cover - platform-dependent
            yield True
            return
        lease_path = self.directory / self.EVICTOR_LEASE_NAME
        try:
            handle = open(lease_path, "a+")
        except OSError:  # pragma: no cover - directory raced away
            yield False
            return
        try:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                yield False  # another process is evicting right now
                return
            try:
                yield True
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()

    def evict(self, max_bytes: int | None = None) -> int:
        """Remove least-recently-used entries until the store fits the budget.

        ``max_bytes`` overrides the instance budget for this call; with
        neither set this is a no-op.  Returns the number of entries removed.
        Eviction runs under the single-evictor lease: if another process
        holds it, this call removes nothing (returns 0) and the budget is
        enforced by the lease holder — or by the next write here.  Entries
        that disappear concurrently are counted as already gone, not errors.
        """
        budget = self.max_bytes if max_bytes is None else max(0, int(max_bytes))
        if budget is None:
            return 0
        with self._evictor_lease() as held:
            if not held:
                return 0
            entries = self._entries()
            total = sum(size for _path, _mtime, size in entries)
            removed = 0
            # Oldest mtime first: the LRU end of the store.
            for path, _mtime, size in sorted(entries, key=lambda entry: entry[1]):
                if total <= budget:
                    break
                path.unlink(missing_ok=True)
                total -= size
                removed += 1
            return removed

    def _entries(self) -> list[tuple[Path, float, int]]:
        """Every live entry as ``(path, mtime, size)`` (racing files skipped)."""
        entries = []
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    stat = path.stat()
                except OSError:  # pragma: no cover - raced with an eviction
                    continue
                entries.append((path, stat.st_mtime, stat.st_size))
        return entries

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed


class ResultCache(JsonFileCache):
    """Content-addressed persistent store of job results and traces.

    The store serves any frozen, hashable spec with:

    * ``digest()`` — its content address: a hash of ``schema`` and
      ``to_jsonable()``, and the entry's file name;
    * ``to_jsonable()`` — the canonical JSON form of the spec;
    * ``schema`` — a version token, read at call time, that every entry
      records; bumping it orphans (never corrupts) old entries;
    * ``encode_result(result)`` / ``decode_result(payload)`` — the codec
      between a result and the entry's JSON.

    A *job* is such a spec that also has ``execute()``, which computes the
    result (the runner calls it on a miss).  :class:`JobSpec`
    (simulations) and :class:`~repro.experiments.matrix.AttackCellSpec`
    (attack-matrix cells) are the two jobs; both also carry the manifest
    fields :class:`JobRecord` reads (``benchmark``, ``level``, ``machine``,
    ``cores``, ``num_requests``, ``seed``).  The trace specs of
    :mod:`repro.experiments.trace_cache` are stored but never executed.

    One JSON file per digest under ``directory``.  Every entry embeds the
    schema token and the full spec it was computed from, so a load only
    succeeds when both match — hash collisions, stale schema versions and
    corrupted files all degrade to a cache miss, never to a wrong or
    crashing result; so does any failure of ``decode_result``.  Durability
    and LRU byte-budget eviction come from :class:`JsonFileCache`.
    """

    def path_for(self, spec) -> Path:
        """Where this spec's entry lives (whether or not it exists yet)."""
        return self.directory / f"{spec.digest()}.json"

    def get(self, spec):
        """The cached result for ``spec``, or None on any miss or damage."""
        path = self.path_for(spec)
        payload = self.read_json(path)
        if payload is None or payload.get("schema") != spec.schema:
            return None
        if payload.get("spec") != spec.to_jsonable():
            return None
        try:
            result = spec.decode_result(payload["result"])
        except Exception:  # any damaged body is a miss, whatever the codec
            return None
        self.touch(path)
        return result

    def put(self, spec, result) -> Path:
        """Persist ``result`` for ``spec``; returns the entry's path."""
        payload = {
            "schema": spec.schema,
            "spec": spec.to_jsonable(),
            "result": spec.encode_result(result),
        }
        return self.write_json(self.path_for(spec), payload)


@dataclass(frozen=True)
class JobRecord:
    """One manifest line: a job's identity, cache provenance and wall-clock.

    ``checkpoint_hits`` / ``resumed_from_events`` record checkpoint
    warm-start provenance: a job that forked from a stored snapshot carries
    the number of snapshots it consumed (0 or 1) and the kernel-event depth
    it resumed from, so a warm-started sweep's speedup is auditable from
    the manifest instead of looking identical to a cold run.
    """

    digest: str
    benchmark: str
    level: str
    channels: int
    cores: int
    num_requests: int
    seed: int
    source: str  # "memory" | "disk" | "simulated"
    wall_ms: float
    #: Stored checkpoints this job consumed (0 = cold start, 1 = warm fork).
    checkpoint_hits: int = 0
    #: Kernel-event depth the job resumed from (0 for a cold start).
    resumed_from_events: int = 0


@dataclass
class RunManifest:
    """What one sweep did: job list, cache hits/misses, timing, workers.

    ``warnings`` carries a compiled sweep's notices (design points dropped
    by digest dedup, baseline anchors added), which
    :func:`~repro.experiments.sweep.run_sweep` copies in, so audit trails
    capture what the sweep compiler changed, not just what ran.
    """

    label: str
    workers: int
    records: list[JobRecord]
    wall_clock_s: float
    stats: dict[str, float] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def jobs(self) -> int:
        """Total number of jobs in the sweep."""
        return len(self.records)

    @property
    def cache_hits(self) -> int:
        """Jobs served from the in-memory or on-disk cache."""
        return sum(1 for record in self.records if record.source != "simulated")

    @property
    def cache_misses(self) -> int:
        """Jobs that had to be simulated."""
        return sum(1 for record in self.records if record.source == "simulated")

    @property
    def checkpoint_hits(self) -> int:
        """Simulated jobs that warm-started from a stored checkpoint."""
        return sum(1 for record in self.records if record.checkpoint_hits > 0)

    @property
    def events_resumed(self) -> int:
        """Total kernel events skipped by forking from checkpoints."""
        return sum(record.resumed_from_events for record in self.records)

    def to_jsonable(self) -> dict:
        """The manifest as a JSON-ready dict."""
        return {
            "schema": MANIFEST_SCHEMA_VERSION,
            "label": self.label,
            "workers": self.workers,
            "jobs": self.jobs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "checkpoint_hits": self.checkpoint_hits,
            "events_resumed": self.events_resumed,
            "wall_clock_s": self.wall_clock_s,
            "stats": dict(self.stats),
            "warnings": list(self.warnings),
            "records": [dataclasses.asdict(record) for record in self.records],
        }

    def write(self, path: str | Path) -> Path:
        """Write the manifest as JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_jsonable(), indent=1))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest | None":
        """Read a manifest written by :meth:`write`; ``None`` when unusable.

        Version skew (a manifest written under a different
        :data:`MANIFEST_SCHEMA_VERSION`), corruption and missing files all
        return ``None`` so callers re-run the sweep instead of crashing on
        stale observability data.
        """
        try:
            payload = json.loads(Path(path).read_text())
            if payload.get("schema") != MANIFEST_SCHEMA_VERSION:
                return None
            field_names = {f.name for f in dataclasses.fields(JobRecord)}
            records = [
                JobRecord(**{name: record[name] for name in field_names if name in record})
                for record in payload["records"]
            ]
            return cls(
                label=str(payload["label"]),
                workers=int(payload["workers"]),
                records=records,
                wall_clock_s=float(payload["wall_clock_s"]),
                stats={str(k): float(v) for k, v in payload.get("stats", {}).items()},
                warnings=[str(w) for w in payload.get("warnings", [])],
            )
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None


@dataclass(frozen=True)
class ExecutionOutcome:
    """What executing one cache-missing job produced (worker wire format).

    Checkpoint-aware executors fill the provenance fields; the plain path
    leaves them at their cold-start defaults, so the manifest can always
    tell a warm fork from a cold run.
    """

    result: RunResult
    wall_ms: float
    #: Stored checkpoints consumed by this execution (0 or 1).
    checkpoint_hits: int = 0
    #: Kernel-event depth the execution resumed from (0 = cold).
    resumed_from_events: int = 0


def _execute_job(spec: JobSpec) -> ExecutionOutcome:
    """Worker entry point: simulate one spec, timing the job's wall-clock."""
    started = time.perf_counter()
    result = spec.execute()
    return ExecutionOutcome(result, (time.perf_counter() - started) * 1000.0)


def _fork_context():
    """The ``fork`` multiprocessing context, or None if the platform lacks it."""
    try:
        if "fork" not in multiprocessing.get_all_start_methods():
            return None
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform-dependent
        return None


class ParallelRunner:
    """Fan jobs over worker processes, memoized through two cache layers.

    A job is a :class:`JobSpec` or any other spec following the job
    protocol documented on :class:`ResultCache`.  Resolution order per job:
    the shared in-memory dict (``memory``), then the persistent
    :class:`ResultCache` (``cache``), then execution.  All misses of one
    :meth:`run` call are executed together — in a ``fork`` process pool
    when ``workers > 1``, serially otherwise — and results are returned in
    the order the specs were given.  After :meth:`run`, the
    :attr:`manifest` attribute describes the sweep.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | None = None,
        memory: dict | None = None,
        stats: StatRegistry | None = None,
        checkpoints=None,
        checkpoint_save_milestones: tuple[float, ...] = SAVE_MILESTONES,
    ):
        self.workers = max(1, int(workers))
        self.cache = cache
        self.memory = memory if memory is not None else {}
        self.stats = stats or StatRegistry()
        self.manifest: RunManifest | None = None
        #: Optional :class:`~repro.experiments.checkpoints.CheckpointStore`.
        #: When set, cache-missing jobs run through
        #: :func:`~repro.experiments.checkpoints.execute_with_checkpoints`:
        #: they fork from the deepest stored snapshot of their spec family
        #: and persist a fresh snapshot as they go, so a request-count sweep
        #: pays for each shared trace prefix once.
        self.checkpoints = checkpoints
        #: Trace-progress fractions at which checkpointed jobs save
        #: snapshots (``()`` = fork but never save).  See
        #: :func:`~repro.experiments.checkpoints.execute_with_checkpoints`.
        self.checkpoint_save_milestones = checkpoint_save_milestones

    def lookup(self, spec) -> tuple[object | None, str]:
        """Probe both cache layers for one job: ``(result, source)``.

        ``source`` is ``"memory"``, ``"disk"`` or ``"miss"`` (with a
        ``None`` result).  A disk hit is promoted into the in-memory layer.
        """
        digest = spec.digest()
        if digest in self.memory:
            return self.memory[digest], "memory"
        if self.cache is not None:
            cached = self.cache.get(spec)
            if cached is not None:
                self.memory[digest] = cached
                return cached, "disk"
        return None, "miss"

    def run(self, specs: list, label: str = "sweep", progress=None) -> list:
        """Resolve every spec (cache or simulation); ordered like ``specs``.

        Each distinct digest executes at most once per call: the first
        index of a missing digest runs, and later indices with the same
        digest take its result as ``"memory"`` records with no wall time.

        ``progress``, when given, is called with each job's
        :class:`JobRecord` as it resolves — cache hits during the probe
        pass, simulated jobs and their repeats as each worker outcome
        lands — so callers can stream sweep progress instead of waiting
        for the manifest.
        """
        specs = list(specs)
        started = time.perf_counter()
        sweep_stats = StatRegistry()
        group = sweep_stats.group("executor")
        lifetime = self.stats.group("executor")

        results: list[RunResult | None] = [None] * len(specs)
        records: list[JobRecord | None] = [None] * len(specs)
        pending: list[int] = []
        # Missing digest -> the later indices waiting on its first run.
        repeats: dict[str, list[int]] = {}
        digests = [spec.digest() for spec in specs]

        def resolve(
            index: int,
            source: str,
            wall_ms: float,
            checkpoint_hits: int = 0,
            resumed_from_events: int = 0,
        ) -> None:
            spec = specs[index]
            record = JobRecord(
                digest=digests[index],
                benchmark=spec.benchmark,
                level=scheme_name_of(spec.level),
                channels=spec.machine.channels,
                cores=spec.cores,
                num_requests=spec.num_requests,
                seed=spec.seed,
                source=source,
                wall_ms=wall_ms,
                checkpoint_hits=checkpoint_hits,
                resumed_from_events=resumed_from_events,
            )
            records[index] = record
            if progress is not None:
                progress(record)

        for index, spec in enumerate(specs):
            if digests[index] in repeats:
                repeats[digests[index]].append(index)
                continue
            result, source = self.lookup(spec)
            if result is None:
                pending.append(index)
                repeats[digests[index]] = []
            else:
                results[index] = result
                resolve(index, source, 0.0)

        if pending:

            def on_outcome(position: int, outcome: ExecutionOutcome) -> None:
                index = pending[position]
                results[index] = outcome.result
                self.memory[digests[index]] = outcome.result
                if self.cache is not None:
                    self.cache.put(specs[index], outcome.result)
                resolve(
                    index,
                    "simulated",
                    outcome.wall_ms,
                    checkpoint_hits=outcome.checkpoint_hits,
                    resumed_from_events=outcome.resumed_from_events,
                )
                for repeat in repeats[digests[index]]:
                    results[repeat] = outcome.result
                    resolve(repeat, "memory", 0.0)

            self._execute([specs[index] for index in pending], on_outcome)

        for record in records:
            assert record is not None
            counter = (
                "simulations"
                if record.source == "simulated"
                else f"{record.source}_hits"
            )
            for target in (group, lifetime):
                target.add("jobs")
                target.add(counter)
            if record.checkpoint_hits:
                for target in (group, lifetime):
                    target.add("checkpoint_forks")
                group.add("events_resumed", record.resumed_from_events)
            group.record("job_wall_ms", record.wall_ms, bucket_width=100.0)
        wall_clock_s = time.perf_counter() - started
        self.manifest = RunManifest(
            label=label,
            workers=self.workers,
            records=records,  # type: ignore[arg-type]
            wall_clock_s=wall_clock_s,
            stats=sweep_stats.as_dict(),
        )
        return results  # type: ignore[return-value]

    def _execute(self, specs: list[JobSpec], on_outcome) -> None:
        """Simulate ``specs`` (parallel when possible), streaming outcomes.

        ``on_outcome(position, outcome)`` is called once per spec in list
        order with each job's :class:`ExecutionOutcome` as it lands.
        """
        if self.checkpoints is not None:
            # Imported lazily: the checkpoint store builds on this module.
            from repro.experiments.checkpoints import _checkpointed_job

            execute_one = _checkpointed_job
            payloads = [
                (spec, self.checkpoints, self.checkpoint_save_milestones)
                for spec in specs
            ]
        else:
            execute_one, payloads = _execute_job, specs
        context = _fork_context()
        workers = min(self.workers, len(specs))
        if workers <= 1 or context is None:
            for position, payload in enumerate(payloads):
                on_outcome(position, execute_one(payload))
            return
        with context.Pool(processes=workers) as pool:
            # imap (not map) so outcomes stream back in order as they land.
            for position, outcome in enumerate(
                pool.imap(execute_one, payloads, chunksize=1)
            ):
                on_outcome(position, outcome)
