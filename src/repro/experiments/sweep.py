"""Fleet-scale design-space sweeps: declarative specs, prefix-sharing waves.

The repo's execution machinery — :class:`~repro.experiments.executor.ParallelRunner`,
the persistent result/trace caches, the :class:`~repro.experiments.checkpoints.CheckpointStore`
— answered the paper's six tables one hand-written module at a time.  This
module turns it into an instrument: describe *thousands* of design points
declaratively, compile them to deduplicated :class:`~repro.experiments.executor.JobSpec`\\ s,
and execute them on a schedule that **plans** the sharing the lower layers
only make possible.

Three pieces:

* :class:`SweepSpec` — a declarative sweep: named axes (``benchmark``,
  ``level``, ``num_requests``, ``seed``, ``cores`` and any
  ``machine.<field>`` knob of :class:`~repro.system.config.MachineConfig`)
  combined by ``grid`` (cartesian product), ``zip`` (element-wise) or
  ``random`` (seeded sampling of the grid), at most
  :data:`MAX_SWEEP_POINTS` points.  Compilation builds one job per
  described point, dedups them by content digest, and can add the
  ``unprotected`` baseline anchor each configuration needs for overhead
  reporting.

* the **prefix-sharing scheduler** (:func:`plan_sweep` /
  :func:`run_sweep`) — the performance core.  Compiled specs are grouped
  into *families* by :meth:`~repro.experiments.executor.JobSpec.prefix_digest`
  (everything but ``num_requests``); members of a family simulate the same
  world over a shared trace prefix.  The plan orders execution in
  topological *waves*: wave 0 runs each family's shortest point cold and
  seeds the checkpoint store, wave *k+1* forks each next-longer point from
  the snapshots wave *k* left behind, so a family of request counts
  ``n_1 < n_2 < ... < n_k`` costs roughly ``n_k`` events instead of
  ``sum(n_i)``.  :func:`worth_forking` decides per point whether forking
  is worth the checkpoint save/restore overhead (singleton families skip
  the store entirely), and each wave is sorted so same-workload points
  land adjacent — trace-cache-aware batching.

* the streaming Pareto aggregation lives in
  :mod:`repro.experiments.pareto`: :func:`run_sweep` streams every
  resolved result into a :class:`~repro.experiments.pareto.ParetoAggregator`
  so the overhead/leakage/energy frontier is ready the moment the last
  wave lands.

CLI: ``python -m repro sweep --spec sweep.json [--workers N] [--pareto
out.csv] [--dry-run]``.  ``--dry-run`` prints the planned waves and
warm-start counts without simulating anything.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from repro.cpu.spec_profiles import SPEC_PROFILES
from repro.errors import ConfigurationError
from repro.experiments.executor import (
    DEFAULT_REQUESTS,
    DEFAULT_SEED,
    SAVE_MILESTONES,
    JobSpec,
    ParallelRunner,
    ResultCache,
    RunManifest,
    _dataclass_from_jsonable,
)
from repro.schemes import resolve_scheme, scheme_name_of
from repro.system.config import MachineConfig, ProtectionLevel
from repro.system.simulator import RunResult

#: Version token embedded in sweep-spec files; unknown versions are
#: rejected loudly rather than silently compiled to the wrong grid.
SWEEP_SCHEMA_VERSION = 1

#: Axis names addressing :class:`JobSpec` scalars directly.
SCALAR_AXES = ("benchmark", "level", "num_requests", "seed", "cores")

#: Prefix addressing :class:`MachineConfig` fields (``machine.channels``).
MACHINE_AXIS_PREFIX = "machine."

_MODES = ("grid", "zip", "random")

#: Most design points one spec may describe.  Compilation builds a dict
#: and a job per point, so a larger spec is refused before expansion.
MAX_SWEEP_POINTS = 100_000


def _machine_field_names() -> set[str]:
    """Every MachineConfig field addressable as a ``machine.<name>`` axis."""
    return {f.name for f in dataclasses.fields(MachineConfig)}


def _integer_field(payload: dict, name: str, default: int) -> int:
    """``int(payload[name])``, with every failure a ``ConfigurationError``."""
    value = payload.get(name, default)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(
            f"sweep-spec field {name!r} needs an integer, got {value!r:.40}"
        ) from None


@dataclass(frozen=True)
class SweepAxis:
    """One named axis of a sweep: a knob and the values it ranges over."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigurationError(f"axis {self.name!r} has no values")
        if self.name in SCALAR_AXES:
            self._validate_scalar()
        elif self.name.startswith(MACHINE_AXIS_PREFIX):
            fname = self.name[len(MACHINE_AXIS_PREFIX) :]
            if fname not in _machine_field_names():
                known = sorted(_machine_field_names())
                raise ConfigurationError(
                    f"unknown machine axis {self.name!r}; machine fields: {known}"
                )
        else:
            raise ConfigurationError(
                f"unknown axis {self.name!r}; choose from {SCALAR_AXES} "
                f"or '{MACHINE_AXIS_PREFIX}<field>'"
            )

    def _validate_scalar(self) -> None:
        if self.name == "benchmark":
            unknown = [
                v
                for v in self.values
                if not isinstance(v, str) or v not in SPEC_PROFILES
            ]
            if unknown:
                raise ConfigurationError(f"unknown benchmarks: {unknown}")
        elif self.name == "level":
            for value in self.values:
                resolve_scheme(value)  # fails fast with a close-match hint
        else:
            for value in self.values:
                if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                    raise ConfigurationError(
                        f"axis {self.name!r} needs positive integers, got {value!r}"
                    )


@dataclass(frozen=True)
class CompiledSweep:
    """A sweep spec flattened to executable jobs, with its audit trail."""

    spec: "SweepSpec"
    #: Deduplicated job specs, in deterministic compile order (baseline
    #: anchors, when added, come last).
    jobs: tuple[JobSpec, ...]
    #: Design points described by the spec before digest-level dedup.
    requested: int
    #: Digest-identical points removed by dedup.
    duplicates_dropped: int
    #: ``unprotected`` anchor jobs added for overhead reporting.
    baselines_added: int
    #: Compile-time notices, destined for the run manifest.
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class SweepSpec:
    """A declarative design-space sweep over simulation knobs.

    ``mode`` selects how axes combine: ``grid`` takes the cartesian
    product in axis order, ``zip`` walks all axes in lockstep (length-1
    axes broadcast), ``random`` draws ``samples`` seeded points from the
    grid.  Axis values are used as written: a repeated value is one more
    grid point, one more lockstep row, or one more chance in a random
    draw, and compilation then drops the digest-identical jobs.  Axes may
    address :class:`~repro.experiments.executor.JobSpec` scalars
    (``benchmark``, ``level``, ``num_requests``, ``seed``, ``cores``) or
    any :class:`~repro.system.config.MachineConfig` field via
    ``machine.<field>`` (enum values spelled as their JSON form, e.g.
    ``"opt"`` for a channel-injection mode).

    With ``baselines`` set (the default), compilation appends one
    ``unprotected`` job per distinct (benchmark, machine, num_requests,
    seed, cores) configuration so the Pareto report can compute overheads
    without a separate baseline sweep.
    """

    axes: tuple[SweepAxis, ...]
    mode: str = "grid"
    samples: int = 0
    sample_seed: int = DEFAULT_SEED
    baselines: bool = True

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConfigurationError(f"unknown sweep mode {self.mode!r}; one of {_MODES}")
        if not self.axes:
            raise ConfigurationError("a sweep needs at least one axis")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate axes: {sorted(names)}")
        for required in ("benchmark", "level"):
            if required not in names:
                raise ConfigurationError(
                    f"a sweep needs a {required!r} axis (a single value is fine)"
                )
        if self.mode == "random" and self.samples < 1:
            raise ConfigurationError("random mode needs samples >= 1")
        if self.mode == "zip":
            lengths = {len(axis.values) for axis in self.axes if len(axis.values) > 1}
            if len(lengths) > 1:
                raise ConfigurationError(
                    f"zip mode needs equal-length axes (or length 1); got {sorted(lengths)}"
                )
        points = self._point_count()
        if points > MAX_SWEEP_POINTS:
            raise ConfigurationError(
                f"sweep describes {points} design points; "
                f"the limit is {MAX_SWEEP_POINTS}"
            )

    # -- wire form -----------------------------------------------------------

    def to_jsonable(self) -> dict:
        """The spec as a JSON-ready dict (inverse of :meth:`from_jsonable`)."""
        return {
            "schema": SWEEP_SCHEMA_VERSION,
            "mode": self.mode,
            "axes": {axis.name: list(axis.values) for axis in self.axes},
            "samples": self.samples,
            "sample_seed": self.sample_seed,
            "baselines": self.baselines,
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "SweepSpec":
        """Build a spec from its JSON form; raises ``ConfigurationError``."""
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"expected a sweep-spec object, got {type(payload).__name__}"
            )
        schema = payload.get("schema", SWEEP_SCHEMA_VERSION)
        if schema != SWEEP_SCHEMA_VERSION:
            raise ConfigurationError(
                f"sweep schema {schema!r} != {SWEEP_SCHEMA_VERSION}"
            )
        axes_payload = payload.get("axes")
        if not isinstance(axes_payload, dict) or not axes_payload:
            raise ConfigurationError("a sweep spec needs a non-empty 'axes' object")
        known = {"schema", "mode", "axes", "samples", "sample_seed", "baselines"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(f"unknown sweep-spec fields: {unknown}")
        axes = tuple(
            SweepAxis(name, tuple(values if isinstance(values, list) else [values]))
            for name, values in axes_payload.items()
        )
        return cls(
            axes=axes,
            mode=str(payload.get("mode", "grid")),
            samples=_integer_field(payload, "samples", 0),
            sample_seed=_integer_field(payload, "sample_seed", DEFAULT_SEED),
            baselines=bool(payload.get("baselines", True)),
        )

    @classmethod
    def load(cls, path: str | Path) -> "SweepSpec":
        """Read a spec from a JSON file; raises ``ConfigurationError``."""
        try:
            payload = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigurationError(f"cannot read sweep spec {path}: {exc}") from None
        except (ValueError, RecursionError) as exc:  # nesting past the parser's depth
            raise ConfigurationError(f"sweep spec {path} is not JSON: {exc}") from None
        return cls.from_jsonable(payload)

    # -- compilation ---------------------------------------------------------

    def _point_count(self) -> int:
        """How many design points the spec describes, before any dedup."""
        lengths = [len(axis.values) for axis in self.axes]
        if self.mode == "zip":
            return max(lengths)
        if self.mode == "random":
            return self.samples
        return math.prod(lengths)

    def _points(self) -> list[dict]:
        """Every described design point as an axis-name -> value dict."""
        if self.mode == "zip":
            return [
                {
                    axis.name: axis.values[i if len(axis.values) > 1 else 0]
                    for axis in self.axes
                }
                for i in range(self._point_count())
            ]
        if self.mode == "random":
            rng = random.Random(self.sample_seed)
            return [
                {axis.name: rng.choice(axis.values) for axis in self.axes}
                for _ in range(self.samples)
            ]
        names = [axis.name for axis in self.axes]
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(axis.values for axis in self.axes))
        ]

    def compile(self) -> CompiledSweep:
        """Flatten the spec to deduplicated jobs plus its audit trail.

        Every mode builds one job per described point, in :meth:`_points`
        order, then keeps the first job of each content digest: repeated
        axis values, repeated random draws and two spellings of one scheme
        all collapse here.  ``unprotected`` baseline anchors, when enabled,
        come last.
        """
        machines: dict[str, MachineConfig] = {}
        jobs: dict[str, JobSpec] = {}  # digest -> first job with that digest
        points = self._points()
        for point in points:
            entries = {
                name[len(MACHINE_AXIS_PREFIX) :]: value
                for name, value in point.items()
                if name.startswith(MACHINE_AXIS_PREFIX)
            }
            # Decoding a MachineConfig resolves its type hints on every call,
            # and a grid repeats each machine once per point of the other
            # axes: decode each distinct one once.
            key = repr(entries)
            if key not in machines:
                machines[key] = _dataclass_from_jsonable(MachineConfig, entries)
            spec = JobSpec(
                benchmark=point["benchmark"],
                level=point["level"],
                machine=machines[key],
                num_requests=point.get("num_requests", DEFAULT_REQUESTS),
                seed=point.get("seed", DEFAULT_SEED),
                cores=point.get("cores", 1),
            )
            jobs.setdefault(spec.digest(), spec)
        duplicates = len(points) - len(jobs)
        warnings: list[str] = []
        if duplicates:
            warnings.append(
                f"compile: dropped {duplicates} digest-identical design point(s)"
            )
        baselines_added = 0
        if self.baselines:
            for spec in list(jobs.values()):
                anchor = dataclasses.replace(spec, level=ProtectionLevel.UNPROTECTED)
                digest = anchor.digest()
                if digest not in jobs:
                    jobs[digest] = anchor
                    baselines_added += 1
            if baselines_added:
                warnings.append(
                    f"compile: added {baselines_added} unprotected baseline anchor(s)"
                )
        return CompiledSweep(
            spec=self,
            jobs=tuple(jobs.values()),
            requested=len(points),
            duplicates_dropped=duplicates,
            baselines_added=baselines_added,
            warnings=tuple(warnings),
        )


# ---------------------------------------------------------------------------
# Prefix-sharing scheduler
# ---------------------------------------------------------------------------


#: Minimum shared-prefix length (requests) that can amortize one
#: checkpoint restore + retarget.
MIN_SHARED_REQUESTS = 100
#: Minimum fraction of the point's own length the shared prefix must
#: cover for the fork to matter.
MIN_SHARED_FRACTION = 0.10


def worth_forking(shared: int, total: int) -> bool:
    """True when forking a ``total``-request point at ``shared`` requests pays.

    The decision is made at plan time from request counts alone (requests
    are the spec-level proxy for kernel events, which scale linearly with
    them).  Forking pays a fixed restore-and-retarget toll plus a snapshot
    save in the seeding run, so a point warm-starts only when the shared
    prefix clears both :data:`MIN_SHARED_REQUESTS` and
    :data:`MIN_SHARED_FRACTION` of its own length, and only from a
    strictly shorter run: a family member of the same length is the same
    spec, which resolves from the result cache rather than a snapshot.
    """
    return (
        MIN_SHARED_REQUESTS <= shared < total
        and shared / total >= MIN_SHARED_FRACTION
    )


@dataclass(frozen=True)
class PlannedJob:
    """One scheduled design point: its family, wave and execution flavour."""

    spec: JobSpec
    #: The spec family (prefix digest) this point belongs to.
    family: str
    #: Topological wave index; wave *k* runs only after wave *k-1*.
    wave: int
    #: Whether the scheduler expects this point to fork from a snapshot a
    #: shorter family member left behind.
    warm_start: bool
    #: Planned fork depth in requests (the preceding member's length).
    shared_requests: int
    #: Whether the point runs through the checkpoint store at all (it
    #: forks, or a longer member will fork from its snapshots).
    use_store: bool
    #: Whether the point should persist snapshots as it runs — True only
    #: when the next family member is planned to fork from them; the
    #: family's deepest member reads the store but never writes it.
    save_snapshots: bool = False


@dataclass
class SweepPlan:
    """The scheduler's output: jobs ordered into warm-start waves."""

    waves: list[list[PlannedJob]]
    families: int
    singletons: int

    @property
    def jobs(self) -> int:
        """Total planned design points across all waves."""
        return sum(len(wave) for wave in self.waves)

    @property
    def warm_starts_planned(self) -> int:
        """Points the scheduler expects to fork from a checkpoint."""
        return sum(1 for wave in self.waves for job in wave if job.warm_start)

    @property
    def requests_total(self) -> int:
        """Requests a naive cold execution would simulate."""
        return sum(job.spec.num_requests for wave in self.waves for job in wave)

    @property
    def requests_shared(self) -> int:
        """Requests the warm-start schedule expects to skip."""
        return sum(
            job.shared_requests for wave in self.waves for job in wave if job.warm_start
        )

    def describe(self) -> str:
        """Human-readable plan summary (the ``--dry-run`` output)."""
        lines = [
            f"sweep plan: {self.jobs} jobs, {self.families} families "
            f"({self.singletons} singleton), {len(self.waves)} wave(s)",
            f"warm starts planned: {self.warm_starts_planned}",
            f"requests: {self.requests_total} cold, "
            f"~{self.requests_shared} shared via checkpoints "
            f"({100.0 * self.requests_shared / max(1, self.requests_total):.0f}%)",
        ]
        for index, wave in enumerate(self.waves):
            warm = sum(1 for job in wave if job.warm_start)
            stored = sum(1 for job in wave if job.use_store)
            workloads = len({(j.spec.benchmark, j.spec.seed, j.spec.cores) for j in wave})
            lines.append(
                f"  wave {index}: {len(wave)} job(s), {warm} warm-start, "
                f"{stored} through the store, {workloads} workload batch(es)"
            )
        return "\n".join(lines)


def _wave_sort_key(job: PlannedJob) -> tuple:
    """Trace-cache-aware batching: same-workload points land adjacent.

    Points sharing (benchmark, seed, cores, num_requests) replay one cached
    trace; sorting each wave by that key (then scheme, then digest) keeps
    them on the same stretch of the worker pool so the first one to run
    warms the persistent trace cache for its batch-mates.
    """
    spec = job.spec
    return (
        spec.benchmark,
        spec.seed,
        spec.cores,
        spec.num_requests,
        scheme_name_of(spec.level),
        spec.digest(),
    )


def plan_sweep(jobs: list[JobSpec] | tuple[JobSpec, ...]) -> SweepPlan:
    """Group jobs into prefix families and order them into warm-start waves.

    Families (same :meth:`~repro.experiments.executor.JobSpec.prefix_digest`)
    are sorted shortest-first; member *k* is planned for wave *k* when
    :func:`worth_forking` judges its fork worthwhile, so every point's seed
    snapshot exists before the point runs.  Points whose fork is not worth
    the toll stay in the earliest wave consistent with their family's
    snapshot needs; singleton families bypass the checkpoint store entirely.
    """
    families: dict[str, list[JobSpec]] = {}
    for spec in jobs:
        families.setdefault(spec.prefix_digest(), []).append(spec)
    waves: dict[int, list[PlannedJob]] = {}
    singletons = 0
    for family, members in families.items():
        members = sorted(members, key=lambda spec: spec.num_requests)
        if len(members) == 1:
            singletons += 1
            waves.setdefault(0, []).append(
                PlannedJob(members[0], family, 0, False, 0, False)
            )
            continue
        warm_flags = [
            rank > 0
            and worth_forking(members[rank - 1].num_requests, spec.num_requests)
            for rank, spec in enumerate(members)
        ]
        depth = 0
        for rank, spec in enumerate(members):
            warm = warm_flags[rank]
            if warm:
                depth += 1
            saves = rank + 1 < len(members) and warm_flags[rank + 1]
            waves.setdefault(depth, []).append(
                PlannedJob(
                    spec=spec,
                    family=family,
                    wave=depth,
                    warm_start=warm,
                    shared_requests=members[rank - 1].num_requests if warm else 0,
                    use_store=warm or saves,
                    save_snapshots=saves,
                )
            )
    ordered = [sorted(waves[index], key=_wave_sort_key) for index in sorted(waves)]
    return SweepPlan(waves=ordered, families=len(families), singletons=singletons)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class SweepRun:
    """What one scheduled sweep execution produced."""

    plan: SweepPlan
    #: Result per job digest (every planned job resolves exactly once).
    results: dict[str, RunResult]
    #: Merged manifest over every wave batch, in execution order.
    manifest: RunManifest
    wall_clock_s: float

    def result_for(self, spec: JobSpec) -> RunResult:
        """The resolved result for one compiled spec; KeyError if absent."""
        return self.results[spec.digest()]


def run_sweep(
    compiled: CompiledSweep | list[JobSpec],
    workers: int = 1,
    cache: ResultCache | None = None,
    checkpoints=None,
    label: str = "sweep",
    progress=None,
    aggregator=None,
) -> SweepRun:
    """Execute a compiled sweep on the prefix-sharing schedule.

    Each wave runs through :class:`~repro.experiments.executor.ParallelRunner`
    in three batches — seeding jobs (they may fork, and save one snapshot
    at :data:`~repro.experiments.executor.SAVE_MILESTONES`), fork-only
    jobs, and pure cold jobs — sharing one in-memory result dict and the
    given persistent ``cache``.  Wave *k+1* starts only after wave *k* finishes,
    so every planned warm start finds its seed snapshot.  Results are
    bit-identical to cold execution (the checkpoint protocol guarantees it;
    the sweep-scaling benchmark asserts it end to end).

    ``progress(record)`` streams each job's manifest record as it resolves;
    ``aggregator`` (a :class:`~repro.experiments.pareto.ParetoAggregator`)
    is fed every ``(spec, result)`` pair as waves land, keeping the Pareto
    fold streaming rather than post-hoc.
    """
    import time as _time

    if isinstance(compiled, CompiledSweep):
        jobs = list(compiled.jobs)
        warnings = list(compiled.warnings)
    else:
        jobs = list(compiled)
        warnings = []
    plan = plan_sweep(jobs)
    started = _time.perf_counter()
    memory: dict[str, RunResult] = {}
    records = []
    results: dict[str, RunResult] = {}

    def run_batch(specs: list[JobSpec], store, milestones) -> None:
        if not specs:
            return
        runner = ParallelRunner(
            workers=workers,
            cache=cache,
            memory=memory,
            checkpoints=store,
            checkpoint_save_milestones=milestones,
        )
        batch_results = runner.run(specs, label=label, progress=progress)
        assert runner.manifest is not None
        records.extend(runner.manifest.records)
        for spec, result in zip(specs, batch_results):
            results[spec.digest()] = result
            if aggregator is not None:
                aggregator.add(spec, result)

    for wave in plan.waves:
        # Three execution flavours per wave: members that seed snapshots
        # for the next wave, members that only fork (the family's deepest),
        # and cold singletons that should skip the store's overhead.
        run_batch(
            [job.spec for job in wave if job.use_store and job.save_snapshots],
            checkpoints,
            SAVE_MILESTONES,
        )
        run_batch(
            [job.spec for job in wave if job.use_store and not job.save_snapshots],
            checkpoints,
            (),
        )
        run_batch([job.spec for job in wave if not job.use_store], None, ())

    wall_clock_s = _time.perf_counter() - started
    manifest = RunManifest(
        label=label,
        workers=workers,
        records=records,
        wall_clock_s=wall_clock_s,
        warnings=warnings,
    )
    return SweepRun(
        plan=plan, results=results, manifest=manifest, wall_clock_s=wall_clock_s
    )
