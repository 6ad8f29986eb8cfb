"""The three closed-loop workloads: paper-grid, app-kernels, sweep-extend.

Each workload is built from a recorded input variant (see
:data:`common.VARIANTS`) and measured in *passes*: one pass executes the
workload's whole job list once, cold, with one caller.  A pass returns the
host time of every job, whether the job found its expensive input already
cached (a *hit*) or had to build it (a *miss*), and the digests of its
simulated outputs for the golden check.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from dataclasses import dataclass, field

from common import ratio, remove_dir, result_digest, scratch_dir, timing

perf = time.perf_counter


@dataclass
class Job:
    """One unit of work: a grid cell, a kernel run or a sweep point."""

    key: str
    latency_s: float
    hit: bool
    requests: int


@dataclass
class Pass:
    """One execution of a workload's job list."""

    wall_s: float
    jobs: list[Job]
    #: Output digest per job key (compared with golden.json).
    digests: dict[str, str]
    #: Simulated requests delivered in results.
    requests: int
    #: Front-end accesses: kernel loads/stores filtered through the cache
    #: hierarchy, or synthetic trace records generated.
    accesses: int
    #: The pass's ``RunResult`` objects (per-layer counts, Table 3 error).
    results: list = field(default_factory=list)
    #: Mean absolute ObfusMem+Auth overhead error against paper Table 3.
    table3_error_pp: float = 0.0
    #: Kernel events skipped by forking from stored snapshots.
    resumed_events: int = 0


def _trace_misses() -> int:
    """Trace-cache misses so far; a job that adds none reused its trace."""
    from repro.experiments import trace_cache

    return trace_cache.counters()[1]


def _table3_error(rows: dict[str, list[tuple]]) -> float:
    """Mean |ObfusMem+Auth overhead - paper Table 3| over benchmark rows.

    ``rows`` maps a row to its ``(unprotected, obfusmem_auth, paper_pct)``
    points; a row's overhead is the mean over its points.
    """
    return statistics.mean(
        abs(
            statistics.mean(
                protected.overhead_pct(base) for base, protected, _ in points
            )
            - points[0][2]
        )
        for points in rows.values()
    )


def _distinct_trace_records(specs) -> int:
    """Trace records a pass generates: one build per distinct trace."""
    traces = {
        (spec.benchmark, spec.num_requests, spec.seed + 1000 * core)
        for spec in specs
        for core in range(spec.cores)
    }
    return sum(num_requests for _benchmark, num_requests, _seed in traces)


# ---------------------------------------------------------------------------
# paper-grid


GRID_BENCHMARKS = (
    "bwaves",
    "mcf",
    "milc",
    "soplex",  # bandwidth-bound
    "libquantum",
    "cactus",  # latency-bound
    "astar",
    "xalan",  # cache-friendly
)
GRID_SCHEMES = (
    "unprotected",
    "encryption_only",
    "obfusmem",
    "obfusmem_auth",
    "oram",
    "palermo",
    "hide",
)
GRID_REQUESTS = 1000
#: Figure-5 slice: 4 cores x 4 channels, requests per core.
FIG5_BENCHMARK = "mcf"
FIG5_REQUESTS = 250


class PaperGrid:
    """Table-1 subset x seven schemes at one channel, plus a Figure-5 slice."""

    name = "paper-grid"

    def __init__(self, variant: int):
        from repro.core.config import ChannelInjection
        from repro.experiments import trace_cache
        from repro.experiments.executor import JobSpec
        from repro.system.config import MachineConfig

        # Users' in-process trace memo stays on; no persistent cache.
        trace_cache.configure(enabled=False)
        seed = 2017 + 101 * variant
        self.specs = [
            JobSpec(benchmark, scheme, num_requests=GRID_REQUESTS, seed=seed)
            for benchmark in GRID_BENCHMARKS
            for scheme in GRID_SCHEMES
        ]
        wide = MachineConfig(channels=4)
        self.specs.append(
            JobSpec(FIG5_BENCHMARK, "unprotected", wide, FIG5_REQUESTS, seed, cores=4)
        )
        for injection in (ChannelInjection.OPT, ChannelInjection.UNOPT):
            machine = dataclasses.replace(wide, channel_injection=injection)
            self.specs.append(
                JobSpec(
                    FIG5_BENCHMARK, "obfusmem_auth", machine, FIG5_REQUESTS, seed, cores=4
                )
            )
        self.accesses = _distinct_trace_records(self.specs)

    def run_pass(self) -> Pass:
        from repro.cpu.spec_profiles import SPEC_PROFILES
        from repro.experiments import trace_cache
        from repro.experiments.executor import ParallelRunner

        trace_cache.clear_memo()
        jobs: list[Job] = []
        misses = [_trace_misses()]

        def progress(record) -> None:
            now = _trace_misses()
            hit, misses[0] = now == misses[0], now
            requests = record.num_requests * record.cores
            jobs.append(Job(record.digest, record.wall_ms / 1000.0, hit, requests))

        runner = ParallelRunner(workers=1)
        started = perf()
        results = runner.run(self.specs, label=self.name, progress=progress)
        wall = perf() - started
        by_cell = {
            (spec.benchmark, spec.level, spec.machine.channels): result
            for spec, result in zip(self.specs, results)
        }
        rows = {
            benchmark: [
                (
                    by_cell[(benchmark, "unprotected", 1)],
                    by_cell[(benchmark, "obfusmem_auth", 1)],
                    SPEC_PROFILES[benchmark].obfusmem_overhead_pct,
                )
            ]
            for benchmark in GRID_BENCHMARKS
        }
        return Pass(
            wall_s=wall,
            jobs=jobs,
            digests={
                spec.digest(): result_digest(result)
                for spec, result in zip(self.specs, results)
            },
            requests=sum(result.num_requests for result in results),
            accesses=self.accesses,
            results=results,
            table3_error_pp=_table3_error(rows),
        )


# ---------------------------------------------------------------------------
# app-kernels

#: 128 KiB working sets swept many times: every kernel leaves 2048
#: compulsory LLC misses and the front end does most of the work.
KERNEL_PARAMS = {
    "sequential_scan": {
        "array_bytes": 128 << 10,
        "passes": 36,
        "stride": 8,
        "write_fraction": 0.2,
    },
    "random_lookup": {"table_bytes": 128 << 10, "lookups": 75000},
    "pointer_chase": {"pool_bytes": 128 << 10, "hops": 300000},
    "stencil": {"grid_bytes": 128 << 10, "sweeps": 72},
}
#: The first scheme per kernel filters it (a miss); the other two reuse the
#: trace (hits of similar cost).
KERNEL_SCHEMES = ("unprotected", "obfusmem", "obfusmem_auth")


def kernel_accesses(kernel: str, params: dict) -> int:
    """CPU-level accesses a kernel issues (its loads and stores)."""
    if kernel == "sequential_scan":
        return params["passes"] * -(-params["array_bytes"] // params["stride"])
    if kernel == "random_lookup":
        return params["lookups"] * 8  # eight 8-byte words per 64-byte record
    if kernel == "pointer_chase":
        return params["hops"]
    rows = params["grid_bytes"] // 4096
    return params["sweeps"] * (rows - 2) * 64 * 3  # above, below, centre


class AppKernels:
    """The four ``cpu.kernels`` through the Table-2 hierarchy, then simulated."""

    name = "app-kernels"

    def __init__(self, variant: int):
        from repro.experiments import trace_cache
        from repro.experiments.trace_cache import KernelTraceSpec
        from repro.mem.hierarchy import HierarchyConfig
        from repro.system.config import MachineConfig

        trace_cache.configure(enabled=False)
        self.machine = MachineConfig()
        self.specs = [
            KernelTraceSpec.create(
                kernel, hierarchy=HierarchyConfig(), seed=7 + variant, **params
            )
            for kernel, params in KERNEL_PARAMS.items()
        ]
        self.accesses = sum(
            kernel_accesses(kernel, params) for kernel, params in KERNEL_PARAMS.items()
        )

    def run_pass(self) -> Pass:
        from repro.cpu.spec_profiles import PAPER_AVG_OBFUSMEM_AUTH_OVERHEAD_PCT
        from repro.experiments import trace_cache
        from repro.system.simulator import run_trace

        trace_cache.clear_memo()
        jobs: list[Job] = []
        results = []
        rows = {}
        started = perf()
        for spec in self.specs:
            by_scheme = {}
            for scheme in KERNEL_SCHEMES:
                misses = _trace_misses()
                begun = perf()
                trace = trace_cache.cached_trace(spec)
                result = run_trace(trace, scheme, self.machine, window=4)
                elapsed = perf() - begun
                hit = _trace_misses() == misses
                key = f"{spec.kernel}/{scheme}"
                jobs.append(Job(key, elapsed, hit, result.num_requests))
                results.append(result)
                by_scheme[scheme] = result
            # Kernels have no Table-3 row: compare with the paper's average.
            rows[spec.kernel] = [
                (
                    by_scheme["unprotected"],
                    by_scheme["obfusmem_auth"],
                    PAPER_AVG_OBFUSMEM_AUTH_OVERHEAD_PCT,
                )
            ]
        wall = perf() - started
        return Pass(
            wall_s=wall,
            jobs=jobs,
            digests={
                job.key: result_digest(result) for job, result in zip(jobs, results)
            },
            requests=sum(result.num_requests for result in results),
            accesses=self.accesses,
            results=results,
            table3_error_pp=_table3_error(rows),
        )


# ---------------------------------------------------------------------------
# sweep-extend

SWEEP_LENGTHS = (300, 600, 900, 1200, 1500)


class SweepExtend:
    """The 120-point prefix-sharing sweep with a fresh checkpoint store."""

    name = "sweep-extend"

    def __init__(self, variant: int):
        from repro.experiments import trace_cache
        from repro.experiments.sweep import SweepAxis, SweepSpec, plan_sweep

        trace_cache.configure(enabled=False)
        seed = 2017 + 2 * variant
        self.spec = SweepSpec(
            axes=(
                SweepAxis("benchmark", ("mcf", "astar")),
                SweepAxis(
                    "level", ("unprotected", "encryption_only", "obfusmem_auth")
                ),
                SweepAxis("num_requests", SWEEP_LENGTHS),
                SweepAxis("seed", (seed, seed + 1)),
                SweepAxis("machine.channels", (1, 2)),
            ),
            baselines=False,  # unprotected is already an explicit axis value
        )
        # Set-up compiles and plans once, as a sweep's first run does.  Each
        # pass compiles again, and run_sweep plans again, inside the pass
        # wall that throughputs divide by (pass_metrics).
        self.compiled = self.spec.compile()
        self.plan = plan_sweep(list(self.compiled.jobs))
        self.accesses = _distinct_trace_records(self.compiled.jobs)

    def run_pass(self) -> Pass:
        from repro.cpu.spec_profiles import SPEC_PROFILES
        from repro.experiments import trace_cache
        from repro.experiments.checkpoints import CheckpointStore
        from repro.experiments.pareto import ParetoAggregator
        from repro.experiments.sweep import run_sweep
        from repro.schemes import scheme_name_of

        trace_cache.clear_memo()
        directory = scratch_dir("sweep-store-")
        aggregator = ParetoAggregator()
        try:
            started = perf()
            run = run_sweep(
                self.spec.compile(),
                workers=1,
                checkpoints=CheckpointStore(directory),
                label=self.name,
                aggregator=aggregator,
            )
            digest = aggregator.aggregate_digest()
            wall = perf() - started
        finally:
            remove_dir(directory)
        jobs = [
            Job(
                record.digest,
                record.wall_ms / 1000.0,
                record.checkpoint_hits > 0,
                record.num_requests * record.cores,
            )
            for record in run.manifest.records
        ]
        rows: dict[str, list[tuple]] = {}
        for spec in self.compiled.jobs:
            if scheme_name_of(spec.level) != "obfusmem_auth" or (
                spec.machine.channels != 1
            ):
                continue
            anchor = dataclasses.replace(spec, level="unprotected")
            rows.setdefault(spec.benchmark, []).append(
                (
                    run.result_for(anchor),
                    run.result_for(spec),
                    SPEC_PROFILES[spec.benchmark].obfusmem_overhead_pct,
                )
            )
        return Pass(
            wall_s=wall,
            jobs=jobs,
            digests={"aggregate": digest},
            requests=sum(result.num_requests for result in run.results.values()),
            accesses=self.accesses,
            results=list(run.results.values()),
            table3_error_pp=_table3_error(rows),
            resumed_events=run.manifest.events_resumed,
        )


def pass_metrics(passes: list[Pass]) -> dict:
    """Throughputs and job timings over a run's passes.

    Every job of a pass repeats in every other pass with the same inputs.
    A shared host's speed drifts between states that last seconds to
    minutes, about as long as a run.  Means over the whole run average
    those states in proportion to the time spent in each; a median snaps
    to whichever state held most of the run, which makes run-to-run
    figures bimodal.  So throughputs divide all the work of every pass by
    the passes' whole wall time (the runner, and the sweep's compile, plan
    and fold, included), and each job's latency is the mean of its
    repetitions.  Medians and tails are taken over these per-job means,
    one sample per distinct job (see ``common.timing`` for workloads with
    too few jobs for a tail).
    """
    repeats: dict[str, list[float]] = {}
    for one in passes:
        for job in one.jobs:
            repeats.setdefault(job.key, []).append(job.latency_s)
    means = {key: statistics.fmean(runs) for key, runs in repeats.items()}
    kinds = {job.key: job.hit for job in passes[0].jobs}
    every = [job for one in passes for job in one.jobs]
    wall = sum(one.wall_s for one in passes)

    def series(hit: bool | None, scale: float = 1.0) -> dict:
        return timing(
            [means[key] for key, kind in kinds.items() if hit in (None, kind)],
            [job.latency_s for job in every if hit in (None, job.hit)],
            scale,
        )

    return {
        "requests_per_s": ratio(sum(job.requests for job in every), wall),
        "accesses_per_s": ratio(sum(one.accesses for one in passes), wall),
        "job_s": series(None),
        "hit_ms": series(True, 1000.0),
        "miss_s": series(False),
    }


CLOSED_LOOP = {cls.name: cls for cls in (PaperGrid, AppKernels, SweepExtend)}
