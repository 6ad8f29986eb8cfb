"""Shared experiment plumbing: cached runs, parallel prefetch, tables.

Every experiment module (table1/table3/figure4/figure5/table4/energy) runs
benchmarks through :func:`repro.system.run_benchmark`.  This module fronts
that call with a two-layer cache — a process-lifetime dict plus the
persistent on-disk :class:`~repro.experiments.executor.ResultCache` — and a
parallel prefetch step, so a full regeneration of the paper's evaluation
reuses each (benchmark, level, machine, seed) simulation across processes
and can fan cold jobs out over every core.  The scheme×attack matrix
(:mod:`repro.experiments.matrix`) resolves its cells through the same
two layers and the same :func:`prefetch`.

The execution surface is configured once per process::

    from repro.experiments import runner

    runner.configure(workers=4, cache_dir="/tmp/obfus-cache")
    rows = table1.run()          # cold jobs run on 4 workers, warm ones hit
    print(runner.runtime_stats())  # {'executor.memory_hits': ..., ...}

or from any experiment CLI / ``python -m repro experiments`` via
``--workers N``, ``--no-cache``, ``--cache-dir PATH`` and
``--cache-bytes N`` (environment equivalents: ``REPRO_WORKERS``,
``REPRO_NO_CACHE``, ``REPRO_CACHE_DIR``, ``REPRO_CACHE_BYTES``).  This
config is the process's only cache config: front-end traces
(:func:`repro.experiments.trace_cache.cached_trace`) take their store
from :func:`disk_cache` too, so results and traces share one directory
and one byte budget.  Each :func:`prefetch` sweep records a run manifest;
with the disk cache enabled it is written under
``<cache-dir>/manifests/<label>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
from dataclasses import dataclass
from pathlib import Path

from repro.cpu.spec_profiles import BENCHMARK_NAMES, SPEC_PROFILES
from repro.errors import ConfigurationError
from repro.experiments.executor import (
    CACHE_BYTES_ENV,
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    DEFAULT_REQUESTS,
    DEFAULT_SEED,
    NO_CACHE_ENV,
    JobSpec,
    ParallelRunner,
    ResultCache,
    RunManifest,
)
from repro.attacks import add_attack_arguments
from repro.schemes import add_scheme_arguments
from repro.sim import profiling
from repro.sim.statistics import StatRegistry
from repro.system.config import MachineConfig, ProtectionLevel
from repro.system.simulator import RunResult

WORKERS_ENV = "REPRO_WORKERS"
PROFILE_ENV = "REPRO_PROFILE"

#: Process-lifetime results of every job kind, keyed by job digest.
_cache: dict[str, object] = {}
_stats = StatRegistry()


@dataclass
class RunnerConfig:
    """Process-wide execution settings for experiment runs."""

    workers: int = 1
    cache_enabled: bool = True
    cache_dir: Path = DEFAULT_CACHE_DIR
    #: Byte budget for the persistent cache (LRU eviction on write); None
    #: leaves the store unbounded, which is fine for one-shot CLI runs.
    cache_bytes: int | None = None
    profile: bool = False


def _config_from_env() -> RunnerConfig:
    """Build the initial runner config from ``REPRO_*`` environment variables."""
    try:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    except ValueError:
        workers = 1
    try:
        cache_bytes = int(os.environ[CACHE_BYTES_ENV])
    except (KeyError, ValueError):
        cache_bytes = None
    return RunnerConfig(
        workers=max(1, workers),
        cache_enabled=not os.environ.get(NO_CACHE_ENV),
        cache_dir=Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)),
        cache_bytes=cache_bytes,
        profile=bool(os.environ.get(PROFILE_ENV)),
    )


_config = _config_from_env()


def _clear_trace_memo() -> None:
    """Forget memoized traces, so the next lookup reads the new store."""
    # Imported lazily: trace_cache takes its store from this module.
    from repro.experiments import trace_cache

    trace_cache.clear_memo()


def configure(
    workers: int | None = None,
    cache_enabled: bool | None = None,
    cache_dir: str | Path | None = None,
    cache_bytes: int | None = None,
    profile: bool | None = None,
) -> RunnerConfig:
    """Update the process-wide runner config; None leaves a field unchanged.

    ``cache_bytes`` accepts a negative value to mean "back to unbounded"
    (None is the leave-unchanged sentinel shared by every parameter).
    Every call also clears the in-process trace memo.
    """
    if workers is not None:
        _config.workers = max(1, int(workers))
    if cache_enabled is not None:
        _config.cache_enabled = bool(cache_enabled)
    if cache_dir is not None:
        _config.cache_dir = Path(cache_dir)
    if cache_bytes is not None:
        _config.cache_bytes = None if cache_bytes < 0 else int(cache_bytes)
    if profile is not None:
        _config.profile = bool(profile)
    _clear_trace_memo()
    return _config


def get_config() -> RunnerConfig:
    """The live process-wide runner config (mutable via :func:`configure`)."""
    return _config


def reset_config() -> RunnerConfig:
    """Re-derive the runner config from the environment (mainly for tests)."""
    global _config
    _config = _config_from_env()
    _clear_trace_memo()
    return _config


def disk_cache() -> ResultCache | None:
    """The persistent store per current config, or None when disabled."""
    if not _config.cache_enabled:
        return None
    return ResultCache(_config.cache_dir, max_bytes=_config.cache_bytes)


def clear_cache() -> None:
    """Drop the in-memory result cache and counters (the disk cache stays)."""
    _cache.clear()
    global _stats
    _stats = StatRegistry()


def runtime_stats() -> dict[str, float]:
    """Process-lifetime cache/simulation counters, flattened to one dict."""
    return _stats.as_dict()


def simulations_performed() -> int:
    """How many actual simulations this process has executed so far."""
    return int(
        sum(v for k, v in _stats.as_dict().items() if k.endswith(".simulations"))
    )


def cached_run(
    benchmark: str,
    level: ProtectionLevel,
    machine: MachineConfig | None = None,
    num_requests: int = DEFAULT_REQUESTS,
    seed: int = DEFAULT_SEED,
    cores: int = 1,
) -> RunResult:
    """Run (or fetch) one benchmark at one protection level.

    Resolution order: in-memory cache, then the persistent disk cache (when
    enabled), then a fresh simulation whose result feeds both layers.
    """
    spec = JobSpec(
        benchmark=benchmark,
        level=level,
        machine=machine or MachineConfig(),
        num_requests=num_requests,
        seed=seed,
        cores=cores,
    )
    return run_spec(spec)


def _parallel(workers: int) -> ParallelRunner:
    """A runner over this process's two cache layers and counters."""
    return ParallelRunner(
        workers=workers, cache=disk_cache(), memory=_cache, stats=_stats
    )


def run_spec(spec):
    """Resolve one job through both cache layers, executing it on a miss.

    ``spec`` is a :class:`JobSpec` or any spec following the job protocol
    documented on :class:`~repro.experiments.executor.ResultCache`.
    """
    return _parallel(workers=1).run([spec])[0]


def prefetch(specs: list, label: str = "sweep", progress=None) -> RunManifest:
    """Resolve a whole sweep of jobs up front, fanning cold jobs over workers.

    Populates both cache layers, so subsequent :func:`run_spec` calls for
    the same specs are pure in-memory hits.  Returns the sweep's manifest;
    with the disk cache enabled it is also written to
    ``<cache-dir>/manifests/<label>.json``.  ``progress`` (a callable
    taking one :class:`~repro.experiments.executor.JobRecord`) streams
    per-job resolution as the sweep advances.

    With profiling enabled (``--profile`` / ``REPRO_PROFILE``), the sweep
    runs with ``workers=1`` inside :func:`repro.sim.profiling.capture` —
    fork workers cannot feed a parent-side profiler — and the hotspot
    reports are written alongside the manifest as
    ``<label>.profile.json`` / ``<label>.profile.txt``.
    """
    parallel = _parallel(workers=1 if _config.profile else _config.workers)
    capture = profiling.capture() if _config.profile else contextlib.nullcontext()
    with capture as session:
        parallel.run(list(specs), label=label, progress=progress)
    manifest = parallel.manifest
    assert manifest is not None
    manifest_dir = _config.cache_dir / "manifests"
    if _config.cache_enabled:
        manifest.write(manifest_dir / f"{label}.json")
    if session is not None:
        json_path, text_path = session.write_reports(manifest_dir, label)
        print(
            f"[profile] {label}: {session.accountant.events} events in "
            f"{session.wall_s:.3f} s -> {json_path} / {text_path}"
        )
    return manifest


def add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--workers/--no-cache/--cache-dir`` flags.

    Also attaches ``--list-schemes`` and ``--list-attacks`` so every
    experiment CLI can print the protection-scheme and attacker registries
    without running anything.
    """
    add_scheme_arguments(parser)
    add_attack_arguments(parser)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for cold simulations (default: current config)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"persistent result cache directory (default {DEFAULT_CACHE_DIR}/)",
    )
    parser.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        help="byte budget for the persistent cache; least-recently-used "
        "entries are evicted on write (default: unbounded)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile cold simulations (cProfile + event counts); forces "
        "serial execution and writes <label>.profile.{json,txt} next to "
        "the run manifest",
    )


def configure_from_args(args: argparse.Namespace) -> RunnerConfig:
    """Apply parsed :func:`add_runner_arguments` flags to the global config."""
    return configure(
        workers=getattr(args, "workers", None),
        cache_enabled=False if getattr(args, "no_cache", False) else None,
        cache_dir=getattr(args, "cache_dir", None),
        cache_bytes=getattr(args, "cache_bytes", None),
        profile=True if getattr(args, "profile", False) else None,
    )


def select_benchmarks(benchmarks: list[str] | None) -> list[str]:
    """Validate a benchmark subset; None means the full Table 1 suite."""
    if benchmarks is None:
        return list(BENCHMARK_NAMES)
    unknown = [name for name in benchmarks if name not in SPEC_PROFILES]
    if unknown:
        raise ConfigurationError(f"unknown benchmarks: {unknown}")
    return benchmarks


@dataclass(frozen=True)
class TableColumn:
    """One column of a fixed-width text table (header, width, alignment)."""

    header: str
    width: int
    align: str = ">"


def format_table(columns: list[TableColumn], rows: list[list[str]]) -> str:
    """Render a fixed-width text table (the experiment CLIs print these)."""
    header = " ".join(f"{c.header:{c.align}{c.width}}" for c in columns)
    separator = "-" * len(header)
    body = [
        " ".join(f"{cell:{c.align}{c.width}}" for c, cell in zip(columns, row))
        for row in rows
    ]
    return "\n".join([header, separator, *body])
