"""Bench: prefix-sharing sweep schedule vs naive shuffled execution.

A compiled design-space sweep contains many *families* — specs identical
except for ``num_requests`` — and a naive executor pays the shared trace
prefix of every family member from zero.  The prefix-sharing scheduler
(``repro/experiments/sweep.py``) runs each family shortest-first, persists
a few late-milestone snapshots per seeding member, and forks every longer
member from the deepest snapshot its predecessor left, so a family of
lengths ``n_1 < ... < n_k`` costs roughly ``n_1 + sum(n_i - 0.9 n_{i-1})``
events instead of ``sum(n_i)``.

The grid here compiles to 120 points (24 families x 5 request counts over
two benchmarks, three schemes, two seeds and two channel widths).  The
test executes it both ways — naive: shuffled, cold, no store; scheduled:
``run_sweep`` with a fresh checkpoint store — asserts the scheduled run is
at least 1.5x faster, that every planned warm start actually forked, that
every per-digest result is bit-identical, and that the Pareto aggregates
(the frontier fold both executions feed) hash identically, then writes
``benchmarks/BENCH_sweep_scaling.json``.  The speedup divides two
wall-clock phases, so it moves with the host; the warm starts that land,
and the events they resume, do not.
"""

import json
import random
import shutil
import tempfile
import time
from pathlib import Path

import pytest

from conftest import SEED, run_once
from repro.experiments import trace_cache
from repro.experiments.checkpoints import CheckpointStore
from repro.experiments.executor import ParallelRunner
from repro.experiments.pareto import ParetoAggregator
from repro.experiments.sweep import SweepAxis, SweepSpec, run_sweep

LENGTHS = [600, 1200, 1800, 2400, 3000]
MIN_SPEEDUP = 1.5
OUTPUT_PATH = Path(__file__).parent / "BENCH_sweep_scaling.json"

SPEC = SweepSpec(
    axes=(
        SweepAxis("benchmark", ("mcf", "astar")),
        SweepAxis("level", ("unprotected", "encryption_only", "obfusmem_auth")),
        SweepAxis("num_requests", tuple(LENGTHS)),
        SweepAxis("seed", (SEED, SEED + 1)),
        SweepAxis("machine.channels", (1, 2)),
    ),
    baselines=False,  # unprotected is already an explicit axis value
)

_runs: dict[str, object] = {}


def _compiled_jobs():
    jobs = list(SPEC.compile().jobs)
    assert len(jobs) >= 100, f"grid shrank to {len(jobs)} points"
    return jobs


def _fold(jobs, results_by_digest):
    """Feed every (spec, result) pair into a fresh Pareto aggregator."""
    aggregator = ParetoAggregator()
    for spec in jobs:
        aggregator.add(spec, results_by_digest[spec.digest()])
    return aggregator


def _run_naive(jobs):
    shuffled = list(jobs)
    random.Random(SEED).shuffle(shuffled)
    runner = ParallelRunner(workers=1)
    trace_cache.clear_memo()  # both phases start with a cold trace memo
    started = time.perf_counter()
    results = runner.run(shuffled, label="sweep-scaling-naive")
    elapsed = time.perf_counter() - started
    return {s.digest(): r for s, r in zip(shuffled, results)}, elapsed


def _run_scheduled(jobs, directory):
    store = CheckpointStore(directory)
    trace_cache.clear_memo()  # both phases start with a cold trace memo
    started = time.perf_counter()
    run = run_sweep(jobs, workers=1, checkpoints=store, label="sweep-scaling")
    elapsed = time.perf_counter() - started
    _runs["warm_starts"] = run.manifest.checkpoint_hits
    _runs["warm_starts_planned"] = run.plan.warm_starts_planned
    _runs["events_resumed"] = run.manifest.events_resumed
    _runs["waves"] = len(run.plan.waves)
    _runs["families"] = run.plan.families
    return run.results, elapsed


def test_naive_shuffled_baseline(benchmark):
    jobs = _compiled_jobs()
    results, elapsed = run_once(benchmark, _run_naive, jobs)
    _runs["naive_s"] = elapsed
    _runs["naive_results"] = results
    _runs["naive_digest"] = _fold(jobs, results).aggregate_digest()
    assert len(results) == len(jobs)


def test_scheduled_sweep_faster_and_bit_identical(benchmark):
    jobs = _compiled_jobs()
    directory = Path(tempfile.mkdtemp(prefix="repro-sweep-bench-"))
    try:
        results, elapsed = run_once(benchmark, _run_scheduled, jobs, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    _runs["scheduled_s"] = elapsed
    assert _runs["warm_starts"] > 0, "scheduler never forked a checkpoint"
    assert _runs["warm_starts"] == _runs["warm_starts_planned"], (
        f"{_runs['warm_starts']} of {_runs['warm_starts_planned']} "
        "planned warm starts forked"
    )
    naive_results = _runs.get("naive_results")
    if naive_results is None:
        naive_results, _runs["naive_s"] = _run_naive(jobs)
        _runs["naive_digest"] = _fold(jobs, naive_results).aggregate_digest()
    # Correctness first: forking must be invisible in the physics.
    for spec in jobs:
        cold, warm = naive_results[spec.digest()], results[spec.digest()]
        assert warm.execution_time_ns == cold.execution_time_ns
        assert warm.stats == cold.stats
    # ... and in the aggregates the frontier is built from.
    scheduled_digest = _fold(jobs, results).aggregate_digest()
    assert scheduled_digest == _runs["naive_digest"]
    _runs["pareto_digest"] = scheduled_digest
    _runs["speedup"] = _runs["naive_s"] / elapsed
    assert _runs["speedup"] >= MIN_SPEEDUP


def _emit():
    if "naive_s" not in _runs or "scheduled_s" not in _runs:
        return  # a subset of the module ran; don't emit a partial record
    payload = {
        "bench": "sweep_scaling",
        "points": len(_compiled_jobs()),
        "lengths": LENGTHS,
        "families": _runs.get("families"),
        "waves": _runs.get("waves"),
        "warm_starts": _runs.get("warm_starts"),
        "warm_starts_planned": _runs.get("warm_starts_planned"),
        "events_resumed": _runs.get("events_resumed"),
        "naive_s": round(_runs["naive_s"], 4),
        "scheduled_s": round(_runs["scheduled_s"], 4),
        "speedup": round(_runs["naive_s"] / _runs["scheduled_s"], 3),
        "min_speedup_asserted": MIN_SPEEDUP,
        "pareto_digest": _runs.get("pareto_digest"),
        "bit_identical": True,  # asserted above, for the record
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=1))


@pytest.fixture(scope="module", autouse=True)
def _emit_bench_json():
    """Write ``BENCH_sweep_scaling.json`` once both phases have run."""
    yield
    _emit()
