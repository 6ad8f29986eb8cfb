"""Bench: warm-started sweeps — fork-from-checkpoint vs cold execution.

A request-count sweep of one configuration shares a trace prefix, so each
job can fork from the deepest safe-prefix checkpoint a shorter sibling
left behind instead of re-simulating the shared prefix from zero (see
``repro/experiments/checkpoints.py``).  The scenario benchmarked here is
the common incremental one: a short sweep has already run with a
checkpoint store (the untimed seed phase), and now the sweep is
*extended* to longer traces.  Cold, every extension job replays its full
event stream; warm, each forks from the snapshot its next-shorter sibling
saved at 90 % trace progress and simulates only the remainder — a >4x
reduction in kernel events on this grid.

The test asserts the warm results are **bit-identical** to the cold ones
(execution times and full stats) and that warm is at least 2x faster in
wall-clock, then writes both timings plus the speedup to
``benchmarks/BENCH_checkpoint_sweep.json``.  The event-count arithmetic,
not machine speed, produces the win, so the 2x floor holds across hosts.
"""

import json
import shutil
import tempfile
import time
from pathlib import Path

import pytest

from conftest import SEED, run_once
from repro.experiments.checkpoints import CheckpointStore
from repro.experiments.executor import JobSpec, ParallelRunner

SWEEP_BENCHMARK = "mcf"
SWEEP_SCHEME = "obfusmem_auth"  # the paper's full scheme; uniform event cost
SEED_LENGTHS = [1000, 2000, 3000, 4000, 5000]  # untimed: populates the store
EXTENSION_LENGTHS = [6000, 7000, 8000, 9000, 10000]  # timed: cold vs warm
MIN_WARM_SPEEDUP = 2.0
OUTPUT_PATH = Path(__file__).parent / "BENCH_checkpoint_sweep.json"

_runs: dict[str, object] = {}


def _specs(lengths):
    return [
        JobSpec(SWEEP_BENCHMARK, SWEEP_SCHEME, num_requests=n, seed=SEED)
        for n in lengths
    ]


def _run_extension(store=None):
    runner = ParallelRunner(workers=1, checkpoints=store)
    started = time.perf_counter()
    results = runner.run(_specs(EXTENSION_LENGTHS), label="checkpoint-sweep")
    return results, time.perf_counter() - started


def test_cold_extension_baseline(benchmark):
    results, elapsed = run_once(benchmark, _run_extension)
    _runs["cold_s"] = elapsed
    _runs["cold_results"] = results
    assert len(results) == len(EXTENSION_LENGTHS)


def test_warm_extension_is_twice_as_fast_and_bit_identical(benchmark):
    directory = Path(tempfile.mkdtemp(prefix="repro-ckpt-bench-"))
    try:
        store = CheckpointStore(directory)
        # Seed phase (untimed): the short sweep that, in the modelled
        # workflow, already ran yesterday and left its snapshots behind.
        seed_started = time.perf_counter()
        ParallelRunner(workers=1, checkpoints=store).run(
            _specs(SEED_LENGTHS), label="checkpoint-sweep-seed"
        )
        _runs["seed_s"] = time.perf_counter() - seed_started

        results, elapsed = run_once(benchmark, _run_extension, store)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    _runs["warm_s"] = elapsed
    cold_results = _runs.get("cold_results") or _run_extension()[0]
    # Headline correctness: forking from a snapshot must be invisible in
    # the physics — identical execution times AND identical full stats.
    for cold, warm in zip(cold_results, results):
        assert warm.execution_time_ns == cold.execution_time_ns
        assert warm.stats == cold.stats
    cold_s = _runs.get("cold_s")
    if cold_s is not None:
        _runs["speedup"] = cold_s / elapsed
        assert _runs["speedup"] >= MIN_WARM_SPEEDUP


def _emit():
    if "cold_s" not in _runs or "warm_s" not in _runs:
        return  # a subset of the module ran; don't emit a partial record
    payload = {
        "bench": "checkpoint_sweep",
        "benchmark": SWEEP_BENCHMARK,
        "scheme": SWEEP_SCHEME,
        "seed_lengths": SEED_LENGTHS,
        "extension_lengths": EXTENSION_LENGTHS,
        "seed_s": round(_runs.get("seed_s", 0.0), 4),
        "cold_s": round(_runs["cold_s"], 4),
        "warm_s": round(_runs["warm_s"], 4),
        "speedup": round(_runs["cold_s"] / _runs["warm_s"], 3),
        "min_speedup_asserted": MIN_WARM_SPEEDUP,
        "bit_identical": True,  # asserted above, for the record
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=1))


@pytest.fixture(scope="module", autouse=True)
def _emit_bench_json():
    """Write ``BENCH_checkpoint_sweep.json`` once both phases have run."""
    yield
    _emit()
