"""Bench: raw event-kernel throughput — events/sec through the hot path.

Drives the full simulated system (trace core -> controller -> channel
scheduler -> PCM) for one bandwidth-bound workload (mcf) at the two ends of
the protection spectrum, timing :meth:`Engine.run` directly rather than
going through the experiment cache layers.  The measured events/sec and
requests/sec land in ``benchmarks/BENCH_sim_throughput.json``.

``BENCH_sim_throughput_baseline.json`` pins the pre-rewrite kernel's numbers
(ordered-dataclass heap entries, polling channel scheduler, commit a174f36).
The headline assertion is the PR's acceptance bar: the rebuilt kernel must
sustain at least 2x the baseline events/sec on the ObfusMem level.  Note the
rewrite also *removes* events (wake-on-state-change kills the speculative
polling wakeups: 39,295 -> 31,028 events for this run), so the 2x is earned
entirely on wall-clock, not by inflating the numerator.  Posting completion
events only for requests someone waits on later cut the run to 26,019
events, which lowers events/sec by design.

Wall-clock on shared CI machines is noisy (+/- 5-8 % observed here), so each
level is measured best-of-N and the gate has headroom: post-rewrite the
kernel measures ~2.1x on an idle machine.
"""

import json
import time
from pathlib import Path

import pytest

from conftest import SEED, run_once
from repro.cpu.core import TraceDrivenCore
from repro.cpu.generator import make_trace
from repro.cpu.spec_profiles import SPEC_PROFILES
from repro.crypto.rng import DeterministicRng
from repro.sim.engine import Engine
from repro.sim.statistics import StatRegistry
from repro.system.builder import build_system
from repro.system.config import MachineConfig, ProtectionLevel

BENCHMARK = "mcf"
NUM_REQUESTS = 3000
ROUNDS = 5  # best-of, to shave scheduler noise off the wall-clock
SPEEDUP_FLOOR = 2.0  # acceptance: >= 2x baseline events/sec on ObfusMem

OUTPUT_PATH = Path(__file__).parent / "BENCH_sim_throughput.json"
BASELINE_PATH = Path(__file__).parent / "BENCH_sim_throughput_baseline.json"
BASELINE = json.loads(BASELINE_PATH.read_text())

_measured: dict[str, dict] = {}


def _simulate_once(level):
    """One cold end-to-end simulation; returns (wall_s, events_executed)."""
    profile = SPEC_PROFILES[BENCHMARK]
    trace = make_trace(profile, NUM_REQUESTS, seed=SEED)
    engine = Engine()
    stats = StatRegistry()
    rng = DeterministicRng(SEED).fork(f"run-{trace.name}-{level.value}")
    system = build_system(level, MachineConfig(), engine, stats, rng, bus=None)
    core = TraceDrivenCore(
        engine, trace, system.port, window=profile.window, stats=stats, core_id=0
    )
    core.start()
    started = time.perf_counter()
    engine.run(max_events=2000 * NUM_REQUESTS)
    system.flush()
    engine.run(max_events=2000 * NUM_REQUESTS)
    wall = time.perf_counter() - started
    return wall, engine.events_executed


def _measure(level):
    best_wall, events = None, None
    for _ in range(ROUNDS):
        wall, executed = _simulate_once(level)
        if best_wall is None or wall < best_wall:
            best_wall, events = wall, executed
    record = {
        "events": events,
        "wall_s": round(best_wall, 6),
        "events_per_sec": round(events / best_wall, 1),
        "requests_per_sec": round(NUM_REQUESTS / best_wall, 1),
    }
    _measured[level.value] = record
    return record


def test_throughput_unprotected(benchmark):
    record = run_once(benchmark, _measure, ProtectionLevel.UNPROTECTED)
    assert record["events"] > 0


def test_throughput_obfusmem_meets_2x_floor(benchmark):
    record = run_once(benchmark, _measure, ProtectionLevel.OBFUSMEM_AUTH)
    baseline = BASELINE["levels"]["obfusmem_auth"]["events_per_sec"]
    speedup = record["events_per_sec"] / baseline
    assert speedup >= SPEEDUP_FLOOR, (
        f"kernel throughput regressed: {record['events_per_sec']:,.0f} ev/s is "
        f"{speedup:.2f}x the pre-rewrite {baseline:,.0f} ev/s "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


def _emit():
    payload = {
        "bench": "sim_throughput",
        "benchmark": BENCHMARK,
        "num_requests": NUM_REQUESTS,
        "seed": SEED,
        "rounds": ROUNDS,
        "levels": _measured,
        "baseline_events_per_sec": BASELINE["levels"]["obfusmem_auth"][
            "events_per_sec"
        ],
    }
    if "obfusmem_auth" in _measured:
        payload["speedup_vs_baseline"] = round(
            _measured["obfusmem_auth"]["events_per_sec"]
            / BASELINE["levels"]["obfusmem_auth"]["events_per_sec"],
            3,
        )
    OUTPUT_PATH.write_text(json.dumps(payload, indent=1) + "\n")


@pytest.fixture(scope="module", autouse=True)
def _emit_bench_json():
    yield
    if _measured:
        _emit()
