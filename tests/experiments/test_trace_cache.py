"""Trace-cache tests: content addressing, damage tolerance, shared budget.

Front-end traces are stored in the runner's one result store, which lets
repeated jobs skip the front end (trace generation / hierarchy filtering)
entirely.  That is only safe if a warm hit is bit-identical to a cold
build, every kind of on-disk damage degrades to a miss, ``--no-cache``
really bypasses the store, and trace entries share one LRU byte budget
with the result entries they live next to.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import runner, trace_cache
from repro.experiments.executor import (
    CACHE_DIR_ENV,
    NO_CACHE_ENV,
    JobSpec,
    ResultCache,
)
from repro.experiments.trace_cache import (
    TRACE_SCHEMA_VERSION,
    KernelTraceSpec,
    SyntheticTraceSpec,
)
from repro.errors import ConfigurationError
from repro.mem.hierarchy import HierarchyConfig
from repro.system.config import ProtectionLevel

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def isolated_trace_cache(tmp_path):
    """Point the runner's cache config at a scratch dir for every test."""
    runner.configure(cache_enabled=True, cache_dir=tmp_path / "cache", cache_bytes=-1)
    trace_cache.reset_counters()
    yield
    runner.reset_config()
    trace_cache.reset_counters()


def small_spec(seed: int = 3) -> SyntheticTraceSpec:
    return SyntheticTraceSpec("astar", 120, seed)


class TestSpecs:
    def test_synthetic_digest_is_stable_and_distinct(self):
        assert small_spec().digest() == small_spec().digest()
        assert small_spec(3).digest() != small_spec(4).digest()
        assert (
            SyntheticTraceSpec("astar", 120, 3).digest()
            != SyntheticTraceSpec("mcf", 120, 3).digest()
        )

    def test_kernel_digest_covers_params_and_hierarchy(self):
        base = KernelTraceSpec.create("sequential_scan", array_bytes=1 << 16)
        assert base.digest() == KernelTraceSpec.create(
            "sequential_scan", array_bytes=1 << 16
        ).digest()
        assert (
            base.digest()
            != KernelTraceSpec.create("sequential_scan", array_bytes=1 << 17).digest()
        )
        narrow = KernelTraceSpec.create(
            "sequential_scan",
            hierarchy=HierarchyConfig(cores=1, l3_assoc=4),
            array_bytes=1 << 16,
        )
        assert base.digest() != narrow.digest()

    def test_specs_carry_the_store_protocol(self):
        spec = small_spec()
        assert spec.schema == TRACE_SCHEMA_VERSION
        assert not hasattr(spec, "execute")  # stored, never run as a job
        built = spec.build()
        assert spec.decode_result(spec.encode_result(built)).records == built.records
        job = JobSpec("astar", ProtectionLevel.UNPROTECTED, num_requests=120, seed=3)
        assert spec.digest() != job.digest()

    def test_invalid_specs_fail_fast(self):
        with pytest.raises(ConfigurationError):
            SyntheticTraceSpec("not-a-benchmark", 100, 1)
        with pytest.raises(ConfigurationError):
            SyntheticTraceSpec("astar", 0, 1)
        with pytest.raises(ConfigurationError):
            KernelTraceSpec(kernel="not-a-kernel")
        with pytest.raises(ConfigurationError):
            KernelTraceSpec(kernel="stencil", params=(("grid_bytes", "huge"),))


class TestTraceCacheStore:
    def test_round_trip_is_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        built = spec.build()
        assert cache.put(spec, built).name == f"{spec.digest()}.json"
        loaded = cache.get(spec)
        assert loaded is not None
        assert loaded.name == built.name
        assert loaded.instructions_per_request == built.instructions_per_request
        assert loaded.records == built.records  # exact floats, exact flags

    def test_kernel_trace_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = KernelTraceSpec.create(
            "random_lookup",
            hierarchy=HierarchyConfig(cores=1, l1_size=4 << 10, l3_size=64 << 10),
            table_bytes=256 << 10,
            lookups=2000,
        )
        built = spec.build()
        cache.put(spec, built)
        loaded = cache.get(spec)
        assert loaded is not None
        assert loaded.records == built.records

    def test_damage_degrades_to_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        path = cache.put(spec, spec.build())

        path.write_text("{corrupt")
        assert cache.get(spec) is None

        payload = {
            "schema": TRACE_SCHEMA_VERSION + 1,
            "spec": spec.to_jsonable(),
            "result": spec.build().to_jsonable(),
        }
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None  # schema skew

        payload["schema"] = TRACE_SCHEMA_VERSION
        for foreign in (
            SyntheticTraceSpec("astar", 120, 99),
            KernelTraceSpec.create("sequential_scan", array_bytes=1 << 16),
        ):
            payload["spec"] = foreign.to_jsonable()
            path.write_text(json.dumps(payload))
            assert cache.get(spec) is None  # digest collision / spec echo mismatch

        payload["spec"] = spec.to_jsonable()
        for body in (
            {"name": "x"},  # no records
            {"name": "x", "instructions_per_request": 1.0, "records": [[1.0, 64]]},
            {"name": "x", "instructions_per_request": 1.0, "records": 5},
            [],
        ):
            payload["result"] = body
            path.write_text(json.dumps(payload))
            assert cache.get(spec) is None  # malformed trace body

        cache.put(spec, spec.build())  # a fresh put repairs the entry
        assert cache.get(spec) is not None


class TestCachedTrace:
    def test_hit_and_miss_counters(self):
        spec = small_spec()
        first = trace_cache.cached_trace(spec)
        second = trace_cache.cached_trace(spec)
        assert first.records == second.records
        assert trace_cache.counters() == (1, 1)

    def test_no_cache_bypasses_the_store(self, tmp_path):
        runner.configure(cache_enabled=False, cache_dir=tmp_path / "off")
        spec = small_spec()
        first = trace_cache.cached_trace(spec)
        second = trace_cache.cached_trace(spec)
        assert second is first  # the in-process memo still serves repeats
        assert trace_cache.counters() == (1, 1)  # build once, memo-hit once
        assert not (tmp_path / "off").exists()  # and nothing was written

    def test_memo_serves_repeats_and_clears(self, tmp_path):
        runner.configure(cache_enabled=False, cache_dir=tmp_path / "off")
        spec = small_spec()
        first = trace_cache.cached_trace(spec)
        assert trace_cache.cached_trace(spec) is first
        trace_cache.clear_memo()
        rebuilt = trace_cache.cached_trace(spec)
        assert rebuilt is not first  # cold again after an explicit clear
        assert rebuilt.records == first.records

    def test_memo_is_bounded_lru(self, tmp_path):
        runner.configure(cache_enabled=False, cache_dir=tmp_path / "off")
        specs = [small_spec(seed) for seed in range(trace_cache.MEMO_MAX_ENTRIES + 1)]
        built = [trace_cache.cached_trace(spec) for spec in specs]
        # The oldest entry was evicted; the newest survives.
        assert trace_cache.cached_trace(specs[-1]) is built[-1]
        assert trace_cache.cached_trace(specs[0]) is not built[0]

    def test_traces_for_benchmark_matches_simulator_seeding(self):
        traces = trace_cache.traces_for_benchmark("astar", 120, seed=7, cores=2)
        assert [t.name for t in traces] == ["astar", "astar"]
        per_core = [
            SyntheticTraceSpec("astar", 120, 7).build(),
            SyntheticTraceSpec("astar", 120, 1007).build(),
        ]
        assert [t.records for t in traces] == [t.records for t in per_core]
        # Warm pass: same traces, all hits.
        again = trace_cache.traces_for_benchmark("astar", 120, seed=7, cores=2)
        assert [t.records for t in again] == [t.records for t in traces]
        assert trace_cache.counters() == (2, 2)


class TestRunnerIntegration:
    def test_runner_configure_drives_the_trace_cache(self, tmp_path):
        spec = small_spec()
        trace_cache.cached_trace(spec)  # built, stored and memoized
        moved = tmp_path / "moved"
        runner.configure(cache_dir=moved)
        trace_cache.cached_trace(spec)  # configure cleared the memo
        assert trace_cache.counters() == (0, 2)
        assert (moved / f"{spec.digest()}.json").is_file()
        assert ResultCache(moved).get(spec).records == spec.build().records

    def test_job_execute_is_identical_warm_and_cold(self, tmp_path):
        runner.configure(cache_enabled=True, cache_dir=tmp_path)
        spec = JobSpec(
            benchmark="astar",
            level=ProtectionLevel.UNPROTECTED,
            num_requests=80,
            seed=5,
        )
        cold = spec.execute()
        assert trace_cache.counters() == (0, 1)
        warm = spec.execute()
        assert trace_cache.counters() == (1, 1)
        assert cold == warm


class TestSharedEviction:
    def test_mixed_result_and_trace_entries_share_the_budget(self, tmp_path):
        """Regression: trace entries must participate in LRU eviction."""
        store = ResultCache(tmp_path)
        old_job, new_job = (
            JobSpec(
                benchmark="astar",
                level=ProtectionLevel.UNPROTECTED,
                num_requests=60,
                seed=seed,
            )
            for seed in (1, 2)
        )
        store.put(old_job, old_job.execute())
        trace = small_spec(1)
        trace_path = store.put(trace, trace.build())
        total = store.size_bytes()
        assert total == sum(p.stat().st_size for p in tmp_path.glob("*.json"))

        # Backdate the trace far past the result entry, then give the
        # directory a budget that forces exactly one eviction when a second
        # result is written.
        stamp = trace_path.stat().st_mtime - 500.0
        os.utime(trace_path, (stamp, stamp))
        new_result = new_job.execute()
        probe = ResultCache(tmp_path / "probe").put(new_job, new_result)
        bounded = ResultCache(tmp_path, max_bytes=total + probe.stat().st_size - 1)
        bounded.put(new_job, new_result)
        assert bounded.get(trace) is None  # LRU trace evicted by a result write
        assert bounded.get(old_job) is not None  # newer result survived
        assert bounded.get(new_job) is not None
        assert bounded.size_bytes() <= bounded.max_bytes

    def test_result_entries_can_be_evicted_by_trace_pressure(self, tmp_path):
        results = ResultCache(tmp_path)
        job = JobSpec(
            benchmark="astar",
            level=ProtectionLevel.UNPROTECTED,
            num_requests=60,
            seed=2,
        )
        result_path = results.put(job, job.execute())
        stamp = result_path.stat().st_mtime - 500.0
        os.utime(result_path, (stamp, stamp))
        spec = small_spec()
        trace_path = results.put(spec, spec.build())
        # Budget for the trace alone: eviction must drop the older result.
        bounded = ResultCache(tmp_path, max_bytes=trace_path.stat().st_size)
        assert bounded.evict() == 1
        assert results.get(job) is None  # the stale result made room
        assert bounded.get(spec) is not None


class TestCrossProcessReuse:
    def _run(self, code: str, cache_dir: Path) -> str:
        environment = dict(
            os.environ,
            PYTHONPATH=str(REPO_ROOT / "src"),
            **{CACHE_DIR_ENV: str(cache_dir)},
        )
        environment.pop(NO_CACHE_ENV, None)
        completed = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=environment,
            cwd=REPO_ROOT,
        )
        assert completed.returncode == 0, completed.stderr
        return completed.stdout

    def test_second_process_skips_the_front_end(self, tmp_path):
        cache_dir = tmp_path / "shared"
        warm = self._run(
            "from repro.experiments import trace_cache\n"
            "traces = trace_cache.traces_for_benchmark('astar', 100, seed=9, cores=2)\n"
            "spec = trace_cache.KernelTraceSpec.create(\n"
            "    'pointer_chase', pool_bytes=64 << 10, hops=4000)\n"
            "kernel = trace_cache.cached_trace(spec)\n"
            "print(trace_cache.counters())\n"
            "print(len(traces[0].records), len(kernel.records))\n",
            cache_dir,
        )
        assert "(0, 3)" in warm  # cold process: all misses

        # Second process: sabotage every front-end entry point, then resolve
        # the same specs.  Success proves zero trace generation and zero
        # hierarchy accesses — the warm cache carried everything.
        reuse = self._run(
            "from repro.cpu.generator import SyntheticTraceGenerator\n"
            "from repro.mem.hierarchy import CacheHierarchy\n"
            "def explode(*args, **kwargs):\n"
            "    raise AssertionError('front end ran on a warm cache')\n"
            "SyntheticTraceGenerator.generate = explode\n"
            "SyntheticTraceGenerator.generate_chunks = explode\n"
            "CacheHierarchy.access = explode\n"
            "CacheHierarchy.access_batch = explode\n"
            "from repro.experiments import trace_cache\n"
            "traces = trace_cache.traces_for_benchmark('astar', 100, seed=9, cores=2)\n"
            "spec = trace_cache.KernelTraceSpec.create(\n"
            "    'pointer_chase', pool_bytes=64 << 10, hops=4000)\n"
            "kernel = trace_cache.cached_trace(spec)\n"
            "print(trace_cache.counters())\n"
            "print(len(traces[0].records), len(kernel.records))\n",
            cache_dir,
        )
        assert "(3, 0)" in reuse  # warm process: all hits, no front end
        assert warm.splitlines()[1] == reuse.splitlines()[1]  # same traces
