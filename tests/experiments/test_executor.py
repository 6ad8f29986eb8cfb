"""The experiment execution layer: persistent cache, parallel runner, manifests.

Covers the acceptance criteria of the executor work: cross-process cache
hits (regenerating Table 1 twice in separate processes performs zero
simulations the second time), parallel/serial result identity, cache
invalidation on schema bumps, and corruption tolerance.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.experiments import runner
from repro.experiments.executor import (
    CACHE_SCHEMA_VERSION,
    MANIFEST_SCHEMA_VERSION,
    JobRecord,
    JobSpec,
    ParallelRunner,
    ResultCache,
    RunManifest,
    drain_sweep_warnings,
    result_from_jsonable,
    result_to_jsonable,
    sweep_specs,
)
from repro.errors import ConfigurationError
from repro.system.config import MachineConfig, ProtectionLevel

FAST = dict(num_requests=300, seed=7)
SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _spec(benchmark="astar", level=ProtectionLevel.UNPROTECTED, **overrides):
    params = dict(FAST)
    params.update(overrides)
    return JobSpec(benchmark, level, **params)


class TestJobSpec:
    def test_equal_configs_share_a_digest(self):
        assert hash(MachineConfig()) == hash(MachineConfig())
        assert _spec(machine=MachineConfig()).digest() == _spec(
            machine=MachineConfig()
        ).digest()

    def test_differing_configs_get_distinct_digests(self):
        base = _spec(machine=MachineConfig())
        assert base.digest() != _spec(machine=MachineConfig(channels=2)).digest()
        assert base.digest() != _spec(seed=8).digest()
        assert base.digest() != _spec(level=ProtectionLevel.OBFUSMEM).digest()

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec("quake", ProtectionLevel.UNPROTECTED)

    def test_sweep_specs_grid_order(self):
        levels = [ProtectionLevel.UNPROTECTED, ProtectionLevel.ORAM]
        specs = sweep_specs(["astar", "mcf"], levels, num_requests=100)
        assert [(s.benchmark, s.level) for s in specs] == [
            ("astar", ProtectionLevel.UNPROTECTED),
            ("astar", ProtectionLevel.ORAM),
            ("mcf", ProtectionLevel.UNPROTECTED),
            ("mcf", ProtectionLevel.ORAM),
        ]


class TestResultCache:
    def test_roundtrip_is_exact(self, tmp_path):
        spec = _spec()
        result = spec.execute()
        cache = ResultCache(tmp_path)
        cache.put(spec, result)
        loaded = cache.get(spec)
        assert loaded == result  # dataclass equality covers stats dict
        assert result_from_jsonable(result_to_jsonable(result)) == result

    def test_miss_on_empty_cache(self, tmp_path):
        assert ResultCache(tmp_path).get(_spec()) is None

    def test_schema_bump_invalidates(self, tmp_path, monkeypatch):
        spec = _spec()
        cache = ResultCache(tmp_path)
        cache.put(spec, spec.execute())
        assert cache.get(spec) is not None
        monkeypatch.setattr(
            "repro.experiments.executor.CACHE_SCHEMA_VERSION",
            CACHE_SCHEMA_VERSION + 1,
        )
        # The digest now differs, so the old entry is simply never found.
        assert cache.get(spec) is None

    def test_stale_schema_in_payload_rejected(self, tmp_path):
        spec = _spec()
        cache = ResultCache(tmp_path)
        path = cache.put(spec, spec.execute())
        payload = json.loads(path.read_text())
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None

    def test_foreign_spec_in_payload_rejected(self, tmp_path):
        spec = _spec()
        cache = ResultCache(tmp_path)
        path = cache.put(spec, spec.execute())
        payload = json.loads(path.read_text())
        payload["spec"]["seed"] = 999  # simulated hash collision
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None

    def test_corrupted_file_reads_as_miss(self, tmp_path):
        spec = _spec()
        cache = ResultCache(tmp_path)
        cache.put(spec, spec.execute())
        cache.path_for(spec).write_text("{definitely not json")
        assert cache.get(spec) is None

    def test_corrupted_file_falls_back_to_rerun(self, tmp_path):
        runner.clear_cache()
        runner.configure(cache_enabled=True, cache_dir=tmp_path)
        first = runner.cached_run("astar", ProtectionLevel.UNPROTECTED, **FAST)
        cache = ResultCache(tmp_path)
        cache.path_for(_spec()).write_text("garbage")
        runner.clear_cache()  # force past the in-memory layer (resets counters)
        again = runner.cached_run("astar", ProtectionLevel.UNPROTECTED, **FAST)
        assert again == first
        assert runner.simulations_performed() == 1  # re-ran, did not crash
        # ... and the damaged entry was repaired by the re-run.
        runner.clear_cache()
        runner.cached_run("astar", ProtectionLevel.UNPROTECTED, **FAST)
        assert runner.runtime_stats()["runner.disk_hits"] == 1

    def test_clear_removes_entries(self, tmp_path):
        spec = _spec()
        cache = ResultCache(tmp_path)
        cache.put(spec, spec.execute())
        assert cache.clear() == 1
        assert cache.get(spec) is None


class TestParallelRunner:
    SPECS = [
        _spec("astar"),
        _spec("sjeng"),
        _spec("astar", ProtectionLevel.OBFUSMEM),
    ]

    def test_parallel_matches_serial_bit_identically(self):
        serial = ParallelRunner(workers=1).run(self.SPECS)
        parallel = ParallelRunner(workers=3).run(self.SPECS)
        assert serial == parallel  # full dataclass equality incl. stats

    def test_results_ordered_like_specs(self):
        results = ParallelRunner(workers=2).run(self.SPECS)
        assert [(r.benchmark, r.level) for r in results] == [
            (s.benchmark, s.level) for s in self.SPECS
        ]

    def test_manifest_records_provenance(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = ParallelRunner(workers=2, cache=cache)
        executor.run(self.SPECS, label="first")
        manifest = executor.manifest
        assert manifest.jobs == 3
        assert manifest.cache_misses == 3
        assert all(r.source == "simulated" for r in manifest.records)
        assert all(r.wall_ms > 0 for r in manifest.records)

        rewarmed = ParallelRunner(workers=2, cache=cache)
        rewarmed.run(self.SPECS, label="second")
        assert rewarmed.manifest.cache_hits == 3
        assert {r.source for r in rewarmed.manifest.records} == {"disk"}

        # Same runner again: the in-memory layer answers.
        rewarmed.run(self.SPECS, label="third")
        assert {r.source for r in rewarmed.manifest.records} == {"memory"}

    def test_manifest_json_shape(self, tmp_path):
        executor = ParallelRunner(workers=1)
        executor.run(self.SPECS[:1], label="shape")
        path = executor.manifest.write(tmp_path / "m.json")
        payload = json.loads(path.read_text())
        assert payload["label"] == "shape"
        assert payload["workers"] == 1
        assert payload["jobs"] == 1
        assert payload["cache_misses"] == 1
        assert payload["stats"]["executor.simulations"] == 1
        record = payload["records"][0]
        assert record["benchmark"] == "astar"
        assert record["source"] == "simulated"


class TestWarmStartProvenance:
    """Checkpoint forks must be auditable from the manifest (not invisible)."""

    def _record(self, digest="d", hits=0, resumed=0, source="simulated"):
        return JobRecord(
            digest=digest,
            benchmark="astar",
            level="unprotected",
            channels=1,
            cores=1,
            num_requests=300,
            seed=7,
            source=source,
            wall_ms=1.5,
            checkpoint_hits=hits,
            resumed_from_events=resumed,
        )

    def test_manifest_aggregates_checkpoint_provenance(self):
        manifest = RunManifest(
            label="warm",
            workers=1,
            records=[
                self._record("a"),
                self._record("b", hits=1, resumed=4000),
                self._record("c", hits=1, resumed=2500),
            ],
            wall_clock_s=0.1,
        )
        assert manifest.checkpoint_hits == 2
        assert manifest.events_resumed == 6500

    def test_provenance_round_trips_through_write_and_load(self, tmp_path):
        manifest = RunManifest(
            label="warm",
            workers=2,
            records=[self._record("a", hits=1, resumed=1234)],
            wall_clock_s=0.2,
            warnings=["axis 'levels': dropped 1 duplicate value(s)"],
        )
        path = manifest.write(tmp_path / "warm.json")
        loaded = RunManifest.load(path)
        assert loaded is not None
        assert loaded.records == manifest.records
        assert loaded.warnings == manifest.warnings
        assert loaded.events_resumed == 1234
        payload = json.loads(path.read_text())
        assert payload["checkpoint_hits"] == 1
        assert payload["events_resumed"] == 1234

    def test_schema_skew_loads_as_none(self, tmp_path):
        manifest = RunManifest("warm", 1, [self._record()], 0.1)
        path = manifest.write(tmp_path / "old.json")
        payload = json.loads(path.read_text())
        payload["schema"] = MANIFEST_SCHEMA_VERSION - 1
        path.write_text(json.dumps(payload))
        assert RunManifest.load(path) is None

    def test_runner_records_actual_warm_starts(self, tmp_path):
        from repro.experiments.checkpoints import CheckpointStore

        store = CheckpointStore(tmp_path)
        seeder = ParallelRunner(
            workers=1,
            checkpoints=store,
            checkpoint_interval_events=100,
            checkpoint_save_milestones=(0.5,),
        )
        seeder.run([_spec(num_requests=300)], label="seed")
        (record,) = seeder.manifest.records
        assert record.checkpoint_hits == 0 and record.resumed_from_events == 0

        forker = ParallelRunner(workers=1, checkpoints=store)
        forker.run([_spec(num_requests=600)], label="fork")
        (record,) = forker.manifest.records
        assert record.checkpoint_hits == 1
        assert record.resumed_from_events > 0
        assert forker.manifest.checkpoint_hits == 1
        assert forker.manifest.events_resumed == record.resumed_from_events


class TestSweepSpecsCanonicalization:
    """Duplicate axis values compile away, loudly."""

    def test_duplicate_benchmarks_and_level_spellings_collapse(self):
        drain_sweep_warnings()  # isolate from earlier queued notes
        specs = sweep_specs(
            ["astar", "astar"],
            [ProtectionLevel.ENCRYPTION_ONLY, "encryption_only"],
            num_requests=100,
        )
        assert len(specs) == 1
        warnings = drain_sweep_warnings()
        assert any("'benchmarks'" in w for w in warnings)
        assert any("'levels'" in w for w in warnings)

    def test_warnings_drain_into_the_next_manifest(self):
        drain_sweep_warnings()
        specs = sweep_specs(["astar"], ["unprotected", "unprotected"], num_requests=100)
        executor = ParallelRunner(workers=1)
        executor.run(specs, label="canon")
        assert any("duplicate value" in w for w in executor.manifest.warnings)
        # Drained: the next run's manifest starts clean.
        executor.run(specs, label="clean")
        assert executor.manifest.warnings == []


class TestCachedRunKeying:
    """Regression: the cache key must be by-value, not by-object."""

    def test_equal_machine_configs_share_one_entry(self):
        runner.clear_cache()
        first = runner.cached_run(
            "astar", ProtectionLevel.UNPROTECTED, MachineConfig(), **FAST
        )
        second = runner.cached_run(
            "astar", ProtectionLevel.UNPROTECTED, MachineConfig(), **FAST
        )
        assert first is second
        assert runner.simulations_performed() == 1

    def test_differing_machine_configs_do_not_collide(self):
        runner.clear_cache()
        one = runner.cached_run(
            "astar", ProtectionLevel.UNPROTECTED, MachineConfig(), **FAST
        )
        two = runner.cached_run(
            "astar", ProtectionLevel.UNPROTECTED, MachineConfig(channels=2), **FAST
        )
        assert one is not two
        assert one.channels == 1 and two.channels == 2
        assert runner.simulations_performed() == 2


class TestProfiledPrefetch:
    def test_profiled_sweep_writes_reports(self, tmp_path):
        runner.configure(
            workers=2, cache_enabled=True, cache_dir=tmp_path, profile=True
        )
        runner.clear_cache()
        specs = [_spec(), _spec(level=ProtectionLevel.OBFUSMEM)]
        try:
            manifest = runner.prefetch(specs, label="profiled")
        finally:
            runner.configure(profile=False)
        assert manifest.workers == 1 and manifest.cache_misses == 2
        manifests = tmp_path / "manifests"
        report = json.loads((manifests / "profiled.profile.json").read_text())
        assert report["events_executed"] > 0
        assert (manifests / "profiled.profile.txt").is_file()


SUBPROCESS_SCRIPT = textwrap.dedent(
    """
    from repro.experiments import runner, table1
    table1.run(benchmarks=["astar", "sjeng"], num_requests=300, seed=11)
    print(runner.simulations_performed())
    """
)


class TestCrossProcessCache:
    def _regenerate_table1(self, cache_dir):
        env = os.environ.copy()
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env.pop("REPRO_NO_CACHE", None)
        proc = subprocess.run(
            [sys.executable, "-c", SUBPROCESS_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return int(proc.stdout.strip())

    def test_second_process_performs_zero_simulations(self, tmp_path):
        assert self._regenerate_table1(tmp_path) == 2
        assert self._regenerate_table1(tmp_path) == 0
        manifest = json.loads((tmp_path / "manifests" / "table1.json").read_text())
        assert manifest["cache_hits"] == 2
        assert manifest["cache_misses"] == 0
