"""Cache-maintenance tests: bounded eviction and schema-versioned loads.

Satellites of the serving PR: a long-lived service points one
:class:`~repro.experiments.executor.ResultCache` at a directory forever,
so the store must be boundable (LRU-by-mtime eviction) and every JSON
load — cached results and run manifests alike — must degrade to a miss
on version skew or corruption instead of crashing the sweep.
"""

import json
import os

from repro.experiments import runner
from repro.experiments.executor import (
    CACHE_BYTES_ENV,
    CACHE_DIR_ENV,
    CACHE_SCHEMA_VERSION,
    MANIFEST_SCHEMA_VERSION,
    NO_CACHE_ENV,
    JobRecord,
    JobSpec,
    ResultCache,
    RunManifest,
)
from repro.system.config import ProtectionLevel


def spec(seed: int) -> JobSpec:
    """A tiny distinct-digest spec per seed."""
    return JobSpec(
        benchmark="astar",
        level=ProtectionLevel.UNPROTECTED,
        num_requests=50,
        seed=seed,
    )


def fill(cache: ResultCache, seeds) -> dict[int, JobSpec]:
    """Execute and store one entry per seed; returns seed -> spec."""
    specs = {}
    for seed in seeds:
        job = spec(seed)
        cache.put(job, job.execute())
        specs[seed] = job
    return specs


def set_age(cache: ResultCache, job: JobSpec, age_s: float) -> None:
    """Backdate one entry's mtime by ``age_s`` seconds."""
    path = cache.path_for(job)
    stamp = path.stat().st_mtime - age_s
    os.utime(path, (stamp, stamp))


class TestBoundedEviction:
    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, range(4))
        assert cache.evict() == 0
        assert len(list(tmp_path.glob("*.json"))) == 4

    def test_put_evicts_oldest_entries_down_to_budget(self, tmp_path):
        probe = ResultCache(tmp_path)
        specs = fill(probe, range(3))
        entry_bytes = probe.path_for(specs[0]).stat().st_size
        # Budget for roughly two entries: storing a fourth must evict the
        # least-recently-used ones, never the newcomer.
        cache = ResultCache(tmp_path, max_bytes=int(entry_bytes * 2.5))
        for seed, age in ((0, 300.0), (1, 200.0), (2, 100.0)):
            set_age(cache, specs[seed], age)
        newest = spec(3)
        cache.put(newest, newest.execute())
        assert cache.size_bytes() <= cache.max_bytes
        assert cache.get(newest) is not None  # the fresh write survived
        assert cache.get(specs[0]) is None  # oldest went first
        assert cache.get(specs[2]) is not None

    def test_get_refreshes_recency(self, tmp_path):
        probe = ResultCache(tmp_path)
        specs = fill(probe, range(3))
        entry_bytes = probe.path_for(specs[0]).stat().st_size
        cache = ResultCache(tmp_path, max_bytes=int(entry_bytes * 2.5))
        for seed, age in ((0, 300.0), (1, 200.0), (2, 100.0)):
            set_age(cache, specs[seed], age)
        # Touch the oldest entry: the hit must move it off the LRU end.
        assert cache.get(specs[0]) is not None
        newest = spec(4)
        cache.put(newest, newest.execute())
        assert cache.get(specs[0]) is not None  # protected by the hit
        assert cache.get(specs[1]) is None  # now the actual LRU victim

    def test_explicit_evict_with_override_budget(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = fill(cache, range(3))
        for seed, age in ((0, 300.0), (1, 200.0), (2, 100.0)):
            set_age(cache, specs[seed], age)
        assert cache.evict(max_bytes=0) == 3
        assert cache.size_bytes() == 0
        assert cache.evict(max_bytes=0) == 0  # idempotent on empty

    def test_size_bytes_tracks_the_directory(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.size_bytes() == 0
        specs = fill(cache, range(2))
        on_disk = sum(
            cache.path_for(job).stat().st_size for job in specs.values()
        )
        assert cache.size_bytes() == on_disk

    def test_negative_env_budget_is_unbounded(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_BYTES_ENV, "-1")
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.delenv(NO_CACHE_ENV, raising=False)
        try:
            runner.reset_config()
            assert runner.disk_cache().max_bytes is None
        finally:
            monkeypatch.undo()
            runner.reset_config()


class TestCachedResultSchema:
    def test_version_skew_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = spec(1)
        path = cache.put(job, job.execute())
        payload = json.loads(path.read_text())
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.get(job) is None
        # A fresh put repairs the entry in place.
        cache.put(job, job.execute())
        assert cache.get(job) is not None

    def test_corrupt_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = spec(2)
        path = cache.put(job, job.execute())
        path.write_text("{not json at all")
        assert cache.get(job) is None
        path.write_text(json.dumps({"schema": CACHE_SCHEMA_VERSION}))
        assert cache.get(job) is None  # well-formed but missing fields

    def test_damaged_result_body_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = spec(3)
        result = job.execute()
        path = cache.put(job, result)
        payload = json.loads(path.read_text())
        for body in (
            {**payload["result"], "stats": []},
            {**payload["result"], "channels": None},
            [],
        ):
            path.write_text(json.dumps({**payload, "result": body}))
            assert cache.get(job) is None
        cache.put(job, result)  # a fresh put repairs the entry
        assert cache.get(job) == result


class TestManifestSchema:
    def manifest(self) -> RunManifest:
        record = JobRecord(
            digest="d" * 16,
            benchmark="astar",
            level="unprotected",
            channels=4,
            cores=4,
            num_requests=50,
            seed=1,
            source="simulated",
            wall_ms=1.5,
        )
        return RunManifest(
            label="test-sweep",
            workers=2,
            records=[record],
            wall_clock_s=0.25,
            stats={"sim.events": 10.0},
        )

    def test_round_trip(self, tmp_path):
        path = self.manifest().write(tmp_path / "manifest.json")
        assert json.loads(path.read_text())["schema"] == MANIFEST_SCHEMA_VERSION
        loaded = RunManifest.load(path)
        assert loaded is not None
        assert loaded.label == "test-sweep"
        assert loaded.workers == 2
        assert loaded.wall_clock_s == 0.25
        assert loaded.records == self.manifest().records
        assert loaded.cache_hits == 0 and loaded.cache_misses == 1

    def test_version_skew_returns_none(self, tmp_path):
        path = self.manifest().write(tmp_path / "manifest.json")
        payload = json.loads(path.read_text())
        payload["schema"] = MANIFEST_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert RunManifest.load(path) is None

    def test_corruption_and_absence_return_none(self, tmp_path):
        path = self.manifest().write(tmp_path / "manifest.json")
        path.write_text("]:corrupt:[")
        assert RunManifest.load(path) is None
        path.write_text(json.dumps({"schema": MANIFEST_SCHEMA_VERSION}))
        assert RunManifest.load(path) is None  # fields missing
        path.write_text(json.dumps([MANIFEST_SCHEMA_VERSION]))
        assert RunManifest.load(path) is None  # array root, not an object
        assert RunManifest.load(tmp_path / "never-written.json") is None
