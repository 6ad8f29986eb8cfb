"""CheckpointStore and the warm-started executor path."""

import base64
import json
import time

import pytest

from repro.errors import CheckpointError
from repro.experiments.checkpoints import (
    KEEP_PER_FAMILY,
    CheckpointStore,
    execute_with_checkpoints,
    world_for_spec,
)
from repro.experiments.executor import JobSpec, ParallelRunner, ResultCache


def spec(n=300, **overrides) -> JobSpec:
    params = dict(benchmark="mcf", level="obfusmem_auth", num_requests=n, seed=7)
    params.update(overrides)
    return JobSpec(**params)


def snapshot_at(job: JobSpec, events: int):
    world = job.world()
    world.run(stop_after_events=events)
    return world.snapshot()


def _flip_a_payload_bit(raw: bytes) -> bytes:
    """The entry with one bit of its pickled world flipped (JSON intact)."""
    record = json.loads(raw)
    payload = bytearray(base64.b64decode(record["checkpoint"]["payload_b64"]))
    payload[len(payload) // 2] ^= 0x10
    record["checkpoint"]["payload_b64"] = base64.b64encode(payload).decode("ascii")
    return json.dumps(record).encode()


class TestPrefixDigest:
    def test_stable_across_num_requests(self):
        assert spec(n=300).prefix_digest() == spec(n=4000).prefix_digest()

    def test_sensitive_to_everything_else(self):
        base = spec().prefix_digest()
        assert spec(seed=8).prefix_digest() != base
        assert spec(level="oram").prefix_digest() != base
        assert spec(benchmark="astar").prefix_digest() != base


class TestStore:
    def test_put_then_deepest_round_trips(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = spec()
        store.put(job, snapshot_at(job, 500))
        entry = store.deepest(job)
        assert entry is not None
        assert entry.num_requests == job.num_requests
        assert entry.checkpoint.events_executed >= 500
        world = entry.checkpoint.thaw()
        assert world.events_executed == entry.checkpoint.events_executed

    def test_deepest_prefers_more_progress(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = spec()
        store.put(job, snapshot_at(job, 300))
        store.put(job, snapshot_at(job, 900))
        entry = store.deepest(job)
        assert entry.checkpoint.events_executed >= 900

    def test_finished_worlds_are_refused(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = spec(n=100)
        world = job.world()
        world.run()
        with pytest.raises(CheckpointError, match="finished"):
            store.put(job, world.snapshot())

    def test_shorter_safe_prefix_seeds_a_longer_spec(self, tmp_path):
        store = CheckpointStore(tmp_path)
        short = spec(n=300)
        checkpoint = snapshot_at(short, 800)
        assert checkpoint.safe_prefix
        store.put(short, checkpoint)
        entry = store.deepest(spec(n=600))
        assert entry is not None
        assert entry.num_requests == 300

    def test_longer_runs_never_seed_shorter_specs(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put(spec(n=600), snapshot_at(spec(n=600), 800))
        assert store.deepest(spec(n=300)) is None

    def test_other_families_are_invisible(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = spec()
        store.put(job, snapshot_at(job, 500))
        assert store.deepest(spec(seed=8)) is None
        assert store.deepest(spec(level="oram")) is None

    def test_family_is_pruned_to_the_deepest_few(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = spec()
        depths = [200 * (i + 1) for i in range(KEEP_PER_FAMILY + 2)]
        for events in depths:
            store.put(job, snapshot_at(job, events))
        entries = store.candidates(job)
        assert len(entries) == KEEP_PER_FAMILY
        kept = [entry.checkpoint.events_executed for entry in entries]
        assert kept == sorted(kept, reverse=True)
        assert min(kept) > 200  # the shallowest saves are gone

    def test_damaged_entry_degrades_to_a_miss(self, tmp_path):
        job = spec()
        cold = job.execute()
        damages = {
            "garbage": lambda raw: b"not json at all",
            "truncated": lambda raw: raw[: len(raw) // 2],
            "zero-length": lambda raw: b"",
            "bit-flipped payload": _flip_a_payload_bit,
        }
        for name, damage in damages.items():
            store = CheckpointStore(tmp_path / name)
            path = store.put(job, snapshot_at(job, 500))
            path.write_bytes(damage(path.read_bytes()))
            run = execute_with_checkpoints(job, store, save_milestones=())
            assert run.forked_from_events == 0, name
            assert run.result.execution_time_ns == cold.execution_time_ns, name
            assert run.result.stats == cold.stats, name
            assert store.deepest(job) is None, name

    def test_undecodable_payload_falls_back_to_cold(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = spec()
        path = store.put(job, snapshot_at(job, 500))
        record = json.loads(path.read_text())
        record["checkpoint"]["digest"] = "0" * 64  # thaw-time damage
        path.write_text(json.dumps(record))
        world, forked_from = world_for_spec(job, store)
        assert forked_from == 0
        assert not path.exists()  # the poisoned entry was evicted
        world.run()
        assert world.result().stats == execute_with_checkpoints(job, None).result.stats


class TestExecuteWithCheckpoints:
    def test_cold_and_warm_agree_bit_for_bit(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cold = execute_with_checkpoints(spec(), None)
        assert cold.forked_from_events == 0
        seeded = execute_with_checkpoints(spec(), store)
        assert seeded.checkpoints_saved >= 1
        warm = execute_with_checkpoints(spec(n=600), store)
        assert warm.forked_from_events > 0
        colder = execute_with_checkpoints(spec(n=600), None)
        assert warm.result.execution_time_ns == colder.result.execution_time_ns
        assert warm.result.stats == colder.result.stats
        assert cold.result.stats == execute_with_checkpoints(spec(), store).result.stats

    def test_warm_run_skips_the_forked_events(self, tmp_path):
        store = CheckpointStore(tmp_path)
        execute_with_checkpoints(spec(), store)
        warm = execute_with_checkpoints(spec(n=600), store)
        cold = execute_with_checkpoints(spec(n=600), None)
        assert warm.events_executed < cold.events_executed

    def test_expired_deadline_saves_and_the_next_call_resumes(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = JobSpec("mcf", "obfusmem_auth", num_requests=4000, seed=7)
        preempted = execute_with_checkpoints(
            job, store, save_milestones=(), deadline=time.perf_counter()
        )
        # The clock is read only after a slice, so even an expired deadline
        # makes progress before the world is saved.
        assert preempted.result is None
        assert preempted.events_executed > 0
        assert preempted.checkpoints_saved == 1
        resumed = execute_with_checkpoints(job, store)
        assert resumed.forked_from_events == preempted.events_executed
        cold = job.execute()
        assert resumed.result.execution_time_ns == cold.execution_time_ns
        assert resumed.result.stats == cold.stats


class TestRunnerIntegration:
    def test_sweep_through_the_runner_matches_cold_results(self, tmp_path):
        sweep = [spec(n=n) for n in (200, 400, 600)]
        cold = ParallelRunner(workers=1).run(sweep)
        store = CheckpointStore(tmp_path / "ckpt")
        runner = ParallelRunner(
            workers=1,
            cache=ResultCache(tmp_path / "results"),
            checkpoints=store,
        )
        warm = runner.run(sweep)
        for a, b in zip(cold, warm):
            assert a.execution_time_ns == b.execution_time_ns
            assert a.stats == b.stats
        # The sweep left reusable snapshots behind for future longer runs.
        assert store.deepest(spec(n=800)) is not None
