"""Worker-pool supervisor tests: execution, crash requeue, kills, restarts.

The pool is driven directly (no service, no sockets) through a probe that
records the ``on_running`` / ``on_requeue`` / ``on_outcome`` callbacks,
so each supervision behaviour is pinned where it is implemented.  The
final test goes through :class:`~repro.serve.service.SimulationService`
to prove the kill-a-worker-mid-job story holds end to end: the job is
requeued, re-run, and still lands DONE.
"""

import asyncio
import os
import signal
import threading
import time

import pytest

from repro.experiments.checkpoints import build_world
from repro.experiments.executor import JobSpec, result_to_jsonable
from repro.serve.jobs import JobBoard, JobState
from repro.serve.pool import WorkerPool
from repro.serve.service import ServiceConfig, SimulationService, decode_submission

from tests.serve.helpers import fast_jobspec, slow_spec


def slow_jobspec(seed: int) -> JobSpec:
    """A distinct-seeded slow JobSpec (~250 ms cold)."""
    return decode_submission(slow_spec(seed))[0]


class PoolProbe:
    """Collects pool callbacks so tests can wait on them from any thread."""

    def __init__(self):
        self.running = []
        self.requeued = []
        self.outcomes = {}
        self._changed = threading.Condition()

    def on_running(self, job, worker):
        with self._changed:
            self.running.append((job.id, worker))
            self._changed.notify_all()

    def on_requeue(self, job):
        with self._changed:
            self.requeued.append(job.id)
            self._changed.notify_all()

    def on_outcome(self, job, outcome):
        with self._changed:
            self.outcomes[job.id] = outcome
            self._changed.notify_all()

    def wait_outcome(self, job_id, timeout_s=120.0):
        """Block until ``job_id`` has an outcome; fail the test otherwise."""
        deadline = time.monotonic() + timeout_s
        with self._changed:
            while job_id not in self.outcomes:
                remaining = deadline - time.monotonic()
                assert remaining > 0, f"no outcome for {job_id} within {timeout_s}s"
                self._changed.wait(remaining)
            return self.outcomes[job_id]

    def wait_running(self, job_id, timeout_s=60.0):
        """Block until ``job_id`` was handed to a worker."""
        deadline = time.monotonic() + timeout_s
        with self._changed:
            while all(job_id != seen for seen, _w in self.running):
                remaining = deadline - time.monotonic()
                assert remaining > 0, f"{job_id} never started within {timeout_s}s"
                self._changed.wait(remaining)


def make_pool(probe, workers=1, **overrides):
    """A started cache-less pool reporting into ``probe``."""
    params = dict(
        cache_dir=None,
        on_running=probe.on_running,
        on_outcome=probe.on_outcome,
        on_requeue=probe.on_requeue,
    )
    params.update(overrides)
    return WorkerPool(workers, **params).start()


def busy_pid(pool, job_id, timeout_s=30.0):
    """The pid of the worker currently running ``job_id``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        for row in pool.snapshot()["workers"]:
            if row["job"] == job_id:
                return row["pid"]
        time.sleep(0.005)
    raise AssertionError(f"no worker picked up {job_id}")


class TestExecution:
    def test_executes_and_reports_bit_identical_results(self):
        board = JobBoard()
        probe = PoolProbe()
        pool = make_pool(probe)
        try:
            job = board.create(fast_jobspec())
            pool.dispatch(job)
            outcome = probe.wait_outcome(job.id)
        finally:
            pool.stop()
        assert outcome.status == "ok"
        assert outcome.source == "simulated"
        assert outcome.sim_events > 0
        assert outcome.result_payload == result_to_jsonable(fast_jobspec().execute())
        probe.wait_running(job.id)  # on_running fired before the outcome

    def test_cold_job_reports_the_engines_event_count(self):
        world = build_world(fast_jobspec())
        world.run()
        board = JobBoard()
        probe = PoolProbe()
        pool = make_pool(probe)
        try:
            job = board.create(fast_jobspec())
            pool.dispatch(job)
            outcome = probe.wait_outcome(job.id)
        finally:
            pool.stop()
        assert outcome.source == "simulated"
        assert outcome.sim_events == world.events_executed > 0

    def test_shard_routing_is_deterministic(self):
        probe = PoolProbe()
        pool = make_pool(probe, workers=4)
        try:
            digest = fast_jobspec().digest()
            shards = {pool._shard_of(digest) for _ in range(8)}
            assert len(shards) == 1
            assert 0 <= shards.pop() < 4
        finally:
            pool.stop()

    def test_persistent_workers_survive_across_jobs(self):
        board = JobBoard()
        probe = PoolProbe()
        pool = make_pool(probe)
        try:
            first = board.create(fast_jobspec())
            pool.dispatch(first)
            probe.wait_outcome(first.id)
            pid_before = pool.snapshot()["workers"][0]["pid"]
            second = board.create(fast_jobspec(seed=8))
            pool.dispatch(second)
            probe.wait_outcome(second.id)
            snapshot = pool.snapshot()
        finally:
            pool.stop()
        # Same process served both jobs: no fork-per-job.
        assert snapshot["workers"][0]["pid"] == pid_before
        assert snapshot["workers"][0]["completed"] == 2
        assert snapshot["restarts_total"] == 0


class TestSupervision:
    def test_worker_crash_requeues_job_until_it_completes(self):
        board = JobBoard()
        probe = PoolProbe()
        pool = make_pool(probe, max_requeues=2)
        try:
            job = board.create(slow_jobspec(seed=301))
            pool.dispatch(job)
            os.kill(busy_pid(pool, job.id), signal.SIGKILL)
            outcome = probe.wait_outcome(job.id)
            snapshot = pool.snapshot()
        finally:
            pool.stop()
        assert outcome.status == "ok"
        assert job.attempts == 1
        assert probe.requeued == [job.id]
        assert snapshot["restarts_total"] >= 1
        assert snapshot["requeues_total"] == 1
        # The replacement worker re-ran it from scratch.
        assert sum(1 for seen, _w in probe.running if seen == job.id) == 2

    def test_crash_past_requeue_budget_fails_the_job(self):
        board = JobBoard()
        probe = PoolProbe()
        pool = make_pool(probe, max_requeues=0)
        try:
            job = board.create(slow_jobspec(seed=302))
            pool.dispatch(job)
            os.kill(busy_pid(pool, job.id), signal.SIGKILL)
            outcome = probe.wait_outcome(job.id)
        finally:
            pool.stop()
        assert outcome.status == "failed"
        assert "worker process died" in outcome.error
        assert probe.requeued == []

    def test_deadline_kills_the_worker_process(self):
        board = JobBoard()
        probe = PoolProbe()
        pool = make_pool(probe)
        try:
            job = board.create(slow_jobspec(seed=303), timeout_s=0.05)
            pool.dispatch(job)
            doomed = busy_pid(pool, job.id)
            outcome = probe.wait_outcome(job.id)
            # Give the respawn a beat, then check the slot was replaced.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                row = pool.snapshot()["workers"][0]
                if row["alive"] and row["pid"] != doomed:
                    break
                time.sleep(0.005)
            row = pool.snapshot()["workers"][0]
        finally:
            pool.stop()
        assert outcome.status == "timeout"
        assert "timed out" in outcome.error
        assert row["pid"] != doomed and row["alive"]

    def test_cancel_running_kills_and_cancel_queued_removes(self):
        board = JobBoard()
        probe = PoolProbe()
        pool = make_pool(probe)
        try:
            running = board.create(slow_jobspec(seed=304))
            queued = board.create(slow_jobspec(seed=305))
            pool.dispatch(running)
            pool.dispatch(queued)
            busy_pid(pool, running.id)
            assert pool.cancel(queued) == "queued"
            assert pool.cancel(running) == "running"
            outcome = probe.wait_outcome(running.id)
            assert outcome.status == "cancelled"
            # The queued job was removed before any worker saw it: the
            # caller owns its fate and no outcome ever fires for it.
            assert queued.id not in probe.outcomes
            assert pool.cancel(queued) == "missing"
        finally:
            pool.stop()

    def test_stop_reports_leftovers_instead_of_dropping_them(self):
        board = JobBoard()
        probe = PoolProbe()
        pool = make_pool(probe)
        running = board.create(slow_jobspec(seed=306))
        queued = board.create(slow_jobspec(seed=307))
        pool.dispatch(running)
        pool.dispatch(queued)
        busy_pid(pool, running.id)
        pool.stop()
        for job in (running, queued):
            outcome = probe.wait_outcome(job.id, timeout_s=5.0)
            assert outcome.status in ("ok", "cancelled")


class TestServiceSupervision:
    def test_killed_worker_mid_job_still_lands_done(self):
        async def scenario():
            config = ServiceConfig(
                workers=1, queue_depth=4, cache_dir=None, retry_after_s=0.25
            )
            service = SimulationService(config)
            await service.start()
            try:
                job = service.submit(slow_jobspec(seed=308))
                assert await service.board.wait(
                    job, timeout_s=60.0, seen_transitions=1
                )
                pid = None
                deadline = time.monotonic() + 30.0
                while pid is None and time.monotonic() < deadline:
                    rows = service.metrics()["workers_detail"]
                    pid = next(
                        (row["pid"] for row in rows if row["job"] == job.id), None
                    )
                    if pid is None:
                        await asyncio.sleep(0.005)
                assert pid is not None, "worker never picked the job up"
                os.kill(pid, signal.SIGKILL)
                assert await service.board.wait(job, timeout_s=120.0)
                assert job.state is JobState.DONE
                assert job.attempts == 1
                states = [state for _t, state in job.transitions]
                # RUNNING -> (crash) QUEUED -> RUNNING -> DONE
                assert states.count("running") == 2
                assert states.count("queued") == 2
                metrics = service.metrics()
                assert metrics["worker_restarts"] >= 1
                assert metrics["counters"]["serve.requeued"] == 1.0
                assert metrics["workers_online"] == 1
            finally:
                await service.drain()

        asyncio.run(scenario())


@pytest.mark.parametrize("workers", [1, 3])
def test_snapshot_shape(workers):
    probe = PoolProbe()
    pool = make_pool(probe, workers=workers)
    try:
        snapshot = pool.snapshot()
    finally:
        pool.stop()
    assert snapshot["workers_online"] == workers
    assert snapshot["queued"] == 0 and snapshot["running"] == 0
    assert len(snapshot["workers"]) == workers
    for row in snapshot["workers"]:
        assert row["state"] == "idle" and row["alive"]
        assert isinstance(row["pid"], int)
