"""Preemptible jobs: deadline slices checkpoint-and-requeue instead of kill.

With a persistent cache directory the pool gives each budgeted job its
timeout as a *slice* budget: a worker that cannot finish in time snapshots
the live world into the shared checkpoint store, replies ``preempted`` and
stays alive; the supervisor requeues the job and the next slice resumes
from the snapshot.  These tests pin that whole story at the pool layer
(callbacks, counters, no kills) and end to end through
:class:`~repro.serve.service.SimulationService` (PREEMPTED transitions,
``/metrics`` counters, the final result still bit-identical).
"""

import asyncio
import time

from repro.experiments.executor import JobSpec, result_to_jsonable
from repro.serve.jobs import JobBoard, JobState
from repro.serve.pool import WorkerPool
from repro.serve.service import ServiceConfig, SimulationService

from tests.serve.test_pool import PoolProbe


def long_jobspec(seed: int, n: int = 4000) -> JobSpec:
    """A distinct-seeded job slow enough to outlive a tiny slice budget."""
    return JobSpec(benchmark="mcf", level="obfusmem_auth", num_requests=n, seed=seed)


class PreemptProbe(PoolProbe):
    """PoolProbe plus the ``on_preempted`` callback stream."""

    def __init__(self):
        super().__init__()
        self.preempted = []

    def on_preempted(self, job, outcome):
        with self._changed:
            self.preempted.append(
                (
                    job.id,
                    outcome.sim_events,
                    outcome.wall_ms,
                    outcome.checkpoint_hits,
                    outcome.checkpoint_misses,
                )
            )
            self._changed.notify_all()


def make_preemptible_pool(probe, tmp_path, workers=1, **overrides):
    params = dict(
        cache_dir=tmp_path / "cache",
        on_running=probe.on_running,
        on_outcome=probe.on_outcome,
        on_requeue=probe.on_requeue,
        on_preempted=probe.on_preempted,
    )
    params.update(overrides)
    return WorkerPool(workers, **params).start()


class TestPoolPreemption:
    def test_deadline_preempts_and_resumes_to_completion(self, tmp_path):
        board = JobBoard()
        probe = PreemptProbe()
        pool = make_preemptible_pool(probe, tmp_path)
        try:
            job = board.create(long_jobspec(seed=71), timeout_s=0.08)
            pool.dispatch(job)
            outcome = probe.wait_outcome(job.id)
            fleet = pool.snapshot()
        finally:
            pool.stop()
        # The budget was far too small for one slice, yet the job *finished*
        # — each expiry checkpointed and requeued instead of killing.
        assert outcome.status == "ok"
        assert outcome.source == "simulated"
        assert job.preemptions >= 1
        assert len(probe.preempted) == job.preemptions
        assert fleet["kills_total"] == 0
        assert fleet["preemptions_total"] == job.preemptions
        # The finishing slice resumed from a stored snapshot.
        assert outcome.checkpoint_hits == 1
        # Preempted slices reported real progress.
        for _job_id, events, _wall, _hits, _misses in probe.preempted:
            assert events > 0
        # And the stitched-together result is the cold result, bit for bit.
        direct = long_jobspec(seed=71).execute()
        assert outcome.result_payload == result_to_jsonable(direct)

    def test_preemption_budget_exhaustion_times_out_without_kills(self, tmp_path):
        board = JobBoard()
        probe = PreemptProbe()
        pool = make_preemptible_pool(
            probe, tmp_path, max_preemptions=1, preempt_grace_s=30.0
        )
        try:
            job = board.create(long_jobspec(seed=72, n=20_000), timeout_s=0.03)
            pool.dispatch(job)
            outcome = probe.wait_outcome(job.id)
            fleet = pool.snapshot()
        finally:
            pool.stop()
        assert outcome.status == "timeout"
        assert "preempted" in outcome.error
        assert job.preemptions == 2  # the slice past the limit resolves it
        assert fleet["kills_total"] == 0  # the worker was never terminated

    def test_cancel_during_preempted_requeue_wins(self, tmp_path):
        board = JobBoard()
        probe = PreemptProbe()
        pool = make_preemptible_pool(probe, tmp_path)
        try:
            job = board.create(long_jobspec(seed=73, n=20_000), timeout_s=0.05)
            pool.dispatch(job)
            deadline = time.monotonic() + 60.0
            while not probe.preempted:  # let at least one slice expire
                assert time.monotonic() < deadline
                time.sleep(0.005)
            job.cancel.set()
            outcome = probe.wait_outcome(job.id)
        finally:
            pool.stop()
        assert outcome.status == "cancelled"

    def test_cacheless_pool_still_kills_on_deadline(self, tmp_path):
        """Without a checkpoint store the old deadline-kill contract holds."""
        board = JobBoard()
        probe = PreemptProbe()
        pool = make_preemptible_pool(probe, tmp_path, cache_dir=None)
        try:
            job = board.create(long_jobspec(seed=74), timeout_s=0.05)
            pool.dispatch(job)
            outcome = probe.wait_outcome(job.id)
            fleet = pool.snapshot()
        finally:
            pool.stop()
        assert outcome.status == "timeout"
        assert probe.preempted == []
        assert fleet["kills_total"] == 1


class TestJobStateContract:
    def test_preempted_is_not_terminal(self):
        assert not JobState.PREEMPTED.terminal

    def test_preemptions_ship_in_the_job_json(self):
        job = JobBoard().create(long_jobspec(seed=75))
        job.preemptions = 3
        assert job.to_jsonable()["preemptions"] == 3


class TestServicePreemption:
    def test_long_job_completes_across_preempted_slices(self, tmp_path):
        async def scenario():
            service = SimulationService(
                ServiceConfig(
                    workers=1,
                    cache_dir=tmp_path / "cache",
                    default_timeout_s=0.08,
                )
            )
            await service.start()
            try:
                job = service.submit(long_jobspec(seed=81))
                assert await service.board.wait(job, timeout_s=120.0)
                # Preempted, resumed — and DONE, not TIMEOUT.
                assert job.state is JobState.DONE
                assert job.preemptions >= 1
                states = [state for _t, state in job.transitions]
                assert "preempted" in states
                assert states.index("preempted") < states.index("done")
                # Slice accounting accumulated onto the job record.
                assert job.sim_events > 0
                direct = long_jobspec(seed=81).execute()
                assert result_to_jsonable(job.result) == result_to_jsonable(direct)
                metrics = service.metrics()
                assert metrics["job_preemptions"] == job.preemptions
                assert metrics["checkpoint_hits"] >= 1
                assert metrics["checkpoint_misses"] >= 1
                assert 0.0 < metrics["checkpoint_hit_ratio"] < 1.0
                # Preempted slices' trace lookups count too: the first
                # slice built the trace, so at least one lookup happened.
                assert metrics["trace_cache_hits"] + metrics["trace_cache_misses"] >= 1
                assert metrics["counters"]["serve.preempted"] == job.preemptions
                assert metrics["worker_kills"] == 0
            finally:
                await service.drain()

        asyncio.run(scenario())

    def test_preemption_progress_wakes_long_poll_waiters(self, tmp_path):
        """PREEMPTED transitions are visible to progress-stream waiters."""

        async def scenario():
            service = SimulationService(
                ServiceConfig(
                    workers=1,
                    cache_dir=tmp_path / "cache",
                    default_timeout_s=0.08,
                )
            )
            await service.start()
            try:
                job = service.submit(long_jobspec(seed=82))
                seen = len(job.transitions)
                states = []
                while not job.state.terminal:
                    assert await service.board.wait(
                        job, timeout_s=120.0, seen_transitions=seen
                    )
                    states.extend(
                        state for _t, state in job.transitions[seen:]
                    )
                    seen = len(job.transitions)
                assert "preempted" in states
                assert states[-1] == "done"
            finally:
                await service.drain()

        asyncio.run(scenario())
