"""Service-core tests: admission, execution, coalescing, cancellation, drain.

These drive :class:`~repro.serve.service.SimulationService` directly on an
event loop — no sockets — so each behaviour is pinned at the layer that
implements it.  The HTTP translation of the same behaviours is covered by
``test_http_api.py``.
"""

import asyncio
import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.executor import ResultCache, result_to_jsonable
from repro.serve.jobs import JobState
from repro.serve.service import (
    ServeError,
    ServiceConfig,
    ServiceSaturated,
    SimulationService,
    decode_submission,
)

from tests.serve.helpers import FAST_SPEC, fast_jobspec, slow_spec


def run(coroutine):
    """Drive one scenario coroutine on a fresh loop."""
    return asyncio.run(coroutine)


def make_service(tmp_path=None, **overrides) -> SimulationService:
    params = dict(workers=2, queue_depth=4, cache_dir=None, retry_after_s=0.25)
    if tmp_path is not None:
        params["cache_dir"] = tmp_path / "cache"
    params.update(overrides)
    return SimulationService(ServiceConfig(**params))


class TestSubmitAndExecute:
    def test_submit_resolves_to_the_direct_result(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            await service.start()
            try:
                job = service.submit(fast_jobspec())
                assert await service.board.wait(job, timeout_s=60.0)
                assert job.state is JobState.DONE
                assert job.source == "simulated"
                assert job.sim_events > 0
                direct = fast_jobspec().execute()
                assert result_to_jsonable(job.result) == result_to_jsonable(direct)
            finally:
                await service.drain()

        run(scenario())

    def test_repeat_submission_hits_the_cache(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            await service.start()
            try:
                first = service.submit(fast_jobspec())
                assert await service.board.wait(first, timeout_s=60.0)
                second = service.submit(fast_jobspec())
                assert await service.board.wait(second, timeout_s=60.0)
                assert second.state is JobState.DONE
                assert second.source == "memory"
                assert result_to_jsonable(second.result) == result_to_jsonable(
                    first.result
                )
            finally:
                await service.drain()

        run(scenario())

    def test_disk_cache_spans_service_instances(self, tmp_path):
        async def scenario():
            first = make_service(tmp_path)
            await first.start()
            try:
                job = first.submit(fast_jobspec())
                assert await first.board.wait(job, timeout_s=60.0)
            finally:
                await first.drain()

            second = make_service(tmp_path)
            await second.start()
            try:
                warm = second.submit(fast_jobspec())
                assert await second.board.wait(warm, timeout_s=60.0)
                assert warm.source == "disk"
                assert result_to_jsonable(warm.result) == result_to_jsonable(
                    job.result
                )
            finally:
                await second.drain()

        run(scenario())

    def test_damaged_cache_entry_is_resimulated(self, tmp_path):
        """A parseable entry with a damaged result body is a miss, not a 500."""
        spec = fast_jobspec()
        direct = spec.execute()
        path = ResultCache(tmp_path / "cache").put(spec, direct)
        payload = json.loads(path.read_text())
        payload["result"]["stats"] = []
        path.write_text(json.dumps(payload))

        async def scenario():
            service = make_service(tmp_path)
            await service.start()
            try:
                job = service.submit(spec)
                assert await service.board.wait(job, timeout_s=60.0)
                assert job.state is JobState.DONE
                assert job.source == "simulated"
                assert result_to_jsonable(job.result) == result_to_jsonable(direct)
                assert service.metrics()["jobs_active"] == 0
            finally:
                await service.drain()

        run(scenario())
        assert ResultCache(tmp_path / "cache").get(spec) == direct  # repaired

    def test_duplicate_inflight_submissions_coalesce(self):
        async def scenario():
            service = make_service(workers=2, queue_depth=8)
            await service.start()
            try:
                spec, _ = decode_submission(slow_spec(seed=21))
                leader = service.submit(spec)
                follower = service.submit(spec)
                assert await service.board.wait(leader, timeout_s=120.0)
                assert await service.board.wait(follower, timeout_s=120.0)
                assert leader.state is JobState.DONE
                assert follower.state is JobState.DONE
                sources = {leader.source, follower.source}
                # Exactly one of the two actually simulated.
                counters = service.stats.as_dict()
                assert counters["serve.simulations"] == 1.0
                assert "simulated" in sources
            finally:
                await service.drain()

        run(scenario())


class TestAdmissionControl:
    def test_saturated_queue_refuses_with_retry_hint(self):
        async def scenario():
            service = make_service(workers=1, queue_depth=2)
            await service.start()
            try:
                # No await between submits, so the worker cannot drain the
                # queue underneath us: depth 2 admits exactly two jobs.
                accepted = [
                    service.submit(decode_submission(slow_spec(seed))[0])
                    for seed in (31, 32)
                ]
                with pytest.raises(ServiceSaturated) as refusal:
                    service.submit(decode_submission(slow_spec(33))[0])
                assert refusal.value.retry_after_s > 0
                counters = service.stats.as_dict()
                assert counters["serve.rejected_saturated"] >= 1.0
                for job in accepted:
                    job.cancel.set()
                await service.drain()
                # Every accepted job reached a terminal state: none dropped.
                assert all(job.state.terminal for job in accepted)
            finally:
                await service.drain()

        run(scenario())

    def test_draining_service_refuses_submissions(self):
        async def scenario():
            service = make_service()
            await service.start()
            await service.drain()
            with pytest.raises(ServeError):
                service.submit(fast_jobspec())

        run(scenario())


class TestCancellation:
    def test_cancel_queued_job_never_runs(self):
        async def scenario():
            service = make_service(workers=1, queue_depth=4)
            await service.start()
            try:
                blocker = service.submit(decode_submission(slow_spec(seed=51))[0])
                queued = service.submit(decode_submission(slow_spec(seed=52))[0])
                assert await service.cancel(queued)
                assert queued.state is JobState.CANCELLED
                assert await service.board.wait(blocker, timeout_s=120.0)
                await service.drain()
                # The cancelled job never transitioned through RUNNING.
                states = [state for _t, state in queued.transitions]
                assert "running" not in states
            finally:
                await service.drain()

        run(scenario())

    def test_cancel_running_job_terminates_it(self):
        async def scenario():
            service = make_service(workers=1, queue_depth=4)
            await service.start()
            try:
                job = service.submit(decode_submission(slow_spec(seed=53))[0])
                # Wait for RUNNING, then cancel mid-simulation.
                assert await service.board.wait(
                    job, timeout_s=60.0, seen_transitions=1
                )
                assert job.state is JobState.RUNNING
                assert await service.cancel(job)
                assert await service.board.wait(job, timeout_s=60.0)
                assert job.state is JobState.CANCELLED
                assert job.result is None
            finally:
                await service.drain()

        run(scenario())

    def test_cancel_finished_job_reports_false(self):
        async def scenario():
            service = make_service()
            await service.start()
            try:
                job = service.submit(fast_jobspec())
                assert await service.board.wait(job, timeout_s=60.0)
                assert not await service.cancel(job)
                assert job.state is JobState.DONE
            finally:
                await service.drain()

        run(scenario())


class TestTimeouts:
    def test_per_job_timeout_kills_the_simulation(self):
        async def scenario():
            service = make_service(workers=1)
            await service.start()
            try:
                spec, timeout_s = decode_submission(
                    dict(slow_spec(seed=61), timeout_s=0.05)
                )
                job = service.submit(spec, timeout_s=timeout_s)
                assert await service.board.wait(job, timeout_s=60.0)
                assert job.state is JobState.TIMEOUT
                assert "timed out" in job.error
            finally:
                await service.drain()

        run(scenario())


class TestDrain:
    def test_drain_finishes_inflight_jobs(self):
        async def scenario():
            service = make_service(workers=2, queue_depth=8)
            await service.start()
            jobs = [
                service.submit(decode_submission(slow_spec(seed))[0])
                for seed in (71, 72, 73)
            ]
            await service.drain()  # grace default: long enough to finish
            assert all(job.state is JobState.DONE for job in jobs)
            assert service.draining

        run(scenario())

    def test_drain_past_grace_cancels_what_remains(self):
        async def scenario():
            service = make_service(workers=1, queue_depth=8)
            await service.start()
            jobs = [
                service.submit(decode_submission(slow_spec(seed))[0])
                for seed in (81, 82, 83, 84)
            ]
            await service.drain(grace_s=0.05)
            # Every accepted job is terminal — finished or cancelled, never
            # silently dropped.
            assert all(job.state.terminal for job in jobs)
            assert any(job.state is JobState.CANCELLED for job in jobs)

        run(scenario())


class TestDecodeSubmission:
    def test_decodes_spec_and_timeout(self):
        spec, timeout_s = decode_submission(dict(FAST_SPEC, timeout_s=2.5))
        assert spec.digest() == fast_jobspec().digest()
        assert timeout_s == 2.5

    def test_rejects_malformed_payloads(self):
        with pytest.raises(ConfigurationError):
            decode_submission(["not", "an", "object"])
        with pytest.raises(ConfigurationError):
            decode_submission({"benchmark": "astar"})  # missing level
        with pytest.raises(ConfigurationError):
            decode_submission(dict(FAST_SPEC, timeout_s="soon"))
        with pytest.raises(ConfigurationError):
            decode_submission(dict(FAST_SPEC, timeout_s=-1))
        with pytest.raises(ConfigurationError):
            decode_submission(dict(FAST_SPEC, warp_factor=9))

    def test_rejects_unknown_scheme_with_hint(self):
        with pytest.raises(ConfigurationError):
            decode_submission(dict(FAST_SPEC, level="obfusmen_auth"))


def test_metrics_shape(tmp_path):
    async def scenario():
        service = make_service(tmp_path)
        await service.start()
        try:
            job = service.submit(fast_jobspec())
            assert await service.board.wait(job, timeout_s=60.0)
            warm = service.submit(fast_jobspec())
            assert await service.board.wait(warm, timeout_s=60.0)
            metrics = service.metrics()
            assert metrics["state"] == "running"
            assert metrics["queue_capacity"] == 4
            assert metrics["cache_hits"] == 1.0
            assert metrics["cache_hit_ratio"] == 0.5
            assert metrics["sim_events_total"] > 0
            assert metrics["sim_events_per_sec"] > 0
            assert metrics["counters"]["serve.submitted"] == 2.0
        finally:
            await service.drain()

    run(scenario())
