"""Unit tests for the job lifecycle model (states, board, waiting)."""

import asyncio

import pytest

from repro.serve.jobs import JobBoard, JobState

from tests.serve.helpers import fast_jobspec


def run(coroutine):
    """Drive one coroutine on a fresh event loop."""
    return asyncio.run(coroutine)


class TestJobState:
    def test_terminal_partition(self):
        terminal = {state for state in JobState if state.terminal}
        assert terminal == {
            JobState.DONE,
            JobState.FAILED,
            JobState.TIMEOUT,
            JobState.CANCELLED,
        }
        assert not JobState.QUEUED.terminal
        assert not JobState.RUNNING.terminal


class TestJobBoard:
    def test_create_allocates_unique_ids_and_digest(self):
        async def scenario():
            board = JobBoard()
            first = board.create(fast_jobspec())
            second = board.create(fast_jobspec())
            assert first.id != second.id
            assert first.digest == second.digest == fast_jobspec().digest()
            assert first.state is JobState.QUEUED
            assert board.get(first.id) is first
            assert board.get("nope") is None
            assert len(board) == 2

        run(scenario())

    def test_advance_records_transitions_and_timestamps(self):
        async def scenario():
            board = JobBoard()
            job = board.create(fast_jobspec())
            await board.advance(job, JobState.RUNNING)
            await board.advance(job, JobState.DONE, source="memory")
            assert [state for _t, state in job.transitions] == [
                "queued",
                "running",
                "done",
            ]
            assert job.started_at is not None
            assert job.finished_at is not None
            assert job.source == "memory"

        run(scenario())

    def test_terminal_states_are_sticky(self):
        async def scenario():
            board = JobBoard()
            job = board.create(fast_jobspec())
            await board.advance(job, JobState.CANCELLED, error="gone")
            await board.advance(job, JobState.DONE, source="memory")
            assert job.state is JobState.CANCELLED
            assert job.error == "gone"

        run(scenario())

    def test_wait_returns_on_terminal_and_times_out(self):
        async def scenario():
            board = JobBoard()
            job = board.create(fast_jobspec())
            assert not await board.wait(job, timeout_s=0.05)

            async def finish():
                await asyncio.sleep(0.02)
                await board.advance(job, JobState.DONE)

            task = asyncio.create_task(finish())
            assert await board.wait(job, timeout_s=5.0)
            await task

        run(scenario())

    def test_wait_wakes_on_intermediate_transition(self):
        async def scenario():
            board = JobBoard()
            job = board.create(fast_jobspec())

            async def start_running():
                await asyncio.sleep(0.02)
                await board.advance(job, JobState.RUNNING)

            task = asyncio.create_task(start_running())
            assert await board.wait(job, timeout_s=5.0, seen_transitions=1)
            assert job.state is JobState.RUNNING  # woke before terminal
            await task

        run(scenario())

    def test_to_jsonable_shapes(self):
        async def scenario():
            board = JobBoard()
            job = board.create(fast_jobspec(), timeout_s=1.5)
            payload = job.to_jsonable()
            assert payload["state"] == "queued"
            assert payload["benchmark"] == "astar"
            assert payload["level"] == "unprotected"
            assert payload["timeout_s"] == 1.5
            assert payload["digest"] == job.digest
            assert "result" not in payload
            assert payload["transitions"][0][1] == "queued"

        run(scenario())


@pytest.mark.parametrize("state", list(JobState))
def test_every_state_value_is_wire_safe(state):
    assert state.value.isalpha() and state.value.islower()
