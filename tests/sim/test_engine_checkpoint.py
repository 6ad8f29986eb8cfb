"""Engine checkpoint hooks: clean pauses and whole-graph pickling."""

import functools
import pickle

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


class _Recorder:
    """A picklable object graph: an engine plus callbacks that log into it.

    The pending callbacks are ``functools.partial`` over a bound method, so
    one ``pickle.dumps(recorder)`` captures the engine heap *and* the state
    the callbacks mutate — the same shape a full simulation checkpoint has.
    """

    def __init__(self):
        self.engine = Engine()
        self.order: list[str] = []

    def note(self, tag: str) -> None:
        self.order.append(tag)

    def arm(self, *tags: str) -> None:
        for offset, tag in enumerate(tags):
            self.engine.post(10 * (offset + 1), functools.partial(self.note, tag))


class TestStopAfterEvents:
    def test_pause_and_resume_matches_uninterrupted_run(self):
        paused, straight = _Recorder(), _Recorder()
        paused.arm("a", "b", "c", "d", "e")
        straight.arm("a", "b", "c", "d", "e")
        straight.engine.run()
        paused.engine.run(stop_after_events=2)
        assert paused.order == ["a", "b"]
        assert paused.engine.pending_events() == 3
        paused.engine.run(stop_after_events=2)
        paused.engine.run()
        assert paused.order == straight.order
        assert paused.engine.now_ps == straight.engine.now_ps
        assert paused.engine.events_executed == straight.engine.events_executed

    def test_limit_beyond_queue_finishes_cleanly(self):
        recorder = _Recorder()
        recorder.arm("a", "b")
        recorder.engine.run(stop_after_events=100)
        assert recorder.order == ["a", "b"]
        assert recorder.engine.pending_events() == 0

    def test_clean_stop_wins_a_tie_with_max_events(self):
        recorder = _Recorder()
        recorder.arm("a", "b", "c")
        recorder.engine.run(stop_after_events=2, max_events=2)
        assert recorder.order == ["a", "b"]

    def test_max_events_still_raises_when_tighter(self):
        recorder = _Recorder()
        recorder.arm("a", "b", "c")
        with pytest.raises(SimulationError, match="max_events"):
            recorder.engine.run(stop_after_events=3, max_events=2)

    def test_nonpositive_limit_is_a_noop(self):
        recorder = _Recorder()
        recorder.arm("a")
        recorder.engine.run(stop_after_events=0)
        assert recorder.order == []
        assert recorder.engine.pending_events() == 1


class TestSnapshotRestore:
    def test_snapshot_mid_event_is_refused(self):
        engine = Engine()
        engine.post(1, lambda: pickle.dumps(engine))
        with pytest.raises(SimulationError, match="mid-event"):
            engine.run()

    def test_pickled_graph_resumes_bit_identically(self):
        recorder = _Recorder()
        recorder.arm("a", "b", "c", "d")
        recorder.engine.run(stop_after_events=2)
        blob = pickle.dumps(recorder, pickle.HIGHEST_PROTOCOL)
        recorder.engine.run()  # the original keeps going...
        thawed = pickle.loads(blob)  # ...and the copy resumes from the pause
        assert thawed.order == ["a", "b"]
        thawed.engine.run()
        assert thawed.order == recorder.order == ["a", "b", "c", "d"]
        assert thawed.engine.now_ps == recorder.engine.now_ps
        assert thawed.engine.events_executed == recorder.engine.events_executed

    def test_restored_engine_drops_the_instrument(self):
        """Instrument hooks are process-local: re-attached from the class."""
        recorder = _Recorder()
        recorder.arm("a", "b")
        blob = pickle.dumps(recorder, pickle.HIGHEST_PROTOCOL)
        seen = []
        Engine.default_instrument = lambda time_ps, callback: seen.append(time_ps)
        try:
            thawed = pickle.loads(blob)
            thawed.engine.run()
        finally:
            Engine.default_instrument = None
        assert seen == [10, 20]
