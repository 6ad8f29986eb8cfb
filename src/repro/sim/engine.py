"""Discrete-event simulation engine.

A deliberately small, deterministic event kernel in the style of gem5's
event queue: events are (time, priority, sequence, callback) entries ordered
by time, then priority, then insertion order.  The sequence number makes
simultaneous events deterministic, which every experiment in this repository
relies on for reproducibility.

The kernel is the hottest code in the repository — every simulated
nanosecond flows through :meth:`Engine.run` — so its data layout is chosen
for throughput:

* Heap entries are plain ``[time_ps, priority, sequence, callback]`` lists.
  ``heapq`` compares them with C-level lexicographic comparison; because the
  sequence number is unique, the callback element is never compared and no
  Python ``__lt__`` ever runs.
* Cancellation is a lazy tombstone: :meth:`EventHandle.cancel` nulls the
  entry's callback slot in place and the run loop discards tombstones when
  they surface at the heap top.  Nothing is ever removed from the middle of
  the heap.
* A live-event counter makes :meth:`Engine.pending_events` O(1) regardless
  of how many tombstones are queued.
* Hot call sites that never cancel use :meth:`Engine.post` /
  :meth:`Engine.post_at`, which skip allocating an :class:`EventHandle`.

Time is kept in **picoseconds** as integers.  All the DDR/PCM timing
parameters in the paper are exact multiples of 0.25 ns, so integer
picoseconds keep arithmetic exact; helpers on :class:`Clock` convert to and
from nanoseconds and CPU cycles.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from typing import ClassVar

from repro.errors import SimulationError

PS_PER_NS = 1000

class _FiredSentinel:
    """Singleton sentinel marking an entry's callback slot as executed.

    Handles distinguish fired events (this sentinel) from cancelled ones
    (``None``) by identity.  A bare ``object()`` would lose that identity
    through pickling, so checkpointed engines use this class: ``__new__``
    always hands back the module singleton and ``__reduce__`` pickles to a
    call of the class, making ``is _FIRED`` survive a pickle round trip
    even across processes.
    """

    __slots__ = ()
    _instance: "_FiredSentinel | None" = None

    def __new__(cls) -> "_FiredSentinel":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __reduce__(self):
        return (_FiredSentinel, ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<fired>"


#: Sentinel stored in an entry's callback slot once the event has executed,
#: so handles can distinguish fired events from cancelled ones (``None``).
_FIRED = _FiredSentinel()

# Entry layout indices (entries are plain lists for C-speed comparison).
_TIME = 0
_PRIORITY = 1
_SEQUENCE = 2
_CALLBACK = 3

# Module-level binding: one global load instead of two attribute loads per
# scheduling call.
_heappush = heapq.heappush


def ns_to_ps(nanoseconds: float) -> int:
    """Convert nanoseconds to integer picoseconds (rounding to nearest)."""
    return round(nanoseconds * PS_PER_NS)


def ps_to_ns(picoseconds: int) -> float:
    """Convert picoseconds back to float nanoseconds."""
    return picoseconds / PS_PER_NS


class EventHandle:
    """Opaque handle returned by :meth:`Engine.schedule`, for cancellation."""

    __slots__ = ("_engine", "_entry")

    def __init__(self, engine: "Engine", entry: list):
        self._engine = engine
        self._entry = entry

    def cancel(self) -> None:
        """Prevent the event from firing (safe after it has fired: no-op)."""
        entry = self._entry
        callback = entry[_CALLBACK]
        if callback is not None and callback is not _FIRED:
            entry[_CALLBACK] = None
            self._engine._live -= 1

    @property
    def time_ps(self) -> int:
        return self._entry[_TIME]

    @property
    def pending(self) -> bool:
        """True while the event is queued: not yet fired, not cancelled."""
        callback = self._entry[_CALLBACK]
        return callback is not None and callback is not _FIRED

    @property
    def fired(self) -> bool:
        """True once the event's callback has executed."""
        return self._entry[_CALLBACK] is _FIRED

    @property
    def cancelled(self) -> bool:
        """True if the event was cancelled before firing."""
        return self._entry[_CALLBACK] is None


class Engine:
    """Deterministic discrete-event simulation kernel."""

    __slots__ = (
        "_queue",
        "_now_ps",
        "_sequence",
        "_running",
        "_live",
        "_instrument",
        "events_executed",
    )

    #: Process-wide default instrumentation hook, picked up by every Engine
    #: at construction.  ``None`` (the default) keeps the run loop on a
    #: zero-overhead path; :mod:`repro.sim.profiling` installs a counter
    #: here while a ``--profile`` run is active.  The hook is called as
    #: ``hook(time_ps, callback)`` after each executed event.
    default_instrument: ClassVar[Callable[[int, Callable], None] | None] = None

    def __init__(self):
        self._queue: list[list] = []
        self._now_ps = 0
        self._sequence = 0
        self._running = False
        self._live = 0
        self._instrument = type(self).default_instrument
        self.events_executed = 0

    @property
    def now_ps(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now_ps

    @property
    def now_ns(self) -> float:
        """Current simulation time in nanoseconds."""
        return ps_to_ns(self._now_ps)

    def schedule(
        self, delay_ps: int, callback: Callable[[], None], priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay_ps`` picoseconds from now.

        Lower ``priority`` values run first among simultaneous events.
        Returns a handle for cancellation; call sites that never cancel
        should prefer :meth:`post`, which skips the handle allocation.
        """
        if delay_ps < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ps})")
        entry = [self._now_ps + delay_ps, priority, self._sequence, callback]
        self._sequence += 1
        self._live += 1
        _heappush(self._queue, entry)
        return EventHandle(self, entry)

    def schedule_at(
        self, time_ps: int, callback: Callable[[], None], priority: int = 0
    ) -> EventHandle:
        """Schedule at an absolute time, which must not be in the past."""
        if time_ps < self._now_ps:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps; now is {self._now_ps} ps"
            )
        return self.schedule(time_ps - self._now_ps, callback, priority)

    def post(
        self, delay_ps: int, callback: Callable[[], None], priority: int = 0
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`EventHandle`.

        Identical ordering semantics; the only difference is that the event
        cannot be cancelled.  This is the fast path for the simulation's
        inner loops, where handles were measured to be pure overhead.
        """
        if delay_ps < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ps})")
        _heappush(
            self._queue, [self._now_ps + delay_ps, priority, self._sequence, callback]
        )
        self._sequence += 1
        self._live += 1

    def post_at(
        self, time_ps: int, callback: Callable[[], None], priority: int = 0
    ) -> None:
        """Fire-and-forget :meth:`schedule_at`: no :class:`EventHandle`."""
        if time_ps < self._now_ps:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps; now is {self._now_ps} ps"
            )
        _heappush(self._queue, [time_ps, priority, self._sequence, callback])
        self._sequence += 1
        self._live += 1

    def post_entry(
        self, delay_ps: int, callback: Callable[[], None], priority: int = 0
    ) -> list:
        """Schedule and return the *raw* queue entry (advanced fast path).

        The entry is the plain ``[time_ps, priority, sequence, callback]``
        list the heap holds; ``entry[0]`` is the fire time.  Cancel it with
        :meth:`cancel_entry`.  This exists for call sites that keep exactly
        one pending event and re-arm it constantly (the channel scheduler's
        wakeup), where even the :class:`EventHandle` allocation shows up.
        """
        if delay_ps < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ps})")
        entry = [self._now_ps + delay_ps, priority, self._sequence, callback]
        self._sequence += 1
        self._live += 1
        _heappush(self._queue, entry)
        return entry

    def cancel_entry(self, entry: list) -> None:
        """Cancel a raw entry from :meth:`post_entry` (no-op once fired)."""
        callback = entry[_CALLBACK]
        if callback is not None and callback is not _FIRED:
            entry[_CALLBACK] = None
            self._live -= 1

    def run(
        self,
        until_ps: int | None = None,
        max_events: int | None = None,
        stop_after_events: int | None = None,
    ) -> None:
        """Execute events in order until the queue empties or limits hit.

        Parameters
        ----------
        until_ps:
            Stop once the next event would be strictly after this time.
        max_events:
            Safety valve for tests; raises if exceeded.
        stop_after_events:
            Return *cleanly* after executing this many events (unlike
            ``max_events``, which raises).  This is the checkpoint hook:
            the engine pauses between events, where its state — heap,
            clock, sequence counter — is self-consistent and
            snapshottable; calling :meth:`run` again continues exactly
            where the previous call stopped.
        """
        if self._running:
            raise SimulationError("engine is not re-entrant")
        if stop_after_events is not None and stop_after_events <= 0:
            return
        # The two event limits fold into ONE per-event comparison (the run
        # loop is the hottest code in the repository): whichever limit is
        # tighter becomes ``limit``; on equality the clean stop wins.
        limit = max_events
        raise_at_limit = True
        if stop_after_events is not None and (
            limit is None or stop_after_events <= limit
        ):
            limit = stop_after_events
            raise_at_limit = False
        self._running = True
        # Hot loop: locals beat attribute loads, entries are plain lists,
        # tombstones (nulled callbacks) are discarded as they surface.
        queue = self._queue
        pop = heapq.heappop
        instrument = self._instrument
        executed = 0
        now = self._now_ps
        try:
            while queue:
                entry = queue[0]
                callback = entry[_CALLBACK]
                if callback is None:
                    pop(queue)
                    continue
                time_ps = entry[_TIME]
                if until_ps is not None and time_ps > until_ps:
                    break
                pop(queue)
                if time_ps < now:
                    raise SimulationError("event queue corrupted: time reversal")
                self._now_ps = now = time_ps
                entry[_CALLBACK] = _FIRED
                self._live -= 1
                callback()
                executed += 1
                if instrument is not None:
                    instrument(time_ps, callback)
                if limit is not None and executed >= limit:
                    if raise_at_limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; likely a livelock"
                        )
                    break
            if until_ps is not None and until_ps > self._now_ps:
                self._now_ps = until_ps
        finally:
            self.events_executed += executed
            self._running = False

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._live

    # -- pickling ---------------------------------------------------------
    #
    # Checkpoints pickle the whole simulation graph (``SimWorld.snapshot``)
    # and the engine travels inside it.  It may only be pickled *between*
    # events (not from inside a callback); everything that defines future
    # behaviour — the heap, the clock, the sequence counter, the live count
    # — round-trips.  The instrument hook is deliberately dropped: it is
    # process-local observability (a profiler counter), re-attached from
    # ``default_instrument`` on unpickling.  Heap entries shared with
    # component-held references (e.g. the channel scheduler's wakeup entry)
    # keep their identity through the one combined dump.

    def __getstate__(self) -> dict:
        if self._running:
            raise SimulationError("cannot snapshot a running engine mid-event")
        return {
            "queue": self._queue,
            "now_ps": self._now_ps,
            "sequence": self._sequence,
            "live": self._live,
            "events_executed": self.events_executed,
        }

    def __setstate__(self, state: dict) -> None:
        self._queue = state["queue"]
        self._now_ps = state["now_ps"]
        self._sequence = state["sequence"]
        self._running = False
        self._live = state["live"]
        self._instrument = type(self).default_instrument
        self.events_executed = state["events_executed"]
