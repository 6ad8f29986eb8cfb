"""Per-channel memory controller: queues, FR-FCFS-style scheduling, bus.

The controller models the three resources whose contention drives the
paper's performance results:

* the **command/address slot** (one request header per ``command_ps``),
* the shared **data bus** (one 64-byte burst per ``t_burst_ps``),
* the **banks** (row activation / dirty write-back serialization).

Real requests touch all three.  ObfusMem dummy requests — once decrypted
inside the trusted memory perimeter — are *dropped before the array*
(paper Observation 2): they occupy command and data bus slots (that is the
whole point: to an observer they are indistinguishable from real traffic)
but never touch a bank, never write a cell, and never wear PCM.

Scheduling is first-ready / first-come-first-served: row-buffer hits are
preferred among reads, reads are prioritized over writes, and writes drain
in batches when their queue crosses a high-water mark, matching common
memory-controller practice and the paper's open-adaptive page policy.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from repro.errors import ConfigurationError
from repro.mem.address_mapping import AddressMapping, DecodedAddress
from repro.mem.bus import BusTransfer, Direction, MemoryBus, TransferKind
from repro.mem.dram_timing import PcmEnergy, PcmTiming
from repro.mem.pcm import PcmDevice
from repro.mem.request import BLOCK_SIZE_BYTES, MemoryRequest, RequestType
from repro.sim.engine import Engine
from repro.sim.statistics import StatRegistry

CompletionCallback = Callable[[MemoryRequest], None]


@dataclass(slots=True)
class _QueuedRequest:
    request: MemoryRequest
    callback: CompletionCallback | None
    enqueue_time_ps: int
    wire_command: bytes | None = None
    wire_data: bytes | None = None
    command_slots: int = 1
    bus_extra_ps: int = 0
    # Enqueue-time caches for the FR-FCFS arbitration loops: decoded device
    # coordinates and the owning bank (non-dummy only — the row-hit scan
    # skips dummies and droppable dummies never touch a bank), plus the
    # direction this request's data burst crosses the bus.
    decoded: DecodedAddress | None = None
    bank: object | None = None
    direction: Direction = Direction.TO_MEMORY


def _plain_wire_command(request: MemoryRequest) -> bytes:
    """Wire encoding of an unprotected command: type byte + address."""
    type_byte = b"\x01" if request.is_write else b"\x00"
    return type_byte + request.address.to_bytes(8, "big")


class ChannelController:
    """Scheduler for one memory channel."""

    def __init__(
        self,
        engine: Engine,
        mapping: AddressMapping,
        channel: int,
        device: PcmDevice,
        timing: PcmTiming,
        stats: StatRegistry,
        bus: MemoryBus | None = None,
        write_queue_high: int = 8,
        write_queue_low: int = 2,
    ):
        if write_queue_low > write_queue_high:
            raise ConfigurationError("write drain low watermark above high watermark")
        self.engine = engine
        self.mapping = mapping
        self.channel = channel
        self.device = device
        self.timing = timing
        self.stats = stats.group(f"channel{channel}")
        self.bus = bus
        # Hot-path bindings: the live counter dict (plain `dict[k] += 1`
        # beats a method call per sample) and lazily-bound histograms.
        self._counters = self.stats.counters()
        self._queue_delay_hist = None
        self._read_latency_hist = None
        self._observed = bus is not None
        self._read_queue: list[_QueuedRequest] = []
        self._write_queue: list[_QueuedRequest] = []
        self._write_queue_high = write_queue_high
        self._write_queue_low = write_queue_low
        self._draining_writes = False
        self._cmd_free_ps = 0
        self._bus_free_ps = 0
        # Wake-on-state-change scheduling: at most one pending wakeup, armed
        # for the earliest time an issue could possibly succeed.
        self._wakeup = None
        self._horizon_ps = self._ISSUE_HORIZON_BURSTS * timing.t_burst_ps
        # Per-issue timing constants, hoisted out of the issue loop.
        self._command_ps = timing.command_ps
        self._t_burst_ps = timing.t_burst_ps
        self._t_turnaround_ps = timing.t_turnaround_ps
        self._t_cl_ps = timing.t_cl_ps
        self._functional = device.is_functional
        self._pending_real_reads = 0
        self._pending_real_writes = 0
        self._last_bus_direction: Direction | None = None

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def enqueue(
        self,
        request: MemoryRequest,
        callback: CompletionCallback | None = None,
        wire_command: bytes | None = None,
        wire_data: bytes | None = None,
        command_slots: int = 1,
        bus_extra_ps: int = 0,
    ) -> None:
        """Accept a request for this channel.

        ``wire_command`` / ``wire_data`` are the bytes a wire observer sees
        (ciphertext when a protection layer sits above); when None, the
        plaintext encoding is used, modelling an unprotected bus.
        ``command_slots`` widens the command transfer (e.g. an appended MAC
        tag occupies a second slot); ``bus_extra_ps`` charges additional
        data-bus occupancy (e.g. a 128-bit tag riding the burst).
        """
        is_dummy = request.is_dummy
        is_read = request.request_type is RequestType.READ
        decoded = None
        if not is_dummy:
            decoded = self.mapping.decode(request.address)
            if decoded.channel != self.channel:
                raise ConfigurationError(
                    f"request {request.address:#x} routed to wrong channel {self.channel}"
                )
        queued = _QueuedRequest(
            request,
            callback,
            self.engine._now_ps,
            wire_command,
            wire_data,
            command_slots,
            bus_extra_ps,
            decoded,
            self.device.bank_state(decoded) if decoded is not None else None,
            Direction.TO_PROCESSOR if is_read else Direction.TO_MEMORY,
        )
        # Dummies must issue promptly, temporally paired with the access
        # they escort — that adjacency is what hides the request type from
        # a timing observer — so they share the priority (read) queue even
        # when they are writes.  Real writes drain lazily as usual.
        if is_read or is_dummy:
            self._read_queue.append(queued)
        else:
            self._write_queue.append(queued)
        counters = self._counters
        if is_dummy:
            counters["dummy_reads" if is_read else "dummy_writes"] += 1
        elif is_read:
            counters["reads"] += 1
            self._pending_real_reads += 1
        else:
            counters["writes"] += 1
            self._pending_real_writes += 1
        self._arm_pump()

    @property
    def pending(self) -> int:
        """Requests currently queued (not yet issued)."""
        return len(self._read_queue) + len(self._write_queue)

    @property
    def pending_real_reads(self) -> int:
        """Queued non-dummy reads — the §3.3 substitution signal."""
        return self._pending_real_reads

    @property
    def pending_real_writes(self) -> int:
        """Queued non-dummy writes — the §3.3 substitution signal."""
        return self._pending_real_writes

    def promote_oldest_write(self) -> bool:
        """Move the oldest queued real write into the priority queue.

        Used by the §3.3 substitution optimization: the promoted write
        becomes the write half of a read-then-write pair, issuing adjacent
        to the read it escorts instead of waiting for a drain batch.
        """
        for index, queued in enumerate(self._write_queue):
            if not queued.request.is_dummy:
                self._read_queue.append(self._write_queue.pop(index))
                self.stats.add("writes_promoted")
                return True
        return False

    @property
    def busy(self) -> bool:
        """True if the channel has queued work or in-flight bus activity.

        This is the signal the ObfusMem-OPT inter-channel injector polls: an
        idle channel needs a dummy, a busy one does not (Observation 3).
        """
        return self.pending > 0 or self._bus_free_ps > self.engine.now_ps

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    # Issue horizon, in data bursts: a real controller keeps only a few
    # transactions in flight; without this bound, the queues would drain
    # instantly into far-future resource reservations and every
    # queue-occupancy policy (write drain, FR-FCFS arbitration, §3.3
    # substitution) would observe empty queues.
    _ISSUE_HORIZON_BURSTS = 8

    def _arm_pump(self) -> None:
        """Arm (at most) one wakeup at the earliest possible issue time.

        Called on every state change that could unblock an issue: a new
        request arriving, or (from :meth:`_pump` itself) the command slot /
        data bus becoming free.  A wakeup already armed at or before the
        target time is left alone; a later one is lazily cancelled.
        """
        engine = self.engine
        now = engine._now_ps
        at = self._cmd_free_ps
        gate = self._bus_free_ps - self._horizon_ps
        if gate > at:
            at = gate
        if at < now:
            at = now
        wakeup = self._wakeup
        if wakeup is not None:
            if wakeup[0] <= at:
                return
            engine.cancel_entry(wakeup)
        self._wakeup = engine.post_entry(at - now, self._pump)

    def _pump(self) -> None:
        self._wakeup = None
        read_queue = self._read_queue
        write_queue = self._write_queue
        engine = self.engine
        horizon = self._horizon_ps
        while read_queue or write_queue:
            now = engine._now_ps
            at = self._cmd_free_ps
            gate = self._bus_free_ps - horizon
            if gate > at:
                at = gate
            if at > now:
                self._wakeup = engine.post_entry(at - now, self._pump)
                return
            queued = self._pick_next()
            if queued is None:
                return
            self._issue(queued)

    # FR-FCFS scan depth: real controllers arbitrate over a bounded window
    # of queue entries, not the whole (potentially deep) queue.
    _ROW_HIT_LOOKAHEAD = 16

    def _row_hit_index(self, queue: list[_QueuedRequest]) -> int | None:
        limit = self._ROW_HIT_LOOKAHEAD
        if len(queue) < limit:
            limit = len(queue)
        for index in range(limit):
            queued = queue[index]
            decoded = queued.decoded
            if decoded is None:  # dummy: no bank, no row to hit
                continue
            if queued.bank.open_row == decoded.row:
                return index
        return None

    def _direction_match_index(
        self, queue: list[_QueuedRequest], lookahead: int = 4
    ) -> int | None:
        """Prefer a request whose burst continues the current bus direction.

        FR-FCFS controllers group same-direction bursts to amortize the
        read/write turnaround; the small lookahead keeps the reordering
        window realistic (and keeps dummy pairing temporally tight).
        """
        last = self._last_bus_direction
        if last is None:
            return None
        if len(queue) < lookahead:
            lookahead = len(queue)
        for index in range(lookahead):
            if queue[index].direction is last:
                return index
        return None

    def _pick_next(self) -> _QueuedRequest | None:
        write_depth = len(self._write_queue)
        if write_depth >= self._write_queue_high:
            self._draining_writes = True
        elif write_depth <= self._write_queue_low:
            self._draining_writes = False
        if self._draining_writes or not self._read_queue:
            queue = self._write_queue or self._read_queue
        else:
            queue = self._read_queue
        if not queue:
            return None
        if len(queue) == 1:
            # Every arbitration rule picks the sole entry.
            return queue.pop()
        hit_index = self._row_hit_index(queue)
        if hit_index is not None:
            return queue.pop(hit_index)
        match_index = self._direction_match_index(queue)
        return queue.pop(match_index if match_index is not None else 0)

    def _emit(
        self,
        time_ps: int,
        kind: TransferKind,
        direction: Direction,
        wire_bytes: bytes,
        request: MemoryRequest,
    ) -> None:
        if self.bus is None:
            return
        self.bus.emit(
            BusTransfer(
                time_ps=time_ps,
                channel=self.channel,
                kind=kind,
                direction=direction,
                wire_bytes=wire_bytes,
                plaintext_address=request.address,
                plaintext_is_write=request.is_write,
                is_dummy=request.is_dummy,
            )
        )

    def _issue(self, queued: _QueuedRequest) -> None:
        request = queued.request
        is_dummy = request.is_dummy
        if not is_dummy:
            if queued.direction is Direction.TO_PROCESSOR:  # read burst
                self._pending_real_reads -= 1
            else:
                self._pending_real_writes -= 1
        engine = self.engine
        now = engine._now_ps
        cmd_free = self._cmd_free_ps
        cmd_start = now if now > cmd_free else cmd_free
        cmd_end = cmd_start + queued.command_slots * self._command_ps
        self._cmd_free_ps = cmd_end
        if self._observed:
            wire_command = queued.wire_command or _plain_wire_command(request)
            self._emit(
                cmd_start, TransferKind.COMMAND, Direction.TO_MEMORY, wire_command, request
            )
        hist = self._queue_delay_hist
        if hist is None:
            hist = self._queue_delay_hist = self.stats.live_histogram("queue_delay_ns")
        hist.record((cmd_start - queued.enqueue_time_ps) / 1000.0)

        if is_dummy and request.droppable:
            complete_ps = self._issue_dummy(queued, cmd_end)
        elif queued.direction is Direction.TO_PROCESSOR:  # read
            complete_ps = self._issue_read(queued, cmd_end)
        else:
            complete_ps = self._issue_write(queued, cmd_end)

        # Picklable completion event (bound-method partial, not a closure):
        # it may sit in the heap across a checkpoint.
        engine.post_at(complete_ps, partial(self._finish, queued.callback, request))
        self._counters["requests_serviced"] += 1

    def _finish(
        self, callback: CompletionCallback | None, request: MemoryRequest
    ) -> None:
        """Completion event: stamp the finish time, notify the issuer."""
        request.complete_time_ps = self.engine._now_ps
        if callback is not None:
            callback(request)

    def _reserve_bus(
        self, earliest_ps: int, direction: Direction, extra_ps: int = 0
    ) -> tuple[int, int]:
        """Reserve one data burst starting no earlier than ``earliest_ps``.

        A direction change relative to the previous burst pays the bus
        turnaround penalty (tRTW/tWTR).
        """
        available = self._bus_free_ps
        last = self._last_bus_direction
        if last is not None and last is not direction:
            available += self._t_turnaround_ps
            self._counters["bus_turnarounds"] += 1
        start = earliest_ps if earliest_ps > available else available
        end = start + self._t_burst_ps + extra_ps
        self._bus_free_ps = end
        self._last_bus_direction = direction
        self._counters["bus_bytes"] += BLOCK_SIZE_BYTES
        return start, end

    def _wire_data(self, queued: _QueuedRequest) -> bytes:
        if queued.wire_data is not None:
            return queued.wire_data
        payload = queued.request.payload
        return payload if payload is not None else b"\x00" * BLOCK_SIZE_BYTES

    def _issue_dummy(self, queued: _QueuedRequest, cmd_end_ps: int) -> int:
        """Dummies occupy the bus like real traffic, then are dropped.

        A dummy write carries a data burst to memory that is discarded on
        arrival (no row buffer, no cells).  A dummy read is answered with a
        garbage burst without touching the array.
        """
        request = queued.request
        if queued.direction is Direction.TO_MEMORY:  # dummy write
            burst_start, burst_end = self._reserve_bus(
                cmd_end_ps, Direction.TO_MEMORY, queued.bus_extra_ps
            )
            if self._observed:
                self._emit(
                    burst_start,
                    TransferKind.DATA,
                    Direction.TO_MEMORY,
                    self._wire_data(queued),
                    request,
                )
            self._counters["dummy_writes_dropped"] += 1
        else:
            # Response after the command decodes; no bank access needed.
            burst_start, burst_end = self._reserve_bus(
                cmd_end_ps + self._t_cl_ps,
                Direction.TO_PROCESSOR,
                queued.bus_extra_ps,
            )
            if self._observed:
                self._emit(
                    burst_start,
                    TransferKind.DATA,
                    Direction.TO_PROCESSOR,
                    self._wire_data(queued),
                    request,
                )
            self._counters["dummy_reads_answered"] += 1
        return burst_end

    def _issue_read(self, queued: _QueuedRequest, cmd_end_ps: int) -> int:
        request = queued.request
        # Non-droppable dummies (ORIGINAL/RANDOM policies) reach the array
        # too but skip the enqueue-time decode, so decode lazily here.
        decoded = queued.decoded or self.mapping.decode(request.address)
        bank = queued.bank or self.device.bank_state(decoded)
        access = self.device.access(decoded, is_write=False, bank=bank)
        prep_start = max(cmd_end_ps, bank.busy_until_ps)
        data_ready = prep_start + access.preparation_ps + self._t_cl_ps
        burst_start, burst_end = self._reserve_bus(
            data_ready, Direction.TO_PROCESSOR, queued.bus_extra_ps
        )
        bank.busy_until_ps = burst_end
        if self._functional:
            request.payload = self.device.read_block(request.address)
        if self._observed:
            self._emit(
                burst_start,
                TransferKind.DATA,
                Direction.TO_PROCESSOR,
                self._wire_data(queued),
                request,
            )
        hist = self._read_latency_hist
        if hist is None:
            hist = self._read_latency_hist = self.stats.live_histogram("read_latency_ns")
        hist.record((burst_end - queued.enqueue_time_ps) / 1000.0)
        return burst_end

    def _issue_write(self, queued: _QueuedRequest, cmd_end_ps: int) -> int:
        request = queued.request
        decoded = queued.decoded or self.mapping.decode(request.address)
        bank = queued.bank or self.device.bank_state(decoded)
        access = self.device.access(decoded, is_write=True, bank=bank)
        burst_start, burst_end = self._reserve_bus(
            cmd_end_ps, Direction.TO_MEMORY, queued.bus_extra_ps
        )
        if self._observed:
            self._emit(
                burst_start,
                TransferKind.DATA,
                Direction.TO_MEMORY,
                self._wire_data(queued),
                request,
            )
        prep_start = max(burst_end, bank.busy_until_ps)
        row_ready = prep_start + access.preparation_ps
        bank.busy_until_ps = row_ready
        if self._functional and request.payload is not None:
            self.device.write_block(request.address, request.payload)
        return max(burst_end, row_ready)


class MemorySystem:
    """Multi-channel memory front end: routes requests to channels."""

    def __init__(
        self,
        engine: Engine,
        mapping: AddressMapping,
        stats: StatRegistry,
        timing: PcmTiming | None = None,
        energy: PcmEnergy | None = None,
        bus: MemoryBus | None = None,
        functional: bool = False,
        wear_leveling: bool = False,
        gap_write_interval: int = 16,
    ):
        self.engine = engine
        self.mapping = mapping
        self.timing = timing or PcmTiming()
        self.energy = energy or PcmEnergy()
        self.bus = bus
        self.devices = [
            PcmDevice(
                mapping,
                channel,
                self.timing,
                self.energy,
                stats.group(f"pcm{channel}"),
                functional=functional,
                wear_leveling=wear_leveling,
                gap_write_interval=gap_write_interval,
            )
            for channel in range(mapping.channels)
        ]
        self.channels = [
            ChannelController(
                engine, mapping, channel, self.devices[channel], self.timing, stats, bus
            )
            for channel in range(mapping.channels)
        ]

    def issue(
        self,
        request: MemoryRequest,
        callback: CompletionCallback | None = None,
        wire_command: bytes | None = None,
        wire_data: bytes | None = None,
        command_slots: int = 1,
        bus_extra_ps: int = 0,
    ) -> None:
        """Route a request to its channel's controller (the memory port)."""
        channel = self.mapping.channel_of(request.address)
        self.channels[channel].enqueue(
            request, callback, wire_command, wire_data, command_slots, bus_extra_ps
        )

    def channel_for(self, address: int) -> ChannelController:
        """Controller serving the channel this address maps to."""
        return self.channels[self.mapping.channel_of(address)]

    @property
    def total_cell_writes(self) -> int:
        return sum(device.total_cell_writes for device in self.devices)

    def flush(self) -> int:
        """Flush dirty rows on every device (end-of-run wear accounting)."""
        flushed = 0
        for device in self.devices:
            flushed += device.flush_dirty_rows()
            device.stats.set("max_row_writes", device.max_row_writes)
        return flushed
