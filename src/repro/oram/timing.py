"""ORAM timing model used for the performance comparison (paper §4).

The paper deliberately models ORAM optimistically: every memory access
costs a fixed latency (2500 ns for the Path ORAM baseline, extrapolated
from Freecursive ORAM), with unlimited bandwidth and unconstrained PCM
write power.  :class:`OramMemoryModel` reproduces exactly that shape —
one fixed-latency completion per request — but the latency and the
per-access traffic charged to the stats now come from a pluggable
:class:`~repro.oram.backend.OramBackend` decomposition, so Ring, Pyramid
and Palermo-style designs slot in as alternative backends while Table 3
is still regenerated on the paper's own terms.  The *functional* ORAMs
in :mod:`repro.oram.path_oram` / :mod:`repro.oram.ring_oram` /
:mod:`repro.oram.pyramid` supply the capacity / write-amplification /
stash-failure numbers for Table 4 and §5.2.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

from repro.mem.bus import BusTransfer, Direction, MemoryBus, TransferKind
from repro.mem.request import MemoryRequest
from repro.oram.backend import OramBackend, PathOramBackend, get_backend
from repro.sim.engine import Engine, ns_to_ps
from repro.sim.statistics import StatRegistry

CompletionCallback = Callable[[MemoryRequest], None]

#: Spacing between the pulses of one maintenance burst (they model one
#: tightly scheduled batch of internal block moves).
_BURST_PULSE_SPACING_PS = 1_000
#: Safety bound on pulses emitted per burst (observability, not traffic
#: accounting, so truncating a huge burst loses nothing the attacker uses).
_MAX_BURST_PULSES = 1_024


class OramMemoryModel:
    """Fixed-latency, unlimited-bandwidth ORAM memory backend.

    The serviced latency and the per-access traffic (blocks read/written,
    PCM cell writes) are read once from the backend's
    :class:`~repro.oram.backend.AccessDecomposition`; callers rescale the
    latency with :meth:`~repro.oram.backend.OramBackend.with_latency`.

    With a ``bus`` attached, the model emits :data:`TransferKind.PULSE`
    records: an opaque trusted package exposes no wire, but its *activity
    timing* (power draw, bank-level parallelism) is still physically
    observable.  Per-access work produces one pulse; backends that declare
    a :meth:`~repro.oram.backend.OramBackend.maintenance_burst` cadence
    additionally emit one tight pulse cluster per scheduled eviction or
    rebuild — the §6.2-style timing channel the leakage matrix's
    rebuild-timing attacker detects.  Without a bus nothing is emitted
    and timing/stats are unchanged.
    """

    def __init__(
        self,
        engine: Engine,
        stats: StatRegistry,
        backend: OramBackend | str | None = None,
        bus: MemoryBus | None = None,
    ):
        if backend is None:
            backend = PathOramBackend()
        elif isinstance(backend, str):
            backend = get_backend(backend)
        self.backend = backend
        self.engine = engine
        self.stats = stats.group("oram")
        self.decomposition = backend.decompose()
        self.access_latency_ps = ns_to_ps(self.decomposition.latency_ns)
        self.levels = backend.levels
        self.bucket_size = backend.bucket_size
        self.bus = bus
        self._accesses = 0
        self._burst = backend.maintenance_burst()

    @property
    def blocks_per_access(self) -> float:
        """Blocks moved per access (read + write-back, amortized)."""
        return self.decomposition.blocks_read + self.decomposition.blocks_written

    def issue(self, request: MemoryRequest, callback: CompletionCallback | None) -> None:
        """Service a request after the backend's critical-path latency.

        Both reads and writes run the same decomposition: the request
        type does not change the work (that is how ORAM hides it).
        """
        self.stats.add("accesses")
        self.stats.add("blocks_read", self.decomposition.blocks_read)
        self.stats.add("blocks_written", self.decomposition.blocks_written)
        # Write-back traffic is charged against PCM lifetime: the write
        # amplification in Table 4 / §5.2 (amortized for backends whose
        # maintenance is periodic rather than per-access).
        self.stats.add("cell_block_writes", self.decomposition.cell_writes)

        # Bound-method partial, not a closure: the queued completion event
        # must stay picklable for checkpoints.
        self.engine.post(
            self.access_latency_ps, partial(self._finish, request, callback)
        )
        if self.bus is not None:
            self._emit_pulses()

    def _emit_pulses(self) -> None:
        """Record the access's observable activity on the attached bus.

        Timestamps anchor at the access's completion; burst pulses are
        spaced one per :data:`_BURST_PULSE_SPACING_PS` to model one tight
        internal batch.  Pure observability: no events are scheduled and
        no stats are touched, so simulated timing is bit-identical with or
        without an observer.
        """
        self._accesses += 1
        done_ps = self.engine.now_ps + self.access_latency_ps
        self.bus.emit(
            BusTransfer(done_ps, 0, TransferKind.PULSE, Direction.TO_MEMORY, b"")
        )
        if self._burst is None:
            return
        period, burst_blocks = self._burst
        if self._accesses % period:
            return
        for index in range(1, min(burst_blocks, _MAX_BURST_PULSES) + 1):
            self.bus.emit(
                BusTransfer(
                    done_ps + index * _BURST_PULSE_SPACING_PS,
                    0,
                    TransferKind.PULSE,
                    Direction.TO_MEMORY,
                    b"",
                )
            )

    def _finish(
        self, request: MemoryRequest, callback: CompletionCallback | None
    ) -> None:
        """Completion event: the fixed-latency access is done."""
        request.complete_time_ps = self.engine.now_ps
        if callback is not None:
            callback(request)
