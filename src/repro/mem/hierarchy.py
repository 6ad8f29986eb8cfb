"""Three-level cache hierarchy with MESI coherence (Table 2 configuration).

Private L1/L2 per core, shared inclusive L3 with a directory tracking which
cores hold each block.  The hierarchy is functional-with-latency: an access
returns the hit level, the accumulated lookup latency in cycles, and the
memory traffic (miss fill + any dirty write-backs) it generated below the
LLC.  That traffic is exactly what ObfusMem or ORAM must protect.

Two entry points share one set of slot-array caches
(:mod:`repro.mem.cache`):

* :meth:`CacheHierarchy.access` — the per-access interface: one
  load/store in, an :class:`AccessResult` (hit level, latency,
  :class:`~repro.mem.request.MemoryRequest` traffic) out.
* :meth:`CacheHierarchy.access_batch` — the front-end fast path: a chunk
  of ``(address, is_write)`` pairs in, bare ``(block_address, is_write)``
  traffic tuples appended to a caller-owned list out.  The L1 hit path is
  inlined in the loop and touches no allocator; only L1 misses fall into
  :meth:`_miss_path`.  Statistics accumulate in integer fields and flush
  into the :class:`~repro.sim.statistics.StatGroup` once per batch.

Both paths are bit-identical to the preserved original implementation in
:mod:`repro.mem.reference` (same traces, same stat snapshots) — the
front-end equivalence tests enforce that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.mem.cache import (
    ST_EXCLUSIVE,
    ST_MODIFIED,
    ST_SHARED,
    SetAssociativeCache,
)
from repro.mem.request import (
    BLOCK_OFFSET_BITS,
    BLOCK_SIZE_BYTES,
    MemoryRequest,
    RequestType,
)
from repro.sim.statistics import StatRegistry


@dataclass(frozen=True)
class HierarchyConfig:
    """Sizes/latencies of Table 2."""

    cores: int = 4
    l1_size: int = 32 << 10
    l1_assoc: int = 8
    l1_latency: int = 2
    l2_size: int = 512 << 10
    l2_assoc: int = 8
    l2_latency: int = 8
    l3_size: int = 8 << 20
    l3_assoc: int = 8
    l3_latency: int = 17

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigurationError("need at least one core")


@dataclass
class AccessResult:
    """Outcome of one CPU-level load/store."""

    hit_level: str  # "L1", "L2", "L3" or "memory"
    latency_cycles: int
    memory_requests: list[MemoryRequest] = field(default_factory=list)

    @property
    def llc_miss(self) -> bool:
        return self.hit_level == "memory"


class CacheHierarchy:
    """Private L1/L2 per core + shared inclusive L3 with MESI directory."""

    def __init__(self, config: HierarchyConfig, stats: StatRegistry):
        self.config = config
        self.stats = stats.group("hierarchy")
        self.l1 = [
            SetAssociativeCache(
                f"l1.{core}",
                config.l1_size,
                config.l1_assoc,
                config.l1_latency,
                stats.group(f"l1.{core}"),
            )
            for core in range(config.cores)
        ]
        self.l2 = [
            SetAssociativeCache(
                f"l2.{core}",
                config.l2_size,
                config.l2_assoc,
                config.l2_latency,
                stats.group(f"l2.{core}"),
            )
            for core in range(config.cores)
        ]
        self.l3 = SetAssociativeCache(
            "l3", config.l3_size, config.l3_assoc, config.l3_latency, stats.group("l3")
        )
        # L3 directory: block -> set of cores with the block in L1/L2.
        self._sharers: dict[int, set[int]] = {}
        self.instructions: int = 0
        # Batched stat accumulation: plain integer pendings, flushed into
        # the stat group at checkpoint boundaries (end of access/batch).
        self._p_accesses = 0
        self._p_l1_hits = 0
        self._p_l2_hits = 0
        self._p_l3_hits = 0
        self._p_llc_misses = 0
        self._p_coherence_invalidations = 0
        self._p_dirty_forwards = 0
        self._p_back_invalidations = 0
        self._p_writebacks = 0

    # ------------------------------------------------------------------

    def access(self, core_id: int, address: int, is_write: bool) -> AccessResult:
        """Perform one load/store; returns hit level, latency and traffic."""
        if not 0 <= core_id < self.config.cores:
            raise ConfigurationError(f"core {core_id} out of range")
        block = address >> BLOCK_OFFSET_BITS
        self._p_accesses += 1

        traffic: list[tuple[int, bool]] = []
        state = self.l1[core_id]._lookup_touch(block)
        if state is not None:
            if is_write:
                if state != ST_MODIFIED:
                    self._upgrade_for_write(core_id, block, state)
                self.l1[core_id]._set_state_slot(block, ST_MODIFIED)
            self._p_l1_hits += 1
            level = "L1"
        else:
            level = self._miss_path(core_id, block, is_write, traffic)
        self.flush_stats()

        config = self.config
        latency = config.l1_latency
        if level != "L1":
            latency += config.l2_latency
            if level != "L2":
                latency += config.l3_latency
        requests = [
            MemoryRequest(request_address, RequestType.WRITE)
            if request_is_write
            else MemoryRequest(request_address, RequestType.READ, core_id=core_id)
            for request_address, request_is_write in traffic
        ]
        return AccessResult(level, latency, requests)

    def access_batch(
        self,
        core_id: int,
        accesses,
        traffic: list[tuple[int, bool]] | None = None,
    ) -> list[tuple[int, bool]]:
        """Run many ``(address, is_write)`` accesses through one core's slice.

        This is the front end's hot loop: the L1 hit path is inlined (a
        C-level membership probe on the set's slot array plus an LRU
        reorder; repeated hits to the MRU block skip even that) and
        allocates nothing.  Below-LLC traffic is appended to ``traffic`` as
        bare ``(block_address, is_write)`` tuples, in exactly the order the
        per-access interface would emit the equivalent
        :class:`~repro.mem.request.MemoryRequest` objects.  Statistics are
        accumulated in integers and flushed once at the end of the batch.

        Returns the ``traffic`` list (created when not supplied).
        """
        if not 0 <= core_id < self.config.cores:
            raise ConfigurationError(f"core {core_id} out of range")
        if traffic is None:
            traffic = []
        l1 = self.l1[core_id]
        set_blocks = l1._set_blocks
        set_states = l1._set_states
        mask = l1._set_mask
        shift = BLOCK_OFFSET_BITS
        modified = ST_MODIFIED
        upgrade = self._upgrade_for_write
        miss_path = self._miss_path
        processed = 0
        hits = 0
        for address, is_write in accesses:
            processed += 1
            block = address >> shift
            slot = set_blocks[block & mask]
            if slot and slot[-1] == block:
                # MRU hit (spatial locality's common case): LRU order is
                # already correct, so only a write can need any work.
                if is_write:
                    states = set_states[block & mask]
                    state = states[-1]
                    if state != modified:
                        upgrade(core_id, block, state)
                        states[-1] = modified
                hits += 1
            elif block in slot:
                i = slot.index(block)
                states = set_states[block & mask]
                state = states.pop(i)
                slot.append(slot.pop(i))
                if is_write and state != modified:
                    upgrade(core_id, block, state)
                    state = modified
                states.append(state)
                hits += 1
            else:
                miss_path(core_id, block, is_write, traffic)
        self._p_accesses += processed
        self._p_l1_hits += hits
        self.flush_stats()
        return traffic

    def flush_stats(self) -> None:
        """Checkpoint boundary: fold pending counters into the stat groups."""
        group = self.stats
        if self._p_accesses:
            group.add("accesses", self._p_accesses)
            self._p_accesses = 0
        if self._p_l1_hits:
            group.add("l1_hits", self._p_l1_hits)
            self._p_l1_hits = 0
        if self._p_l2_hits:
            group.add("l2_hits", self._p_l2_hits)
            self._p_l2_hits = 0
        if self._p_l3_hits:
            group.add("l3_hits", self._p_l3_hits)
            self._p_l3_hits = 0
        if self._p_llc_misses:
            group.add("llc_misses", self._p_llc_misses)
            self._p_llc_misses = 0
        if self._p_coherence_invalidations:
            group.add("coherence_invalidations", self._p_coherence_invalidations)
            self._p_coherence_invalidations = 0
        if self._p_dirty_forwards:
            group.add("dirty_forwards", self._p_dirty_forwards)
            self._p_dirty_forwards = 0
        if self._p_back_invalidations:
            group.add("back_invalidations", self._p_back_invalidations)
            self._p_back_invalidations = 0
        if self._p_writebacks:
            group.add("writebacks", self._p_writebacks)
            self._p_writebacks = 0
        for cache in self.l1:
            cache.flush_stats()
        for cache in self.l2:
            cache.flush_stats()
        self.l3.flush_stats()

    # ------------------------------------------------------------------

    def _miss_path(
        self, core_id: int, block: int, is_write: bool, traffic: list[tuple[int, bool]]
    ) -> str:
        """L1 missed: walk L2 / L3 / memory; returns the hit level.

        Mirrors the operation order of the reference implementation
        (:class:`~repro.mem.reference.ReferenceCacheHierarchy`) exactly so
        LRU state, coherence actions and traffic tuples stay bit-identical.
        Its L3 insert and L2/L1 fills are inlined here as slot operations
        (this is the second-hottest loop after the L1 probe); ``block`` is
        known absent from L1 and L2 at each insertion point, so the
        membership probes a generic insert would re-run are skipped.  Rare
        coherence branches (remote sharers, dirty-victim absorption) stay as
        helper calls.
        """
        modified = ST_MODIFIED
        sharers_map = self._sharers
        l1 = self.l1[core_id]
        l2 = self.l2[core_id]
        index2 = block & l2._set_mask
        slot2 = l2._set_blocks[index2]
        if block in slot2:
            # L2 hit: touch LRU, upgrade on write, then fill L1 below.
            self._p_l2_hits += 1
            states2 = l2._set_states[index2]
            i = slot2.index(block)
            state = states2.pop(i)
            slot2.append(slot2.pop(i))
            if is_write and state != modified:
                self._upgrade_for_write(core_id, block, state)
                state = modified
            states2.append(state)
            level = "L2"
        else:
            l3 = self.l3
            index3 = block & l3._set_mask
            slot3 = l3._set_blocks[index3]
            states3 = l3._set_states[index3]
            if block in slot3:
                # L3 hit: touch LRU, snoop remote copies, pick fill state.
                self._p_l3_hits += 1
                i = slot3.index(block)
                state3 = states3.pop(i)
                slot3.append(slot3.pop(i))
                states3.append(state3)
                sharers = sharers_map.get(block)
                if sharers and (len(sharers) > 1 or core_id not in sharers):
                    self._snoop_other_cores(core_id, block, is_write)
                    state = modified if is_write else ST_SHARED
                else:
                    state = modified if is_write else ST_EXCLUSIVE
                level = "L3"
            else:
                # LLC miss: fetch the block from memory, install in L3.
                self._p_llc_misses += 1
                traffic.append((block << BLOCK_OFFSET_BITS, False))
                if len(slot3) >= l3.associativity:
                    victim_block = slot3.pop(0)
                    victim_state = states3.pop(0)
                    l3._pend_evictions += 1
                    dirty = victim_state == modified
                    if dirty:
                        l3._pend_dirty_evictions += 1
                    # Inclusive L3: back-invalidate private copies.
                    sharers = sharers_map.get(victim_block)
                    if sharers:
                        for core in list(sharers):
                            dirty |= self.l1[core]._invalidate_slot(victim_block)
                            dirty |= self.l2[core]._invalidate_slot(victim_block)
                            sharers.discard(core)
                            self._p_back_invalidations += 1
                    if dirty:
                        traffic.append((victim_block << BLOCK_OFFSET_BITS, True))
                        self._p_writebacks += 1
                slot3.append(block)
                states3.append(ST_EXCLUSIVE)
                state = modified if is_write else ST_EXCLUSIVE
                level = "memory"

            # Fill L2 (block is absent: the probe above missed, and nothing
            # since can have inserted it).
            states2 = l2._set_states[index2]
            if len(slot2) >= l2.associativity:
                victim_block = slot2.pop(0)
                victim_state = states2.pop(0)
                l2._pend_evictions += 1
                if victim_state == modified:
                    l2._pend_dirty_evictions += 1
                slot2.append(block)
                states2.append(state)
                self.l1[core_id]._invalidate_slot(victim_block)
                sharers = sharers_map.get(victim_block)
                if sharers is not None:
                    sharers.discard(core_id)
                if victim_state == modified and l3._peek(victim_block) is not None:
                    l3._set_state_slot(victim_block, modified)
            else:
                slot2.append(block)
                states2.append(state)

        # Fill L1 (block is absent: this is the L1 miss path, and nothing
        # since can have inserted it).  Dirty victims are absorbed by L2.
        index1 = block & l1._set_mask
        slot1 = l1._set_blocks[index1]
        states1 = l1._set_states[index1]
        if len(slot1) >= l1.associativity:
            victim_block = slot1.pop(0)
            victim_state = states1.pop(0)
            l1._pend_evictions += 1
            if victim_state == modified:
                l1._pend_dirty_evictions += 1
                slot1.append(block)
                states1.append(state)
                l2._insert_slot(victim_block, modified)
            else:
                slot1.append(block)
                states1.append(state)
        else:
            slot1.append(block)
            states1.append(state)
        sharers = sharers_map.get(block)
        if sharers is None:
            sharers = sharers_map[block] = set()
        sharers.add(core_id)
        return level

    def _upgrade_for_write(self, core_id: int, block: int, state: int) -> None:
        if state != ST_MODIFIED:
            # Invalidate other sharers (MESI upgrade / invalidation).
            sharers = self._sharers.get(block)
            if not sharers:
                return
            for other in [core for core in sharers if core != core_id]:
                self.l1[other]._invalidate_slot(block)
                self.l2[other]._invalidate_slot(block)
                sharers.discard(other)
                self._p_coherence_invalidations += 1

    def _snoop_other_cores(self, core_id: int, block: int, is_write: bool) -> None:
        """MESI snoop: downgrade (read) or invalidate (write) remote copies."""
        sharers = self._sharers.get(block)
        if not sharers:
            return
        for other in [core for core in sharers if core != core_id]:
            if is_write:
                dirty = self.l1[other]._invalidate_slot(block)
                dirty |= self.l2[other]._invalidate_slot(block)
                sharers.discard(other)
                self._p_coherence_invalidations += 1
            else:
                dirty = self.l1[other]._downgrade_slot(block)
                dirty |= self.l2[other]._downgrade_slot(block)
            if dirty:
                # Dirty data is forwarded core-to-core through L3; mark the
                # L3 copy modified rather than writing memory immediately.
                if self.l3._peek(block) is not None:
                    self.l3._set_state_slot(block, ST_MODIFIED)
                self._p_dirty_forwards += 1

    # ------------------------------------------------------------------

    def mpki(self) -> float:
        """LLC misses per kilo-instruction over the instructions recorded."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.stats.get("llc_misses") / self.instructions


BLOCK_BYTES = BLOCK_SIZE_BYTES
