"""PCM device model: banks, row buffers, endurance and functional storage.

Follows the Lee et al. (ISCA 2009) organization the paper simulates: each
bank has a 1KB row buffer; reads activate a row (a PCM array read, tRCD);
writes land in the row buffer; PCM *cells* are written only when a dirty row
buffer is evicted (tRP).  The device tracks per-row write counts so the
experiments can report wear/endurance, and can optionally hold real data
bytes for the functional end-to-end path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import ConfigurationError
from repro.mem.address_mapping import AddressMapping, DecodedAddress
from repro.mem.dram_timing import PcmEnergy, PcmTiming
from repro.mem.request import BLOCK_SIZE_BYTES, block_aligned
from repro.mem.wear_leveling import StartGapWearLeveler
from repro.sim.statistics import StatGroup


@dataclass
class _BankState:
    open_row: int | None = None
    dirty: bool = False
    busy_until_ps: int = 0


class AccessTiming(NamedTuple):
    """Timing decomposition of one bank access.

    A tuple rather than a dataclass: every PCM access builds one, and a
    tuple is built in about half the time.
    """

    preparation_ps: int  # precharge (dirty write-back) + activation
    row_hit: bool
    wrote_cells: bool  # a PCM array (cell) write happened


class PcmDevice:
    """All banks of one memory *channel* plus wear and energy accounting."""

    def __init__(
        self,
        mapping: AddressMapping,
        channel: int,
        timing: PcmTiming,
        energy: PcmEnergy,
        stats: StatGroup,
        functional: bool = False,
        wear_leveling: bool = False,
        gap_write_interval: int = 16,
    ):
        if not 0 <= channel < mapping.channels:
            raise ConfigurationError(f"channel {channel} out of range")
        self.mapping = mapping
        self.channel = channel
        self.timing = timing
        self.energy = energy
        self.stats = stats
        # Hot-path binding: `access` runs per issued request, so counter
        # updates go through the live dict rather than StatGroup.add.
        self._counters = stats.counters()
        self._banks: dict[tuple[int, int], _BankState] = {
            (rank, bank): _BankState()
            for rank in range(mapping.ranks_per_channel)
            for bank in range(mapping.banks_per_rank)
        }
        self._row_write_counts: dict[tuple[int, int, int], int] = defaultdict(int)
        self._store: dict[int, bytes] | None = {} if functional else None
        # §2.2: smart NVM modules host wear-leveling logic in the DIMM.
        # One Start-Gap leveler per bank remaps rows; the row-buffer state
        # then tracks *physical* rows.  (Gap moves are rare; their
        # interaction with an open row buffer is simplified away.)
        self._levelers: dict[tuple[int, int], StartGapWearLeveler] | None = (
            {
                key: StartGapWearLeveler(
                    mapping.rows_per_bank, stats, gap_write_interval
                )
                for key in self._banks
            }
            if wear_leveling
            else None
        )

    def bank_state(self, decoded: DecodedAddress) -> _BankState:
        """Row-buffer state of the bank holding this address."""
        return self._banks[(decoded.rank, decoded.bank)]

    def _physical_row(self, decoded: DecodedAddress) -> int:
        if self._levelers is None:
            return decoded.row
        return self._levelers[(decoded.rank, decoded.bank)].physical_row(decoded.row)

    def access(
        self, decoded: DecodedAddress, is_write: bool, bank: _BankState | None = None
    ) -> AccessTiming:
        """Update row-buffer state for one access and return its timing.

        The scheduler decides *when* the access happens; this method decides
        *how long* the bank-side part takes and does the bookkeeping.
        Callers that already hold the bank's state (the scheduler caches it
        per queued request) pass it as ``bank`` to skip the lookup.
        """
        if bank is None:
            bank = self.bank_state(decoded)
        row = self._physical_row(decoded)
        row_hit = bank.open_row == row
        preparation = 0
        wrote_cells = False
        counters = self._counters
        if not row_hit:
            if bank.open_row is not None and bank.dirty:
                # Dirty row eviction: the whole row is written back to the
                # PCM array. This is the only point PCM cells are written.
                preparation += self.timing.t_rp_ps
                wrote_cells = True
                self._record_cell_write(decoded.rank, decoded.bank, bank.open_row)
            # Activate the new row: a PCM array read.
            preparation += self.timing.t_rcd_ps
            counters["array_reads"] += 1
            counters["energy_pj"] += self.energy.array_read_pj
            bank.open_row = row
            bank.dirty = False
        else:
            counters["row_buffer_hits"] += 1
        counters["row_buffer_accesses"] += 1
        counters["energy_pj"] += self.energy.row_buffer_access_pj
        if is_write:
            bank.dirty = True
        return AccessTiming(preparation, row_hit, wrote_cells)

    def _record_cell_write(self, rank: int, bank: int, row: int) -> None:
        self._row_write_counts[(rank, bank, row)] += 1
        self.stats.add("array_writes")
        self.stats.add("energy_pj", self.energy.array_write_pj)
        if self._levelers is not None:
            leveler = self._levelers[(rank, bank)]
            if leveler.note_row_write():
                # Gap movement copies a displaced row: one extra cell write
                # landing at the (new) gap position.
                self._row_write_counts[(rank, bank, leveler.gap)] += 1
                self.stats.add("array_writes")
                self.stats.add("wear_level_writes")
                self.stats.add("energy_pj", self.energy.array_write_pj)

    def flush_dirty_rows(self) -> int:
        """Write back every dirty open row (end-of-simulation accounting)."""
        flushed = 0
        for (rank, bank), state in self._banks.items():
            if state.open_row is not None and state.dirty:
                self._record_cell_write(rank, bank, state.open_row)
                state.dirty = False
                flushed += 1
        return flushed

    # --- wear accounting -------------------------------------------------

    @property
    def total_cell_writes(self) -> int:
        return sum(self._row_write_counts.values())

    @property
    def max_row_writes(self) -> int:
        """Worst-case wear across rows (lifetime is limited by the max)."""
        return max(self._row_write_counts.values(), default=0)

    # --- functional storage ----------------------------------------------

    @property
    def is_functional(self) -> bool:
        return self._store is not None

    def read_block(self, address: int) -> bytes:
        """Functional read; unwritten blocks return deterministic zeros."""
        if self._store is None:
            raise ConfigurationError("device was built without functional storage")
        return self._store.get(block_aligned(address), b"\x00" * BLOCK_SIZE_BYTES)

    def write_block(self, address: int, data: bytes) -> None:
        """Functional write of one 64-byte block."""
        if self._store is None:
            raise ConfigurationError("device was built without functional storage")
        if len(data) != BLOCK_SIZE_BYTES:
            raise ConfigurationError(f"block must be {BLOCK_SIZE_BYTES} bytes")
        self._store[block_aligned(address)] = bytes(data)
