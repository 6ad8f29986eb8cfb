"""Physical address interleaving: the RoRaBaChCo mapping of Table 2.

``RoRaBaChCo`` reads most-significant to least-significant:
Row | Rank | Bank | Channel | Column.  With 64-byte blocks and 1KB row
buffers, consecutive blocks walk through the columns of a row first, then
across channels, banks and ranks — the standard layout the paper simulates,
and the one that makes *inter-channel* spatial leakage real: sequential
addresses visibly stripe across channel pins (paper §3.4).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import ConfigurationError
from repro.mem.request import BLOCK_OFFSET_BITS, BLOCK_SIZE_BYTES


def _log2_exact(value: int, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    if value <= 0 or value & (value - 1):
        raise ConfigurationError(f"{what} must be a positive power of two, got {value}")
    return value.bit_length() - 1


def organization_bits(
    capacity_bytes: int,
    channels: int,
    ranks_per_channel: int,
    banks_per_rank: int,
    row_buffer_bytes: int,
) -> tuple[int, int, int, int, int]:
    """Field widths ``(channel, rank, bank, column, row)`` of a RoRaBaChCo layout.

    Raises :class:`~repro.errors.ConfigurationError` for any organization
    the decoder cannot address: a count that is not a positive power of
    two, a row buffer of partial blocks, or a capacity with no row bits
    left.  :class:`~repro.system.config.MachineConfig` runs the same check
    at construction, so a bad organization fails where it is specified.
    """
    channel_bits = _log2_exact(channels, "channels")
    rank_bits = _log2_exact(ranks_per_channel, "ranks per channel")
    bank_bits = _log2_exact(banks_per_rank, "banks per rank")
    if row_buffer_bytes % BLOCK_SIZE_BYTES:
        raise ConfigurationError("row buffer must hold whole blocks")
    column_bits = _log2_exact(row_buffer_bytes // BLOCK_SIZE_BYTES, "blocks per row")
    fixed_bits = BLOCK_OFFSET_BITS + column_bits + channel_bits + bank_bits + rank_bits
    row_bits = _log2_exact(capacity_bytes, "capacity") - fixed_bits
    if row_bits <= 0:
        raise ConfigurationError("capacity too small for this organization")
    return channel_bits, rank_bits, bank_bits, column_bits, row_bits


class DecodedAddress(NamedTuple):
    """Channel/rank/bank/row/column coordinates of one block.

    A tuple rather than a dataclass: every decode-memo miss builds one.
    """

    channel: int
    rank: int
    bank: int
    row: int
    column: int


class AddressMapping:
    """RoRaBaChCo decoder for a multi-channel PCM memory.

    Parameters mirror Table 2: 2 ranks/channel, 8 banks/rank, 1KB row
    buffers, 64B blocks; channels configurable (1/2/4/8 in the sweep).
    """

    def __init__(
        self,
        capacity_bytes: int = 8 << 30,
        channels: int = 1,
        ranks_per_channel: int = 2,
        banks_per_rank: int = 8,
        row_buffer_bytes: int = 1024,
    ):
        self.capacity_bytes = capacity_bytes
        self.channels = channels
        self.ranks_per_channel = ranks_per_channel
        self.banks_per_rank = banks_per_rank
        self.row_buffer_bytes = row_buffer_bytes

        (
            self._channel_bits,
            self._rank_bits,
            self._bank_bits,
            self._column_bits,
            self._row_bits,
        ) = organization_bits(
            capacity_bytes,
            channels,
            ranks_per_channel,
            banks_per_rank,
            row_buffer_bytes,
        )
        self.blocks_per_row = row_buffer_bytes // BLOCK_SIZE_BYTES
        self.rows_per_bank = 1 << self._row_bits
        self.num_blocks = capacity_bytes // BLOCK_SIZE_BYTES
        # Decode memo: coordinates are pure functions of the address and
        # :class:`DecodedAddress` is immutable, so instances are shared.  The
        # cache is bounded by the number of distinct blocks a run touches.
        self._decode_cache: dict[int, DecodedAddress] = {}
        # One reserved dummy block per channel (paper §3.3), precomputed:
        # the FIXED dummy policy asks for it on every escort pair.
        self._dummy_blocks = [
            self.encode(
                DecodedAddress(
                    channel=channel,
                    rank=0,
                    bank=0,
                    row=self.rows_per_bank - 1,
                    column=0,
                )
            )
            for channel in range(channels)
        ]

    def __getstate__(self) -> dict:
        """Pickle without the decode memo.

        The memo is a pure function of the address and grows with every
        distinct block a run touches — under address randomization that is
        most of the snapshot payload of a checkpointed world.  Dropping it
        is invisible to resumed runs (entries regenerate on demand,
        bit-identically) and keeps checkpoint size O(machine), not
        O(footprint).
        """
        state = self.__dict__.copy()
        state["_decode_cache"] = {}
        return state

    def decode(self, address: int) -> DecodedAddress:
        """Split a block-aligned byte address into device coordinates."""
        cached = self._decode_cache.get(address)
        if cached is not None:
            return cached
        if not 0 <= address < self.capacity_bytes:
            raise ConfigurationError(
                f"address {address:#x} outside capacity {self.capacity_bytes:#x}"
            )
        bits = address >> BLOCK_OFFSET_BITS
        column = bits & (self.blocks_per_row - 1)
        bits >>= self._column_bits
        channel = bits & ((1 << self._channel_bits) - 1)
        bits >>= self._channel_bits
        bank = bits & ((1 << self._bank_bits) - 1)
        bits >>= self._bank_bits
        rank = bits & ((1 << self._rank_bits) - 1)
        bits >>= self._rank_bits
        row = bits
        decoded = self._decode_cache[address] = DecodedAddress(
            channel, rank, bank, row, column
        )
        return decoded

    def encode(self, decoded: DecodedAddress) -> int:
        """Inverse of :meth:`decode`; used by tests and the dummy reserver."""
        bits = decoded.row
        bits = (bits << self._rank_bits) | decoded.rank
        bits = (bits << self._bank_bits) | decoded.bank
        bits = (bits << self._channel_bits) | decoded.channel
        bits = (bits << self._column_bits) | decoded.column
        return bits << BLOCK_OFFSET_BITS

    def channel_of(self, address: int) -> int:
        """Fast path: just the channel index of a block address."""
        return (address >> (BLOCK_OFFSET_BITS + self._column_bits)) & (
            (1 << self._channel_bits) - 1
        )

    def dummy_block_address(self, channel: int) -> int:
        """The reserved fixed dummy block for a channel (paper §3.3).

        Each memory module reserves one 64-byte block; we place it at the
        highest row of bank 0, rank 0 of the channel so it never collides
        with low-address workloads.
        """
        if not 0 <= channel < self.channels:
            raise ConfigurationError(f"channel {channel} out of range")
        return self._dummy_blocks[channel]
