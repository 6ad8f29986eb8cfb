"""Machine configuration (paper Table 2) and protection levels."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.config import AuthMode, ChannelInjection, DummyAddressPolicy, ObfusMemConfig
from repro.errors import ConfigurationError
from repro.mem.address_mapping import organization_bits
from repro.mem.dram_timing import EngineTiming, PcmEnergy, PcmTiming
from repro.oram.backend import DEFAULT_ACCESS_LATENCY_NS


class ProtectionLevel(enum.Enum):
    """The systems compared in the evaluation (Figure 4 / Table 3 / §7).

    Each member's value is the registry name of a built-in
    :class:`~repro.schemes.registry.ProtectionScheme`; the enum survives as
    the stable, typo-proof handle for the paper's named systems, while
    registry-only schemes (hybrids, ablations) are addressed by name.
    """

    UNPROTECTED = "unprotected"
    ENCRYPTION_ONLY = "encryption_only"  # counter-mode memory encryption
    OBFUSMEM = "obfusmem"  # + access pattern obfuscation
    OBFUSMEM_AUTH = "obfusmem_auth"  # + authenticated communication
    ORAM = "oram"  # Path ORAM baseline (fixed-latency model)
    HIDE = "hide"  # chunk-permutation baseline (§7, no encryption)


@dataclass(frozen=True)
class MachineConfig:
    """Everything Table 2 specifies, with the paper's defaults."""

    cpu_clock_ghz: float = 2.0
    capacity_bytes: int = 8 << 30
    channels: int = 1
    ranks_per_channel: int = 2
    banks_per_rank: int = 8
    row_buffer_bytes: int = 1024
    timing: PcmTiming = field(default_factory=PcmTiming)
    energy: PcmEnergy = field(default_factory=PcmEnergy)
    engines: EngineTiming = field(default_factory=EngineTiming)
    counter_cache_bytes: int = 256 << 10
    oram_access_latency_ns: float = DEFAULT_ACCESS_LATENCY_NS
    # Smart-DIMM wear leveling (§2.2); off by default to match the paper's
    # evaluation configuration.
    wear_leveling: bool = False
    # ObfusMem knobs (overridable for the Figure 5 sweep / ablations).
    channel_injection: ChannelInjection = ChannelInjection.OPT
    dummy_policy: DummyAddressPolicy = DummyAddressPolicy.FIXED
    substitute_dummies: bool = True

    def __post_init__(self) -> None:
        if self.channels not in (1, 2, 4, 8, 16):
            raise ConfigurationError(f"unsupported channel count {self.channels}")
        # Reject every organization the address decoder would, here rather
        # than when a job first builds the memory system.
        organization_bits(
            self.capacity_bytes,
            self.channels,
            self.ranks_per_channel,
            self.banks_per_rank,
            self.row_buffer_bytes,
        )

    def obfusmem_config(self, auth: AuthMode) -> ObfusMemConfig:
        """ObfusMem controller knobs derived from this machine config."""
        return ObfusMemConfig(
            dummy_policy=self.dummy_policy,
            channel_injection=self.channel_injection,
            auth=auth,
            substitute_dummies=self.substitute_dummies,
            engines=self.engines,
        )
