"""Security analysis: leakage metrics and the energy and lifetime models."""

from repro.analysis.energy import (
    EnergyComparison,
    MeasuredEnergy,
    PCM_WRITE_TO_READ_ENERGY,
    analytical_comparison,
    measure_obfusmem,
    measure_oram,
)
from repro.analysis.leakage import (
    ExpectedLeakage,
    FootprintLeak,
    channel_coactivity,
    channel_entropy,
    chunk_locality_score,
    ciphertext_repeat_fraction,
    expected_leakage,
    footprint_leak,
    observed_write_share,
    spatial_locality_score,
    timing_regularity,
    type_inference_accuracy,
    wire_address,
)

__all__ = [
    "EnergyComparison",
    "MeasuredEnergy",
    "PCM_WRITE_TO_READ_ENERGY",
    "analytical_comparison",
    "measure_obfusmem",
    "measure_oram",
    "ExpectedLeakage",
    "FootprintLeak",
    "channel_coactivity",
    "channel_entropy",
    "chunk_locality_score",
    "ciphertext_repeat_fraction",
    "expected_leakage",
    "footprint_leak",
    "observed_write_share",
    "spatial_locality_score",
    "timing_regularity",
    "type_inference_accuracy",
    "wire_address",
]
