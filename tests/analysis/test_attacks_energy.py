"""Active attacks (§3.5 scenarios) and the §5.2 energy model."""

import pytest

from repro.analysis.energy import analytical_comparison, measure_obfusmem
from repro.attacks.dictionary import EcbAddressObfuscation, dictionary_attack
from repro.attacks.tamper import (
    command_bitflip_attack,
    data_tamper_attack,
    injection_attack,
    message_drop_attack,
    replay_attack,
)
from repro.core.config import AuthMode
from repro.crypto.rng import DeterministicRng


class TestActiveAttacks:
    def test_command_bitflip_detected(self):
        assert command_bitflip_attack().detected

    def test_message_drop_detected(self):
        assert message_drop_attack().detected

    def test_replay_detected(self):
        assert replay_attack().detected

    def test_injection_detected(self):
        assert injection_attack().detected

    def test_data_tamper_not_detected_at_bus(self):
        """Observation 4: encrypt-and-MAC does not cover data; detection is
        deferred to the Merkle tree when the block is read back."""
        assert not data_tamper_attack().detected

    def test_bitflip_detected_even_without_mac(self):
        """Without a MAC, the tampered command decodes to a garbage type
        code with overwhelming probability — detected, but only
        probabilistically; the MAC makes it certain."""
        outcome = command_bitflip_attack(auth=AuthMode.NONE)
        assert outcome.detected  # type byte is scrambled for this input

    def test_encrypt_then_mac_also_detects_bitflip(self):
        assert command_bitflip_attack(auth=AuthMode.ENCRYPT_THEN_MAC).detected


class TestDictionaryAttack:
    def make_streams(self, mode):
        rng = DeterministicRng(17)
        hot = [0x1000, 0x2000, 0x3000, 0x4000, 0x5000]
        weights = [30, 25, 20, 15, 10]
        addresses = [a for a, w in zip(hot, weights) for _ in range(w)]
        rng.shuffle(addresses)
        if mode == "ecb":
            ecb = EcbAddressObfuscation(rng.token_bytes(16))
            wires = [ecb.encrypt_address(a) for a in addresses]
        else:  # counter-mode: unique encodings
            wires = [rng.token_bytes(16) for _ in addresses]
        return addresses, wires

    def test_ecb_breaks(self):
        addresses, wires = self.make_streams("ecb")
        result = dictionary_attack(addresses, wires, top_k=5)
        assert result.accuracy == 1.0

    def test_counter_mode_resists(self):
        addresses, wires = self.make_streams("ctr")
        result = dictionary_attack(addresses, wires, top_k=5)
        assert result.accuracy == 0.0

    def test_empty_streams(self):
        assert dictionary_attack([], []).accuracy == 0.0


class TestAnalyticalEnergy:
    def test_paper_headline_numbers(self):
        comparison = analytical_comparison()
        assert comparison.oram_energy_factor == pytest.approx(780.0)
        assert comparison.obfusmem_energy_factor == pytest.approx(3.9)
        assert comparison.pcm_energy_reduction == pytest.approx(200.0)
        assert comparison.oram_pads_per_access == 800
        assert comparison.obfusmem_pads_worst_case == 64  # 4 channels
        assert comparison.obfusmem_pads_best_case == 16
        assert comparison.pad_reduction_worst_case == pytest.approx(12.5)
        assert comparison.pad_reduction_best_case == pytest.approx(50.0)
        assert comparison.lifetime_improvement == pytest.approx(100.0)

    def test_channel_scaling(self):
        assert analytical_comparison(channels=8).obfusmem_pads_worst_case == 128

    def test_measured_extractor_handles_empty_stats(self):
        measured = measure_obfusmem({}, "none")
        assert measured.accesses == 0
        assert measured.pads_per_access == 0.0
