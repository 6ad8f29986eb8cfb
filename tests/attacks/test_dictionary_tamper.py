"""The §3.2 dictionary attacker and the §3.5 active forgery battery."""

import pytest

from repro.attacks import AttackInput, WorkloadCapture, get_attacker
from repro.attacks.dictionary import DictionaryAttacker
from repro.attacks.tamper import TamperAttacker, address_flip_attack
from repro.core.config import AuthMode
from tests.attacks.test_passive import capture, cipher_wire, command, plain_wire


def observed(transfers, scheme="unprotected"):
    return AttackInput(
        scheme=scheme, channels=1, captures={"w": (capture(transfers),)}
    )


class TestDictionaryLinkability:
    def test_deterministic_wire_links_every_repeat(self):
        transfers = [
            command(time_ps=i * 1_000, address=(i % 8) * 64) for i in range(40)
        ]
        outcome = DictionaryAttacker().attack(observed(transfers))
        assert outcome.advantage == 1.0
        assert outcome.evidence["linkable_pairs"] == 32
        assert outcome.evidence["matched"] == 32

    def test_read_write_repeat_links_via_the_address_field(self):
        """A read-then-write pair differs only in the type byte; the
        known-layout address field still links the two encodings."""
        transfers = [
            command(time_ps=0, address=0x4000, is_write=False),
            command(time_ps=1_000, address=0x4000, is_write=True),
        ]
        outcome = DictionaryAttacker().attack(observed(transfers))
        assert outcome.advantage == 1.0
        assert outcome.evidence == {"linkable_pairs": 1, "matched": 1}

    def test_one_time_encodings_never_link(self):
        transfers = [
            command(time_ps=i * 1_000, address=(i % 8) * 64, wire=cipher_wire(i))
            for i in range(40)
        ]
        outcome = DictionaryAttacker().attack(observed(transfers, "obfusmem"))
        assert outcome.advantage == 0.0
        assert outcome.evidence["linkable_pairs"] == 32
        assert outcome.evidence["matched"] == 0

    def test_no_repeats_means_no_signal(self):
        transfers = [command(time_ps=i * 1_000, address=i * 64) for i in range(20)]
        outcome = DictionaryAttacker().attack(observed(transfers))
        assert outcome.advantage == 0.0
        assert outcome.evidence["linkable_pairs"] == 0

    def test_dummy_commands_are_not_scored(self):
        transfers = [
            command(time_ps=i * 1_000, address=0x1000, dummy=True) for i in range(10)
        ]
        assert (
            DictionaryAttacker()
            .attack(observed(transfers))
            .evidence["linkable_pairs"]
            == 0
        )


def battery(scheme):
    return TamperAttacker().attack(AttackInput(scheme=scheme, channels=1))


class TestTamperBattery:
    def test_plaintext_wire_accepts_every_forgery(self):
        outcome = battery("unprotected")
        assert outcome.advantage == 1.0
        assert outcome.evidence["mode"] == "plaintext-wire"

    def test_opaque_backend_exposes_no_wire(self):
        outcome = battery("oram")
        assert outcome.advantage == 0.0
        assert outcome.evidence["mode"] == "opaque-backend"

    def test_mac_catches_the_address_flip_that_encryption_misses(self):
        plain = battery("obfusmem")
        authed = battery("obfusmem_auth")
        assert plain.evidence["address_flip"] == "undetected"
        assert authed.evidence["address_flip"] == "detected"
        # Data tampering is deferred to the Merkle tree for both (Obs. 4).
        assert plain.evidence["data_tamper"] == "undetected"
        assert authed.evidence["data_tamper"] == "undetected"
        assert plain.advantage > authed.advantage
        assert authed.advantage == pytest.approx(1 / 6)

    def test_address_flip_direct_harness(self):
        assert address_flip_attack(AuthMode.ENCRYPT_AND_MAC).detected
        assert not address_flip_attack(AuthMode.NONE).detected


class TestLegacyShims:
    def test_registry_wrappers_are_registered(self):
        assert isinstance(get_attacker("dictionary"), DictionaryAttacker)
        assert isinstance(get_attacker("tamper"), TamperAttacker)


class TestCaptureViews:
    def test_real_commands_excludes_dummies_and_unannotated(self):
        from repro.mem.bus import BusTransfer, Direction, TransferKind

        unannotated = BusTransfer(
            time_ps=2,
            channel=0,
            kind=TransferKind.COMMAND,
            direction=Direction.TO_MEMORY,
            wire_bytes=plain_wire(0x3000),
        )
        cap = WorkloadCapture(
            "w",
            0,
            (
                command(time_ps=0, address=0x1000),
                command(time_ps=1, address=0x2000, dummy=True),
                unannotated,
            ),
        )
        assert len(cap.commands()) == 3
        real = cap.real_commands()
        assert len(real) == 1 and real[0].plaintext_address == 0x1000
