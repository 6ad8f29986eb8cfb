"""The §3.2 dictionary (frequency-analysis) attack, registry edition.

This is the paper's argument for counter mode: a *deterministic* address
encryption (the ECB strawman, HIDE's table permutation, or no encryption
at all) preserves access frequencies, so ranking wire encodings by count
and pairing them with the hottest plaintext addresses recovers the hot
set.  The primitives are :class:`EcbAddressObfuscation` and
:func:`dictionary_attack`; :class:`DictionaryAttacker` wraps them as a
registry attacker scored per capture in the leakage matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.attacks.base import (
    AttackInput,
    AttackOutcome,
    Attacker,
    WorkloadCapture,
    register_attacker,
    wire_address,
)
from repro.crypto.aes import AES128
from repro.mem.bus import BusTransfer, TransferKind

if TYPE_CHECKING:
    from repro.analysis.leakage import ExpectedLeakage


class EcbAddressObfuscation:
    """The ECB strawman of §3.2: ``Y = E_Key(X)`` per address.

    Deterministic, so spatial locality across blocks is hidden but temporal
    reuse, footprint and access frequencies all leak.  Exists solely so the
    dictionary attack below has a demonstrable victim.
    """

    def __init__(self, key: bytes):
        self._cipher = AES128(key)

    def encrypt_address(self, address: int) -> bytes:
        """Deterministically encrypt one address (the ECB weakness)."""
        return self._cipher.encrypt_block(address.to_bytes(16, "big"))


@dataclass(frozen=True)
class DictionaryAttackResult:
    """Outcome of frequency matching between plaintext and wire streams."""

    correct_matches: int
    candidates: int

    @property
    def accuracy(self) -> float:
        """Fraction of rank-paired encodings that matched a true mapping."""
        return self.correct_matches / self.candidates if self.candidates else 0.0


def dictionary_attack(
    plaintext_addresses: list[int], wire_encodings: list[bytes], top_k: int = 8
) -> DictionaryAttackResult:
    """Match the ``top_k`` most frequent wire encodings to the most frequent
    plaintext addresses by rank (the classic frequency-analysis attack).

    Deterministic encryption (ECB) preserves frequency ranks, so the attack
    recovers the hot addresses; counter-mode wire encodings are all unique
    and the attack degenerates to guessing.
    """
    plain_ranks = [address for address, _ in Counter(plaintext_addresses).most_common(top_k)]
    wire_ranks = [encoding for encoding, _ in Counter(wire_encodings).most_common(top_k)]
    pairs = list(zip(plain_ranks, wire_ranks))
    if not pairs:
        return DictionaryAttackResult(0, 0)
    # Score against the true mapping: an encoding matches if it is the
    # encryption the rank-paired address actually produced somewhere.
    truth: dict[bytes, set[int]] = {}
    for address, encoding in zip(plaintext_addresses, wire_encodings):
        truth.setdefault(encoding, set()).add(address)
    correct = sum(1 for address, encoding in pairs if address in truth.get(encoding, set()))
    return DictionaryAttackResult(correct, len(pairs))


def command_wire_encodings(transfers: list[BusTransfer]) -> list[bytes]:
    """Extract command wire bytes from a transfer list."""
    return [t.wire_bytes for t in transfers if t.kind is TransferKind.COMMAND]


class DictionaryAttacker(Attacker):
    """Measure whether a wire permits §3.2's dictionary building.

    The frequency rank-matching of :func:`dictionary_attack` only works
    because a deterministic encoding repeats whenever its address repeats —
    temporal linkability is the attack's enabling condition, and it is what
    this attacker scores on live captures: of the true address-repeat pairs
    in the real command stream, what fraction also repeat their wire
    encoding?  Plaintext, the ECB strawman and HIDE's table permutation
    link every pair (the attacker can grow a dictionary without bound);
    counter-mode encodings are one-time, so no pair ever links and the
    advantage is exactly zero.  Chance linkage over a 64-bit encoding space
    is negligible, hence the 0.0 baseline.
    """

    name: ClassVar[str] = "dictionary"
    summary: ClassVar[str] = "temporal linkability of repeated wire encodings"
    leak_threshold: ClassVar[float] = 0.3

    def _capture_links(self, capture: WorkloadCapture) -> tuple[int, int]:
        """(matched, linkable) encoding pairs over one capture's repeats."""
        encodings_by_address: dict[int, list[bytes]] = {}
        for t in capture.real_commands():
            assert t.plaintext_address is not None  # real_commands guarantees
            encodings_by_address.setdefault(t.plaintext_address, []).append(
                t.wire_bytes
            )
        matched = linkable = 0
        for encodings in encodings_by_address.values():
            for first, second in zip(encodings, encodings[1:]):
                linkable += 1
                # The attacker links on whichever signal survives: the full
                # encoding (ECB-style) or the known-layout address field (a
                # plaintext read/write pair differs only in the type byte).
                matched += first == second or wire_address(first) == wire_address(
                    second
                )
        return matched, linkable

    def attack(self, observed: AttackInput) -> AttackOutcome:
        """Score encoding linkability over every capture's repeat pairs."""
        matched = linkable = 0
        for workload in observed.workloads():
            for capture in observed.captures[workload]:
                m, n = self._capture_links(capture)
                matched, linkable = matched + m, linkable + n
        accuracy = matched / linkable if linkable else 0.0
        return AttackOutcome(
            self.name,
            observed.scheme,
            accuracy,
            0.0,
            accuracy,
            {"linkable_pairs": linkable, "matched": matched},
        )

    def expects_leak(self, expected: "ExpectedLeakage") -> bool:
        """Leaks when encodings repeat: a wire without temporal hiding."""
        return expected.wire_observable and not expected.temporal_hidden


register_attacker(DictionaryAttacker())
