"""Diffie–Hellman key exchange for session-key establishment.

At boot, the processor's ObfusMem controller runs a DH exchange with each
memory module's logic-layer controller to derive a per-channel *shared
session secret key* (paper §3.1).  The exchange is authenticated at a higher
layer by the trust architecture (RSA signatures over the DH public values),
implemented in :mod:`repro.core.trust`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.rng import DeterministicRng, generate_safe_prime
from repro.crypto.sha1 import sha1
from repro.errors import CryptoError

# A fixed well-known group (RFC 3526 1536-bit MODP would be the realistic
# choice; for simulation speed we default to a smaller safe-prime group that
# callers may override).
DEFAULT_GROUP_BITS = 256


@dataclass(frozen=True)
class DhGroup:
    """A prime-order Diffie–Hellman group (safe prime ``p``, generator 2)."""

    prime: int
    generator: int = 2

    def __post_init__(self) -> None:
        if self.prime < 5 or self.prime % 2 == 0:
            raise CryptoError("DH prime must be an odd prime >= 5")
        if not 2 <= self.generator < self.prime:
            raise CryptoError("DH generator out of range")

    @classmethod
    def generate(cls, rng: DeterministicRng, bits: int = DEFAULT_GROUP_BITS) -> "DhGroup":
        return cls(prime=generate_safe_prime(bits, rng))


class DhParty:
    """One endpoint of a Diffie–Hellman exchange."""

    def __init__(self, group: DhGroup, rng: DeterministicRng):
        self.group = group
        # Private exponent in [2, p-2].
        self._private = rng.randint(2, group.prime - 2)
        self.public_value = pow(group.generator, self._private, group.prime)

    def shared_secret(self, peer_public_value: int) -> int:
        """Raw shared secret g^(ab) mod p."""
        if not 2 <= peer_public_value <= self.group.prime - 2:
            raise CryptoError("peer DH public value out of range")
        return pow(peer_public_value, self._private, self.group.prime)

    def session_key(self, peer_public_value: int) -> bytes:
        """Derive a 16-byte AES session key from the shared secret.

        The secret is hashed (SHA-1, truncated to 128 bits) so the key is
        uniformly distributed regardless of group structure.
        """
        secret = self.shared_secret(peer_public_value)
        byte_length = (self.group.prime.bit_length() + 7) // 8
        return sha1(secret.to_bytes(byte_length, "big"))[:16]


def establish_session_key(
    rng: DeterministicRng, group: DhGroup | None = None
) -> tuple[bytes, bytes]:
    """Run a complete two-party exchange; returns (key_a, key_b).

    Both keys are equal when the exchange is untampered — tests assert this,
    and the tamper-injection tests in :mod:`repro.attacks.tamper` assert
    the converse.
    """
    if group is None:
        group = DhGroup.generate(rng.fork("dh-group"))
    party_a = DhParty(group, rng.fork("dh-a"))
    party_b = DhParty(group, rng.fork("dh-b"))
    return (
        party_a.session_key(party_b.public_value),
        party_b.session_key(party_a.public_value),
    )
