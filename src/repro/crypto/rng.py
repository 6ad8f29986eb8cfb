"""Deterministic randomness for reproducible simulations.

Everything stochastic in the library — workload generation, Path ORAM leaf
remapping, key generation for the trust protocols — draws from a
:class:`DeterministicRng` seeded explicitly by the caller, so every
experiment is exactly reproducible.  The implementation wraps
:class:`random.Random` (Mersenne Twister) but narrows the interface to the
operations the library needs and adds byte/prime helpers.
"""

from __future__ import annotations

import random
import sys
from array import array

from repro.errors import CryptoError


class DeterministicRng:
    """Seeded random source with helpers for crypto-sized integers.

    This is *simulation* randomness, not security randomness: the library is
    a simulator and never protects real data.
    """

    def __init__(self, seed: int):
        self._random = random.Random(seed)
        self.seed = seed

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], inclusive."""
        return self._random.randint(low, high)

    def randrange(self, stop: int) -> int:
        """Uniform integer in [0, stop)."""
        return self._random.randrange(stop)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def expovariate(self, rate: float) -> float:
        """Exponentially distributed float with the given rate."""
        return self._random.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normally distributed float with the given mean and sigma."""
        return self._random.gauss(mu, sigma)

    def choice(self, sequence):
        """Uniformly choose one element of a sequence."""
        return self._random.choice(sequence)

    def shuffle(self, sequence) -> None:
        """Shuffle a sequence in place, exactly as :meth:`random.Random.shuffle`.

        Same permutation and same generator state afterwards, with the
        32-bit words drawn in bulk.  CPython's Fisher-Yates draws the
        partner ``j`` of swap position ``i`` by rejection sampling, one
        word per try (``_randbelow_with_getrandbits``):
        ``j = word >> (32 - (i + 1).bit_length())``, accepted when
        ``j <= i``.  With ``i`` swaps left, each consumes at least one
        word, so ``getrandbits(32 * i)`` never draws past what the stdlib
        would; its least significant word is the first one generated.
        Rejections leave swaps over, which draw again the same way.  HIDE
        shuffles a 1,024-entry permutation per chunk, where a method call
        per swap dominated.
        """
        getrandbits = self._random.getrandbits
        i = len(sequence) - 1
        while i > 0:
            # Unsigned 32-bit words in generation order, 4 bytes each.
            words = array("I", getrandbits(32 * i).to_bytes(4 * i, "little"))
            if sys.byteorder == "big":
                words.byteswap()
            shift = 32 - (i + 1).bit_length()
            # Below ``low`` the draw width (i + 1).bit_length() drops a bit.
            low = (1 << (31 - shift)) - 1
            for word in words:
                j = word >> shift
                if j <= i:
                    sequence[i], sequence[j] = sequence[j], sequence[i]
                    i -= 1
                    if i < low:
                        shift += 1
                        low >>= 1

    def sample(self, population, k: int):
        """Sample k distinct elements from a population."""
        return self._random.sample(population, k)

    def token_bytes(self, n: int) -> bytes:
        """``n`` uniformly random bytes."""
        if n < 0:
            raise CryptoError("cannot draw a negative number of bytes")
        return self._random.getrandbits(8 * n).to_bytes(n, "big") if n else b""

    def getrandbits(self, bits: int) -> int:
        """Uniform integer with the requested number of bits."""
        return self._random.getrandbits(bits)

    def getstate(self) -> tuple:
        """The full generator state, as :meth:`random.Random.getstate` gives it.

        The returned tuple is opaque but serializable (ints and tuples all
        the way down), so simulation checkpoints can carry it across
        processes.  Feed it back through :meth:`setstate` to resume the
        stream exactly where it left off.
        """
        return self._random.getstate()

    def setstate(self, state: tuple) -> None:
        """Restore a state captured by :meth:`getstate` (same stream after)."""
        self._random.setstate(state)

    def fork(self, label: str) -> "DeterministicRng":
        """Independent child stream derived from this seed and a label.

        Forking lets subsystems (trace generator, ORAM, key exchange) consume
        randomness without perturbing each other's streams.  The derivation
        uses a *stable* hash (SHA-1 of seed:label) — Python's built-in
        ``hash()`` is salted per process, which would silently break
        cross-process reproducibility.
        """
        from repro.crypto.sha1 import sha1

        digest = sha1(f"{self.seed}:{label}".encode())
        child_seed = int.from_bytes(digest[:8], "big")
        return DeterministicRng(child_seed)


def _is_probable_prime(candidate: int, rng: DeterministicRng, rounds: int = 24) -> bool:
    """Miller–Rabin probabilistic primality test."""
    if candidate < 2:
        return False
    small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for p in small_primes:
        if candidate % p == 0:
            return candidate == p
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randint(2, candidate - 2)
        x = pow(a, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: DeterministicRng) -> int:
    """Generate a probable prime of exactly ``bits`` bits."""
    if bits < 8:
        raise CryptoError("refusing to generate primes under 8 bits")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


def generate_safe_prime(bits: int, rng: DeterministicRng) -> int:
    """Generate a safe prime p (p = 2q + 1 with q prime) of ``bits`` bits.

    Safe primes make the Diffie–Hellman subgroup structure simple; the key
    sizes used in the simulator are small enough that this stays fast.
    """
    while True:
        q = generate_prime(bits - 1, rng)
        p = 2 * q + 1
        if _is_probable_prime(p, rng):
            return p
