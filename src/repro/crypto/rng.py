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
        """Shuffle a sequence in place."""
        self._random.shuffle(sequence)

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
