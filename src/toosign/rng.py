"""Seedable deterministic randomness.

All algorithm randomness flows through :class:`Rng`; there is no ambient
entropy inside any signing, hashing or game code.  The stream is defined by
its seed: block ``i`` is SHA-256(seed || i), every stream starts at block 0,
and one seed always reproduces identical output.
"""

from __future__ import annotations

import hashlib


class Rng:
    def __init__(self, seed: bytes):
        if len(seed) != 32:
            raise ValueError("seed must be exactly 32 bytes")
        self.seed = seed
        self.counter = 0  # the next block
        self._buf = b""

    def random_bytes(self, n: int) -> bytes:
        buf = self._buf
        if len(buf) < n:
            # collect the blocks and join once; growing the buffer block by
            # block makes a draw quadratic in its size
            seed, i = self.seed, self.counter
            blocks, have = [buf], len(buf)
            while have < n:
                blocks.append(hashlib.sha256(seed + i.to_bytes(8, "big")).digest())
                i += 1
                have += 32
            self.counter = i
            buf = b"".join(blocks)
        out, self._buf = buf[:n], buf[n:]
        return out

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        nbytes = (bound.bit_length() + 7) // 8
        limit = (256**nbytes // bound) * bound
        while True:
            x = int.from_bytes(self.random_bytes(nbytes), "big")
            if x < limit:
                return x % bound

    def random_bits(self, n: int) -> list[int]:
        """n independent uniform bits."""
        raw = self.random_bytes((n + 7) // 8)
        return [(raw[i // 8] >> (i % 8)) & 1 for i in range(n)]

    def fork(self, label: bytes) -> "Rng":
        """Derive an independent stream; safe to hand to a concurrent caller."""
        return Rng(hashlib.sha256(self.seed + b"/fork/" + label).digest())


def rng_from_int(seed: int) -> Rng:
    """Convenience constructor for tests and game sweeps."""
    return Rng(hashlib.sha256(b"seed:" + seed.to_bytes(16, "big")).digest())
