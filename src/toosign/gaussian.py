"""Discrete Gaussian sampling over the integers.

D_{Z,s} assigns x weight exp(-pi x^2 / s^2).  Sampling is by CDF inversion
over [-ceil(_TAIL s), ceil(_TAIL s)] with _TAIL = 12; the truncated tail
carries total mass below 2^-64 for every s >= 1.  All draws come from an
explicit Rng so runs are replayable.

The weights come from libm's `exp`, summed left to right.  A vectorised
`exp` (numpy's, for one) can differ from it in the last place of a weight,
which moves a draw only when a uniform deviate falls between the two CDF
values; the sampled streams are pinned in the tests.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from itertools import accumulate

from .rng import Rng

_PREC_BITS = 53  # uniform deviates carry one double's worth of entropy
_TAIL = 12.0  # the support ends _TAIL widths s from 0


class DiscreteGaussian:
    def __init__(self, s: float):
        if s < 1.0:
            raise ValueError("width parameter s must be >= 1")
        self._zmax = zmax = math.ceil(_TAIL * s)
        cdf = list(accumulate(
            math.exp(-math.pi * (z * z) / (s * s)) for z in range(-zmax, zmax + 1)
        ))
        self._cdf = [c / cdf[-1] for c in cdf]

    def sample_vector(self, rng: Rng, n: int) -> tuple[int, ...]:
        raw = struct.unpack(f">{n}Q", rng.random_bytes(8 * n))
        cdf, zmax, scale = self._cdf, self._zmax, 0.5**_PREC_BITS
        return tuple(
            bisect_right(cdf, (x >> (64 - _PREC_BITS)) * scale) - zmax for x in raw
        )
