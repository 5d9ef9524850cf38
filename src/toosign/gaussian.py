"""Discrete Gaussian sampling over the integers.

D_{Z,s} assigns x weight exp(-pi x^2 / s^2).  Sampling is by CDF inversion
over [-ceil(_TAIL s), ceil(_TAIL s)] with _TAIL = 12; the truncated tail
carries total mass below 2^-64 for every s >= 1.  All draws come from an
explicit Rng so runs are replayable.
"""

from __future__ import annotations

import numpy as np

from .rng import Rng

_PREC_BITS = 53  # uniform deviates carry one double's worth of entropy
_TAIL = 12.0  # the support ends _TAIL widths s from 0


class DiscreteGaussian:
    def __init__(self, s: float):
        if s < 1.0:
            raise ValueError("width parameter s must be >= 1")
        self.s = float(s)
        zmax = int(np.ceil(_TAIL * s))
        self.support = np.arange(-zmax, zmax + 1, dtype=np.int64)
        weights = np.exp(-np.pi * (self.support.astype(np.float64) ** 2) / (s * s))
        cdf = np.cumsum(weights)
        self._cdf = cdf / cdf[-1]

    def _uniforms(self, rng: Rng, n: int) -> np.ndarray:
        raw = np.frombuffer(rng.random_bytes(8 * n), dtype=">u8").astype(np.uint64)
        return (raw >> np.uint64(64 - _PREC_BITS)).astype(np.float64) / float(
            1 << _PREC_BITS
        )

    def sample_vector(self, rng: Rng, n: int) -> np.ndarray:
        u = self._uniforms(rng, n)
        idx = np.searchsorted(self._cdf, u, side="right")
        return self.support[idx]
