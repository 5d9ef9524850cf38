"""Lattice (SIS) chameleon hash internals.

The hash is h(m, r) = A m + B r mod q with m a k-bit message and r an
integer vector of length m drawn from a discrete Gaussian.  B carries a
gadget trapdoor: B = [B_bar | G - B_bar R] with R a {-1,+1} matrix, so
B [R; I] = G and preimages for any syndrome can be sampled as a spherical
perturbation plus a gadget digit decomposition.

The gadget base b is chosen per parameter set: the digit count t is the
largest with n*t <= m - n, and b the smallest with b^t >= q.  This keeps
small parameter sets (where m < n*log2(q)) usable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SamplerError
from .gaussian import DiscreteGaussian
from .rng import Rng

MAX_PREIMAGE_RETRIES = 100


@dataclass(frozen=True)
class SISParams:
    n: int
    q: int
    m: int
    k: int
    s: float
    t: int  # gadget digits per row
    b: int  # gadget base
    m_bar: int
    w: int

    @property
    def norm_bound(self) -> float:
        return self.s * np.sqrt(self.m)


def derive_params(n: int, q: int, m: int, k: int, s: float | None = None) -> SISParams:
    if n < 1 or q < 2 or k < 1:
        raise DimensionError("need n >= 1, q >= 2, k >= 1")
    if m < 2 * n:
        raise DimensionError(
            f"m = {m} too small: the gadget block needs at least n = {n} columns "
            f"on top of an n-column random block"
        )
    t = (m - n) // n
    # smallest base whose t digits cover [0, q), by bisection over [2, q]
    lo, b = 2, q
    while lo < b:
        mid = (lo + b) // 2
        if mid**t < q:
            lo = mid + 1
        else:
            b = mid
    w = n * t
    m_bar = m - w
    if s is None:
        s = 2.5 * q
    return SISParams(n=n, q=q, m=m, k=k, s=float(s), t=t, b=b, m_bar=m_bar, w=w)


def gadget_matrix(params: SISParams) -> np.ndarray:
    G = np.zeros((params.n, params.w), dtype=np.int64)
    for i in range(params.n):
        for l in range(params.t):
            G[i, i * params.t + l] = params.b**l
    return G


def sample_trapdoor(params: SISParams, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Returns (B, R) with B = [B_bar | G - B_bar R] mod q."""
    q = params.q
    B_bar = np.array(
        [[rng.randbelow(q) for _ in range(params.m_bar)] for _ in range(params.n)],
        dtype=np.int64,
    )
    R = np.array(
        [[1 - 2 * rng.randbelow(2) for _ in range(params.w)] for _ in range(params.m_bar)],
        dtype=np.int64,
    )
    G = gadget_matrix(params)
    right = (G - B_bar @ R) % q
    B = np.concatenate([B_bar, right], axis=1)
    return B, R


def trapdoor_relation_holds(params: SISParams, B: np.ndarray, R: np.ndarray) -> bool:
    lift = np.concatenate([R, np.eye(params.w, dtype=np.int64)], axis=0)
    return bool(np.array_equal((B @ lift) % params.q, gadget_matrix(params) % params.q))


def gadget_decompose(params: SISParams, v: np.ndarray) -> np.ndarray:
    """z in Z^w with G z = v exactly (entries of v in [0, q), digits in [0, b))."""
    z = np.zeros(params.w, dtype=np.int64)
    for i in range(params.n):
        x = int(v[i])
        for l in range(params.t):
            z[i * params.t + l] = x % params.b
            x //= params.b
        if x != 0:
            raise SamplerError("syndrome coordinate outside gadget range")
    return z


def sample_preimage(
    params: SISParams,
    B: np.ndarray,
    R: np.ndarray,
    syndrome: np.ndarray,
    rng: Rng,
    perturbation: DiscreteGaussian,
) -> np.ndarray:
    """Short r with B r = syndrome mod q and ||r|| <= s sqrt(m)."""
    q = params.q
    lift = np.concatenate([R, np.eye(params.w, dtype=np.int64)], axis=0)
    for _ in range(MAX_PREIMAGE_RETRIES):
        p = perturbation.sample_vector(rng, params.m)
        v = (syndrome - B @ p) % q
        z = gadget_decompose(params, v)
        r = p + lift @ z
        if float(np.linalg.norm(r)) <= params.norm_bound:
            return r
    raise SamplerError("preimage sampler exceeded retry budget")
