"""Lattice (SIS) chameleon hash internals.

The hash is h(m, r) = A m + B r mod q with m a k-bit message and r an
integer vector of length m drawn from a discrete Gaussian.  B carries a
gadget trapdoor: B = [B_bar | G - B_bar R] with R a {-1,+1} matrix, so
B [R; I] = G and preimages for any syndrome can be sampled as a spherical
perturbation plus a gadget digit decomposition.

The gadget base b is chosen per parameter set: the digit count t is the
largest with n*t <= m - n, and b the smallest with b^t >= q.  This keeps
small parameter sets (where m < n*log2(q)) usable.

SISInstance is the lattice family of `chameleon`.  Only this module and
`gaussian` import numpy; `chameleon` imports this one for the first SIS key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import encoding
from .errors import DomainError, FormatError, SamplerError
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
    norm_bound_sq: int  # floor(s^2 m): ||r||^2 is an integer

    @property
    def norm_bound(self) -> float:
        return self.s * np.sqrt(self.m)

    def is_short(self, r: np.ndarray) -> bool:
        """||r|| <= s sqrt(m), without floats."""
        return int(r @ r) <= self.norm_bound_sq


def derive_params(n: int, q: int, m: int, k: int) -> SISParams:
    """The parameters of (n, q, m, k), with the Gaussian width s = 2.5 q."""
    if n < 1 or q < 2 or k < 1:
        raise DomainError("need n >= 1, q >= 2, k >= 1")
    if m < 2 * n:
        raise DomainError(
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
    return SISParams(
        n=n, q=q, m=m, k=k, s=2.5 * q, t=t, b=b, m_bar=m_bar, w=w,
        norm_bound_sq=25 * q * q * m // 4,  # s = 5q/2
    )


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
        if params.is_short(r):
            return r
    raise SamplerError("preimage sampler exceeded retry budget")


# ---------------------------------------------------------------------------
# the chameleon family


_gaussian = lru_cache(maxsize=32)(DiscreteGaussian)  # one sampler per width


@dataclass(frozen=True)
class SISTrapdoor:
    R: np.ndarray  # m_bar x w

    def __repr__(self) -> str:
        return "SISTrapdoor(<secret>)"


@dataclass(frozen=True)
class SISInstance:
    """h(m, r) = A m + B r mod q for a k-bit message m and a short integer
    vector r of length m."""

    params: SISParams
    A: np.ndarray  # n x k
    B: np.ndarray  # n x m

    def _bits(self, m) -> np.ndarray:
        arr = np.asarray(m, dtype=np.int64)
        if arr.shape != (self.params.k,) or not np.all((arr == 0) | (arr == 1)):
            raise DomainError(f"message must be a 0/1 vector of length {self.params.k}")
        return arr

    def hash(self, m, r) -> np.ndarray:
        marr = self._bits(m)
        params = self.params
        rarr = np.asarray(r, dtype=np.int64)
        if rarr.shape != (params.m,) or not params.is_short(rarr):
            raise DomainError(
                f"randomness must be an integer vector of length {params.m} "
                f"and norm at most s sqrt(m)"
            )
        return (self.A @ marr + self.B @ rarr) % params.q

    def trapdoor_hash(self, td: SISTrapdoor, m, r) -> np.ndarray:
        """The gadget trapdoor gives no faster way to hash: this is hash(m, r)."""
        return self.hash(m, r)

    def sample_message(self, rng: Rng) -> np.ndarray:
        return np.array(rng.random_bits(self.params.k), dtype=np.int64)

    def sample_randomness(self, rng: Rng) -> np.ndarray:
        params = self.params
        gauss = _gaussian(params.s)
        for _ in range(100):
            r = gauss.sample_vector(rng, params.m)
            if params.is_short(r):
                return r
        raise SamplerError("randomness sampler exceeded retry budget")

    def message_from_xof(self, xof) -> np.ndarray:
        """The first k bits, most significant bit first."""
        k = self.params.k
        bits = np.unpackbits(np.frombuffer(xof.digest((k + 7) // 8), dtype=np.uint8))
        return bits[:k].astype(np.int64)

    def invert(self, td: SISTrapdoor, m, target, rng: Rng | None) -> np.ndarray:
        """Gadget preimage sampling towards target.element; requires rng."""
        if rng is None:
            raise DomainError("SIS inversion needs an rng")
        marr = self._bits(m)
        params = self.params
        target_vec = np.asarray(target.element, dtype=np.int64)
        syndrome = (target_vec - self.A @ marr) % params.q
        return sample_preimage(
            params, self.B, td.R, syndrome, rng, _gaussian(params.s / 2)
        )

    def elements_equal(self, a, b) -> bool:
        return np.array_equal(np.asarray(a), np.asarray(b))

    def collision_vector(self, pair1, pair2) -> np.ndarray:
        """z = (m1 - m2, r1 - r2); [A|B] z = 0 mod q for a valid collision."""
        z = np.concatenate(pair1, dtype=np.int64) - np.concatenate(pair2, dtype=np.int64)
        AB = np.concatenate([self.A, self.B], axis=1)
        assert np.all((AB @ z) % self.params.q == 0)
        return z

    def serialize(self) -> bytes:
        p = self.params
        header = [encoding.encode_int(v) for v in (p.n, p.q, p.m, p.k)]
        return encoding.encode_record(
            encoding.TAG_SIS_INSTANCE,
            header
            + [repr(p.s).encode(), pack_matrix(self.A, p.q), pack_matrix(self.B, p.q)],
        )

    def serialize_trapdoor(self, td: SISTrapdoor) -> bytes:
        # stored as the full m x m unimodular matrix [[I, R], [0, I]]; this is
        # the lattice-basis form of the trapdoor and fixes the secret-key
        # overhead at m^2 ring elements
        p = self.params
        T = np.eye(p.m, dtype=np.int64)
        T[: p.m_bar, p.m_bar :] = td.R
        return encoding.encode_record(encoding.TAG_SIS_TRAPDOOR, [pack_matrix(T, p.q)])

    def deserialize_trapdoor(self, blob: bytes) -> SISTrapdoor:
        (packed,) = encoding.decode_fields(blob, encoding.TAG_SIS_TRAPDOOR, 1)
        p = self.params
        T = unpack_matrix(packed, p.m, p.m, p.q)
        R = T[: p.m_bar, p.m_bar :]
        # entries were reduced into [0, q); map back to signed +-1
        R = np.where(R > p.q // 2, R - p.q, R)
        T[: p.m_bar, p.m_bar :] = 0
        if not np.array_equal(T, np.eye(p.m, dtype=np.int64)):
            raise FormatError("trapdoor is not of the form [[I, R], [0, I]]")
        if not np.all(np.abs(R) == 1):
            raise FormatError("trapdoor block R has an entry other than +-1")
        # a tampered R would sign garbage that no verifier accepts
        if not trapdoor_relation_holds(p, self.B, R):
            raise FormatError("trapdoor does not match the public key: B [R; I] != G")
        return SISTrapdoor(R=R)

    def serialize_element(self, elem) -> bytes:
        return encoding.encode_record(
            encoding.TAG_RANGE_ELEMENT, [pack_matrix(np.asarray(elem), self.params.q)]
        )

    def serialize_message(self, m) -> bytes:
        return bytes(int(b) for b in np.asarray(m, dtype=np.int64))

    def serialize_randomness(self, r) -> bytes:
        body = _pack_ints(np.asarray(r, dtype=np.int64), _randomness_dtype(self.params))
        return encoding.encode_record(encoding.TAG_RANDOMNESS, [body])

    def deserialize_randomness(self, blob: bytes) -> np.ndarray:
        (packed,) = encoding.decode_fields(blob, encoding.TAG_RANDOMNESS, 1)
        p = self.params
        return _unpack_ints(packed, p.m, _randomness_dtype(p), "randomness vector")

    def overhead_elements(self, td: SISTrapdoor, r) -> tuple[dict, dict, dict]:
        """(parameters, predicted, measured): the Z_q elements the hash adds
        to the public key, the secret key and a signature."""
        p = self.params
        width = _entry_dtype(p.q).itemsize
        _, ifields = encoding.decode_record(self.serialize())
        _, tfields = encoding.decode_record(self.serialize_trapdoor(td))
        _, rfields = encoding.decode_record(self.serialize_randomness(r))
        measured = {
            "pk": (len(ifields[5]) + len(ifields[6])) // width,
            "sk": len(tfields[0]) // width,
            "sig": len(rfields[0]) // _randomness_dtype(p).itemsize,
        }
        predicted = {"pk": p.n * (p.k + p.m), "sk": p.m**2, "sig": p.m}
        return {"kind": "sis", "n": p.n, "q": p.q, "m": p.m, "k": p.k}, predicted, measured


def hg_sis(n: int, q: int, m: int, k: int, rng: Rng) -> tuple[SISInstance, SISTrapdoor]:
    params = derive_params(n, q, m, k)
    A = np.array(
        [[rng.randbelow(q) for _ in range(k)] for _ in range(n)], dtype=np.int64
    )
    B, R = sample_trapdoor(params, rng)
    inst = SISInstance(params=params, A=A, B=B)
    assert trapdoor_relation_holds(params, B, R)
    return inst, SISTrapdoor(R=R)


def decode_instance(n: int, q: int, m: int, k: int, fields: list[bytes]) -> SISInstance:
    """The instance of the named set (n, q, m, k) held by the width, A and B
    fields of an SIS instance record."""
    params = derive_params(n, q, m, k)
    if fields[0] != repr(params.s).encode():
        raise FormatError("Gaussian width field is not repr(2.5 q)")
    A = unpack_matrix(fields[1], n, k, q)
    return SISInstance(params=params, A=A, B=unpack_matrix(fields[2], n, m, q))


# matrix and randomness codecs: matrices are row-major, with unsigned entries
# of the minimal whole-byte width covering [0, q); widths are 1 or 2 bytes on
# every set in use


@lru_cache(maxsize=32)
def _entry_dtype(q: int) -> np.dtype:
    return np.dtype(f">u{((q - 1).bit_length() + 7) // 8 or 1}")


@lru_cache(maxsize=32)
def _randomness_dtype(params: SISParams) -> np.dtype:
    bound = int(params.norm_bound) + 1
    return np.dtype(f">i{(bound.bit_length() + 1 + 7) // 8}")


def _pack_ints(values: np.ndarray, dtype: np.dtype) -> bytes:
    packed = values.astype(dtype)
    if not (packed == values).all():
        raise FormatError(f"an entry does not fit in {dtype.itemsize} bytes")
    return packed.tobytes()


def _unpack_ints(blob: bytes, count: int, dtype: np.dtype, what: str) -> np.ndarray:
    if len(blob) != count * dtype.itemsize:
        raise FormatError(f"{what} has wrong length")
    return np.frombuffer(blob, dtype=dtype).astype(np.int64)


def pack_matrix(M: np.ndarray, q: int) -> bytes:
    return _pack_ints(np.asarray(M, dtype=np.int64).reshape(-1) % q, _entry_dtype(q))


def unpack_matrix(blob: bytes, rows: int, cols: int, q: int) -> np.ndarray:
    flat = _unpack_ints(blob, rows * cols, _entry_dtype(q), "matrix blob")
    if flat.max() >= q:  # each matrix has one encoding
        raise FormatError("matrix blob has an entry outside [0, q)")
    return flat.reshape(rows, cols)
