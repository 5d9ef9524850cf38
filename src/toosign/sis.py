"""Lattice (SIS) chameleon hash internals.

The hash is h(m, r) = A m + B r mod q with m a k-bit message and r an
integer vector of length m drawn from a discrete Gaussian.  B carries a
gadget trapdoor: B = [B_bar | G - B_bar R] with R a {-1,+1} matrix, so
B [R; I] = G and preimages for any syndrome can be sampled as a spherical
perturbation plus a gadget digit decomposition.

The gadget base b is chosen per parameter set: the digit count t is the
largest with n*t <= m - n, and b the smallest with b^t >= q.  This keeps
small parameter sets (where m < n*log2(q)) usable.

Vectors are tuples of int and matrices tuples of rows, so the arithmetic
is exact at every q and one product, `_apply`, serves every step.  Each
message, randomness and range value a caller passes is read entry by entry
through `operator.index`, as `DLInstance` reads its scalars: an integer
passes, a float or a string does not.  SISInstance is the lattice family of
`chameleon`, which imports this module with the first SIS key.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import add, index, mul, sub
from typing import NamedTuple

from . import encoding
from .errors import DomainError, FormatError, SamplerError
from .gaussian import DiscreteGaussian
from .rng import Rng

MAX_PREIMAGE_RETRIES = 100

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]  # rows


def _apply(M, v) -> Vector:
    """M v over the integers, unreduced."""
    return tuple(sum(map(mul, row, v)) for row in M)


def _ints(v, length: int, what: str) -> Vector:
    """v as `length` ints, each entry an integer (has `__index__`)."""
    try:
        ints = tuple(map(index, v))
        if len(ints) == length:
            return ints
    except TypeError:
        pass
    raise DomainError(f"{what} must be an integer vector of length {length}")


class SISParams(NamedTuple):
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

    def is_short(self, r: Vector) -> bool:
        """||r|| <= s sqrt(m), without floats."""
        return bool(sum(map(mul, r, r)) <= self.norm_bound_sq)


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


def gadget_matrix(params: SISParams) -> Matrix:
    """G = I_n (x) (1, b, ..., b^(t-1))."""
    t = params.t
    return tuple(
        tuple(params.b ** (j - i * t) if j // t == i else 0 for j in range(params.w))
        for i in range(params.n)
    )


def sample_trapdoor(params: SISParams, rng: Rng) -> tuple[Matrix, Matrix]:
    """Returns (B, R) with B = [B_bar | G - B_bar R] mod q."""
    q = params.q
    B_bar = tuple(
        tuple(rng.randbelow(q) for _ in range(params.m_bar)) for _ in range(params.n)
    )
    R = tuple(
        tuple(1 - 2 * rng.randbelow(2) for _ in range(params.w)) for _ in range(params.m_bar)
    )
    B_bar_R = zip(*(_apply(B_bar, col) for col in zip(*R)))
    B = tuple(
        left + tuple((g - x) % q for g, x in zip(g_row, row))
        for left, g_row, row in zip(B_bar, gadget_matrix(params), B_bar_R)
    )
    return B, R


def trapdoor_relation_holds(params: SISParams, B: Matrix, R: Matrix) -> bool:
    """B [R; I] = G mod q, row by row of B."""
    R_cols = tuple(zip(*R))
    return all(
        (x + y - g) % params.q == 0
        for row, g_row in zip(B, gadget_matrix(params))
        for x, y, g in zip(_apply(R_cols, row[: params.m_bar]), row[params.m_bar :], g_row)
    )


def gadget_decompose(params: SISParams, v: Vector) -> Vector:
    """z in Z^w with G z = v exactly (entries of v in [0, q), digits in [0, b))."""
    z = []
    for x in v:
        for _ in range(params.t):
            x, digit = divmod(x, params.b)
            z.append(digit)
    return tuple(z)


def sample_preimage(
    params: SISParams,
    B: Matrix,
    R: Matrix,
    syndrome: Vector,
    rng: Rng,
    perturbation: DiscreteGaussian,
) -> Vector:
    """Short r with B r = syndrome mod q and ||r|| <= s sqrt(m)."""
    q = params.q
    for _ in range(MAX_PREIMAGE_RETRIES):
        p = perturbation.sample_vector(rng, params.m)
        v = tuple((y - x) % q for y, x in zip(syndrome, _apply(B, p)))
        z = gadget_decompose(params, v)
        r = tuple(map(add, p, _apply(R, z) + z))  # p + [R; I] z
        if params.is_short(r):
            return r
    raise SamplerError("preimage sampler exceeded retry budget")


# ---------------------------------------------------------------------------
# the chameleon family


_gaussian = lru_cache(maxsize=32)(DiscreteGaussian)  # one sampler per width


class SISTrapdoor(NamedTuple):
    R: Matrix  # m_bar x w

    def __repr__(self) -> str:
        return "SISTrapdoor(<secret>)"


class SISInstance(NamedTuple):
    """h(m, r) = A m + B r mod q for a k-bit message m and a short integer
    vector r of length m."""

    params: SISParams
    A: Matrix  # n x k
    B: Matrix  # n x m

    def _bits(self, m) -> Vector:
        bits = _ints(m, self.params.k, "message")
        if not set(bits) <= {0, 1}:
            raise DomainError(f"message must be a 0/1 vector of length {self.params.k}")
        return bits

    def _randomness(self, r) -> Vector:
        params = self.params
        rv = _ints(r, params.m, "randomness")
        if not params.is_short(rv):
            raise DomainError("randomness must have norm at most s sqrt(m)")
        return rv

    def hash(self, m, r) -> Vector:
        q = self.params.q
        terms = map(add, _apply(self.A, self._bits(m)), _apply(self.B, self._randomness(r)))
        return tuple(x % q for x in terms)

    def trapdoor_hash(self, td: SISTrapdoor, m, r) -> Vector:
        """The gadget trapdoor gives no faster way to hash: this is hash(m, r)."""
        return self.hash(m, r)

    def sample_message(self, rng: Rng) -> Vector:
        return tuple(rng.random_bits(self.params.k))

    def sample_randomness(self, rng: Rng) -> Vector:
        params = self.params
        gauss = _gaussian(params.s)
        for _ in range(100):
            r = gauss.sample_vector(rng, params.m)
            if params.is_short(r):
                return r
        raise SamplerError("randomness sampler exceeded retry budget")

    def message_from_xof(self, xof) -> Vector:
        """The first k bits, most significant bit first."""
        k = self.params.k
        data = xof.digest((k + 7) // 8)
        return tuple(data[i // 8] >> (7 - i % 8) & 1 for i in range(k))

    def invert(self, td: SISTrapdoor, m, target, rng: Rng | None) -> Vector:
        """Gadget preimage sampling towards target.element; requires rng."""
        if rng is None:
            raise DomainError("SIS inversion needs an rng")
        params = self.params
        element = _ints(target.element, params.n, "range value")
        syndrome = tuple(
            (y - x) % params.q for y, x in zip(element, _apply(self.A, self._bits(m)))
        )
        return sample_preimage(
            params, self.B, td.R, syndrome, rng, _gaussian(params.s / 2)
        )

    def elements_equal(self, a, b) -> bool:
        return tuple(a) == tuple(b)

    def collision_vector(self, pair1, pair2) -> Vector:
        """z = (m1 - m2, r1 - r2); [A|B] z = 0 mod q for a valid collision."""
        (m1, r1), (m2, r2) = pair1, pair2
        dm = tuple(map(sub, self._bits(m1), self._bits(m2)))
        dr = tuple(map(sub, self._randomness(r1), self._randomness(r2)))
        syndrome = map(add, _apply(self.A, dm), _apply(self.B, dr))
        assert all(x % self.params.q == 0 for x in syndrome)
        return dm + dr

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
        return encoding.encode_record(
            encoding.TAG_SIS_TRAPDOOR, [pack_matrix(_basis(p, td.R), p.q)]
        )

    def deserialize_trapdoor(self, blob: bytes) -> SISTrapdoor:
        (packed,) = encoding.decode_fields(blob, encoding.TAG_SIS_TRAPDOOR, 1)
        p = self.params
        T = unpack_matrix(packed, p.m, p.m, p.q)
        R = tuple(row[p.m_bar :] for row in T[: p.m_bar])
        if T != _basis(p, R):
            raise FormatError("trapdoor is not of the form [[I, R], [0, I]]")
        # entries were reduced into [0, q); map back to signed +-1
        if not {x for row in R for x in row} <= {1, p.q - 1}:
            raise FormatError("trapdoor block R has an entry other than +-1")
        R = tuple(tuple(1 if x == 1 else -1 for x in row) for row in R)
        # a tampered R would sign garbage that no verifier accepts
        if not trapdoor_relation_holds(p, self.B, R):
            raise FormatError("trapdoor does not match the public key: B [R; I] != G")
        return SISTrapdoor(R=R)

    def serialize_element(self, elem) -> bytes:
        p = self.params
        row = _ints(elem, p.n, "range value")
        return encoding.encode_record(encoding.TAG_RANGE_ELEMENT, [pack_matrix((row,), p.q)])

    def serialize_message(self, m) -> bytes:
        return bytes(self._bits(m))

    def serialize_randomness(self, r) -> bytes:
        p = self.params
        body = _pack(_ints(r, p.m, "randomness"), _randomness_width(p), signed=True)
        return encoding.encode_record(encoding.TAG_RANDOMNESS, [body])

    def deserialize_randomness(self, blob: bytes) -> Vector:
        (packed,) = encoding.decode_fields(blob, encoding.TAG_RANDOMNESS, 1)
        p = self.params
        return _unpack(packed, p.m, _randomness_width(p), "randomness vector", signed=True)

    def overhead_elements(self, td: SISTrapdoor, r) -> tuple[dict, dict, dict]:
        """(parameters, predicted, measured): the Z_q elements the hash adds
        to the public key, the secret key and a signature."""
        p = self.params
        width = _entry_width(p.q)
        _, ifields = encoding.decode_record(self.serialize())
        _, tfields = encoding.decode_record(self.serialize_trapdoor(td))
        _, rfields = encoding.decode_record(self.serialize_randomness(r))
        measured = {
            "pk": (len(ifields[5]) + len(ifields[6])) // width,
            "sk": len(tfields[0]) // width,
            "sig": len(rfields[0]) // _randomness_width(p),
        }
        predicted = {"pk": p.n * (p.k + p.m), "sk": p.m**2, "sig": p.m}
        return {"kind": "sis", "n": p.n, "q": p.q, "m": p.m, "k": p.k}, predicted, measured


def _basis(p: SISParams, R: Matrix) -> Matrix:
    """The m x m unimodular matrix [[I, R], [0, I]]."""
    eye = [(0,) * i + (1,) + (0,) * (p.m - 1 - i) for i in range(p.m)]
    return tuple(e[: p.m_bar] + row for e, row in zip(eye, R)) + tuple(eye[p.m_bar :])


def hg_sis(n: int, q: int, m: int, k: int, rng: Rng) -> tuple[SISInstance, SISTrapdoor]:
    params = derive_params(n, q, m, k)
    A = tuple(tuple(rng.randbelow(q) for _ in range(k)) for _ in range(n))
    B, R = sample_trapdoor(params, rng)
    assert trapdoor_relation_holds(params, B, R)
    return SISInstance(params=params, A=A, B=B), SISTrapdoor(R=R)


def decode_instance(n: int, q: int, m: int, k: int, fields: list[bytes]) -> SISInstance:
    """The instance of the named set (n, q, m, k) held by the width, A and B
    fields of an SIS instance record."""
    params = derive_params(n, q, m, k)
    if fields[0] != repr(params.s).encode():
        raise FormatError("Gaussian width field is not repr(2.5 q)")
    A = unpack_matrix(fields[1], n, k, q)
    return SISInstance(params=params, A=A, B=unpack_matrix(fields[2], n, m, q))


# matrix and randomness codecs, big-endian: matrices are row-major, with
# unsigned entries of the minimal whole-byte width covering [0, q);
# randomness entries are signed, of the width covering the norm bound


def _entry_width(q: int) -> int:
    return ((q - 1).bit_length() + 7) // 8 or 1


def _randomness_width(p: SISParams) -> int:
    return (math.isqrt(p.norm_bound_sq) + 1).bit_length() // 8 + 1


def _pack(values: Vector, width: int, signed: bool = False) -> bytes:
    try:
        return b"".join([v.to_bytes(width, "big", signed=signed) for v in values])
    except OverflowError:
        raise FormatError(f"an entry does not fit in {width} bytes") from None


def _unpack(blob: bytes, count: int, width: int, what: str, signed: bool = False) -> Vector:
    if len(blob) != count * width:
        raise FormatError(f"{what} has wrong length")
    return tuple([
        int.from_bytes(blob[i : i + width], "big", signed=signed)
        for i in range(0, len(blob), width)
    ])


def pack_matrix(M: Matrix, q: int) -> bytes:
    return _pack([x % q for row in M for x in row], _entry_width(q))


def unpack_matrix(blob: bytes, rows: int, cols: int, q: int) -> Matrix:
    flat = _unpack(blob, rows * cols, _entry_width(q), "matrix blob")
    if max(flat) >= q:  # each matrix has one encoding
        raise FormatError("matrix blob has an entry outside [0, q)")
    return tuple(flat[i : i + cols] for i in range(0, rows * cols, cols))
