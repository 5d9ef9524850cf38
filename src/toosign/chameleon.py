"""Chameleon hash functions with two instantiations.

A chameleon hash h: M x R -> Y is collision resistant without its trapdoor,
but the trapdoor holder can sample, for any message and any target value,
randomness mapping the message to that target.  Two instantiations:

* discrete log: h(m, r) = g^m y^r over a prime-order subgroup of Z_p*;
* lattice (SIS): h(m, r) = A m + B r mod q with a gadget trapdoor for B.

Range values are sampled as hash-of-random-preimage with the trace
(message, randomness) retained, so DL inversion never needs a discrete log.

DL exponentiation.  A signer holding the trapdoor x samples C = g^m y^r as
g^((m + x r) mod q): one exponentiation instead of two.  The folded exponent
reveals x together with the trace, so it is never kept.  x^-1 mod q, which
every inversion needs, is computed once per trapdoor, where the trapdoor is
made or decoded, and is never serialized.

Exponentiations with exponents of 256 bits or more use a Lim-Lee comb.  The
exponent splits into 4 limbs of 8 rows each; each limb has its own table of
the 256 products of its row powers, so a base holds 1024 products, about
307 kB for a 2048-bit group.  One column loop serves every limb of every base
of a hash: 64 squarings on the 2048-bit group and at most 256 products per
base.  The first exponentiation of a base in a process does not build its
table, so a one-shot process never pays for one; the second builds it.  Two
or more bases seen for the first time in one call share one interleaved
sliding-window pass and so its squarings; a lone one takes builtin pow.  At
most 8 bases keep tables (about 2.5 MB on the 2048-bit group), least
recently used evicted first.  Neither builtin pow nor these passes run in
constant time; this code makes no side-channel claim.

DL groups.  The named sets in DL_PARAM_SETS are constants proven once by the
test suite, so key generation and decoding accept them by comparing
(p, q, g).  Every other group gets the full checks (Miller-Rabin on p and q,
p = 2q + 1, g of order q) once per process.  A decoded public key's y must
also lie in the order-q subgroup.

Lazy numpy.  Only the SIS branches use numpy, `.sis` and `.gaussian`; they
reach them through module globals bound on first use, so a process that
hashes only over DL never imports numpy.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from . import encoding
from .errors import (
    DegenerateTrapdoorError,
    DimensionError,
    DomainError,
    FormatError,
    SamplerError,
    TrivialCollisionError,
)
from .rng import Rng


class _ImportOnFirstUse:
    """Stands in for a module global until the first attribute access.

    That access imports the module and rebinds the global to it, so later
    lookups reach the module itself.
    """

    def __init__(self, global_name: str, module: str):
        self._global_name = global_name
        self._module = module

    def __getattr__(self, attr: str):
        module = importlib.import_module(self._module)
        globals()[self._global_name] = module
        return getattr(module, attr)


# only SIS code uses numpy; a process that hashes only over DL never loads it
np = _ImportOnFirstUse("np", "numpy")
gaussian = _ImportOnFirstUse("gaussian", "toosign.gaussian")
sis = _ImportOnFirstUse("sis", "toosign.sis")


class ChameleonKind(Enum):
    DL = "dl"
    SIS = "sis"


class CollisionVerdict(Enum):
    VALID = "valid"
    TRIVIAL = "trivial"
    NOT_COLLISION = "not-collision"


# ---------------------------------------------------------------------------
# instances and trapdoors


@dataclass(frozen=True)
class DLInstance:
    p: int
    q_grp: int
    g: int
    y: int

    kind = ChameleonKind.DL


@dataclass(frozen=True)
class DLTrapdoor:
    x: int
    # x^-1 mod q, set where the trapdoor is made or decoded; never serialized
    x_inv: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SISInstance:
    params: sis.SISParams
    A: np.ndarray  # n x k
    B: np.ndarray  # n x m

    kind = ChameleonKind.SIS


@dataclass(frozen=True)
class SISTrapdoor:
    R: np.ndarray  # m_bar x w


ChameleonInstance = DLInstance | SISInstance
ChameleonTrapdoor = DLTrapdoor | SISTrapdoor


@dataclass(frozen=True)
class RangeSample:
    """A range value together with the (message, randomness) trace producing it."""

    element: object
    trace_message: object
    trace_randomness: object


# ---------------------------------------------------------------------------
# DL parameter sets

# 2048-bit safe prime from the well-known MODP group 14; p = 2q+1 with q prime
# and 2 a quadratic residue (p = 7 mod 8), so g = 2 generates the order-q
# subgroup.
_MODP_2048_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

DL_PARAM_SETS: dict[str, tuple[int, int, int]] = {
    # name -> (p, q_grp, g); dl-demo is for exhaustive tests, never a default
    "dl-demo": (23, 11, 4),
    "dl-2048": (_MODP_2048_P, (_MODP_2048_P - 1) // 2, 2),
}


def _miller_rabin(n: int, rounds: int = 16) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == small:
            return True
        if n % small == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # deterministic pseudo-random bases derived from n itself
    base_rng = Rng(hashlib.sha256(b"mr:" + encoding.encode_int(n)).digest())
    for _ in range(rounds):
        a = 2 + base_rng.randbelow(n - 3)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# key generation


_NAMED_DL_GROUPS = frozenset(DL_PARAM_SETS.values())


def _check_dl_group(p: int, q_grp: int, g: int) -> None:
    """Raises DomainError unless p = 2q + 1 with p and q prime and g of order q.

    The named sets are constants whose checks run in the test suite, so they
    pass by comparison; any other group is checked in full once per process.
    """
    if (p, q_grp, g) not in _NAMED_DL_GROUPS:
        _check_dl_group_full(p, q_grp, g)


@lru_cache(maxsize=64)
def _check_dl_group_full(p: int, q_grp: int, g: int) -> None:
    # cheapest first; Miller-Rabin on a 2048-bit p and q takes about a second
    if p != 2 * q_grp + 1:
        raise DomainError("need a safe prime: p = 2*q + 1")
    if g <= 1 or g >= p or pow(g, q_grp, p) != 1:
        raise DomainError("g must generate the order-q subgroup")
    if not _miller_rabin(q_grp) or not _miller_rabin(p):
        raise DomainError("p and the subgroup order must both be prime")


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a | n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n % 8 in (3, 5):
            result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def hg_dl(p: int, q_grp: int, g: int, rng: Rng) -> tuple[DLInstance, DLTrapdoor]:
    _check_dl_group(p, q_grp, g)
    x = 1 + rng.randbelow(q_grp - 1)
    td = DLTrapdoor(x=x, x_inv=pow(x, -1, q_grp))
    return DLInstance(p=p, q_grp=q_grp, g=g, y=pow(g, x, p)), td


def hg_sis(
    n: int, q: int, m: int, k: int, rng: Rng, s: float | None = None
) -> tuple[SISInstance, SISTrapdoor]:
    params = sis.derive_params(n, q, m, k, s)
    A = np.array(
        [[rng.randbelow(q) for _ in range(k)] for _ in range(n)], dtype=np.int64
    )
    B, R = sis.sample_trapdoor(params, rng)
    inst = SISInstance(params=params, A=A, B=B)
    assert sis.trapdoor_relation_holds(params, B, R)
    return inst, SISTrapdoor(R=R)


def hg(
    kind: ChameleonKind, params: dict, rng: Rng
) -> tuple[ChameleonInstance, ChameleonTrapdoor]:
    if kind is ChameleonKind.DL:
        if "name" in params:
            p, q_grp, g = DL_PARAM_SETS[params["name"]]
        else:
            p, q_grp, g = params["p"], params["q_grp"], params["g"]
        return hg_dl(p, q_grp, g, rng)
    return hg_sis(
        params["n"], params["q"], params["m"], params["k"], rng, params.get("s")
    )


# ---------------------------------------------------------------------------
# exponentiation

_COMB_ROWS = 8  # rows per limb: a limb's table holds the 2^8 products of its rows
_COMB_LIMBS = 4  # limbs, and tables, per base
_COMB_MIN_BITS = 256  # below this, a comb column is too short to beat pow
_COMB_CACHE_SIZE = 8  # bases; a 2048-bit base's tables are about 307 kB
_WINDOW_BITS = 5  # the joint first-use pass multiplies in up to 5 bits at a time
# (base, p, bits) -> one comb table per limb, or None after the base's first use
_comb_cache: OrderedDict[tuple[int, int, int], list[list[int]] | None] = OrderedDict()
_comb_lock = threading.Lock()


def _comb_width(bits: int) -> int:
    """Columns of the comb: the bits split into _COMB_LIMBS * _COMB_ROWS rows."""
    return -(-bits // (_COMB_LIMBS * _COMB_ROWS))


def _comb_table(b: int, p: int, a: int) -> list[list[int]]:
    """Per limb l, entry j is the product of b^(2^(a*(8l + i))) over the rows
    i set in j."""
    row_powers = [b]
    for _ in range(_COMB_LIMBS * _COMB_ROWS - 1):
        x = row_powers[-1]
        for _ in range(a):
            x = x * x % p
        row_powers.append(x)
    tables = []
    for limb in range(_COMB_LIMBS):
        rows = row_powers[limb * _COMB_ROWS : (limb + 1) * _COMB_ROWS]
        table = [1] * (1 << _COMB_ROWS)
        for j in range(1, 1 << _COMB_ROWS):
            low = j & -j
            table[j] = table[j ^ low] * rows[low.bit_length() - 1] % p
        tables.append(table)
    return tables


def _comb_columns(e: int, a: int) -> bytes:
    """The table index of each column of e's lowest limb, most significant
    column first.

    The limb is split into rows e = sum_i e_i 2^(a*i) of a bits each; bit i
    of index k is bit a-1-k of e_i.  Each row's binary digits are read as
    ASCII bytes and shifted into bit i of every byte; the ASCII zeros come
    off at the end.
    """
    mask = (1 << a) - 1
    spread = 0
    for i in range(_COMB_ROWS):
        digits = format((e >> (a * i)) & mask, f"0{a}b").encode()
        spread += int.from_bytes(digits, "big") << i
    zeros = int.from_bytes(b"0" * a, "big") * ((1 << _COMB_ROWS) - 1)
    return (spread - zeros).to_bytes(a, "big")


def _comb_lookup(b: int, p: int, bits: int) -> list[list[int]] | None:
    """The comb tables of b, built on the second call for b; None on the first."""
    key = (b, p, bits)
    with _comb_lock:
        seen = key in _comb_cache
        tables = _comb_cache.pop(key, None)
        _comb_cache[key] = tables  # least recently used first
        if len(_comb_cache) > _COMB_CACHE_SIZE:
            _comb_cache.popitem(last=False)
    if seen and tables is None:
        tables = _comb_table(b, p, _comb_width(bits))
        with _comb_lock:
            if key in _comb_cache:
                _comb_cache[key] = tables
    return tables


def _joint_pow(pairs, p: int) -> int:
    """prod b^e mod p in one left-to-right pass over the bits of every e.

    The squarings are shared by all bases.  Each e is cut into sliding
    windows of up to _WINDOW_BITS bits that start and end on a set bit; a
    window multiplies in its base's odd power once the pass reaches the
    window's lowest bit.
    """
    top = max(e.bit_length() for _, e in pairs)
    due = [[] for _ in range(top)]  # bit position -> odd powers to multiply in
    for b, e in pairs:
        b2 = b * b % p
        odd = [b % p]  # b^1, b^3, ..., b^(2^_WINDOW_BITS - 1)
        for _ in range((1 << (_WINDOW_BITS - 1)) - 1):
            odd.append(odd[-1] * b2 % p)
        digits = format(e, "b")
        i, n = 0, len(digits)
        while i < n:
            if digits[i] == "0":
                i += 1
                continue
            window = digits[i : i + _WINDOW_BITS].rstrip("0")
            i += len(window)
            due[n - i].append(odd[int(window, 2) >> 1])
    acc = 1
    for powers in reversed(due):
        acc = acc * acc % p
        for t in powers:
            acc = acc * t % p
    return acc


def _multi_pow(pairs, p: int, bits: int) -> int:
    """prod b^e mod p over the (b, e) in pairs, every e in [0, 2^bits).

    When bits < _COMB_MIN_BITS, every base takes builtin pow.  Otherwise a
    base used before gets a Lim-Lee comb of _COMB_LIMBS limbs of _COMB_ROWS
    rows of a = _comb_width(bits) columns: one loop over the columns does a
    squarings, shared by every limb of every base of the call, and at most
    a products per limb.  Bases used for the first time share one
    _joint_pow pass when there are two or more; a lone one takes builtin
    pow.
    """
    a = _comb_width(bits)
    fresh, combs = [], []
    for b, e in pairs:
        tables = _comb_lookup(b, p, bits) if bits >= _COMB_MIN_BITS else None
        if tables is None:
            fresh.append((b, e))
        else:
            combs += [
                (_comb_columns(e >> (a * _COMB_ROWS * limb), a), table)
                for limb, table in enumerate(tables)
            ]
    if len(fresh) > 1 and bits >= _COMB_MIN_BITS:
        out = _joint_pow(fresh, p)
    else:
        out = 1
        for b, e in fresh:
            out = out * pow(b, e, p) % p
    if combs:
        acc = 1
        for k in range(a):
            acc = acc * acc % p
            for columns, table in combs:
                j = columns[k]
                if j:
                    acc = acc * table[j] % p
        out = out * acc % p
    return out


# ---------------------------------------------------------------------------
# hashing, sampling, inversion


@lru_cache(maxsize=32)
def _gaussian(s: float) -> gaussian.DiscreteGaussian:
    return gaussian.DiscreteGaussian(s)


def _check_dl_scalar(inst: DLInstance, v, what: str) -> int:
    if not isinstance(v, numbers.Integral) or not 0 <= v < inst.q_grp:
        raise DomainError(f"{what} must be an integer in [0, {inst.q_grp})")
    return int(v)


def _as_bits(inst: SISInstance, m) -> np.ndarray:
    arr = np.asarray(m, dtype=np.int64)
    if arr.shape != (inst.params.k,) or not np.all((arr == 0) | (arr == 1)):
        raise DomainError(f"message must be a 0/1 vector of length {inst.params.k}")
    return arr


def _as_randomness(inst: SISInstance, r) -> np.ndarray:
    arr = np.asarray(r, dtype=np.int64)
    if arr.shape != (inst.params.m,):
        raise DomainError(
            f"randomness must be an integer vector of length {inst.params.m}"
        )
    return arr


def ch_hash(inst: ChameleonInstance, m, r):
    if isinstance(inst, DLInstance):
        mi = _check_dl_scalar(inst, m, "message")
        ri = _check_dl_scalar(inst, r, "randomness")
        return _multi_pow(((inst.g, mi), (inst.y, ri)), inst.p, inst.q_grp.bit_length())
    marr = _as_bits(inst, m)
    rarr = _as_randomness(inst, r)
    return (inst.A @ marr + inst.B @ rarr) % inst.params.q


def sample_message(inst: ChameleonInstance, rng: Rng):
    if isinstance(inst, DLInstance):
        return rng.randbelow(inst.q_grp)
    return np.array(rng.random_bits(inst.params.k), dtype=np.int64)


def message_from_xof(inst: ChameleonInstance, xof):
    """Message-space element read from a SHAKE object.

    DL reads 128 bits more than q has and reduces, so the bias is below
    2^-128; SIS reads the first k bits, most significant bit first.
    """
    if isinstance(inst, DLInstance):
        nbytes = (inst.q_grp.bit_length() + 128 + 7) // 8
        return int.from_bytes(xof.digest(nbytes), "big") % inst.q_grp
    k = inst.params.k
    bits = np.unpackbits(np.frombuffer(xof.digest((k + 7) // 8), dtype=np.uint8))
    return bits[:k].astype(np.int64)


def sample_randomness(inst: ChameleonInstance, rng: Rng):
    if isinstance(inst, DLInstance):
        return rng.randbelow(inst.q_grp)
    params = inst.params
    gauss = _gaussian(params.s)
    for _ in range(100):
        r = gauss.sample_vector(rng, params.m)
        if float(np.linalg.norm(r)) <= params.norm_bound:
            return r
    raise SamplerError("randomness sampler exceeded retry budget")


def sample_range(
    inst: ChameleonInstance, rng: Rng, td: ChameleonTrapdoor | None = None
) -> RangeSample:
    """A range value C = ch_hash(inst, m, r) for a random trace (m, r).

    Given the DL trapdoor x, C is computed with one exponentiation as
    g^((m + x r) mod q), the same value because y = g^x and g has order q.
    The draws from rng and the trace are the same with or without td.
    """
    m = sample_message(inst, rng)
    r = sample_randomness(inst, rng)
    if isinstance(inst, DLInstance) and td is not None:
        # the folded exponent reveals x together with the trace: never keep it
        elem = _multi_pow(
            ((inst.g, (m + td.x * r) % inst.q_grp),), inst.p, inst.q_grp.bit_length()
        )
    else:
        elem = ch_hash(inst, m, r)
    return RangeSample(element=elem, trace_message=m, trace_randomness=r)


def ch_invert(
    inst: ChameleonInstance,
    td: ChameleonTrapdoor,
    m,
    target: RangeSample,
    rng: Rng | None = None,
):
    """Randomness r with ch_hash(inst, m, r) == target.element.

    DL inversion is exact algebra on the retained trace and consumes no
    randomness.  SIS inversion is gadget preimage sampling and requires rng.
    """
    if isinstance(inst, DLInstance):
        mi = _check_dl_scalar(inst, m, "message")
        m_t = _check_dl_scalar(inst, target.trace_message, "trace message")
        r_t = _check_dl_scalar(inst, target.trace_randomness, "trace randomness")
        x_inv = td.x_inv
        if x_inv is None:  # a trapdoor built by hand
            if td.x % inst.q_grp == 0:
                raise DegenerateTrapdoorError("trapdoor exponent is zero")
            x_inv = pow(td.x, -1, inst.q_grp)
        return ((m_t - mi) * x_inv + r_t) % inst.q_grp
    if rng is None:
        raise SamplerError("SIS inversion needs an rng")
    marr = _as_bits(inst, m)
    params = inst.params
    target_vec = np.asarray(target.element, dtype=np.int64)
    syndrome = (target_vec - inst.A @ marr) % params.q
    return sis.sample_preimage(
        params, inst.B, td.R, syndrome, rng, _gaussian(params.s / 2)
    )


# ---------------------------------------------------------------------------
# collisions


def elements_equal(inst: ChameleonInstance, a, b) -> bool:
    if isinstance(inst, DLInstance):
        return int(a) == int(b)
    return np.array_equal(np.asarray(a), np.asarray(b))


def _pairs_equal(inst: ChameleonInstance, pair1, pair2) -> bool:
    return all(elements_equal(inst, a, b) for a, b in zip(pair1, pair2))


def check_collision(inst: ChameleonInstance, pair1, pair2) -> CollisionVerdict:
    if _pairs_equal(inst, pair1, pair2):
        return CollisionVerdict.TRIVIAL
    h1 = ch_hash(inst, pair1[0], pair1[1])
    h2 = ch_hash(inst, pair2[0], pair2[1])
    if elements_equal(inst, h1, h2):
        return CollisionVerdict.VALID
    return CollisionVerdict.NOT_COLLISION


def dl_recover_trapdoor(inst: DLInstance, pair1, pair2) -> int:
    """A valid DL collision reveals the trapdoor exponent."""
    if check_collision(inst, pair1, pair2) is not CollisionVerdict.VALID:
        raise DomainError("not a valid collision")
    (m1, r1), (m2, r2) = pair1, pair2
    if r1 == r2:
        raise DegenerateTrapdoorError("collision with equal randomness")
    x = (m1 - m2) * pow(r2 - r1, -1, inst.q_grp) % inst.q_grp
    assert pow(inst.g, x, inst.p) == inst.y
    return x


def sis_collision_to_short_vector(inst: SISInstance, pair1, pair2) -> np.ndarray:
    """Maps a valid SIS collision to a short nonzero z with [A|B] z = 0 mod q."""
    if _pairs_equal(inst, pair1, pair2):
        raise TrivialCollisionError("equal pairs carry no short vector")
    if check_collision(inst, pair1, pair2) is not CollisionVerdict.VALID:
        raise DomainError("not a valid collision")
    dm = np.asarray(pair1[0], dtype=np.int64) - np.asarray(pair2[0], dtype=np.int64)
    dr = np.asarray(pair1[1], dtype=np.int64) - np.asarray(pair2[1], dtype=np.int64)
    z = np.concatenate([dm, dr])
    AB = np.concatenate([inst.A, inst.B], axis=1)
    assert np.all((AB @ z) % inst.params.q == 0)
    return z


# ---------------------------------------------------------------------------
# serialization

# matrices are row-major; entries use the minimal whole-byte width covering
# [0, q)


def _entry_width(q: int) -> int:
    return ((q - 1).bit_length() + 7) // 8 or 1


def _pack_ints(values: np.ndarray, width: int, signed: bool = False) -> bytes:
    return b"".join([v.to_bytes(width, "big", signed=signed) for v in values.tolist()])


def _unpack_ints(
    blob: bytes, count: int, width: int, what: str, signed: bool = False
) -> np.ndarray:
    if len(blob) != count * width:
        raise FormatError(f"{what} has wrong length")
    ints = [
        int.from_bytes(blob[i * width : (i + 1) * width], "big", signed=signed)
        for i in range(count)
    ]
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError as e:
        raise FormatError(f"{what} has an entry outside int64") from e


def pack_matrix(M: np.ndarray, q: int) -> bytes:
    return _pack_ints(np.asarray(M, dtype=np.int64).reshape(-1) % q, _entry_width(q))


def unpack_matrix(blob: bytes, rows: int, cols: int, q: int) -> np.ndarray:
    flat = _unpack_ints(blob, rows * cols, _entry_width(q), "matrix blob")
    return flat.reshape(rows, cols)


def _randomness_width(params: sis.SISParams) -> int:
    bound = int(params.norm_bound) + 1
    return (bound.bit_length() + 1 + 7) // 8


def serialize_instance(inst: ChameleonInstance) -> bytes:
    if isinstance(inst, DLInstance):
        return encoding.encode_record(
            encoding.TAG_DL_INSTANCE,
            [encoding.encode_int(v) for v in (inst.p, inst.q_grp, inst.g, inst.y)],
        )
    p = inst.params
    header = [encoding.encode_int(v) for v in (p.n, p.q, p.m, p.k)]
    return encoding.encode_record(
        encoding.TAG_SIS_INSTANCE,
        header
        + [repr(p.s).encode(), pack_matrix(inst.A, p.q), pack_matrix(inst.B, p.q)],
    )


def deserialize_instance(blob: bytes) -> ChameleonInstance:
    tag, fields = encoding.decode_record(blob)
    if tag == encoding.TAG_DL_INSTANCE and len(fields) == 4:
        p, q_grp, g, y = (encoding.decode_int(f) for f in fields)
        try:
            _check_dl_group(p, q_grp, g)
        except DomainError as e:
            raise FormatError(f"bad DL group: {e}") from e
        # for a safe prime the order-q subgroup is the quadratic residues
        if not 1 < y < p or _jacobi(y, p) != 1:
            raise FormatError("y is not in the order-q subgroup")
        return DLInstance(p=p, q_grp=q_grp, g=g, y=y)
    if tag == encoding.TAG_SIS_INSTANCE and len(fields) == 7:
        n, q, m, k = (encoding.decode_int(f) for f in fields[:4])
        # the matrix lengths bound n, m, k and q before any parameter work
        A = unpack_matrix(fields[5], n, k, q)
        B = unpack_matrix(fields[6], n, m, q)
        try:
            s = float(fields[4].decode())
            params = sis.derive_params(n, q, m, k, s)
        except (ValueError, DimensionError) as e:  # UnicodeDecodeError included
            raise FormatError(f"bad SIS parameters: {e}") from e
        if not 0 < s < math.inf:
            raise FormatError("Gaussian width must be positive and finite")
        return SISInstance(params=params, A=A, B=B)
    raise FormatError(
        f"not a chameleon instance record (tag {tag}, {len(fields)} fields)"
    )


def serialize_trapdoor(inst: ChameleonInstance, td: ChameleonTrapdoor) -> bytes:
    if isinstance(inst, DLInstance):
        return encoding.encode_record(
            encoding.TAG_DL_TRAPDOOR, [encoding.encode_int(td.x)]
        )
    # stored as the full m x m unimodular matrix [[I, R], [0, I]]; this is the
    # lattice-basis form of the trapdoor and fixes the secret-key overhead at
    # m^2 ring elements
    p = inst.params
    T = np.eye(p.m, dtype=np.int64)
    T[: p.m_bar, p.m_bar :] = td.R
    return encoding.encode_record(encoding.TAG_SIS_TRAPDOOR, [pack_matrix(T, p.q)])


def deserialize_trapdoor(blob: bytes, inst: ChameleonInstance) -> ChameleonTrapdoor:
    dl = isinstance(inst, DLInstance)
    tag = encoding.TAG_DL_TRAPDOOR if dl else encoding.TAG_SIS_TRAPDOOR
    _, fields = encoding.decode_record(blob, tag)
    if len(fields) != 1:
        raise FormatError("trapdoor record needs exactly one field")
    if dl:
        x = encoding.decode_int(fields[0])
        if not 0 < x < inst.q_grp:
            raise FormatError("trapdoor exponent outside [1, q)")
        return DLTrapdoor(x=x, x_inv=pow(x, -1, inst.q_grp))
    p = inst.params
    T = unpack_matrix(fields[0], p.m, p.m, p.q)
    R = T[: p.m_bar, p.m_bar :]
    # entries were reduced into [0, q); map back to signed +-1
    R = np.where(R > p.q // 2, R - p.q, R)
    return SISTrapdoor(R=R)


def serialize_range_element(inst: ChameleonInstance, elem) -> bytes:
    if isinstance(inst, DLInstance):
        return encoding.encode_record(
            encoding.TAG_RANGE_ELEMENT, [encoding.encode_int(int(elem))]
        )
    return encoding.encode_record(
        encoding.TAG_RANGE_ELEMENT, [pack_matrix(np.asarray(elem), inst.params.q)]
    )


def serialize_message(inst: ChameleonInstance, m) -> bytes:
    if isinstance(inst, DLInstance):
        return encoding.encode_int(int(m))
    return bytes(int(b) for b in np.asarray(m, dtype=np.int64))


def serialize_randomness(inst: ChameleonInstance, r) -> bytes:
    if isinstance(inst, DLInstance):
        return encoding.encode_record(
            encoding.TAG_RANDOMNESS, [encoding.encode_int(int(r))]
        )
    body = _pack_ints(
        np.asarray(r, dtype=np.int64), _randomness_width(inst.params), signed=True
    )
    return encoding.encode_record(encoding.TAG_RANDOMNESS, [body])


def deserialize_randomness(inst: ChameleonInstance, blob: bytes):
    _, fields = encoding.decode_record(blob, encoding.TAG_RANDOMNESS)
    if len(fields) != 1:
        raise FormatError("randomness record needs exactly one field")
    if isinstance(inst, DLInstance):
        r = encoding.decode_int(fields[0])
        if r >= inst.q_grp:
            raise FormatError("randomness outside Z_q")
        return r
    p = inst.params
    return _unpack_ints(
        fields[0], p.m, _randomness_width(p), "randomness vector", signed=True
    )
