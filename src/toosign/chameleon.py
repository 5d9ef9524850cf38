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

Exponentiations modulo a p of 256 bits or more go to libcrypto's BIGNUM
through ctypes, loaded by soname on the first such call, so a process that
makes none (`import toosign`, the SIS family, dl-demo) never imports
ctypes.  A lone base takes BN_mod_exp_mont_consttime: the folded g^e of a
signer and y = g^x in key generation and in decoding a secret key, all
through _secret_pow, whose added q fills the same number of words whatever
the exponent.  Two bases, a verifier's public g^m y^r, take
BN_mod_exp2_mont, not constant-time.  On two usable cores an exponentiation
is two such calls at once from a base's first use, one on a worker thread
joined before it returns: each exponent is cut at bit K = 1024 of the
2048-bit p, and b^e = b^(e mod 2^K) (b^(2^K))^(e >> K), the two-row case
of Lim and Lee's fixed-base precomputation (CRYPTO 1994).  b^(2^K) is
public: g's is committed, a y's is computed in the worker, and the last
four are kept (_high_base).  On one core it is one call.  Below 256 bits, or
where no libcrypto loads, each base takes builtin pow, which is not
constant-time either.  So only the calls on x, and only inside libcrypto,
run in constant time; CPython's integer arithmetic around them does not,
and this code makes no side-channel claim beyond those calls.

Named sets.  The only DL groups and lattice sets are the named sets in
DL_PARAM_SETS, constants that the test suite proves (p and q prime,
p = 2q + 1, g of order q), and SIS_PARAM_SETS.  Key generation takes a DL
group by name and an (n, q, m, k) only if it is named, and decoding accepts
a key's (p, q, g) or (n, q, m, k) only by comparing it with the named sets,
so an unnamed set is refused before any big-integer work or `sis` import.
A decoded public key's y must also lie in the order-q subgroup.

Families.  DLInstance here and SISInstance in `sis` carry their family's
operations over Python ints, and the module functions call them.  `hg`
and `deserialize_instance`, which have no instance yet, import `sis` only
in their SIS arm, so a process that hashes only over DL never pays for that
import (about 10 ms from source).
"""

from __future__ import annotations

import functools
import math
import operator
import os
import threading
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Union

from . import encoding
from .errors import DomainError, FormatError
from .rng import Rng

if TYPE_CHECKING:  # sis loads with the first SIS key
    from . import sis


class ChameleonKind(Enum):
    DL = "dl"
    SIS = "sis"


class CollisionVerdict(Enum):
    VALID = "valid"
    TRIVIAL = "trivial"
    NOT_COLLISION = "not-collision"


# ---------------------------------------------------------------------------
# trapdoors and range samples


class DLTrapdoor(NamedTuple):
    x: int
    # x^-1 mod q, computed where the trapdoor is made or decoded; never serialized
    x_inv: int

    def __repr__(self) -> str:
        return "DLTrapdoor(<secret>)"


class RangeSample(NamedTuple):
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
# g^(2^1024) mod p for g = 2, the base of every high half on dl-2048's g
_MODP_2048_G_1024 = int(
    "50BA4C106A5A40D02BD79F9E7438BE238E0D274D783286CFDB809B84AAAEFBB0"
    "D31D020B31EB98C46675B283731CEFC92434382D8B1E3F79F122E5982CE4637D"
    "DD4AF3689DB5AABFC190A3F109FCABED702945F84DE4D15362183BF80D6895A4"
    "958B3C6040148C883E60D81D31B13810FC4E80D671BFEA61056EA5BAEB0CA5B5"
    "BDCD2F649D1AEDCE8AE2FE511F2373BA5CB98612182C42E53AD15A7084ACACA0"
    "ED045D5256D068FA1C45FC86482EB2D6398857DB58070FFA588CCE448B4F145A"
    "83E67AA2EC93C3DEE8A24645523DB465721CCDE62CBAE9FEE508097D61281518"
    "917106F921497B4FE14DC2FC469A792344D5C5202A0C192899AE803ADED195F3",
    16,
)

DL_PARAM_SETS: dict[str, tuple[int, int, int]] = {
    # name -> (p, q_grp, g); dl-demo is for exhaustive tests, never a default
    "dl-demo": (23, 11, 4),
    "dl-2048": (_MODP_2048_P, (_MODP_2048_P - 1) // 2, 2),
}


# name -> (n, q, m, k); sis-desk has no collision resistance (see the README)
SIS_PARAM_SETS: dict[str, tuple[int, int, int, int]] = {"sis-desk": (4, 257, 12, 8)}


# ---------------------------------------------------------------------------
# key generation


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


def hg(
    kind: ChameleonKind, params: dict, rng: Rng
) -> tuple[ChameleonInstance, ChameleonTrapdoor]:
    if not isinstance(params, dict):
        raise DomainError(f"params must be a dict, not {type(params).__name__}")
    if kind is ChameleonKind.DL:
        name = params.get("name")
        if not isinstance(name, str) or name not in DL_PARAM_SETS:
            raise DomainError(f"unknown DL group {name!r}")
        p, q_grp, g = DL_PARAM_SETS[name]
        x = 1 + rng.randbelow(q_grp - 1)
        td = DLTrapdoor(x=x, x_inv=pow(x, -1, q_grp))
        y = _secret_pow(g, x, q_grp, p)
        return DLInstance(p=p, q_grp=q_grp, g=g, y=y), td
    if kind is not ChameleonKind.SIS:
        raise DomainError(f"unknown chameleon kind {kind!r}")
    dims = tuple(params.get(d) for d in "nqmk")
    if dims not in SIS_PARAM_SETS.values() or not all(type(d) is int for d in dims):
        raise DomainError(f"unnamed SIS parameter set (n, q, m, k) = {dims}")
    from . import sis  # loads with the first SIS key
    return sis.hg_sis(*dims, rng)


# ---------------------------------------------------------------------------
# exponentiation


_LIB_MIN_BITS = 256  # from this modulus size up, libcrypto's BIGNUM computes
_LIBCRYPTO_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1")
# the loaded binding, False once none loads; two threads that both load it
# load the same library twice, which dlopen counts
_libcrypto = None


def _load_libcrypto():
    """libcrypto with the BIGNUM calls of _bn_multi_pow declared, or None.

    Loaded by soname: ctypes.util.find_library runs ldconfig in a subprocess
    on Linux.  Every restype is declared, since an undeclared pointer return
    is cut to a C int."""
    import ctypes  # loads with the first exponentiation mod a large p

    ptr, buf, n = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int
    signatures = {
        "BN_CTX_new": (ptr, []),
        "BN_CTX_free": (None, [ptr]),
        "BN_clear_free": (None, [ptr]),
        "BN_bin2bn": (ptr, [buf, n, ptr]),
        "BN_bn2binpad": (n, [ptr, buf, n]),
        "BN_mod_exp_mont_consttime": (n, [ptr] * 6),
        "BN_mod_exp2_mont": (n, [ptr] * 8),
    }
    for soname in _LIBCRYPTO_SONAMES:
        try:
            lib = ctypes.CDLL(soname)
            for name, (restype, argtypes) in signatures.items():
                function = getattr(lib, name)
                function.restype, function.argtypes = restype, argtypes
        except (OSError, AttributeError):
            continue
        return lib
    return None


def _bn_multi_pow(lib, terms, p: int) -> int:
    """prod b^e mod p over terms in one libcrypto call:
    BN_mod_exp_mont_consttime for one base, BN_mod_exp2_mont for two.  Every
    BIGNUM is zeroed when freed, as an exponent may be secret."""
    import ctypes

    n = (p.bit_length() + 7) // 8
    ctx, bns = lib.BN_CTX_new(), []

    def check(result, call: str):
        if not result:
            raise RuntimeError(f"libcrypto {call} failed")
        return result

    def bn(v: int):
        # to_bytes refuses a negative v or one of more than n bytes
        bns.append(check(lib.BN_bin2bn(v.to_bytes(n, "big"), n, None), "BN_bin2bn"))
        return bns[-1]

    try:
        check(ctx, "BN_CTX_new")
        if len(terms) == 1:
            (b, e), = terms
            exp, args = lib.BN_mod_exp_mont_consttime, (b % p, e)
        else:
            (b, e), (c, f) = terms
            exp, args = lib.BN_mod_exp2_mont, (b % p, e, c % p, f)
        r = bn(0)
        check(exp(r, *map(bn, args), bn(p), ctx, None), exp.__name__)
        raw = ctypes.create_string_buffer(n)
        check(lib.BN_bn2binpad(r, raw, n) == n, "BN_bn2binpad")
        return int.from_bytes(raw.raw, "big")
    finally:
        for a in bns:
            lib.BN_clear_free(a)
        lib.BN_CTX_free(ctx)


@functools.lru_cache(maxsize=4)
def _high_base(b: int, p: int) -> int:
    """b^(2^K) mod p, K = half of p's bits: the base of b's high half.

    dl-2048's g takes the committed _MODP_2048_G_1024.  Any other b is
    public, so the variable-time two-base call computes it, with a zero
    second exponent: 1.1-1.4 ms on dl-2048, against 1.5-1.9 ms for the
    constant-time call.  The last four values are kept; lru_cache is safe
    for concurrent callers, two of which may both compute a missing one."""
    if (b, p) == (2, _MODP_2048_P):
        return _MODP_2048_G_1024
    return _bn_multi_pow(_libcrypto, ((b, 1 << p.bit_length() // 2), (b, 0)), p)


def _pow(terms, p: int, pad: int = 0) -> int:
    """prod b^e mod p over one or two (b, e) in terms, p odd, each e in [0, p).

    Below _LIB_MIN_BITS bits of p, or if no libcrypto loads (it is loaded
    on the first call at that size), every base takes builtin pow.  With one
    usable core, on which the two halves ran 15 % slower, one libcrypto call
    computes it.  Otherwise each exponent is cut at bit K = half of p's bits,
    with b^e = b^(e mod 2^K + pad 2^K) (b^(2^K))^((e >> K) - pad), and the
    two calls run at once: the high one on a worker thread and the low one
    here, as ctypes releases the GIL during each.  The worker is joined
    before this returns, and an exception it raised is raised here."""
    global _libcrypto
    large = p.bit_length() >= _LIB_MIN_BITS
    if large and _libcrypto is None:
        _libcrypto = _load_libcrypto() or False
    lib = large and _libcrypto
    if not lib:
        return math.prod(pow(b, e, p) for b, e in terms) % p
    if hasattr(os, "sched_getaffinity"):  # as merkle's _worker_count reads it
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    if cores == 1:
        return _bn_multi_pow(lib, terms, p)
    k = p.bit_length() // 2
    out, mask = {}, (1 << k) - 1

    def work():
        try:
            high = [(_high_base(b, p), (e >> k) - pad) for b, e in terms]
            out["high"] = _bn_multi_pow(lib, high, p)
        except BaseException as exc:  # raised again in the caller
            out["error"] = exc

    worker = threading.Thread(target=work)
    worker.start()
    try:
        low = _bn_multi_pow(lib, [(b, (e & mask) + (pad << k)) for b, e in terms], p)
    finally:
        worker.join()
    if "error" in out:
        raise out["error"]
    return low * out["high"] % p


def _secret_pow(g: int, e: int, q: int, p: int) -> int:
    """g^e mod p for g of order q, as g^E with E = e mod q + q, equal since
    g^q = 1.  Every exponent on x comes through here, and every call it
    makes is constant-time with a word count that does not depend on e:
    without the q, g^1 took 0.13 ms and a random e 2.5 ms.  Cut in two on
    dl-2048, K = 1024 and E lies in [2^2046, 2^2048), so with pad 1 the low
    exponent E mod 2^K + 2^K always has 1025 bits (17 words) and the high
    one, (E >> K) - 1, lies in [2^1022 - 1, 2^1024): 16 words."""
    return _pow(((g, e % q + q),), p, pad=1)


# ---------------------------------------------------------------------------
# the discrete-log family


class DLInstance(NamedTuple):
    """h(m, r) = g^m y^r mod p; messages and randomness are integers mod q."""

    p: int
    q_grp: int
    g: int
    y: int

    def _scalar(self, v, what: str) -> int:
        """v as an int if it is an integer (has `__index__`) in [0, q)."""
        try:
            i = operator.index(v)
        except TypeError:
            i = -1
        if not 0 <= i < self.q_grp:
            raise DomainError(f"{what} must be an integer in [0, {self.q_grp})")
        return i

    def hash(self, m, r) -> int:
        mi = self._scalar(m, "message")
        ri = self._scalar(r, "randomness")
        return _pow(((self.g, mi), (self.y, ri)), self.p)

    def trapdoor_hash(self, td: DLTrapdoor, m: int, r: int) -> int:
        """hash(m, r) with one exponentiation, as g^(m + x r): the same
        value because y = g^x."""
        # the folded exponent reveals x together with (m, r): never keep it
        return _secret_pow(self.g, m + td.x * r, self.q_grp, self.p)

    def sample_message(self, rng: Rng) -> int:
        return rng.randbelow(self.q_grp)

    sample_randomness = sample_message  # randomness is uniform in Z_q too

    def message_from_xof(self, xof) -> int:
        """Reads 128 bits beyond q and reduces: the bias is below 2^-128."""
        nbytes = (self.q_grp.bit_length() + 128 + 7) // 8
        return int.from_bytes(xof.digest(nbytes), "big") % self.q_grp

    def invert(self, td: DLTrapdoor, m, target: RangeSample, rng: Rng | None) -> int:
        """Exact algebra on the retained trace; consumes no randomness."""
        mi = self._scalar(m, "message")
        m_t = self._scalar(target.trace_message, "trace message")
        r_t = self._scalar(target.trace_randomness, "trace randomness")
        return ((m_t - mi) * td.x_inv + r_t) % self.q_grp

    def elements_equal(self, a, b) -> bool:
        return int(a) == int(b)

    def serialize(self) -> bytes:
        return encoding.encode_record(
            encoding.TAG_DL_INSTANCE,
            [encoding.encode_int(v) for v in (self.p, self.q_grp, self.g, self.y)],
        )

    def serialize_trapdoor(self, td: DLTrapdoor) -> bytes:
        return encoding.encode_record(
            encoding.TAG_DL_TRAPDOOR, [encoding.encode_int(td.x)]
        )

    def deserialize_trapdoor(self, blob: bytes) -> DLTrapdoor:
        x = encoding.decode_int(*encoding.decode_fields(blob, encoding.TAG_DL_TRAPDOOR, 1))
        if not 0 < x < self.q_grp:
            raise FormatError("trapdoor exponent outside [1, q)")
        if _secret_pow(self.g, x, self.q_grp, self.p) != self.y:
            raise FormatError("trapdoor exponent does not match y")
        return DLTrapdoor(x=x, x_inv=pow(x, -1, self.q_grp))

    def serialize_element(self, elem) -> bytes:
        return encoding.encode_record(
            encoding.TAG_RANGE_ELEMENT, [encoding.encode_int(int(elem))]
        )

    def serialize_message(self, m) -> bytes:
        return encoding.encode_int(int(m))

    def serialize_randomness(self, r) -> bytes:
        return encoding.encode_record(
            encoding.TAG_RANDOMNESS, [encoding.encode_int(int(r))]
        )

    def deserialize_randomness(self, blob: bytes) -> int:
        r = encoding.decode_int(*encoding.decode_fields(blob, encoding.TAG_RANDOMNESS, 1))
        if r >= self.q_grp:
            raise FormatError("randomness outside Z_q")
        return r

    def overhead_elements(self, td: DLTrapdoor, r) -> tuple[dict, dict, dict]:
        """(parameters, predicted, measured): the ring elements the hash adds
        to the public key, the secret key and a signature."""
        _, ifields = encoding.decode_record(self.serialize())
        _, tfields = encoding.decode_record(self.serialize_trapdoor(td))
        _, rfields = encoding.decode_record(self.serialize_randomness(r))
        measured = {
            "pk": len(ifields) - 2,  # g and y; p, q_grp are shared parameters
            "sk": len(tfields),
            "sig": len(rfields),
        }
        predicted = {"pk": 2, "sk": 1, "sig": 1}  # (g, y), x, r
        return {"kind": "dl", "modulus_bits": self.p.bit_length()}, predicted, measured


ChameleonInstance = Union[DLInstance, "sis.SISInstance"]
ChameleonTrapdoor = Union[DLTrapdoor, "sis.SISTrapdoor"]


# ---------------------------------------------------------------------------
# hashing, sampling, inversion


def ch_hash(inst: ChameleonInstance, m, r):
    return inst.hash(m, r)


def sample_message(inst: ChameleonInstance, rng: Rng):
    return inst.sample_message(rng)


def sample_randomness(inst: ChameleonInstance, rng: Rng):
    return inst.sample_randomness(rng)


def sample_range(
    inst: ChameleonInstance, rng: Rng, td: ChameleonTrapdoor | None = None
) -> RangeSample:
    """A range value C = ch_hash(inst, m, r) for a random trace (m, r).

    Given the trapdoor, C comes from the family's `trapdoor_hash`.  The draws
    from rng and the trace are the same with or without td.
    """
    m = sample_message(inst, rng)
    r = sample_randomness(inst, rng)
    elem = ch_hash(inst, m, r) if td is None else inst.trapdoor_hash(td, m, r)
    return RangeSample(element=elem, trace_message=m, trace_randomness=r)


def ch_invert(
    inst: ChameleonInstance,
    td: ChameleonTrapdoor,
    m,
    target: RangeSample,
    rng: Rng | None = None,
):
    """Randomness r with ch_hash(inst, m, r) == target.element.

    DL inversion consumes no randomness; SIS inversion requires rng.
    """
    return inst.invert(td, m, target, rng)


# ---------------------------------------------------------------------------
# collisions


def check_collision(inst: ChameleonInstance, pair1, pair2) -> CollisionVerdict:
    if all(inst.elements_equal(a, b) for a, b in zip(pair1, pair2)):
        return CollisionVerdict.TRIVIAL
    h1 = ch_hash(inst, pair1[0], pair1[1])
    h2 = ch_hash(inst, pair2[0], pair2[1])
    if inst.elements_equal(h1, h2):
        return CollisionVerdict.VALID
    return CollisionVerdict.NOT_COLLISION


def dl_recover_trapdoor(inst: DLInstance, pair1, pair2) -> int:
    """A valid DL collision reveals the trapdoor exponent."""
    if check_collision(inst, pair1, pair2) is not CollisionVerdict.VALID:
        raise DomainError("not a valid collision")
    (m1, r1), (m2, r2) = pair1, pair2
    x = (m1 - m2) * pow(r2 - r1, -1, inst.q_grp) % inst.q_grp
    assert pow(inst.g, x, inst.p) == inst.y
    return x


def sis_collision_to_short_vector(inst: sis.SISInstance, pair1, pair2):
    """Maps a valid SIS collision to a short nonzero z with [A|B] z = 0 mod q."""
    if check_collision(inst, pair1, pair2) is not CollisionVerdict.VALID:
        raise DomainError("not a valid collision")
    return inst.collision_vector(pair1, pair2)


# ---------------------------------------------------------------------------
# decoding an instance


def deserialize_instance(blob: bytes) -> ChameleonInstance:
    tag, fields = encoding.decode_record(blob)
    if tag == encoding.TAG_DL_INSTANCE and len(fields) == 4:
        p, q_grp, g, y = (encoding.decode_int(f) for f in fields)
        if (p, q_grp, g) not in DL_PARAM_SETS.values():
            raise FormatError("bad DL group: not a named DL group")
        # for a safe prime the order-q subgroup is the quadratic residues
        if not 1 < y < p or _jacobi(y, p) != 1:
            raise FormatError("y is not in the order-q subgroup")
        return DLInstance(p=p, q_grp=q_grp, g=g, y=y)
    if tag == encoding.TAG_SIS_INSTANCE and len(fields) == 7:
        dims = tuple(encoding.decode_int(f) for f in fields[:4])
        if dims not in SIS_PARAM_SETS.values():
            raise FormatError("bad SIS parameters: not a named lattice set")
        from . import sis  # loads with the first SIS key
        return sis.decode_instance(*dims, fields[4:])
    raise FormatError(
        f"not a chameleon instance record (tag {tag}, {len(fields)} fields)"
    )
