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

Exponentiations with exponents of 256 bits or more take one left-to-right
square-and-multiply pass, whose squarings every base of the call shares.  A
base used before has a Lim-Lee comb of one layout for every base: the
exponent splits into 5 limbs of 10 rows, 5 tables of 1024 products, about
1.58 MB and 41 columns on a 2048-bit group, and in each of the pass's last
41 steps the base multiplies in one entry per limb whatever the exponent's
digits.  So g^m y^r on the 2048-bit group takes 41 squarings and 410
products with both tables warm, and a folded g^e 41 and 205.  Every table
entry carries a factor c != 1, a power of the base that one more product
per base cancels, so no entry is 1 or short and no product leaves the
accumulator as it was.  The first exponentiation of a base in a process
does not build its table, so a one-shot process never pays for one; the
second builds it (about 100 ms).  A base seen for the first time
multiplies its sliding windows' odd powers into the same pass, so a warm g
and a first-use y share y's squarings.  A lone first-use base with
committed powers, so far the 2048-bit group's g, splits its exponent into
four 512-bit parts over g, g^(2^512), g^(2^1024) and g^(2^1536), whose
windows share 512 steps: about 14 ms against 31 ms for builtin pow's 2047
squarings.  Key generation computes y = g^x the same way.  Two bases keep
tables, least recently used evicted first: a group's g and the key in use.
A process that alternates among more keys takes the window path on every
call.  Neither the window steps, builtin pow (below 256 bits) nor
CPython's integer arithmetic runs in constant time; this code makes no
side-channel claim.

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

import operator
import sys
import threading
from collections import OrderedDict
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

# g^(2^512), g^(2^1024) and g^(2^1536) mod p for the group's g = 2: a lone
# first use of g raises these and g to the 512-bit parts of its exponent in
# one pass (see _multi_pow).
_MODP_2048_G_POWERS = tuple(
    int(h, 16)
    for h in (
        "1DFE49ACA16CCADB1B2540B8BB83C376FA60A6A0B6AE36E7C012DDCB30367E6B"
        "379DA79133B090848AA31630B60145F63685D0FC350FF0B0900E87E3296399B7"
        "A679CFC237FAFB10123358212C14EC40ED5304622D228E1951F0F5F55373D55E"
        "B95ED3C5825525071A0551A8629D304A553131A1D91DE1D5B9073755E3D0E854"
        "CDE2EFEF8E3151CC4CB916512A428F259918FA8F3E77F35C50C64506099D149B"
        "FA2B38263CAC64C7DE0A45F97F47E5AC1C74B94F581932065A1A3BBB20E4F21C"
        "0CD16925822EE679B8405AA912FA2F3DEB49ECA080CCCABB242E14F7E44C8E3F"
        "8336FC12D3E67C6DBA39822E9C62C643B547B2FF4E5263690BA98698F57C697B",
        "50BA4C106A5A40D02BD79F9E7438BE238E0D274D783286CFDB809B84AAAEFBB0"
        "D31D020B31EB98C46675B283731CEFC92434382D8B1E3F79F122E5982CE4637D"
        "DD4AF3689DB5AABFC190A3F109FCABED702945F84DE4D15362183BF80D6895A4"
        "958B3C6040148C883E60D81D31B13810FC4E80D671BFEA61056EA5BAEB0CA5B5"
        "BDCD2F649D1AEDCE8AE2FE511F2373BA5CB98612182C42E53AD15A7084ACACA0"
        "ED045D5256D068FA1C45FC86482EB2D6398857DB58070FFA588CCE448B4F145A"
        "83E67AA2EC93C3DEE8A24645523DB465721CCDE62CBAE9FEE508097D61281518"
        "917106F921497B4FE14DC2FC469A792344D5C5202A0C192899AE803ADED195F3",
        "EB4D96E8EC4CDBCCF17ED1B6F691EDD0F6CB94B7FD0FB2BF43D61E2F83F0167C"
        "D42387D50FCAB60314AB0C75B0A08322DE017AC8DD70FC94539F1F094CA0EE6E"
        "9A887B58FCA7FAA5C92F50E3B85FF92C4E20178E978B1ADDEE55E0D654B6BE4E"
        "5420A3DE5729900410D1143FDF4C7A1CCE44E74B56B2D19C9E7CCF28A3C1B1CA"
        "873EEA21B695EFA7A0C990A9ACC32AC66B5FE04635ADD436E89F06B069C6D951"
        "C11F6D821D0EF0E804DECE0C85860A9D4AF559F1A9702C6B3A4EB74F72164864"
        "F028D1125887828E59D9DD794B298CDF350C8493E7ECE936671518F6A68170F7"
        "72CE8B4A074234D084B525A639B1B9949BB2F430076A45244D5C80E9BC2C4A96",
    )
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
        y = _multi_pow(((g, x),), p, q_grp.bit_length())
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


# Every base's comb: one table per limb of the 2^rows products of its rows
# (rows <= 16, so that _comb_columns fits an index in 16 bits).
_COMB_LIMBS, _COMB_ROWS = 5, 10  # 5 x 1024 products per base
_COMB_MIN_BITS = 256  # below this, a comb column is too short to beat pow
_COMB_CACHE_SIZE = 2  # bases: g and the key in use, 1.58 MB each at 2048 bits
_WINDOW_BITS = 5  # a first-use base multiplies in up to 5 bits at a time
_SPLIT_BITS = 512  # the exponent bits per committed power of a named generator
# (b, p) -> b and its committed powers b^(2^(_SPLIT_BITS * k)), k = 1, 2, ...
_COMMITTED_POWERS = {(2, _MODP_2048_P): (2, *_MODP_2048_G_POWERS)}
_Comb = tuple[list[list[int]], int]  # a base's tables, and their correction
# (base, p, bits) -> the base's comb, or None after the first use
_comb_cache: OrderedDict[tuple, _Comb | None] = OrderedDict()
_comb_lock = threading.Lock()
# _comb_columns reads binary digits as 16-bit characters in native order
_DIGIT_CODEC = "utf-16-le" if sys.byteorder == "little" else "utf-16-be"


def _comb_width(bits: int) -> int:
    """Columns of the comb: the bits split into limbs * rows rows."""
    return -(-bits // (_COMB_LIMBS * _COMB_ROWS))


def _comb_table(b: int, p: int, a: int) -> _Comb:
    """The comb of b: per limb l, entry j is c times the product of
    b^(2^(a*(rows*l + i))) over the rows i set in j; and c^-(limbs*(2^a - 1))
    mod p, which cancels the c^(2^a - 1) per limb that the column loop
    gathers.  c = b^(2^(a*limbs*rows)), the row power after the last, keeps
    every entry, 0 included, from being 1 or short."""
    row_powers = [b]
    for _ in range(_COMB_LIMBS * _COMB_ROWS):
        x = row_powers[-1]
        for _ in range(a):
            x = x * x % p
        row_powers.append(x)
    c = row_powers.pop()
    tables = []
    for limb in range(_COMB_LIMBS):
        powers = row_powers[limb * _COMB_ROWS : (limb + 1) * _COMB_ROWS]
        table = [c] * (1 << _COMB_ROWS)
        for j in range(1, 1 << _COMB_ROWS):
            low = j & -j
            table[j] = table[j ^ low] * powers[low.bit_length() - 1] % p
        tables.append(table)
    return tables, pow(c, -_COMB_LIMBS * ((1 << a) - 1), p)


def _comb_columns(e: int, a: int) -> list[memoryview]:
    """Per limb, the table index of each of its a columns, most significant
    column first.

    e splits into rows e = sum_i e_i 2^(a*i) of a bits each, and limb l
    holds rows l*rows to l*rows + rows - 1; bit i of index k of limb l is
    bit a-1-k of e_(l*rows + i).  The binary digits of e are read once as
    16-bit characters and cut into rows; each row's ASCII zeros come off
    and it is shifted into bit i of every character.
    """
    n = a * _COMB_LIMBS * _COMB_ROWS
    digits = format(e, f"0{n}b").encode(_DIGIT_CODEC)
    zeros = int.from_bytes(("0" * a).encode(_DIGIT_CODEC), sys.byteorder)
    out = []
    for limb in range(_COMB_LIMBS):
        spread = 0
        for i in range(_COMB_ROWS):
            end = 2 * (n - a * (limb * _COMB_ROWS + i))
            row = int.from_bytes(digits[end - 2 * a : end], sys.byteorder)
            spread += (row - zeros) << i
        out.append(memoryview(spread.to_bytes(2 * a, sys.byteorder)).cast("H"))
    return out


def _comb_lookup(b: int, p: int, bits: int) -> _Comb | None:
    """The comb of b, built on its second call; None on the first."""
    key = (b, p, bits)
    with _comb_lock:
        seen = key in _comb_cache
        comb = _comb_cache.pop(key, None)
        _comb_cache[key] = comb  # least recently used first
        if len(_comb_cache) > _COMB_CACHE_SIZE:
            _comb_cache.popitem(last=False)
    if seen and comb is None:
        comb = _comb_table(b, p, _comb_width(bits))
        with _comb_lock:
            if key in _comb_cache:
                _comb_cache[key] = comb
    return comb


def _split(b: int, e: int, p: int) -> list[tuple[int, int]]:
    """(b^(2^(_SPLIT_BITS * k)), e_k) over the _SPLIT_BITS-bit parts e_k of
    e = sum_k e_k 2^(_SPLIT_BITS * k), the last part taking every bit above,
    so that b^e is the product of their powers."""
    *lower, top = _COMMITTED_POWERS[(b, p)]
    parts = []
    for power in lower:
        parts.append((power, e & ((1 << _SPLIT_BITS) - 1)))
        e >>= _SPLIT_BITS
    parts.append((top, e))
    return parts


def _multi_pow(terms, p: int, bits: int) -> int:
    """prod b^e mod p over the (b, e) in terms, every b a unit mod p and
    every e in [0, 2^bits).

    When bits < _COMB_MIN_BITS, every base takes builtin pow.  Otherwise one
    left-to-right pass squares the accumulator once per step for all bases.
    A base used before gets a Lim-Lee comb of _COMB_LIMBS limbs of
    _COMB_ROWS rows of a = _comb_width(bits) columns; in each of the last a
    steps it multiplies in one entry per limb, whatever the index.  A base
    used for the first time gets no table: its e is cut into sliding windows
    of up to _WINDOW_BITS bits that start and end on a set bit, and each
    window multiplies in the base's odd power at the step of its lowest
    bit.  A lone first-use base with committed powers is split over them
    first, so the pass takes _SPLIT_BITS steps instead of bits.
    """
    if bits < _COMB_MIN_BITS:
        out = 1
        for b, e in terms:
            out = out * pow(b, e, p) % p
        return out
    a = _comb_width(bits)
    fresh, limbs, out = [], [], 1
    for b, e in terms:
        comb = _comb_lookup(b, p, bits)
        if comb is None:
            fresh.append((b, e))
        else:
            tables, correction = comb
            limbs += zip(_comb_columns(e, a), tables)
            out = out * correction % p
    if len(fresh) == 1 and (fresh[0][0], p) in _COMMITTED_POWERS:
        fresh = _split(*fresh[0], p)
    top = max([a] + [e.bit_length() for _, e in fresh])
    due = [[] for _ in range(top)]  # bit position -> odd powers to multiply in
    for b, e in fresh:
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
    # k is the comb column of each step: 0 at bit a - 1, negative above it
    for k, powers in enumerate(reversed(due), a - top):
        acc = acc * acc % p
        for t in powers:
            acc = acc * t % p
        if k >= 0:
            for columns, table in limbs:
                acc = acc * table[columns[k]] % p
    return out * acc % p


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
        terms = ((self.g, mi), (self.y, ri))
        return _multi_pow(terms, self.p, self.q_grp.bit_length())

    def trapdoor_hash(self, td: DLTrapdoor, m: int, r: int) -> int:
        """hash(m, r) with one exponentiation, as g^((m + x r) mod q): the
        same value because y = g^x and g has order q."""
        # the folded exponent reveals x together with (m, r): never keep it
        e = (m + td.x * r) % self.q_grp
        return _multi_pow(((self.g, e),), self.p, self.q_grp.bit_length())

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
