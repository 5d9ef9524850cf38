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

Exponentiations with exponents of 256 bits or more use a Lim-Lee comb, in
one of two layouts chosen by the base's role.  The generator g, which every
key of a group shares and which every sign and verify raises, splits its
exponent into 3 limbs of 10 rows: 3 tables of 1024 products, about 0.95 MB
and 69 columns on a 2048-bit group.  A key's y splits into 4 limbs of 8
rows: 4 tables of 256 products, about 315 kB and 64 columns.  One column
loop serves every limb of every base of a hash, with y's columns lined up
with g's last ones: g^m y^r on the 2048-bit group takes 69 squarings, at
most 207 products for g and 256 for y.  The first exponentiation of a base
in a layout in a process does not build its table, so a one-shot process
never pays for one; the second builds it (about 70 ms for g, 50 ms for y).
Two or more bases seen for the first time in one call share one
interleaved sliding-window pass and so its squarings; a lone one takes
builtin pow.  At most 8 bases keep tables, least recently used evicted
first: one group's g and 7 keys take about 3.1 MB on the 2048-bit group,
and 8 generators at most 7.6 MB.  Neither builtin pow nor these passes run
in constant time; this code makes no side-channel claim.

DL groups.  The named sets in DL_PARAM_SETS are constants proven once by the
test suite, so key generation and decoding accept them by comparing
(p, q, g).  Every other group gets the full checks (Miller-Rabin on p and q,
p = 2q + 1, g of order q) once per process.  A decoded public key's y must
also lie in the order-q subgroup.

Families.  DLInstance here and SISInstance in `sis` carry their family's
operations, and the module functions call them.  `hg` and
`deserialize_instance`, which have no instance yet, import `sis` only in
their SIS arm, so a process that hashes only over DL never imports numpy.
"""

from __future__ import annotations

import hashlib
import numbers
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Union

from . import encoding
from .errors import (
    DegenerateTrapdoorError,
    DomainError,
    FormatError,
    TrivialCollisionError,
)
from .rng import Rng

if TYPE_CHECKING:  # sis imports numpy
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


@dataclass(frozen=True)
class DLTrapdoor:
    x: int
    # x^-1 mod q, set where the trapdoor is made or decoded; never serialized
    x_inv: int | None = field(default=None, compare=False, repr=False)


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


def hg(
    kind: ChameleonKind, params: dict, rng: Rng
) -> tuple[ChameleonInstance, ChameleonTrapdoor]:
    if kind is ChameleonKind.DL:
        if "name" in params:
            p, q_grp, g = DL_PARAM_SETS[params["name"]]
        else:
            p, q_grp, g = params["p"], params["q_grp"], params["g"]
        return hg_dl(p, q_grp, g, rng)
    from . import sis  # numpy loads with the first SIS key
    return sis.hg_sis(
        params["n"], params["q"], params["m"], params["k"], rng, params.get("s")
    )


# ---------------------------------------------------------------------------
# exponentiation


class _CombLayout(NamedTuple):
    """A base's comb: one table per limb of the 2^rows products of its rows
    (rows <= 16, so that _comb_columns fits an index in 16 bits)."""

    limbs: int
    rows: int


# The generator, shared by every key of a group, gets the larger comb.
_GENERATOR_COMB = _CombLayout(limbs=3, rows=10)  # 3 x 1024 products per base
_KEY_COMB = _CombLayout(limbs=4, rows=8)  # 4 x 256 products per base
_COMB_MIN_BITS = 256  # below this, a comb column is too short to beat pow
_COMB_CACHE_SIZE = 8  # bases; on a 2048-bit group a comb is 0.95 MB or 315 kB
_WINDOW_BITS = 5  # the joint first-use pass multiplies in up to 5 bits at a time
# (base, p, bits, layout) -> the comb's tables, or None after the first use
_comb_cache: OrderedDict[tuple, list[list[int]] | None] = OrderedDict()
_comb_lock = threading.Lock()
# _comb_columns reads binary digits as 16-bit characters in native order
_DIGIT_CODEC = "utf-16-le" if sys.byteorder == "little" else "utf-16-be"


def _comb_width(bits: int, layout: _CombLayout) -> int:
    """Columns of the comb: the bits split into limbs * rows rows."""
    return -(-bits // (layout.limbs * layout.rows))


def _comb_table(b: int, p: int, a: int, layout: _CombLayout) -> list[list[int]]:
    """Per limb l, entry j is the product of b^(2^(a*(rows*l + i))) over the
    rows i set in j."""
    limbs, rows = layout
    row_powers = [b]
    for _ in range(limbs * rows - 1):
        x = row_powers[-1]
        for _ in range(a):
            x = x * x % p
        row_powers.append(x)
    tables = []
    for limb in range(limbs):
        powers = row_powers[limb * rows : (limb + 1) * rows]
        table = [1] * (1 << rows)
        for j in range(1, 1 << rows):
            low = j & -j
            table[j] = table[j ^ low] * powers[low.bit_length() - 1] % p
        tables.append(table)
    return tables


def _comb_columns(e: int, a: int, layout: _CombLayout, width: int) -> list[memoryview]:
    """Per limb, the table index of each of its a columns, most significant
    column first, behind width - a zero columns.

    e splits into rows e = sum_i e_i 2^(a*i) of a bits each, and limb l
    holds rows l*rows to l*rows + rows - 1; bit i of index k of limb l is
    bit a-1-k of e_(l*rows + i).  The binary digits of e are read once as
    16-bit characters and cut into rows; each row's ASCII zeros come off
    and it is shifted into bit i of every character.
    """
    limbs, rows = layout
    n = a * limbs * rows
    digits = format(e, f"0{n}b").encode(_DIGIT_CODEC)
    zeros = int.from_bytes(("0" * a).encode(_DIGIT_CODEC), sys.byteorder)
    pad = bytes(2 * (width - a))
    out = []
    for limb in range(limbs):
        spread = 0
        for i in range(rows):
            end = 2 * (n - a * (limb * rows + i))
            row = int.from_bytes(digits[end - 2 * a : end], sys.byteorder)
            spread += (row - zeros) << i
        out.append(memoryview(pad + spread.to_bytes(2 * a, sys.byteorder)).cast("H"))
    return out


def _comb_lookup(
    b: int, p: int, bits: int, layout: _CombLayout
) -> list[list[int]] | None:
    """The comb tables of b, built on the second call for (b, layout); None
    on the first."""
    key = (b, p, bits, layout)
    with _comb_lock:
        seen = key in _comb_cache
        tables = _comb_cache.pop(key, None)
        _comb_cache[key] = tables  # least recently used first
        if len(_comb_cache) > _COMB_CACHE_SIZE:
            _comb_cache.popitem(last=False)
    if seen and tables is None:
        tables = _comb_table(b, p, _comb_width(bits, layout), layout)
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


def _multi_pow(terms, p: int, bits: int) -> int:
    """prod b^e mod p over the (b, e, layout) in terms, every e in [0, 2^bits).

    When bits < _COMB_MIN_BITS, every base takes builtin pow.  Otherwise a
    base used before in the same layout gets a Lim-Lee comb of layout.limbs
    limbs of layout.rows rows of a = _comb_width(bits, layout) columns.  One
    loop over the columns of the call's widest comb does its squarings,
    shared by every limb of every base, and at most a products per limb; a
    narrower comb's columns line up with the loop's last ones.  Bases used
    for the first time share one _joint_pow pass when there are two or
    more; a lone one takes builtin pow.
    """
    fresh, tabled = [], []
    for b, e, layout in terms:
        tables = _comb_lookup(b, p, bits, layout) if bits >= _COMB_MIN_BITS else None
        if tables is None:
            fresh.append((b, e))
        else:
            tabled.append((e, layout, tables))
    if len(fresh) > 1 and bits >= _COMB_MIN_BITS:
        out = _joint_pow(fresh, p)
    else:
        out = 1
        for b, e in fresh:
            out = out * pow(b, e, p) % p
    if tabled:
        width = max(_comb_width(bits, layout) for _, layout, _ in tabled)
        combs = []
        for e, layout, tables in tabled:
            columns = _comb_columns(e, _comb_width(bits, layout), layout, width)
            combs += zip(columns, tables)
        acc = 1
        for k in range(width):
            acc = acc * acc % p
            for columns, table in combs:
                j = columns[k]
                if j:
                    acc = acc * table[j] % p
        out = out * acc % p
    return out


# ---------------------------------------------------------------------------
# the discrete-log family


@dataclass(frozen=True)
class DLInstance:
    """h(m, r) = g^m y^r mod p; messages and randomness are integers mod q."""

    p: int
    q_grp: int
    g: int
    y: int

    def _scalar(self, v, what: str) -> int:
        if not isinstance(v, numbers.Integral) or not 0 <= v < self.q_grp:
            raise DomainError(f"{what} must be an integer in [0, {self.q_grp})")
        return int(v)

    def hash(self, m, r) -> int:
        mi = self._scalar(m, "message")
        ri = self._scalar(r, "randomness")
        terms = ((self.g, mi, _GENERATOR_COMB), (self.y, ri, _KEY_COMB))
        return _multi_pow(terms, self.p, self.q_grp.bit_length())

    def trapdoor_hash(self, td: DLTrapdoor, m: int, r: int) -> int:
        """hash(m, r) with one exponentiation, as g^((m + x r) mod q): the
        same value because y = g^x and g has order q."""
        # the folded exponent reveals x together with (m, r): never keep it
        e = (m + td.x * r) % self.q_grp
        terms = ((self.g, e, _GENERATOR_COMB),)
        return _multi_pow(terms, self.p, self.q_grp.bit_length())

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
        x_inv = td.x_inv
        if x_inv is None:  # a trapdoor built by hand
            if td.x % self.q_grp == 0:
                raise DegenerateTrapdoorError("trapdoor exponent is zero")
            x_inv = pow(td.x, -1, self.q_grp)
        return ((m_t - mi) * x_inv + r_t) % self.q_grp

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
        _, fields = encoding.decode_record(blob, encoding.TAG_DL_TRAPDOOR)
        if len(fields) != 1:
            raise FormatError("trapdoor record needs exactly one field")
        x = encoding.decode_int(fields[0])
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
        _, fields = encoding.decode_record(blob, encoding.TAG_RANDOMNESS)
        if len(fields) != 1:
            raise FormatError("randomness record needs exactly one field")
        r = encoding.decode_int(fields[0])
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
    if r1 == r2:
        raise DegenerateTrapdoorError("collision with equal randomness")
    x = (m1 - m2) * pow(r2 - r1, -1, inst.q_grp) % inst.q_grp
    assert pow(inst.g, x, inst.p) == inst.y
    return x


def sis_collision_to_short_vector(inst: sis.SISInstance, pair1, pair2):
    """Maps a valid SIS collision to a short nonzero z with [A|B] z = 0 mod q."""
    verdict = check_collision(inst, pair1, pair2)
    if verdict is CollisionVerdict.TRIVIAL:
        raise TrivialCollisionError("equal pairs carry no short vector")
    if verdict is not CollisionVerdict.VALID:
        raise DomainError("not a valid collision")
    return inst.collision_vector(pair1, pair2)


# ---------------------------------------------------------------------------
# decoding an instance


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
        from . import sis  # numpy loads with the first SIS key
        return sis.decode_instance(fields)
    raise FormatError(
        f"not a chameleon instance record (tag {tag}, {len(fields)} fields)"
    )
