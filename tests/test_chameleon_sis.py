"""Lattice chameleon hash: gadget trapdoor, preimage sampling, collisions."""

import hashlib
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from toosign import chameleon, encoding, sis
from toosign.chameleon import ChameleonKind, CollisionVerdict
from toosign.errors import DomainError, FormatError
from toosign.gaussian import DiscreteGaussian
from toosign.rng import rng_from_int
from toosign.sis import (
    derive_params,
    gadget_decompose,
    gadget_matrix,
    sample_trapdoor,
    trapdoor_relation_holds,
)

DESK = {"n": 4, "q": 257, "m": 12, "k": 8}
TINY = {"n": 2, "q": 7, "m": 8, "k": 2}


def make_instance(params=DESK, seed=0):
    return chameleon.hg(ChameleonKind.SIS, params, rng_from_int(seed))


def test_derive_params_desk():
    p = derive_params(**DESK)
    # 8 gadget columns split into t = 2 base-17 digits per coordinate
    assert (p.t, p.b, p.w, p.m_bar) == (2, 17, 8, 4)
    assert p.b**p.t >= p.q


def test_derive_params_tiny():
    p = derive_params(**TINY)
    assert (p.t, p.b) == (3, 2)


def test_gadget_base_for_one_digit_is_q():
    # one digit per coordinate: the base is q itself, found without a q-step scan
    assert derive_params(n=1, q=2**40, m=2, k=1).b == 2**40


@pytest.mark.parametrize(
    "width", [b"inf", b"nan", b"-1.0", b"0", b"\xff", b"514.0", b"642.50"]
)
def test_bad_gaussian_width_raises_format_error(width):
    inst, _ = make_instance()
    tag, fields = encoding.decode_record(inst.serialize())
    fields[4] = width
    with pytest.raises(FormatError):
        chameleon.deserialize_instance(encoding.encode_record(tag, fields))


UNNAMED_SETS = {
    # id: (n, q, m, k) of an SIS instance record that no named set has
    "q-below-2": (1, 1, 2, 1),
    "q-beyond-int64": (1, 2**64, 2, 1),
    "q-of-1100-bits": (1, 2**1100, 2, 1),  # 2.5 q overflows a float
    "k-off-by-one": (4, 257, 12, 9),
    "tiny-test-set": tuple(TINY.values()),
    "k-32-test-set": (4, 257, 12, 32),
}


@pytest.mark.parametrize("dims", UNNAMED_SETS.values(), ids=UNNAMED_SETS.keys())
def test_unnamed_sets_are_refused_on_decoding(dims):
    """A record whose (n, q, m, k) is not a named set is refused before its
    width or matrices are read."""
    inst, _ = make_instance()
    tag, fields = encoding.decode_record(inst.serialize())
    fields[:4] = [encoding.encode_int(v) for v in dims]
    with pytest.raises(FormatError, match="not a named lattice set"):
        chameleon.deserialize_instance(encoding.encode_record(tag, fields))


def test_hg_refuses_unnamed_sets():
    with pytest.raises(DomainError):
        make_instance(dict(DESK, k=9))
    assert chameleon.SIS_PARAM_SETS == {"sis-desk": tuple(DESK.values())}


@pytest.mark.parametrize(
    "kind, params, message",
    [
        (ChameleonKind.SIS, {"name": "sis-desk"}, "unnamed SIS"),
        (ChameleonKind.DL, {}, "unknown DL group"),
        (ChameleonKind.SIS, {"n": 4, "q": 257, "m": 12}, "unnamed SIS"),
        (ChameleonKind.DL, {"name": []}, "unknown DL group"),
        (ChameleonKind.DL, [("name", "dl-2048")], "must be a dict"),
        ("dl", {"name": "dl-2048"}, "unknown chameleon kind"),
        (ChameleonKind.SIS, {"n": 4, "q": 257.0, "m": 12, "k": 8}, "unnamed SIS"),
    ],
    ids=["sis-by-name", "dl-without-name", "sis-without-k", "unhashable-name",
         "params-not-a-dict", "kind-not-a-kind", "sis-float-dims"],
)
def test_hg_refuses_params_it_does_not_take(kind, params, message):
    """A missing key, a value of the wrong type or a kind that is not a
    ChameleonKind is a DomainError that names what is wrong, not a KeyError,
    TypeError or AttributeError."""
    with pytest.raises(DomainError, match=message):
        chameleon.hg(kind, params, rng_from_int(0))


@pytest.mark.parametrize("field, entry", [(5, 0), (6, 11)], ids=["A", "B"])
def test_matrix_entry_of_q_or_more_is_refused(field, entry):
    """Each matrix has one encoding: an entry plus q is not the same entry."""
    inst, _ = make_instance()
    tag, fields = encoding.decode_record(inst.serialize())
    blob = bytearray(fields[field])
    value = int.from_bytes(blob[2 * entry : 2 * entry + 2], "big") + inst.params.q
    blob[2 * entry : 2 * entry + 2] = value.to_bytes(2, "big")
    fields[field] = bytes(blob)
    with pytest.raises(FormatError, match="outside"):
        chameleon.deserialize_instance(encoding.encode_record(tag, fields))


def test_randomness_that_does_not_fit_its_width_is_refused():
    """Packing never wraps: sis-desk randomness has 2-byte entries."""
    inst, _ = make_instance()
    r = np.zeros(inst.params.m, dtype=np.int64)
    r[0] = 2**15
    with pytest.raises(FormatError):
        inst.serialize_randomness(r)
    r[0] = -(2**15)
    assert inst.deserialize_randomness(inst.serialize_randomness(r))[0] == -(2**15)


def _with_first_entry(v, entry):
    return [entry, *v[1:]]


@pytest.mark.parametrize(
    "one", [1, True, np.int64(1), np.uint8(1)], ids=["int", "bool", "int64", "uint8"]
)
def test_integer_entries_are_accepted_as_ints(one):
    """An entry with `__index__` is an integer: a message, randomness or
    range value holding it hashes and inverts as one holding the int does."""
    inst, td = make_instance()
    sample = chameleon.sample_range(inst, rng_from_int(12))
    m, r = sample.trace_message, sample.trace_randomness
    assert chameleon.ch_hash(inst, _with_first_entry(m, one), r) == chameleon.ch_hash(
        inst, _with_first_entry(m, 1), r
    )
    assert chameleon.ch_hash(inst, m, _with_first_entry(r, one)) == chameleon.ch_hash(
        inst, m, _with_first_entry(r, 1)
    )
    inverted = [
        chameleon.ch_invert(inst, td, m, sample._replace(element=_with_first_entry(
            sample.element, entry)), rng_from_int(13))
        for entry in (one, 1)
    ]
    assert inverted[0] == inverted[1]


@pytest.mark.parametrize(
    "one", [1.0, np.float64(1), Fraction(1), Decimal(1), "1", np.bool_(True)],
    ids=["float", "float64", "Fraction", "Decimal", "str", "numpy bool"],
)
def test_non_integer_entries_are_refused(one):
    """An integral entry of a non-integer type is refused, as are strings:
    a float entry is not rounded into a bit or an integer."""
    inst, td = make_instance()
    sample = chameleon.sample_range(inst, rng_from_int(12))
    m, r = sample.trace_message, sample.trace_randomness
    with pytest.raises(DomainError, match="message must be an integer"):
        chameleon.ch_hash(inst, _with_first_entry(m, one), r)
    with pytest.raises(DomainError, match="randomness must be an integer"):
        chameleon.ch_hash(inst, m, _with_first_entry(r, one))
    target = sample._replace(element=_with_first_entry(sample.element, one))
    with pytest.raises(DomainError, match="range value must be an integer"):
        chameleon.ch_invert(inst, td, m, target, rng_from_int(13))


def test_codecs_take_any_entry_width():
    """q = 2^20 needs 3-byte matrix entries and 4-byte randomness entries.
    No sample is drawn: a sampler at s = 2.5 * 2^20 would tabulate 63 M
    weights."""
    inst, td = sis.hg_sis(2, 2**20, 44, 2, rng_from_int(13))
    _, fields = encoding.decode_record(inst.serialize(), encoding.TAG_SIS_INSTANCE)
    assert len(fields[5]) == 3 * 2 * 2
    assert sis.decode_instance(2, 2**20, 44, 2, fields[4:]) == inst
    assert inst.deserialize_trapdoor(inst.serialize_trapdoor(td)) == td
    zeros = (0,) * 44
    blob = inst.serialize_randomness(zeros)
    assert len(encoding.decode_record(blob)[1][0]) == 4 * 44
    assert inst.deserialize_randomness(blob) == zeros
    for entry in (2**31, -(2**31) - 1):
        with pytest.raises(FormatError):
            inst.serialize_randomness(_with_first_entry(zeros, entry))


def test_too_small_m_rejected():
    with pytest.raises(DomainError):
        derive_params(n=4, q=257, m=7, k=8)


def test_gadget_decompose_reconstructs():
    p = derive_params(**DESK)
    G = np.asarray(gadget_matrix(p))
    rng = rng_from_int(1)
    for _ in range(50):
        v = np.array([rng.randbelow(p.q) for _ in range(p.n)], dtype=np.int64)
        z = np.asarray(gadget_decompose(p, v))
        assert np.all(z >= 0) and np.all(z < p.b)
        assert np.array_equal((G @ z) % p.q, v % p.q)


def test_trapdoor_relation():
    p = derive_params(**DESK)
    B, R = sample_trapdoor(p, rng_from_int(2))
    assert trapdoor_relation_holds(p, B, R)
    assert set(np.unique(R)) <= {-1, 1}


def test_hash_inversion_round_trip():
    inst, td = make_instance()
    rng = rng_from_int(3)
    for _ in range(25):
        sample = chameleon.sample_range(inst, rng)
        m_new = chameleon.sample_message(inst, rng)
        r_new = chameleon.ch_invert(inst, td, m_new, sample, rng)
        assert np.array_equal(chameleon.ch_hash(inst, m_new, r_new), sample.element)
        assert inst.params.is_short(r_new)


def test_hash_refuses_randomness_beyond_the_norm_bound():
    """r + 10q e_1 hashes like r mod q, but is no longer short."""
    inst, td = make_instance()
    rng = rng_from_int(4)
    sample = chameleon.sample_range(inst, rng)
    m, r = sample.trace_message, np.array(sample.trace_randomness)
    r[0] += 10 * inst.params.q if r[0] >= 0 else -10 * inst.params.q
    assert not inst.params.is_short(r)
    with pytest.raises(DomainError):
        chameleon.ch_hash(inst, m, r)


def _vector_of_squared_norm(total: int, length: int) -> np.ndarray:
    """A greedy integer vector r with r @ r == total."""
    entries = []
    while total:
        entries.append(math.isqrt(total))
        total -= entries[-1] ** 2
    assert len(entries) <= length
    return np.array(entries + [0] * (length - len(entries)), dtype=np.int64)


def test_is_short_is_exact_at_the_bound():
    """||r||^2 = floor(s^2 m) is short and one more is not, as by the float norm."""
    p = derive_params(**DESK)
    assert p.norm_bound_sq == math.floor(p.s**2 * p.m)
    for total, short in [(p.norm_bound_sq, True), (p.norm_bound_sq + 1, False)]:
        r = _vector_of_squared_norm(total, p.m)
        assert p.is_short(r) is short
        assert bool(np.linalg.norm(r) <= p.s * math.sqrt(p.m)) is short


def test_inversion_needs_rng():
    inst, td = make_instance()
    sample = chameleon.sample_range(inst, rng_from_int(4))
    m_new = chameleon.sample_message(inst, rng_from_int(5))
    with pytest.raises(DomainError):
        chameleon.ch_invert(inst, td, m_new, sample)


def test_collision_yields_short_kernel_vector():
    inst, td = make_instance()
    p = inst.params
    rng = rng_from_int(6)
    sample = chameleon.sample_range(inst, rng)
    m2 = chameleon.sample_message(inst, rng)
    r2 = chameleon.ch_invert(inst, td, m2, sample, rng)
    pair1 = (sample.trace_message, sample.trace_randomness)
    pair2 = (m2, r2)
    assert chameleon.check_collision(inst, pair1, pair2) is CollisionVerdict.VALID
    z = chameleon.sis_collision_to_short_vector(inst, pair1, pair2)
    assert np.any(np.asarray(z) != 0)
    AB = np.concatenate([inst.A, inst.B], axis=1)
    assert np.all((AB @ z) % p.q == 0)
    assert float(np.linalg.norm(z)) <= np.sqrt(p.k) + 2 * p.s * np.sqrt(p.m)


@pytest.mark.parametrize("family", ["dl-demo", "sis-desk"])
@pytest.mark.parametrize(
    "verdict", [CollisionVerdict.TRIVIAL, CollisionVerdict.NOT_COLLISION]
)
def test_extractors_refuse_every_pair_that_is_not_a_valid_collision(family, verdict):
    """Both families' extractors refuse a trivial pair and a non-collision alike."""
    if family == "dl-demo":
        inst, _ = chameleon.hg(ChameleonKind.DL, {"name": "dl-demo"}, rng_from_int(9))
        extract, other = chameleon.dl_recover_trapdoor, lambda m: (m + 1) % inst.q_grp
    else:
        inst, _ = make_instance(seed=9)
        extract, other = chameleon.sis_collision_to_short_vector, lambda m: 1 - np.asarray(m)
    rng = rng_from_int(10)
    m, r = chameleon.sample_message(inst, rng), chameleon.sample_randomness(inst, rng)
    pair2 = (m, r) if verdict is CollisionVerdict.TRIVIAL else (other(m), r)
    assert chameleon.check_collision(inst, (m, r), pair2) is verdict
    with pytest.raises(DomainError):
        extract(inst, (m, r), pair2)


def test_serialization_round_trips():
    inst, td = make_instance(seed=8)
    inst2 = chameleon.deserialize_instance(inst.serialize())
    assert np.array_equal(inst2.A, inst.A) and np.array_equal(inst2.B, inst.B)
    td2 = inst2.deserialize_trapdoor(inst.serialize_trapdoor(td))
    assert np.array_equal(td2.R, td.R)
    rng = rng_from_int(9)
    r = chameleon.sample_randomness(inst, rng)
    r2 = inst.deserialize_randomness(inst.serialize_randomness(r))
    assert np.array_equal(r2, r)


def test_gaussian_moments():
    g = DiscreteGaussian(8.0)
    xs = np.asarray(g.sample_vector(rng_from_int(10), 20000), dtype=float)
    # D_{Z,s} with rho(x) = exp(-pi x^2 / s^2) has variance close to s^2/(2 pi)
    assert abs(xs.mean()) < 0.2
    assert abs(xs.std() - 8.0 / np.sqrt(2 * np.pi)) < 0.15


def test_gaussian_symmetry():
    g = DiscreteGaussian(4.0)
    xs = np.asarray(g.sample_vector(rng_from_int(11), 20000))
    pos, neg = int((xs > 0).sum()), int((xs < 0).sum())
    assert abs(pos - neg) < 600


# width -> sha256 prefix of 100 000 draws: sis-desk's s and s/2, then TINY's
GAUSSIAN_STREAMS = {
    642.5: "73f6a1fa21d81081",
    321.25: "80453222f09fc395",
    17.5: "cff2b76bc920e0dd",
    8.75: "181fbf4fba960a41",
}
# sha256 prefixes of a seeded TINY instance, trapdoor, range sample (element,
# message, randomness) and an inversion (message, randomness), serialized
TINY_RECORDS = (
    "1d659d4834149486", "74e1f68a09bdee8b", "d38b648195e083c4", "47dc540c94ceb704",
    "a5558e347f16c343", "9dcf97a184f32623", "9c75cd0e218a8ee4",
)


def test_gaussian_streams_are_pinned():
    """The samplers draw the same integers from the same seed, and a TINY key,
    range sample and inversion keep their bytes."""
    for s, pin in GAUSSIAN_STREAMS.items():
        xs = DiscreteGaussian(s).sample_vector(rng_from_int(0), 100_000)
        assert hashlib.sha256(str([int(x) for x in xs]).encode()).hexdigest()[:16] == pin, s
    inst, td = sis.hg_sis(*TINY.values(), rng_from_int(1))
    rng = rng_from_int(2)
    sample = chameleon.sample_range(inst, rng, td)
    m = inst.sample_message(rng)
    r = inst.invert(td, m, sample, rng)
    blobs = (
        inst.serialize(), inst.serialize_trapdoor(td), inst.serialize_element(sample.element),
        inst.serialize_message(sample.trace_message),
        inst.serialize_randomness(sample.trace_randomness),
        inst.serialize_message(m), inst.serialize_randomness(r),
    )
    assert tuple(hashlib.sha256(b).hexdigest()[:16] for b in blobs) == TINY_RECORDS
