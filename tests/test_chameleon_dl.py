"""Discrete-log chameleon hash: worked values, inversion and key recovery.

The small instance is p = 23 = 2*11 + 1, g = 4 generating the order-11
subgroup {1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18}.
"""

import hashlib
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toosign import chameleon, encoding, merkle, transform
from toosign.chameleon import (
    ChameleonKind,
    CollisionVerdict,
    DLInstance,
    DLTrapdoor,
    RangeSample,
)
from toosign.errors import DomainError, FormatError
from toosign.oracle import production_oracle
from toosign.rng import Rng, rng_from_int

P, Q, G = 23, 11, 4
SUBGROUP = sorted(pow(G, i, P) for i in range(Q))


def fixed_instance():
    # x = 3, so y = 4^3 mod 23 = 18, and x^-1 = 4 mod 11
    return DLInstance(p=P, q_grp=Q, g=G, y=18), DLTrapdoor(x=3, x_inv=4)


def test_worked_example_values():
    inst, td = fixed_instance()
    assert inst.y == 18
    # h(2, 5) = 4^2 * 18^5 mod 23
    assert chameleon.ch_hash(inst, 2, 5) == 2
    # reopen the same point at m = 7: r = (2 - 7) * 3^{-1} + 5 mod 11
    sample = RangeSample(element=2, trace_message=2, trace_randomness=5)
    assert chameleon.ch_invert(inst, td, 7, sample) == 7
    assert chameleon.ch_hash(inst, 7, 7) == 2


def test_collision_recovers_trapdoor():
    inst, td = fixed_instance()
    pair1, pair2 = (2, 5), (7, 7)
    assert chameleon.check_collision(inst, pair1, pair2) is CollisionVerdict.VALID
    assert chameleon.dl_recover_trapdoor(inst, pair1, pair2) == 3


def test_equal_pairs_are_trivial():
    inst, _ = fixed_instance()
    assert chameleon.check_collision(inst, (2, 5), (2, 5)) is CollisionVerdict.TRIVIAL


def test_keygen_produces_working_trapdoor():
    inst, td = chameleon.hg(ChameleonKind.DL, {"name": "dl-demo"}, rng_from_int(7))
    assert pow(inst.g, td.x, inst.p) == inst.y
    assert 1 <= td.x < inst.q_grp


@given(st.integers(0, Q - 1), st.integers(0, Q - 1), st.integers(0, Q - 1))
def test_inversion_exhaustive_property(m_trace, r_trace, m_new):
    inst, td = fixed_instance()
    target = chameleon.ch_hash(inst, m_trace, r_trace)
    sample = RangeSample(element=target, trace_message=m_trace, trace_randomness=r_trace)
    r_new = chameleon.ch_invert(inst, td, m_new, sample)
    assert chameleon.ch_hash(inst, m_new, r_new) == target


def test_hash_lands_in_subgroup():
    inst, _ = fixed_instance()
    values = {chameleon.ch_hash(inst, m, r) for m in range(Q) for r in range(Q)}
    assert values == set(SUBGROUP)


def test_uniform_over_subgroup_for_every_message():
    """For each fixed m, r -> h(m, r) is a bijection onto the subgroup."""
    inst, _ = fixed_instance()
    for m in range(Q):
        images = [chameleon.ch_hash(inst, m, r) for r in range(Q)]
        assert sorted(images) == SUBGROUP


def test_domain_checks():
    inst, td = fixed_instance()
    with pytest.raises(DomainError):
        chameleon.ch_hash(inst, 11, 0)
    with pytest.raises(DomainError):
        chameleon.ch_hash(inst, 0, -1)


def test_rejects_bad_group_parameters():
    with pytest.raises(FormatError):  # p not prime
        chameleon.deserialize_instance(DLInstance(p=15, q_grp=7, g=2, y=4).serialize())
    with pytest.raises(FormatError):  # p != 2q+1
        chameleon.deserialize_instance(DLInstance(p=23, q_grp=7, g=4, y=18).serialize())


def test_numpy_integer_scalars_are_accepted():
    inst, td = fixed_instance()
    assert chameleon.ch_hash(inst, np.int64(2), np.uint8(5)) == 2
    sample = RangeSample(element=2, trace_message=np.int32(2), trace_randomness=np.int8(5))
    assert chameleon.ch_invert(inst, td, np.int64(7), sample) == 7
    with pytest.raises(DomainError):
        chameleon.ch_hash(inst, np.float64(2), 5)


@pytest.mark.parametrize(
    "m", [2, True, np.int64(2), np.uint8(2), np.array(2)],
    ids=["int", "bool", "int64", "uint8", "0-d int array"],
)
def test_integer_scalars_are_accepted_as_ints(m):
    """Anything with `__index__` is an integer: it hashes as that int does.
    A 0-d integer array has one too, though it is no `numbers.Integral`."""
    inst, _ = fixed_instance()
    assert chameleon.ch_hash(inst, m, 5) == chameleon.ch_hash(inst, int(m), 5)
    assert type(inst._scalar(m, "message")) is int


@pytest.mark.parametrize(
    "m", [2.0, np.float64(2), Fraction(2), Decimal(2), "2", np.bool_(True), np.array([2])],
    ids=["float", "float64", "Fraction", "Decimal", "str", "numpy bool", "1-d array"],
)
def test_non_integer_scalars_are_refused(m):
    """An integral value of a non-integer type is refused, as are strings."""
    inst, td = fixed_instance()
    with pytest.raises(DomainError, match="message must be an integer"):
        chameleon.ch_hash(inst, m, 5)
    with pytest.raises(DomainError, match="randomness must be an integer"):
        chameleon.ch_hash(inst, 2, m)
    sample = RangeSample(element=2, trace_message=m, trace_randomness=5)
    with pytest.raises(DomainError, match="trace message must be an integer"):
        chameleon.ch_invert(inst, td, 7, sample)


def test_large_group_round_trip():
    inst, td = chameleon.hg(ChameleonKind.DL, {"name": "dl-2048"}, rng_from_int(8))
    rng = rng_from_int(9)
    sample = chameleon.sample_range(inst, rng)
    m_new = chameleon.sample_message(inst, rng)
    r_new = chameleon.ch_invert(inst, td, m_new, sample)
    assert chameleon.ch_hash(inst, m_new, r_new) == sample.element


def test_instance_serialization_round_trip():
    inst, td = fixed_instance()
    inst2 = chameleon.deserialize_instance(inst.serialize())
    assert inst2 == inst
    td2 = inst2.deserialize_trapdoor(inst.serialize_trapdoor(td))
    assert td2.x == td.x


# ---------------------------------------------------------------------------
# fixed-base exponentiation on dl-2048

P2048, Q2048, G2048 = chameleon.DL_PARAM_SETS["dl-2048"]
BITS = Q2048.bit_length()  # 2047: the comb's last row is 3 bits short
LIMBS, ROWS = chameleon._COMB_LIMBS, chameleon._COMB_ROWS
COLUMNS = chameleon._comb_width(BITS)  # 41
LIMB_BITS = COLUMNS * ROWS  # 410
X2048 = 0x5EED << 1000
Y2048 = pow(G2048, X2048, P2048)
EXPONENTS = sorted(
    {0, 1, 2, Q2048 - 1, (1 << BITS) - 1, 1 << (BITS - 1)}
    # the limb boundaries, and the row boundaries of the 8-row layout before
    | {(1 << (LIMB_BITS * i)) + d for i in range(1, LIMBS) for d in (-1, 0, 1)}
    | {(1 << (-(-BITS // 8) * i)) + d for i in range(1, 8) for d in (-1, 0, 1)}
)
# every row boundary, and the limb boundaries
ROW_EXPONENTS = [
    (1 << (COLUMNS * i)) - d for i in range(ROWS * LIMBS) for d in (0, 1)
] + [(1 << (LIMB_BITS * i)) + d for i in range(1, LIMBS) for d in (-1, 0, 1)]


def pow_reference(pairs):
    out = 1
    for b, e in pairs:
        out = out * pow(b, e, P2048) % P2048
    return out


def multi_pow(pairs):
    return chameleon._multi_pow(pairs, P2048, BITS)


def cached(base):
    """The comb tables of base; None if it has none, evicted or never seen."""
    comb = chameleon._comb_cache.get((base, P2048, BITS))
    return comb and comb[0]


def shape(tables):
    return [len(table) for table in tables]


def test_multi_pow_uses_pow_first_then_a_table():
    chameleon._comb_cache.clear()
    pairs = ((G2048, Q2048 - 1), (Y2048, 1 << COLUMNS))
    assert multi_pow(pairs) == pow_reference(pairs)
    assert cached(G2048) is None and cached(Y2048) is None
    assert multi_pow(pairs) == pow_reference(pairs)
    assert shape(cached(G2048)) == [1 << ROWS] * LIMBS
    assert shape(cached(Y2048)) == [1 << ROWS] * LIMBS
    # a joint call may mix a base with a table and one seen for the first time
    z = pow(G2048, 12345, P2048)
    mixed = ((G2048, 5), (z, Q2048 - 2))
    assert multi_pow(mixed) == pow_reference(mixed)
    assert cached(z) is None


def test_committed_powers_of_the_generator():
    powers = chameleon._COMMITTED_POWERS[(G2048, P2048)]
    assert powers[1:] == chameleon._MODP_2048_G_POWERS
    for k, power in enumerate(powers):
        assert power == pow(2, 1 << (512 * k), P2048)


SPLIT = chameleon._SPLIT_BITS
SPLIT_EXPONENTS = sorted(
    {0, 1, 2, 0x5EED, (1 << (SPLIT - 1)) + 3, Q2048 - 1, (1 << BITS) - 1}
    | {(1 << (SPLIT * k)) + d for k in (1, 2, 3) for d in (-1, 0, 1)}
)


def count_builtin_pow(monkeypatch):
    """Shadows builtin pow in chameleon with a wrapper; returns its call list."""
    calls = []

    def counting(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(chameleon, "pow", counting, raising=False)
    return calls


def test_lone_generator_splits_over_its_committed_powers(monkeypatch):
    """A first use of g alone: one pass over its four 512-bit parts, no
    builtin pow, and no table."""
    splits = []
    split = chameleon._split
    monkeypatch.setattr(
        chameleon, "_split", lambda *args: splits.append(split(*args)) or splits[-1]
    )
    pows = count_builtin_pow(monkeypatch)
    powers = chameleon._COMMITTED_POWERS[(G2048, P2048)]
    for e in SPLIT_EXPONENTS:
        chameleon._comb_cache.clear()
        splits.clear()
        assert multi_pow(((G2048, e),)) == pow(G2048, e, P2048)
        assert cached(G2048) is None
        parts = [(power, e >> (SPLIT * k) & ((1 << SPLIT) - 1)) for k, power in enumerate(powers)]
        assert splits == [parts]
    assert pows == []


def test_dl_2048_keygen_cold_then_table_then_comb():
    chameleon._comb_cache.clear()
    for use in range(3):
        inst, td = chameleon.hg(ChameleonKind.DL, {"name": "dl-2048"}, rng_from_int(20 + use))
        assert inst.y == pow(inst.g, td.x, inst.p)
        assert (cached(G2048) is not None) == (use > 0)


def check_against_pow(e, f):
    ge, yf = pow(G2048, e, P2048), pow(Y2048, f, P2048)
    assert multi_pow(((G2048, e),)) == ge
    assert multi_pow(((G2048, e), (Y2048, f))) == ge * yf % P2048
    assert multi_pow(((Y2048, f), (G2048, e))) == ge * yf % P2048


def test_multi_pow_row_boundaries():
    for e in EXPONENTS:
        check_against_pow(e, (e * 7 + 3) % Q2048)
    multi_pow(((Y2048, 1),))  # the comb for y too
    for e in ROW_EXPONENTS:
        assert multi_pow(((Y2048, e),)) == pow(Y2048, e, P2048)


def test_generator_comb_row_and_limb_boundaries():
    chameleon._comb_cache.clear()
    for _ in range(2):
        multi_pow(((G2048, 1), (Y2048, 1)))
    assert cached(G2048) is not None and cached(Y2048) is not None
    for e in ROW_EXPONENTS:
        check_against_pow(e, (e * 7 + 3) % Q2048)


def test_every_table_entry_is_as_wide_as_p():
    """No entry, 0 included, is 1 or short enough to make its product
    cheaper: the column loop's cost does not depend on the index."""
    chameleon._comb_cache.clear()
    for _ in range(2):
        multi_pow(((G2048, 1), (Y2048, 1)))
    for base in (G2048, Y2048):
        tables, correction = chameleon._comb_cache[(base, P2048, BITS)]
        assert shape(tables) == [1 << ROWS] * LIMBS
        widths = [v.bit_length() for table in tables for v in table]
        assert min(widths) >= P2048.bit_length() - 64
        # entry 0 is c, the row power after the last, which the correction cancels
        c = pow(base, 1 << (COLUMNS * LIMBS * ROWS), P2048)
        assert all(table[0] == c for table in tables)
        assert pow(c, LIMBS * ((1 << COLUMNS) - 1), P2048) * correction % P2048 == 1


def test_dl_hash_matches_pow_before_and_after_the_tables():
    """First use: no table; second use: builds it; then the comb."""
    x = X2048 % Q2048
    inst, td = DLInstance(P2048, Q2048, G2048, Y2048), DLTrapdoor(x, pow(x, -1, Q2048))

    def folded(m, r):
        return inst.trapdoor_hash(td, m, r)

    for hash_, bases in ((inst.hash, (G2048, Y2048)), (folded, (G2048,))):
        chameleon._comb_cache.clear()
        for use, (m, r) in enumerate([(Q2048 - 1, 1 << (BITS - 1)), (5, Q2048 - 2), (2, 3)]):
            assert hash_(m, r) == pow_reference(((G2048, m), (Y2048, r)))
            assert all((cached(b) is not None) == (use > 0) for b in bases)
    assert list(chameleon._comb_cache) == [(G2048, P2048, BITS)]


def test_one_base_in_both_roles_gets_one_entry():
    inst = DLInstance(P2048, Q2048, G2048, G2048)  # y = g
    chameleon._comb_cache.clear()
    for m, r in [(Q2048 - 1, 7), (3, Q2048 - 5), (1 << 1000, 1 << 2000)]:
        assert inst.hash(m, r) == pow(G2048, m + r, P2048)
    assert shape(cached(G2048)) == [1 << ROWS] * LIMBS
    assert len(chameleon._comb_cache) == 1


def test_comb_footprint_after_two_signs_and_verifies():
    """A larger comb fails here before it shows in the benchmark's peak RSS.
    Five limbs of 1024 products, about 1.58 MB per base, raised dl-2048's
    peak_rss_mb by 1.24 MB over three limbs (median of 10 runs)."""
    chameleon._comb_cache.clear()
    kp = transform.g_prime(
        merkle.merkle_descriptor(2), ChameleonKind.DL, {"name": "dl-2048"}, rng_from_int(6)
    )
    ro, pk = production_oracle(kp.ch_inst), transform.public_key_of(kp)
    for i in range(2):
        sig, kp = transform.s_prime(kp, b"message %d" % i, ro, rng_from_int(30 + i))
        assert transform.v_prime(pk, b"message %d" % i, sig, ro)
    entries = sum(len(t) for comb in chameleon._comb_cache.values() if comb for t in comb[0])
    assert entries == 2 * 5 * 1024


def fresh_bases(count):
    chameleon._comb_cache.clear()
    return [pow(G2048, 7 + i, P2048) for i in range(count)]


@pytest.mark.parametrize("count", [2, 3])
def test_joint_first_use_pass(count, monkeypatch):
    """Bases seen for the first time share one window pass with no builtin
    pow, and tables come on their second use if the cache holds them all;
    more bases than that evict each other and take the window pass on every
    call."""
    pows = count_builtin_pow(monkeypatch)
    for e in EXPONENTS[: 4 * count : 2] + [Q2048 - 1 - i for i in range(5)]:
        pairs = [(b, e) for b in fresh_bases(count)]
        assert multi_pow(pairs) == pow_reference(pairs)
    bases = fresh_bases(count)
    pairs = [(b, (Q2048 - 1) // (i + 2)) for i, b in enumerate(bases)]
    assert multi_pow(pairs) == pow_reference(pairs)
    assert all(cached(b) is None for b in bases)
    assert pows == []
    assert multi_pow(pairs) == pow_reference(pairs)
    if count <= chameleon._COMB_CACHE_SIZE:
        assert all(cached(b) is not None for b in bases)
    else:
        assert all(cached(b) is None for b in bases)
        assert pows == []


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, (1 << BITS) - 1), min_size=2, max_size=3))
def test_joint_pass_matches_pow_property(exponents):
    pairs = list(zip(fresh_bases(len(exponents)), exponents))
    assert multi_pow(pairs) == pow_reference(pairs)


def test_mixed_call_with_and_without_tables(monkeypatch):
    chameleon._comb_cache.clear()
    g_only = ((G2048, 3),)
    multi_pow(g_only)
    multi_pow(g_only)
    assert cached(G2048) is not None
    z1, z2 = pow(G2048, 99, P2048), pow(G2048, 101, P2048)
    pairs = ((z1, Q2048 - 3), (G2048, Q2048 - 5), (z2, 1 << (BITS - 1)))
    assert multi_pow(pairs) == pow_reference(pairs)
    assert cached(z1) is None and cached(z2) is None
    # a table and one first-use base without committed powers share one pass
    z3 = pow(G2048, 103, P2048)
    pairs = ((G2048, Q2048 - 7), (z3, Q2048 - 11))
    pows = count_builtin_pow(monkeypatch)
    assert multi_pow(pairs) == pow_reference(pairs)
    assert cached(z3) is None and pows == []


class CountedEntry(int):
    """A comb entry that counts the products it is the right operand of."""

    products = 0

    def __rmul__(self, other):
        CountedEntry.products += 1
        return other * int(self)


def test_warm_comb_products_do_not_depend_on_the_exponent():
    """One product per limb per column, whatever the exponent's digits."""
    chameleon._comb_cache.clear()
    for _ in range(2):
        multi_pow(((G2048, 1), (Y2048, 1)))
    for base in (G2048, Y2048):
        tables, correction = chameleon._comb_cache[(base, P2048, BITS)]
        counted = [[CountedEntry(v) for v in table] for table in tables]
        chameleon._comb_cache[(base, P2048, BITS)] = counted, correction
    for e in (0, 1, Q2048 - 1, 1 << 2046, rng_from_int(25).randbelow(Q2048)):
        f = (e * 7 + 3) % Q2048
        for pairs, tabled in ((((G2048, e),), 1), (((G2048, e), (Y2048, f)), 2)):
            CountedEntry.products = 0
            assert multi_pow(pairs) == pow_reference(pairs)
            assert CountedEntry.products == tabled * COLUMNS * LIMBS
    chameleon._comb_cache.clear()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, (1 << BITS) - 1), st.integers(0, Q2048 - 1))
def test_multi_pow_matches_pow_property(e, f):
    check_against_pow(e, f)


def test_comb_cache_stays_bounded():
    chameleon._comb_cache.clear()
    bases = [pow(G2048, 1000 + i, P2048) for i in range(chameleon._COMB_CACHE_SIZE + 3)]
    for b in bases:
        for _ in range(2):
            assert multi_pow(((b, Q2048 - 2),)) == pow(b, Q2048 - 2, P2048)
    assert list(chameleon._comb_cache) == [
        (b, P2048, BITS) for b in bases[-chameleon._COMB_CACHE_SIZE :]
    ]
    # short exponents never build a table
    inst, _ = fixed_instance()
    chameleon.ch_hash(inst, 3, 4)
    chameleon.ch_hash(inst, 3, 4)
    assert len(chameleon._comb_cache) == chameleon._COMB_CACHE_SIZE
    assert all(key[1] == P2048 for key in chameleon._comb_cache)


def test_dl_demo_never_enters_the_cache():
    chameleon._comb_cache.clear()
    inst, td = chameleon.hg(ChameleonKind.DL, {"name": "dl-demo"}, rng_from_int(3))
    rng = rng_from_int(4)
    for _ in range(5):
        sample = chameleon.sample_range(inst, rng, td)
        r = chameleon.ch_invert(inst, td, 5, sample)
        assert chameleon.ch_hash(inst, 5, r) == sample.element
    assert not chameleon._comb_cache


def test_trapdoor_inverse_once_per_trapdoor(monkeypatch):
    """x^-1 mod q is computed when the trapdoor is made or decoded, never
    per signature."""
    inverses = []

    def spy(b, e, m=None):
        if e == -1:
            inverses.append(b)
        return pow(b, e) if m is None else pow(b, e, m)

    monkeypatch.setattr(chameleon, "pow", spy, raising=False)
    descriptor = merkle.merkle_descriptor(3)
    kp = transform.g_prime(descriptor, ChameleonKind.DL, {"name": "dl-2048"}, rng_from_int(5))
    assert inverses == [kp.ch_td.x]
    kp = transform.keypair_from_secret(kp.secret_bytes(), kp.public_bytes())
    assert inverses == [kp.ch_td.x] * 2
    ro = production_oracle(kp.ch_inst)
    pk = transform.public_key_of(kp)
    for i in range(5):
        sig, kp = transform.s_prime(kp, b"message %d" % i, ro, rng_from_int(10 + i))
        assert transform.v_prime(pk, b"message %d" % i, sig, ro)
    assert inverses == [kp.ch_td.x] * 2


@pytest.mark.parametrize("name, seeds", [("dl-demo", 40), ("dl-2048", 4)])
def test_sample_range_with_trapdoor_matches_without(name, seeds):
    inst, td = chameleon.hg(ChameleonKind.DL, {"name": name}, rng_from_int(8))
    for seed in range(seeds):
        plain_rng, folded_rng = rng_from_int(seed), rng_from_int(seed)
        plain = chameleon.sample_range(inst, plain_rng)
        folded = chameleon.sample_range(inst, folded_rng, td)
        assert folded == plain
        assert folded_rng.counter == plain_rng.counter
        assert folded_rng.random_bytes(40) == plain_rng.random_bytes(40)


# ---------------------------------------------------------------------------
# group checks: the named sets are the only groups, and they are proven here


def miller_rabin(n: int) -> bool:
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
    for _ in range(16):
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


@pytest.mark.parametrize("name", sorted(chameleon.DL_PARAM_SETS))
def test_named_groups_pass_the_full_checks(name):
    p, q, g = chameleon.DL_PARAM_SETS[name]
    assert miller_rabin(p) and miller_rabin(q)
    assert p == 2 * q + 1
    assert 1 < g < p and pow(g, q, p) == 1


def test_unnamed_groups_are_refused():
    for name in chameleon.DL_PARAM_SETS:
        chameleon.hg(ChameleonKind.DL, {"name": name}, rng_from_int(0))
    with pytest.raises(DomainError):
        chameleon.hg(ChameleonKind.DL, {"name": "dl-1024"}, rng_from_int(0))
    for p, q, g in [
        (47, 23, 2),  # a valid safe-prime group, but not a named one
        (23, 11, 5),  # 5 is a non-residue mod 23: its order is 22
        (19, 9, 4),  # 4 has order 9 mod 19, but 9 is not prime
        (P2048 + 2, Q2048 + 1, G2048),
        (P2048, Q2048 - 1, G2048),
        (P2048, Q2048, P2048 - 1),  # order 2
    ]:
        # key generation takes only names: decoding is where a group comes in
        with pytest.raises(FormatError):
            chameleon.deserialize_instance(DLInstance(p, q, g, 4).serialize())


def test_decoding_checks_the_group_and_y():
    good = [
        DLInstance(P, Q, G, 18),
        DLInstance(P2048, Q2048, G2048, 4),
    ]
    for inst in good:
        assert chameleon.deserialize_instance(inst.serialize()) == inst
    bad = [
        DLInstance(47, 23, 2, 4),  # a valid group, but not a named one
        DLInstance(P, 10, G, 18),  # p != 2q + 1
        DLInstance(P, Q, 5, 18),  # g outside the subgroup
        DLInstance(19, 9, 4, 5),  # q not prime
        DLInstance(P, Q, G, 0),
        DLInstance(P, Q, G, 1),
        DLInstance(P, Q, G, 5),  # a non-residue
        DLInstance(P, Q, G, P - 1),
        DLInstance(P, Q, G, P + 18),
        DLInstance(P2048, Q2048, G2048, P2048 - 1),
    ]
    for inst in bad:
        with pytest.raises(FormatError):
            chameleon.deserialize_instance(inst.serialize())
    # checking a 16384-bit group in full took seconds: one pow of g alone
    p = (1 << 16383) | 0x5EED0001
    blob = DLInstance(p, (p - 1) // 2, 2, 4).serialize()
    start = time.perf_counter()
    with pytest.raises(FormatError):
        chameleon.deserialize_instance(blob)
    assert time.perf_counter() - start < 1.0
