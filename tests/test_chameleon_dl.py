"""Discrete-log chameleon hash: worked values, inversion and key recovery.

The small instance is p = 23 = 2*11 + 1, g = 4 generating the order-11
subgroup {1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18}.
"""

import builtins
import functools
import hashlib
import math
import sys
import threading
import time
import tracemalloc
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
# exponentiation on dl-2048: _pow's three paths, builtin pow where no
# libcrypto loads, one libcrypto call on one core and two halves on two
# threads on more; test_dl_pow_on_every_path runs the vectors below on each
# path and the property random exponents

P2048, Q2048, G2048 = chameleon.DL_PARAM_SETS["dl-2048"]
BITS = Q2048.bit_length()  # 2047
X2048 = 0x5EED << 1000
Y2048 = pow(G2048, X2048, P2048)
G2048_K = pow(G2048, 1 << 1024, P2048)  # the base of the high halves on g
# the ends of [0, q) and of the padded [q, 2q) that _secret_pow passes, and
# 2^2046 and 2^2047 - 1, the least and the greatest of 2047 bits
SPECIAL = [0, 1, 2, Q2048 - 1, Q2048, 2 * Q2048 - 1, 1 << (BITS - 1), (1 << BITS) - 1]
# 2^(8k) - 1 and 2^(8k) + 1: the exponent's byte length steps at each, and
# every eighth k is a 64-bit word edge
BYTE_EDGES = [(1 << (8 * k)) + d for k in range(1, 256) for d in (-1, 1)]
# the cut of a split exponentiation, K = 1024, and its two neighbours
CUT = [(1 << 1024) - 1, 1 << 1024, (1 << 1024) + 1]


def words_of(e):
    """The 64-bit words of e as libcrypto's BIGNUM holds it."""
    return (e.bit_length() + 63) // 64


def pow_reference(pairs):
    out = 1
    for b, e in pairs:
        out = out * pow(b, e, P2048) % P2048
    return out


def dl_pow(pairs):
    return chameleon._pow(pairs, P2048)


def libcrypto():
    """The loaded binding; the test is skipped where none loads."""
    dl_pow(((G2048, 1),))
    if not chameleon._libcrypto:
        pytest.skip("no libcrypto")
    return chameleon._libcrypto


def spy_on(monkeypatch, owner, name):
    """Wraps owner.name with a recorder; returns the list of its calls' args."""
    calls, original = [], getattr(owner, name, None) or getattr(builtins, name)

    def record(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, record, raising=False)
    return calls


def spy_on_exp(monkeypatch):
    """The calls of the binding's one-base and two-base exponentiations."""
    lib = libcrypto()
    return (spy_on(monkeypatch, lib, "BN_mod_exp_mont_consttime"),
            spy_on(monkeypatch, lib, "BN_mod_exp2_mont"))


def cores(monkeypatch, n):
    """Makes n cores usable, as chameleon and merkle read them."""
    monkeypatch.setattr(chameleon.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def forget_high_bases():
    """Empties the cache of b^(2^K) values."""
    chameleon._high_base.cache_clear()


def spy_on_raising(monkeypatch):
    """The bases that _bn_multi_pow raises to 2^1024, each with the thread
    that called it."""
    raised, original = [], chameleon._bn_multi_pow

    def record(lib, terms, p):
        if len(terms) == 2 and terms[0][1] == 1 << 1024 and terms[1] == (terms[0][0], 0):
            raised.append((terms[0][0], threading.current_thread()))
        return original(lib, terms, p)

    monkeypatch.setattr(chameleon, "_bn_multi_pow", record)
    return raised


def test_dl_2048_keygen_and_decoding_each_make_two_constant_time_calls(monkeypatch):
    """On two cores every key generation computes y = g^(x + q) = g^x as two
    constant-time one-base calls, the halves, and so does every decoding of
    its secret key: g^(2^1024) is committed, so nothing is computed first."""
    cores(monkeypatch, 2)
    one, two = spy_on_exp(monkeypatch)
    for use in range(3):
        inst, td = chameleon.hg(ChameleonKind.DL, {"name": "dl-2048"}, rng_from_int(20 + use))
        assert inst.y == pow(inst.g, td.x, inst.p)
        assert inst.deserialize_trapdoor(inst.serialize_trapdoor(td)) == td
        assert (len(one), len(two)) == (4 * use + 4, 0)


def test_committed_g_raised_to_2_1024(monkeypatch):
    """dl-2048's g^(2^1024) is the committed constant and is never computed."""
    forget_high_bases()
    bn = spy_on(monkeypatch, chameleon, "_bn_multi_pow")
    assert chameleon._high_base(G2048, P2048) == G2048_K
    assert bn == []


SHAPES = ("g", "g, y", "y, g")
# the paths of _pow, each with the shapes it is run in: builtin pow raises
# each base alone, so it takes the bases in one order
SHAPES_ON = {"builtin": SHAPES[:2], "one call": SHAPES, "split": SHAPES}


def on_path(monkeypatch, path):
    """Sends each exponentiation mod a large p down one path of _pow:
    builtin pow with no libcrypto, one libcrypto call on one core, or the
    split on two."""
    if path == "builtin":
        monkeypatch.setattr(chameleon, "_libcrypto", False)
    else:
        libcrypto()
        cores(monkeypatch, 1 if path == "one call" else 2)


def shaped(shape, g, y):
    """The (base, exponent) terms of a shape: g alone, or g and y in the
    order it names."""
    return {"g": (g,), "g, y": (g, y), "y, g": (y, g)}[shape]


def check_against(e, f, ge, yf, shapes):
    """g^e, and g^e y^f in the orders that shapes names, given ge = g^e and
    yf = y^f."""
    for shape in shapes:
        want = ge if shape == "g" else ge * yf % P2048
        assert dl_pow(shaped(shape, (G2048, e), (Y2048, f))) == want


@functools.cache
def powers_at_byte_edges(base):
    """{e: base^e mod p} over BYTE_EDGES, from one chain of squarings, and
    over SPECIAL and CUT, by builtin pow."""
    inverse, square, out = pow(base, -1, P2048), base, {}
    for k in range(1, 256):
        for _ in range(8):
            square = square * square % P2048
        out[(1 << (8 * k)) - 1] = square * inverse % P2048
        out[(1 << (8 * k)) + 1] = square * base % P2048
    return out | {e: pow(base, e, P2048) for e in SPECIAL + CUT}


def check_vectors(edges, shapes):
    """The special values, each exponent of g met by another of y; each edge
    e, y raised to the edge f of the other sign; and the cut: all against
    powers computed without _pow."""
    g, y = powers_at_byte_edges(G2048), powers_at_byte_edges(Y2048)
    swapped_edges = [(e, e + 2 if e & 2 else e - 2) for e in edges]  # 2^(8k) -+ 1
    for e, f in [*zip(SPECIAL, reversed(SPECIAL)), *swapped_edges, *zip(CUT, reversed(CUT))]:
        check_against(e, f, g[e], y[f], shapes)


@pytest.mark.parametrize("path, shape", [
    (path, shape) for path, shapes in SHAPES_ON.items() for shape in shapes
])
def test_dl_pow_on_every_path(path, shape, monkeypatch):
    """Below 256 bits of p every path takes builtin pow, once per base, and
    dl-demo never reaches libcrypto.  On dl-2048 the special values, every
    byte-length edge and the cut match on each path: builtin pow once per
    base with no libcrypto, at 64-bit word edges only (each takes about
    25 ms); one libcrypto call per exponentiation on one core, with no
    thread; and on two cores two calls on two threads, plus y^(2^1024) once
    (g^(2^1024) is committed).  Each libcrypto call is the constant-time
    one for one base and the two-base one for two, and g^e through
    _secret_pow, with q added, matches too."""
    on_path(monkeypatch, path)
    forget_high_bases()
    one, two = ([], []) if path == "builtin" else spy_on_exp(monkeypatch)
    bn = spy_on(monkeypatch, chameleon, "_bn_multi_pow")
    pows = spy_on(monkeypatch, chameleon, "pow")  # shadows builtin pow there
    small = shaped(shape, (G, 2), (18, 5))  # dl-demo, y = 18 as in fixed_instance
    assert chameleon._pow(small, P) == math.prod(pow(b, e, P) for b, e in small) % P
    assert len(pows) == len(small)
    inst, td = chameleon.hg(ChameleonKind.DL, {"name": "dl-demo"}, rng_from_int(3))
    rng = rng_from_int(4)
    for _ in range(5):
        sample = chameleon.sample_range(inst, rng, td)
        r = chameleon.ch_invert(inst, td, 5, sample)
        assert chameleon.ch_hash(inst, 5, r) == sample.element
    assert inst.deserialize_trapdoor(inst.serialize_trapdoor(td)) == td
    assert bn == []
    pows.clear()
    calls = spy_on(monkeypatch, chameleon, "_pow")
    starts = spy_on(monkeypatch, threading.Thread, "start")
    edges = BYTE_EDGES
    if path == "builtin":
        edges = [e for e in BYTE_EDGES if e.bit_length() % 64 in (0, 1)]  # word edges
    check_vectors(edges, [shape])
    if shape == "g" and path != "builtin":
        g = powers_at_byte_edges(G2048)
        for e in SPECIAL:
            assert chameleon._secret_pow(G2048, e, Q2048, P2048) == g[e]
    n, bases = len(calls), len(small)
    if path == "builtin":
        assert (bn, len(pows), starts) == ([], bases * n, [])
        return
    assert (len(one), len(two)) == ((len(bn), 0) if bases == 1 else (0, len(bn)))
    assert pows == []
    if path == "one call":
        assert (len(bn), starts) == (n, [])
    else:
        assert (len(bn), len(starts)) == (2 * n + (bases == 2), n)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, (1 << BITS) - 1), st.integers(0, (1 << BITS) - 1))
def test_dl_pow_matches_pow_property(e, f):
    """Random exponents of g and y give builtin pow's values on every path;
    on the builtin one, where g alone is the reference itself, with two
    bases only."""
    ge, yf = pow(G2048, e, P2048), pow(Y2048, f, P2048)
    for path, shapes in SHAPES_ON.items():
        with pytest.MonkeyPatch.context() as monkeypatch:
            on_path(monkeypatch, path)
            check_against(e, f, ge, yf, shapes[1:] if path == "builtin" else shapes)


def test_golden_dl_2048_digests_without_libcrypto(monkeypatch):
    """The pinned dl-2048 bytes of tests/test_golden.py, computed with
    builtin pow instead of libcrypto."""
    from test_golden import GOLDEN, seeded_digests

    monkeypatch.setattr(chameleon, "_libcrypto", False)
    for base in ("merkle", "malleable"):
        assert seeded_digests("dl-2048", base) == GOLDEN[("dl-2048", base)]


@pytest.mark.skipif(sys.platform != "linux", reason="libcrypto by its Linux soname")
def test_libcrypto_binding_loads_on_linux():
    assert chameleon._load_libcrypto() is not None
    dl_pow(((G2048, 3),))
    assert chameleon._libcrypto


def test_dl_hash_splits_from_the_first_use_of_y(monkeypatch):
    """On two cores the public g^m y^r cuts both exponents at bit 1024 into
    two two-base calls from y's first use on, a one-shot verify's only one.
    The first also computes y^(2^1024), once, in the worker, by a third
    two-base call, the variable-time one; later ones take it from the cache.
    The folded g^(m + x r + q) is two constant-time calls every time.  y = g,
    one base in both roles, computes nothing, as g^(2^1024) is committed."""
    cores(monkeypatch, 2)
    forget_high_bases()
    x = X2048 % Q2048
    inst, td = DLInstance(P2048, Q2048, G2048, Y2048), DLTrapdoor(x, pow(x, -1, Q2048))
    one, two = spy_on_exp(monkeypatch)
    raised = spy_on_raising(monkeypatch)
    counts = []
    for m, r in [(Q2048 - 1, 1 << (BITS - 1)), (5, Q2048 - 2), (2, 3), (0, 0)]:
        expected = pow_reference(((G2048, m), (Y2048, r)))
        assert inst.hash(m, r) == expected
        assert inst.trapdoor_hash(td, m, r) == expected
        counts.append((len(one), len(two)))
    assert counts == [(2, 3), (4, 5), (6, 7), (8, 9)]
    [(base, thread)] = raised
    assert base == Y2048 and thread is not threading.main_thread()
    assert chameleon._high_base(Y2048, P2048) == pow(Y2048, 1 << 1024, P2048)
    assert len(raised) == 1
    one.clear(), two.clear()
    same = DLInstance(P2048, Q2048, G2048, G2048)
    for m, r in [(Q2048 - 1, 7), (3, Q2048 - 5), (1 << 1000, 1 << 2000)]:
        assert same.hash(m, r) == pow(G2048, m + r, P2048)
    assert (len(one), len(two)) == (0, 6)


def test_exponents_on_the_trapdoor_have_q_added(monkeypatch):
    """The folded g^e, y = g^x and the g^x = y check pass E = e mod q + q
    in [q, 2q), cut at bit 1024, so each constant-time call sees as many
    words for e = 0 as for any e: g^(E mod 2^1024 + 2^1024), 17 words, and
    (g^(2^1024))^((E >> 1024) - 1), 16.  Without the q, g^1 ran in 0.13 ms
    and a random e in 2.5 ms."""
    cores(monkeypatch, 2)
    calls = spy_on(monkeypatch, chameleon, "_bn_multi_pow")
    inst, td = chameleon.hg(ChameleonKind.DL, {"name": "dl-2048"}, rng_from_int(9))
    inst.deserialize_trapdoor(inst.serialize_trapdoor(td))
    for m, r in [(0, 0), (1, 0), (Q2048 - 1, Q2048 - 1)]:
        inst.trapdoor_hash(td, m, r)
    assert len(calls) == 10
    assert {(base, words_of(e)) for _, ((base, e),), _ in calls} == {
        (G2048, 17), (G2048_K, 16)
    }


def test_secret_halves_fill_fixed_word_counts(monkeypatch):
    """At the ends of [0, q), at the cut and at random e, the two
    constant-time calls of _secret_pow see 17 and 16 words, and their
    results multiply to g^e."""
    cores(monkeypatch, 2)
    libcrypto()
    seen, original = [], chameleon._bn_multi_pow

    def record(lib, terms, p):
        seen.append((terms, original(lib, terms, p)))
        return seen[-1][1]

    monkeypatch.setattr(chameleon, "_bn_multi_pow", record)
    rng = rng_from_int(12)
    for e in [0, 1, 2, Q2048 - 1, (1 << 1024) - 1, 1 << 1024] + [
        rng.randbelow(Q2048) for _ in range(4)
    ]:
        seen.clear()
        assert chameleon._secret_pow(G2048, e, Q2048, P2048) == pow(G2048, e, P2048)
        (((b_low, low),), v_low), (((b_high, high),), v_high) = sorted(
            seen, key=lambda call: call[0][0][0] == G2048_K
        )
        assert (b_low, words_of(low), b_high, words_of(high)) == (G2048, 17, G2048_K, 16)
        assert low + (high << 1024) == e % Q2048 + Q2048
        assert v_low * v_high % P2048 == pow(G2048, e, P2048)


@pytest.mark.skipif(not hasattr(chameleon.os, "sched_getaffinity"), reason="no affinity")
def test_calls_follow_the_real_affinity(monkeypatch):
    """With the cores the process may really use (CI runs this file under
    `taskset -c 0` too): a folded hash is one constant-time call on one
    core and two on more."""
    one, _ = spy_on_exp(monkeypatch)
    x = X2048 % Q2048
    inst = DLInstance(P2048, Q2048, G2048, Y2048)
    assert inst.trapdoor_hash(DLTrapdoor(x, 0), 1, 2) == pow_reference(((G2048, 1 + 2 * x),))
    assert len(one) == (1 if len(chameleon.os.sched_getaffinity(0)) == 1 else 2)


@pytest.mark.parametrize("side", ["worker", "caller"])
def test_a_failed_half_raises_in_the_caller(side, monkeypatch):
    """A libcrypto call that fails on either thread raises RuntimeError in
    the caller, after the worker is joined, and no exception leaves it."""
    cores(monkeypatch, 2)
    lib = libcrypto()
    original = lib.BN_mod_exp_mont_consttime

    def call(*args):
        in_worker = threading.current_thread() is not threading.main_thread()
        return 0 if in_worker == (side == "worker") else original(*args)

    monkeypatch.setattr(lib, "BN_mod_exp_mont_consttime", call)
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="libcrypto .* failed"):
        chameleon._secret_pow(G2048, 5, Q2048, P2048)
    assert threading.active_count() == threads and escaped == []


def test_no_thread_outlives_a_call_and_merkle_keygen_still_forks(monkeypatch):
    """After dl-2048 signs and verifies, each split over two threads, no
    thread is left, so a Merkle h=8 keygen, which forks only in a process
    of one thread, still forks."""
    import os

    cores(monkeypatch, 2)
    forget_high_bases()
    starts = spy_on(monkeypatch, threading.Thread, "start")
    threads = threading.active_count()
    kp = transform.g_prime(
        merkle.merkle_descriptor(1), ChameleonKind.DL, {"name": "dl-2048"}, rng_from_int(7)
    )
    ro, pk = production_oracle(kp.ch_inst), transform.public_key_of(kp)
    for i in range(2):
        sig, kp = transform.s_prime(kp, b"message %d" % i, ro, rng_from_int(40 + i))
        assert transform.v_prime(pk, b"message %d" % i, sig, ro)
        assert threading.active_count() == threads
    assert len(starts) == 1 + 2 + 2  # keygen's y, two signs, two verifies
    forks = spy_on(monkeypatch, os, "fork")
    merkle.merkle_descriptor(8)
    transform.g_prime(merkle.merkle_descriptor(8), ChameleonKind.DL, {"name": "dl-demo"},
                      rng_from_int(8))
    assert forks


def chameleon_bytes_alive(run):
    """The bytes allocated on chameleon.py's lines during run() that are
    still allocated after it."""
    tracemalloc.start()
    try:
        run()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    only = [tracemalloc.Filter(True, chameleon.__file__)]
    return sum(stat.size for stat in snapshot.filter_traces(only).statistics("filename"))


def test_two_signs_and_verifies_leave_under_16_kb(monkeypatch):
    """On two cores, after key generation and two signs and verifies, what
    chameleon.py allocated and still holds is the key's and the signatures'
    integers and the kept y^(2^1024), a few kB (two tables once held
    3.2 MB)."""
    cores(monkeypatch, 2)
    libcrypto()
    forget_high_bases()
    kept = []

    def run():
        kp = transform.g_prime(
            merkle.merkle_descriptor(2), ChameleonKind.DL, {"name": "dl-2048"}, rng_from_int(6)
        )
        ro, pk = production_oracle(kp.ch_inst), transform.public_key_of(kp)
        for i in range(2):
            sig, kp = transform.s_prime(kp, b"message %d" % i, ro, rng_from_int(30 + i))
            assert transform.v_prime(pk, b"message %d" % i, sig, ro)
            kept.append(sig)
        kept.append(kp)

    assert chameleon_bytes_alive(run) < 16384


def fresh_bases(count):
    return [pow(G2048, 7 + i, P2048) for i in range(count)]


def test_high_base_cache_keeps_four_values(monkeypatch):
    """On two cores, after twenty new bases, each b^(2^1024) computed once,
    four are kept, and what chameleon.py allocated and still holds is those
    and the results."""
    cores(monkeypatch, 2)
    libcrypto()
    forget_high_bases()
    results = []

    def run():
        for i in range(20):
            results.append(dl_pow(((pow(G2048, 1000 + i, P2048), Q2048 - 2),)))

    # a 2048-bit int takes 300 bytes
    assert chameleon_bytes_alive(run) < (20 + 4) * 512
    info = chameleon._high_base.cache_info()
    assert (info.misses, info.currsize) == (20, 4)


def test_two_callers_split_at_once(monkeypatch):
    """Two threads hash at once, each on three new y's and each split over
    its own worker: the values match builtin pow, no thread is left, and at
    most four b^(2^1024) are kept, the one state that the workers share."""
    cores(monkeypatch, 2)
    libcrypto()
    forget_high_bases()
    rng = rng_from_int(13)
    ys = fresh_bases(6)
    work = [[(y, rng.randbelow(Q2048), rng.randbelow(Q2048)) for y in ys[3 * i:3 * i + 3]]
            for i in range(2)]
    expected = [[pow_reference(((G2048, m), (y, r))) for y, m, r in w] for w in work]
    got, start = [None, None], threading.Barrier(2)

    def caller(i):
        start.wait()
        got[i] = [DLInstance(P2048, Q2048, G2048, y).hash(m, r) for y, m, r in work[i]]

    threads = threading.active_count()
    callers = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
    for t in callers:
        t.start()
    for t in callers:
        t.join()
    assert got == expected
    assert threading.active_count() == threads
    assert chameleon._high_base.cache_info().currsize <= 4


def test_dl_trapdoor_that_does_not_match_y_is_refused():
    """A trapdoor x + 1 lies in [1, q) and has an inverse, but g^(x+1) != y."""
    for name in ("dl-demo", "dl-2048"):
        inst, td = chameleon.hg(ChameleonKind.DL, {"name": name}, rng_from_int(2))
        x = td.x % (inst.q_grp - 1)  # x + 1 stays below q
        good = DLInstance(inst.p, inst.q_grp, inst.g, pow(inst.g, x, inst.p))
        assert good.deserialize_trapdoor(good.serialize_trapdoor(DLTrapdoor(x, 0))).x == x
        with pytest.raises(FormatError, match="does not match y"):
            good.deserialize_trapdoor(good.serialize_trapdoor(DLTrapdoor(x + 1, 0)))


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
