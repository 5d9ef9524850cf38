"""Conformance suite: the properties every base scheme must have.

The transform takes any existentially unforgeable scheme, so each generic
property is stated here once and checked on every row of ROWS, through the
registry and through g', s' and v'.  A new base scheme joins with one row;
tests of one scheme's own bytes and internals stay in its own test file.

The transformed half of the mauler check runs over dl-2048, whose oracle
outputs lie in Z_q with q ~ 2^2047.  Over dl-demo (11 outputs) or sis-desk
(2^8) a mauled signature survives at rate 1/11 or 2^-8 through an oracle
collision alone.
"""

import dataclasses
import functools
import hashlib
from typing import Callable, NamedTuple, Optional

import pytest
from hypothesis import given, settings, strategies as st

from toosign import games, merkle, registry, transform
from toosign.chameleon import ChameleonKind
from toosign.errors import CapacityError
from toosign.merkle import merkle_descriptor
from toosign.oracle import production_oracle
from toosign.registry import (SchemeDescriptor, Signature, get_scheme, scheme_keygen,
                              scheme_sign, scheme_verify)
from toosign.rng import rng_from_int
from toosign.transform import TransformedPublicKey, g_prime, public_key_of, s_prime, v_prime


class Row(NamedTuple):
    # a factory, so that a scheme that fails to build fails its own row only
    descriptor: Callable[[], SchemeDescriptor]
    capacity: int  # signatures one key gives
    mauler: Optional[Callable[[], games.Adversary]] = None  # if it is malleable


ROWS = {
    "merkle-h1": Row(lambda: merkle_descriptor(1), 2),
    "merkle-h2": Row(lambda: merkle_descriptor(2), 4),
    "merkle-h3": Row(lambda: merkle_descriptor(3), 8),
    "malleable-merkle-h2": Row(lambda: games.wrap_malleable(merkle_descriptor(2)), 4,
                               games.MaulingAdversary),
}
MALLEABLE = {name: row for name, row in ROWS.items() if row.mauler}
each_row = pytest.mark.parametrize("row", ROWS.values(), ids=ROWS)

DL_DEMO = (ChameleonKind.DL, {"name": "dl-demo"})
DL_2048 = (ChameleonKind.DL, {"name": "dl-2048"})
SIS_DESK = (ChameleonKind.SIS, {"n": 4, "q": 257, "m": 12, "k": 8})
DIGEST = hashlib.sha256(b"signed").digest()


def sign_once(row: Row):
    """A key of the row and its signature on DIGEST; then a transformed key
    over dl-demo and its signature on b"signed"."""
    kp = scheme_keygen(row.descriptor(), rng_from_int(0))
    sig, _ = scheme_sign(kp, DIGEST, rng_from_int(1))
    tkp = g_prime(row.descriptor(), *DL_DEMO, rng_from_int(2))
    tsig, _ = s_prime(tkp, b"signed", production_oracle(tkp.ch_inst), rng_from_int(3))
    return kp, sig, tkp, tsig


signed = functools.cache(sign_once)


@each_row
def test_round_trip(row):
    kp, sig, _, _ = signed(row)
    assert scheme_verify(kp.public_key, DIGEST, sig) is True
    assert scheme_verify(kp.public_key, hashlib.sha256(b"other").digest(), sig) is False


@each_row
def test_same_seed_gives_the_same_bytes(row):
    kp, sig, tkp, tsig = sign_once(row)
    again = sign_once(row)
    assert (kp, sig) == again[:2]
    assert tkp.public_bytes() == again[2].public_bytes()
    assert tkp.secret_bytes() == again[2].secret_bytes()
    assert tsig.serialize(tkp.ch_inst) == again[3].serialize(tkp.ch_inst)


@each_row
@settings(max_examples=10, deadline=None)
@given(digest=st.binary(min_size=32, max_size=32))
def test_a_key_signs_as_its_decoded_bytes_do(row, digest):
    """Every leaf of a key made in this process signs to the same bytes as
    the key decoded from its bytes in a process that kept nothing of its
    keygen: the Merkle leaves sign first from the hashes keygen kept."""
    merkle._KEPT.clear()
    tkp = g_prime(row.descriptor(), *DL_DEMO, rng_from_int(8))

    def signatures(kp):
        return [scheme_sign(kp.with_state(leaf.to_bytes(8, "big")), digest,
                            rng_from_int(9))[0].bytes for leaf in range(row.capacity)]

    nodes = merkle._secret_key_fields(tkp.base.secret_key)[2]
    assert all(nodes[32 * leaf : 32 * leaf + 32] in merkle._KEPT
               for leaf in range(row.capacity))
    kept = signatures(tkp.base)
    merkle._KEPT.clear()
    decoded = transform.keypair_from_secret(tkp.secret_bytes(), tkp.public_bytes())
    assert signatures(decoded.base) == kept


@each_row
def test_descriptor_survives_serialization(row):
    desc = row.descriptor()
    assert SchemeDescriptor.deserialize(desc.serialize()) == desc
    _, _, tkp, _ = signed(row)
    assert TransformedPublicKey.deserialize(tkp.public_bytes()).base_descriptor == desc
    restored = transform.keypair_from_secret(tkp.secret_bytes(), tkp.public_bytes())
    assert restored.base.descriptor == desc


@each_row
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_registered_verify_is_total(row, data):
    """The scheme's own verify, without the catch-all of `scheme_verify`,
    returns a bool on arbitrary bytes and on its signature with bytes
    spliced in or cut out; so does v' on an arbitrary base signature."""
    kp, sig, tkp, tsig = signed(row)
    verify = get_scheme(kp.descriptor.scheme_id).verify
    junk = data.draw(st.binary(max_size=64))
    assert verify(kp.public_key, DIGEST, Signature(junk, kp.descriptor)) is False
    at, cut = data.draw(st.integers(0, len(sig.bytes))), data.draw(st.integers(0, 64))
    spliced = sig.bytes[:at] + data.draw(st.binary(max_size=64)) + sig.bytes[at + cut :]
    assert verify(kp.public_key, DIGEST, Signature(spliced, kp.descriptor)) in (True, False)
    forged = transform.TransformedSignature(Signature(junk, kp.descriptor), tsig.randomness)
    oracle = production_oracle(tkp.ch_inst)
    assert v_prime(public_key_of(tkp), b"signed", forged, oracle) is False


def test_malleable_wrapper_does_not_hide_a_crashing_inner_verify(monkeypatch):
    """The wrapper calls its inner scheme's registered verify, not the
    catch-all of `scheme_verify`, so a crash there surfaces, and the totality
    test above tells a total wrapper from one over a crashing verifier."""
    kp, sig, _, _ = signed(ROWS["malleable-merkle-h2"])
    merkle_id = merkle_descriptor(2).scheme_id

    def crash(*args):
        raise RuntimeError("inner verify crashed")

    impl = dataclasses.replace(get_scheme(merkle_id), verify=crash)
    monkeypatch.setitem(registry._REGISTRY, merkle_id, impl)
    with pytest.raises(RuntimeError, match="inner verify crashed"):
        get_scheme(kp.descriptor.scheme_id).verify(kp.public_key, DIGEST, sig)
    assert scheme_verify(kp.public_key, DIGEST, sig) is False


@each_row
def test_state_advances_to_capacity_and_holds_there(row):
    """One step per signature, each on a fresh one-time key; past capacity
    both layers refuse with CapacityError and the key stays as it was."""
    kp = g_prime(row.descriptor(), *DL_DEMO, rng_from_int(4))
    oracle, rng = production_oracle(kp.ch_inst), rng_from_int(5)
    base_sigs = set()
    for count in range(row.capacity):
        assert int.from_bytes(kp.base.state, "big") == count
        sig, kp = s_prime(kp, b"m", oracle, rng)
        base_sigs.add(sig.base_sig.bytes)
    assert int.from_bytes(kp.base.state, "big") == len(base_sigs) == row.capacity
    state, secret = kp.base.state, kp.secret_bytes()
    with pytest.raises(CapacityError):
        scheme_sign(kp.base, DIGEST, rng)
    with pytest.raises(CapacityError):
        s_prime(kp, b"m", oracle, rng)
    assert (kp.base.state, kp.secret_bytes()) == (state, secret)


@each_row
@pytest.mark.parametrize("chameleon", [DL_DEMO, SIS_DESK], ids=["dl-demo", "sis-desk"])
def test_transform_verifies_seeded_messages(row, chameleon):
    """s' signs and v' verifies through the wire forms, as `too-sign` does:
    the key pair is decoded before each signature, the state it advanced
    included, and the public key and each signature are decoded to verify."""
    rng = rng_from_int(6)
    kp = g_prime(row.descriptor(), *chameleon, rng.fork(b"keygen"))
    public, oracle = kp.public_bytes(), production_oracle(kp.ch_inst)
    pk = TransformedPublicKey.deserialize(public)
    for _ in range(row.capacity):
        kp = transform.keypair_from_secret(kp.secret_bytes(), public)
        message = rng.random_bytes(1 + rng.randbelow(64))
        sig, kp = s_prime(kp, message, oracle, rng)
        blob = sig.serialize(kp.ch_inst)
        sig = transform.deserialize_signature(blob, kp.ch_inst, kp.base.descriptor)
        assert v_prime(pk, message, sig, oracle) is True


@pytest.mark.parametrize("row", MALLEABLE.values(), ids=MALLEABLE)
def test_mauler_beats_the_raw_scheme_and_never_the_transform(row):
    kp = g_prime(row.descriptor(), *DL_2048, rng_from_int(7))

    def wins(make_challenger):
        return [games.play(games.GameKind.SU, seed, make_challenger,
                           lambda ch: row.mauler(), 2).verdict for seed in range(10)]

    assert wins(lambda m: games.RawChallenger(row.descriptor(), m)) == [True] * 10
    assert wins(lambda m: games.make_transformed_challenger(
        games.ChallengerVariant.HYD0, row.descriptor(), *DL_2048, m, keypair=kp,
    )) == [False] * 10
