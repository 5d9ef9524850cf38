"""Key and signature decoders are total: a damaged blob decodes to an object
or raises FormatError, never another exception."""

import pytest
from hypothesis import given, settings, strategies as st

from toosign import encoding
from toosign.chameleon import ChameleonKind
from toosign.errors import FormatError, ToosignError
from toosign.merkle import merkle_descriptor
from toosign.oracle import production_oracle
from toosign.rng import rng_from_int
from toosign.transform import (
    TransformedPublicKey,
    deserialize_signature,
    g_prime,
    keypair_from_secret,
    s_prime,
)

CHAMELEONS = {
    "dl-demo": (ChameleonKind.DL, {"name": "dl-demo"}),
    "sis-desk": (ChameleonKind.SIS, {"n": 4, "q": 257, "m": 12, "k": 8}),
}


def _valid(ch):
    kind, params = CHAMELEONS[ch]
    kp = g_prime(merkle_descriptor(2), kind, params, rng_from_int(77))
    sig, _ = s_prime(kp, b"decode me", production_oracle(kp.ch_inst), rng_from_int(78))
    blobs = {
        "pk": kp.public_bytes(),
        "sk": kp.secret_bytes(),
        "sig": sig.serialize(kp.ch_inst),
    }
    return kp, blobs


VALID = {ch: _valid(ch) for ch in CHAMELEONS}


def decode(ch, which, blob):
    kp, blobs = VALID[ch]
    if which == "pk":
        return TransformedPublicKey.deserialize(blob)
    if which == "sk":
        return keypair_from_secret(blob, blobs["pk"])
    return deserialize_signature(blob, kp.ch_inst, kp.base.descriptor)


@st.composite
def damaged(draw):
    ch = draw(st.sampled_from(sorted(CHAMELEONS)))
    which = draw(st.sampled_from(["pk", "sk", "sig"]))
    blob = bytearray(VALID[ch][1][which])
    if draw(st.booleans()):
        del blob[draw(st.integers(0, len(blob) - 1)) :]
    else:
        for _ in range(draw(st.integers(1, 3))):
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return ch, which, bytes(blob)


@settings(max_examples=400, deadline=None)
@given(damaged())
def test_damaged_blob_decodes_or_raises_format_error(case):
    try:
        decode(*case)
    except FormatError:
        pass


@st.composite
def signature_blobs(draw):
    """A valid signature record with its randomness field redrawn: bytes of
    about the valid length, or the valid bytes behind a prefix."""
    ch = draw(st.sampled_from(sorted(CHAMELEONS)))
    _, (base, record) = encoding.decode_record(VALID[ch][1]["sig"])
    _, (r,) = encoding.decode_record(record)
    r = draw(st.one_of(
        st.binary(min_size=len(r) - 1, max_size=len(r) + 1),
        st.binary(min_size=1, max_size=2).map(lambda prefix: prefix + r),
    ))
    record = encoding.encode_record(encoding.TAG_RANDOMNESS, [r])
    return ch, encoding.encode_record(encoding.TAG_TRANSFORMED_SIG, [base, record])


@settings(max_examples=300, deadline=None)
@given(signature_blobs())
def test_accepted_signature_reserializes_to_its_own_bytes(case):
    """Every blob the signature decoder accepts is the one encoding of what
    it decodes to, so no signature has a second byte form."""
    ch, blob = case
    kp, _ = VALID[ch]
    try:
        sig = deserialize_signature(blob, kp.ch_inst, kp.base.descriptor)
    except FormatError:
        return
    assert sig.serialize(kp.ch_inst) == blob


@st.composite
def damaged_dl_public_key(draw):
    """A dl-demo public key with one byte overwritten, or with one number of
    its chameleon instance (p, q, g or y) replaced."""
    pk = VALID["dl-demo"][1]["pk"]
    if draw(st.booleans()):
        blob = bytearray(pk)
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
        return bytes(blob)
    _, fields = encoding.decode_record(pk, encoding.TAG_TRANSFORMED_PK)
    _, numbers = encoding.decode_record(fields[2], encoding.TAG_DL_INSTANCE)
    numbers[draw(st.integers(0, 3))] = encoding.encode_int(draw(st.integers(0, 1000)))
    fields[2] = encoding.encode_record(encoding.TAG_DL_INSTANCE, numbers)
    return encoding.encode_record(encoding.TAG_TRANSFORMED_PK, fields)


@settings(max_examples=300, deadline=None)
@given(damaged_dl_public_key())
def test_damaged_dl_public_key_signs_or_raises_toosign_error(pk):
    """A damaged public key that still decodes is safe to sign with."""
    try:
        kp = keypair_from_secret(VALID["dl-demo"][1]["sk"], pk)
    except FormatError:
        return
    try:
        s_prime(kp, b"sign me", production_oracle(kp.ch_inst), rng_from_int(79))
    except ToosignError:
        pass


def _with_field(blob, tag, index, value):
    _, fields = encoding.decode_record(blob, tag)
    fields[index] = value
    return encoding.encode_record(tag, fields)


@pytest.mark.parametrize("ch", sorted(CHAMELEONS))
def test_decoder_fault_sites_raise_format_error(ch):
    _, blobs = VALID[ch]
    pk, sk = blobs["pk"], blobs["sk"]
    _, pk_fields = encoding.decode_record(pk, encoding.TAG_TRANSFORMED_PK)
    descriptor = pk_fields[0]
    bad_kind = _with_field(descriptor, encoding.TAG_DESCRIPTOR, 2, b"\xd0")
    empty_id = _with_field(descriptor, encoding.TAG_DESCRIPTOR, 0, b"")
    tag_pk = encoding.TAG_TRANSFORMED_PK
    tag_sk = encoding.TAG_TRANSFORMED_SK
    _, sk_fields = encoding.decode_record(sk, tag_sk)
    other_family = {encoding.TAG_DL_TRAPDOOR: encoding.TAG_SIS_TRAPDOOR,
                    encoding.TAG_SIS_TRAPDOOR: encoding.TAG_DL_TRAPDOOR}
    wrong_trapdoor = bytearray(sk_fields[2])
    wrong_trapdoor[4] = other_family[wrong_trapdoor[4]]
    cases = [
        lambda: TransformedPublicKey.deserialize(pk[:5]),
        lambda: TransformedPublicKey.deserialize(_with_field(pk, tag_pk, 0, bad_kind)),
        lambda: TransformedPublicKey.deserialize(_with_field(pk, tag_pk, 0, empty_id)),
        lambda: TransformedPublicKey.deserialize(
            encoding.encode_record(tag_pk, pk_fields[:2])
        ),
        lambda: keypair_from_secret(encoding.encode_record(tag_sk, sk_fields[:3]), pk),
        lambda: keypair_from_secret(
            _with_field(sk, tag_sk, 2, bytes(wrong_trapdoor)), pk
        ),
    ]
    for case in cases:
        with pytest.raises(FormatError):
            case()


@pytest.mark.parametrize(
    "index, edit", [(0, lambda f: b""), (2, lambda f: f[:-32])],
    ids=["empty height field", "short node blob"],
)
def test_malformed_merkle_secret_key_raises_format_error(index, edit):
    """s_prime on a Merkle secret key with a bad layout raises FormatError."""
    kp = VALID["dl-demo"][0]
    _, fields = encoding.decode_record(kp.base.secret_key, encoding.TAG_MERKLE_SK)
    secret_key = _with_field(kp.base.secret_key, encoding.TAG_MERKLE_SK, index,
                             edit(fields[index]))
    bad = kp._replace(base=kp.base._replace(secret_key=secret_key))
    with pytest.raises(FormatError):
        s_prime(bad, b"sign me", production_oracle(kp.ch_inst), rng_from_int(80))
