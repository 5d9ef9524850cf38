"""The value records: fields are read-only, equal fields make equal records
that hash alike, `_replace` makes a new record, and no repr prints a secret."""

import pytest

from toosign import merkle, sis
from toosign.chameleon import ChameleonKind, DLInstance, DLTrapdoor, RangeSample
from toosign.registry import KeyPair, SchemeDescriptor, Signature
from toosign.rng import rng_from_int
from toosign.transform import (
    TransformedKeyPair,
    TransformedPublicKey,
    TransformedSignature,
    g_prime,
)

DESCRIPTOR = SchemeDescriptor(scheme_id=1, param_blob=b"\x02")
INSTANCE = DLInstance(p=23, q_grp=11, g=4, y=18)
TRAPDOOR = DLTrapdoor(x=3, x_inv=4)
KEY_PAIR = KeyPair(public_key=b"pk", secret_key=b"sk", descriptor=DESCRIPTOR)
SIGNATURE = Signature(bytes=b"sig", descriptor=DESCRIPTOR)
SIS_INSTANCE, SIS_TRAPDOOR = sis.hg_sis(2, 7, 8, 2, rng_from_int(0))

# record -> (field to assign and replace, a value it does not hold)
RECORDS = {
    "SchemeDescriptor": (DESCRIPTOR, "param_blob", b"\x03"),
    "KeyPair": (KEY_PAIR, "state", b"\x00" * 8),
    "Signature": (SIGNATURE, "bytes", b"other"),
    "DLTrapdoor": (TRAPDOOR, "x", 5),
    "RangeSample": (RangeSample(element=2, trace_message=2, trace_randomness=5),
                    "element", 3),
    "DLInstance": (INSTANCE, "y", 13),
    "TransformedKeyPair": (TransformedKeyPair(base=KEY_PAIR, ch_inst=INSTANCE,
                                              ch_td=TRAPDOOR), "base", None),
    "TransformedPublicKey": (TransformedPublicKey(base_descriptor=DESCRIPTOR,
                                                  base_pk=b"pk", ch_inst=INSTANCE),
                             "base_pk", b"other"),
    "TransformedSignature": (TransformedSignature(base_sig=SIGNATURE, randomness=7),
                             "randomness", 8),
    "SISParams": (SIS_INSTANCE.params, "q", 11),
    "SISInstance": (SIS_INSTANCE, "A", ((0, 0), (0, 0))),
    "SISTrapdoor": (SIS_TRAPDOOR, "R", tuple((1,) * 6 for _ in range(2))),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_field_cannot_be_assigned(name):
    record, field, value = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(record, field, value)


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_make_equal_records_that_hash_alike(name):
    record, _, _ = RECORDS[name]
    copy = type(record)(*record)
    assert copy is not record
    assert copy == record
    assert hash(copy) == hash(record)


@pytest.mark.parametrize("name", RECORDS)
def test_replace_leaves_the_original_unchanged(name):
    record, field, value = RECORDS[name]
    before = tuple(record)
    changed = record._replace(**{field: value})
    assert getattr(changed, field) == value
    assert getattr(record, field) != value
    assert tuple(record) == before
    assert changed != record


@pytest.mark.parametrize(
    "ch_kind, ch_params",
    [
        (ChameleonKind.DL, {"name": "dl-demo"}),
        (ChameleonKind.DL, {"name": "dl-2048"}),
        (ChameleonKind.SIS, {"n": 4, "q": 257, "m": 12, "k": 8}),
    ],
    ids=["dl-demo", "dl-2048", "sis-desk"],
)
def test_a_key_pair_prints_no_secret(ch_kind, ch_params):
    """The repr names the secret fields but prints neither the trapdoor nor
    the base secret key, which holds the Merkle seed."""
    kp = g_prime(merkle.merkle_descriptor(2), ch_kind, ch_params, rng_from_int(11))
    text = repr(kp)
    _, seed, _ = merkle._secret_key_fields(kp.base.secret_key)
    assert "secret_key=<secret>" in text
    assert repr(seed)[2:-1] not in text
    assert type(kp.ch_td).__name__ + "(<secret>)" in text
    if ch_kind is ChameleonKind.SIS:
        assert repr(kp.ch_td.R) not in text
    elif ch_params["name"] == "dl-2048":
        # dl-demo's x and x^-1 are single digits, which public numbers hold too
        assert str(kp.ch_td.x) not in text
        assert str(kp.ch_td.x_inv) not in text
