"""The hardened scheme: correctness, binding to every signature bit, oracle
tags and sizes.  The properties it checks on every base scheme are in
test_base_schemes.py."""

import pytest

from toosign.chameleon import ChameleonKind
from toosign.merkle import merkle_descriptor
from toosign.oracle import production_oracle
from toosign.rng import rng_from_int
from toosign.transform import deserialize_signature, g_prime, public_key_of, s_prime, v_prime

SIS_PARAMS = {"n": 4, "q": 257, "m": 12, "k": 8}


def make(ch_kind, ch_params, height=3, seed=0):
    kp = g_prime(merkle_descriptor(height), ch_kind, ch_params, rng_from_int(seed))
    return kp, production_oracle(kp.ch_inst), public_key_of(kp)


@pytest.mark.parametrize(
    "ch_kind, ch_params, height, messages",
    [
        (ChameleonKind.DL, {"name": "dl-2048"}, 1, [(b"signed", b"tampered")]),
        (ChameleonKind.SIS, SIS_PARAMS, 3, [(b"message %d" % i, b"message %d!" % i)
                                            for i in range(5)]),
    ],
    ids=["dl-2048", "sis-desk"],
)
def test_wrong_message_rejected_large_group(ch_kind, ch_params, height, messages):
    """Each signature verifies on its message and not on another.  The
    11-element dl-demo range false-accepts at rate 1/11, so the negative
    check only holds reliably on a large range."""
    kp, oracle, pk = make(ch_kind, ch_params, height)
    rng = rng_from_int(1)
    for msg, wrong in messages:
        sig, kp = s_prime(kp, msg, oracle, rng)
        assert v_prime(pk, msg, sig, oracle)
        assert not v_prime(pk, wrong, sig, oracle)


def test_every_flipped_bit_rejected():
    """Flipping any single byte of the serialized signature must reject."""
    kp, oracle, pk = make(ChameleonKind.SIS, SIS_PARAMS)
    sig, _ = s_prime(kp, b"bind me", oracle, rng_from_int(2))
    blob = sig.serialize(kp.ch_inst)
    accepted = 0
    for pos in range(len(blob)):
        bad = bytearray(blob)
        bad[pos] ^= 0x01
        try:
            bad_sig = deserialize_signature(bytes(bad), kp.ch_inst, kp.base.descriptor)
        except Exception:
            continue
        accepted += v_prime(pk, b"bind me", bad_sig, oracle)
    assert accepted == 0


def test_oracle_tag_mismatch_rejects():
    kp, _, pk = make(ChameleonKind.DL, {"name": "dl-demo"})
    sign_oracle = production_oracle(kp.ch_inst, domain_tag=b"tag-one")
    other = production_oracle(kp.ch_inst, domain_tag=b"tag-two")
    sig, _ = s_prime(kp, b"m", sign_oracle, rng_from_int(8))
    assert v_prime(pk, b"m", sig, sign_oracle)
    # an 11-element toy range gives false accepts at rate ~1/11; check a batch
    rng = rng_from_int(9)
    kp2, oracle2, pk2 = make(ChameleonKind.SIS, SIS_PARAMS, seed=10)
    sig2, _ = s_prime(kp2, b"m", production_oracle(kp2.ch_inst, domain_tag=b"tag-one"), rng)
    assert not v_prime(pk2, b"m", sig2, production_oracle(kp2.ch_inst, domain_tag=b"tag-two"))


def test_overhead_report_matches_predictions():
    from toosign.bench import overhead_report

    rep = overhead_report(
        merkle_descriptor(2), ChameleonKind.SIS, SIS_PARAMS, rng_from_int(11).seed
    )
    assert rep["match"] == {"pk": True, "sk": True, "sig": True}
    rep = overhead_report(
        merkle_descriptor(2), ChameleonKind.DL, {"name": "dl-demo"}, rng_from_int(12).seed
    )
    assert rep["match"] == {"pk": True, "sk": True, "sig": True}
