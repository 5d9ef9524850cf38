"""The strong-unforgeability transform.

Key generation composes a base scheme key with a chameleon hash; signing
commits to a random range value C, signs C with the base scheme, hashes the
(message, base-signature) pair through the oracle, and uses the trapdoor to
open the chameleon hash at that point back to C.  Verification recomputes C
and defers to the base verifier.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

from . import chameleon, encoding
from .chameleon import ChameleonInstance, ChameleonKind, ChameleonTrapdoor
from .errors import FormatError, ToosignError
from .oracle import OracleContext, frame
from .registry import (
    KeyPair,
    SchemeDescriptor,
    Signature,
    scheme_keygen,
    scheme_sign,
    scheme_verify,
)
from .rng import Rng


class TransformedKeyPair(NamedTuple):
    base: KeyPair
    ch_inst: ChameleonInstance
    ch_td: ChameleonTrapdoor

    def public_bytes(self) -> bytes:
        return encoding.encode_record(
            encoding.TAG_TRANSFORMED_PK,
            [
                self.base.descriptor.serialize(),
                self.base.public_key,
                self.ch_inst.serialize(),
            ],
        )

    def secret_bytes(self) -> bytes:
        return encoding.encode_record(
            encoding.TAG_TRANSFORMED_SK,
            [
                self.base.descriptor.serialize(),
                self.base.secret_key,
                self.ch_inst.serialize_trapdoor(self.ch_td),
                self.base.state or b"",
            ],
        )


class TransformedPublicKey(NamedTuple):
    base_descriptor: SchemeDescriptor
    base_pk: bytes
    ch_inst: ChameleonInstance

    @staticmethod
    def deserialize(blob: bytes) -> "TransformedPublicKey":
        fields = encoding.decode_fields(blob, encoding.TAG_TRANSFORMED_PK, 3)
        return TransformedPublicKey(
            base_descriptor=SchemeDescriptor.deserialize(fields[0]),
            base_pk=fields[1],
            ch_inst=chameleon.deserialize_instance(fields[2]),
        )


def keypair_from_secret(blob: bytes, public_blob: bytes) -> TransformedKeyPair:
    pub = TransformedPublicKey.deserialize(public_blob)
    fields = encoding.decode_fields(blob, encoding.TAG_TRANSFORMED_SK, 4)
    descriptor = SchemeDescriptor.deserialize(fields[0])
    if descriptor != pub.base_descriptor:
        raise FormatError("the public key's base scheme differs from the secret key's")
    td = pub.ch_inst.deserialize_trapdoor(fields[2])
    base = KeyPair(
        public_key=pub.base_pk,
        secret_key=fields[1],
        descriptor=descriptor,
        state=fields[3] or None,
    )
    return TransformedKeyPair(base=base, ch_inst=pub.ch_inst, ch_td=td)


class TransformedSignature(NamedTuple):
    base_sig: Signature
    randomness: object

    def serialize(self, inst: ChameleonInstance) -> bytes:
        return encoding.encode_record(
            encoding.TAG_TRANSFORMED_SIG,
            [
                self.base_sig.bytes,
                inst.serialize_randomness(self.randomness),
            ],
        )


def deserialize_signature(
    blob: bytes, inst: ChameleonInstance, base_descriptor: SchemeDescriptor
) -> TransformedSignature:
    base_sig, randomness = encoding.decode_fields(blob, encoding.TAG_TRANSFORMED_SIG, 2)
    return TransformedSignature(
        base_sig=Signature(bytes=base_sig, descriptor=base_descriptor),
        randomness=inst.deserialize_randomness(randomness),
    )


def encode_range_value(inst: ChameleonInstance, elem) -> bytes:
    """Range value C as a base-scheme message: the digest of its encoding."""
    return hashlib.sha256(inst.serialize_element(elem)).digest()


def g_prime(
    base_descriptor: SchemeDescriptor,
    ch_kind: ChameleonKind,
    ch_params: dict,
    rng: Rng,
) -> TransformedKeyPair:
    base = scheme_keygen(base_descriptor, rng.fork(b"base-keygen"))
    inst, td = chameleon.hg(ch_kind, ch_params, rng.fork(b"chameleon-hg"))
    return TransformedKeyPair(base=base, ch_inst=inst, ch_td=td)


def sign_range(
    kp: TransformedKeyPair, elem, rng: Rng
) -> tuple[Signature, TransformedKeyPair]:
    """Base-sign the range value C, returning the key pair with advanced state."""
    base_msg = encode_range_value(kp.ch_inst, elem)
    base_sig, new_state = scheme_sign(kp.base, base_msg, rng)
    return base_sig, kp._replace(base=kp.base.with_state(new_state))


def s_prime(
    kp: TransformedKeyPair, message: bytes, oracle: OracleContext, rng: Rng
) -> tuple[TransformedSignature, TransformedKeyPair]:
    """Sign, returning the signature and the key pair with advanced state.

    Atomic: on any failure the base-scheme state is not advanced.

    The range value C comes from rng before the key state is read, so one
    rng stream must never sign at two states of one key: both signatures
    would open the same C, and two openings of one C are a chameleon
    collision, which for DL reveals the trapdoor.  Fork the rng by the
    state, as `too-sign sign` does.
    """
    c_sample = chameleon.sample_range(kp.ch_inst, rng, kp.ch_td)
    base_sig, new_kp = sign_range(kp, c_sample.element, rng)
    m = oracle.eval(frame(message, base_sig.bytes))
    r = chameleon.ch_invert(kp.ch_inst, kp.ch_td, m, c_sample, rng)
    return TransformedSignature(base_sig=base_sig, randomness=r), new_kp


def v_prime(
    pk: TransformedPublicKey,
    message: bytes,
    sig: TransformedSignature,
    oracle: OracleContext,
) -> bool:
    """Total on arbitrary input: malformed signatures reject, never raise."""
    try:
        m = oracle.eval(frame(message, sig.base_sig.bytes))
        c = chameleon.ch_hash(pk.ch_inst, m, sig.randomness)
        base_msg = encode_range_value(pk.ch_inst, c)
        return scheme_verify(pk.base_pk, base_msg, sig.base_sig)
    except ToosignError:
        return False


def public_key_of(kp: TransformedKeyPair) -> TransformedPublicKey:
    return TransformedPublicKey(
        base_descriptor=kp.base.descriptor,
        base_pk=kp.base.public_key,
        ch_inst=kp.ch_inst,
    )
