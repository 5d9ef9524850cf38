"""Size-overhead report for the transform.

Measures how many ring elements (and bytes) the chameleon hash adds to the
public key, secret key and signature, and compares against the closed-form
predictions: for the lattice instantiation the public key grows by n(k+m)
Z_q elements, the secret key by m^2 and each signature by m.
"""

from __future__ import annotations

from . import chameleon, encoding
from .chameleon import ChameleonKind, DLInstance
from .oracle import production_oracle
from .registry import SchemeDescriptor
from .rng import Rng
from .transform import g_prime, s_prime


def overhead_report(
    base_descriptor: SchemeDescriptor,
    ch_kind: ChameleonKind,
    ch_params: dict,
    seed: bytes,
) -> dict:
    rng = Rng(seed)
    kp = g_prime(base_descriptor, ch_kind, ch_params, rng)
    base_kp = kp.base
    inst = kp.ch_inst

    oracle = production_oracle(inst)
    sig, _ = s_prime(kp, b"bench message", oracle, rng.fork(b"sign"))
    sig_blob = sig.serialize(inst)

    pk_blob = kp.public_bytes()
    sk_blob = kp.secret_bytes()
    inst_blob = chameleon.serialize_instance(inst)
    td_blob = chameleon.serialize_trapdoor(inst, kp.ch_td)
    rnd_blob = chameleon.serialize_randomness(inst, sig.randomness)

    if isinstance(inst, DLInstance):
        params = {"kind": "dl", "modulus_bits": inst.p.bit_length()}
        predicted = {"pk": 2, "sk": 1, "sig": 1}  # (g, y), x, r
        _, ifields = encoding.decode_record(inst_blob)
        _, tfields = encoding.decode_record(td_blob)
        _, rfields = encoding.decode_record(rnd_blob)
        measured = {
            "pk": len(ifields) - 2,  # g and y; p, q_grp are shared parameters
            "sk": len(tfields),
            "sig": len(rfields),
        }
    else:
        p = inst.params
        params = {"kind": "sis", "n": p.n, "q": p.q, "m": p.m, "k": p.k}
        predicted = {"pk": p.n * (p.k + p.m), "sk": p.m**2, "sig": p.m}
        width = chameleon._entry_width(p.q)
        _, ifields = encoding.decode_record(inst_blob)
        _, tfields = encoding.decode_record(td_blob)
        _, rfields = encoding.decode_record(rnd_blob)
        rwidth = chameleon._randomness_width(p)
        measured = {
            "pk": (len(ifields[5]) + len(ifields[6])) // width,
            "sk": len(tfields[0]) // width,
            "sig": len(rfields[0]) // rwidth,
        }

    # byte overhead: transformed object minus what the base object alone costs
    base_sig = sig.base_sig
    measured_bytes = {
        "pk": len(pk_blob) - len(base_kp.public_key),
        "sk": len(sk_blob) - len(base_kp.secret_key),
        "sig": len(sig_blob) - len(base_sig.bytes),
    }

    return {
        "instantiation": params,
        "predicted_elements": predicted,
        "measured_elements": measured,
        "measured_bytes": measured_bytes,
        "match": {key: measured[key] == predicted[key] for key in predicted},
    }
