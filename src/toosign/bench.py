"""Size-overhead report for the transform.

Measures how many ring elements (and bytes) the chameleon hash adds to the
public key, secret key and signature, and compares against the closed-form
predictions: for the lattice instantiation the public key grows by n(k+m)
Z_q elements, the secret key by m^2 and each signature by m.
"""

from __future__ import annotations

from .chameleon import ChameleonKind
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
    inst = kp.ch_inst
    oracle = production_oracle(inst)
    sig, _ = s_prime(kp, b"bench message", oracle, rng.fork(b"sign"))
    params, predicted, measured = inst.overhead_elements(kp.ch_td, sig.randomness)

    # byte overhead: transformed object minus what the base object alone costs
    measured_bytes = {
        "pk": len(kp.public_bytes()) - len(kp.base.public_key),
        "sk": len(kp.secret_bytes()) - len(kp.base.secret_key),
        "sig": len(sig.serialize(inst)) - len(sig.base_sig.bytes),
    }

    return {
        "instantiation": params,
        "predicted_elements": predicted,
        "measured_elements": measured,
        "measured_bytes": measured_bytes,
        "match": {key: measured[key] == predicted[key] for key in predicted},
    }
