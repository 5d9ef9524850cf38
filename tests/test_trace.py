"""The traced benchmark's span installer against the current library.

`perfbench/spans.py` wraps toosign functions and methods by name; a renamed
or moved one would fail only under a traced run.  This enters and leaves
`installed` and checks that every wrapped attribute is put back.
"""

import importlib.util
import os
import sys

from toosign import registry, transform
from toosign.chameleon import ChameleonKind
from toosign.merkle import merkle_descriptor
from toosign.oracle import production_oracle
from toosign.rng import rng_from_int

SPANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py"
)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot() -> dict:
    """(owner, name) -> value over every toosign module, the classes they
    define, and the scheme registry."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "toosign" and not mod_name.startswith("toosign."):
            continue
        for key, val in vars(mod).items():
            out[(mod_name, key)] = val
            if isinstance(val, type) and val.__module__ == mod_name:
                for attr, member in vars(val).items():
                    out[(f"{mod_name}.{key}", attr)] = member
    for scheme_id, impl in registry._REGISTRY.items():
        out[("registry", scheme_id)] = impl
    return out


def test_installed_spans_wrap_and_restore_every_attribute():
    spans = load_spans()
    from toosign import games, sis  # noqa: F401 - installed wraps both

    before = snapshot()
    with spans.installed(spans.Recorder()) as rec:
        during = snapshot()
        # through the module, whose names installed replaces
        kp = transform.g_prime(merkle_descriptor(1), ChameleonKind.DL,
                               {"name": "dl-demo"}, rng_from_int(0))
        oracle = production_oracle(kp.ch_inst)
        sig, kp = transform.s_prime(kp, b"traced", oracle, rng_from_int(1))
        pk = transform.public_key_of(kp)
        assert transform.v_prime(pk, b"traced", sig, oracle)
    after = snapshot()

    wrapped = [k for k, v in before.items() if during.get(k) is not v]
    assert ("toosign.oracle.OracleContext", "eval") in wrapped
    assert ("toosign.chameleon", "hg") in wrapped
    for span in ("transform.s_prime", "oracle.eval", "merkle.sign", "merkle.verify"):
        assert span in rec.buckets["setup"]["self_ns"], span
    assert after.keys() == before.keys()
    changed = [k for k, v in before.items() if after[k] is not v]
    assert changed == []
