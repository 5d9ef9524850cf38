"""Hash oracle: framing, production determinism, programmable bookkeeping."""

import copy

import numpy as np
import pytest

from toosign import chameleon
from toosign.chameleon import ChameleonKind
from toosign.errors import DomainError
from toosign.oracle import frame, production_oracle, programmable_oracle
from toosign.rng import rng_from_int


def dl_instance():
    inst, _ = chameleon.hg(ChameleonKind.DL, {"name": "dl-demo"}, rng_from_int(0))
    return inst


def sis_instance():
    inst, _ = chameleon.hg(
        ChameleonKind.SIS, {"n": 4, "q": 257, "m": 12, "k": 8}, rng_from_int(0)
    )
    return inst


def test_frame_worked_example():
    assert frame(b"AB", b"C") == b"\x00\x00\x00\x02ABC"


def test_frame_is_injective_on_shifted_pairs():
    # same concatenation, different split -> different frames
    assert frame(b"AB", b"C") != frame(b"A", b"BC")
    assert frame(b"", b"ABC") != frame(b"ABC", b"")


def test_production_deterministic_and_in_range():
    inst = dl_instance()
    o1, o2 = production_oracle(inst), production_oracle(inst)
    for data in [b"", b"x", b"hello world"]:
        v = o1.eval(data)
        assert v == o2.eval(data)
        assert 0 <= v < inst.q_grp


def test_production_respects_domain_tag():
    inst = dl_instance()
    a = production_oracle(inst, domain_tag=b"tag-a").eval(b"data")
    b = production_oracle(inst, domain_tag=b"tag-b").eval(b"data")
    # outputs on an 11-element range can collide; check the full stream
    vals_a = [production_oracle(inst, domain_tag=b"tag-a").eval(bytes([i])) for i in range(30)]
    vals_b = [production_oracle(inst, domain_tag=b"tag-b").eval(bytes([i])) for i in range(30)]
    assert vals_a != vals_b


def test_production_sis_output_is_bitvector():
    inst = sis_instance()
    v = np.asarray(production_oracle(inst).eval(b"data"))
    assert v.shape == (inst.params.k,)
    assert set(np.unique(v)) <= {0, 1}


def test_production_cannot_be_programmed():
    oracle = production_oracle(dl_instance())
    with pytest.raises(DomainError):
        oracle.program(b"x", 3)
    state = copy.deepcopy(vars(oracle))
    oracle.eval(b"x")
    assert vars(oracle) == state  # production keeps nothing per query


def test_programmable_is_lazy_and_consistent():
    oracle = programmable_oracle(dl_instance(), seed=b"\x03" * 32)
    v1 = oracle.eval(b"point")
    assert oracle.eval(b"point") == v1
    twin = programmable_oracle(dl_instance(), seed=b"\x03" * 32)
    assert twin.eval(b"point") == v1


def test_programming_overrides_and_is_logged_separately(oracle_spy):
    oracle = programmable_oracle(dl_instance(), seed=b"\x04" * 32)
    events = oracle_spy(oracle)
    oracle.program(b"point", 7)
    assert ("eval", b"point") not in events  # programming is not a query
    assert oracle.eval(b"point") == 7
    assert ("eval", b"point") in events
    assert ("program", b"point") in events


def test_query_log_records_order(oracle_spy):
    oracle = programmable_oracle(dl_instance(), seed=b"\x05" * 32)
    events = oracle_spy(oracle)
    oracle.eval(b"a")
    oracle.eval(b"b")
    oracle.eval(b"a")
    assert events == [("eval", b"a"), ("eval", b"b"), ("eval", b"a")]


def test_fresh_value_consumes_same_stream_as_lazy_eval():
    """A lazy eval and an explicit fresh_value draw the same stream element."""
    seed = b"\x06" * 32
    inst = dl_instance()
    lazy = programmable_oracle(inst, seed=seed).eval(b"anything")
    fresh = programmable_oracle(inst, seed=seed).fresh_value()
    assert lazy == fresh
