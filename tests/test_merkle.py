"""The stateful hash-based one-time-signature tree."""

import hashlib
import os
import threading
import time

import pytest

from toosign import merkle
from toosign.errors import CapacityError
from toosign.merkle import merkle_descriptor, merkle_keygen
from toosign.registry import scheme_keygen, scheme_sign, scheme_verify
from toosign.rng import rng_from_int


def _digest(msg: bytes) -> bytes:
    return hashlib.sha256(msg).digest()


def test_sign_verify_round_trip():
    kp = scheme_keygen(merkle_descriptor(3), rng_from_int(0))
    sig, state = scheme_sign(kp, _digest(b"hello"), rng_from_int(1))
    assert scheme_verify(kp.public_key, _digest(b"hello"), sig)
    assert not scheme_verify(kp.public_key, _digest(b"other"), sig)


def test_signing_is_deterministic_per_leaf():
    kp = scheme_keygen(merkle_descriptor(2), rng_from_int(2))
    s1, _ = scheme_sign(kp, _digest(b"m"), rng_from_int(10))
    s2, _ = scheme_sign(kp, _digest(b"m"), rng_from_int(99))
    assert s1.bytes == s2.bytes


def test_state_advances_and_leaves_differ():
    kp = scheme_keygen(merkle_descriptor(2), rng_from_int(3))
    sigs = []
    for i in range(4):
        sig, state = scheme_sign(kp, _digest(b"m"), rng_from_int(i))
        kp = kp.with_state(state)
        sigs.append(sig)
        assert scheme_verify(kp.public_key, _digest(b"m"), sig)
    assert len({s.bytes for s in sigs}) == 4


def test_capacity_exhaustion_raises():
    kp = scheme_keygen(merkle_descriptor(1), rng_from_int(4))
    for i in range(2):
        _, state = scheme_sign(kp, _digest(b"m"), rng_from_int(i))
        kp = kp.with_state(state)
    with pytest.raises(CapacityError):
        scheme_sign(kp, _digest(b"m"), rng_from_int(9))


def test_tampered_signature_rejected():
    kp = scheme_keygen(merkle_descriptor(2), rng_from_int(5))
    sig, _ = scheme_sign(kp, _digest(b"m"), rng_from_int(0))
    bad = bytearray(sig.bytes)
    bad[-1] ^= 1
    from toosign.registry import Signature

    assert not scheme_verify(
        kp.public_key, _digest(b"m"), Signature(bytes=bytes(bad), descriptor=sig.descriptor)
    )


def test_garbage_signature_rejected_not_raised():
    kp = scheme_keygen(merkle_descriptor(2), rng_from_int(6))
    from toosign.registry import Signature

    sig = Signature(bytes=b"not a signature", descriptor=kp.descriptor)
    assert scheme_verify(kp.public_key, _digest(b"m"), sig) is False


# (height, seed, SHA-256 prefixes of the public and the secret key), from
# the serial keygen that computed every leaf in one loop
TALL_TREES = [
    (6, 60, "d8d150330f384372", "76bbbdae9b73790b"),
    (7, 70, "5c981c71519c8f53", "f4fe7f8d301d6ba0"),
    (8, 80, "68a9223de992b52b", "6522b921f4ee8c47"),
    (10, 100, "25b406f3f02a3cb8", "76fb69f3bd45096d"),
]


def _fingerprint(height: int, seed: int) -> tuple[str, str]:
    kp = merkle_keygen(merkle_descriptor(height), rng_from_int(seed))
    return (
        hashlib.sha256(kp.public_key).hexdigest()[:16],
        hashlib.sha256(kp.secret_key).hexdigest()[:16],
    )


def _report_cores(monkeypatch, cores: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


@pytest.mark.parametrize("cores", [None, 3], ids=["host", "3-cores"])
def test_tall_tree_keys_are_pinned(monkeypatch, cores):
    """Keygen splits the leaves over the cores; the split never shows in the
    bytes, also when it is uneven (341/341/342 leaves at height 10)."""
    if cores:
        _report_cores(monkeypatch, cores)
    for height, seed, pk, sk in TALL_TREES:
        assert _fingerprint(height, seed) == (pk, sk), height


def _count_forks(monkeypatch) -> list[int]:
    """Reports two cores, so keygen forks on any host, and records each fork."""
    _report_cores(monkeypatch, 2)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def test_keygen_without_fork_gives_the_same_bytes(monkeypatch):
    def refuse():
        raise OSError("no more processes")

    _report_cores(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", refuse)
    height, seed, pk, sk = TALL_TREES[1]
    assert _fingerprint(height, seed) == (pk, sk)


def test_a_dying_child_is_replaced_by_the_parent(monkeypatch):
    parent = os.getpid()
    leaf_public = merkle._leaf_public

    def die_in_child(preimages):
        if os.getpid() != parent:
            os._exit(1)
        return leaf_public(preimages)

    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(merkle, "_leaf_public", die_in_child)
    height, seed, pk, sk = TALL_TREES[1]
    assert _fingerprint(height, seed) == (pk, sk)
    assert forks


def test_no_child_outlives_keygen(monkeypatch):
    forks = _count_forks(monkeypatch)
    height, seed, pk, sk = TALL_TREES[3]
    assert _fingerprint(height, seed) == (pk, sk)
    assert forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_interrupted_keygen_kills_its_children(monkeypatch):
    """An exception in the parent's own range, such as KeyboardInterrupt,
    kills and reaps every child at once, not when the child is done."""
    parent = os.getpid()

    def interrupt_parent(preimages):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        os._exit(1)

    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(merkle, "_leaf_public", interrupt_parent)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        merkle_keygen(merkle_descriptor(10), rng_from_int(0))
    assert time.monotonic() - started < 30
    assert forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_keygen_in_a_second_thread_does_not_fork(monkeypatch):
    forks = _count_forks(monkeypatch)
    height, seed, pk, sk = TALL_TREES[1]
    result = []
    worker = threading.Thread(target=lambda: result.append(_fingerprint(height, seed)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert result == [(pk, sk)]
    assert not forks
