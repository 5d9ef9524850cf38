"""The stateful hash-based one-time-signature tree."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from toosign import encoding, merkle
from toosign.merkle import DIGEST_BITS, merkle_descriptor, merkle_keygen
from toosign.registry import Signature, scheme_keygen, scheme_sign
from toosign.rng import rng_from_int


def test_signing_is_deterministic_per_leaf():
    """A leaf's signature depends on the key and the digest, not the rng."""
    kp = scheme_keygen(merkle_descriptor(2), rng_from_int(2))
    digest = hashlib.sha256(b"m").digest()
    s1, _ = scheme_sign(kp, digest, rng_from_int(10))
    s2, _ = scheme_sign(kp, digest, rng_from_int(99))
    assert s1.bytes == s2.bytes


# SHA-256 prefixes of the signature on each leaf 0-7 of the h=3 key of seed 30
LAMPORT_PINS = {
    bytes(32): "dbe9e122 dbc4b9bc 2c1f8b71 813af197 1c7e5e46 4da5fa8f fd11bc0f 9ac0b828",
    b"\xff" * 32: "d228baaf 6e5a96d2 0bc43b90 18bf791c 3a95d4b5 196f843d 23f4bc07 2b99ae39",
    b"\x55" * 32: "933161ff 51f6f82b b49e45a5 e5ecaeed 3d694129 1297e975 dfcbd3ba 02ac0d5f",
    b"\xaa" * 32: "34fb9724 4d1e0a2b ddff6924 c1df8662 06e62add 0adb24e7 152912dd c767b3ea",
    b"\x80" + bytes(31): "9024d5d7 4baf4ee6 a7662eae 19bbabe6 9d3fe031 13c60104 90116769 14e315a5",
    bytes(31) + b"\x01": "23f8e5c1 b0b1d5cf b79562c5 78e5fedc 4c59baaa f0389fab 8be3c9be 16c0be81",
}


def _h3_key():
    return merkle_keygen(merkle_descriptor(3), rng_from_int(30))


def _sign_leaf(kp, leaf: int, digest: bytes) -> Signature:
    return merkle.merkle_sign(kp.with_state(leaf.to_bytes(8, "big")), digest, rng_from_int(0))[0]


@pytest.mark.parametrize("digest", list(LAMPORT_PINS), ids=lambda d: d.hex()[:4] + d.hex()[-2:])
def test_lamport_signatures_are_pinned(digest):
    kp = _h3_key()
    sigs = [_sign_leaf(kp, leaf, digest) for leaf in range(8)]
    assert " ".join(hashlib.sha256(s.bytes).hexdigest()[:8] for s in sigs) == LAMPORT_PINS[digest]
    assert all(merkle.merkle_verify(kp.public_key, digest, s) for s in sigs)


def _chunk(field: bytes, j: int) -> bytes:
    return field[32 * j : 32 * j + 32]


def _put(field: bytes, j: int, chunk: bytes) -> bytes:
    return field[: 32 * j] + chunk + field[32 * j + 32 :]


@pytest.mark.parametrize("bit", [0, 1])
def test_lamport_forgeries_are_rejected(bit):
    """Digest bit j = bit (0x55 bytes: bit j is j % 2) and a leaf index whose
    low bit is bit, so each chunk and path node is checked in both orders.
    merkle_verify is called itself, as scheme_verify catches every exception:
    a field of the wrong length returns False before it is split into chunks."""
    kp = _h3_key()
    digest, j, leaf = b"\x55" * 32, bit, 4 + bit
    sig = _sign_leaf(kp, leaf, digest)
    index, revealed, complement, path = encoding.decode_record(
        sig.bytes, encoding.TAG_MERKLE_SIG)[1]
    _, seed, nodes = merkle._secret_key_fields(kp.secret_key)

    def verifies(fields, signed=digest):
        blob = encoding.encode_record(encoding.TAG_MERKLE_SIG, fields)
        return merkle.merkle_verify(kp.public_key, signed, Signature(blob, sig.descriptor))

    assert verifies([index, revealed, complement, path])
    forgeries = {
        "chunk swapped with its complement": [
            index, _put(revealed, j, _chunk(complement, j)),
            _put(complement, j, _chunk(revealed, j)), path],
        "sibling leaf index": [(leaf ^ 1).to_bytes(4, "big"), revealed, complement, path],
    }
    for level in range(3):  # node on the path at level L: see merkle_sign
        own = 32 * ((2 << 3) - (2 << (3 - level)) + (leaf >> level))
        forgeries[f"path node {level} replaced by its sibling"] = [
            index, revealed, complement, _put(path, level, nodes[own : own + 32])]
    fields = [index, revealed, complement, path]
    for k, name in enumerate(["index", "revealed", "complement", "path"]):
        for size, field in [("one byte short", fields[k][:-1]),
                            ("one byte long", fields[k] + b"\0"),
                            ("32 bytes short", fields[k][:-32])]:
            forgeries[f"{name} {size}"] = fields[:k] + [field] + fields[k + 1 :]
    accepted = [name for name, fields in forgeries.items() if verifies(fields) is not False]
    assert not accepted

    # revealing the partner preimage instead signs the digest with bit j flipped
    preimages = merkle._leaf_preimages(seed, leaf)
    partner = preimages[64 * j + 32 * (1 - bit) : 64 * j + 32 * (2 - bit)]
    other = [index, _put(revealed, j, partner),
             _put(complement, j, hashlib.sha256(_chunk(revealed, j)).digest()), path]
    flipped = bytes([digest[0] ^ (0x80 >> j)]) + digest[1:]
    assert not verifies(other) and verifies(other, flipped)


def test_byte_tables_match_the_bit_by_bit_reference():
    """For every digest byte, the selector bytes and the leaf-order getter
    agree with the bit string of the byte read one bit at a time: preimage
    2j + b is revealed when bit j is b, and the leaf's hashes alternate
    between found (revealed) and complement hashes in that order."""
    reveal = str.maketrans({"0": "\1\0", "1": "\0\1"})
    hide = str.maketrans({"0": "\0\1", "1": "\1\0"})
    found = [f"found {i}" for i in range(8)]
    complement = [f"complement {i}" for i in range(8)]
    assert len(merkle._REVEAL) == len(merkle._LEAF_ORDER) == 256
    for v in range(256):
        bits = format(v, "08b")
        selectors = bits.translate(reveal).encode()
        assert merkle._REVEAL[v] == selectors, v
        assert merkle._REVEAL[v].translate(merkle._SWAP) == bits.translate(hide).encode(), v
        sources = (iter(complement), iter(found))
        in_order = [next(sources[s]) for s in selectors]
        assert list(merkle._LEAF_ORDER[v](tuple(found + complement))) == in_order, v


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=32, max_size=32), st.integers(0, DIGEST_BITS - 1))
def test_random_digests_sign_verify_and_a_flipped_bit_rejects(digest, bit):
    kp = _h3_key()
    flipped = (int.from_bytes(digest, "big") ^ (1 << bit)).to_bytes(32, "big")
    for leaf in range(8):
        sig = _sign_leaf(kp, leaf, digest)
        assert merkle.merkle_verify(kp.public_key, digest, sig) is True, leaf
        assert merkle.merkle_verify(kp.public_key, flipped, sig) is False, leaf


def _leaves(kp) -> list[bytes]:
    """The leaf public keys of kp, the level-0 nodes of its secret key."""
    nodes = merkle._secret_key_fields(kp.secret_key)[2]
    return [nodes[32 * leaf : 32 * leaf + 32] for leaf in range(1 << kp.descriptor.param_blob[0])]


def test_kept_leaf_hashes_hash_to_their_keys_and_stay_within_64_leaves():
    """Keygen keeps the leaves of a tree of at most 64 leaves, each under the
    hash of what it keeps.  Past 64 the least recently used leaf goes first,
    and a sign makes each leaf of its tree the most recently used; a taller
    tree keeps nothing."""
    keys = []
    for seed in range(17):  # 68 leaves
        keys.append(merkle_keygen(merkle_descriptor(2), rng_from_int(seed)))
        assert len(merkle._KEPT) == min(4 * len(keys), 64)
        if len(keys) == 16:  # full: the first key's leaves would go next
            _sign_leaf(keys[0], 2, bytes(32))
    first, _, *middle, last = map(_leaves, keys)
    assert list(merkle._KEPT) == [*sum(middle, []), *first, *last]
    assert all(len(hashes) == 32 * 2 * DIGEST_BITS and hashlib.sha256(hashes).digest() == key
               for key, hashes in merkle._KEPT.items())
    kept = list(merkle._KEPT.items())
    merkle_keygen(merkle_descriptor(7), rng_from_int(0))
    assert list(merkle._KEPT.items()) == kept
    leaves = _leaves(merkle_keygen(merkle_descriptor(6), rng_from_int(1)))
    assert list(merkle._KEPT) == leaves


def test_signing_while_other_threads_evict_gives_the_same_bytes():
    """Two threads sign every leaf of one key over and over while two more
    make keys that evict those leaves, with a switch interval short enough
    to interleave them mid-call.  No sign raises, every signature keeps its
    bytes whether its leaf was kept or hashed again, and the map stays
    within its bound, each value under its own hash."""
    kp, digest = _h3_key(), b"\x55" * 32
    pins = LAMPORT_PINS[digest].split()
    stop, wrong, errors = threading.Event(), [], []

    def sign():
        for _ in range(10):
            for leaf in range(8):
                sig = _sign_leaf(kp, leaf, digest)
                if hashlib.sha256(sig.bytes).hexdigest()[:8] != pins[leaf]:
                    wrong.append(leaf)

    def evict(seed):
        while not stop.is_set():
            merkle_keygen(merkle_descriptor(2), rng_from_int(seed))
            seed += 2

    def run(work, *args):
        try:
            work(*args)
        except Exception as e:  # fails the test, also where a thread error only warns
            errors.append(e)

    threads = [threading.Thread(target=run, args=a) for a in
               [(sign,), (sign,), (evict, 100), (evict, 101)]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads[:2]:
            t.join(timeout=60)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and not wrong
    assert len(merkle._KEPT) <= 64
    assert all(hashlib.sha256(hashes).digest() == key for key, hashes in merkle._KEPT.items())


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


@pytest.mark.parametrize("height, workers", [(2, 1), (7, 1), (8, 2), (10, 2)])
def test_worker_count_on_two_cores(monkeypatch, height, workers):
    """A worker gets at least 128 leaves, so height 7 stays serial."""
    _report_cores(monkeypatch, 2)
    assert merkle._worker_count(1 << height) == workers


def test_keygen_without_fork_gives_the_same_bytes(monkeypatch):
    refused = []

    def refuse():
        refused.append(1)
        raise OSError("no more processes")

    _report_cores(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", refuse)
    height, seed, pk, sk = TALL_TREES[2]
    assert _fingerprint(height, seed) == (pk, sk)
    assert refused


def test_a_dying_child_is_replaced_by_the_parent(monkeypatch):
    parent = os.getpid()
    leaf_public = merkle._leaf_public

    def die_in_child(preimages):
        if os.getpid() != parent:
            os._exit(1)
        return leaf_public(preimages)

    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(merkle, "_leaf_public", die_in_child)
    height, seed, pk, sk = TALL_TREES[2]
    assert _fingerprint(height, seed) == (pk, sk)
    assert forks


def test_a_failed_fork_after_a_child_is_computed_by_the_parent(monkeypatch):
    """One range comes from a child, the caller computes the first and the
    one whose fork failed (341/341/342 leaves at height 10)."""
    _report_cores(monkeypatch, 3)
    forks = []
    fork = os.fork

    def fork_once():
        if forks:
            raise OSError("no more processes")
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    height, seed, pk, sk = TALL_TREES[3]
    assert _fingerprint(height, seed) == (pk, sk)
    assert forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    height, seed, pk, sk = TALL_TREES[2]
    result = []
    worker = threading.Thread(target=lambda: result.append(_fingerprint(height, seed)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert result == [(pk, sk)]
    assert not forks


WITHOUT_BUILTIN_SHA256 = """
import hashlib, json, sys

sys.modules["_sha256"] = sys.modules["_sha2"] = None  # importing either raises
from toosign import merkle
from toosign.rng import rng_from_int

assert merkle.CHUNK_HASH is hashlib.sha256
kp = merkle.merkle_keygen(merkle.merkle_descriptor(3), rng_from_int(30))
pins = {}
for digest in map(bytes.fromhex, sys.argv[3:]):
    sigs = [merkle.merkle_sign(kp.with_state(leaf.to_bytes(8, "big")), digest,
                               rng_from_int(0))[0] for leaf in range(8)]
    assert all(merkle.merkle_verify(kp.public_key, digest, s) for s in sigs)
    pins[digest.hex()] = " ".join(hashlib.sha256(s.bytes).hexdigest()[:8] for s in sigs)
height, seed = map(int, sys.argv[1:3])
tall = merkle.merkle_keygen(merkle.merkle_descriptor(height), rng_from_int(seed))
print(json.dumps({"pins": pins, "tall": [hashlib.sha256(k).hexdigest()[:16]
                                         for k in (tall.public_key, tall.secret_key)]}))
"""


def test_chunk_hash_fallback_gives_the_same_bytes():
    """The 32-byte chunk hash is CPython's built-in SHA-256 where the module
    exists, so a rename in CPython fails here; with both modules blocked it is
    hashlib's, and every pinned signature and key stays byte for byte."""
    if sys.implementation.name == "cpython":
        assert merkle.CHUNK_HASH is not hashlib.sha256
    env = dict(os.environ)
    src = str(pathlib.Path(merkle.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    height, seed, pk, sk = TALL_TREES[0]
    r = subprocess.run(
        [sys.executable, "-c", WITHOUT_BUILTIN_SHA256, str(height), str(seed),
         *(d.hex() for d in LAMPORT_PINS)],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 0, r.stderr
    found = json.loads(r.stdout)
    assert found["pins"] == {d.hex(): pin for d, pin in LAMPORT_PINS.items()}
    assert found["tall"] == [pk, sk]
