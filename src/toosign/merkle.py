"""Stateful Lamport one-time signatures lifted by a Merkle tree.

This is the reference existentially-unforgeable base scheme fed to the
transform.  Messages are 256-bit digests; each leaf is a full-reveal Lamport
key (two 32-byte preimages per message bit) and the tree root is the public
key.  The secret key caches every tree node so signing only re-derives one
leaf's preimages plus an authentication path.

Key generation splits the leaves into contiguous ranges, one per usable core
and at least _LEAVES_PER_WORKER leaves each.  The caller computes the first
range and a forked child each other one, so a tree of fewer than twice that
many leaves never forks.  The children only hash: the seed is drawn before
they start, and a range whose child fails is computed by the caller.  The
keys are byte-identical to a serial keygen.
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import BinaryIO

from . import encoding
from .errors import CapacityError, DomainError, FormatError
from .registry import (
    KeyPair,
    MessageSpaceKind,
    SchemeDescriptor,
    SchemeImpl,
    Signature,
    register_scheme,
)
from .rng import Rng

SCHEME_ID_MERKLE = 1

DIGEST_BITS = 256
HASH = hashlib.sha256


def merkle_descriptor(height: int) -> SchemeDescriptor:
    if not 1 <= height <= 20:
        raise DomainError("tree height must be in [1, 20]")
    return SchemeDescriptor(
        scheme_id=SCHEME_ID_MERKLE,
        param_blob=bytes([height]),
        message_space_kind=MessageSpaceKind.FIXED_WIDTH_DIGEST,
    )


def _leaf_preimages(seed: bytes, leaf: int) -> bytes:
    """512 preimages of 32 bytes each, as one XOF output."""
    xof = hashlib.shake_256(seed + b"/leaf/" + leaf.to_bytes(4, "big"))
    return xof.digest(2 * DIGEST_BITS * 32)


def _leaf_public(preimages: bytes) -> bytes:
    """Leaf public key: the hash of the concatenated per-preimage hashes."""
    hashes = b"".join(
        [HASH(preimages[i : i + 32]).digest() for i in range(0, len(preimages), 32)]
    )
    return HASH(hashes).digest()


def _leaf_range(seed: bytes, start: int, stop: int) -> bytes:
    """The public keys of leaves start .. stop-1, packed in order."""
    return b"".join(
        [_leaf_public(_leaf_preimages(seed, leaf)) for leaf in range(start, stop)]
    )


# a fork costs about 3.5 ms and a leaf about 0.55 ms; below 64 leaves per
# worker the second core did not reliably pay for the fork
_LEAVES_PER_WORKER = 64


def _worker_count(leaves: int) -> int:
    most = leaves // _LEAVES_PER_WORKER
    # forking a process that runs other threads can copy a held lock
    if most < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(cores, most)


def _fork_range(seed: bytes, start: int, stop: int) -> tuple[int, BinaryIO]:
    """(pid, read end of a pipe) of a child that writes _leaf_range(seed,
    start, stop) to the pipe and exits 0; OSError if no child could be made."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the child never returns: _exit skips buffers and handlers
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(_leaf_range(seed, start, stop))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _leaf_keys(seed: bytes, leaves: int) -> bytes:
    """The public keys of all leaves, packed in order; see the module
    docstring for how the work is split.  Every child is reaped and every
    pipe closed before this returns or raises; a child not read to the end
    is killed first."""
    workers = _worker_count(leaves)
    bounds = [leaves * i // workers for i in range(workers + 1)]
    ranges = list(zip(bounds[1:-1], bounds[2:]))  # the children's ranges
    children = {}  # start -> (pid, pipe)
    output = {}  # start -> what its child wrote, read to the end
    try:
        for start, stop in ranges:
            try:
                children[start] = _fork_range(seed, start, stop)
            except OSError:
                pass
        parts = [_leaf_range(seed, 0, bounds[1])]
        for start, (_, pipe) in children.items():
            output[start] = pipe.read()
    finally:
        for start, (pid, pipe) in children.items():
            pipe.close()
            if start not in output:
                from signal import SIGKILL

                os.kill(pid, SIGKILL)
            if os.waitpid(pid, 0)[1]:
                output.pop(start, None)
    for start, stop in ranges:
        part = output.get(start, b"")
        if len(part) != 32 * (stop - start):
            part = _leaf_range(seed, start, stop)
        parts.append(part)
    return b"".join(parts)


def _build_tree(leaf_pubs: list[bytes]) -> list[list[bytes]]:
    """Levels bottom-up; level 0 is the leaves, last level is [root]."""
    levels = [leaf_pubs]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        levels.append(
            [HASH(prev[i] + prev[i + 1]).digest() for i in range(0, len(prev), 2)]
        )
    return levels


def _digest_bits(digest: bytes) -> list[int]:
    return [(digest[j // 8] >> (7 - j % 8)) & 1 for j in range(DIGEST_BITS)]


def merkle_keygen(descriptor: SchemeDescriptor, rng: Rng) -> KeyPair:
    height = descriptor.param_blob[0]
    seed = rng.random_bytes(32)
    keys = _leaf_keys(seed, 1 << height)
    levels = _build_tree([keys[i : i + 32] for i in range(0, len(keys), 32)])
    root = levels[-1][0]
    nodes = b"".join(b"".join(level) for level in levels)
    public_key = encoding.encode_record(encoding.TAG_MERKLE_PK, [bytes([height]), root])
    secret_key = encoding.encode_record(
        encoding.TAG_MERKLE_SK, [bytes([height]), seed, nodes]
    )
    return KeyPair(
        public_key=public_key,
        secret_key=secret_key,
        descriptor=descriptor,
        state=(0).to_bytes(8, "big"),
    )


_HEIGHTS = frozenset(bytes([h]) for h in range(1, 21))  # one byte in [1, 20]


def check_public_key(
    descriptor: SchemeDescriptor, public_key: bytes
) -> tuple[int, bytes]:
    """(height, root) of public_key; FormatError unless the descriptor and the
    key hold the same valid height and the root has 32 bytes."""
    height = descriptor.param_blob
    _, fields = encoding.decode_record(public_key, encoding.TAG_MERKLE_PK)
    lengths = [len(f) for f in fields]
    if height not in _HEIGHTS or lengths != [1, 32] or fields[0] != height:
        raise FormatError("malformed Merkle public key")
    return height[0], fields[1]


def _secret_key_fields(secret_key: bytes) -> tuple[int, bytes, bytes]:
    """(height, seed, nodes) of secret_key; FormatError unless it holds a
    height in [1, 20], a 32-byte seed and 2^(h+1) - 1 packed 32-byte nodes."""
    _, fields = encoding.decode_record(secret_key, encoding.TAG_MERKLE_SK)
    height = fields[0][0] if fields and fields[0] in _HEIGHTS else 0
    if not height or [len(f) for f in fields] != [1, 32, 32 * ((2 << height) - 1)]:
        raise FormatError("malformed Merkle secret key")
    return height, fields[1], fields[2]


def check_key_pair(kp: KeyPair) -> None:
    """FormatError unless kp can sign or is exactly used up: both keys fit the
    descriptor's height, the secret key's seed and 2^(h+1) - 1 packed nodes
    end with the public key's root (so this costs no hashing), and the state
    is a leaf index no greater than 2^h."""
    height, root = check_public_key(kp.descriptor, kp.public_key)
    sk_height, _, nodes = _secret_key_fields(kp.secret_key)
    if sk_height != height:
        raise FormatError("malformed Merkle secret key")
    if nodes[-32:] != root:
        raise FormatError("the public key does not belong to the secret key")
    if int.from_bytes(kp.state or b"", "big") > (1 << height):
        raise FormatError("key state exceeds tree capacity")


def merkle_sign(kp: KeyPair, digest: bytes, rng: Rng) -> tuple[Signature, bytes]:
    if len(digest) != 32:
        raise DomainError("merkle scheme signs 32-byte digests")
    height, seed, nodes = _secret_key_fields(kp.secret_key)
    next_leaf = int.from_bytes(kp.state or b"\x00" * 8, "big")
    if next_leaf >= (1 << height):
        raise CapacityError(f"all {1 << height} leaves consumed")
    preimages = _leaf_preimages(seed, next_leaf)
    # bit j reveals the preimage at offset o and hashes its pair partner at o ^ 32
    offsets = [64 * j + 32 * bit for j, bit in enumerate(_digest_bits(digest))]
    revealed = b"".join([preimages[o : o + 32] for o in offsets])
    complement = b"".join(
        [HASH(preimages[o ^ 32 : (o ^ 32) + 32]).digest() for o in offsets]
    )
    # nodes packs the levels bottom-up; level L starts at node 2^(h+1) - 2^(h+1-L)
    path = bytearray()
    idx = next_leaf
    for level in range(height):
        pos = 32 * ((2 << height) - (2 << (height - level)) + (idx ^ 1))
        path += nodes[pos : pos + 32]
        idx //= 2
    sig_bytes = encoding.encode_record(
        encoding.TAG_MERKLE_SIG,
        [next_leaf.to_bytes(4, "big"), revealed, complement, bytes(path)],
    )
    new_state = (next_leaf + 1).to_bytes(8, "big")
    return Signature(bytes=sig_bytes, descriptor=kp.descriptor), new_state


def merkle_verify(pk: bytes, digest: bytes, sig: Signature) -> bool:
    try:
        height, root = check_public_key(sig.descriptor, pk)
        _, fields = encoding.decode_record(sig.bytes, encoding.TAG_MERKLE_SIG)
        leaf_index_b, revealed, complement, path = fields
    except (FormatError, ValueError):
        return False
    if len(digest) != 32 or len(leaf_index_b) != 4:
        return False
    if len(revealed) != DIGEST_BITS * 32 or len(complement) != DIGEST_BITS * 32:
        return False
    if len(path) != height * 32:
        return False
    leaf_index = int.from_bytes(leaf_index_b, "big")
    if leaf_index >= (1 << height):
        return False
    hashes = bytearray()
    for j, bit in enumerate(_digest_bits(digest)):
        y_revealed = HASH(revealed[j * 32 : (j + 1) * 32]).digest()
        y_other = complement[j * 32 : (j + 1) * 32]
        if bit == 0:
            hashes += y_revealed + y_other
        else:
            hashes += y_other + y_revealed
    node = HASH(bytes(hashes)).digest()
    idx = leaf_index
    for level in range(height):
        sibling = path[level * 32 : (level + 1) * 32]
        if idx % 2 == 0:
            node = HASH(node + sibling).digest()
        else:
            node = HASH(sibling + node).digest()
        idx //= 2
    return node == root


register_scheme(
    SchemeImpl(
        scheme_id=SCHEME_ID_MERKLE,
        name="lamport-merkle",
        keygen=merkle_keygen,
        sign=merkle_sign,
        verify=merkle_verify,
    )
)
