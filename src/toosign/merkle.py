"""Stateful Lamport one-time signatures lifted by a Merkle tree.

This is the reference existentially-unforgeable base scheme fed to the
transform.  Messages are 256-bit digests; each leaf is a full-reveal Lamport
key (two 32-byte preimages per message bit) and the tree root is the public
key.  The secret key caches every tree node, so signing derives one leaf's
preimages, hashes the 256 it hides and reads an authentication path.  Keygen,
signing and verifying split a leaf or a signature field into its 32-byte
chunks with one precompiled struct unpack each.

Signing and verifying run no Python per digest bit, only the hash calls.
Two tables indexed by a digest byte, built at import in about 0.12 ms,
hold its 16 selector bytes and a getter that puts its 16 leaf hashes in
order.  Signing joins the selector bytes of the 32 digest bytes and picks
the revealed chunks with itertools.compress, then the hidden ones with the
same bytes swapped.  Verifying cuts the 256 found and the 256 given hashes
into groups of 8 with zip and orders each byte's 16 with its getter.

The hash is chosen by input size.  A 32-byte chunk, of which a leaf hashes
512, goes to CPython's own C SHA-256: 0.33 us a call against 0.43 us through
OpenSSL's EVP, whose per-call set-up dominates at one block.  From 64 bytes
on OpenSSL is as fast or faster (12 us against 67 us on 16 kB), so the leaf
hash over 16 kB and the 64-byte tree nodes stay on hashlib.  Both compute
SHA-256, so the bytes do not depend on which one runs.

Key generation splits the leaves into contiguous ranges, one per usable core
and at least _LEAVES_PER_WORKER leaves each.  The caller computes the first
range and a forked child each other one, so a tree of fewer than twice that
many leaves never forks.  Each child writes its keys into its slice of one
anonymous shared map and exits.  The children only hash: the seed is drawn
before they start, and a range whose fork or child fails is computed by the
caller.  The keys are byte-identical to a serial keygen.

Keygen of a tree of at most _KEPT_LEAVES (64) leaves, which never forks,
also keeps each leaf's 512 chunk hashes in memory under the leaf's public
key.  A sign of such a leaf reads its 256 hidden hashes from there instead
of hashing the preimages again.  The map is least-recently-used, a sign
marks each kept leaf of its tree as used, and it holds at most 64 leaves
of 16 kB (1 MB).  It holds nothing secret: the hashes are
one-way images of the preimages, a signature of the leaf discloses all 512
of them, and the revealed preimages are still derived from the seed.  A
leaf that is not kept, such as one of a key read from a file or of a taller
tree, is hashed as before, to the same bytes.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
import threading
from collections import OrderedDict
from contextlib import suppress
from itertools import chain, compress, product
from operator import itemgetter

from . import encoding
from .errors import CapacityError, DomainError, FormatError
from .registry import (
    KeyPair,
    SchemeDescriptor,
    SchemeImpl,
    Signature,
    register_scheme,
)
from .rng import Rng

SCHEME_ID_MERKLE = 1

DIGEST_BITS = 256
HASH = hashlib.sha256
try:  # CPython's built-in SHA-256, for 32-byte chunks; see the module docstring
    from _sha256 import sha256 as CHUNK_HASH  # 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256 as CHUNK_HASH  # 3.12 and later
    except ImportError:
        CHUNK_HASH = hashlib.sha256

# a leaf's 512 preimages, and a signature's 256-chunk Lamport field, as
# 32-byte chunks; preimage 2j + b is revealed when digest bit j is b
_LEAF_CHUNKS = struct.Struct("32s" * (2 * DIGEST_BITS)).unpack
_FIELD_CHUNKS = struct.Struct("32s" * DIGEST_BITS).unpack
# digest byte -> its 16 preimages' selector bytes, 1 where revealed; product
# varies its first factor slowest, so entry v reads v's bits from the top
_REVEAL = tuple(map(b"".join, product((b"\1\0", b"\0\1"), repeat=8)))
_SWAP = bytes.maketrans(b"\0\1", b"\1\0")  # revealed <-> hidden
# digest byte -> the getter that puts its 8 revealed-preimage hashes (items
# 0-7) and 8 complement hashes (items 8-15) in leaf order: bit i of the byte,
# from the top, takes item i then 8 + i when it is 0, and 8 + i then i if 1
_LEAF_ORDER = tuple(
    itemgetter(*order)
    for order in map(
        b"".join, product(*[(bytes([i, 8 + i]), bytes([8 + i, i])) for i in range(8)])
    )
)


def merkle_descriptor(height: int) -> SchemeDescriptor:
    if not 1 <= height <= 20:
        raise DomainError("tree height must be in [1, 20]")
    return SchemeDescriptor(scheme_id=SCHEME_ID_MERKLE, param_blob=bytes([height]))


def _leaf_preimages(seed: bytes, leaf: int) -> bytes:
    """512 preimages of 32 bytes each, as one XOF output."""
    xof = hashlib.shake_256(seed + b"/leaf/" + leaf.to_bytes(4, "big"))
    return xof.digest(2 * DIGEST_BITS * 32)


def _leaf_hashes(preimages: bytes) -> bytes:
    """The 512 per-preimage hashes, packed in order."""
    return b"".join([CHUNK_HASH(c).digest() for c in _LEAF_CHUNKS(preimages)])


def _leaf_public(preimages: bytes) -> bytes:
    """Leaf public key: the hash of the concatenated per-preimage hashes."""
    return HASH(_leaf_hashes(preimages)).digest()


# leaf public key -> the leaf's packed chunk hashes, least recently used
# first; see the module docstring.  Each OrderedDict call is atomic, and the
# lock keeps one writer's insert and eviction together
_KEPT: OrderedDict[bytes, bytes] = OrderedDict()
_KEPT_LEAVES = 64
_KEPT_LOCK = threading.Lock()


def _kept_leaf_public(preimages: bytes) -> bytes:
    """_leaf_public, keeping the chunk hashes under the key it returns."""
    hashes = _leaf_hashes(preimages)
    key = HASH(hashes).digest()
    with _KEPT_LOCK:
        _KEPT[key] = hashes
        _KEPT.move_to_end(key)
        if len(_KEPT) > _KEPT_LEAVES:
            _KEPT.popitem(last=False)
    return key


def _kept_hashes(nodes: bytes, leaves: int, leaf: int) -> bytes | None:
    """The kept chunk hashes of leaf of the tree whose packed nodes start
    with its leaves' public keys, or None if they are not kept.  A hit marks
    each kept leaf of the tree as the most recently used, since a key signs
    its leaves in turn.  A miss takes no lock, so a tree too tall to keep
    signs at the cost of one dict lookup."""
    hashes = _KEPT.get(nodes[32 * leaf : 32 * leaf + 32])
    if hashes is not None:
        for i in range(0, 32 * leaves, 32):
            with suppress(KeyError):  # not kept, or evicted by another thread
                _KEPT.move_to_end(nodes[i : i + 32])
    return hashes


def _leaf_range(seed: bytes, start: int, stop: int, keep: bool) -> bytes:
    """The public keys of leaves start .. stop-1, packed in order; with keep,
    each leaf's chunk hashes are kept as well."""
    public = _kept_leaf_public if keep else _leaf_public
    return b"".join([public(_leaf_preimages(seed, leaf)) for leaf in range(start, stop)])


# a fork costs about 1.2 ms and a leaf 0.24-0.29 ms.  Two workers of 64
# leaves tie with one (faster in 29 of 60 pairs), two of 128 take 0.6 of the
# serial time: a fork first pays at height 8, so height 7 stays serial
_LEAVES_PER_WORKER = 128


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


def _leaf_keys(seed: bytes, leaves: int) -> bytes:
    """The public keys of all leaves, packed in order; see the module
    docstring for how the work is split.  Every child is reaped before this
    returns or raises, and killed first only if the caller's own work raised.
    A tree small enough to keep whole never forks, so the caller keeps it."""
    workers = _worker_count(leaves)
    keep = leaves <= _KEPT_LEAVES
    bounds = [leaves * i // workers for i in range(workers + 1)]
    ranges = list(zip(bounds[:-1], bounds[1:]))
    own = ranges[:1]  # the caller's ranges: the first and each one not forked
    children = {}  # pid -> the range its child writes
    with mmap.mmap(-1, 32 * leaves) as keys:  # anonymous, so shared across fork

        def fill(start: int, stop: int) -> None:
            keys[32 * start : 32 * stop] = _leaf_range(seed, start, stop, keep)

        try:
            for start, stop in ranges[1:]:
                try:
                    pid = os.fork()
                except OSError:
                    own.append((start, stop))
                    continue
                if pid == 0:  # the child never returns: _exit skips buffers and handlers
                    try:
                        fill(start, stop)
                        os._exit(0)
                    finally:
                        os._exit(1)
                children[pid] = (start, stop)
            for start, stop in own:
                fill(start, stop)
        except BaseException:
            from signal import SIGKILL

            for pid in children:
                os.kill(pid, SIGKILL)
            raise
        finally:
            failed = [r for pid, r in children.items() if os.waitpid(pid, 0)[1]]
        for start, stop in failed:
            fill(start, stop)
        return keys[:]


def _build_tree(leaf_pubs: list[bytes]) -> list[list[bytes]]:
    """Levels bottom-up; level 0 is the leaves, last level is [root]."""
    levels = [leaf_pubs]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        levels.append(
            [HASH(prev[i] + prev[i + 1]).digest() for i in range(0, len(prev), 2)]
        )
    return levels


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
    key_height, root = encoding.decode_fields(public_key, encoding.TAG_MERKLE_PK, 2)
    if height not in _HEIGHTS or key_height != height or len(root) != 32:
        raise FormatError("malformed Merkle public key")
    return height[0], root


def _secret_key_fields(secret_key: bytes) -> tuple[int, bytes, bytes]:
    """(height, seed, nodes) of secret_key; FormatError unless it holds a
    height in [1, 20], a 32-byte seed and 2^(h+1) - 1 packed 32-byte nodes."""
    height_b, seed, nodes = encoding.decode_fields(secret_key, encoding.TAG_MERKLE_SK, 3)
    height = height_b[0] if height_b in _HEIGHTS else 0
    if not height or len(seed) != 32 or len(nodes) != 32 * ((2 << height) - 1):
        raise FormatError("malformed Merkle secret key")
    return height, seed, nodes


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
    chunks = _LEAF_CHUNKS(_leaf_preimages(seed, next_leaf))
    selectors = b"".join(map(_REVEAL.__getitem__, digest))
    revealed = b"".join(compress(chunks, selectors))
    hidden = selectors.translate(_SWAP)
    # read by the leaf's node: a key whose nodes do not come from its seed
    # gives a signature that fails to verify, from kept hashes or not
    hashes = _kept_hashes(nodes, 1 << height, next_leaf)
    if hashes is None:
        complement = b"".join([CHUNK_HASH(c).digest() for c in compress(chunks, hidden)])
    else:
        complement = b"".join(compress(_LEAF_CHUNKS(hashes), hidden))
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
        leaf_index_b, revealed, complement, path = encoding.decode_fields(
            sig.bytes, encoding.TAG_MERKLE_SIG, 4
        )
    except FormatError:
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
    found = iter([CHUNK_HASH(c).digest() for c in _FIELD_CHUNKS(revealed)])
    given = iter(_FIELD_CHUNKS(complement))
    # the leaf's 512 hashes in order, 16 per digest byte: its 8 found then
    # its 8 given hashes, put in leaf order by that byte's getter
    groups = zip(*[found] * 8, *[given] * 8)
    ordered = map(itemgetter.__call__, map(_LEAF_ORDER.__getitem__, digest), groups)
    node = HASH(b"".join(chain.from_iterable(ordered))).digest()
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
        keygen=merkle_keygen,
        sign=merkle_sign,
        verify=merkle_verify,
    )
)
