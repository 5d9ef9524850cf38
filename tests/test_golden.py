"""Golden SHA-256 digests of seeded keys, signatures and game transcripts.

The seeded determinism contract says the same seed gives the same bytes.
These digests pin the bytes of the public key, the secret key and two
successive signatures for each chameleon parameter set, over the Merkle base
scheme and over the malleable wrapper, and the games the three challenger
hybrids play against the CLI's adversaries, so that a refactor or an
optimisation that changes any output byte fails here.
"""

import hashlib
import json

import pytest

from toosign import ChameleonKind, g_prime, s_prime, wrap_malleable
from toosign.cli import _ADVERSARIES as CLI_ADVERSARIES
from toosign.games import (
    ChallengerVariant,
    GameKind,
    game_report,
    make_transformed_challenger,
    run_game,
)
from toosign.merkle import merkle_descriptor
from toosign.oracle import production_oracle
from toosign.rng import rng_from_int

CHAMELEONS = {
    "dl-demo": (ChameleonKind.DL, {"name": "dl-demo"}),
    "dl-2048": (ChameleonKind.DL, {"name": "dl-2048"}),
    "sis-desk": (ChameleonKind.SIS, {"n": 4, "q": 257, "m": 12, "k": 8}),
}
BASES = {
    "merkle": lambda: merkle_descriptor(2),
    "malleable": lambda: wrap_malleable(merkle_descriptor(2)),
}

# (chameleon, base) -> sha256 hex prefixes of (pk, sk, first sig, second sig)
GOLDEN = {
    ("dl-demo", "merkle"): (
        "6eb06a6c06664a53",
        "be2f862e62d4f0f2",
        "30b50d69d32312f4",
        "aae6344111c94e12",
    ),
    ("dl-demo", "malleable"): (
        "b46da6880b8d7d2f",
        "6a2e537fcab809bd",
        "430be864c390ff3a",
        "5ee59eaa45a4d0de",
    ),
    ("dl-2048", "merkle"): (
        "275c2bdf293e9d9e",
        "3993dd346b796097",
        "fa020bb6a6a81bcf",
        "12e49923ec635058",
    ),
    ("dl-2048", "malleable"): (
        "49314429ebf86d2a",
        "98937d1f61d7cfd3",
        "f2d227e123b5873b",
        "4785ce91dab1832b",
    ),
    ("sis-desk", "merkle"): (
        "22f7fff455b5a386",
        "4967c061d4bb11d6",
        "bc14ce9ce1ef265d",
        "10adb4bd0b53cf0c",
    ),
    ("sis-desk", "malleable"): (
        "eb8c72223aba4a04",
        "4a72cb9ba39deb3c",
        "c6c91f464d7a3e79",
        "70267ee3a6d2427d",
    ),
}


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


def seeded_digests(ch: str, base: str) -> tuple[str, str, str, str]:
    kind, params = CHAMELEONS[ch]
    kp = g_prime(BASES[base](), kind, params, rng_from_int(1001))
    oracle = production_oracle(kp.ch_inst)
    out = [_digest(kp.public_bytes()), _digest(kp.secret_bytes())]
    for i, message in enumerate((b"golden message one", b"golden message two")):
        sig, kp = s_prime(kp, message, oracle, rng_from_int(2001 + i))
        out.append(_digest(sig.serialize(kp.ch_inst)))
    return tuple(out)


@pytest.mark.parametrize("ch, base", sorted(GOLDEN))
def test_golden_digests(ch, base):
    assert seeded_digests(ch, base) == GOLDEN[(ch, base)]


# ---------------------------------------------------------------------------
# game transcripts

GAME_SEEDS = range(3)

# (variant, chameleon, base) -> sha256 hex prefix over the CLI's six adversaries
GOLDEN_GAMES = {
    ("hyd0", "dl-demo", "malleable"): "c20c939e7f7ee473",
    ("hyd0", "dl-demo", "merkle"): "8c2f2bb3bd95ee94",
    ("hyd0", "sis-desk", "malleable"): "9b3a03d2753d0aee",
    ("hyd0", "sis-desk", "merkle"): "fe5d50d70be74983",
    # the first two hybrids are identical for adversaries that do not probe
    # the oracle at a future signing point
    ("hyd1", "dl-demo", "malleable"): "c20c939e7f7ee473",
    ("hyd1", "dl-demo", "merkle"): "8c2f2bb3bd95ee94",
    ("hyd1", "sis-desk", "malleable"): "9b3a03d2753d0aee",
    ("hyd1", "sis-desk", "merkle"): "fe5d50d70be74983",
    ("hyd2", "dl-demo", "malleable"): "e0bfd4f4c1c57db9",
    ("hyd2", "dl-demo", "merkle"): "b566f3e465d5ce7b",
    ("hyd2", "sis-desk", "malleable"): "163102837362592c",
    ("hyd2", "sis-desk", "merkle"): "5e3e64a18907c83d",
}


def game_digest(variant: str, ch: str, base: str) -> str:
    """Digest of SU games against one hybrid, for every CLI adversary.

    Covers each game's visible transcript, the bookkeeping of each signing
    query (signature, C, base signature, oracle value and randomness) and the
    `game_report` JSON.  The trace of the recorded range sample is left out:
    every trace of the same C opens to the same randomness, so no output
    depends on which trace is kept.
    """
    kind, params = CHAMELEONS[ch]
    h = hashlib.sha256()

    def put(blob: bytes) -> None:
        h.update(len(blob).to_bytes(4, "big") + blob)

    def make_challenger(master):
        return make_transformed_challenger(
            ChallengerVariant(variant), BASES[base](), kind, params, master
        )

    for name, make_adversary in sorted(CLI_ADVERSARIES.items()):
        put(name.encode())
        for seed in GAME_SEEDS:
            master = rng_from_int(seed)
            challenger = make_challenger(master)
            t = run_game(
                GameKind.SU, challenger, make_adversary(challenger), 4,
                master.fork(b"game"),
            )
            inst = challenger.kp.ch_inst
            put(t.visible_digest())
            for q in t.queries:
                put(q.sig_bytes)
                put(q.c_serial)
                put(q.base_sig_bytes)
                put(inst.serialize_message(q.m_value))
                put(inst.serialize_randomness(q.randomness))
        report = game_report(
            GameKind.SU, ChallengerVariant(variant), make_challenger, make_adversary,
            GAME_SEEDS,
        )
        put(json.dumps(report, sort_keys=True).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("variant, ch, base", sorted(GOLDEN_GAMES))
def test_golden_game_transcripts(variant, ch, base):
    assert game_digest(variant, ch, base) == GOLDEN_GAMES[(variant, ch, base)]
