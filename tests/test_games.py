"""Unforgeability games: adversaries, hybrids, classification, extraction."""

import math

import numpy as np
import pytest

from toosign import chameleon, encoding, games
from toosign.chameleon import ChameleonKind, CollisionVerdict
from toosign.errors import GameError
from toosign.games import (
    BudgetBuster,
    CaseOneForger,
    CaseTwoForger,
    ChallengerVariant,
    GameKind,
    GarbageForger,
    LuckyGuesser,
    ProbingAdversary,
    RawChallenger,
    ReplayAdversary,
    case2_extract,
    classify_forgery,
    game_report,
    hybrid_transcript_compare,
    make_transformed_challenger,
    run_game,
    wrap_malleable,
)
from toosign.merkle import merkle_descriptor
from toosign.rng import rng_from_int
from toosign.transform import TransformedKeyPair, TransformedPublicKey

SIS_PARAMS = {"n": 4, "q": 257, "m": 12, "k": 8}
DL_DEMO = {"name": "dl-demo"}


def challenger(master, variant=ChallengerVariant.HYD0, ch=ChameleonKind.SIS,
               params=SIS_PARAMS):
    return make_transformed_challenger(variant, merkle_descriptor(2), ch, params, master)


def play(seed, make_adversary, kind=GameKind.SU, budget=4, **challenger_args):
    """One seeded game against a fresh `challenger`."""
    return games.play(kind, seed, lambda m: challenger(m, **challenger_args),
                      make_adversary, budget)


def test_replay_loses_strong_game():
    assert play(0, lambda ch: ReplayAdversary()).verdict is False


def test_replay_also_loses_existential_game():
    assert play(1, lambda ch: ReplayAdversary(), kind=GameKind.EU).verdict is False


def test_garbage_loses():
    assert play(2, lambda ch: GarbageForger()).verdict is False


def test_budget_violation_flagged():
    t = play(3, lambda ch: BudgetBuster(), budget=3)
    assert t.budget_violation and t.verdict is False


def test_negative_budget_is_refused():
    with pytest.raises(GameError):
        play(3, lambda ch: ReplayAdversary(), budget=-1)
    t = play(3, lambda ch: ReplayAdversary(), budget=0)
    assert t.budget_violation and t.verdict is False


@pytest.mark.parametrize("make_adversary", [
    CaseOneForger, CaseTwoForger, lambda ch: LuckyGuesser(),
], ids=["case1", "case2", "lucky"])
def test_transformed_only_adversaries_refuse_a_raw_challenger(make_adversary):
    desc = wrap_malleable(merkle_descriptor(2))
    with pytest.raises(GameError):
        games.play(GameKind.SU, 0, lambda m: RawChallenger(desc, m), make_adversary, 4)


def pad_randomness(sig_bytes: bytes) -> bytes:
    """The signature with a zero byte in front of its DL randomness integer."""
    tag, (base, record) = encoding.decode_record(sig_bytes, encoding.TAG_TRANSFORMED_SIG)
    _, (r,) = encoding.decode_record(record, encoding.TAG_RANDOMNESS)
    padded = encoding.encode_record(encoding.TAG_RANDOMNESS, [b"\x00" + r])
    return encoding.encode_record(tag, [base, padded])


class PaddingMauler(ReplayAdversary):
    """Resubmits a DL signature with the same r in bytes s' never writes."""

    message = b"pad me"

    def forge(self, sig_bytes):
        return super().forge(pad_randomness(sig_bytes))


class ShiftMauler(ReplayAdversary):
    """Moves the first entry of a SIS signature's randomness `shift` further
    from zero: the hash mod q is unchanged when q divides the shift."""

    message = b"shift me"

    def __init__(self, shift: int):
        self.shift = shift

    def start(self, pk_bytes, rng):
        super().start(pk_bytes, rng)
        self.inst = TransformedPublicKey.deserialize(pk_bytes).ch_inst

    def forge(self, sig_bytes):
        tag, (base, record) = encoding.decode_record(
            sig_bytes, encoding.TAG_TRANSFORMED_SIG
        )
        r = list(self.inst.deserialize_randomness(record))
        r[0] += self.shift if r[0] >= 0 else -self.shift
        shifted = encoding.encode_record(tag, [base, self.inst.serialize_randomness(r)])
        return super().forge(shifted)


@pytest.mark.parametrize("group", ["dl-demo", "dl-2048"])
def test_padded_dl_randomness_loses_strong_game(group):
    for seed in range(3):
        t = play(seed, lambda ch: PaddingMauler(), ch=ChameleonKind.DL, params={"name": group})
        assert t.forgery_sig_bytes != t.queries[0].sig_bytes
        assert t.verdict is False


def test_sis_randomness_beyond_the_norm_bound_loses_strong_game():
    for seed in range(5):  # |r_1| >= 10 q > s sqrt(m)
        t = play(seed, lambda ch: ShiftMauler(10 * ch.kp.ch_inst.params.q))
        assert t.verdict is False


def test_sis_desk_collisions_are_trivial_to_find():
    """On sis-desk s sqrt(m) ~ 2226 exceeds q = 257, so r + q e_1 stays short
    and opens the same range value: a valid collision that costs nothing.

    The reduction holds (each win is a case-2 collision, z = q e_1 up to
    sign), but the parameter set gives no collision resistance.
    """
    for seed in range(20):
        t = play(seed, lambda ch: ShiftMauler(ch.kp.ch_inst.params.q))
        inst = t.challenger.kp.ch_inst
        p = inst.params
        assert p.s * math.sqrt(p.m) > p.q
        assert t.verdict is True
        pair_star, pair_i, verdict = case2_extract(t)
        assert verdict is CollisionVerdict.VALID
        z = chameleon.sis_collision_to_short_vector(inst, pair_star, pair_i)
        assert np.abs(z).tolist() == [0] * p.k + [p.q] + [0] * (p.m - 1)


def test_case2_win_classifies_and_extracts():
    t = play(5, CaseTwoForger)
    assert t.verdict is True
    cls = classify_forgery(t)
    assert cls.case == 2 and cls.index == 0
    pair_star, pair_i, verdict = case2_extract(t)
    assert verdict is CollisionVerdict.VALID


def test_probing_adversary_separates_reprogramming_hybrid():
    """Pre-querying the signing frame makes the reprogramming variant visible."""
    from toosign.oracle import frame

    message = b"probe target"

    class OneSigner(games.Adversary):
        def start(self, pk, rng):
            self.sent = False

        def next_action(self):
            if not self.sent:
                self.sent = True
                return ("sign", message)
            return ("finish", b"x", b"\x00")

    # On the 11-element toy range the reprogrammed value collides with the
    # pre-queried one at rate ~1/11, so compare across a batch of seeds.
    matches = 0
    for seed in range(10):
        t = play(seed, lambda ch: OneSigner(), ch=ChameleonKind.DL, params=DL_DEMO)
        known = [frame(message, t.queries[0].base_sig_bytes)]
        res = hybrid_transcript_compare(
            lambda ch: ProbingAdversary(known, [message]),
            range(seed, seed + 1),
            (ChallengerVariant.HYD0, ChallengerVariant.HYD1),
            merkle_descriptor(2),
            ChameleonKind.DL,
            DL_DEMO,
        )
        matches += res["matches"]
    assert matches <= 3


def test_third_hybrid_never_touches_trapdoor(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("trapdoor inversion reached on the trapdoor-free path")

    monkeypatch.setattr(chameleon, "ch_invert", boom)
    t = play(7, lambda ch: ReplayAdversary(), variant=ChallengerVariant.HYD2)
    assert t.challenger.trapdoor_touched is False
    assert t.verdict is False  # replay still loses; signatures still verify


def test_third_hybrid_signatures_verify():
    chal = challenger(rng_from_int(8), variant=ChallengerVariant.HYD2)
    sig_bytes, record = chal.sign(b"still valid")
    assert chal.verify(b"still valid", sig_bytes)


def test_game_report_schema():
    rep = game_report(
        GameKind.SU,
        ChallengerVariant.HYD0,
        challenger,
        CaseOneForger,
        range(5),
    )
    assert set(rep) == {
        "win_rate", "case1_count", "case2_count", "oracle_collisions",
        "extractor_failures",
    }
    assert rep["win_rate"] == 1.0
    assert rep["case1_count"] == 5 and rep["extractor_failures"] == 0


def test_shared_keypair_resets_state():
    master = rng_from_int(9)
    kp = games.g_prime(
        merkle_descriptor(1), ChameleonKind.DL, DL_DEMO, master.fork(b"kg")
    )
    for seed in range(5):
        chal = make_transformed_challenger(
            ChallengerVariant.HYD0, merkle_descriptor(1), ChameleonKind.DL,
            DL_DEMO, rng_from_int(seed), keypair=kp,
        )
        sig_bytes, _ = chal.sign(b"one per game")
        assert chal.verify(b"one per game", sig_bytes)


@pytest.mark.parametrize("ch, params", [(ChameleonKind.DL, DL_DEMO),
                                        (ChameleonKind.SIS, SIS_PARAMS)])
def test_first_hybrid_signs_as_s_prime(ch, params):
    """HYD0 is s' itself: same key, oracle seed and rng give the same bytes."""
    from toosign.oracle import programmable_oracle
    from toosign.transform import s_prime

    master = rng_from_int(11)
    chal = challenger(master, ch=ch, params=params)
    kp = chal.kp
    oracle = programmable_oracle(kp.ch_inst, master.fork(b"oracle").seed)
    rng = master.fork(b"challenger")
    for message in (b"first", b"second"):
        sig_bytes, _ = chal.sign(message)
        sig, kp = s_prime(kp, message, oracle, rng)
        assert sig_bytes == sig.serialize(kp.ch_inst)
        assert chal.kp.secret_bytes() == kp.secret_bytes()


def test_first_hybrid_queries_the_signing_frame_once(oracle_spy):
    from toosign.oracle import frame

    chal = challenger(rng_from_int(12), ch=ChameleonKind.DL, params=DL_DEMO)
    events = oracle_spy(chal.oracle)
    _, record = chal.sign(b"one query")
    point = frame(b"one query", record.base_sig_bytes)
    assert events.count(("eval", point)) == 1


def test_game_report_needs_a_seed():
    with pytest.raises(GameError):
        game_report(
            GameKind.SU, ChallengerVariant.HYD0,
            challenger, lambda ch: ReplayAdversary(), range(0),
        )


def test_verify_does_not_hide_harness_errors(monkeypatch):
    """Only a FormatError reads as a reject; any other error propagates."""
    def broken(*args):
        raise RuntimeError("harness bug")

    chal = challenger(rng_from_int(13), ch=ChameleonKind.DL, params=DL_DEMO)
    sig_bytes, _ = chal.sign(b"signed")
    monkeypatch.setattr(games, "deserialize_signature", broken)
    with pytest.raises(RuntimeError):
        chal.verify(b"signed", sig_bytes)


# without warm-up queries the case-1 forgery cannot repeat a C of the
# 11-element dl-demo range
@pytest.mark.parametrize("forger, case", [
    (lambda ch: CaseOneForger(ch, warmup_queries=0), "case1_count"),
    (CaseTwoForger, "case2_count"),
], ids=["case1", "case2"])
def test_winning_forgery_is_parsed_twice(monkeypatch, forger, case):
    """A won game parses the forgery to verify and to classify; the report
    extracts from that classification."""
    deserialize = games.deserialize_signature
    calls = []

    def counting(*args):
        calls.append(args)
        return deserialize(*args)

    monkeypatch.setattr(games, "deserialize_signature", counting)
    rep = game_report(
        GameKind.SU, ChallengerVariant.HYD0,
        lambda m: challenger(m, ch=ChameleonKind.DL, params=DL_DEMO),
        forger, range(14, 15),
    )
    assert rep["win_rate"] == 1.0 and rep[case] == 1
    assert len(calls) == 2


def test_public_key_is_encoded_once_per_game(monkeypatch):
    public_bytes = TransformedKeyPair.public_bytes
    calls = []
    monkeypatch.setattr(
        TransformedKeyPair, "public_bytes", lambda kp: calls.append(1) or public_bytes(kp)
    )
    chal = challenger(rng_from_int(3))
    assert calls == [1]
    t = run_game(GameKind.SU, chal, ReplayAdversary(), 2, rng_from_int(3))
    assert t.visible[0] == b"pk:" + public_bytes(chal.kp)
    assert calls == [1]
