"""Executable unforgeability games, hybrid challengers and extractors.

The challenger/adversary loop is fully deterministic given one master seed:
keygen, challenger randomness, the oracle's lazy value stream and the
adversary all run on forked streams.  Winning transcripts of the strong game
classify into two cases -- the forged range value is fresh (a base-scheme
forgery falls out) or it repeats a signing query (a chameleon collision
falls out) -- and each case has an extractor whose output is re-checked.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

from . import chameleon, encoding
from .chameleon import ChameleonKind, CollisionVerdict, RangeSample
from .errors import GameError, ExtractionError
from .oracle import OracleContext, frame, programmable_oracle
from .registry import (
    KeyPair,
    SchemeDescriptor,
    SchemeImpl,
    Signature,
    get_scheme,
    register_scheme,
    scheme_keygen,
    scheme_sign,
    scheme_verify,
)
from .rng import Rng, rng_from_int
from .transform import (
    TransformedKeyPair,
    TransformedSignature,
    deserialize_signature,
    encode_range_value,
    g_prime,
    public_key_of,
    s_prime,
    sign_range,
    v_prime,
)

SCHEME_ID_MALLEABLE = 2


class GameKind(Enum):
    EU = "eu"
    SU = "su"


class ChallengerVariant(Enum):
    HYD0 = "hyd0"  # standard signing
    HYD1 = "hyd1"  # fresh oracle value + reprogram, still trapdoor inversion
    HYD2 = "hyd2"  # hash fresh randomness, reprogram, no trapdoor


# ---------------------------------------------------------------------------
# malleable wrapper: an EU-but-not-SU negative control


def _inner_descriptor(descriptor: SchemeDescriptor) -> SchemeDescriptor:
    return SchemeDescriptor.deserialize(descriptor.param_blob)


def _malleable_keygen(descriptor: SchemeDescriptor, rng: Rng) -> KeyPair:
    inner = scheme_keygen(_inner_descriptor(descriptor), rng)
    return replace(inner, descriptor=descriptor)


def _malleable_sign(kp: KeyPair, message: bytes, rng: Rng):
    inner_kp = replace(kp, descriptor=_inner_descriptor(kp.descriptor))
    inner_sig, new_state = scheme_sign(inner_kp, message, rng)
    # the appended byte is ignored by verification: flipping it yields a
    # second valid signature on the same message
    mauled = inner_sig.bytes + rng.random_bytes(1)
    return Signature(bytes=mauled, descriptor=kp.descriptor), new_state


def _malleable_verify(pk: bytes, message: bytes, sig: Signature) -> bool:
    if len(sig.bytes) < 1:
        return False
    inner_desc = _inner_descriptor(sig.descriptor)
    inner_sig = Signature(bytes=sig.bytes[:-1], descriptor=inner_desc)
    return scheme_verify(pk, message, inner_sig)


register_scheme(
    SchemeImpl(
        scheme_id=SCHEME_ID_MALLEABLE,
        name="malleable-wrapper",
        keygen=_malleable_keygen,
        sign=_malleable_sign,
        verify=_malleable_verify,
    )
)


def wrap_malleable(base_descriptor: SchemeDescriptor) -> SchemeDescriptor:
    """Wraps a registered scheme, appending one ignored byte to signatures."""
    get_scheme(base_descriptor.scheme_id)
    return SchemeDescriptor(
        scheme_id=SCHEME_ID_MALLEABLE,
        param_blob=base_descriptor.serialize(),
        message_space_kind=base_descriptor.message_space_kind,
    )


# ---------------------------------------------------------------------------
# transcripts


@dataclass
class QueryRecord:
    message: bytes
    sig_bytes: bytes
    # transformed games also record the proof bookkeeping
    c_serial: Optional[bytes] = None  # canonical encoding of C_i
    m_value: object = None  # oracle output m_i
    randomness: object = None  # r_i
    base_sig_bytes: Optional[bytes] = None
    c_sample: Optional[RangeSample] = None


@dataclass
class GameTranscript:
    game_kind: GameKind
    variant: Optional[ChallengerVariant]
    pk_bytes: bytes
    queries: list[QueryRecord]
    forgery_message: Optional[bytes]
    forgery_sig_bytes: Optional[bytes]
    verdict: bool
    budget_violation: bool = False
    # live handles for the classifier/extractors (transformed games only)
    challenger: object = None
    visible: list = field(default_factory=list)

    def visible_digest(self) -> bytes:
        h = hashlib.sha256()
        for entry in self.visible:
            h.update(len(entry).to_bytes(4, "big"))
            h.update(entry)
        return h.digest()


# ---------------------------------------------------------------------------
# challengers


class RawChallenger:
    """Plays the game directly over a base scheme (no transform)."""

    def __init__(self, descriptor: SchemeDescriptor, rng: Rng):
        self.descriptor = descriptor
        self.kp = scheme_keygen(descriptor, rng.fork(b"keygen"))
        self.rng = rng.fork(b"sign")
        self.oracle = None

    @property
    def pk_bytes(self) -> bytes:
        return self.kp.public_key

    def _digest(self, message: bytes) -> bytes:
        return hashlib.sha256(message).digest()

    def sign(self, message: bytes) -> tuple[bytes, QueryRecord]:
        sig, new_state = scheme_sign(self.kp, self._digest(message), self.rng)
        self.kp = self.kp.with_state(new_state)
        return sig.bytes, QueryRecord(message=message, sig_bytes=sig.bytes)

    def verify(self, message: bytes, sig_bytes: bytes) -> bool:
        sig = Signature(bytes=sig_bytes, descriptor=self.descriptor)
        return scheme_verify(self.kp.public_key, self._digest(message), sig)


class TransformedChallenger:
    """Plays the game over the transformed scheme in one of three variants."""

    def __init__(
        self,
        variant: ChallengerVariant,
        kp: TransformedKeyPair,
        oracle: OracleContext,
        rng: Rng,
    ):
        self.variant = variant
        self.kp = kp
        self.oracle = oracle
        self.rng = rng.fork(b"challenger")
        self.pk = public_key_of(kp)
        self.trapdoor_touched = False

    @property
    def pk_bytes(self) -> bytes:
        return self.kp.public_bytes()

    def sign(self, message: bytes) -> tuple[bytes, QueryRecord]:
        inst, td = self.kp.ch_inst, self.kp.ch_td
        # C: sampled for inversion (HYD0, HYD1) or hashed forward (HYD2)
        if self.variant is ChallengerVariant.HYD2:
            m_i = self.oracle.fresh_value()
            r_i = chameleon.sample_randomness(inst, self.rng)
            c_sample = RangeSample(chameleon.ch_hash(inst, m_i, r_i), m_i, r_i)
        else:
            c_sample = chameleon.sample_range(inst, self.rng, td)
        base_sig, self.kp = sign_range(self.kp, c_sample.element, self.rng)
        # m: the oracle's own value (HYD0) or a fresh value programmed in
        point = frame(message, base_sig.bytes)
        if self.variant is ChallengerVariant.HYD0:
            m_i = self.oracle.eval(point)
        else:
            if self.variant is ChallengerVariant.HYD1:
                m_i = self.oracle.fresh_value()
            self.oracle.program(point, m_i)
        if self.variant is not ChallengerVariant.HYD2:  # HYD2 never uses the trapdoor
            r_i = chameleon.ch_invert(inst, td, m_i, c_sample, self.rng)
            self.trapdoor_touched = True
        sig = TransformedSignature(base_sig=base_sig, randomness=r_i)
        sig_bytes = sig.serialize(inst)
        record = QueryRecord(
            message=message,
            sig_bytes=sig_bytes,
            c_serial=inst.serialize_element(c_sample.element),
            m_value=m_i,
            randomness=r_i,
            base_sig_bytes=base_sig.bytes,
            c_sample=c_sample,
        )
        self.last_record = record
        return sig_bytes, record

    def parse_signature(self, sig_bytes: bytes) -> TransformedSignature:
        return deserialize_signature(
            sig_bytes, self.kp.ch_inst, self.kp.base.descriptor
        )

    def verify(self, message: bytes, sig_bytes: bytes) -> bool:
        try:
            sig = self.parse_signature(sig_bytes)
        except Exception:
            return False
        return v_prime(self.pk, message, sig, self.oracle)


def make_transformed_challenger(
    variant: ChallengerVariant,
    base_descriptor: SchemeDescriptor,
    ch_kind: ChameleonKind,
    ch_params: dict,
    master: Rng,
    keypair: TransformedKeyPair | None = None,
) -> TransformedChallenger:
    if keypair is None:
        keypair = g_prime(base_descriptor, ch_kind, ch_params, master.fork(b"keygen"))
    else:
        # shared keypair across seeded runs: reset the stateful base scheme
        keypair = replace(keypair, base=keypair.base.with_state((0).to_bytes(8, "big")))
    oracle = programmable_oracle(keypair.ch_inst, master.fork(b"oracle").seed)
    return TransformedChallenger(variant, keypair, oracle, master)


# ---------------------------------------------------------------------------
# adversary interface and the game loop


class Adversary:
    """Deterministic function of (inputs, seed) behind a callback interface."""

    def start(self, pk_bytes: bytes, rng: Rng) -> None:
        raise NotImplementedError

    def next_action(self) -> tuple:
        """("sign", M) | ("ro", x) | ("finish", M_star, sig_bytes)."""
        raise NotImplementedError

    def on_signature(self, message: bytes, sig_bytes: bytes) -> None:
        pass

    def on_ro_answer(self, x: bytes, value) -> None:
        pass


def run_game(
    kind: GameKind,
    challenger,
    adversary: Adversary,
    budget: int,
    rng: Rng,
) -> GameTranscript:
    variant = getattr(challenger, "variant", None)
    transcript = GameTranscript(
        game_kind=kind,
        variant=variant,
        pk_bytes=challenger.pk_bytes,
        queries=[],
        forgery_message=None,
        forgery_sig_bytes=None,
        verdict=False,
        challenger=challenger,
    )
    transcript.visible.append(b"pk:" + challenger.pk_bytes)
    adversary.start(challenger.pk_bytes, rng.fork(b"adversary"))
    while True:
        action = adversary.next_action()
        if action[0] == "sign":
            if len(transcript.queries) >= budget:
                transcript.budget_violation = True
                transcript.verdict = False
                return transcript
            message = action[1]
            sig_bytes, record = challenger.sign(message)
            transcript.queries.append(record)
            transcript.visible.append(b"sig:" + message + b":" + sig_bytes)
            adversary.on_signature(message, sig_bytes)
        elif action[0] == "ro":
            if challenger.oracle is None:
                raise GameError("raw game has no oracle")
            value = challenger.oracle.eval(action[1])
            value_bytes = challenger.kp.ch_inst.serialize_message(value)
            transcript.visible.append(b"ro:" + action[1] + b":" + value_bytes)
            adversary.on_ro_answer(action[1], value)
        elif action[0] == "finish":
            _, m_star, sig_star = action
            transcript.forgery_message = m_star
            transcript.forgery_sig_bytes = sig_star
            accepted = challenger.verify(m_star, sig_star)
            if kind is GameKind.SU:
                fresh = all(
                    not (q.message == m_star and q.sig_bytes == sig_star)
                    for q in transcript.queries
                )
            else:
                fresh = all(q.message != m_star for q in transcript.queries)
            transcript.verdict = accepted and fresh
            transcript.visible.append(
                b"verdict:" + (b"win" if transcript.verdict else b"lose")
            )
            return transcript
        else:
            raise GameError(f"unknown adversary action {action[0]!r}")


# ---------------------------------------------------------------------------
# classification and extraction


@dataclass(frozen=True)
class Classification:
    case: int  # 1 or 2
    index: Optional[int] = None  # matching query for case 2 (smallest on ties)


def _require_transformed_win(t: GameTranscript) -> TransformedChallenger:
    if not isinstance(t.challenger, TransformedChallenger):
        raise GameError("classification needs a transformed-scheme transcript")
    if not t.verdict:
        raise GameError("classification needs a winning transcript")
    if t.game_kind is not GameKind.SU:
        raise GameError("classification is defined for the strong game")
    return t.challenger


def forgery_components(t: GameTranscript):
    """(sig_star, m_star, c_star) recomputed from the forgery."""
    ch = t.challenger
    sig = ch.parse_signature(t.forgery_sig_bytes)
    m_star = ch.oracle.eval(frame(t.forgery_message, sig.base_sig.bytes))
    c_star = chameleon.ch_hash(ch.kp.ch_inst, m_star, sig.randomness)
    return sig, m_star, c_star


def classify_forgery(t: GameTranscript) -> Classification:
    ch = _require_transformed_win(t)
    _, _, c_star = forgery_components(t)
    c_star_serial = ch.kp.ch_inst.serialize_element(c_star)
    for i, q in enumerate(t.queries):
        if q.c_serial == c_star_serial:
            return Classification(case=2, index=i)
    return Classification(case=1)


def case1_extract(t: GameTranscript):
    """Returns (c_star, base_sig): a fresh valid base-scheme forgery."""
    ch = _require_transformed_win(t)
    if classify_forgery(t).case != 1:
        raise GameError("transcript is not a case-1 win")
    sig, _, c_star = forgery_components(t)
    base_msg = encode_range_value(ch.kp.ch_inst, c_star, ch.kp.base.descriptor)
    if not scheme_verify(ch.kp.base.public_key, base_msg, sig.base_sig):
        raise ExtractionError("extracted base forgery does not verify")
    for q in t.queries:
        q_msg = encode_range_value(
            ch.kp.ch_inst, q.c_sample.element, ch.kp.base.descriptor
        )
        if q_msg == base_msg:
            raise ExtractionError("extracted range value was already base-signed")
    return c_star, sig.base_sig


def case2_extract(t: GameTranscript):
    """Returns (pair_star, pair_i, verdict); TRIVIAL marks an oracle collision."""
    ch = _require_transformed_win(t)
    cls = classify_forgery(t)
    if cls.case != 2:
        raise GameError("transcript is not a case-2 win")
    sig, m_star, _ = forgery_components(t)
    q = t.queries[cls.index]
    pair_star = (m_star, sig.randomness)
    pair_i = (q.m_value, q.randomness)
    verdict = chameleon.check_collision(ch.kp.ch_inst, pair_star, pair_i)
    return pair_star, pair_i, verdict


# ---------------------------------------------------------------------------
# adversaries


class ReplayAdversary(Adversary):
    """Resubmits a received (message, signature) pair; must lose the SU game."""

    def __init__(self, message: bytes = b"replayed message"):
        self.message = message
        self.received = None

    def start(self, pk_bytes, rng):
        self.received = None

    def next_action(self):
        if self.received is None:
            return ("sign", self.message)
        return ("finish", self.message, self.received)

    def on_signature(self, message, sig_bytes):
        self.received = sig_bytes


class GarbageForger(Adversary):
    """Submits random bytes on a fresh message; must lose."""

    def start(self, pk_bytes, rng):
        self.rng = rng

    def next_action(self):
        return ("finish", b"fresh message", self.rng.random_bytes(64))


class MaulingAdversary(Adversary):
    """Flips the base scheme's ignored trailing byte and resubmits.

    Beats the raw malleable wrapper; the transform must close the maul.
    """

    def __init__(self, message: bytes = b"maul me"):
        self.message = message
        self.received = None

    def start(self, pk_bytes, rng):
        self.received = None

    def _maul(self, sig_bytes: bytes) -> bytes:
        try:
            tag, fields = encoding.decode_record(
                sig_bytes, encoding.TAG_TRANSFORMED_SIG
            )
            base = fields[0]
            mauled_base = base[:-1] + bytes([base[-1] ^ 0x01])
            return encoding.encode_record(tag, [mauled_base, fields[1]])
        except Exception:
            return sig_bytes[:-1] + bytes([sig_bytes[-1] ^ 0x01])

    def next_action(self):
        if self.received is None:
            return ("sign", self.message)
        return ("finish", self.message, self._maul(self.received))

    def on_signature(self, message, sig_bytes):
        self.received = sig_bytes


class LuckyGuesser(Adversary):
    """Reuses a received base signature with guessed randomness on a new
    message; wins exactly when the guessed randomness reopens the signed
    range value (probability 1/|range| on the toy group)."""

    def __init__(self):
        self.received = None

    def start(self, pk_bytes, rng):
        self.received = None
        self.rng = rng
        from .transform import TransformedPublicKey

        self.pk = TransformedPublicKey.deserialize(pk_bytes)

    def next_action(self):
        if self.received is None:
            return ("sign", b"first message")
        _, fields = encoding.decode_record(self.received, encoding.TAG_TRANSFORMED_SIG)
        inst = self.pk.ch_inst
        guess = chameleon.sample_randomness(inst, self.rng)
        forged = encoding.encode_record(
            encoding.TAG_TRANSFORMED_SIG,
            [fields[0], inst.serialize_randomness(guess)],
        )
        return ("finish", b"second message", forged)

    def on_signature(self, message, sig_bytes):
        self.received = sig_bytes


class ProbingAdversary(Adversary):
    """Pre-queries the oracle at known future signing frames, then re-checks
    them after signing.  Exposes reprogramming hybrids."""

    def __init__(self, known_frames: list[bytes], messages: list[bytes]):
        self.known_frames = known_frames
        self.messages = messages

    def start(self, pk_bytes, rng):
        self.step = 0
        self.answers = []

    def next_action(self):
        n = len(self.known_frames)
        if self.step < n:
            x = self.known_frames[self.step]
            self.step += 1
            return ("ro", x)
        if self.step < n + len(self.messages):
            m = self.messages[self.step - n]
            self.step += 1
            return ("sign", m)
        if self.step < 2 * n + len(self.messages):
            x = self.known_frames[self.step - n - len(self.messages)]
            self.step += 1
            return ("ro", x)
        return ("finish", b"probe done", b"\x00")


class CaseOneForger(Adversary):
    """Omniscient test adversary: forges by signing a fresh range value with
    the challenger's own key material.  Produces case-1 wins on demand."""

    def __init__(self, challenger: TransformedChallenger, warmup_queries: int = 2):
        self.challenger = challenger
        self.warmup = warmup_queries

    def start(self, pk_bytes, rng):
        self.rng = rng
        self.done = 0

    def next_action(self):
        if self.done < self.warmup:
            self.done += 1
            return ("sign", b"warmup %d" % self.done)
        ch = self.challenger
        sig, _ = s_prime(ch.kp, b"forged message", ch.oracle, self.rng.fork(b"forge"))
        return ("finish", b"forged message", sig.serialize(ch.kp.ch_inst))


class CaseTwoForger(Adversary):
    """Omniscient test adversary: reuses a signed range value on a new
    message via the trapdoor.  Produces case-2 wins on demand."""

    def __init__(self, challenger: TransformedChallenger):
        self.challenger = challenger
        self.record: Optional[QueryRecord] = None

    def start(self, pk_bytes, rng):
        self.rng = rng
        self.record = None

    def next_action(self):
        if self.record is None:
            return ("sign", b"query message")
        ch = self.challenger
        inst, td = ch.kp.ch_inst, ch.kp.ch_td
        q = self.record
        m_star = ch.oracle.eval(frame(b"reused-c message", q.base_sig_bytes))
        r_star = chameleon.ch_invert(inst, td, m_star, q.c_sample, self.rng)
        sig = TransformedSignature(
            base_sig=Signature(bytes=q.base_sig_bytes, descriptor=ch.kp.base.descriptor),
            randomness=r_star,
        )
        return ("finish", b"reused-c message", sig.serialize(inst))

    def on_signature(self, message, sig_bytes):
        # omniscient: read the bookkeeping off the challenger's last sign call
        self.record = self.challenger.last_record


class BudgetBuster(Adversary):
    """Keeps asking for signatures past the declared budget."""

    def start(self, pk_bytes, rng):
        self.i = 0

    def next_action(self):
        self.i += 1
        return ("sign", b"q%d" % self.i)


# ---------------------------------------------------------------------------
# hybrid comparison and seeded sweeps


def hybrid_transcript_compare(
    make_adversary: Callable[[TransformedChallenger], Adversary],
    seeds: range,
    variants: tuple[ChallengerVariant, ChallengerVariant],
    base_descriptor: SchemeDescriptor,
    ch_kind: ChameleonKind,
    ch_params: dict,
    budget: int = 4,
    kind: GameKind = GameKind.SU,
    shared_keypair: TransformedKeyPair | None = None,
):
    """Runs both variants on coupled seeds and reports per-seed agreement."""
    matches = 0
    wins = {variants[0]: 0, variants[1]: 0}
    divergent_seeds = []
    per_seed = []
    for seed in seeds:
        digests = {}
        records = {}
        for variant in variants:
            master = rng_from_int(seed)
            challenger = make_transformed_challenger(
                variant, base_descriptor, ch_kind, ch_params, master,
                keypair=shared_keypair,
            )
            adversary = make_adversary(challenger)
            t = run_game(kind, challenger, adversary, budget, master.fork(b"game"))
            digests[variant] = t.visible_digest()
            records[variant] = t
            if t.verdict:
                wins[variant] += 1
        same = digests[variants[0]] == digests[variants[1]]
        matches += same
        if not same:
            divergent_seeds.append(seed)
        per_seed.append(records)
    n = len(per_seed)
    return {
        "seeds": n,
        "matches": matches,
        "divergent_seeds": divergent_seeds,
        "win_rate": {v.value: wins[v] / n for v in variants},
        "transcripts": per_seed,
    }


def game_report(
    kind: GameKind,
    variant: ChallengerVariant,
    make_challenger: Callable[[Rng], object],
    make_adversary: Callable[[object], Adversary],
    seeds: range,
    budget: int = 4,
) -> dict:
    """Seeded sweep with extraction bookkeeping (the CLI report schema)."""
    wins = 0
    case1 = 0
    case2 = 0
    oracle_collisions = 0
    extractor_failures = 0
    for seed in seeds:
        master = rng_from_int(seed)
        challenger = make_challenger(master)
        adversary = make_adversary(challenger)
        t = run_game(kind, challenger, adversary, budget, master.fork(b"game"))
        if not t.verdict:
            continue
        wins += 1
        if kind is not GameKind.SU or not isinstance(challenger, TransformedChallenger):
            continue
        cls = classify_forgery(t)
        if cls.case == 1:
            case1 += 1
            try:
                case1_extract(t)
            except ExtractionError:
                extractor_failures += 1
        else:
            case2 += 1
            _, _, verdict = case2_extract(t)
            if verdict is CollisionVerdict.TRIVIAL:
                oracle_collisions += 1
            elif verdict is not CollisionVerdict.VALID:
                extractor_failures += 1
    n = len(seeds)
    return {
        "win_rate": wins / n,
        "case1_count": case1,
        "case2_count": case2,
        "oracle_collisions": oracle_collisions,
        "extractor_failures": extractor_failures,
    }
