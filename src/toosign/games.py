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
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from . import chameleon, encoding
from .chameleon import ChameleonKind, CollisionVerdict, RangeSample
from .errors import ExtractionError, FormatError, GameError
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
    TransformedPublicKey,
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
    return inner._replace(descriptor=descriptor)


def _malleable_sign(kp: KeyPair, message: bytes, rng: Rng):
    inner_kp = kp._replace(descriptor=_inner_descriptor(kp.descriptor))
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
    # the inner scheme's own verify: scheme_verify's catch-all would hide a crash
    return get_scheme(inner_desc.scheme_id).verify(pk, message, inner_sig)


register_scheme(
    SchemeImpl(
        scheme_id=SCHEME_ID_MALLEABLE,
        keygen=_malleable_keygen,
        sign=_malleable_sign,
        verify=_malleable_verify,
    )
)


def wrap_malleable(base_descriptor: SchemeDescriptor) -> SchemeDescriptor:
    """Wraps a registered scheme, appending one ignored byte to signatures."""
    get_scheme(base_descriptor.scheme_id)
    return SchemeDescriptor(
        scheme_id=SCHEME_ID_MALLEABLE, param_blob=base_descriptor.serialize()
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
    # live handle for the classifier/extractors (transformed games only)
    challenger: object
    queries: list[QueryRecord] = field(default_factory=list)
    forgery_message: Optional[bytes] = None
    forgery_sig_bytes: Optional[bytes] = None
    verdict: bool = False
    budget_violation: bool = False
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

    def sign(self, message: bytes) -> tuple[bytes, QueryRecord]:
        digest = hashlib.sha256(message).digest()
        sig, new_state = scheme_sign(self.kp, digest, self.rng)
        self.kp = self.kp.with_state(new_state)
        return sig.bytes, QueryRecord(message=message, sig_bytes=sig.bytes)

    def verify(self, message: bytes, sig_bytes: bytes) -> bool:
        sig = Signature(bytes=sig_bytes, descriptor=self.descriptor)
        return scheme_verify(self.kp.public_key, hashlib.sha256(message).digest(), sig)


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
        self.pk_bytes = kp.public_bytes()  # signing moves only the base state
        self.trapdoor_touched = False

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
        except FormatError:
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
        keypair = keypair._replace(base=keypair.base.with_state((0).to_bytes(8, "big")))
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
    if budget < 0:
        raise GameError("the signing budget must not be negative")
    transcript = GameTranscript(kind, challenger)
    transcript.visible.append(b"pk:" + challenger.pk_bytes)
    adversary.start(challenger.pk_bytes, rng.fork(b"adversary"))
    while True:
        action = adversary.next_action()
        if action[0] == "sign":
            if len(transcript.queries) >= budget:
                transcript.budget_violation = True
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
    index: Optional[int]  # matching query for case 2 (smallest on ties)
    sig: TransformedSignature  # the parsed forgery
    m_star: object  # oracle value at the forgery's frame
    c_star: object  # range value the forgery opens to


def classify_forgery(t: GameTranscript) -> Classification:
    """Recomputes the forgery's range value once: case 1 if it is fresh,
    case 2 if it repeats a signing query."""
    ch = t.challenger
    if not isinstance(ch, TransformedChallenger):
        raise GameError("classification needs a transformed-scheme transcript")
    if not t.verdict:
        raise GameError("classification needs a winning transcript")
    if t.game_kind is not GameKind.SU:
        raise GameError("classification is defined for the strong game")
    sig = ch.parse_signature(t.forgery_sig_bytes)
    m_star = ch.oracle.eval(frame(t.forgery_message, sig.base_sig.bytes))
    c_star = chameleon.ch_hash(ch.kp.ch_inst, m_star, sig.randomness)
    c_serial = ch.kp.ch_inst.serialize_element(c_star)
    index = next((i for i, q in enumerate(t.queries) if q.c_serial == c_serial), None)
    return Classification(1 if index is None else 2, index, sig, m_star, c_star)


def case1_extract(t: GameTranscript):
    """Returns (c_star, base_sig): a fresh valid base-scheme forgery."""
    return _case1_extract(t, classify_forgery(t))


def _case1_extract(t: GameTranscript, cls: Classification):
    if cls.case != 1:
        raise GameError("transcript is not a case-1 win")
    kp = t.challenger.kp
    base_msg = encode_range_value(kp.ch_inst, cls.c_star)
    if not scheme_verify(kp.base.public_key, base_msg, cls.sig.base_sig):
        raise ExtractionError("extracted base forgery does not verify")
    for q in t.queries:
        q_msg = encode_range_value(kp.ch_inst, q.c_sample.element)
        if q_msg == base_msg:
            raise ExtractionError("extracted range value was already base-signed")
    return cls.c_star, cls.sig.base_sig


def case2_extract(t: GameTranscript):
    """Returns (pair_star, pair_i, verdict); TRIVIAL marks an oracle collision."""
    return _case2_extract(t, classify_forgery(t))


def _case2_extract(t: GameTranscript, cls: Classification):
    if cls.case != 2:
        raise GameError("transcript is not a case-2 win")
    q = t.queries[cls.index]
    pair_star = (cls.m_star, cls.sig.randomness)
    pair_i = (q.m_value, q.randomness)
    verdict = chameleon.check_collision(t.challenger.kp.ch_inst, pair_star, pair_i)
    return pair_star, pair_i, verdict


# ---------------------------------------------------------------------------
# adversaries


class _SignThenForge(Adversary):
    """Asks for one signature on `message`, then finishes with `forge` of the
    reply: a (message, signature bytes) pair."""

    def start(self, pk_bytes, rng):
        self.rng = rng
        self.received = None

    def next_action(self):
        if self.received is None:
            return ("sign", self.message)
        return ("finish", *self.forge(self.received))

    def on_signature(self, message, sig_bytes):
        self.received = sig_bytes

    def forge(self, sig_bytes: bytes) -> tuple[bytes, bytes]:
        raise NotImplementedError


class ReplayAdversary(_SignThenForge):
    """Resubmits a received (message, signature) pair; must lose the SU game."""

    message = b"replayed message"

    def forge(self, sig_bytes):
        return self.message, sig_bytes


class GarbageForger(Adversary):
    """Submits random bytes on a fresh message; must lose."""

    def start(self, pk_bytes, rng):
        self.rng = rng

    def next_action(self):
        return ("finish", b"fresh message", self.rng.random_bytes(64))


class MaulingAdversary(ReplayAdversary):
    """Flips the base scheme's ignored trailing byte and resubmits.

    Beats the raw malleable wrapper; the transform must close the maul.
    """

    message = b"maul me"

    def _maul(self, sig_bytes: bytes) -> bytes:
        try:
            base, record = encoding.decode_fields(
                sig_bytes, encoding.TAG_TRANSFORMED_SIG, 2
            )
            mauled_base = base[:-1] + bytes([base[-1] ^ 0x01])
            return encoding.encode_record(encoding.TAG_TRANSFORMED_SIG, [mauled_base, record])
        except FormatError:
            return sig_bytes[:-1] + bytes([sig_bytes[-1] ^ 0x01])

    def forge(self, sig_bytes):
        return super().forge(self._maul(sig_bytes))


class LuckyGuesser(_SignThenForge):
    """Reuses a received base signature with guessed randomness on a new
    message; wins exactly when the guessed randomness reopens the signed
    range value (probability 1/|range| on the toy group)."""

    message = b"first message"

    def start(self, pk_bytes, rng):
        super().start(pk_bytes, rng)
        try:
            self.pk = TransformedPublicKey.deserialize(pk_bytes)
        except FormatError:
            raise GameError("the lucky guesser needs a transformed public key") from None

    def forge(self, sig_bytes):
        base, _ = encoding.decode_fields(sig_bytes, encoding.TAG_TRANSFORMED_SIG, 2)
        inst = self.pk.ch_inst
        guess = chameleon.sample_randomness(inst, self.rng)
        forged = encoding.encode_record(
            encoding.TAG_TRANSFORMED_SIG,
            [base, inst.serialize_randomness(guess)],
        )
        return b"second message", forged


class ProbingAdversary(Adversary):
    """Pre-queries the oracle at known future signing frames, then re-checks
    them after signing.  Exposes reprogramming hybrids."""

    def __init__(self, known_frames: list[bytes], messages: list[bytes]):
        self.known_frames = known_frames
        self.messages = messages

    def start(self, pk_bytes, rng):
        probes = [("ro", x) for x in self.known_frames]
        self.script = iter(probes + [("sign", m) for m in self.messages] + probes)

    def next_action(self):
        return next(self.script, ("finish", b"probe done", b"\x00"))


def _transformed(challenger) -> TransformedChallenger:
    """The challenger of an omniscient adversary, which reads its key."""
    if not isinstance(challenger, TransformedChallenger):
        raise GameError("this adversary needs a transformed challenger")
    return challenger


class CaseOneForger(Adversary):
    """Omniscient test adversary: forges by signing a fresh range value with
    the challenger's own key material.  Produces case-1 wins on demand."""

    def __init__(self, challenger: TransformedChallenger, warmup_queries: int = 2):
        self.challenger = _transformed(challenger)
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


class CaseTwoForger(_SignThenForge):
    """Omniscient test adversary: reuses a signed range value on a new
    message via the trapdoor.  Produces case-2 wins on demand."""

    message = b"query message"

    def __init__(self, challenger: TransformedChallenger):
        self.challenger = _transformed(challenger)

    def forge(self, sig_bytes):
        # omniscient: read the bookkeeping off the challenger's last sign call
        ch = self.challenger
        inst, td = ch.kp.ch_inst, ch.kp.ch_td
        q = ch.last_record
        m_star = ch.oracle.eval(frame(b"reused-c message", q.base_sig_bytes))
        r_star = chameleon.ch_invert(inst, td, m_star, q.c_sample, self.rng)
        sig = TransformedSignature(
            base_sig=Signature(bytes=q.base_sig_bytes, descriptor=ch.kp.base.descriptor),
            randomness=r_star,
        )
        return b"reused-c message", sig.serialize(inst)


class BudgetBuster(Adversary):
    """Keeps asking for signatures past the declared budget."""

    def start(self, pk_bytes, rng):
        self.i = 0

    def next_action(self):
        self.i += 1
        return ("sign", b"q%d" % self.i)


# ---------------------------------------------------------------------------
# seeded games: hybrid comparison and sweeps


def play(
    kind: GameKind,
    seed: int,
    make_challenger: Callable[[Rng], object],
    make_adversary: Callable[[object], Adversary],
    budget: int,
) -> GameTranscript:
    """One seeded game: the challenger and the game loop fork one master."""
    master = rng_from_int(seed)
    challenger = make_challenger(master)
    adversary = make_adversary(challenger)
    return run_game(kind, challenger, adversary, budget, master.fork(b"game"))


def hybrid_transcript_compare(
    make_adversary: Callable[[TransformedChallenger], Adversary],
    seeds: range,
    variants: tuple[ChallengerVariant, ChallengerVariant],
    base_descriptor: SchemeDescriptor,
    ch_kind: ChameleonKind,
    ch_params: dict,
):
    """Runs both variants of the strong game on coupled seeds, with fresh
    keys and a budget of 4 signatures; counts the seeds whose visible
    transcripts agree byte for byte."""

    def digest(seed: int, variant: ChallengerVariant) -> bytes:
        def make_challenger(master):
            return make_transformed_challenger(
                variant, base_descriptor, ch_kind, ch_params, master
            )

        t = play(GameKind.SU, seed, make_challenger, make_adversary, budget=4)
        return t.visible_digest()

    divergent_seeds = []
    for seed in seeds:
        if digest(seed, variants[0]) != digest(seed, variants[1]):
            divergent_seeds.append(seed)
    matches = len(seeds) - len(divergent_seeds)
    return {"matches": matches, "divergent_seeds": divergent_seeds}


def game_report(
    kind: GameKind,
    variant: ChallengerVariant,
    make_challenger: Callable[[Rng], object],
    make_adversary: Callable[[object], Adversary],
    seeds: range,
    budget: int = 4,
) -> dict:
    """Seeded sweep with extraction bookkeeping (the CLI report schema)."""
    if len(seeds) == 0:
        raise GameError("a game sweep needs at least one seed")
    wins = 0
    case1 = 0
    case2 = 0
    oracle_collisions = 0
    extractor_failures = 0
    for seed in seeds:
        t = play(kind, seed, make_challenger, make_adversary, budget)
        if not t.verdict:
            continue
        wins += 1
        if kind is not GameKind.SU or not isinstance(t.challenger, TransformedChallenger):
            continue
        cls = classify_forgery(t)
        if cls.case == 1:
            case1 += 1
            try:
                _case1_extract(t, cls)
            except ExtractionError:
                extractor_failures += 1
        else:
            case2 += 1
            _, _, verdict = _case2_extract(t, cls)
            if verdict is CollisionVerdict.TRIVIAL:
                oracle_collisions += 1
            elif verdict is not CollisionVerdict.VALID:
                extractor_failures += 1
    return {
        "win_rate": wins / len(seeds),
        "case1_count": case1,
        "case2_count": case2,
        "oracle_collisions": oracle_collisions,
        "extractor_failures": extractor_failures,
    }
