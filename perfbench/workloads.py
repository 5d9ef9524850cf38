"""The four benchmark workloads.

Each is a closed loop with one caller.  `setup(seed)` makes every input from
`random.Random(seed)` before timing starts and generates the keys; it
returns the durations of its SETUP_REPEATS key generations and of the
reference work timed around them (see `timed_repeats`).
`prepare(i)` does the untimed work before step i (taking the next key when
the current one is used up), and `step(i, tally)` runs and checks one step
and returns the signature bytes it produced, for the golden digest.  Step i
runs input i % `cycle`, so every input is repeated in a run and the same
ops in the same order each time.  Only
the signing Rng handed to the API is derived from the seed; the benchmark
never draws its inputs from `Rng.random_bytes`.

`reference()` times one run of the workload's reference work (see below)
and returns its duration; `NOMINAL_NS[wl.reference_kind]` is its duration
at the reference host speed.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from toosign import games, transform
from toosign.chameleon import ChameleonKind
from toosign.errors import ToosignError
from toosign.games import ChallengerVariant, GameKind
from toosign.merkle import merkle_descriptor
from toosign.oracle import production_oracle
from toosign.rng import Rng

SETUP_REPEATS = 5  # key generations per run; setup_s takes their median
CHILD_TIMEOUT_S = 120
SIS_DESK = {"n": 4, "q": 257, "m": 12, "k": 8}

clock = time.perf_counter_ns

# ---------------------------------------------------------------------------
# Reference work: fixed code of the benchmark's own, never the program's.
# The host's speed drifts by up to 2x over seconds to minutes, so one piece
# of reference work is timed next to every step and every op's time is
# scaled by NOMINAL_NS / (the reference's time around it).  Each workload's
# reference resembles its dominant work, so both slow down alike.

_REF_BLOB = bytes(range(256)) * 64
_REF_P = (1 << 2048) - 159
_REF_X = pow(3, (1 << 2040) + 1, _REF_P)
_REF_E = (1 << 256) - 189
REF_PROCESS = ["-c", "import numpy, click"]


def lamport_reference() -> None:
    """A small Merkle-sign-like job: 32-byte slices, short SHA-256 calls, joins."""
    blob = _REF_BLOB
    hashes = b"".join(hashlib.sha256(blob[i * 32 : (i + 1) * 32]).digest() for i in range(512))
    out = bytearray()
    for j in range(256):
        out += hashes[j * 64 : j * 64 + 32]
    hashlib.sha256(blob + bytes(out)).digest()


def pow_reference() -> None:
    """One 2048-bit modular exponentiation with a 256-bit exponent."""
    pow(_REF_X, _REF_E, _REF_P)


# About the duration of each reference on a 2.1 GHz Xeon VM, so
# scaled times read as milliseconds on that host.  Changing one rescales
# every figure of the workloads that use it.
NOMINAL_NS = {"lamport": 400_000, "pow": 4_000_000, "process": 150_000_000}
IN_PROCESS_REFERENCES = {"lamport": lamport_reference, "pow": pow_reference}


def time_reference(kind: str, cwd=None, env=None) -> int:
    """Duration of one run of reference `kind`, in ns."""
    if kind == "process":
        wall, _ = time_process([sys.executable, *REF_PROCESS], cwd, env, check=True)
        return wall
    fn = IN_PROCESS_REFERENCES[kind]
    t0 = clock()
    fn()
    return clock() - t0


def timed_repeats(fn, reference, n: int = SETUP_REPEATS):
    """n timed calls of `fn`, with a reference timing before each call and
    after the last.  Returns the results, the durations and the reference
    durations."""
    out, times, refs = [], [], [reference()]
    for _ in range(n):
        t0 = clock()
        out.append(fn())
        times.append(clock() - t0)
        refs.append(reference())
    return out, times, refs


def int_array() -> array:
    """A growable array of 64-bit ints: a run keeps tens of thousands of
    timings, and as Python ints they would add megabytes to the peak RSS."""
    return array("q")


@dataclass
class Tally:
    """Timings and checked outcomes of the timed ops of one pass."""

    sign_ns: array = field(default_factory=int_array)
    verify_ns: array = field(default_factory=int_array)
    sig_bytes: array = field(default_factory=int_array)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # the first few, for the report

    def check(self, ok: bool, what) -> None:
        """Counts one checked op; `what()` describes it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what())


def derived_rng(seed: int, label: bytes, i: int) -> Rng:
    return Rng(hashlib.sha256(b"perfbench:%s:%d:%d" % (label, seed, i)).digest())


def log_uniform_sizes(gen: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n sizes log-uniform over [lo, hi), one from each of n equal strata.

    Stratifying keeps the size mix, and so the medians, alike across seeds.
    """
    sizes = [int(lo * (hi / lo) ** ((k + gen.random()) / n)) for k in range(n)]
    gen.shuffle(sizes)
    return sizes


def flip_bit(blob: bytes, r: int) -> bytes:
    pos = r % (8 * len(blob))
    out = bytearray(blob)
    out[pos // 8] ^= 1 << (pos % 8)
    return bytes(out)


def time_process(cmd: list, cwd: Path, env: dict,
                 check: bool = False) -> tuple[int, subprocess.CompletedProcess]:
    t0 = clock()
    proc = subprocess.run(
        cmd, cwd=cwd, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S, check=check
    )
    return clock() - t0, proc


# ---------------------------------------------------------------------------
# dl-2048 and sis-h10: in-process sign, verify and mauled verify


class Signing:
    def __init__(self, ch_kind, ch_params, height, max_msg, cycle, digest_steps,
                 reference_kind):
        self.reference_kind = reference_kind
        self.ch_kind = ch_kind
        self.ch_params = ch_params
        self.height = height
        self.max_msg = max_msg
        self.cycle = cycle
        self.digest_steps = digest_steps

    def setup(self, seed: int) -> list[int]:
        self.seed = seed
        gen = random.Random(seed)
        sizes = log_uniform_sizes(gen, self.cycle, 32, self.max_msg)
        self.messages = [gen.randbytes(n) for n in sizes]
        self.flips = [gen.getrandbits(64) for _ in range(self.cycle)]
        self.keys = []
        _, times, refs = timed_repeats(
            lambda: self.keys.append(self._keygen(len(self.keys))), self.reference
        )
        self.sk_bytes = len(self.keys[0].secret_bytes())
        return times, refs

    def reference(self) -> int:
        return time_reference(self.reference_kind)

    def _keygen(self, j: int):
        return transform.g_prime(
            merkle_descriptor(self.height), self.ch_kind, self.ch_params,
            derived_rng(self.seed, b"keygen", j),
        )

    def retrace_setup(self) -> bool:
        """Generates key 0 again; True if it has the same bytes."""
        return self._keygen(0).secret_bytes() == self.keys[0].secret_bytes()

    def reset(self) -> None:
        pass  # prepare(0) takes key 0 again; key pairs are immutable

    def prepare(self, i: int) -> None:
        j, leaf = divmod(i, 1 << self.height)
        if leaf:
            return
        # never sign past a key's capacity; later keys are not kept, so the
        # peak RSS does not grow with the number of steps
        self.kp = self.keys[j] if j < len(self.keys) else self._keygen(j)
        self.pk = transform.public_key_of(self.kp)
        self.oracle = production_oracle(self.kp.ch_inst)

    def step(self, i: int, tally: Tally) -> list[bytes]:
        message = self.messages[i % self.cycle]
        rng = derived_rng(self.seed, b"sign", i)
        t0 = clock()
        try:
            sig, kp = transform.s_prime(self.kp, message, self.oracle, rng)
            blob = sig.serialize(self.kp.ch_inst)
        except Exception as e:
            tally.check(False, lambda: f"sign step {i}: {e!r}")
            return []
        tally.sign_ns.append(clock() - t0)
        tally.check(True, None)
        self.kp = kp
        tally.sig_bytes.append(len(blob))
        self._verify(tally, i, blob, message, True)
        self._verify(tally, i, flip_bit(blob, self.flips[i % self.cycle]), message, False)
        return [blob]

    def _verify(self, tally, i, blob, message, expect: bool) -> None:
        t0 = clock()
        try:
            try:
                sig = transform.deserialize_signature(
                    blob, self.pk.ch_inst, self.pk.base_descriptor
                )
            except ToosignError:
                verdict = False
            else:
                verdict = transform.v_prime(self.pk, message, sig, self.oracle)
        except Exception as e:
            verdict = e
        tally.verify_ns.append(clock() - t0)
        tally.check(
            verdict is expect,
            lambda: f"verify step {i}: expected {expect}, got {verdict!r}",
        )


# ---------------------------------------------------------------------------
# game-sweep: one seeded SU game per step through games.game_report

ADVERSARIES = {
    "mauling": lambda ch: games.MaulingAdversary(),
    "replay": lambda ch: games.ReplayAdversary(),
    "lucky": lambda ch: games.LuckyGuesser(),
    "case1": lambda ch: games.CaseOneForger(ch),
    "case2": lambda ch: games.CaseTwoForger(ch),
}
# win rate an adversary reaches in every game against the transformed scheme
# (mauling and lucky win by oracle collisions on the small demo ranges)
REQUIRED_WIN_RATE = {"replay": 0.0, "case1": 1.0, "case2": 1.0}
GAME_CHAMELEONS = {
    "dl-demo": (ChameleonKind.DL, {"name": "dl-demo"}),
    "sis-desk": (ChameleonKind.SIS, SIS_DESK),
}
SCHEDULE_PASSES = 2  # shuffled passes over all game configurations


class _Recording(games.Adversary):
    """Passes every call to `inner`; keeps the signature bytes it sees."""

    def __init__(self, inner, sink: list, tally: Tally):
        self.inner = inner
        self.sink = sink
        self.tally = tally

    def start(self, pk_bytes, rng):
        self.inner.start(pk_bytes, rng)

    def next_action(self):
        action = self.inner.next_action()
        if action[0] == "finish":
            self.sink.append(action[2])
        return action

    def on_signature(self, message, sig_bytes):
        self.sink.append(sig_bytes)
        self.tally.sig_bytes.append(len(sig_bytes))
        self.inner.on_signature(message, sig_bytes)

    def on_ro_answer(self, x, value):
        self.inner.on_ro_answer(x, value)


def _timed(challenger, tally: Tally):
    """Times the challenger's sign and verify calls into `tally`."""
    sign, verify = challenger.sign, challenger.verify

    def timed_sign(message):
        t0 = clock()
        out = sign(message)
        tally.sign_ns.append(clock() - t0)
        return out

    def timed_verify(message, sig_bytes):
        t0 = clock()
        out = verify(message, sig_bytes)
        tally.verify_ns.append(clock() - t0)
        return out

    challenger.sign, challenger.verify = timed_sign, timed_verify
    return challenger


class GameSweep:
    """Each step plays one configuration twice on the same game seed: with a
    fresh key per game, as `too-sign game` does, and with one shared key, as
    the acceptance sweeps do.  Fresh-key games take about twice as long, so
    a step of one of each keeps the step-time median off the gap between
    the two.  Besides the signatures, the digest covers each game's report."""

    digest_steps = 62  # two passes over the 31 configurations
    cycle = SCHEDULE_PASSES * 31
    reference_kind = "lamport"

    def setup(self, seed: int) -> list[int]:
        self.seed = seed
        self.base = games.wrap_malleable(merkle_descriptor(2))
        configs = [
            (adv, variant, ch)
            for adv in ADVERSARIES
            for variant in ChallengerVariant
            for ch in GAME_CHAMELEONS
        ]
        configs.append(("mauling", None, "raw"))
        gen = random.Random(seed)
        self.schedule = []
        for _ in range(SCHEDULE_PASSES):
            gen.shuffle(configs)
            self.schedule += [(c, gen.getrandbits(64)) for c in configs]
        keys, times, refs = timed_repeats(self._shared_keys, self.reference)
        self.shared = keys[-1]
        sizes = [len(kp.secret_bytes()) for kp in self.shared.values()]
        self.sk_bytes = sum(sizes) / len(sizes)
        return times, refs

    def reference(self) -> int:
        return time_reference(self.reference_kind)

    def _shared_keys(self) -> dict:
        return {
            ch: transform.g_prime(self.base, kind, params,
                                  derived_rng(self.seed, b"shared-" + ch.encode(), 0))
            for ch, (kind, params) in GAME_CHAMELEONS.items()
        }

    def retrace_setup(self) -> bool:
        again = self._shared_keys()
        return all(
            again[ch].secret_bytes() == kp.secret_bytes() for ch, kp in self.shared.items()
        )

    def reset(self) -> None:
        pass

    def prepare(self, i: int) -> None:
        pass

    def step(self, i: int, tally: Tally) -> list[bytes]:
        config, game_seed = self.schedule[i % self.cycle]
        sigs = []
        for shared in (False, True):
            self._game(config, game_seed, shared, tally, sigs)
        return sigs

    def _game(self, config, game_seed, shared, tally, sigs) -> None:
        adv, variant, ch = config

        def make_challenger(master):
            if ch == "raw":  # RawChallenger always generates its own key
                return _timed(games.RawChallenger(self.base, master), tally)
            kind, params = GAME_CHAMELEONS[ch]
            keypair = self.shared[ch] if shared else None
            return _timed(
                games.make_transformed_challenger(
                    variant, self.base, kind, params, master, keypair=keypair
                ),
                tally,
            )

        def make_adversary(challenger):
            return _Recording(ADVERSARIES[adv](challenger), sigs, tally)

        def label():
            return f"game {config} shared={shared} seed={game_seed}"

        try:
            report = games.game_report(
                GameKind.SU, variant or ChallengerVariant.HYD0,
                make_challenger, make_adversary, range(game_seed, game_seed + 1),
            )
        except Exception as e:
            tally.check(False, lambda: f"{label()}: {e!r}")
            return
        required = 1.0 if ch == "raw" else REQUIRED_WIN_RATE.get(adv)
        tally.check(
            report["extractor_failures"] == 0
            and required in (None, report["win_rate"]),
            lambda: f"{label()}: {report}",
        )
        sigs.append(json.dumps(report, sort_keys=True).encode())


# ---------------------------------------------------------------------------
# cli: sequential `too-sign` processes


class Cli:
    digest_steps = 4
    cycle = 2  # message files; a process costs about 0.4 s
    reference_kind = "process"

    def __init__(self, tmp: Path, env: dict, child_script: Path):
        self.tmp = tmp
        self.env = env
        self.child_script = child_script
        self.rec = None  # set for the traced pass: children record spans

    def _run(self, args: list) -> tuple[int, subprocess.CompletedProcess]:
        if self.rec is None:
            return time_process([sys.executable, "-m", "toosign.cli", *args], self.tmp, self.env)
        dump = self.tmp / "spans.json"
        wall, proc = time_process(
            [sys.executable, str(self.child_script), str(dump), *args], self.tmp, self.env
        )
        if dump.exists():
            self.rec.merge({self.rec.bucket_name: json.loads(dump.read_text())})
            dump.unlink()
        return wall, proc

    def _keygen(self, j: int, out: str):
        return self._run([
            "keygen", "--chameleon", "dl", "--height", "10", "--out", out,
            "--seed", derived_rng(self.seed, b"keygen", j).seed.hex(),
        ])

    def setup(self, seed: int) -> list[int]:
        self.seed = seed
        gen = random.Random(seed)
        for k, n in enumerate(log_uniform_sizes(gen, self.cycle, 32, 4096)):
            (self.tmp / f"msg{k}").write_bytes(gen.randbytes(n))
        self.flips = [gen.getrandbits(64) for _ in range(self.cycle)]
        procs, times, refs = timed_repeats(
            lambda: self._keygen(0, "key0")[1], self.reference
        )
        for proc in procs:
            if proc.returncode != 0:
                raise RuntimeError(f"keygen exited {proc.returncode}: {proc.stderr.decode()}")
        self.key0 = (self.tmp / "key0.tookey").read_bytes()
        self.sk_bytes = len(self.key0)
        return times, refs

    def reference(self) -> int:
        return time_reference(self.reference_kind, self.tmp, self.env)

    def retrace_setup(self) -> bool:
        self._keygen(0, "again")
        return (self.tmp / "again.tookey").read_bytes() == self.key0

    def reset(self) -> None:
        (self.tmp / "key0.tookey").write_bytes(self.key0)

    def prepare(self, i: int) -> None:
        pass  # at most a few hundred signs per run; the key has 1024 leaves

    def step(self, i: int, tally: Tally) -> list[bytes]:
        msg = f"msg{i % self.cycle}"
        seed = derived_rng(self.seed, b"sign", i).seed.hex()
        try:
            wall, proc = self._run(["sign", "--key", "key0.tookey", "--pub", "key0.toopub",
                                    "--in", msg, "--out", "sig", "--seed", seed])
        except subprocess.TimeoutExpired:
            tally.check(False, lambda: f"sign step {i}: timed out")
            return []
        tally.sign_ns.append(wall)
        tally.check(proc.returncode == 0,
                    lambda: f"sign step {i}: exit {proc.returncode}: {proc.stderr[-300:]!r}")
        if proc.returncode != 0:
            return []
        blob = (self.tmp / "sig").read_bytes()
        tally.sig_bytes.append(len(blob))
        (self.tmp / "mauled").write_bytes(flip_bit(blob, self.flips[i % self.cycle]))
        # exit 1 must be a verdict, not a crash: a traceback also exits 1
        for sig, verdicts in (("sig", {0: b"accept"}), ("mauled", {1: b"reject", 2: b""})):
            try:
                wall, proc = self._run(["verify", "--pub", "key0.toopub", "--in", msg,
                                        "--sig", sig])
            except subprocess.TimeoutExpired:
                tally.check(False, lambda: f"verify {sig} step {i}: timed out")
                continue
            tally.verify_ns.append(wall)
            expected = verdicts.get(proc.returncode)
            tally.check(expected is not None and expected in proc.stdout,
                        lambda: f"verify {sig} step {i}: exit {proc.returncode}: "
                                f"{proc.stderr[-300:]!r}")
        return [blob]


def make(name: str, tmp: Path, env: dict, child_script: Path):
    # A sis-h10 step costs about 2 ms, a dl-2048 step 0.15 s.
    if name == "dl-2048":
        return Signing(ChameleonKind.DL, {"name": "dl-2048"}, height=8,
                       max_msg=4096, cycle=4, digest_steps=8, reference_kind="pow")
    if name == "sis-h10":
        return Signing(ChameleonKind.SIS, SIS_DESK, height=10,
                       max_msg=65536, cycle=100, digest_steps=64, reference_kind="lamport")
    if name == "game-sweep":
        return GameSweep()
    return Cli(tmp, env, child_script)
