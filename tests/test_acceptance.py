"""Acceptance gate: one quantitative check per headline property.

Each test prints a single PASS/FAIL line (visible even under capture) and
asserts the stated tolerance.  Tolerances are absolute and hard-coded; a
failure here means the library does not deliver the property, not that a
threshold needs loosening.
"""

import time

import numpy as np
import pytest
import scipy.stats

from toosign import chameleon, games
from toosign.bench import overhead_report
from toosign.chameleon import ChameleonKind, CollisionVerdict, RangeSample
from toosign.games import (
    CaseOneForger,
    CaseTwoForger,
    ChallengerVariant,
    GameKind,
    LuckyGuesser,
    MaulingAdversary,
    RawChallenger,
    case1_extract,
    case2_extract,
    classify_forgery,
    hybrid_transcript_compare,
    make_transformed_challenger,
    wrap_malleable,
)
from toosign.gaussian import DiscreteGaussian
from toosign.merkle import merkle_descriptor
from toosign.oracle import production_oracle
from toosign.registry import scheme_keygen
from toosign.rng import rng_from_int
from toosign.sis import hg_sis
from toosign.transform import (
    TransformedKeyPair,
    g_prime,
    public_key_of,
    s_prime,
    v_prime,
)

SIS_DESK = {"n": 4, "q": 257, "m": 12, "k": 8}
DL_DEMO = {"name": "dl-demo"}


@pytest.fixture
def report(capsys, request):
    def _report(ok: bool, detail: str):
        name = request.node.name.replace("test_", "", 1)
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, detail

    return _report


def test_correctness_sweep(report):
    """10^3 random messages per (base scheme x instantiation), all accept, <60s."""
    bases = {
        "one-time-tree": merkle_descriptor(10),
        "malleable-wrapper": wrap_malleable(merkle_descriptor(10)),
    }
    chams = {
        "dl": (ChameleonKind.DL, DL_DEMO),
        "sis": (ChameleonKind.SIS, SIS_DESK),
    }
    start = time.monotonic()
    failures = 0
    total = 0
    for bi, (bname, base) in enumerate(bases.items()):
        for ci, (cname, (kind, params)) in enumerate(chams.items()):
            rng = rng_from_int(1000 + 10 * bi + ci)
            kp = g_prime(base, kind, params, rng)
            pk = public_key_of(kp)
            oracle = production_oracle(kp.ch_inst)
            for i in range(1000):
                msg = rng.random_bytes(1 + rng.randbelow(64))
                sig, kp = s_prime(kp, msg, oracle, rng)
                failures += not v_prime(pk, msg, sig, oracle)
                total += 1
    elapsed = time.monotonic() - start
    report(
        failures == 0 and elapsed < 60.0,
        f"{total - failures}/{total} verified, {elapsed:.1f}s (limit 60s)",
    )


def test_overhead_formulas(report):
    """Measured key/signature growth equals n(k+m), m^2, m exactly."""
    rep = overhead_report(
        merkle_descriptor(2), ChameleonKind.SIS, SIS_DESK, rng_from_int(0).seed
    )
    ok = rep["measured_elements"] == rep["predicted_elements"] == {
        "pk": 80, "sk": 144, "sig": 12,
    }
    report(ok, f"measured {rep['measured_elements']}, predicted {rep['predicted_elements']}")


def test_chameleon_inversion(report):
    """Exhaustive DL inversion plus 10^3 SIS preimage trials, zero failures."""
    inst, td = chameleon.hg(ChameleonKind.DL, DL_DEMO, rng_from_int(1))
    dl_failures = 0
    dl_total = 0
    for m_t in range(11):
        for r_t in range(11):
            target = chameleon.ch_hash(inst, m_t, r_t)
            sample = RangeSample(element=target, trace_message=m_t, trace_randomness=r_t)
            for m_new in range(11):
                r_new = chameleon.ch_invert(inst, td, m_new, sample)
                dl_failures += chameleon.ch_hash(inst, m_new, r_new) != target
                dl_total += 1

    sinst, std_ = chameleon.hg(ChameleonKind.SIS, SIS_DESK, rng_from_int(2))
    rng = rng_from_int(3)
    sis_failures = 0
    for _ in range(1000):
        sample = chameleon.sample_range(sinst, rng)
        m_new = chameleon.sample_message(sinst, rng)
        r_new = chameleon.ch_invert(sinst, std_, m_new, sample, rng)
        ok = np.array_equal(chameleon.ch_hash(sinst, m_new, r_new), sample.element)
        ok = ok and sinst.params.is_short(r_new)
        sis_failures += not ok
    report(
        dl_failures == 0 and sis_failures == 0,
        f"DL {dl_total - dl_failures}/{dl_total} exhaustive, "
        f"SIS {1000 - sis_failures}/1000 with norms <= s*sqrt(m)",
    )


def test_uniformity(report):
    """Hash output uniform over the range: DL exact, SIS within SD < 0.05."""
    inst, _ = chameleon.hg(ChameleonKind.DL, DL_DEMO, rng_from_int(4))
    subgroup = sorted(pow(inst.g, i, inst.p) for i in range(inst.q_grp))
    dl_exact = all(
        sorted(chameleon.ch_hash(inst, m, r) for r in range(11)) == subgroup
        for m in range(11)
    )

    # n2 q7 m8 k2, a set too small to name: hg_sis on the stream hg would pass
    sinst, _ = hg_sis(2, 7, 8, 2, rng_from_int(5))
    p = sinst.params
    n_samples = 100_000
    rng = rng_from_int(6)
    gauss = DiscreteGaussian(p.s)
    r_mat = np.asarray(gauss.sample_vector(rng, n_samples * p.m)).reshape(n_samples, p.m)
    r_mat = r_mat[(r_mat * r_mat).sum(axis=1) <= p.norm_bound_sq]
    m = chameleon.sample_message(sinst, rng)
    syn = (np.asarray(sinst.A) @ m + r_mat @ np.asarray(sinst.B).T) % p.q
    cells = syn[:, 0] * p.q + syn[:, 1]
    counts = np.bincount(cells, minlength=p.q**2)
    emp = counts / counts.sum()
    sd = 0.5 * float(np.abs(emp - 1.0 / p.q**2).sum())
    report(
        dl_exact and sd < 0.05,
        f"DL exactly uniform per message: {dl_exact}; "
        f"SIS statistical distance {sd:.4f} over {p.q**2} cells (< 0.05)",
    )


def test_hybrid_coupling(report):
    """Standard signing and the reprogramming hybrid are byte-identical to a
    non-probing adversary on coupled seeds, 100/100."""
    res = hybrid_transcript_compare(
        lambda ch: LuckyGuesser(),
        range(100),
        (ChallengerVariant.HYD0, ChallengerVariant.HYD1),
        merkle_descriptor(2),
        ChameleonKind.DL,
        DL_DEMO,
    )
    report(
        res["matches"] == 100,
        f"{res['matches']}/100 transcripts byte-identical "
        f"(divergent seeds: {res['divergent_seeds'][:5]})",
    )


def test_hybrid_exactness(report):
    """Trapdoor and trapdoor-free signing agree in win rate and transcript
    distribution over 10^4 seeds (chi-square p > 0.001)."""
    q = 11
    kp = g_prime(
        merkle_descriptor(1), ChameleonKind.DL, DL_DEMO, rng_from_int(7)
    )
    n_seeds = 10_000
    wins = {}
    joint = {}
    for variant in (ChallengerVariant.HYD1, ChallengerVariant.HYD2):
        w = 0
        counts = np.zeros(q * q, dtype=np.int64)

        def make_challenger(master):
            return make_transformed_challenger(
                variant, merkle_descriptor(1), ChameleonKind.DL, DL_DEMO,
                master, keypair=kp,
            )

        for seed in range(n_seeds):
            t = games.play(GameKind.SU, seed, make_challenger, lambda ch: LuckyGuesser(), 2)
            w += t.verdict
            rec = t.queries[0]
            counts[int(rec.m_value) * q + int(rec.randomness)] += 1
        wins[variant] = w
        joint[variant] = counts

    w1, w2 = wins[ChallengerVariant.HYD1], wins[ChallengerVariant.HYD2]
    win_table = np.array([[w1, n_seeds - w1], [w2, n_seeds - w2]])
    _, p_win, _, _ = scipy.stats.chi2_contingency(win_table)

    table = np.stack([joint[ChallengerVariant.HYD1], joint[ChallengerVariant.HYD2]])
    table = table[:, table.sum(axis=0) > 0]
    _, p_dist, _, _ = scipy.stats.chi2_contingency(table)

    report(
        p_win > 0.001 and p_dist > 0.001,
        f"win rates {w1 / n_seeds:.4f} vs {w2 / n_seeds:.4f} (p={p_win:.3f}), "
        f"joint (m, r) distribution p={p_dist:.3f} over {table.shape[1]} cells",
    )


def test_case2_extractor(report):
    """10^3 synthetic repeated-range-value wins: every extraction is a valid
    collision (oracle collisions counted) and reveals the DL trapdoor."""
    kp = g_prime(
        merkle_descriptor(1), ChameleonKind.DL, DL_DEMO, rng_from_int(8)
    )

    def make_challenger(master):
        return make_transformed_challenger(
            ChallengerVariant.HYD0, merkle_descriptor(1), ChameleonKind.DL,
            DL_DEMO, master, keypair=kp,
        )

    valid = trivial = failures = 0
    for seed in range(1000):
        t = games.play(GameKind.SU, seed, make_challenger, CaseTwoForger, 2)
        chal = t.challenger
        if not t.verdict or classify_forgery(t).case != 2:
            failures += 1
            continue
        pair_star, pair_i, verdict = case2_extract(t)
        if verdict is CollisionVerdict.TRIVIAL:
            trivial += 1
        elif verdict is CollisionVerdict.VALID:
            x = chameleon.dl_recover_trapdoor(chal.kp.ch_inst, pair_star, pair_i)
            if x == kp.ch_td.x and pow(chal.kp.ch_inst.g, x, chal.kp.ch_inst.p) == chal.kp.ch_inst.y:
                valid += 1
            else:
                failures += 1
        else:
            failures += 1
    report(
        failures == 0 and valid + trivial == 1000,
        f"{valid} valid collisions (trapdoor recovered in all), "
        f"{trivial} counted oracle collisions, {failures} failures",
    )


def test_case1_extractor(report):
    """10^3 synthetic fresh-range-value wins: extracted base forgery verifies
    and is fresh, 100%."""
    kp = g_prime(
        merkle_descriptor(2), ChameleonKind.SIS, SIS_DESK, rng_from_int(9)
    )

    def make_challenger(master):
        return make_transformed_challenger(
            ChallengerVariant.HYD0, merkle_descriptor(2), ChameleonKind.SIS,
            SIS_DESK, master, keypair=kp,
        )

    successes = 0
    for seed in range(1000):
        t = games.play(GameKind.SU, seed, make_challenger, CaseOneForger, 4)
        if t.verdict and classify_forgery(t).case == 1:
            case1_extract(t)  # raises unless the base forgery verifies and is fresh
            successes += 1
    report(successes == 1000, f"{successes}/1000 extractions verify and are fresh")


def test_malleability_closure(report):
    """The byte-flip adversary wins 100/100 against the malleable base and
    0/1000 against its hardened wrapper."""
    desc = wrap_malleable(merkle_descriptor(1))

    def wins(make_challenger, seeds):
        return sum(games.play(GameKind.SU, seed, make_challenger,
                              lambda ch: MaulingAdversary(), 2).verdict for seed in seeds)

    raw_wins = wins(lambda m: RawChallenger(desc, m), range(100))

    # k = 32 message bits: the desk k = 8 leaves only 2^8 oracle outputs, so
    # a maul survives at the expected ~2^-8 rate; 32 bits makes it negligible.
    # The set is not named, so the key is built from the forks g_prime takes.
    keygen_rng = rng_from_int(10)
    inst, td = hg_sis(4, 257, 12, 32, keygen_rng.fork(b"chameleon-hg"))
    base = scheme_keygen(desc, keygen_rng.fork(b"base-keygen"))
    kp = TransformedKeyPair(base=base, ch_inst=inst, ch_td=td)
    hardened_wins = wins(lambda m: make_transformed_challenger(
        ChallengerVariant.HYD0, desc, ChameleonKind.SIS, None, m, keypair=kp,
    ), range(1000))
    report(
        raw_wins == 100 and hardened_wins == 0,
        f"raw base: {raw_wins}/100 wins; hardened: {hardened_wins}/1000 wins",
    )


def test_sis_collision_consequence(report):
    """100 synthetic lattice collisions all map to nonzero z with
    [A|B]z = 0 mod q and ||z|| <= sqrt(k) + 2s*sqrt(m)."""
    inst, td = chameleon.hg(ChameleonKind.SIS, SIS_DESK, rng_from_int(11))
    p = inst.params
    AB = np.concatenate([inst.A, inst.B], axis=1)
    bound = np.sqrt(p.k) + 2 * p.s * np.sqrt(p.m)
    rng = rng_from_int(12)
    failures = 0
    for _ in range(100):
        sample = chameleon.sample_range(inst, rng)
        m2 = chameleon.sample_message(inst, rng)
        while np.array_equal(m2, sample.trace_message):
            m2 = chameleon.sample_message(inst, rng)
        r2 = chameleon.ch_invert(inst, td, m2, sample, rng)
        z = np.asarray(chameleon.sis_collision_to_short_vector(
            inst, (sample.trace_message, sample.trace_randomness), (m2, r2)
        ))
        ok = (
            np.any(z != 0)
            and np.all((AB @ z) % p.q == 0)
            and float(np.linalg.norm(z)) <= bound
        )
        failures += not ok
    report(failures == 0, f"{100 - failures}/100 collisions map to short kernel vectors")
