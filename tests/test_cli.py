"""End-to-end command-line behaviour: round trips, exit codes, locking."""

import argparse
import fcntl
import json
import os
import signal
import stat
import subprocess
import sys

import pytest

from toosign import chameleon, cli, encoding, games, merkle, transform
from toosign.chameleon import ChameleonKind
from toosign.errors import DomainError
from toosign.oracle import frame, production_oracle
from toosign.rng import rng_from_int

SEED_A = "11" * 32
SEED_B = "22" * 32
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def too_sign(*args, cwd=None, driver=None):
    # Run the checkout's entry point, not whatever `too-sign` is on PATH, or
    # a driver script that calls it.  The children run in tmp dirs, so `src`
    # must be absolute.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    entry = ["-c", driver] if driver else ["-m", "toosign.cli"]
    return subprocess.run(
        [sys.executable, *entry, *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "msg.txt").write_bytes(b"the quick brown fox")
    r = too_sign(
        "keygen", "--chameleon", "dl-demo", "--height", "2",
        "--out", "key", "--seed", SEED_A, cwd=tmp_path,
    )
    assert r.returncode == 0, r.stderr
    return tmp_path


def test_sign_verify_round_trip(workspace):
    r = too_sign("sign", "--key", "key.tookey", "--pub", "key.toopub",
                 "--in", "msg.txt", "--out", "msg.toosig", "--seed", SEED_B,
                 cwd=workspace)
    assert r.returncode == 0, r.stderr
    r = too_sign("verify", "--pub", "key.toopub", "--in", "msg.txt",
                 "--sig", "msg.toosig", cwd=workspace)
    assert r.returncode == 0 and "accept" in r.stdout


def test_verify_rejects_wrong_message(workspace):
    too_sign("sign", "--key", "key.tookey", "--pub", "key.toopub",
             "--in", "msg.txt", "--out", "msg.toosig", "--seed", SEED_B,
             cwd=workspace)
    (workspace / "other.txt").write_bytes(b"a different message")
    r = too_sign("verify", "--pub", "key.toopub", "--in", "other.txt",
                 "--sig", "msg.toosig", cwd=workspace)
    assert r.returncode == 1 and "reject" in r.stdout


def test_verify_flags_malformed_signature(workspace):
    (workspace / "junk.toosig").write_bytes(b"this is not a signature")
    r = too_sign("verify", "--pub", "key.toopub", "--in", "msg.txt",
                 "--sig", "junk.toosig", cwd=workspace)
    assert r.returncode == 2


def test_verify_flags_padded_dl_randomness(workspace):
    """A zero byte in front of the randomness integer is malformed (exit 2):
    a signature has one encoding, so padding makes no second signature."""
    assert too_sign("sign", "--key", "key.tookey", "--pub", "key.toopub",
                    "--in", "msg.txt", "--out", "msg.toosig", "--seed", SEED_B,
                    cwd=workspace).returncode == 0
    sig = (workspace / "msg.toosig").read_bytes()
    tag, (base, record) = encoding.decode_record(sig, encoding.TAG_TRANSFORMED_SIG)
    _, (r,) = encoding.decode_record(record, encoding.TAG_RANDOMNESS)
    padded = encoding.encode_record(encoding.TAG_RANDOMNESS, [b"\x00" + r])
    (workspace / "padded.toosig").write_bytes(encoding.encode_record(tag, [base, padded]))
    r = too_sign("verify", "--pub", "key.toopub", "--in", "msg.txt",
                 "--sig", "padded.toosig", cwd=workspace)
    assert r.returncode == 2 and "Traceback" not in r.stderr, r.stderr


def test_truncated_public_key_is_malformed(workspace):
    """A 5-byte public key is malformed input (exit 2) for verify and sign."""
    assert too_sign("sign", "--key", "key.tookey", "--pub", "key.toopub",
                    "--in", "msg.txt", "--out", "msg.toosig", "--seed", SEED_B,
                    cwd=workspace).returncode == 0
    (workspace / "cut.toopub").write_bytes((workspace / "key.toopub").read_bytes()[:5])
    r = too_sign("verify", "--pub", "cut.toopub", "--in", "msg.txt",
                 "--sig", "msg.toosig", cwd=workspace)
    assert r.returncode == 2 and "Traceback" not in r.stderr, r.stderr
    r = too_sign("sign", "--key", "key.tookey", "--pub", "cut.toopub",
                 "--in", "msg.txt", "--out", "cut.toosig", "--seed", SEED_B,
                 cwd=workspace)
    assert r.returncode == 2 and "Traceback" not in r.stderr, r.stderr


def test_altered_dl_group_is_malformed(workspace):
    """sign with a public key whose DL q was altered exits 2, not with a crash.

    q = 2x shares a factor with the trapdoor x, which an unchecked group
    turns into a failed inversion mod q while signing.
    """
    pk = (workspace / "key.toopub").read_bytes()
    _, pk_fields = encoding.decode_record(pk, encoding.TAG_TRANSFORMED_PK)
    _, inst = encoding.decode_record(pk_fields[2], encoding.TAG_DL_INSTANCE)
    sk = (workspace / "key.tookey").read_bytes()
    _, sk_fields = encoding.decode_record(sk, encoding.TAG_TRANSFORMED_SK)
    _, td = encoding.decode_record(sk_fields[2], encoding.TAG_DL_TRAPDOOR)
    inst[1] = encoding.encode_int(2 * encoding.decode_int(td[0]))
    pk_fields[2] = encoding.encode_record(encoding.TAG_DL_INSTANCE, inst)
    (workspace / "bad.toopub").write_bytes(
        encoding.encode_record(encoding.TAG_TRANSFORMED_PK, pk_fields)
    )
    r = too_sign("sign", "--key", "key.tookey", "--pub", "bad.toopub",
                 "--in", "msg.txt", "--out", "bad.toosig", "--seed", SEED_B,
                 cwd=workspace)
    assert r.returncode == 2 and "Traceback" not in r.stderr, r.stderr
    assert not (workspace / "bad.toosig").exists()


def sign_refused(workspace, key, pub):
    """sign exits 2, keeps the key's bytes and leaves no new file behind."""
    key_before = (workspace / key).read_bytes()
    files_before = set(os.listdir(workspace))
    r = too_sign("sign", "--key", key, "--pub", pub, "--in", "msg.txt",
                 "--out", "refused.toosig", "--seed", SEED_B, cwd=workspace)
    assert r.returncode == 2 and "Traceback" not in r.stderr, r.stderr
    assert (workspace / key).read_bytes() == key_before
    assert set(os.listdir(workspace)) - files_before <= {key + ".lock"}


def sis_key(workspace):
    """Writes the sis-desk key pair sk.toopub, sk.tookey; returns its params."""
    assert too_sign("keygen", "--chameleon", "sis", "--height", "1",
                    "--out", "sk", "--seed", SEED_A, cwd=workspace).returncode == 0
    pk = transform.TransformedPublicKey.deserialize((workspace / "sk.toopub").read_bytes())
    return pk.ch_inst.params


def test_tampered_sis_trapdoor_is_malformed(workspace):
    """A SIS trapdoor whose R no longer matches B spends no leaf: signing
    with it would release a signature that no verifier accepts."""
    p = sis_key(workspace)
    width = 2  # q = 257
    at = width * p.m_bar  # T[0, m_bar] = R[0, 0], which is 1 or q - 1

    def negate_entry(blob):
        entry = int.from_bytes(blob[at : at + width], "big")
        return blob[:at] + (p.q - entry).to_bytes(width, "big") + blob[at + width :]

    sk = edit_record(
        (workspace / "sk.tookey").read_bytes(), encoding.TAG_TRANSFORMED_SK, 2,
        lambda record: edit_record(record, encoding.TAG_SIS_TRAPDOOR, 0, negate_entry),
    )
    (workspace / "bad.tookey").write_bytes(sk)
    sign_refused(workspace, "bad.tookey", "sk.toopub")


def plus_q(blob, at, q):
    """blob with its 2-byte matrix entry at byte `at` raised by q."""
    entry = int.from_bytes(blob[at : at + 2], "big") + q
    return blob[:at] + entry.to_bytes(2, "big") + blob[at + 2 :]


def test_sis_public_key_entry_plus_q_is_malformed(workspace):
    """A[0, 0] + q is the same entry mod q, but a second encoding of the key:
    verify exits 2 on it, where it accepts the signature under the real key."""
    p = sis_key(workspace)
    assert too_sign("sign", "--key", "sk.tookey", "--pub", "sk.toopub", "--in", "msg.txt",
                    "--out", "msg.toosig", "--seed", SEED_B, cwd=workspace).returncode == 0
    pk = edit_record(
        (workspace / "sk.toopub").read_bytes(), encoding.TAG_TRANSFORMED_PK, 2,
        lambda record: edit_record(record, encoding.TAG_SIS_INSTANCE, 5,
                                   lambda a: plus_q(a, 0, p.q)),
    )
    (workspace / "bad.toopub").write_bytes(pk)
    for pub, code in (("sk.toopub", 0), ("bad.toopub", 2)):
        r = too_sign("verify", "--pub", pub, "--in", "msg.txt", "--sig", "msg.toosig",
                     cwd=workspace)
        assert r.returncode == code and "Traceback" not in r.stderr, r.stderr


def test_sis_trapdoor_entry_plus_q_is_malformed(workspace):
    """An R entry of q + 1 once decoded as +1; now the key is malformed and
    sign spends no leaf."""
    p = sis_key(workspace)
    sk = (workspace / "sk.tookey").read_bytes()
    _, sk_fields = encoding.decode_record(sk, encoding.TAG_TRANSFORMED_SK)
    _, (T,) = encoding.decode_record(sk_fields[2], encoding.TAG_SIS_TRAPDOOR)
    # the first entry of the R block of T = [[I, R], [0, I]] that is +1
    at = next(2 * (row * p.m + col) for row in range(p.m_bar) for col in range(p.m_bar, p.m)
              if T[2 * (row * p.m + col) : 2 * (row * p.m + col) + 2] == b"\x00\x01")
    bad = edit_record(
        sk, encoding.TAG_TRANSFORMED_SK, 2,
        lambda record: edit_record(record, encoding.TAG_SIS_TRAPDOOR, 0,
                                   lambda t: plus_q(t, at, p.q)),
    )
    (workspace / "bad.tookey").write_bytes(bad)
    sign_refused(workspace, "bad.tookey", "sk.toopub")


def test_one_seed_on_two_leaves_keeps_the_trapdoor(tmp_path):
    """Two signs with one --seed commit to different range values, so their
    openings are no chameleon collision and do not reveal the trapdoor x."""
    assert too_sign("keygen", "--chameleon", "dl", "--height", "2", "--out", "key",
                    "--seed", SEED_A, cwd=tmp_path).returncode == 0
    pk = transform.TransformedPublicKey.deserialize((tmp_path / "key.toopub").read_bytes())
    ro = production_oracle(pk.ch_inst)
    openings = []
    for i in range(2):
        message = b"message %d" % i
        (tmp_path / f"m{i}.txt").write_bytes(message)
        assert too_sign("sign", "--key", "key.tookey", "--pub", "key.toopub",
                        "--in", f"m{i}.txt", "--out", f"m{i}.toosig", "--seed", SEED_B,
                        cwd=tmp_path).returncode == 0
        sig = transform.deserialize_signature(
            (tmp_path / f"m{i}.toosig").read_bytes(), pk.ch_inst, pk.base_descriptor
        )
        openings.append((ro.eval(frame(message, sig.base_sig.bytes)), sig.randomness))
    c0, c1 = (chameleon.ch_hash(pk.ch_inst, m, r) for m, r in openings)
    assert c0 != c1
    with pytest.raises(DomainError):
        chameleon.dl_recover_trapdoor(pk.ch_inst, *openings)


@pytest.mark.parametrize("multiple", [0, 1, 2])
def test_degenerate_trapdoor_is_malformed(workspace, multiple):
    """A DL trapdoor x of 0, q or 2q has no inverse mod q: the key is malformed."""
    sk = (workspace / "key.tookey").read_bytes()
    _, sk_fields = encoding.decode_record(sk, encoding.TAG_TRANSFORMED_SK)
    sk_fields[2] = encoding.encode_record(
        encoding.TAG_DL_TRAPDOOR, [encoding.encode_int(11 * multiple)]  # dl-demo q = 11
    )
    (workspace / "bad.tookey").write_bytes(
        encoding.encode_record(encoding.TAG_TRANSFORMED_SK, sk_fields)
    )
    sign_refused(workspace, "bad.tookey", "key.toopub")


def test_dl_trapdoor_that_does_not_match_y_is_malformed(workspace):
    """A dl-2048 trapdoor x + 1 is in range and invertible but g^(x+1) != y:
    signing with it would release a signature that no verifier accepts, so
    sign exits 2 and spends no leaf."""
    assert too_sign("keygen", "--chameleon", "dl", "--height", "1",
                    "--out", "dk", "--seed", SEED_A, cwd=workspace).returncode == 0
    sk = edit_record(
        (workspace / "dk.tookey").read_bytes(), encoding.TAG_TRANSFORMED_SK, 2,
        lambda record: edit_record(
            record, encoding.TAG_DL_TRAPDOOR, 0,
            lambda x: encoding.encode_int(encoding.decode_int(x) + 1),
        ),
    )
    (workspace / "bad.tookey").write_bytes(sk)
    sign_refused(workspace, "bad.tookey", "dk.toopub")


def test_public_key_of_another_pair_is_refused(workspace):
    """sign spends no leaf when the public key belongs to another key pair."""
    assert too_sign("keygen", "--chameleon", "dl-demo", "--height", "2",
                    "--out", "other", "--seed", SEED_B, cwd=workspace).returncode == 0
    sign_refused(workspace, "key.tookey", "other.toopub")


def edit_record(blob, tag, index, edit):
    """blob with field `index` of its record replaced by edit(field)."""
    _, fields = encoding.decode_record(blob, tag)
    fields[index] = edit(fields[index])
    return encoding.encode_record(tag, fields)


MALFORMED_MERKLE_SK = {
    # field of the transformed secret key -> (record tag, field index, edit)
    "empty descriptor parameters": (0, encoding.TAG_DESCRIPTOR, 1, lambda f: b""),
    "empty height field": (1, encoding.TAG_MERKLE_SK, 0, lambda f: b""),
    "height above the node blob": (1, encoding.TAG_MERKLE_SK, 0, lambda f: b"\x03"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MERKLE_SK))
def test_malformed_merkle_secret_key_is_refused(workspace, case):
    """A Merkle secret key whose layout does not match its height spends no leaf."""
    sk_field, tag, index, edit = MALFORMED_MERKLE_SK[case]
    sk = edit_record(
        (workspace / "key.tookey").read_bytes(), encoding.TAG_TRANSFORMED_SK, sk_field,
        lambda record: edit_record(record, tag, index, edit),
    )
    (workspace / "bad.tookey").write_bytes(sk)
    sign_refused(workspace, "bad.tookey", "key.toopub")


@pytest.mark.parametrize("index, edit", [(0, lambda f: b""), (1, lambda f: f[:31])],
                         ids=["empty height field", "31-byte root"])
def test_malformed_merkle_public_key_is_malformed(workspace, index, edit):
    """verify exits 2, not 1, on a Merkle public key with a bad layout."""
    assert too_sign("sign", "--key", "key.tookey", "--pub", "key.toopub",
                    "--in", "msg.txt", "--out", "msg.toosig", "--seed", SEED_B,
                    cwd=workspace).returncode == 0
    pk = edit_record(
        (workspace / "key.toopub").read_bytes(), encoding.TAG_TRANSFORMED_PK, 1,
        lambda record: edit_record(record, encoding.TAG_MERKLE_PK, index, edit),
    )
    (workspace / "bad.toopub").write_bytes(pk)
    r = too_sign("verify", "--pub", "bad.toopub", "--in", "msg.txt",
                 "--sig", "msg.toosig", cwd=workspace)
    assert r.returncode == 2 and "Traceback" not in r.stderr, r.stderr


def test_public_key_with_another_base_descriptor_is_refused(workspace):
    """sign spends no leaf when the public key's base descriptor differs from
    the secret key's: a verifier with that public key would reject."""
    pk = edit_record(
        (workspace / "key.toopub").read_bytes(), encoding.TAG_TRANSFORMED_PK, 0,
        lambda record: edit_record(record, encoding.TAG_DESCRIPTOR, 2,
                                   lambda f: b"arbitrary-bytes"),
    )
    (workspace / "bad.toopub").write_bytes(pk)
    sign_refused(workspace, "key.tookey", "bad.toopub")


def test_malleable_base_scheme_is_refused(workspace):
    """Keys over the malleable test wrapper are malformed for sign and verify."""
    descriptor = games.wrap_malleable(merkle.merkle_descriptor(2))
    kp = transform.g_prime(descriptor, ChameleonKind.DL, {"name": "dl-demo"},
                           rng_from_int(1))
    sig, _ = transform.s_prime(kp, b"the quick brown fox",
                               production_oracle(kp.ch_inst), rng_from_int(2))
    (workspace / "mall.toopub").write_bytes(kp.public_bytes())
    (workspace / "mall.tookey").write_bytes(kp.secret_bytes())
    (workspace / "mall.toosig").write_bytes(sig.serialize(kp.ch_inst))
    sign_refused(workspace, "mall.tookey", "mall.toopub")
    r = too_sign("verify", "--pub", "mall.toopub", "--in", "msg.txt",
                 "--sig", "mall.toosig", cwd=workspace)
    assert r.returncode == 2 and "Traceback" not in r.stderr, r.stderr


def run_main(args):
    """Exit code of `too-sign ARGS` run in this process."""
    try:
        cli.main(args)
    except SystemExit as e:
        return e.code
    return 0


def test_failed_key_write_keeps_the_key(workspace, monkeypatch):
    """A sign whose key write fails keeps the old key and releases nothing;
    a sign that succeeds leaves no temporary file behind."""
    args = ["sign", "--key", str(workspace / "key.tookey"),
            "--pub", str(workspace / "key.toopub"),
            "--in", str(workspace / "msg.txt"),
            "--out", str(workspace / "msg.toosig"), "--seed", SEED_B]
    key_before = (workspace / "key.tookey").read_bytes()
    files_before = set(os.listdir(workspace))

    def fail(src, dst):
        raise OSError("injected rename failure")

    with monkeypatch.context() as m:
        m.setattr(os, "replace", fail)
        code = run_main(args)
    assert code != 0
    assert (workspace / "key.tookey").read_bytes() == key_before
    assert set(os.listdir(workspace)) == files_before | {"key.tookey.lock"}

    assert run_main(args) == 0
    assert (workspace / "key.tookey").read_bytes() != key_before
    assert set(os.listdir(workspace)) == files_before | {"key.tookey.lock", "msg.toosig"}


USAGE_ERRORS = {
    "no command": [],
    "missing --out": ["keygen"],
    "unknown option": ["verify", "--pub", "p", "--in", "m", "--sig", "s", "--bogus"],
    "bad choice": ["game", "--adversary", "nobody"],
    "bad --height": ["keygen", "--out", "k", "--height", "two"],
    "bad --seed": ["keygen", "--out", "k", "--seed", "zz"],
    "short --seed": ["sign", "--key", "k", "--pub", "p", "--in", "m", "--out", "s",
                     "--seed", "11" * 31],
    "unknown --scheme": ["keygen", "--out", "k", "--scheme", "rsa"],
    "unknown --chameleon": ["bench", "--chameleon", "rsa"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_exits_2(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    assert run_main(USAGE_ERRORS[case]) == 2
    assert os.listdir(tmp_path) == []


def test_forking_keygen_prints_each_line_once(tmp_path):
    """A height-10 keygen computes leaves in forked children; none of them
    flushes the parent's output buffers a second time."""
    r = too_sign("keygen", "--chameleon", "dl-demo", "--height", "10",
                 "--out", "key", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert [line.split()[0] for line in r.stderr.splitlines()] == ["seed:"]
    assert [line.split()[0] for line in r.stdout.splitlines()] == ["wrote"]


def test_keygen_error_exits_1(tmp_path, capsys):
    """An input the library refuses exits 1 with `Error:`, no traceback."""
    for args in (
        ["keygen", "--out", str(tmp_path / "k"), "--height", "30", "--seed", SEED_A],
        ["bench", "--height", "0", "--seed", SEED_A],
        ["game", "--adversary", "replay", "--height", "0"],
        ["game", "--adversary", "replay", "--budget", "-1"],
    ):
        code = run_main(args)
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("Error: ") and "Traceback" not in err, err
        assert os.listdir(tmp_path) == []



def replaced(args, option, value):
    """args with the value of option replaced."""
    i = args.index(option) + 1
    return [*args[:i], value, *args[i + 1:]]


UNUSABLE_PATHS = {
    # case: (edit of the sign arguments, or keygen arguments; exit code; stderr)
    "unreadable message": (lambda sign, w: replaced(sign, "--in", f"{w}/missing.txt"),
                           1, "Error: cannot read"),
    "key in a missing directory": (
        lambda sign, w: replaced(sign, "--key", f"{w}/missing/key.tookey"),
        2, "malformed key: "),
    "keygen into a missing directory": (
        lambda sign, w: ["keygen", "--chameleon", "dl-demo", "--height", "2",
                         "--out", f"{w}/missing/k", "--seed", SEED_A],
        1, "Error: cannot write"),
    "binary key read as armor": (lambda sign, w: [*sign, "--armor"], 2, "malformed key: "),
}


@pytest.mark.parametrize("case", sorted(UNUSABLE_PATHS))
def test_unusable_path_exits_cleanly(workspace, capsys, case):
    """A file that cannot be read, locked or written ends the command with
    its message and no traceback, spends no leaf and leaves no file behind."""
    edit, expected_code, expected_err = UNUSABLE_PATHS[case]
    sign = ["sign", "--key", f"{workspace}/key.tookey", "--pub", f"{workspace}/key.toopub",
            "--in", f"{workspace}/msg.txt", "--out", f"{workspace}/msg.toosig",
            "--seed", SEED_B]
    key_before = (workspace / "key.tookey").read_bytes()
    files_before = set(os.listdir(workspace))
    code = run_main(edit(sign, workspace))
    err = capsys.readouterr().err
    assert code == expected_code, err
    assert err.startswith(expected_err) and "Traceback" not in err, err
    assert (workspace / "key.tookey").read_bytes() == key_before
    # a sign that got as far as the lock leaves the lock file, as every sign does
    assert set(os.listdir(workspace)) - files_before <= {"key.tookey.lock"}

def test_signing_advances_persisted_state(workspace):
    for i in range(2):
        r = too_sign("sign", "--key", "key.tookey", "--pub", "key.toopub",
                     "--in", "msg.txt", "--out", f"m{i}.toosig",
                     "--seed", SEED_B, cwd=workspace)
        assert r.returncode == 0
    s0 = (workspace / "m0.toosig").read_bytes()
    s1 = (workspace / "m1.toosig").read_bytes()
    assert s0 != s1  # distinct one-time leaves
    for i in range(2):
        r = too_sign("verify", "--pub", "key.toopub", "--in", "msg.txt",
                     "--sig", f"m{i}.toosig", cwd=workspace)
        assert r.returncode == 0


# `too-sign` that dies by SIGKILL right after the key file is replaced
KILLED_AFTER_KEY_WRITE = """
import os, signal, sys
from toosign import cli

write = cli._write


def write_then_die(path, blob, armored):
    write(path, blob, armored)
    if path.endswith(".tookey"):
        os.kill(os.getpid(), signal.SIGKILL)


cli._write = write_then_die
cli.main(sys.argv[1:])
"""


def leaf_of(sig_path):
    _, fields = encoding.decode_record(sig_path.read_bytes(), encoding.TAG_TRANSFORMED_SIG)
    _, merkle_fields = encoding.decode_record(fields[0], encoding.TAG_MERKLE_SIG)
    return int.from_bytes(merkle_fields[0], "big")


def test_signer_killed_after_key_write_never_reissues_a_leaf(workspace):
    """The state write comes before the signature's: a signer killed between
    them has spent a leaf it never released, and the next sign moves on."""
    files_before = set(os.listdir(workspace))
    args = ("sign", "--key", "key.tookey", "--pub", "key.toopub", "--in", "msg.txt",
            "--seed", SEED_B)
    r = too_sign(*args, "--out", "lost.toosig", cwd=workspace, driver=KILLED_AFTER_KEY_WRITE)
    assert r.returncode == -signal.SIGKILL, r.stderr
    sk = (workspace / "key.tookey").read_bytes()
    kp = transform.keypair_from_secret(sk, (workspace / "key.toopub").read_bytes())
    assert int.from_bytes(kp.base.state, "big") == 1
    assert set(os.listdir(workspace)) == files_before | {"key.tookey.lock"}

    assert too_sign(*args, "--out", "next.toosig", cwd=workspace).returncode == 0
    assert leaf_of(workspace / "next.toosig") == 1
    r = too_sign("verify", "--pub", "key.toopub", "--in", "msg.txt",
                 "--sig", "next.toosig", cwd=workspace)
    assert r.returncode == 0 and "accept" in r.stdout


KILLED_BEFORE_KEY_RENAME = """
import os, signal, sys
from toosign import cli

replace = os.replace


def die_before_key_rename(src, dst):
    if dst.endswith(".tookey"):
        os.kill(os.getpid(), signal.SIGKILL)
    replace(src, dst)


os.replace = die_before_key_rename
cli.main(sys.argv[1:])
"""


def test_next_sign_removes_a_key_copy_left_before_its_rename(workspace):
    """A signer killed between the key's temp file and its rename leaves a
    0600 copy of the advanced secret key; the next sign removes it under the
    lock and leaves files that only look like one, and what they point to."""
    args = ("sign", "--key", "key.tookey", "--pub", "key.toopub", "--in", "msg.txt",
            "--seed", SEED_B)
    r = too_sign(*args, "--out", "lost.toosig", cwd=workspace, driver=KILLED_BEFORE_KEY_RENAME)
    assert r.returncode == -signal.SIGKILL, r.stderr
    left = [name for name in os.listdir(workspace) if name.endswith(".tmp")]
    assert len(left) == 1 and left[0].startswith("key.tookey.")
    assert stat.S_IMODE((workspace / left[0]).stat().st_mode) == 0o600
    alike = ["key.tookey.0123456789AB.tmp", "key.tookey.0123456789a.tmp",
             "other.tookey.0123456789ab.tmp"]
    for name in alike:
        (workspace / name).write_bytes(b"not a leftover")
    os.symlink("msg.txt", workspace / "key.tookey.0123456789ab.tmp")

    assert too_sign(*args, "--out", "next.toosig", cwd=workspace).returncode == 0
    assert not (workspace / left[0]).exists()
    assert all((workspace / name).exists() for name in alike)
    assert (workspace / "key.tookey.0123456789ab.tmp").read_bytes() == b"the quick brown fox"
    r = too_sign("verify", "--pub", "key.toopub", "--in", "msg.txt",
                 "--sig", "next.toosig", cwd=workspace)
    assert r.returncode == 0 and "accept" in r.stdout


def test_capacity_exhaustion_exit_code(workspace):
    for i in range(4):  # height 2 -> 4 one-time leaves
        assert too_sign("sign", "--key", "key.tookey", "--pub", "key.toopub",
                        "--in", "msg.txt", "--out", f"c{i}.toosig",
                        "--seed", SEED_B, cwd=workspace).returncode == 0
    r = too_sign("sign", "--key", "key.tookey", "--pub", "key.toopub",
                 "--in", "msg.txt", "--out", "over.toosig",
                 "--seed", SEED_B, cwd=workspace)
    assert r.returncode == 4


def test_secret_key_and_its_lock_are_private(tmp_path):
    """Under a umask that lets others read, keygen writes the secret key for
    its owner alone, and sign keeps it and its lock file so."""
    (tmp_path / "msg.txt").write_bytes(b"private")

    def others_bits(name):
        return stat.S_IMODE((tmp_path / name).stat().st_mode) & 0o077

    umask = os.umask(0o022)
    try:
        assert too_sign("keygen", "--chameleon", "dl-demo", "--height", "1",
                        "--out", "k", "--seed", SEED_A, cwd=tmp_path).returncode == 0
        assert others_bits("k.tookey") == 0
        assert others_bits("k.toopub") == 0o044
        assert too_sign("sign", "--key", "k.tookey", "--pub", "k.toopub",
                        "--in", "msg.txt", "--out", "msg.toosig",
                        "--seed", SEED_B, cwd=tmp_path).returncode == 0
    finally:
        os.umask(umask)
    assert others_bits("k.tookey") == 0 and others_bits("k.tookey.lock") == 0
    assert others_bits("msg.toosig") == 0o044
    # a lock that an older version left open to others is made private too
    os.chmod(tmp_path / "k.tookey.lock", 0o755)
    assert too_sign("sign", "--key", "k.tookey", "--pub", "k.toopub",
                    "--in", "msg.txt", "--out", "again.toosig",
                    "--seed", SEED_B, cwd=tmp_path).returncode == 0
    assert others_bits("k.tookey.lock") == 0


def test_lock_contention_exit_code(workspace):
    lock_path = workspace / "key.tookey.lock"
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        r = too_sign("sign", "--key", "key.tookey", "--pub", "key.toopub",
                     "--in", "msg.txt", "--out", "msg.toosig",
                     "--seed", SEED_B, cwd=workspace)
        assert r.returncode == 3
    finally:
        os.close(fd)


def test_armor_round_trip(tmp_path):
    (tmp_path / "msg.txt").write_bytes(b"armored")
    assert too_sign("keygen", "--chameleon", "dl-demo", "--height", "1",
                    "--out", "ak", "--seed", SEED_A, "--armor",
                    cwd=tmp_path).returncode == 0
    text = (tmp_path / "ak.toopub").read_text()
    assert all(c in "0123456789abcdef\n" for c in text)
    assert too_sign("sign", "--key", "ak.tookey", "--pub", "ak.toopub",
                    "--in", "msg.txt", "--out", "msg.toosig",
                    "--seed", SEED_B, "--armor", cwd=tmp_path).returncode == 0
    assert too_sign("verify", "--pub", "ak.toopub", "--in", "msg.txt",
                    "--sig", "msg.toosig", "--armor",
                    cwd=tmp_path).returncode == 0


def test_custom_oracle_tag_must_match(workspace):
    # sign under a toy group; use the SIS group keys to avoid toy-range flukes
    assert too_sign("keygen", "--chameleon", "sis", "--height", "1",
                    "--out", "sk", "--seed", SEED_A, cwd=workspace).returncode == 0
    assert too_sign("sign", "--key", "sk.tookey", "--pub", "sk.toopub",
                    "--in", "msg.txt", "--out", "t.toosig", "--seed", SEED_B,
                    "--ro-tag", "tag-one", cwd=workspace).returncode == 0
    assert too_sign("verify", "--pub", "sk.toopub", "--in", "msg.txt",
                    "--sig", "t.toosig", "--ro-tag", "tag-one",
                    cwd=workspace).returncode == 0
    assert too_sign("verify", "--pub", "sk.toopub", "--in", "msg.txt",
                    "--sig", "t.toosig", "--ro-tag", "tag-two",
                    cwd=workspace).returncode == 1


def test_missing_seed_is_reported_for_replay(workspace):
    r = too_sign("sign", "--key", "key.tookey", "--pub", "key.toopub",
                 "--in", "msg.txt", "--out", "msg.toosig", cwd=workspace)
    assert r.returncode == 0
    assert "seed:" in r.stderr


def test_bench_report(tmp_path):
    r = too_sign("bench", "--chameleon", "sis", "--seed", SEED_A, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["match"] == {"pk": True, "sig": True, "sk": True}
    assert rep["predicted_elements"] == {"pk": 80, "sk": 144, "sig": 12}


def test_game_report(tmp_path):
    r = too_sign("game", "--adversary", "replay", "--seeds", "10",
                 "--kind", "su", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert set(rep) == {"win_rate", "case1_count", "case2_count",
                        "oracle_collisions", "extractor_failures"}
    assert rep["win_rate"] == 0.0


def test_game_raw_target(tmp_path):
    r = too_sign("game", "--adversary", "mauling", "--target", "raw",
                 "--seeds", "10", "--kind", "su", cwd=tmp_path)
    rep = json.loads(r.stdout)
    assert rep["win_rate"] == 1.0


def test_game_without_seeds_exits_1(capsys):
    assert run_main(["game", "--adversary", "replay", "--seeds", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("Error: "), err


@pytest.mark.parametrize("adversary", ["case1", "case2", "lucky"])
def test_raw_target_refuses_transformed_only_adversary(adversary, capsys):
    """These adversaries read a transformed key; the raw target has none."""
    code = run_main(["game", "--adversary", adversary, "--target", "raw", "--seeds", "2"])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err.startswith("Error: "), err


# every command's options: name -> (choices, default)
CLI_SURFACE = {
    "keygen": {
        "--help": (None, argparse.SUPPRESS), "--scheme": (None, "merkle"),
        "--height": (None, 4), "--chameleon": (None, "dl"), "--out": (None, None),
        "--seed": (None, None), "--armor": (None, False),
    },
    "sign": {
        "--help": (None, argparse.SUPPRESS), "--key": (None, None), "--pub": (None, None),
        "--in": (None, None), "--out": (None, None), "--seed": (None, None),
        "--armor": (None, False), "--ro-tag": (None, "TOO-RO-v1"),
    },
    "verify": {
        "--help": (None, argparse.SUPPRESS), "--pub": (None, None), "--in": (None, None),
        "--sig": (None, None), "--armor": (None, False), "--ro-tag": (None, "TOO-RO-v1"),
    },
    "bench": {
        "--help": (None, argparse.SUPPRESS), "--chameleon": (None, "sis"),
        "--height": (None, 2), "--seed": (None, None),
    },
    "game": {
        "--help": (None, argparse.SUPPRESS), "--kind": (["eu", "su"], "su"),
        "--variant": (["hyd0", "hyd1", "hyd2"], "hyd0"),
        "--adversary": (["case1", "case2", "garbage", "lucky", "mauling", "replay"], None),
        "--target": (["transformed", "raw"], "transformed"), "--seeds": (None, 100),
        "--chameleon": (None, "dl-demo"), "--height": (None, 2), "--budget": (None, 4),
    },
}


def test_cli_surface_is_pinned():
    """A change to any command's options, choices or defaults shows here."""
    parser = cli._parser("too-sign")
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: {a.option_strings[0]: (a.choices, a.default)
               for a in sub._actions if a.option_strings}
        for name, sub in commands.choices.items()
    }
    assert surface == CLI_SURFACE
    # --scheme and --chameleon check their names in their type
    assert sorted(cli.BASE_SCHEMES) == ["merkle"]
    assert cli.CHAMELEONS == ("dl", "dl-2048", "dl-demo", "sis")
    for name in cli.CHAMELEONS:
        assert cli.CHAMELEON(name) == name
