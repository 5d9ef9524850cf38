"""End-to-end command-line behaviour: round trips, exit codes, locking.

`too_sign` runs a command in this process, so a file it leaks fails under
dev mode like any other test.  A test starts a child interpreter only where
the process itself is what it tests: the entry point, stdio across fork,
and signers killed mid-write.
"""

import argparse
import contextlib
import fcntl
import functools
import io
import json
import os
import pathlib
import signal
import stat
import subprocess
import sys
import tempfile
from typing import NamedTuple

import pytest

from toosign import chameleon, cli, encoding, games, merkle, transform
from toosign.chameleon import ChameleonKind
from toosign.errors import DomainError
from toosign.oracle import frame, production_oracle
from toosign.rng import rng_from_int

SEED_A = "11" * 32
SEED_B = "22" * 32
MESSAGE = b"the quick brown fox"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SIGN = ["sign", "--key", "key.tookey", "--pub", "key.toopub", "--in", "msg.txt",
        "--out", "msg.toosig", "--seed", SEED_B]
VERIFY = ["verify", "--pub", "key.toopub", "--in", "msg.txt", "--sig", "msg.toosig"]


def too_sign(*args, cwd=None):
    """`too-sign ARGS` run in this process from directory cwd: its exit code,
    stdout and stderr."""
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd or home)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(list(args))
        code = 0
    except SystemExit as e:
        code = e.code or 0
    finally:
        os.chdir(home)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def child(*args, cwd):
    """A child `python ARGS` of this interpreter, with its -X dev and -W
    options, that imports the checkout's toosign: `src` is absolute, as the
    child runs in cwd."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    flags = ["-X", "dev"] if sys.flags.dev_mode else []
    flags += [f"-W{option}" for option in sys.warnoptions]
    return subprocess.run([sys.executable, *flags, *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def replaced(args, option, value):
    """args with the value of option replaced."""
    i = args.index(option) + 1
    return [*args[:i], value, *args[i + 1:]]


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "msg.txt").write_bytes(MESSAGE)
    r = too_sign("keygen", "--chameleon", "dl-demo", "--height", "2",
                 "--out", "key", "--seed", SEED_A, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    return tmp_path


def test_sign_verify_round_trip(tmp_path):
    """`python -m toosign.cli` runs each command and exits with its code;
    under dev mode a leaked file would show on stderr."""
    (tmp_path / "msg.txt").write_bytes(MESSAGE)
    keygen = ["keygen", "--chameleon", "dl-demo", "--height", "2", "--out", "key",
              "--seed", SEED_A]
    for args, out in ((keygen, "wrote key.toopub and key.tookey"),
                      (SIGN, "wrote msg.toosig"), (VERIFY, "accept")):
        r = child("-m", "toosign.cli", *args, cwd=tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (0, out + "\n", "")


def test_verify_rejects_wrong_message(workspace):
    assert too_sign(*SIGN, cwd=workspace).returncode == 0
    (workspace / "other.txt").write_bytes(b"a different message")
    r = too_sign(*replaced(VERIFY, "--in", "other.txt"), cwd=workspace)
    assert r.returncode == 1 and "reject" in r.stdout


# key name -> (--chameleon, --height) of its keygen
KEYS = {"dl-demo": ("dl-demo", 2), "dl-2048": ("dl-2048", 1), "sis-desk": ("sis", 1)}
FILES = {"key": "key.tookey", "pub": "key.toopub", "sig": "msg.toosig"}
READERS = {"key": ["sign"], "pub": ["sign", "verify"], "sig": ["verify"]}


@functools.cache
def key_files(key, seed=SEED_A):
    """file -> bytes of a `key` pair from seed after it signed MESSAGE once.
    "malleable" is a dl-demo pair over the malleable test wrapper, which
    keygen cannot make."""
    if key == "malleable":
        descriptor = games.wrap_malleable(merkle.merkle_descriptor(2))
        kp = transform.g_prime(descriptor, ChameleonKind.DL, {"name": "dl-demo"},
                               rng_from_int(1))
        sig, kp = transform.s_prime(kp, MESSAGE, production_oracle(kp.ch_inst),
                                    rng_from_int(2))
        return {"key": kp.secret_bytes(), "pub": kp.public_bytes(),
                "sig": sig.serialize(kp.ch_inst)}
    name, height = KEYS[key]
    with tempfile.TemporaryDirectory() as d:
        (pathlib.Path(d) / "msg.txt").write_bytes(MESSAGE)
        for args in (["keygen", "--chameleon", name, "--height", str(height),
                      "--out", "key", "--seed", seed], SIGN):
            assert too_sign(*args, cwd=d).returncode == 0
        return {file: (pathlib.Path(d) / path).read_bytes() for file, path in FILES.items()}


def keypair(key):
    files = key_files(key)
    return transform.keypair_from_secret(files["key"], files["pub"])


def edit_field(blob, path, edit):
    """blob with the field at path, (record tag, field index) pairs from the
    outer record in, replaced by edit(field); blob itself for an empty path."""
    if not path:
        return edit(blob)
    (tag, index), *inner = path
    _, fields = encoding.decode_record(blob, tag)
    fields[index] = edit_field(fields[index], inner, edit)
    return encoding.encode_record(tag, fields)


def with_entry(blob, i, edit):
    """A blob of 2-byte matrix entries (sis-desk, q = 257) with entry i
    replaced by edit(entry)."""
    entry = edit(int.from_bytes(blob[2 * i : 2 * i + 2], "big"))
    return blob[: 2 * i] + entry.to_bytes(2, "big") + blob[2 * i + 2 :]


def negate_r00(t):
    """T[0, m_bar] = R[0, 0], which is 1 or q - 1, negated mod q."""
    p = keypair("sis-desk").ch_inst.params
    return with_entry(t, p.m_bar, lambda e: p.q - e)


def first_r_one_plus_q(t):
    """The first entry of the R block of T = [[I, R], [0, I]] that is +1,
    raised by q."""
    p = keypair("sis-desk").ch_inst.params
    i = next(row * p.m + col for row in range(p.m_bar) for col in range(p.m_bar, p.m)
             if t[2 * (row * p.m + col) : 2 * (row * p.m + col) + 2] == b"\x00\x01")
    return with_entry(t, i, lambda e: e + p.q)


class Damage(NamedTuple):
    key: str  # the pair whose files the commands read
    file: str  # the file the edit damages
    path: list  # of the edited field, for edit_field
    edit: object  # field -> damaged field
    codes: dict  # exit code of each command that reads the file
    intact: dict = {}  # exit code of each command before the damage


SK, PK, SIG = (encoding.TAG_TRANSFORMED_SK, encoding.TAG_TRANSFORMED_PK,
               encoding.TAG_TRANSFORMED_SIG)
MALFORMED = {"sign": 2, "verify": 2}
DAMAGED = {
    "junk signature": Damage("dl-demo", "sig", [], lambda s: b"this is not a signature",
                             {"verify": 2}),
    # a signature has one encoding, so padding makes no second signature
    "padded DL randomness": Damage("dl-demo", "sig", [(SIG, 1), (encoding.TAG_RANDOMNESS, 0)],
                                   lambda r: b"\x00" + r, {"verify": 2}),
    "5-byte public key": Damage("dl-demo", "pub", [], lambda pk: pk[:5], MALFORMED),
    # q = 2x shares a factor with the trapdoor x, which an unchecked group
    # turns into a failed inversion mod q while signing
    "DL q altered to 2x": Damage(
        "dl-demo", "pub", [(PK, 2), (encoding.TAG_DL_INSTANCE, 1)],
        lambda q: encoding.encode_int(2 * keypair("dl-demo").ch_td.x), MALFORMED),
    # R no longer matches B: signing would release a signature no verifier accepts
    "negated SIS trapdoor entry": Damage(
        "sis-desk", "key", [(SK, 2), (encoding.TAG_SIS_TRAPDOOR, 0)], negate_r00, {"sign": 2}),
    # A[0, 0] + q is the same entry mod q, but a second encoding of the key
    "SIS public-key entry + q": Damage(
        "sis-desk", "pub", [(PK, 2), (encoding.TAG_SIS_INSTANCE, 5)],
        lambda a: with_entry(a, 0, lambda e: e + 257), MALFORMED, intact={"verify": 0}),
    # an R entry of q + 1 once decoded as +1
    "SIS trapdoor entry + q": Damage(
        "sis-desk", "key", [(SK, 2), (encoding.TAG_SIS_TRAPDOOR, 0)], first_r_one_plus_q,
        {"sign": 2}),
    # x of 0, q or 2q has no inverse mod q (dl-demo q = 11)
    **{f"DL trapdoor {name}": Damage(
        "dl-demo", "key", [(SK, 2), (encoding.TAG_DL_TRAPDOOR, 0)],
        lambda x, x_new=encoding.encode_int(11 * multiple): x_new, {"sign": 2})
       for multiple, name in enumerate(["0", "q", "2q"])},
    # x + 1 is in range and invertible, but g^(x+1) != y
    "dl-2048 trapdoor x + 1": Damage(
        "dl-2048", "key", [(SK, 2), (encoding.TAG_DL_TRAPDOOR, 0)],
        lambda x: encoding.encode_int(encoding.decode_int(x) + 1), {"sign": 2}),
    "another pair's public key": Damage(
        "dl-demo", "pub", [], lambda pk: key_files("dl-demo", SEED_B)["pub"],
        {"sign": 2, "verify": 1}),
    # a Merkle layout that does not match its height
    "Merkle secret key: empty descriptor parameters": Damage(
        "dl-demo", "key", [(SK, 0), (encoding.TAG_DESCRIPTOR, 1)], lambda f: b"", {"sign": 2}),
    "Merkle secret key: empty height field": Damage(
        "dl-demo", "key", [(SK, 1), (encoding.TAG_MERKLE_SK, 0)], lambda f: b"", {"sign": 2}),
    "Merkle secret key: height above the node blob": Damage(
        "dl-demo", "key", [(SK, 1), (encoding.TAG_MERKLE_SK, 0)], lambda f: b"\x03",
        {"sign": 2}),
    "Merkle public key: empty height field": Damage(
        "dl-demo", "pub", [(PK, 1), (encoding.TAG_MERKLE_PK, 0)], lambda f: b"", MALFORMED),
    "Merkle public key: 31-byte root": Damage(
        "dl-demo", "pub", [(PK, 1), (encoding.TAG_MERKLE_PK, 1)], lambda f: f[:31], MALFORMED),
    # a verifier with the secret key's descriptor would reject
    "another base descriptor": Damage(
        "dl-demo", "pub", [(PK, 0), (encoding.TAG_DESCRIPTOR, 2)],
        lambda f: b"arbitrary-bytes", MALFORMED),
    # the malleable wrapper is a negative control, not SU-secure: its own
    # files, undamaged, are malformed for sign and verify
    "malleable base scheme": Damage("malleable", "pub", [], lambda pk: pk, MALFORMED),
}


@pytest.mark.parametrize("case", sorted(DAMAGED))
def test_damaged_input_exit_codes(tmp_path, case):
    """Each command that reads the damaged file exits with the row's code and
    no traceback, keeps the key's bytes and leaves no new file but the lock:
    a refused sign spends no leaf."""
    row = DAMAGED[case]
    assert sorted(row.codes) == READERS[row.file]
    files = key_files(row.key)
    (tmp_path / "msg.txt").write_bytes(MESSAGE)
    for file, path in FILES.items():
        (tmp_path / path).write_bytes(files[file])

    def exits(codes):
        for command, code in codes.items():
            key_before = (tmp_path / "key.tookey").read_bytes()
            files_before = set(os.listdir(tmp_path))
            args = replaced(SIGN, "--out", "new.toosig") if command == "sign" else VERIFY
            r = too_sign(*args, cwd=tmp_path)
            assert r.returncode == code and "Traceback" not in r.stderr, (command, r.stderr)
            assert (tmp_path / "key.tookey").read_bytes() == key_before
            assert set(os.listdir(tmp_path)) - files_before <= {"key.tookey.lock"}

    exits(row.intact)
    damaged = edit_field(files[row.file], row.path, row.edit)
    (tmp_path / FILES[row.file]).write_bytes(damaged)
    exits(row.codes)


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


def test_failed_key_write_keeps_the_key(workspace, monkeypatch):
    """A sign whose key write fails keeps the old key and releases nothing;
    a sign that succeeds leaves no temporary file behind."""
    key_before = (workspace / "key.tookey").read_bytes()
    files_before = set(os.listdir(workspace))

    def fail(src, dst):
        raise OSError("injected rename failure")

    with monkeypatch.context() as m:
        m.setattr(os, "replace", fail)
        code = too_sign(*SIGN, cwd=workspace).returncode
    assert code != 0
    assert (workspace / "key.tookey").read_bytes() == key_before
    assert set(os.listdir(workspace)) == files_before | {"key.tookey.lock"}

    assert too_sign(*SIGN, cwd=workspace).returncode == 0
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
def test_usage_error_exits_2(tmp_path, case):
    assert too_sign(*USAGE_ERRORS[case], cwd=tmp_path).returncode == 2
    assert os.listdir(tmp_path) == []


def test_forking_keygen_prints_each_line_once(tmp_path):
    """A height-10 keygen computes leaves in forked children; none of them
    flushes the parent's output buffers a second time."""
    r = child("-m", "toosign.cli", "keygen", "--chameleon", "dl-demo", "--height", "10",
              "--out", "key", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert [line.split()[0] for line in r.stderr.splitlines()] == ["seed:"]
    assert [line.split()[0] for line in r.stdout.splitlines()] == ["wrote"]


def test_keygen_error_exits_1(tmp_path):
    """An input the library refuses exits 1 with `Error:`, no traceback."""
    for args in (
        ["keygen", "--out", "k", "--height", "30", "--seed", SEED_A],
        ["bench", "--height", "0", "--seed", SEED_A],
        ["game", "--adversary", "replay", "--height", "0"],
        ["game", "--adversary", "replay", "--budget", "-1"],
    ):
        r = too_sign(*args, cwd=tmp_path)
        assert r.returncode == 1 and r.stderr.startswith("Error: "), r.stderr
        assert "Traceback" not in r.stderr and os.listdir(tmp_path) == []


UNUSABLE_PATHS = {
    # case: (edit of the sign arguments, or keygen arguments; exit code; stderr)
    "unreadable message": (lambda sign: replaced(sign, "--in", "missing.txt"),
                           1, "Error: cannot read"),
    "key in a missing directory": (lambda sign: replaced(sign, "--key", "missing/key.tookey"),
                                   2, "malformed key: "),
    "keygen into a missing directory": (
        lambda sign: ["keygen", "--chameleon", "dl-demo", "--height", "2",
                      "--out", "missing/k", "--seed", SEED_A],
        1, "Error: cannot write"),
    "signature into a missing directory": (
        lambda sign: replaced(sign, "--out", "missing/msg.toosig"), 1, "Error: cannot write"),
    "signature under a regular file": (
        lambda sign: replaced(sign, "--out", "msg.txt/msg.toosig"), 1, "Error: cannot write"),
    "binary key read as armor": (lambda sign: [*sign, "--armor"], 2, "malformed key: "),
    # an --out that would destroy a file the sign relies on, or that is a directory
    "signature over the secret key": (lambda sign: replaced(sign, "--out", "key.tookey"),
                                      1, "Error: cannot write"),
    "signature over the public key": (lambda sign: replaced(sign, "--out", "key.toopub"),
                                      1, "Error: cannot write"),
    "signature over the message": (lambda sign: replaced(sign, "--out", "./msg.txt"),
                                   1, "Error: cannot write"),
    "signature over the key's lock": (lambda sign: replaced(sign, "--out", "key.tookey.lock"),
                                      1, "Error: cannot write"),
    "signature onto a directory": (lambda sign: replaced(sign, "--out", os.curdir),
                                   1, "Error: cannot write"),
}


@pytest.mark.parametrize("case", sorted(UNUSABLE_PATHS))
def test_unusable_path_exits_cleanly(workspace, case):
    """A file that cannot be read, locked or written ends the command with
    its message and no traceback, spends no leaf, leaves the keys and the
    message as they were and leaves no file behind."""
    edit, expected_code, expected_err = UNUSABLE_PATHS[case]
    kept = ("key.tookey", "key.toopub", "msg.txt")
    before = [(workspace / name).read_bytes() for name in kept]
    files_before = set(os.listdir(workspace))
    r = too_sign(*edit(SIGN), cwd=workspace)
    assert r.returncode == expected_code, r.stderr
    assert r.stderr.startswith(expected_err) and "Traceback" not in r.stderr, r.stderr
    assert [(workspace / name).read_bytes() for name in kept] == before
    # a sign that got as far as the lock leaves the lock file, as every sign does
    assert set(os.listdir(workspace)) - files_before <= {"key.tookey.lock"}


def test_out_is_refused_on_the_target_of_a_symlinked_input(workspace):
    """A message read through a symlink is refused as --out by its target's
    name; an --out that is a symlink is replaced, and its target kept."""
    (workspace / "link.txt").symlink_to("msg.txt")
    r = too_sign(*replaced(replaced(SIGN, "--in", "link.txt"), "--out", "msg.txt"),
                 cwd=workspace)
    assert r.returncode == 1 and r.stderr.startswith("Error: cannot write"), r.stderr
    assert (workspace / "msg.txt").read_bytes() == MESSAGE
    r = too_sign(*replaced(SIGN, "--out", "link.txt"), cwd=workspace)
    assert r.returncode == 0, r.stderr
    assert not (workspace / "link.txt").is_symlink()
    assert (workspace / "msg.txt").read_bytes() == MESSAGE


def test_signing_advances_persisted_state(workspace):
    for i in range(2):
        assert too_sign(*replaced(SIGN, "--out", f"m{i}.toosig"), cwd=workspace).returncode == 0
    s0 = (workspace / "m0.toosig").read_bytes()
    s1 = (workspace / "m1.toosig").read_bytes()
    assert s0 != s1  # distinct one-time leaves
    for i in range(2):
        r = too_sign(*replaced(VERIFY, "--sig", f"m{i}.toosig"), cwd=workspace)
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
    r = child("-c", KILLED_AFTER_KEY_WRITE, *replaced(SIGN, "--out", "lost.toosig"),
              cwd=workspace)
    assert r.returncode == -signal.SIGKILL, r.stderr
    sk = (workspace / "key.tookey").read_bytes()
    kp = transform.keypair_from_secret(sk, (workspace / "key.toopub").read_bytes())
    assert int.from_bytes(kp.base.state, "big") == 1
    assert set(os.listdir(workspace)) == files_before | {"key.tookey.lock"}

    assert too_sign(*SIGN, cwd=workspace).returncode == 0
    assert leaf_of(workspace / "msg.toosig") == 1
    r = too_sign(*VERIFY, cwd=workspace)
    assert r.returncode == 0 and "accept" in r.stdout


# `too-sign` that dies by SIGKILL just before it renames a temp file onto a
# path ending in the first argument
KILLED_BEFORE_RENAME = """
import os, signal, sys
from toosign import cli

suffix, replace = sys.argv.pop(1), os.replace


def die_before_rename(src, dst):
    if dst.endswith(suffix):
        os.kill(os.getpid(), signal.SIGKILL)
    replace(src, dst)


os.replace = die_before_rename
cli.main(sys.argv[1:])
"""


def stray_copy_after_kill(workspace, name):
    """Kills a sign just before it renames its copy of name into place, checks
    that it left that one copy, and plants files that only look like one, and
    a symlink of that form to msg.txt.  Returns the copy and the planted
    files' bytes, which the next sign must keep."""
    r = child("-c", KILLED_BEFORE_RENAME, name, *SIGN, cwd=workspace)
    assert r.returncode == -signal.SIGKILL, r.stderr
    left = [entry for entry in os.listdir(workspace) if entry.endswith(".tmp")]
    assert len(left) == 1 and left[0].startswith(name + ".")
    planted = [f"{name}.0123456789AB.tmp", f"{name}.0123456789a.tmp",
               f"other.{name}.0123456789ab.tmp"]
    for alike in planted:
        (workspace / alike).write_bytes(b"not a leftover")
    link = f"{name}.0123456789ab.tmp"
    os.symlink("msg.txt", workspace / link)
    return left[0], {**dict.fromkeys(planted, b"not a leftover"), link: MESSAGE}


def test_next_sign_removes_a_key_copy_left_before_its_rename(workspace):
    """A signer killed between the key's temp file and its rename leaves a
    0600 copy of the advanced secret key; the next sign removes it under the
    lock and leaves files that only look like one, and what they point to."""
    left, alike = stray_copy_after_kill(workspace, "key.tookey")
    assert stat.S_IMODE((workspace / left).stat().st_mode) == 0o600

    assert too_sign(*SIGN, cwd=workspace).returncode == 0
    assert not (workspace / left).exists()
    assert {name: (workspace / name).read_bytes() for name in alike} == alike
    r = too_sign(*VERIFY, cwd=workspace)
    assert r.returncode == 0 and "accept" in r.stdout


def test_next_sign_removes_a_signature_copy_left_before_its_rename(workspace):
    """A signer killed between the signature's temp file and its rename has
    spent its leaf; the next sign to that --out removes the stray copy under
    the lock, keeps the files that only look like one, and signs on leaf 1."""
    left, alike = stray_copy_after_kill(workspace, "msg.toosig")

    assert too_sign(*SIGN, cwd=workspace).returncode == 0
    assert not (workspace / left).exists()
    assert {name: (workspace / name).read_bytes() for name in alike} == alike
    assert leaf_of(workspace / "msg.toosig") == 1
    r = too_sign(*VERIFY, cwd=workspace)
    assert r.returncode == 0 and "accept" in r.stdout


def test_capacity_exhaustion_exit_code(workspace):
    for i in range(4):  # height 2 -> 4 one-time leaves
        assert too_sign(*replaced(SIGN, "--out", f"c{i}.toosig"), cwd=workspace).returncode == 0
    assert too_sign(*replaced(SIGN, "--out", "over.toosig"), cwd=workspace).returncode == 4


def test_secret_key_and_its_lock_are_private(tmp_path):
    """Under a umask that lets others read, keygen writes the secret key for
    its owner alone, and sign keeps it and its lock file so."""
    (tmp_path / "msg.txt").write_bytes(b"private")

    def others_bits(name):
        return stat.S_IMODE((tmp_path / name).stat().st_mode) & 0o077

    umask = os.umask(0o022)
    try:
        assert too_sign("keygen", "--chameleon", "dl-demo", "--height", "1",
                        "--out", "key", "--seed", SEED_A, cwd=tmp_path).returncode == 0
        assert others_bits("key.tookey") == 0
        assert others_bits("key.toopub") == 0o044
        assert too_sign(*SIGN, cwd=tmp_path).returncode == 0
    finally:
        os.umask(umask)
    assert others_bits("key.tookey") == 0 and others_bits("key.tookey.lock") == 0
    assert others_bits("msg.toosig") == 0o044
    # a lock that an older version left open to others is made private too
    os.chmod(tmp_path / "key.tookey.lock", 0o755)
    assert too_sign(*replaced(SIGN, "--out", "again.toosig"), cwd=tmp_path).returncode == 0
    assert others_bits("key.tookey.lock") == 0


def test_lock_contention_exit_code(workspace):
    fd = os.open(workspace / "key.tookey.lock", os.O_CREAT | os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)  # another open file: flock conflicts in one process too
        assert too_sign(*SIGN, cwd=workspace).returncode == 3
    finally:
        os.close(fd)


def test_armor_round_trip(tmp_path):
    (tmp_path / "msg.txt").write_bytes(b"armored")
    assert too_sign("keygen", "--chameleon", "dl-demo", "--height", "1",
                    "--out", "key", "--seed", SEED_A, "--armor",
                    cwd=tmp_path).returncode == 0
    text = (tmp_path / "key.toopub").read_text()
    assert all(c in "0123456789abcdef\n" for c in text)
    assert too_sign(*SIGN, "--armor", cwd=tmp_path).returncode == 0
    assert too_sign(*VERIFY, "--armor", cwd=tmp_path).returncode == 0


def test_custom_oracle_tag_must_match(tmp_path):
    # sign under a toy group; use the SIS group keys to avoid toy-range flukes
    (tmp_path / "msg.txt").write_bytes(MESSAGE)
    assert too_sign("keygen", "--chameleon", "sis", "--height", "1",
                    "--out", "key", "--seed", SEED_A, cwd=tmp_path).returncode == 0
    assert too_sign(*SIGN, "--ro-tag", "tag-one", cwd=tmp_path).returncode == 0
    assert too_sign(*VERIFY, "--ro-tag", "tag-one", cwd=tmp_path).returncode == 0
    assert too_sign(*VERIFY, "--ro-tag", "tag-two", cwd=tmp_path).returncode == 1


def test_missing_seed_is_reported_for_replay(workspace):
    r = too_sign(*SIGN[:-2], cwd=workspace)  # without --seed
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


def test_game_without_seeds_exits_1():
    r = too_sign("game", "--adversary", "replay", "--seeds", "0")
    assert r.returncode == 1 and r.stdout == "" and r.stderr.startswith("Error: "), r.stderr


@pytest.mark.parametrize("adversary", ["case1", "case2", "lucky"])
def test_raw_target_refuses_transformed_only_adversary(adversary):
    """These adversaries read a transformed key; the raw target has none."""
    r = too_sign("game", "--adversary", adversary, "--target", "raw", "--seeds", "2")
    assert r.returncode == 1 and r.stdout == "" and r.stderr.startswith("Error: "), r.stderr


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
