"""Command-line frontend: keygen / sign / verify over files, game sweeps and
the size-overhead report.

Exit codes for ``verify``: 0 accept, 1 reject, 2 malformed input.
``sign`` exits 3 on lock contention and 4 on signing-capacity exhaustion.
Every usage error exits 2; any other failure exits 1 with ``Error: ...`` on
stderr.  Key state is persisted write-ahead: the advanced state hits disk
before the signature is released.

A process imports only what its command runs: `games`, `bench` and `json`
load inside the `game` and `bench` commands, never for keygen, sign or
verify.
"""

from __future__ import annotations

import argparse
import fcntl
import os
import sys
from typing import NoReturn

from . import merkle
from .chameleon import SIS_PARAM_SETS, ChameleonKind
from .encoding import armor as to_armor
from .encoding import MAGIC, TAG_TRANSFORMED_SK, dearmor
from .errors import CapacityError, FormatError, ToosignError
from .merkle import merkle_descriptor
from .oracle import DEFAULT_DOMAIN_TAG, production_oracle
from .rng import Rng
from .transform import (
    TransformedPublicKey,
    deserialize_signature,
    g_prime,
    keypair_from_secret,
    s_prime,
    v_prime,
)

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_MALFORMED = 2
EXIT_LOCKED = 3
EXIT_CAPACITY = 4

# how every secret key record starts; `_write` creates such a file mode 0600
SECRET_KEY_PREFIX = MAGIC + bytes([TAG_TRANSFORMED_SK])

BASE_SCHEMES = {"merkle": merkle_descriptor}
DL_GROUPS = {"dl": "dl-2048", "dl-2048": "dl-2048", "dl-demo": "dl-demo"}
CHAMELEONS = (*DL_GROUPS, "sis")


def _fail(message: str) -> NoReturn:
    """Exits 1 with message on stderr: a failure that is not a usage error."""
    print(f"Error: {message}", file=sys.stderr)
    sys.exit(1)


def _write(path: str, blob: bytes, armored: bool) -> None:
    """Replaces path atomically: a crash leaves the old file or the new one.

    The bytes go to a fresh file in the same directory, which is synced and
    renamed over path; syncing the directory makes the rename durable.  A
    secret key is created readable by its owner alone.
    """
    data = (to_armor(blob) + "\n").encode() if armored else blob
    directory = os.path.dirname(os.path.abspath(path))
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    mode = 0o600 if blob.startswith(SECRET_KEY_PREFIX) else 0o666
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _remove_stale_copies(path: str) -> None:
    """Removes the `<path>.<12 hex>.tmp` files that a `_write` of path killed
    before its rename left: for a secret key, whole copies of it.  Only
    regular files go; a symlink of that name is left, and so is its target."""
    directory, name = os.path.split(path)
    prefix = name + "."
    with os.scandir(directory or ".") as entries:
        for entry in entries:
            salt = entry.name[len(prefix) : -len(".tmp")]
            if (entry.name.startswith(prefix) and entry.name.endswith(".tmp")
                    and len(salt) == 12 and not salt.strip("0123456789abcdef")
                    and entry.is_file(follow_symlinks=False)):
                os.unlink(entry.path)


def _entry(path: str) -> tuple[str, str]:
    """(directory, name) of the entry path names, the directory with its
    symlinks resolved: two paths name one entry when these are equal."""
    directory, name = os.path.split(os.path.abspath(path))
    return os.path.realpath(directory), name


def _read(path: str, armored: bool) -> bytes:
    with open(path, "rb") as f:
        blob = f.read()
    # a byte that does not decode becomes U+FFFD, which fails as bad hex
    return dearmor(blob.decode(errors="replace")) if armored else blob


def _seed(text: str) -> bytes:
    """The --seed type: 32 bytes of hex."""
    try:
        seed = bytes.fromhex(text)
    except ValueError:
        seed = b""
    if len(seed) != 32:
        raise argparse.ArgumentTypeError("seed must be 32 bytes of hex")
    return seed


def _known(what: str, names):
    """An option type that accepts only the given names."""

    def check(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(f"unknown {what} {text!r}")
        return text

    return check


def _seed_rng(seed: bytes | None) -> Rng:
    if seed is None:
        seed = os.urandom(32)
        print(f"seed: {seed.hex()}", file=sys.stderr)
    return Rng(seed)


def _chameleon_params(name: str):
    if name == "sis":  # sis-desk, as dl is dl-2048
        return ChameleonKind.SIS, dict(zip("nqmk", SIS_PARAM_SETS["sis-desk"]))
    return ChameleonKind.DL, {"name": DL_GROUPS[name]}


def keygen(scheme, height, chameleon, out, seed, armor):
    """Generate a transformed key pair (PREFIX.toopub, PREFIX.tookey)."""
    kind, params = _chameleon_params(chameleon)
    kp = g_prime(BASE_SCHEMES[scheme](height), kind, params, _seed_rng(seed))
    try:
        _write(out + ".toopub", kp.public_bytes(), armor)
        _write(out + ".tookey", kp.secret_bytes(), armor)
    except OSError as e:
        _fail(f"cannot write: {e}")
    print(f"wrote {out}.toopub and {out}.tookey")


def _check_base_scheme(descriptor) -> None:
    # the malleable wrapper of `games` is a negative control, not SU-secure
    if descriptor.scheme_id != merkle.SCHEME_ID_MERKLE:
        raise FormatError("base scheme is not Lamport-Merkle")


def sign(key, pub, infile, out, seed, armor, ro_tag):
    """Sign a file; persists the advanced key state before emitting output."""
    try:
        lock_fd = os.open(key + ".lock", os.O_CREAT | os.O_RDWR, 0o600)
    except OSError as e:
        print(f"malformed key: {e}", file=sys.stderr)
        sys.exit(EXIT_MALFORMED)
    try:
        try:
            os.fchmod(lock_fd, 0o600)  # open's mode holds only for a new lock
            fcntl.flock(lock_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("key is locked by another signer", file=sys.stderr)
            sys.exit(EXIT_LOCKED)
        except OSError as e:
            print(f"malformed key: {e}", file=sys.stderr)
            sys.exit(EXIT_MALFORMED)
        try:
            _remove_stale_copies(key)
        except OSError as e:
            _fail(f"cannot remove a stale key copy: {e}")
        try:
            kp = keypair_from_secret(_read(key, armor), _read(pub, armor))
            _check_base_scheme(kp.base.descriptor)
            merkle.check_key_pair(kp.base)
        except (ToosignError, OSError) as e:
            print(f"malformed key: {e}", file=sys.stderr)
            sys.exit(EXIT_MALFORMED)
        try:
            message = _read(infile, False)
        except OSError as e:
            _fail(f"cannot read: {e}")
        # an --out that cannot take the signature fails here, before a leaf
        # is spent: a directory, a file this sign relies on, or a path in a
        # directory that cannot be listed; a signature copy that a killed
        # signer left in that directory is removed
        if os.path.isdir(out):
            _fail(f"cannot write: --out {out} is a directory")
        relied = {"secret key": key, "public key": pub, "message": infile,
                  "key's lock file": key + ".lock"}
        for what, path in relied.items():
            # a rename onto out replaces out's own entry, never a symlink's target
            if _entry(out) in (_entry(path), _entry(os.path.realpath(path))):
                _fail(f"cannot write: --out {out} is the {what}")
        try:
            _remove_stale_copies(out)
        except OSError as e:
            _fail(f"cannot write: {e}")
        oracle = production_oracle(kp.ch_inst, domain_tag=ro_tag.encode())
        # a seed replayed on another leaf must not commit to the same range
        # value: two openings of one DL range value reveal the trapdoor
        rng = _seed_rng(seed).fork(b"leaf-state:" + (kp.base.state or b""))
        try:
            sig, new_kp = s_prime(kp, message, oracle, rng)
        except CapacityError as e:
            print(f"capacity exhausted: {e}", file=sys.stderr)
            sys.exit(EXIT_CAPACITY)
        # write-ahead: state on disk before the signature is released
        try:
            _write(key, new_kp.secret_bytes(), armor)
            _write(out, sig.serialize(kp.ch_inst), armor)
        except OSError as e:
            _fail(f"cannot write: {e}")
        print(f"wrote {out}")
    finally:
        os.close(lock_fd)


def verify(pub, infile, sig, armor, ro_tag):
    """Verify a signature: exit 0 accept, 1 reject, 2 malformed."""
    try:
        pk = TransformedPublicKey.deserialize(_read(pub, armor))
        _check_base_scheme(pk.base_descriptor)
        merkle.check_public_key(pk.base_descriptor, pk.base_pk)
        message = _read(infile, False)
        sig_obj = deserialize_signature(_read(sig, armor), pk.ch_inst, pk.base_descriptor)
    except (ToosignError, OSError) as e:
        print(f"malformed input: {e}", file=sys.stderr)
        sys.exit(EXIT_MALFORMED)
    oracle = production_oracle(pk.ch_inst, domain_tag=ro_tag.encode())
    if v_prime(pk, message, sig_obj, oracle):
        print("accept")
        sys.exit(EXIT_ACCEPT)
    print("reject")
    sys.exit(EXIT_REJECT)


def bench(chameleon, height, seed):
    """Measure transform size overhead against the closed-form predictions."""
    import json

    from .bench import overhead_report

    kind, params = _chameleon_params(chameleon)
    rng = _seed_rng(seed)
    report = overhead_report(merkle_descriptor(height), kind, params, rng.seed)
    print(json.dumps(report, sort_keys=True, indent=2))
    if not all(report["match"].values()):
        _fail("measured overhead does not match prediction")


def _games():
    from . import games

    return games


# adversary name -> factory taking the challenger; `games` loads on first call
_ADVERSARIES = {
    "mauling": lambda ch: _games().MaulingAdversary(),
    "replay": lambda ch: _games().ReplayAdversary(),
    "garbage": lambda ch: _games().GarbageForger(),
    "lucky": lambda ch: _games().LuckyGuesser(),
    "case1": lambda ch: _games().CaseOneForger(ch),
    "case2": lambda ch: _games().CaseTwoForger(ch),
}


def game(kind, variant, adversary, target, seeds, chameleon, height, budget):
    """Run a seeded sweep of unforgeability games and print a JSON report."""
    import json

    games = _games()
    ch_kind, ch_params = _chameleon_params(chameleon)
    base = games.wrap_malleable(merkle_descriptor(height))

    if target == "raw":
        def make_challenger(master):
            return games.RawChallenger(base, master)
    else:
        def make_challenger(master):
            return games.make_transformed_challenger(
                games.ChallengerVariant(variant), base, ch_kind, ch_params, master
            )

    report = games.game_report(
        games.GameKind(kind),
        games.ChallengerVariant(variant),
        make_challenger,
        _ADVERSARIES[adversary],
        range(seeds),
        budget=budget,
    )
    print(json.dumps(report, sort_keys=True, indent=2))


DEFAULT = "[default: %(default)s]"
CHAMELEON = _known("chameleon instantiation", CHAMELEONS)


def _parser(prog_name: str) -> argparse.ArgumentParser:
    """Every command with its options.  Help is --help alone, and no option
    name may be abbreviated."""
    parser = argparse.ArgumentParser(
        prog=prog_name, add_help=False, allow_abbrev=False,
        description="Signature hardening toolkit: strongly unforgeable signatures "
        "from any existentially unforgeable base scheme plus a chameleon hash.",
    )
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(run):
        """The add_argument of a new subcommand that calls run."""
        p = commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__,
                                add_help=False, allow_abbrev=False)
        p.add_argument("--help", action="help", help="Show this message and exit.")
        p.set_defaults(run=run)
        return p.add_argument

    option = command(keygen)
    option("--scheme", default="merkle", type=_known("base scheme", BASE_SCHEMES),
           help=DEFAULT)
    option("--height", type=int, default=4, help=f"Merkle tree height {DEFAULT}")
    option("--chameleon", default="dl", type=CHAMELEON,
           help=f"dl | dl-demo | sis {DEFAULT}")
    option("--out", required=True, help="output path prefix")
    option("--seed", type=_seed, help="32-byte hex seed (printed if absent)")
    option("--armor", action="store_true", help="write hex text instead of binary")

    option = command(sign)
    option("--key", required=True, help="secret key file (.tookey)")
    option("--pub", required=True, help="public key file (.toopub)")
    option("--in", dest="infile", required=True, help="message file")
    option("--out", required=True, help="signature output file (.toosig)")
    option("--seed", type=_seed, help="32-byte hex seed (printed if absent)")
    option("--armor", action="store_true")
    option("--ro-tag", default=DEFAULT_DOMAIN_TAG.decode(), help=DEFAULT)

    option = command(verify)
    option("--pub", required=True, help="public key file (.toopub)")
    option("--in", dest="infile", required=True, help="message file")
    option("--sig", required=True, help="signature file (.toosig)")
    option("--armor", action="store_true")
    option("--ro-tag", default=DEFAULT_DOMAIN_TAG.decode(), help=DEFAULT)

    option = command(bench)
    option("--chameleon", default="sis", type=CHAMELEON, help=DEFAULT)
    option("--height", type=int, default=2, help=DEFAULT)
    option("--seed", type=_seed)

    option = command(game)
    option("--kind", choices=["eu", "su"], default="su", help=DEFAULT)
    option("--variant", choices=["hyd0", "hyd1", "hyd2"], default="hyd0", help=DEFAULT)
    option("--adversary", choices=sorted(_ADVERSARIES), required=True)
    option("--target", choices=["transformed", "raw"], default="transformed", help=DEFAULT)
    option("--seeds", type=int, default=100, help=DEFAULT)
    option("--chameleon", default="dl-demo", type=CHAMELEON, help=DEFAULT)
    option("--height", type=int, default=2, help=DEFAULT)
    option("--budget", type=int, default=4, help=DEFAULT)
    return parser


def main(argv=None, prog_name: str = "too-sign") -> None:
    """Runs one `too-sign` command; usage errors exit 2, and an input the
    library refuses exits 1 with `Error: ...`."""
    args = vars(_parser(prog_name).parse_args(argv))
    del args["command"]
    try:
        args.pop("run")(**args)
    except ToosignError as e:
        _fail(str(e))


if __name__ == "__main__":
    main()
