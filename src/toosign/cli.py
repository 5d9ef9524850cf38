"""Command-line frontend: keygen / sign / verify over files, game sweeps and
the size-overhead report.

Exit codes for ``verify``: 0 accept, 1 reject, 2 malformed input.
``sign`` exits 3 on lock contention and 4 on signing-capacity exhaustion.
Key state is persisted write-ahead: the advanced state hits disk before the
signature is released.
"""

from __future__ import annotations

import fcntl
import json
import os
import sys

import click

from . import games, merkle
from .bench import overhead_report
from .chameleon import ChameleonKind
from .encoding import armor as to_armor
from .encoding import dearmor
from .errors import CapacityError, FormatError, ToosignError
from .games import ChallengerVariant, GameKind
from .merkle import merkle_descriptor
from .oracle import production_oracle
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


def _write(path: str, blob: bytes, armored: bool) -> None:
    """Replaces path atomically: a crash leaves the old file or the new one.

    The bytes go to a fresh file in the same directory, which is synced and
    renamed over path; syncing the directory makes the rename durable.
    """
    data = (to_armor(blob) + "\n").encode() if armored else blob
    directory = os.path.dirname(os.path.abspath(path))
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def _read(path: str, armored: bool) -> bytes:
    if armored:
        with open(path) as f:
            return dearmor(f.read())
    with open(path, "rb") as f:
        return f.read()


def _seed_rng(seed_hex: str | None) -> Rng:
    if seed_hex is None:
        seed = os.urandom(32)
        click.echo(f"seed: {seed.hex()}", err=True)
    else:
        seed = bytes.fromhex(seed_hex)
        if len(seed) != 32:
            raise click.BadParameter("seed must be 32 bytes of hex")
    return Rng(seed)


def _chameleon_params(name: str, n: int, q: int, m: int, k: int):
    if name in ("dl", "dl-2048"):
        return ChameleonKind.DL, {"name": "dl-2048"}
    if name == "dl-demo":
        return ChameleonKind.DL, {"name": "dl-demo"}
    if name == "sis":
        return ChameleonKind.SIS, {"n": n, "q": q, "m": m, "k": k}
    raise click.BadParameter(f"unknown chameleon instantiation {name!r}")


@click.group()
def main():
    """Signature hardening toolkit: strongly unforgeable signatures from any
    existentially unforgeable base scheme plus a chameleon hash."""


@main.command()
@click.option("--scheme", default="merkle", show_default=True)
@click.option("--height", default=4, show_default=True, help="Merkle tree height")
@click.option("--chameleon", "ch_name", default="dl", show_default=True,
              help="dl | dl-demo | sis")
@click.option("--n", default=4, show_default=True)
@click.option("--q", default=257, show_default=True)
@click.option("--m", default=12, show_default=True)
@click.option("--k", default=8, show_default=True)
@click.option("--out", required=True, help="output path prefix")
@click.option("--seed", default=None, help="32-byte hex seed (printed if absent)")
@click.option("--armor", is_flag=True, help="write hex text instead of binary")
def keygen(scheme, height, ch_name, n, q, m, k, out, seed, armor):
    """Generate a transformed key pair (PREFIX.toopub, PREFIX.tookey)."""
    if scheme != "merkle":
        raise click.BadParameter(f"unknown base scheme {scheme!r}")
    kind, params = _chameleon_params(ch_name, n, q, m, k)
    rng = _seed_rng(seed)
    try:
        kp = g_prime(merkle_descriptor(height), kind, params, rng)
    except ToosignError as e:
        raise click.ClickException(str(e))
    _write(out + ".toopub", kp.public_bytes(), armor)
    _write(out + ".tookey", kp.secret_bytes(), armor)
    click.echo(f"wrote {out}.toopub and {out}.tookey")


def _check_base_scheme(descriptor) -> None:
    # the malleable wrapper of `games` is a negative control, not SU-secure
    if descriptor.scheme_id != merkle.SCHEME_ID_MERKLE:
        raise FormatError("base scheme is not Lamport-Merkle")


@main.command()
@click.option("--key", required=True, help="secret key file (.tookey)")
@click.option("--pub", required=True, help="public key file (.toopub)")
@click.option("--in", "infile", required=True, help="message file")
@click.option("--out", required=True, help="signature output file (.toosig)")
@click.option("--seed", default=None, help="32-byte hex seed (printed if absent)")
@click.option("--armor", is_flag=True)
@click.option("--ro-tag", default="TOO-RO-v1", show_default=True)
def sign(key, pub, infile, out, seed, armor, ro_tag):
    """Sign a file; persists the advanced key state before emitting output."""
    lock_path = key + ".lock"
    lock_fd = os.open(lock_path, os.O_CREAT | os.O_RDWR)
    try:
        try:
            fcntl.flock(lock_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            click.echo("key is locked by another signer", err=True)
            sys.exit(EXIT_LOCKED)
        try:
            kp = keypair_from_secret(_read(key, armor), _read(pub, armor))
            _check_base_scheme(kp.base.descriptor)
            merkle.check_key_pair(kp.base)
        except (ToosignError, OSError) as e:
            click.echo(f"malformed key: {e}", err=True)
            sys.exit(EXIT_MALFORMED)
        message = _read(infile, False)
        oracle = production_oracle(kp.ch_inst, domain_tag=ro_tag.encode())
        rng = _seed_rng(seed)
        try:
            sig, new_kp = s_prime(kp, message, oracle, rng)
        except CapacityError as e:
            click.echo(f"capacity exhausted: {e}", err=True)
            sys.exit(EXIT_CAPACITY)
        # write-ahead: state on disk before the signature is released
        try:
            _write(key, new_kp.secret_bytes(), armor)
            _write(out, sig.serialize(kp.ch_inst), armor)
        except OSError as e:
            raise click.ClickException(f"cannot write: {e}")
        click.echo(f"wrote {out}")
    finally:
        os.close(lock_fd)


@main.command()
@click.option("--pub", required=True, help="public key file (.toopub)")
@click.option("--in", "infile", required=True, help="message file")
@click.option("--sig", required=True, help="signature file (.toosig)")
@click.option("--armor", is_flag=True)
@click.option("--ro-tag", default="TOO-RO-v1", show_default=True)
def verify(pub, infile, sig, armor, ro_tag):
    """Verify a signature: exit 0 accept, 1 reject, 2 malformed."""
    try:
        pk = TransformedPublicKey.deserialize(_read(pub, armor))
        _check_base_scheme(pk.base_descriptor)
        merkle.check_public_key(pk.base_descriptor, pk.base_pk)
        message = _read(infile, False)
        sig_obj = deserialize_signature(_read(sig, armor), pk.ch_inst, pk.base_descriptor)
    except (ToosignError, OSError, ValueError) as e:
        click.echo(f"malformed input: {e}", err=True)
        sys.exit(EXIT_MALFORMED)
    oracle = production_oracle(pk.ch_inst, domain_tag=ro_tag.encode())
    if v_prime(pk, message, sig_obj, oracle):
        click.echo("accept")
        sys.exit(EXIT_ACCEPT)
    click.echo("reject")
    sys.exit(EXIT_REJECT)


@main.command()
@click.option("--chameleon", "ch_name", default="sis", show_default=True)
@click.option("--n", default=4, show_default=True)
@click.option("--q", default=257, show_default=True)
@click.option("--m", default=12, show_default=True)
@click.option("--k", default=8, show_default=True)
@click.option("--height", default=2, show_default=True)
@click.option("--seed", default=None)
def bench(ch_name, n, q, m, k, height, seed):
    """Measure transform size overhead against the closed-form predictions."""
    kind, params = _chameleon_params(ch_name, n, q, m, k)
    rng = _seed_rng(seed)
    report = overhead_report(merkle_descriptor(height), kind, params, rng.seed)
    click.echo(json.dumps(report, sort_keys=True, indent=2))
    if not all(report["match"].values()):
        raise click.ClickException("measured overhead does not match prediction")


_ADVERSARIES = {
    "mauling": lambda ch: games.MaulingAdversary(),
    "replay": lambda ch: games.ReplayAdversary(),
    "garbage": lambda ch: games.GarbageForger(),
    "lucky": lambda ch: games.LuckyGuesser(),
    "case1": lambda ch: games.CaseOneForger(ch),
    "case2": lambda ch: games.CaseTwoForger(ch),
}


@main.command()
@click.option("--kind", type=click.Choice(["eu", "su"]), default="su", show_default=True)
@click.option("--variant", type=click.Choice(["hyd0", "hyd1", "hyd2"]), default="hyd0",
              show_default=True)
@click.option("--adversary", type=click.Choice(sorted(_ADVERSARIES)), required=True)
@click.option("--target", type=click.Choice(["transformed", "raw"]),
              default="transformed", show_default=True)
@click.option("--seeds", default=100, show_default=True)
@click.option("--chameleon", "ch_name", default="dl-demo", show_default=True)
@click.option("--height", default=2, show_default=True)
@click.option("--budget", default=4, show_default=True)
@click.option("--report", "report_fmt", type=click.Choice(["json"]), default="json")
def game(kind, variant, adversary, target, seeds, ch_name, height, budget, report_fmt):
    """Run a seeded sweep of unforgeability games and report statistics."""
    ch_kind, ch_params = _chameleon_params(ch_name, 4, 257, 12, 8)
    base = games.wrap_malleable(merkle_descriptor(height))

    if target == "raw":
        def make_challenger(master):
            return games.RawChallenger(base, master)
    else:
        def make_challenger(master):
            return games.make_transformed_challenger(
                ChallengerVariant(variant), base, ch_kind, ch_params, master
            )

    report = games.game_report(
        GameKind(kind),
        ChallengerVariant(variant),
        make_challenger,
        _ADVERSARIES[adversary],
        range(seeds),
        budget=budget,
    )
    click.echo(json.dumps(report, sort_keys=True, indent=2))


if __name__ == "__main__":
    main()
