"""Every name a toosign module imports is used in it (`__init__` re-exports),
no code asks which chameleon family it holds, a process that uses only the
DL chameleon hash never loads numpy, `import toosign.cli` loads only what
keygen, sign and verify run, and a one-shot sign or verify never builds a
comb table."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "toosign"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside `from __future__`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, string annotations included."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            annotations += [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {n.id for n in ast.walk(ast.parse(ann.value)) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((PACKAGE / module).read_text(), module)
    used = used_names(tree)
    unused = {n: line for n, line in imported_names(tree).items() if n not in used}
    assert not unused, f"{module} imports names it never uses: {unused}"


FAMILY_CLASSES = {"DLInstance", "SISInstance", "DLTrapdoor", "SISTrapdoor"}


def test_no_isinstance_on_a_chameleon_family():
    """Each family's instance carries its operations, so no branch picks one."""
    branches = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
            ):
                named = {
                    getattr(n, "id", None) or getattr(n, "attr", None)
                    for arg in node.args[1:]
                    for n in ast.walk(arg)
                }
                if named & FAMILY_CLASSES:
                    branches.append(f"{path.name}:{node.lineno}")
    assert not branches, f"isinstance on a chameleon family at {branches}"


def test_chameleon_imports_no_numpy():
    """numpy is for the SIS family, which lives in `sis`."""
    tree = ast.parse((PACKAGE / "chameleon.py").read_text(), "chameleon.py")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found.append(node.module)
        elif isinstance(node, ast.Constant) and node.value == "numpy":
            found.append(f"the string 'numpy' on line {node.lineno}")
    assert not found, f"chameleon.py imports numpy: {found}"


DL_ONLY = """
import sys
import toosign, toosign.cli
from toosign import chameleon, games, merkle, oracle, rng, transform

for name in ("dl-demo", "dl-2048"):
    kp = transform.g_prime(merkle.merkle_descriptor(2), chameleon.ChameleonKind.DL,
                           {"name": name}, rng.rng_from_int(1))
    ro = oracle.production_oracle(kp.ch_inst)
    sig, kp = transform.s_prime(kp, b"message", ro, rng.rng_from_int(2))
    kp = transform.keypair_from_secret(kp.secret_bytes(), kp.public_bytes())
    pk = transform.TransformedPublicKey.deserialize(kp.public_bytes())
    decoded = transform.deserialize_signature(
        sig.serialize(pk.ch_inst), pk.ch_inst, pk.base_descriptor)
    assert transform.v_prime(pk, b"message", decoded, oracle.production_oracle(pk.ch_inst))
report = games.game_report(
    games.GameKind.SU, games.ChallengerVariant.HYD0,
    lambda master: games.make_transformed_challenger(
        games.ChallengerVariant.HYD0, games.wrap_malleable(merkle.merkle_descriptor(2)),
        chameleon.ChameleonKind.DL, {"name": "dl-demo"}, master),
    lambda ch: games.MaulingAdversary(), range(1), budget=2)
assert report["win_rate"] == 0.0, report
assert "numpy" not in sys.modules, "DL-only work loaded numpy"

kp = transform.g_prime(merkle.merkle_descriptor(1), chameleon.ChameleonKind.SIS,
                       {"n": 4, "q": 257, "m": 12, "k": 8}, rng.rng_from_int(3))
sig, _ = transform.s_prime(kp, b"message", oracle.production_oracle(kp.ch_inst),
                           rng.rng_from_int(4))
assert transform.v_prime(transform.public_key_of(kp), b"message", sig,
                         oracle.production_oracle(kp.ch_inst))
assert "numpy" in sys.modules
"""


def run_child(script: str) -> subprocess.CompletedProcess:
    """Runs script in a fresh interpreter that imports this checkout's toosign."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )


def test_dl_only_process_never_loads_numpy():
    r = run_child(DL_ONLY)
    assert r.returncode == 0, r.stderr


ONE_SHOT = """
from toosign import chameleon, merkle, oracle, rng, transform

built = []
comb_table = chameleon._comb_table
chameleon._comb_table = lambda *args: built.append(args) or comb_table(*args)

kp = transform.g_prime(merkle.merkle_descriptor(2), chameleon.ChameleonKind.DL,
                       {"name": "dl-2048"}, rng.rng_from_int(1))
sig, _ = transform.s_prime(kp, b"message", oracle.production_oracle(kp.ch_inst),
                           rng.rng_from_int(2))
assert not built, "a one-shot sign built a comb table"
# `too-sign verify` is a process of its own: it starts with no base seen
chameleon._comb_cache.clear()
pk = transform.public_key_of(kp)
assert transform.v_prime(pk, b"message", sig, oracle.production_oracle(pk.ch_inst))
assert not built, "a one-shot verify built a comb table"
"""


def test_one_shot_sign_and_verify_build_no_table():
    r = run_child(ONE_SHOT)
    assert r.returncode == 0, r.stderr


CLI_FOOTPRINT = """
import sys
import toosign, toosign.cli
from toosign import registry

heavy = ("click", "toosign.games", "toosign.bench", "numpy",
         "multiprocessing", "concurrent.futures", "subprocess")
loaded = [m for m in heavy if m in sys.modules]
assert not loaded, f"import toosign.cli loaded {loaded}"
assert 2 not in registry._REGISTRY, "the malleable wrapper is registered"
from toosign import wrap_malleable
assert "toosign.games" in sys.modules and 2 in registry._REGISTRY
"""


def test_cli_loads_neither_games_nor_click():
    r = run_child(CLI_FOOTPRINT)
    assert r.returncode == 0, r.stderr


TRANSFORM_ONLY = """
from toosign.oracle import production_oracle
from toosign.rng import rng_from_int
from toosign.transform import (
    ChameleonKind, MessageSpaceKind, SchemeDescriptor, g_prime, public_key_of, s_prime,
    v_prime,
)

merkle_h2 = SchemeDescriptor(1, bytes([2]), MessageSpaceKind.FIXED_WIDTH_DIGEST)
kp = g_prime(merkle_h2, ChameleonKind.DL, {"name": "dl-demo"}, rng_from_int(1))
sig, _ = s_prime(kp, b"message", production_oracle(kp.ch_inst), rng_from_int(2))
assert v_prime(public_key_of(kp), b"message", sig, production_oracle(kp.ch_inst))
"""


def test_importing_transform_registers_merkle():
    """Merkle signs in a process that never names `toosign.merkle`."""
    r = run_child(TRANSFORM_ONLY)
    assert r.returncode == 0, r.stderr
