"""Every name a toosign module or a test file imports is used in it
(`__init__` re-exports), every name a toosign module defines is used
somewhere, no code asks which chameleon family it holds, no module names
numpy and a process runs both families without it, `import toosign.cli`
loads only what keygen, sign and verify run and builds one dataclass,
ctypes loads only with the first exponentiation modulo a large p, and a
one-shot sign and verify keep b^(2^1024) of g and of y alone."""

import ast
import os
import pathlib
import subprocess
import sys
import tokenize
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toosign"
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


# each toosign module by its name, each test file by tests/ and its name
LINTED = {name: PACKAGE / name for name in MODULES} | {
    f"tests/{p.name}": p for p in sorted((ROOT / "tests").glob("*.py"))
}


@pytest.mark.parametrize("module", LINTED)
def test_no_unused_imports(module):
    """An import kept for its side effect is marked `# noqa: F401`."""
    source = LINTED[module].read_text()
    lines, tree = source.splitlines(), ast.parse(source, module)
    used = used_names(tree)
    unused = {n: line for n, line in imported_names(tree).items()
              if n not in used and "# noqa: F401" not in lines[line - 1]}
    assert not unused, f"{module} imports names it never uses: {unused}"


def defined_names(tree: ast.Module):
    """Each module-level function, class and assigned name, once per definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def test_no_dead_definitions():
    """A definition nothing names in src/, tests/ or perfbench/ is dead code.
    `__getattr__` is exempt: Python calls the module hook by itself."""
    definitions = Counter(
        name for path in PACKAGE.glob("*.py")
        for name in defined_names(ast.parse(path.read_text(), path.name))
    )
    mentions = Counter()
    for path in [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]:
        with open(path, "rb") as f:
            mentions.update(
                t.string for t in tokenize.tokenize(f.readline) if t.type == tokenize.NAME
            )
    dead = sorted(n for n, count in definitions.items() if mentions[n] <= count)
    assert dead == ["__getattr__"], f"defined but never used: {dead}"


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


def test_no_module_imports_numpy():
    """Both chameleon families run on Python ints: no module names numpy."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno}" for a in node.names
                          if a.name.split(".")[0] == "numpy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Constant) and node.value == "numpy":
                found.append(f"{path.name}:{node.lineno}, the string 'numpy'")
    assert not found, f"numpy named at {found}"


BLOCK_NUMPY = """
import os
import sys

sys.modules["numpy"] = None  # `import numpy` raises ImportError from here on
"""

DL_ONLY = BLOCK_NUMPY + """
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
for kind, params in ((chameleon.ChameleonKind.DL, {"name": "dl-demo"}),
                     (chameleon.ChameleonKind.SIS, {"n": 4, "q": 257, "m": 12, "k": 8})):
    report = games.game_report(
        games.GameKind.SU, games.ChallengerVariant.HYD0,
        lambda master: games.make_transformed_challenger(
            games.ChallengerVariant.HYD0, games.wrap_malleable(merkle.merkle_descriptor(2)),
            kind, params, master),
        lambda ch: games.MaulingAdversary(), range(1), budget=2)
    assert report["win_rate"] == 0.0, report

kp = transform.g_prime(merkle.merkle_descriptor(1), chameleon.ChameleonKind.SIS,
                       {"n": 4, "q": 257, "m": 12, "k": 8}, rng.rng_from_int(3))
sig, _ = transform.s_prime(kp, b"message", oracle.production_oracle(kp.ch_inst),
                           rng.rng_from_int(4))
assert transform.v_prime(transform.public_key_of(kp), b"message", sig,
                         oracle.production_oracle(kp.ch_inst))
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
    """With numpy unimportable, both DL sets key, sign, reload and verify, and
    a game runs on each family; the SIS family needs numpy no more than DL."""
    r = run_child(DL_ONLY)
    assert r.returncode == 0, r.stderr


UNNAMED_SIS_VERIFY = BLOCK_NUMPY + """
from toosign import cli, encoding


def too_sign(*args):
    try:
        cli.main(list(args))
    except SystemExit as e:
        return e.code
    return 0


os.chdir(WORKDIR)
with open("msg.txt", "wb") as f:
    f.write(b"message")
assert too_sign("keygen", "--chameleon", "sis", "--height", "1", "--out", "sk",
                "--seed", "11" * 32) == 0
assert too_sign("sign", "--key", "sk.tookey", "--pub", "sk.toopub", "--in", "msg.txt",
                "--out", "msg.toosig", "--seed", "22" * 32) == 0
assert too_sign("verify", "--pub", "sk.toopub", "--in", "msg.txt", "--sig", "msg.toosig") == 0

# sis-desk with k raised to 9 is a set no name holds: malformed
with open("sk.toopub", "rb") as f:
    _, pk_fields = encoding.decode_record(f.read(), encoding.TAG_TRANSFORMED_PK)
_, inst = encoding.decode_record(pk_fields[2], encoding.TAG_SIS_INSTANCE)
inst[3] = encoding.encode_int(9)
pk_fields[2] = encoding.encode_record(encoding.TAG_SIS_INSTANCE, inst)
with open("unnamed.toopub", "wb") as f:
    f.write(encoding.encode_record(encoding.TAG_TRANSFORMED_PK, pk_fields))
code = too_sign("verify", "--pub", "unnamed.toopub", "--in", "msg.txt", "--sig", "msg.toosig")
assert code == 2, f"verify of an unnamed set exited {code}"
assert "ctypes" not in sys.modules, "a sis run loaded ctypes"
"""


def test_unnamed_sis_set_is_refused_before_numpy_loads(tmp_path):
    """With numpy unimportable, `too-sign` keys, signs and verifies on
    sis-desk, and `too-sign verify` on its public key with k raised to 9
    exits 2 (malformed), all without loading ctypes."""
    r = run_child(f"WORKDIR = {str(tmp_path)!r}" + UNNAMED_SIS_VERIFY)
    assert r.returncode == 0, r.stderr


ONE_SHOT = """
import sys
from toosign import chameleon, merkle, oracle, rng, transform

chameleon.os.sched_getaffinity = lambda pid: {0, 1}  # two cores on any host
kp = transform.g_prime(merkle.merkle_descriptor(2), chameleon.ChameleonKind.DL,
                       {"name": "dl-2048"}, rng.rng_from_int(1))
assert "ctypes" in sys.modules, "no exponentiation tried to load libcrypto"
before = dict(vars(chameleon))
sig, _ = transform.s_prime(kp, b"message", oracle.production_oracle(kp.ch_inst),
                           rng.rng_from_int(2))
pk = transform.public_key_of(kp)
assert transform.v_prime(pk, b"message", sig, oracle.production_oracle(pk.ch_inst))
assert dict(vars(chameleon)) == before, "a sign or verify left state in chameleon"
kept = chameleon._high_base.cache_info()
assert (kept.misses, kept.currsize) == (2, 2), f"not g and y alone: {kept}"
y, p = pk.ch_inst.y, pk.ch_inst.p
assert chameleon._high_base(y, p) == pow(y, 1 << 1024, p)
assert chameleon._high_base.cache_info().misses == 2, "y was raised twice"
"""


def test_one_shot_sign_and_verify_keep_two_high_bases():
    """A dl-2048 key loads ctypes with its first exponentiation, and a sign
    and a verify then leave chameleon's namespace as it was.  On two cores
    what is kept is b^(2^1024) of g, committed, and of y, computed once by
    the verify's first exponentiation: two values of at most four."""
    r = run_child(ONE_SHOT)
    assert r.returncode == 0, r.stderr


CLI_FOOTPRINT = """
import sys
import toosign, toosign.cli
from toosign import registry

heavy = ("click", "toosign.games", "toosign.bench", "numpy",
         "multiprocessing", "concurrent.futures", "subprocess", "ctypes")
loaded = [m for m in heavy if m in sys.modules]
assert not loaded, f"import toosign.cli loaded {loaded}"
assert 2 not in registry._REGISTRY, "the malleable wrapper is registered"
from toosign import wrap_malleable
assert "toosign.games" in sys.modules and 2 in registry._REGISTRY
"""


def test_cli_loads_neither_games_nor_click():
    r = run_child(CLI_FOOTPRINT)
    assert r.returncode == 0, r.stderr


CLI_RECORDS = """
import sys
import toosign.cli

loaded = [m for n, m in sys.modules.items() if n == "toosign" or n.startswith("toosign.")]
dataclasses = [
    f"{m.__name__}.{cls.__name__}" for m in loaded for cls in vars(m).values()
    if isinstance(cls, type) and cls.__module__ == m.__name__
    and "__dataclass_fields__" in vars(cls)
]
assert dataclasses == ["toosign.registry.SchemeImpl"], dataclasses
print("\\n".join(m.__file__ for m in loaded))
"""


def test_cli_builds_one_dataclass_and_imports_no_numbers():
    """The records a `too-sign` process creates are NamedTuples, which build
    faster than dataclasses; only `SchemeImpl`, which the traced benchmark
    copies with `dataclasses.replace`, stays one.  No module on that path
    imports `numbers`, read from the source, as `site` may load it anyway."""
    r = run_child(CLI_RECORDS)
    assert r.returncode == 0, r.stderr
    files = r.stdout.splitlines()
    assert {pathlib.Path(f).name for f in files} >= {"cli.py", "registry.py", "transform.py"}
    found = []
    for path in files:
        tree = ast.parse(pathlib.Path(path).read_text(), path)
        for node in ast.walk(tree):
            names = (
                [a.name for a in node.names] if isinstance(node, ast.Import)
                else [node.module] if isinstance(node, ast.ImportFrom) else []
            )
            found += [f"{path}:{node.lineno}" for n in names if n == "numbers"]
    assert not found, f"numbers imported at {found}"


TRANSFORM_ONLY = """
from toosign.oracle import production_oracle
from toosign.rng import rng_from_int
from toosign.transform import (
    ChameleonKind, SchemeDescriptor, g_prime, public_key_of, s_prime, v_prime,
)

merkle_h2 = SchemeDescriptor(1, bytes([2]))
kp = g_prime(merkle_h2, ChameleonKind.DL, {"name": "dl-demo"}, rng_from_int(1))
sig, _ = s_prime(kp, b"message", production_oracle(kp.ch_inst), rng_from_int(2))
assert v_prime(public_key_of(kp), b"message", sig, production_oracle(kp.ch_inst))
"""


def test_importing_transform_registers_merkle():
    """Merkle signs in a process that never names `toosign.merkle`."""
    r = run_child(TRANSFORM_ONLY)
    assert r.returncode == 0, r.stderr
