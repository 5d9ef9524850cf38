"""Seeded closed-loop benchmark of toosign.

    python3 perfbench/run.py --workload dl-2048 --seed 1 --seconds 20 --trace 0

Runs from a plain checkout with no install step: the benchmark puts the
checkout's `src` on the path and starts `too-sign` as
`python -m toosign.cli`.  One caller in one process, no threads.

--trace 0 measures the end-to-end metrics.  --trace 1 runs the same steps
twice, untraced and then with span wrappers installed (spans.py), checks that
both give the same signature digest, and reports the per-layer metrics.
Metric names and units come from BENCHMARK.json.  The last line of output is
the result object; the line before it holds the run's context (versions,
seed, sample counts, digest, failures).  `--workload all` runs every
workload in its own process and prints each one's metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("dl-2048", "sis-h10", "game-sweep", "cli")
IMPORT_REPEATS = 5
REF_WINDOW = 2  # an op is scaled by the median of the 2 * REF_WINDOW references around it


def quantile(xs, q: int) -> float:
    """The q-th percentile (inclusive method); 0 when there are no samples."""
    if not xs:
        return 0.0
    if len(xs) == 1:
        return float(xs[0])
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:  # no git program
        return None
    return proc.stdout.strip() or None


def run_pass(wl, seconds: float, min_steps: int, tally, rec=None):
    """Closed loop for `seconds` and at least `min_steps` steps.

    The workload's reference work is timed before every step and after the
    last one, untimed by the step.  Returns the duration of each step, the
    reference durations, the tally's sign and verify counts before the
    first step and after each one (so each op can be told which step it ran
    in), and the digest of the signatures of the first `wl.digest_steps`
    steps.
    """
    import workloads

    wl.reset()
    digest = hashlib.sha256()
    step_ns, ref_ns = workloads.int_array(), workloads.int_array()
    marks = (workloads.int_array(), workloads.int_array())
    marks[0].append(len(tally.sign_ns))
    marks[1].append(len(tally.verify_ns))
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_steps or time.perf_counter() < deadline:
        if rec:
            rec.use("setup")
        wl.prepare(i)
        ref_ns.append(wl.reference())
        if rec:
            rec.use("steps")
        t0 = time.perf_counter_ns()
        sigs = wl.step(i, tally)
        step_ns.append(time.perf_counter_ns() - t0)
        marks[0].append(len(tally.sign_ns))
        marks[1].append(len(tally.verify_ns))
        if i < wl.digest_steps:
            for sig in sigs:
                digest.update(len(sig).to_bytes(4, "big") + sig)
        i += 1
    if rec:
        rec.use("setup")
    ref_ns.append(wl.reference())
    return step_ns, ref_ns, marks, digest.hexdigest()


def scales(ref_ns: list, kind: str) -> list:
    """Speed factor of each timed interval between two references.

    Interval i ran between ref_ns[i] and ref_ns[i + 1].  Its factor is the
    reference's nominal time over the median of the 2 * REF_WINDOW reference
    times around it, so a scaled time is the time the op would take at the
    reference host speed.  The host drifts by up to 2x, the reference with
    it; a change to the program moves the scaled time, the host's drift
    does not.
    """
    import workloads

    nominal = workloads.NOMINAL_NS[kind]
    return [
        nominal / statistics.median(ref_ns[max(0, i - REF_WINDOW + 1): i + REF_WINDOW + 1])
        for i in range(len(ref_ns) - 1)
    ]


def scaled_ms(times_ns: list, ref_ns: list, kind: str) -> list:
    """times_ns[i], timed between ref_ns[i] and ref_ns[i + 1], scaled, in ms."""
    return [t * f * 1e-6 for t, f in zip(times_ns, scales(ref_ns, kind))]


def ops_ms(xs, counts, factors: list) -> list:
    """Ops of one kind, each scaled by the factor of the step it ran in, in
    ms; `counts` holds the number of these ops before each step and after
    the last."""
    return [
        x * f * 1e-6
        for f, lo, hi in zip(factors, counts, counts[1:])
        for x in xs[lo:hi]
    ]


def import_seconds(env: dict, tmp: Path, module: str) -> float:
    """Median scaled wall time of a fresh process that only imports `module`."""
    import workloads

    cmd = [sys.executable, "-c", f"import {module}"]
    _, times, refs = workloads.timed_repeats(
        lambda: workloads.time_process(cmd, tmp, env, check=True),
        lambda: workloads.time_reference("process", tmp, env),
        IMPORT_REPEATS,
    )
    return statistics.median(scaled_ms(times, refs, "process")) / 1e3


def run(args, spec: dict, tmp: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # compile the bytecode once, so no timed import pays for it
    subprocess.run([sys.executable, "-c", "import toosign.cli"], cwd=tmp, env=env, check=True)
    sys.path.insert(0, str(SRC))
    import numpy

    import spans
    import workloads

    wl = workloads.make(args.workload, tmp, env, HERE / "cli_child.py")
    in_process = args.workload != "cli"
    import_s = import_seconds(env, tmp, "toosign") if in_process else 0.0
    setup_ns, setup_refs = wl.setup(args.seed)
    kind = wl.reference_kind
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "digest_steps": wl.digest_steps,
        "reference": kind,
    }

    if not args.trace:
        tally = workloads.Tally()
        step_ns, ref_ns, marks, digest = run_pass(wl, args.seconds, wl.digest_steps, tally)
        usage = resource.getrusage(
            resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        )
        factors = scales(ref_ns, kind)
        step_ms = [t * f * 1e-6 for t, f in zip(step_ns, factors)]
        sign_ms = ops_ms(tally.sign_ns, marks[0], factors)
        verify_ms = ops_ms(tally.verify_ns, marks[1], factors)
        metrics = {
            "setup_s": import_s + statistics.median(scaled_ms(setup_ns, setup_refs, kind)) / 1e3,
            "sign_ms.p50": quantile(sign_ms, 50),
            "sign_ms.p90": quantile(sign_ms, 90),
            "verify_ms.p50": quantile(verify_ms, 50),
            "verify_ms.p90": quantile(verify_ms, 90),
            "step_ms.p50": quantile(step_ms, 50),
            "step_ms.p90": quantile(step_ms, 90),
            "ops_per_s": (tally.attempted - tally.failed) / (sum(step_ms) / 1e3),
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "sig_bytes": statistics.median(tally.sig_bytes) if tally.sig_bytes else 0,
            "sk_bytes": wl.sk_bytes,
        }
        info["samples"] = {
            "setup_s": len(setup_ns),
            "sign_ms": len(sign_ms),
            "verify_ms": len(verify_ms),
            "step_ms": len(step_ms),
            "sig_bytes": len(tally.sig_bytes),
        }
        info["unscaled"] = {
            "step_ms.p50": quantile([x * 1e-6 for x in step_ns], 50),
            "reference_ms.p50": quantile([x * 1e-6 for x in ref_ns], 50),
            "reference_nominal_ms": workloads.NOMINAL_NS[kind] * 1e-6,
        }
        info["import_s"] = import_s
        correct = tally.failed == 0
        attempted, failed = tally.attempted, tally.failed
        failures = tally.failures
    else:
        half = args.seconds / 2
        plain = workloads.Tally()
        plain_ns, plain_refs, plain_marks, digest = run_pass(wl, half, wl.digest_steps, plain)
        rec = spans.Recorder()
        traced = workloads.Tally()
        with spans.installed(rec):
            wl.rec = rec  # the cli workload's children record into it
            same_keys = wl.retrace_setup()
            traced_ns, traced_refs, _, traced_digest = run_pass(
                wl, half, wl.digest_steps, traced, rec
            )
        n = min(len(plain_ns), len(traced_ns))
        metrics = spans.layer_metrics(rec, len(traced_ns), sum(traced_ns))
        metrics["trace.overhead"] = (
            sum(scaled_ms(traced_ns[:n], traced_refs, kind))
            / sum(scaled_ms(plain_ns[:n], plain_refs, kind)) - 1
        )
        cli_import_ms = 0.0 if in_process else 1e3 * import_seconds(env, tmp, "toosign.cli")
        metrics["cli.import_ms"] = cli_import_ms
        factors = scales(plain_refs, kind)
        for op, xs, k in (("sign", plain.sign_ns, 0), ("verify", plain.verify_ns, 1)):
            metrics[f"cli.{op}.work_ms"] = (
                0.0 if in_process
                else quantile(ops_ms(xs, plain_marks[k], factors), 50) - cli_import_ms
            )
        info["samples"] = {
            "untraced_steps": len(plain_ns),
            "traced_steps": len(traced_ns),
            "spans": {k: len(v) for k, v in rec.buckets["steps"]["self_ns"].items()},
        }
        info["traced_digest_matches"] = digest == traced_digest
        info["traced_keys_match"] = same_keys
        correct = (
            plain.failed == 0 and traced.failed == 0 and digest == traced_digest and same_keys
        )
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        failures = plain.failures + traced.failures
        dump = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps({"info": info, "metrics": metrics, "spans": rec.buckets}))

    info["sig_digest"] = digest
    info["fail_ratio"] = failed / attempted if attempted else 0.0
    info["failures"] = failures[:5]
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: "
                           f"{sorted(set(units) ^ set(metrics))}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, info


def run_all(args) -> int:
    """Each workload in its own process; prints a metric table, then the results."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"{name:11} {metric:40} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "toosign" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {SRC}/toosign or {spec_path} missing; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads(spec_path.read_text())
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result, info = run(args, spec, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
