#!/usr/bin/env python3
"""ringcent benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs the four workloads one after the other; its last
line then sums the counts and prefixes each metric with its workload.

Run it from anywhere; it measures the package in ``src/`` next to this
directory.  Workloads (see workloads.py and BENCHMARK.json): gallery-verify,
catalog-verify, search-16, load-inspect.

Load is a closed loop with one client: one worker process runs one pass at
a time.  With ``--trace 0`` the run reports the end-to-end metrics:

    setup_s      median over SETUP_SAMPLES set-up processes of the time
                 from interpreter start to inputs ready (imports included)
    wall_s       median seconds per pass
    peak_rss_mb  ru_maxrss of the worker that ran the passes; it loads the
                 inputs the set-up processes prepared, so set-up memory is
                 not in it

Failed or wrong operations go into ``failed`` out of ``attempted``; their
ratio is fail_frac.  With ``--trace 1`` the run reports the per-layer
metrics of spans.PER_LAYER from traced passes, plus the tracing overhead.

Every run prints a human-readable summary, then as its last line one JSON
object with the keys correct, attempted, failed and metrics.  It also writes
a record (environment, every pass, every metric) and, when traced, the raw
spans under perfbench/out/.  The exit code is 0 whenever a result is
printed; it is 2, with no result, when the worker could not run at all.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("gallery-verify", "catalog-verify", "search-16", "load-inspect")
SETUP_SAMPLES = 3
DEADLINE_S = 175  # one workload's run, set-up samples included


class WorkerFailed(RuntimeError):
    pass


def spawn(args, workload, workdir, deadline, extra=()):
    """Start one worker interpreter, wait for it, return its JSON record."""
    argv = [sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir), *extra]
    try:
        proc = subprocess.run(
            argv + ["--spawned-at", repr(time.monotonic())],
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerFailed(f"worker still running after {exc.timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def source_digest():
    """sha256 over the package sources, to name the code that was measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def numba_imports():
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def environment(worker):
    return {
        "backend": worker["backend"],
        "numba_imports": numba_imports(),
        "python": worker["python"],
        "numpy": worker["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def end_to_end(setups, worker):
    walls = [p["wall_s"] for p in worker["passes"]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
    }


def per_layer(worker):
    """Medians over traced passes, and traced minus untraced wall time."""
    layers = worker["layers"]
    out = {name: (statistics.median(layer[name] for layer in layers), unit)
           for name, unit, _ in spans.PER_LAYER if name in layers[0]}
    traced = statistics.median(p["wall_s"] for p in worker["passes"] if p["traced"])
    plain = statistics.median(p["wall_s"] for p in worker["passes"] if not p["traced"])
    out["trace.wall_s"] = (traced, "s")
    out["trace.untraced_wall_s"] = (plain, "s")
    out["trace.overhead_s"] = (traced - plain, "s")
    return out


def repeat_failures(worker):
    """Exact counters that differ between traced passes of this run."""
    layers = worker["layers"]
    return [name for name in spans.EXACT_COUNTERS
            if len({layer[name] for layer in layers}) > 1]


def run_workload(args, workload):
    """Measure one workload, print its summary, and return the result line's
    object; raises WorkerFailed when a worker could not run."""
    deadline = time.monotonic() + DEADLINE_S
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [spawn(args, workload, workdir, deadline, ["--setup-only"])["setup_s"]
                  for _ in range(1 if args.trace else SETUP_SAMPLES)]
        spans_out = ["--spans-out", str(OUT / f"{stem}-spans.json")]
        worker = spawn(args, workload, workdir, deadline,
                       spans_out if args.trace else [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = worker["passes"]
    attempted = worker["operations"] * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    if args.trace:
        metrics = per_layer(worker)
        unsteady = repeat_failures(worker)
        if len([p for p in passes if p["traced"]]) > 1:
            attempted += 1  # the exact-repeat check is one more operation
            failed += bool(unsteady)
    else:
        metrics = end_to_end(setups, worker)
        unsteady = []

    env = environment(worker)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": workload, "args": vars(args), "environment": env,
              "setup_samples_s": setups, "passes": passes,
              "unsteady_counters": unsteady, **result}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    walls = sorted(p["wall_s"] for p in passes)
    print(f"ringcent benchmark: workload {workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"passes: {len(passes)}, wall per pass min {walls[0]:.4f} s, "
          f"max {walls[-1]:.4f} s (too few passes for a tail percentile)")
    for p in passes:
        for label, message in p["failures"]:
            print(f"FAILED {label}: {message}")
    for name in unsteady:
        print(f"FAILED {name} differs between traced passes")
    print(f"fail_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description="ringcent benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [ROOT / "src" / "ringcent" / "__init__.py",
              ROOT / "tests" / "golden" / "verify_gallery.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: the package is not here: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(args, name)
        except WorkerFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
