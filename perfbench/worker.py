"""One benchmark process: set up a workload's inputs, then run passes.

Started by run.py, never by hand.  With ``--setup-only`` the process
prepares the inputs in ``--workdir``, reports the set-up time and stops; set-up
time runs from ``--spawned-at`` (the parent's monotonic clock just before it
started this interpreter) to the moment the inputs are ready.  Otherwise it
loads the inputs a set-up process prepared, so that its peak memory is that
of the passes, and runs passes in a closed loop, one at a time, until
``--seconds`` have elapsed; every pass starts with the package's
module-level caches cleared, as a fresh CLI invocation would.  With
``--trace 1`` passes alternate untraced and traced, so that one process
gives both the per-layer figures and the tracing overhead.

The last line of standard output is one JSON object for run.py.
"""

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cache_clearers():
    """The clear() of every module-level cache the package holds: functions
    with an lru_cache and dicts whose name says cache."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name != "ringcent" and not name.startswith("ringcent."):
            continue
        for attr, value in vars(mod).items():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value.cache_clear
            elif isinstance(value, dict) and "cache" in attr.lower():
                found[id(value)] = value.clear
    return list(found.values())


def active_backend():
    """The kernel backend the package runs, as it reports it itself."""
    try:
        from ringcent.backend import active_backend as report
    except ImportError:  # a package without a backend switch has one kernel set
        return "no backend switch"
    return report()


def run_pass(operations, clearers):
    """Clear the caches, then time the operations; returns the wall time and
    a list of (label, message) for each failed operation."""
    for clear in clearers:
        clear()
    gc.collect()
    failures = []
    t0 = time.perf_counter()
    for label, op in operations:
        try:
            message = op()
        except Exception as exc:  # any error is a failed operation, not a crash
            traceback.print_exc(file=sys.stderr)
            message = f"{type(exc).__name__}: {exc}"
        if message is not None:
            failures.append((label, message))
    return time.perf_counter() - t0, failures


def run_passes(operations, clearers, seconds, tracer=None):
    """Closed loop of passes for `seconds`; with a tracer, odd passes are
    traced and at least one pass of each kind runs."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, failures = run_pass(operations, clearers)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"wall_s": wall, "traced": traced, "failures": failures,
                       "spans": tracer.take() if traced else None})
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or len(passes) >= 2):
            return passes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports the package under test

    prepare, load, ops_of = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        if prepare is not None:
            prepare(ROOT, args.seed, args.workdir)
        load(ROOT, args.seed, args.workdir)
        print(json.dumps({"setup_s": time.monotonic() - args.spawned_at}))
        return 0
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    operations = ops_of(load(ROOT, args.seed, args.workdir))
    passes = run_passes(operations, cache_clearers(), args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import numpy

    record = {
        "peak_rss_mb": peak_rss_mb,
        "operations": len(operations),
        "passes": [{k: p[k] for k in ("wall_s", "traced", "failures")}
                   for p in passes],
        "backend": active_backend(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        traced = [p["spans"] for p in passes if p["traced"]]
        record["layers"] = [spans.layer_metrics(s) for s in traced]
        with open(args.spans_out, "w") as fh:
            json.dump(traced, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
