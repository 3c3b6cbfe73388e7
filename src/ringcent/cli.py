"""Command-line front end.

Verbs: inspect, enumerate, search, verify, product.  Rings and universes are
named by the tokens of suites.load_universe.  Exit code is 0 exactly when no
violations or errors occurred, 1 on violations or when the reader of the
output closed it early, and 2 on a RingError or a file that cannot be
written.  `enumerate` gives isomorphism classes; RINGCENT_TIME_BUDGET_SECS is
its wall-clock deadline.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from . import gallery
from .centralizers import analyze
from .enumeration import enumerate_rings
from .errors import RingError
from .rings import FiniteRing
from .suites import SUITES, load_universe, run_all


def _resolve_ring(token: str) -> FiniteRing:
    """The one ring a token names (suites.load_universe)."""
    rings, _ = load_universe(token)
    if len(rings) != 1:
        raise RingError(f"{token!r} names {len(rings)} rings, not one")
    return rings[0]


def _render_report(report) -> str:
    lines = [
        f"ring: {report.ring_label}",
        f"order: {report.order}",
        f"commutative: {'yes' if report.is_commutative else 'no'}",
        f"additive group: {report.additive_type.render()}",
        f"|Z(R)|: {len(report.center)}   Z(R) = {list(report.center.members)}",
        f"|Cent(R)|: {report.cent_count}",
        f"centralizer sizes: {[len(c) for c in report.centralizers]}",
        f"d(R): {report.degree}",
        f"R/Z(R): {report.quotient_type.render()}",
    ]
    return "\n".join(lines)


def _show(ring: FiniteRing, emit=None, as_json=False) -> int:
    """Write the ring's RingSpec to `emit`, or print its report."""
    if emit:
        ring.spec().save(emit)
        print(f"wrote {emit}")
    elif as_json:
        print(json.dumps(analyze(ring).to_json(), indent=2, sort_keys=True))
    else:
        print(_render_report(analyze(ring)))
    return 0


def _cmd_inspect(args) -> int:
    return _show(_resolve_ring(args.ring), args.emit, args.json)


def _cmd_enumerate(args) -> int:
    catalog = enumerate_rings(args.order, out_dir=args.out, resume=args.resume)
    print(f"order {catalog.order}: {catalog.class_count} isomorphism classes "
          f"({catalog.raw_count} raw structures)")
    for factors, raw in sorted(catalog.per_type_raw.items()):
        name = " x ".join(f"Z_{d}" for d in factors) or "trivial"
        print(f"  additive {name}: {raw} raw")
    if args.out:
        print(f"catalog written to {args.out}")
    return 0


def _cmd_search(args) -> int:
    rings, _ = load_universe(f"catalog:{args.max_order}")
    hits = [ring for ring in rings if analyze(ring).cent_count == args.cent]
    if not hits:
        print(f"no ring of order <= {args.max_order} has exactly "
              f"{args.cent} centralizers")
        return 0
    print(f"{len(hits)} ring(s) with |Cent(R)| = {args.cent}, "
          f"order <= {args.max_order}:")
    for ring in hits:
        print(f"  {ring.label} (order {ring.order})")
    return 0


def _cmd_verify(args) -> int:
    rings, name = load_universe(args.universe)
    results = run_all(rings, name, None if args.suite == "all" else [args.suite])
    bad = 0
    docs = []
    for res in results:
        status = "ok" if res.passed else f"{len(res.violations)} VIOLATIONS"
        if not args.json:
            elapsed = "" if args.no_timing else f"  [{res.elapsed_secs:.2f}s]"
            print(f"{res.suite_id:16s} checked {res.checked:5d}  {status}{elapsed}")
        docs.append(res.to_json(with_timing=not args.no_timing))
        if not res.passed:
            bad += 1
            dump_dir = Path(args.dump_dir)
            dump_dir.mkdir(parents=True, exist_ok=True)
            for viol in res.violations:
                # a label is file input: keep its dump inside dump_dir
                label = viol.ring_label.translate({ord(c): "_" for c in "/\\\0"})
                path = dump_dir / f"{res.suite_id}_{label}.json"
                with open(path, "w") as fh:
                    json.dump(viol.spec, fh, indent=1, sort_keys=True)
    if args.json:
        print(json.dumps(docs, indent=2, sort_keys=True))
    elif bad:
        print(f"{bad} suite(s) reported violations; specs dumped to "
              f"{args.dump_dir}/")
    return 1 if bad else 0


def _cmd_product(args) -> int:
    a = _resolve_ring(args.spec1)
    b = _resolve_ring(args.spec2)
    return _show(gallery.direct_product(a, b), args.emit)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ringcent",
        description="Centralizer structure and enumeration of small finite rings.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="full centralizer report for one ring")
    p.add_argument("ring", help="one-ring token, e.g. gallery:NAME[:P] or a spec file")
    shown = p.add_mutually_exclusive_group()
    shown.add_argument("--json", action="store_true")
    shown.add_argument("--emit", metavar="FILE",
                       help="write the ring's RingSpec here instead")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("enumerate",
                       help="the isomorphism classes of rings of one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", metavar="DIR", help="catalog output directory")
    p.add_argument("--resume", action="store_true",
                   help="reuse the group types the manifest records as done")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("search", help="find n-centralizer rings")
    p.add_argument("--cent", type=int, required=True)
    p.add_argument("--max-order", type=int, default=13)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="run theorem suites over a universe")
    p.add_argument("--suite", default="all",
                   help="suite id or 'all' (%s)" % ", ".join(sorted(SUITES)))
    p.add_argument("--universe", default="gallery",
                   help="gallery | gallery:NAME[:P] | catalog[:N] (N = 13 "
                        "when omitted) | catalog dir | ring file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-timing", action="store_true",
                   help="zero elapsed fields (byte-stable output)")
    p.add_argument("--dump-dir", default="violations",
                   help="where offending RingSpecs are dumped")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("product", help="direct product of two rings")
    p.add_argument("spec1", help="one-ring token, e.g. gallery:NAME[:P] or a spec file")
    p.add_argument("spec2", help="one-ring token, e.g. gallery:NAME[:P] or a spec file")
    p.add_argument("--emit", metavar="FILE")
    p.set_defaults(func=_cmd_product)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "enumerate" and args.resume and not args.out:
        parser.error("enumerate --resume needs --out DIR, the catalog to resume")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed early.  Point stdout at devnull so that the
        # interpreter's last flush does not fail again on exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (RingError, OSError) as exc:  # BrokenPipeError, an OSError, is above
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
