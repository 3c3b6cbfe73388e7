"""In-memory span tracing for the benchmark's traced runs.

The tracer wraps public ringcent functions from outside the program.  Each
wrapper is installed in every ringcent module namespace that holds the
original function: ``suites`` imports ``cent_set`` by name, so patching
``centralizers`` alone would miss every call a suite makes.  A span records
its name, the span that caused it, start, end, and one count taken from the
call's arguments or result.  Spans stay in memory until the run ends.

``PER_LAYER`` is the single list of per-layer metrics; ``BENCHMARK.json``
declares the same list (a test keeps the two equal).
"""

import functools
import sys
import time
import weakref

SUITE_IDS = (
    "D_58", "D_bound", "D_conv", "D_rc", "L1_intersection", "L2_union",
    "L3_two_subrings", "L4_index2", "L5C2_counting", "P2_product",
    "T1_no_2_3", "T_4c", "T_5c", "T_dc", "T_p2", "T_p3_unital", "T_pring",
)

# Counters that must repeat exactly between traced passes of one workload.
EXACT_COUNTERS = (
    "kernels.structure_search.nodes",
    "rings.additive_closure.calls",
    "enumeration.isomorphic.calls",
    "centralizers.cent_set.calls",
)


def _nodes(args, result):
    return int(result[2])  # structure_search returns (rows, status, nodes)


def _triples(args, result):
    return int(args[0].shape[0]) ** 3  # every law check scans n^3 triples


def _found(args, result):
    return len(result)


def _hit(args, result):
    return int(result is not None and result is not False)


def _checked(args, result):
    return int(result)


# (module, attribute, span name, count) for every traced function.  The three
# table-law kernels share one span name.  A function a later version of the
# package no longer has is skipped, and its metrics read 0.
TRACED = (
    ("ringcent.kernels", "structure_search", "kernels.structure_search", _nodes),
    ("ringcent.kernels", "add_table_check", "kernels.law_check", _triples),
    ("ringcent.kernels", "mul_assoc_check", "kernels.law_check", _triples),
    ("ringcent.kernels", "distrib_check", "kernels.law_check", _triples),
    ("ringcent.rings", "validate", "rings.validate", None),
    ("ringcent.rings", "subrings", "rings.subrings", _found),
    ("ringcent.rings", "additive_subgroups", "rings.additive_subgroups", _found),
    ("ringcent.rings", "additive_closure", "rings.additive_closure", None),
    ("ringcent.enumeration", "enumerate_rings", "enumeration.enumerate_rings", None),
    ("ringcent.enumeration", "raw_structures", "enumeration.raw_structures", None),
    ("ringcent.enumeration", "ring_fingerprint", "enumeration.ring_fingerprint", None),
    ("ringcent.enumeration", "isomorphic", "enumeration.isomorphic", _hit),
    ("ringcent.enumeration", "canonical_form", "enumeration.canonical_form", None),
    ("ringcent.centralizers", "cent_set", "centralizers.cent_set", "distinct"),
    ("ringcent.centralizers", "center", "centralizers.center", None),
    ("ringcent.centralizers", "commutativity_degree",
     "centralizers.commutativity_degree", None),
    ("ringcent.centralizers", "analyze", "centralizers.analyze", None),
    ("ringcent.abelian", "classify_additive", "abelian.classify_additive", None),
    ("ringcent.abelian", "quotient_type", "abelian.quotient_type", None),
    ("ringcent.gallery", "default_gallery", "gallery.default_gallery", None),
)

_S, _N = "s", "count"
PER_LAYER = [
    ("kernels.structure_search.s", _S, "lower"),
    ("kernels.structure_search.calls", _N, "lower"),
    ("kernels.structure_search.nodes", _N, "lower"),
    ("kernels.structure_search.nodes_per_s", "1/s", "higher"),
    ("kernels.law_check.s", _S, "lower"),
    ("kernels.law_check.calls", _N, "lower"),
    ("kernels.law_check.triples", _N, "lower"),
    ("rings.validate.s", _S, "lower"),
    ("rings.validate.calls", _N, "lower"),
    ("rings.subrings.s", _S, "lower"),
    ("rings.subrings.found", _N, "lower"),
    ("rings.additive_subgroups.s", _S, "lower"),
    ("rings.additive_subgroups.found", _N, "lower"),
    ("rings.additive_closure.calls", _N, "lower"),
    ("rings.subrings.yield", "ratio", "higher"),
    ("enumeration.enumerate_rings.s", _S, "lower"),
    ("enumeration.enumerate_rings.self_s", _S, "lower"),
    ("enumeration.raw_structures.s", _S, "lower"),
    ("enumeration.ring_fingerprint.calls", _N, "lower"),
    ("enumeration.ring_fingerprint.s", _S, "lower"),
    ("enumeration.isomorphic.calls", _N, "lower"),
    ("enumeration.isomorphic.s", _S, "lower"),
    ("enumeration.isomorphic.hit_ratio", "ratio", "higher"),
    ("enumeration.canonical_form.calls", _N, "lower"),
    ("enumeration.canonical_form.s", _S, "lower"),
]
for _fn in ("cent_set", "center", "commutativity_degree", "analyze"):
    PER_LAYER += [(f"centralizers.{_fn}.calls", _N, "lower"),
                  (f"centralizers.{_fn}.s", _S, "lower")]
PER_LAYER += [("centralizers.cent_set.per_ring", "calls/ring", "lower")]
for _fn in ("classify_additive", "quotient_type"):
    PER_LAYER += [(f"abelian.{_fn}.calls", _N, "lower"),
                  (f"abelian.{_fn}.s", _S, "lower")]
PER_LAYER += [(f"suites.{sid}.s", _S, "lower") for sid in SUITE_IDS]
PER_LAYER += [
    ("suites.checked", _N, "higher"),
    ("gallery.default_gallery.s", _S, "lower"),
    ("trace.spans", _N, "lower"),
    ("trace.wall_s", _S, "lower"),
    ("trace.untraced_wall_s", _S, "lower"),
    ("trace.overhead_s", _S, "lower"),
]


class Tracer:
    """Records spans of wrapped calls; install() patches, uninstall() undoes."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, count]
        self._stack = []
        self._patches = []
        self._seen = weakref.WeakSet()

    def _distinct(self, args, result):
        # 1 for the first call on a ring object, 0 after: the sum counts rings.
        ring = args[0]
        if ring in self._seen:
            return 0
        self._seen.add(ring)
        return 1

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack
        if count == "distinct":
            count = self._distinct

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def install(self):
        """Wrap every TRACED function wherever the package holds it, and
        every suite body in the suite table."""
        modules = [m for name, m in sys.modules.items()
                   if name == "ringcent" or name.startswith("ringcent.")]
        for mod_name, attr, span_name, count in TRACED:
            orig = getattr(sys.modules.get(mod_name), attr, None)
            if orig is None:
                continue
            wrapper = self.wrap(span_name, orig, count)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is orig]:
                    self._patches.append((vars(mod), key, orig))
                    setattr(mod, key, wrapper)
        table = getattr(sys.modules.get("ringcent.suites"), "SUITES", {})
        for sid, body in list(table.items()):
            self._patches.append((table, sid, body))
            table[sid] = self.wrap(f"suites.{sid}", body, _checked)

    def uninstall(self):
        while self._patches:
            namespace, key, orig = self._patches.pop()
            namespace[key] = orig

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        self._seen = weakref.WeakSet()
        return spans


def span_stats(spans):
    """Per span name: calls, inclusive seconds, self seconds, summed count.

    Inclusive time skips spans nested in a span of the same name, so
    recursion is not counted twice.  Self time is a span's duration minus
    the durations of its direct children; children of one span never
    overlap, because the traced program runs on one thread.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, parent, start, end, count) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
        st["calls"] += 1
        st["count"] += count
        st["self_s"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            st["s"] += end - start
    return stats


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Every PER_LAYER metric of one pass but the trace wall times, which
    need the untraced passes too."""
    st = span_stats(spans)

    def get(name, key="calls"):
        return st.get(name, {}).get(key, 0)

    out = {}
    for name in {n for _, _, n, _ in TRACED}:
        out[f"{name}.calls"] = get(name)
        out[f"{name}.s"] = float(get(name, "s"))
    for sid in SUITE_IDS:
        out[f"suites.{sid}.s"] = float(get(f"suites.{sid}", "s"))
    out["kernels.structure_search.nodes"] = get("kernels.structure_search", "count")
    out["kernels.structure_search.nodes_per_s"] = _ratio(
        out["kernels.structure_search.nodes"], out["kernels.structure_search.s"])
    out["kernels.law_check.triples"] = get("kernels.law_check", "count")
    out["rings.subrings.found"] = get("rings.subrings", "count")
    out["rings.additive_subgroups.found"] = get("rings.additive_subgroups", "count")
    out["rings.subrings.yield"] = _ratio(
        out["rings.subrings.found"], out["rings.additive_closure.calls"])
    out["enumeration.enumerate_rings.self_s"] = float(
        get("enumeration.enumerate_rings", "self_s"))
    out["enumeration.isomorphic.hit_ratio"] = _ratio(
        get("enumeration.isomorphic", "count"), out["enumeration.isomorphic.calls"])
    out["centralizers.cent_set.per_ring"] = _ratio(
        out["centralizers.cent_set.calls"], get("centralizers.cent_set", "count"))
    out["suites.checked"] = sum(get(f"suites.{sid}", "count") for sid in SUITE_IDS)
    out["trace.spans"] = len(spans)
    return {name: out[name] for name, _, _ in PER_LAYER if name in out}
