"""In-memory span tracing of the qcx layers, installed from outside.

The tracer wraps the public functions of each layer and records one span
per call: name, start, end, the enclosing span and the job it belongs to.
Hot leaf calls (``FunctionSpec.__call__`` and ``RiskMeasureOracle.__call__``)
are aggregated into a count and a total time per enclosing span instead.
Spans stay in memory and are written out once the jobs have run.

``cli`` and ``decomp`` bind many names at import time (``from .x import
y``) and ``cli.PROPERTY_CHECKS`` holds references to the checkers, so a
wrapper replaces the original object wherever a loaded ``qcx`` module
holds it: module globals and the values of module-level dicts. Methods are
replaced on their class.

A layer's self time is the time of its spans minus the time their child
spans and aggregated leaf calls cover. Peak memory (tracemalloc) is
measured only inside the table-build and brute-force spans, and tracing
starts and stops with the outermost of them.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc

ALL = frozenset({"index", "brute", "risk"})
GRID = frozenset({"index", "brute"})
RISK = frozenset({"risk"})
LAYERS = ("cli", "cindex", "decomp", "extcore", "riskmeasure", "l2basis")

#: The nine risk-check properties and the checker behind each.
CHECKERS = {
    "monotonicity": "check_monotonicity",
    "translativity": "check_translativity",
    "locality": "check_locality",
    "convexity": "check_convexity",
    "quasiconvexity": "check_quasiconvexity",
    "nqc": "check_natural_quasiconvexity",
    "star": "check_star_quasiconvexity",
    "sensitivity": "check_sensitivity",
    "assumption": "check_assumption_nonconstant",
}

#: Declared spans: (layer, owner, attribute, workloads that must call it).
#: An owner is a module, or ``module:Class`` for a method.
SPANS = (
    ("cli", "qcx.cli", "main", ALL),
    ("cli", "qcx.cli", "load_config", ALL),
    ("cli", "qcx.cli", "build_function", GRID),
    ("cli", "qcx.cli", "build_space", RISK),
    ("cli", "qcx.cli", "build_partition", RISK),
    ("cli", "qcx.cli", "build_measure", RISK),
    ("cli", "qcx.cli", "render_text", ALL),
    ("cli", "qcx.cli", "render_json", ALL),
    ("cindex", "qcx.cindex", "compute_index", GRID),
    ("cindex", "qcx.cindex", "smooth_index_1d", {"index"}),
    ("cindex", "qcx.cindex", "classify", {"index"}),
    ("extcore", "qcx.extcore:PairTable", "__init__", GRID),
    ("extcore", "qcx.extcore:PairTable", "scan", GRID),
    ("extcore", "qcx.extcore:PairTable", "exp_transform_ok", GRID),
    ("extcore", "qcx.extcore:FunctionSpec", "__call__", GRID),
    ("extcore", "qcx.extcore", "certify_quasiconvex", {"brute"}),
    ("extcore", "qcx.extcore", "quasiconvexity_gap", {"brute"}),
    ("decomp", "qcx.decomp", "brute_force_sum_quasiconvex", {"brute"}),
    ("decomp", "qcx.decomp:DecomposableSum", "indices", {"brute"}),
    ("decomp", "qcx.decomp", "index_sum_criterion", {"brute"}),
    ("decomp", "qcx.decomp", "characterize", {"brute"}),
    *(("riskmeasure", "qcx.riskmeasure", fn, RISK)
      for fn in CHECKERS.values()),
    ("riskmeasure", "qcx.riskmeasure:RiskMeasureOracle", "__call__", RISK),
    ("riskmeasure", "qcx.riskmeasure", "separating_dual_witness", RISK),
    ("riskmeasure", "qcx.riskmeasure", "sample_triples", RISK),
    ("riskmeasure", "qcx.riskmeasure", "entropic_certainty_equivalent", RISK),
    ("riskmeasure", "qcx.riskmeasure", "cubed_mean_map", RISK),
    ("riskmeasure", "qcx.riskmeasure", "sqrt_log_map", RISK),
    ("riskmeasure", "qcx.riskmeasure", "mean_broadcast_map", RISK),
    ("riskmeasure", "qcx.riskmeasure", "conditional_expectation_map", RISK),
    ("l2basis", "qcx.l2basis", "build_example_10pt", RISK),
    ("l2basis", "qcx.l2basis", "build_example_10pt_split", RISK),
    ("l2basis", "qcx.l2basis", "refined_partition_10pt", RISK),
    ("l2basis", "qcx.l2basis", "check_basis_locality", RISK),
    ("l2basis", "qcx.l2basis", "check_cone_self_dual", RISK),
    ("l2basis", "qcx.l2basis", "check_nqc_wrt_preorder", RISK),
    ("l2basis", "qcx.l2basis", "check_convexity_wrt_preorder", RISK),
)

LEAVES = frozenset({"extcore.FunctionSpec.__call__",
                    "riskmeasure.RiskMeasureOracle.__call__"})
PEAK_SPANS = frozenset({"extcore.PairTable.__init__",
                        "decomp.brute_force_sum_quasiconvex"})

#: Per-layer metric names, in report order.
METRICS = (
    "extcore.table_build_s", "extcore.table_builds", "extcore.table_pairs",
    "extcore.table_peak_mb", "extcore.scan_s", "extcore.scans",
    "extcore.exp_probe_s", "extcore.exp_probes", "extcore.eval_s",
    "extcore.points_evaluated", "extcore.self_s",
    "cindex.compute_index_s", "cindex.indices", "cindex.probes_per_index",
    "cindex.smooth_check_s", "cindex.self_s",
    "decomp.brute_s", "decomp.brute_peak_mb", "decomp.sum_indices_s",
    "decomp.self_s",
    *(f"riskmeasure.check_{prop}_s" for prop in CHECKERS),
    "riskmeasure.oracle_calls", "riskmeasure.oracle_s",
    "riskmeasure.locality_oracle_calls", "riskmeasure.locality_samples",
    "riskmeasure.locality_calls_per_sample", "riskmeasure.dual_searches",
    "riskmeasure.dual_search_s", "riskmeasure.self_s",
    "l2basis.structure_build_s", "l2basis.check_basis_locality_s",
    "l2basis.check_cone_self_dual_s", "l2basis.check_nqc_wrt_preorder_s",
    "l2basis.oracle_calls", "l2basis.self_s",
    "cli.config_s", "cli.render_s", "cli.report_bytes", "cli.self_s",
    "trace.wall_s", "trace.remainder_s", "trace.overhead_ratio",
)


def span_name(layer: str, owner: str, attr: str) -> str:
    cls = owner.partition(":")[2]
    return f"{layer}.{cls}.{attr}" if cls else f"{layer}.{attr}"


def declared(workload: str) -> list[str]:
    """The spans that must record calls on ``workload``."""
    return [span_name(layer, owner, attr)
            for layer, owner, attr, workloads in SPANS if workload in workloads]


class Tracer:
    """Records spans of the wrapped qcx functions for one process."""

    def __init__(self):
        self.job = -1
        self.spans: list[list] = []   # [name, parent id, job, start, end]
        self.leaves: dict[tuple[int, str], list] = {}  # -> [calls, s, points]
        self.stack: list[list] = []   # [span id, start, child time, peak]
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.peaks: dict[str, float] = {}
        self.results: dict[str, list] = {}  # name -> per-call hook values
        self.leaf_depth = 0
        self.installed: list[str] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn, name: str, layer: str):
        peak = name in PEAK_SPANS
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1][0] if self.stack else -1
            record = [name, parent, self.job, 0.0, 0.0]
            self.spans.append(record)
            frame = [sid, 0.0, 0.0, None]
            if peak:
                frame[3] = self._peak_enter()
            self.stack.append(frame)
            record[3] = frame[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                record[4] = end
                duration = end - frame[1]
                self.self_time[layer] += duration - frame[2]
                if self.stack:
                    self.stack[-1][2] += duration
                if peak:
                    self._peak_exit(name, frame[3])
            if hook is not None:
                self.results.setdefault(name, []).append(hook(args, result))
            return result

        return wrapper

    def _leaf(self, fn, name: str, layer: str):
        def wrapper(*args, **kwargs):
            if self.leaf_depth:
                return fn(*args, **kwargs)
            self.leaf_depth = 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.leaf_depth = 0
                self.self_time[layer] += duration
                parent = -1
                if self.stack:
                    self.stack[-1][2] += duration
                    parent = self.stack[-1][0]
                agg = self.leaves.setdefault((parent, name), [0, 0.0, 0])
                agg[0] += 1
                agg[1] += duration
            agg[2] += len(result)
            return result

        return wrapper

    # -- tracemalloc peaks ----------------------------------------------------

    def _peak_enter(self) -> list:
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        else:  # fold the peak so far into the enclosing peak spans
            self._fold(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        return [base, base, started]

    def _fold(self, peak: int):
        for frame in self.stack:
            if frame[3] is not None:
                frame[3][1] = max(frame[3][1], peak)

    def _peak_exit(self, name: str, state: list):
        base, seen, started = state
        peak = max(tracemalloc.get_traced_memory()[1], seen)
        self._fold(peak)
        mb = (peak - base) / 2 ** 20
        self.peaks[name] = max(self.peaks.get(name, 0.0), mb)
        if started:
            tracemalloc.stop()

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every declared span wherever a qcx module holds it."""
        for layer, owner, attr, _ in SPANS:
            name = span_name(layer, owner, attr)
            module_name, _, cls_name = owner.partition(":")
            module = importlib.import_module(module_name)
            target = getattr(module, cls_name) if cls_name else module
            orig = vars(target)[attr]
            make = self._leaf if name in LEAVES else self._span
            wrapped = make(orig, name, layer)
            if cls_name:
                setattr(target, attr, wrapped)
            else:
                _replace_everywhere(orig, wrapped)
            self.installed.append(name)

    # -- results --------------------------------------------------------------

    def calls(self) -> dict[str, int]:
        counts = dict.fromkeys(self.installed, 0)
        for record in self.spans:
            counts[record[0]] += 1
        for (_, name), agg in self.leaves.items():
            counts[name] += agg[0]
        return counts

    def dump(self) -> dict:
        """Spans, leaf aggregates and the per-layer metrics of the run."""
        return {"spans": self.spans,
                "leaves": [[parent, name, *agg]
                           for (parent, name), agg in self.leaves.items()],
                "calls": self.calls(),
                "metrics": self.metrics()}

    def metrics(self) -> dict[str, float]:
        total: dict[str, float] = {}
        count: dict[str, int] = {}
        for name, _, _, start, end in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            count[name] = count.get(name, 0) + 1
        parent_name = {-1: ""}
        parent_name.update((i, r[0]) for i, r in enumerate(self.spans))

        def t(name):
            return total.get(name, 0.0)

        def n(name):
            return count.get(name, 0)

        def leaf_sum(name, index, parents=None):
            return sum(agg[index] for (p, leaf), agg in self.leaves.items()
                       if leaf == name and (parents is None
                                            or parents(parent_name[p])))

        probes_in_index = sum(
            1 for r in self.spans if r[0] == "extcore.PairTable.exp_transform_ok"
            and parent_name[r[1]] == "cindex.compute_index")
        locality = "riskmeasure.check_locality"
        oracle = "riskmeasure.RiskMeasureOracle.__call__"
        loc_calls = leaf_sum(oracle, 0, lambda p: p == locality)
        loc_samples = sum(self.results.get(locality, []))
        m = {
            "extcore.table_build_s": t("extcore.PairTable.__init__"),
            "extcore.table_builds": n("extcore.PairTable.__init__"),
            "extcore.table_pairs": sum(self.results.get(
                "extcore.PairTable.__init__", [])),
            "extcore.table_peak_mb": self.peaks.get(
                "extcore.PairTable.__init__", 0.0),
            "extcore.scan_s": t("extcore.PairTable.scan"),
            "extcore.scans": n("extcore.PairTable.scan"),
            "extcore.exp_probe_s": t("extcore.PairTable.exp_transform_ok"),
            "extcore.exp_probes": n("extcore.PairTable.exp_transform_ok"),
            "extcore.eval_s": leaf_sum("extcore.FunctionSpec.__call__", 1),
            "extcore.points_evaluated": leaf_sum(
                "extcore.FunctionSpec.__call__", 2),
            "cindex.compute_index_s": t("cindex.compute_index"),
            "cindex.indices": n("cindex.compute_index"),
            "cindex.probes_per_index": (probes_in_index
                                        / max(1, n("cindex.compute_index"))),
            "cindex.smooth_check_s": t("cindex.smooth_index_1d"),
            "decomp.brute_s": t("decomp.brute_force_sum_quasiconvex"),
            "decomp.brute_peak_mb": self.peaks.get(
                "decomp.brute_force_sum_quasiconvex", 0.0),
            "decomp.sum_indices_s": t("decomp.DecomposableSum.indices"),
            **{f"riskmeasure.check_{prop}_s": t(f"riskmeasure.{fn}")
               for prop, fn in CHECKERS.items()},
            "riskmeasure.oracle_calls": leaf_sum(oracle, 0),
            "riskmeasure.oracle_s": leaf_sum(oracle, 1),
            "riskmeasure.locality_oracle_calls": loc_calls,
            "riskmeasure.locality_samples": loc_samples,
            "riskmeasure.locality_calls_per_sample": (loc_calls
                                                      / max(1, loc_samples)),
            "riskmeasure.dual_searches": n(
                "riskmeasure.separating_dual_witness"),
            "riskmeasure.dual_search_s": t(
                "riskmeasure.separating_dual_witness"),
            "l2basis.structure_build_s": sum(
                t(f"l2basis.{fn}") for fn in (
                    "build_example_10pt", "build_example_10pt_split",
                    "refined_partition_10pt")),
            **{f"l2basis.{fn}_s": t(f"l2basis.{fn}") for fn in (
                "check_basis_locality", "check_cone_self_dual",
                "check_nqc_wrt_preorder")},
            "l2basis.oracle_calls": leaf_sum(
                oracle, 0, lambda p: p.startswith("l2basis.")),
            "cli.config_s": sum(t(f"cli.{fn}") for fn in (
                "load_config", "build_function", "build_space",
                "build_partition", "build_measure")),
            "cli.render_s": t("cli.render_text") + t("cli.render_json"),
            "cli.report_bytes": sum(self.results.get("cli.render_json", [])),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.self_time[layer]
        return m


def _replace_everywhere(orig, wrapped):
    """Swap ``orig`` for ``wrapped`` in every loaded qcx module namespace."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "qcx" and not mod_name.startswith("qcx."):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is orig:
                namespace[key] = wrapped
            elif type(value) is dict:
                for k, v in value.items():
                    if v is orig:
                        value[k] = wrapped


#: Per-call values kept for a span: table pairs, claimed samples, bytes.
_HOOKS = {
    "extcore.PairTable.__init__": lambda args, result: len(args[0].a),
    "riskmeasure.check_locality": lambda args, result: result.samples,
    "cli.render_json": lambda args, result: len(result.encode()),
}
