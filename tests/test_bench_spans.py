"""The traced benchmark's span declarations against the qcx they wrap.

``bench/spans.py`` finds each declared ``(owner, attr)`` with ``vars()``
and replaces it, and its ``PairTable.__init__`` hook reads the pair count
as ``len(table.a)``. A rename or a moved method in qcx breaks the traced
bench only when it runs, so the names are checked here, and one traced pass
per workload checks that every declared span is still called.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from qcx.extcore import BoxDomain, FunctionSpec, PairTable

from test_scan_oracle import _pair_arrays

_SPEC = importlib.util.spec_from_file_location(
    "spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


def test_declared_spans_resolve():
    for _, owner, attr, _ in spans.SPANS:
        module_name, _, cls_name = owner.partition(":")
        target = importlib.import_module(module_name)
        if cls_name:
            target = getattr(target, cls_name)
        assert callable(vars(target).get(attr)), (owner, attr)


def test_table_hook_counts_the_pairs():
    f = FunctionSpec(2, lambda p: p[:, 0] ** 2 + p[:, 1] ** 2)
    box = BoxDomain.of((1.0, 1.0), (4.0, 2.0), (5, 4))
    table = PairTable(f, box)
    hook = spans._HOOKS["extcore.PairTable.__init__"]
    want = len(_pair_arrays(box)[0])
    assert hook((table, f, box), None) == want
    assert sum(stop - start for start, stop in table.blocks) == want


def test_every_declared_span_is_called(tmp_path, monkeypatch):
    """One traced pass per workload records calls on every span declared
    for it: the whole ``risk`` list, a case-II smooth ``index`` job and a
    refuted ``brute`` job, all of seed 0."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    # ``run`` imports its siblings as top-level modules; drop them afterwards
    for name in ("run", "calibrate", "spans", "workloads"):
        monkeypatch.setitem(sys.modules, name, None)
        monkeypatch.delitem(sys.modules, name)
    run = importlib.import_module("run")
    picked = {"risk": None, "index": "index-neglog", "brute": "sum2-nqc"}
    for workload, name in picked.items():
        jobs = run.workloads.generate(workload, 0)
        if name is not None:
            jobs = [job for job in jobs if job["name"] == name]
        result = run.Run(workload, 0, tmp_path / workload,
                         jobs=jobs).spawn(True)
        assert all(job["code"] is not None for job in result["jobs"])
        calls = result["trace"]["calls"]
        missing = [span for span in run.spans.declared(workload)
                   if not calls.get(span)]
        assert not missing, (workload, missing)
