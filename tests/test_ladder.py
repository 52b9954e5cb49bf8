"""The ladder harness (``perf/ladder.py``) and its committed file.

The smallest rungs (k = 3, 257 grid points) run into a temporary file,
which must have the schema of the committed ``BENCH_ladder.json``; the
committed file must hold every rung of the full ladder.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("ladder",
                                               ROOT / "perf" / "ladder.py")
ladder = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ladder)

METADATA = {"nproc", "python", "numpy", "commit", "src_qcx_lines"}


def rung_names(ks, points):
    return ({f"risk.{prop}.{measure}.k{k}" for k in ks
             for measure in ladder.MEASURES for prop in ladder.CHECKERS}
            | {f"index.{name}.m{m}" for m in points
               for name in ladder.INDEX_FUNCTIONS})


def check_schema(data, ks, points):
    assert METADATA <= set(data["metadata"])
    assert data["metadata"]["src_qcx_lines"] > 0
    assert set(data["rungs"]) == rung_names(ks, points)
    for name, rung in data["rungs"].items():
        assert set(rung) == {"best_s", "peak_mb", "outcome"}
        assert rung["best_s"] > 0 and rung["peak_mb"] > 0
        if name.startswith("risk."):
            assert rung["outcome"] in ("pass", "fail", "inconclusive")
        elif name.startswith("index.late_concave."):  # f''/f'^2 = -19 at 1
            assert abs(rung["outcome"] + 19.0) < 1e-2
        elif name.startswith("index.square."):  # f''/f'^2 = 1/8 at 2
            assert abs(rung["outcome"] - 0.125) < 1e-3
        else:  # sqrt and log are case I, neglog case II, indices near -1, 1
            assert abs(abs(rung["outcome"]) - 1.0) < 1e-3


def test_smallest_rungs_write_the_schema(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ladder, "KS", (3,))
    monkeypatch.setattr(ladder, "POINTS", (257,))
    monkeypatch.setattr(ladder, "RUNS", 1)
    out = tmp_path / "ladder.json"
    assert ladder.main(["--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    check_schema(data, [3], [257])
    assert data["rungs"]["index.sqrt.m257"]["outcome"] < 0
    assert data["rungs"]["index.log.m257"]["outcome"] < 0
    assert data["runs"] == 1
    # the cubed mean is neither translative nor convex
    assert data["rungs"]["risk.translativity.cubed_mean.k3"]["outcome"] == "fail"
    assert data["rungs"]["risk.locality.entropic.k3"]["outcome"] == "pass"
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 23
    assert all("committed" in line for line in printed)


def test_committed_file_holds_the_full_ladder():
    data = json.loads((ROOT / "BENCH_ladder.json").read_text(encoding="utf-8"))
    check_schema(data, ladder.KS, ladder.POINTS)
