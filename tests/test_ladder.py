"""The ladder harness (``perf/ladder.py``) and its committed file.

The smallest rungs run into a temporary file, which must have the schema
of the committed ``BENCH_ladder.json``; the committed file must hold every
rung of the full ladder.
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


def rung_names(ks):
    return {f"risk.{prop}.{measure}.k{k}" for k in ks
            for measure in ladder.MEASURES for prop in ladder.CHECKERS}


def check_schema(data, ks):
    assert METADATA <= set(data["metadata"])
    assert data["metadata"]["src_qcx_lines"] > 0
    assert set(data["rungs"]) == rung_names(ks)
    for rung in data["rungs"].values():
        assert set(rung) == {"best_s", "peak_mb", "verdict"}
        assert rung["best_s"] > 0 and rung["peak_mb"] > 0
        assert rung["verdict"] in ("pass", "fail", "inconclusive")


def test_smallest_rungs_write_the_schema(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ladder, "KS", (3,))
    monkeypatch.setattr(ladder, "RUNS", 1)
    out = tmp_path / "ladder.json"
    assert ladder.main(["--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    check_schema(data, [3])
    assert data["runs"] == 1
    # the cubed mean is neither translative nor convex
    assert data["rungs"]["risk.translativity.cubed_mean.k3"]["verdict"] == "fail"
    assert data["rungs"]["risk.locality.entropic.k3"]["verdict"] == "pass"
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 18
    assert all("committed" in line for line in printed)


def test_committed_file_holds_the_full_ladder():
    data = json.loads((ROOT / "BENCH_ladder.json").read_text(encoding="utf-8"))
    check_schema(data, ladder.KS)
