"""The report-digest tool (``perf/reports.py``) on one ``risk`` seed: two
runs write the same file byte for byte, every job exits as its workload
expects, and the file is the committed
``tests/golden/risk-digests-101.json``. On the ``index`` jobs of seed 101
it must write the committed ``tests/golden/index-digests-101.json``, which
holds every index value, bracket, binding pair and probe sweep of those
jobs to the bit, and on the ``brute`` jobs
``tests/golden/brute-digests-101.json``. The three files pin every job of
seed 101."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("reports",
                                               ROOT / "perf" / "reports.py")
reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reports)


def test_two_runs_write_the_same_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(reports, "WORKLOADS", ("risk",))
    monkeypatch.setattr(reports, "SEEDS", (101,))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert reports.main([str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_bytes() == _golden("risk").read_bytes()
    jobs = json.loads(outs[0].read_text(encoding="utf-8"))["jobs"]
    expected = reports.workloads.generate("risk", 101)
    assert [job["name"] for job in jobs] == [job["name"] for job in expected]
    assert [job["exit"] for job in jobs] == [job["expect"]["exit"]
                                             for job in expected]
    assert all(job["report"] and job["stdout"] and job["csv"] is None
               for job in jobs)
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"{len(jobs)} jobs, 0 with an unexpected exit code")


def _golden(workload):
    return ROOT / "tests" / "golden" / f"{workload}-digests-101.json"


def _digests_hold(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(reports, "WORKLOADS", (workload,))
    monkeypatch.setattr(reports, "SEEDS", (101,))
    out = tmp_path / f"{workload}.json"
    assert reports.main([str(out)]) == 0
    assert out.read_bytes() == _golden(workload).read_bytes()


def test_index_digests_hold(tmp_path, monkeypatch, capsys):
    """Every ``index`` job of seed 101 writes the bytes whose digests
    ``tests/golden/index-digests-101.json`` holds: the report, the ``--csv``
    probe sweep and standard output of each index case, I and II."""
    _digests_hold("index", tmp_path, monkeypatch)


def test_brute_digests_hold(tmp_path, monkeypatch, capsys):
    """Every ``brute`` job of seed 101 writes the bytes whose digests
    ``tests/golden/brute-digests-101.json`` holds: the sum-check reports,
    with the coordinate indices and the product-grid verdicts and
    witnesses, the ``--csv`` files and standard output."""
    _digests_hold("brute", tmp_path, monkeypatch)
