"""Tests of the benchmark itself, on tiny jobs.

Run with ``python3 -m pytest bench -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent


def tiny_risk_job(budget: int = 20) -> dict:
    """The entropic k=4 risk-check job of seed 0 at a small budget."""
    job = next(j for j in workloads.generate("risk", 0)
               if j["name"] == "risk-entropic-k4")
    job["config"] = job["config"].replace("budget = 200", f"budget = {budget}")
    return job


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_inputs_are_deterministic_per_seed(workload):
    assert workloads.generate(workload, 5) == workloads.generate(workload, 5)
    assert workloads.generate(workload, 5) != workloads.generate(workload, 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_configs_are_inline_and_paths_absolute(workload, tmp_path):
    r = run.Run(workload, 0, tmp_path / "w")
    for job in r.jobs:
        keys = [line.split("=")[0].strip() for line in job["config"].splitlines()
                if "=" in line]
        assert "file" not in keys, job["name"]
        if job["command"] == "risk-check":
            assert {"probs", "atoms"} <= set(keys)
        config = Path(job["argv"][job["argv"].index("--config") + 1])
        assert config.is_absolute() and config.is_file()


def test_correct_pass_has_no_failures(tmp_path):
    r = run.Run("risk", 0, tmp_path / "w", jobs=[tiny_risk_job()])
    r.check(r.spawn(False))
    assert (r.attempted, r.failed) == (1, 0), r.problems


def test_wrong_expected_verdict_raises_fail_ratio(tmp_path):
    job = tiny_risk_job()
    job["expect"]["properties"]["locality"] = "fail"
    r = run.Run("risk", 0, tmp_path / "w", jobs=[job])
    r.check(r.spawn(False))
    assert (r.attempted, r.failed) == (1, 1)
    assert any("locality" in p for p in r.problems)


def test_traced_pass_reports_layers_and_matches_untraced(tmp_path):
    r = run.Run("risk", 0, tmp_path / "w", jobs=[tiny_risk_job()])
    plain = r.spawn(False)
    traced = r.spawn(True)
    r.check(plain)
    r.check(traced, reference=plain["reports"])
    assert r.failed == 0, r.problems
    calls = traced["trace"]["calls"]
    assert calls["cli.main"] == 1
    # reached through cli.PROPERTY_CHECKS and through the names cli binds
    for fn in run.spans.CHECKERS.values():
        assert calls[f"riskmeasure.{fn}"] == 1, fn
    metrics = traced["trace"]["metrics"]
    assert metrics["riskmeasure.locality_oracle_calls"] > 0
    self_total = sum(metrics[f"{layer}.self_s"] for layer in run.spans.LAYERS)
    assert 0 < self_total <= traced["raw_wall_s"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "index", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (m, run.unit_of(m)) for m in run.spans.METRICS]
