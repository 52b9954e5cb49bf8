"""Committed JSON reports that every later change must reproduce byte for byte.

``risk-check`` runs all nine properties on the four benchmark measures at
k = 4 atoms of three outcomes each with a budget of 40, and ``l2-demo``
runs on its three fixture and measure pairs. The reports under
``tests/golden`` were written by the implementation that evaluated one
oracle call per position, so batching work is held to byte identity here
without running the benchmark. To write them anew (only when a report is
meant to change)::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import sys
from pathlib import Path

import pytest

from qcx.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 11

PROBS = "0.05 0.1 0.07 0.08 0.1 0.06 0.09 0.11 0.04 0.12 0.1 0.08"

RISK = """\
[space]
probs = {probs}

[partition]
atoms = 1-3; 4-6; 7-9; 10-12

[measure m]
kind = {kind}

[risk-check]
measure = m
budget = 40
properties = monotonicity translativity locality convexity quasiconvexity nqc star sensitivity assumption
"""

L2 = """\
[l2-demo]
fixture = {fixture}
measure = {kind}
budget = 40
samples = 60
"""

JOBS = {
    **{f"risk-check-{kind}": ("risk-check", RISK.format(probs=PROBS, kind=kind))
       for kind in ("entropic", "cubed_mean", "sqrt_log", "mean_broadcast")},
    **{f"l2-demo-{fixture}-{kind}": ("l2-demo",
                                     L2.format(fixture=fixture, kind=kind))
       for fixture, kind in (("paper10pt", "entropic"),
                             ("paper10pt", "sqrt_log"),
                             ("paper10pt-split", "coarse_cond_exp"))},
}


def run_job(name: str, workdir: Path) -> tuple[int, bytes]:
    """The exit code and JSON report of one job, run in ``workdir``."""
    command, config = JOBS[name]
    cfg = workdir / f"{name}.ini"
    cfg.write_text(config, encoding="utf-8")
    out = workdir / f"{name}.json"
    code = main([command, "--config", str(cfg), "--out", str(out),
                 "--seed", str(SEED)])
    return code, out.read_bytes()


@pytest.mark.parametrize("name", sorted(JOBS))
def test_report_is_byte_identical(tmp_path, name):
    code, report = run_job(name, tmp_path)
    assert report == (GOLDEN / f"{name}.json").read_bytes()
    codes = dict(line.split() for line in
                 (GOLDEN / "exit_codes.txt").read_text().splitlines())
    assert code == int(codes[name])


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(JOBS):
            code, report = run_job(name, Path(tmp))
            (GOLDEN / f"{name}.json").write_bytes(report)
            codes.append(f"{name} {code}\n")
    (GOLDEN / "exit_codes.txt").write_text("".join(codes))
    sys.exit(0)
