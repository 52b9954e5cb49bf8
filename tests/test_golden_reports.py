"""Committed JSON reports that every later change must reproduce byte for byte.

``risk-check`` runs all nine properties on the four benchmark measures at
k = 4 atoms of three outcomes each with a budget of 40, ``l2-demo`` runs
on its three fixture and measure pairs, and ``sum-check`` runs the
product-grid brute-force oracle on the certified and the refuted
two-factor sum and on a three-factor sum. ``index`` runs on a case-I
function (``sqrt``) and a case-II function (``neglog``), and its ``--csv``
probe sweep is held next to its report. The risk and l2 reports under
``tests/golden`` were written by the implementation that evaluated one
oracle call per position, the sum-check reports by the one that evaluated
the sum at every mix of the product grid, and the index reports and sweeps
by the one whose pair table and ``compute_index`` still took the
interpolation weights as a parameter, so batching, lookups and fixed
constants are held to byte identity here without running the benchmark.
The exceptions were each rewritten once. The nqc ``separating_margin``
of the cubed-mean and sqrt-log reports moved by at most 2.1e-16 relative
when the dual candidates' values moved from matrix products to closed
form. When the L2 basis became one matrix with a row-wise coordinate
kernel, the split fixture's ``basis_locality`` ``samples`` went from 80 to
60 (a round of four e-vector comparisons no longer overruns the budget of
60), its ``orthonormality_residual`` moved by 8.3e-18 absolute, and the
sqrt-log report's nqc-wrt-preorder ``e_x`` and certificate ``mu_upper``
moved by at most 5.9e-15 relative; the entropic l2 report did not move.
When the cone self-duality check became an exact decision on the e-Gram
matrix, the two ``paper10pt`` reports' ``cone_self_dual`` ``samples`` went
from 80 sampled tests to 18, the entries of ``G`` and ``inv(G)``.
When the index became the extremum of canonical per-pair crossings on an
``expm1`` excess, the two index reports and sweeps and the three sum-check
reports moved in their index values (by at most 1.3e-8 relative), the
margins made from them (5.7e-8) and the binding ``violation`` (8.9e-5);
no binding pair, case, decision, rule or witness moved.
When the index solve became one stream with no whole-table probe, each
index sweep lost its lower-end row, which that probe had made; no report
moved.
To write them anew (only when a report is meant to change)::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import sys
from pathlib import Path
from typing import Optional

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

SUM_FUNCTION = """\
[function {name}]
family = {family}
weight = {weight}
domain = {domain}
grid = 33
"""

SUM_CHECK = """\
[sum-check]
functions = {names}
pair_budget = 2500000
brute_grid = {grid}
"""


def sum_check(coords, grid: str) -> tuple[str, str]:
    """A ``sum-check`` job over ``(name, family, weight, domain)`` coordinates."""
    sections = [SUM_FUNCTION.format(name=n, family=f, weight=w, domain=d)
                for n, f, w, d in coords]
    names = " ".join(c[0] for c in coords)
    return "sum-check", "\n".join(
        sections + [SUM_CHECK.format(names=names, grid=grid)])


SQRT = ("s", "sqrt", 1.0, "1 4")
NEGLOG_DOMAIN = "1 2.718281828459045"

INDEX = """\
[function f]
family = {family}
weight = {weight}
domain = {domain}
grid = 257

[index]
function = f
tol = 1e-4
"""

#: Commands that also write a ``--csv`` file, held as ``NAME.csv``.
CSV_COMMANDS = ("index",)

JOBS = {
    **{f"risk-check-{kind}": ("risk-check", RISK.format(probs=PROBS, kind=kind))
       for kind in ("entropic", "cubed_mean", "sqrt_log", "mean_broadcast")},
    **{f"l2-demo-{fixture}-{kind}": ("l2-demo",
                                     L2.format(fixture=fixture, kind=kind))
       for fixture, kind in (("paper10pt", "entropic"),
                             ("paper10pt", "sqrt_log"),
                             ("paper10pt-split", "coarse_cond_exp"))},
    "index-sqrt-case-i": ("index", INDEX.format(
        family="sqrt", weight=1.0, domain="1 4")),
    "index-neglog-case-ii": ("index", INDEX.format(
        family="neglog", weight=0.5, domain=NEGLOG_DOMAIN)),
    "sum-check-sqrt-neglog-certified": sum_check(
        [SQRT, ("l", "neglog", 0.7, NEGLOG_DOMAIN)], "41 41"),
    "sum-check-sqrt-neglog-refuted": sum_check(
        [SQRT, ("l", "neglog", 1.6, NEGLOG_DOMAIN)], "41 41"),
    "sum-check-sqrt-neglog-square": sum_check(
        [SQRT, ("l", "neglog", 1.2, NEGLOG_DOMAIN),
         ("q", "square", 1.0, "1 2")], "13 13 13"),
}


def run_job(name: str, workdir: Path) -> tuple[int, bytes, Optional[bytes]]:
    """The exit code, JSON report and CSV file (``None`` for a command
    without one) of one job, run in ``workdir``."""
    command, config = JOBS[name]
    cfg = workdir / f"{name}.ini"
    cfg.write_text(config, encoding="utf-8")
    out = workdir / f"{name}.json"
    csv = workdir / f"{name}.csv"
    extra = ["--csv", str(csv)] if command in CSV_COMMANDS else []
    brute = ["--brute"] if command == "sum-check" else []
    code = main([command, "--config", str(cfg), "--out", str(out),
                 "--seed", str(SEED), *brute, *extra])
    return code, out.read_bytes(), csv.read_bytes() if extra else None


@pytest.mark.parametrize("name", sorted(JOBS))
def test_report_is_byte_identical(tmp_path, name):
    code, report, csv = run_job(name, tmp_path)
    assert report == (GOLDEN / f"{name}.json").read_bytes()
    if csv is not None:
        assert csv == (GOLDEN / f"{name}.csv").read_bytes()
    codes = dict(line.split() for line in
                 (GOLDEN / "exit_codes.txt").read_text().splitlines())
    assert code == int(codes[name])


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(JOBS):
            code, report, csv = run_job(name, Path(tmp))
            (GOLDEN / f"{name}.json").write_bytes(report)
            if csv is not None:
                (GOLDEN / f"{name}.csv").write_bytes(csv)
            codes.append(f"{name} {code}\n")
    (GOLDEN / "exit_codes.txt").write_text("".join(codes))
    sys.exit(0)
