"""Digests of every report the benchmark workloads write, to compare two
checkouts byte for byte.

Usage: ``python3 perf/reports.py OUT.json``

Every job of the ``index``, ``brute`` and ``risk`` workloads of
``bench/workloads.py`` at seeds 101-110 (240 jobs) runs in this process
through ``qcx.cli.main``, with the command line the benchmark gives it and
``--csv`` added to the ``index`` and ``sum-check`` jobs. ``OUT.json`` holds,
per job, the exit code and the SHA-256 of the JSON report, of the CSV file
and of standard output, and nothing that depends on the machine, the time
or the directory, so two checkouts whose reports agree write the same file::

    python3 perf/reports.py ../parent.json    # in one checkout
    python3 perf/reports.py ../change.json    # in a sibling checkout
    cmp ../parent.json ../change.json

The script prints the job count and every job whose exit code is not the
one its workload expects, and exits 1 if there is such a job.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
import workloads  # noqa: E402

import qcx.cli  # noqa: E402

SEEDS = range(101, 111)
WORKLOADS = workloads.WORKLOADS
#: The commands that write a ``--csv`` file.
CSV_COMMANDS = ("index", "sum-check")


def _digest(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def run_job(job: dict, work: Path) -> dict:
    """One job in this process: its exit code and output digests."""
    config, out, csv = (work / f"{job['name']}{ext}"
                        for ext in (".ini", ".json", ".csv"))
    config.write_text(job["config"], encoding="utf-8")
    argv = [job["command"], "--config", str(config), "--seed", str(job["seed"]),
            "--threads", "1", *job["extra"], "--out", str(out)]
    if job["command"] in CSV_COMMANDS:
        argv += ["--csv", str(csv)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = qcx.cli.main(argv)
        except SystemExit as e:
            code = e.code
    return {"name": job["name"], "exit": code, "report": _digest(out),
            "csv": _digest(csv),
            "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}


def digests() -> list[dict]:
    """Every job of ``WORKLOADS`` at ``SEEDS``, in order, with its workload,
    seed and expected exit code."""
    result = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as work:
                for job in workloads.generate(workload, seed):
                    result.append({"workload": workload, "seed": seed,
                                   "expect_exit": job["expect"]["exit"],
                                   **run_job(job, Path(work))})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    jobs = digests()
    args.out.write_text(json.dumps({"jobs": jobs}, indent=1) + "\n",
                        encoding="utf-8")
    wrong = [job for job in jobs if job["exit"] != job["expect_exit"]]
    print(f"{len(jobs)} jobs, {len(wrong)} with an unexpected exit code")
    for job in wrong:
        print(f"  {job['workload']} seed {job['seed']} {job['name']}: "
              f"exit {job['exit']}, expected {job['expect_exit']}")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
