"""Layered end-to-end benchmark of the qcx command line.

Usage::

    python3 bench/run.py [--workload index|brute|risk|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Each workload is a seeded list of ``qcx`` jobs (see ``workloads.py``). A
pass runs the whole list in a fresh interpreter through ``qcx.cli.main``
with ``--threads 1``, one job after another. A run repeats passes for
``--seconds`` seconds (at least three) and reports:

* ``wall_s``: the pass time at reference machine speed, import excluded.
  Each job's time is scaled by the calibration kernel timed just before it
  in the same process (``calibrate.py``); the median over passes of each
  job's scaled time is summed over the jobs;
* ``peak_rss_mb``: median peak resident memory of the pass processes;
* ``setup_s``: spawn of the interpreter until ``import qcx.cli`` returns,
  scaled by the Python kernel run right after the import; median over the
  passes and over import-only spawns made before them.

The unscaled medians are printed beside them.

Every job is checked (``verify.py``): exit code and verdicts against the
seed, index values against the smooth cross-check, witness replays, and
byte-identical reports across passes. ``fail_ratio`` is failed jobs over
attempted jobs; any failure makes the run exit 1.

With ``--trace 1`` the passes alternate untraced and traced (``spans.py``)
and the per-layer metrics of the median traced pass are reported instead. The
traced reports must equal the untraced ones byte for byte, and every span
declared for the workload must record calls.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give the run metadata and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 5
MIN_PASSES = 3
PASS_TIMEOUT_S = 120

sys.path.insert(0, str(SRC))
import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def metadata() -> dict:
    """Machine and source description, recorded but never gated."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_qcx_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                             for p in sorted((SRC / "qcx").glob("*.py"))),
    }


def git_commit() -> str:
    """HEAD of the enclosing checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """One workload at one seed: its jobs, passes and checks."""

    def __init__(self, workload: str, seed: int, work: Path,
                 jobs: list[dict] | None = None):
        self.workload = workload
        self.seed = seed
        self.jobs = jobs if jobs is not None else workloads.generate(workload,
                                                                     seed)
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_reports: list = []
        self._checked: dict = {}
        config_dir = work / "configs"
        config_dir.mkdir(parents=True)
        for job in self.jobs:
            path = config_dir / f"{job['name']}.ini"
            path.write_text(job["config"], encoding="utf-8")
            job["argv"] = [job["command"], "--config", str(path),
                           "--seed", str(job["seed"]), "--threads", "1",
                           *job["extra"]]
        self.n_passes = 0
        self.kernel = workloads.CALIBRATION[workload]

    def spawn(self, trace: bool, with_jobs: bool = True) -> dict:
        """One fresh interpreter; returns its result with ``setup_s``."""
        tag = f"p{self.n_passes}"
        self.n_passes += 1
        out_dir = self.work / tag
        out_dir.mkdir()
        argvs = [job["argv"] + ["--out", str(out_dir / f"{job['name']}.json")]
                 for job in self.jobs] if with_jobs else []
        spec = {"src": str(SRC), "trace": trace, "jobs": argvs,
                "calibration": self.kernel,
                "result": str(out_dir / "result.json")}
        spec_path = out_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        spawned = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"),
                               str(spec_path)], capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S, cwd=out_dir)
        result_path = out_dir / "result.json"
        if proc.returncode != 0 or not result_path.is_file():
            raise RuntimeError(f"pass process exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["raw_setup_s"] = result["imported"] - spawned
        result["setup_s"] = result["raw_setup_s"] * calibrate.scale(
            "python", result["setup_calibration"])
        for job in result["jobs"]:
            job["scaled_s"] = job["seconds"] * calibrate.scale(
                self.kernel, job["calibration"])
        result["raw_wall_s"] = sum(job["seconds"] for job in result["jobs"])
        result["wall_s"] = sum(job["scaled_s"] for job in result["jobs"])
        result["reports"] = [_read(out_dir / f"{job['name']}.json")
                             for job in self.jobs] if with_jobs else []
        return result

    def check(self, result: dict, reference: list | None = None):
        """Count the pass's jobs and the ones that fail any check."""
        import verify  # imports qcx, which main() has checked is present
        if not self.first_reports:
            self.first_reports = result["reports"]
        reference = reference or self.first_reports
        for i, job in enumerate(self.jobs):
            outcome = result["jobs"][i]
            text = result["reports"][i]
            key = (i, outcome["code"], outcome["error"], text)
            if key not in self._checked:
                self._checked[key] = verify.check_job(
                    job, outcome["code"], outcome["error"], text)
            problems = list(self._checked[key])
            if text != reference[i]:
                problems.append("report differs from another pass "
                                "with the same seed")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{job['name']}: {p}" for p in problems]


def _read(path: Path):
    return path.read_text(encoding="utf-8") if path.is_file() else None


def measure(run: Run, seconds: float, trace: bool) -> dict:
    """Repeat passes for ``seconds``; returns the metrics of the run.

    ``wall_s`` sums, over the jobs, each job's median reference-speed time
    across passes, so a burst of contention in one pass moves one sample of
    each job it hits rather than the whole pass.
    """
    start = time.perf_counter()
    setups = [run.spawn(False, with_jobs=False) for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        began = time.perf_counter()
        result = run.spawn(False)
        run.check(result)
        plain.append(result)
        if trace:
            t = run.spawn(True)
            run.check(t, reference=result["reports"])
            traced.append(t)
        now = time.perf_counter()
        enough = trace or len(plain) >= MIN_PASSES
        if enough and (now - start) + (now - began) > seconds:
            break
    setups += plain
    out = {
        "wall_s": sum(median([r["jobs"][j]["scaled_s"] for r in plain])
                      for j in range(len(run.jobs))),
        "raw_wall_s": median([r["raw_wall_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "setup_s": median([r["setup_s"] for r in setups]),
        "raw_setup_s": median([r["raw_setup_s"] for r in setups]),
        "passes": len(plain),
    }
    if trace:
        out.update(layer_metrics(run, plain, traced))
    return out


def layer_metrics(run: Run, plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics of the median traced pass (by wall time).

    Taking every number from one pass keeps them additive: the layers'
    ``self_s`` plus ``trace.remainder_s`` equal its ``trace.wall_s``.
    """
    middle = sorted(traced, key=lambda t: t["raw_wall_s"])[(len(traced) - 1) // 2]
    calls = middle["trace"]["calls"]
    for name in spans.declared(run.workload):
        if calls[name] == 0:
            run.failed += 1
            run.problems.append(f"span {name} recorded no calls")
    out = dict(middle["trace"]["metrics"])
    out["trace.wall_s"] = middle["raw_wall_s"]
    # what no layer span covers: the job loop's own work around cli.main
    out["trace.remainder_s"] = middle["raw_wall_s"] - sum(
        out[f"{layer}.self_s"] for layer in spans.LAYERS)
    out["trace.overhead_ratio"] = (median([t["wall_s"] for t in traced])
                                   / median([r["wall_s"] for r in plain]) - 1)
    WORK.mkdir(exist_ok=True)
    trace_file = WORK / f"trace-{run.workload}-seed{run.seed}.json"
    trace_file.write_text(json.dumps(
        {"jobs": [j["name"] for j in run.jobs], **middle["trace"]}),
        encoding="utf-8")
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    return out


def unit_of(metric: str) -> str:
    base = metric.rsplit(".", 1)[-1]
    if base.endswith("_mb"):
        return "MB"
    if base.endswith("_s"):
        return "s"
    if base == "report_bytes":
        return "bytes"
    if base.endswith(("_ratio", "_per_index", "_per_sample")):
        return "ratio"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(workload, seed, work)
        metrics = measure(run, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qcx" / "cli.py").is_file():
        print(f"bench: no qcx sources under {SRC}", file=sys.stderr)
        return 2
    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    print("meta " + json.dumps(metadata(), sort_keys=True))
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        run, values = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace))
        attempted += run.attempted
        failed += run.failed
        for problem in dict.fromkeys(run.problems):
            print(f"FAIL {name} {problem}")
        prefix = "" if len(names) == 1 else f"{name}."
        if args.trace:
            wanted = [(m, unit_of(m)) for m in spans.METRICS]
        else:
            wanted = END_TO_END
        print(f"{name}: fail_ratio {run.failed / max(1, run.attempted):.4f} "
              f"({run.failed}/{run.attempted} jobs)")
        print(f"{name}: {values['passes']} passes; unscaled medians: "
              f"wall {values['raw_wall_s']:.4f} s, "
              f"setup {values['raw_setup_s']:.4f} s")
        for metric, unit in wanted:
            metrics[prefix + metric] = {"value": values[metric], "unit": unit}
            print(f"{name}: {metric} {values[metric]:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
