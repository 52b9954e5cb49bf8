"""Run one pass of benchmark jobs in a fresh interpreter.

Usage: ``python3 bench/child.py SPEC.json``. The spec names the source
directory, the jobs (CLI argument lists), the calibration kernel and where
to write the result. Jobs run one after another through ``qcx.cli.main``
in this process, a single closed-loop client. The moment ``import
qcx.cli`` returns is stamped on the system-wide monotonic clock, so the
parent can time interpreter set-up from the spawn. A calibration kernel
runs once after the import and once before each job, outside the timings.
"""

import sys
import time

with open(sys.argv[1], encoding="utf-8") as _fh:
    _SPEC_TEXT = _fh.read()
import json  # noqa: E402

SPEC = json.loads(_SPEC_TEXT)
sys.path.insert(0, SPEC["src"])
import qcx.cli  # noqa: E402

IMPORTED = time.perf_counter()

import io  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import calibrate  # noqa: E402  (next to this script, so on sys.path)


def run_job(argv: list[str]) -> dict:
    saved = sys.stdout
    sys.stdout = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        code = qcx.cli.main(argv)
    except SystemExit as e:
        code = e.code
    except Exception:  # a raising job is a failed job, not a failed pass
        code = None
        error = traceback.format_exc(limit=4)
    finally:
        end = time.perf_counter()
        sys.stdout = saved
    return {"code": code, "error": error, "seconds": end - start}


def main() -> int:
    setup_calibration = calibrate.python_kernel()
    kernel = calibrate.KERNELS[SPEC["calibration"]]
    tracer = None
    if SPEC["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    results = []
    for i, argv in enumerate(SPEC["jobs"]):
        if tracer is not None:
            tracer.job = i
        calibration = kernel()
        results.append({**run_job(argv), "calibration": calibration})
    out = {
        "imported": IMPORTED,
        "setup_calibration": setup_calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
    }
    if tracer is not None:
        out["trace"] = tracer.dump()
    with open(SPEC["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
