"""The layer ladder: each risk-measure property check timed over the atom
count ``k``, the convexity index, its pair table, gap scan and transform
probe and the brute-force sum oracle over the grid size, and the L2 checks
on their fixtures, written to ``BENCH_ladder.json``.

Usage: ``python3 perf/ladder.py [--out PATH]``

A risk rung is one of the nine checks of ``qcx risk-check`` on one measure
(entropic or cubed mean) at one ``k``: a uniform space of ``n = 3k``
outcomes in atoms of three, budget and triples 200, seed 0. The measure is
built outside the timing, and the call is ``cli.check_property``, the one
``qcx risk-check`` makes. A triple check's call draws its triples and reads
their table. An index rung is ``compute_index`` of ``sqrt`` on [1, 4] (case
I), ``neglog`` on [1, e] (case II), ``square`` on [1, 2] (case II, index
1/8 at the right end, whose solve bursts most), ``log`` on [1, e] (case
I, where every pair crosses at lambda = -1, so the crossings of the
tolerance all but tie) or ``late_concave`` on [0, 1] at ``m`` grid
points, the table build included, or of the 2-D ``neglog2``, ``-log x -
log y`` on [1, e]^2 (case II, index 1/2 by the harmonic rule), at ``m^2``
points. ``late_concave`` is case I, but its
entry scan first sees a gap above tolerance 40-60% of the way through the
blocks, where the index's solve stream restarts from case II at case I
and re-reads the blocks already passed once the scan ends. ``sqrt`` and
``log`` switch in their first block. The layers of an index rung have
rungs of their own, for the same five functions and ``m``: ``table`` is
the ``PairTable(f, box)`` build (outcome: the pair count), ``scan`` one
``PairTable.scan("convex", tol)`` at the default tolerance with no fold
(outcome: the worst gap) and ``probe`` one ``exp_transform_ok`` at the
index value, which passes, so it reads the whole table (outcome: true);
the latter two read a table built outside the timing. A brute rung is
``brute_force_sum_quasiconvex`` of ``sqrt + 0.5 neglog`` (certified) on
``m^2`` points or of ``sqrt + neglog + square`` (refuted) on ``m^3``
points, the sums of the ``brute`` bench jobs; an L2 rung is one check of
``qcx l2-demo`` on the fixture and measure of ``cli.build_l2``, budget 500
(``basis_locality``, entropic
on ``paper10pt``, the coarse conditional expectation on
``paper10pt-split``), triples 200 (``nqc_wrt_preorder``, entropic), seed
0, or ``cone_self_dual`` on ``paper10pt``. A rung's ``best_s`` is the best
of ``RUNS`` calls, one per pass over all rungs, its ``faults`` the minor
page faults of one untimed, untraced call in a child process that has run
no other rung (:func:`faults`), which count the allocator's fresh pages
that ``tracemalloc`` cannot see, and its ``peak_mb`` the ``tracemalloc``
peak of one more call, made apart so that tracing slows no timed call;
``outcome`` is that call's verdict, or its index value. The
file records the commit, the cores,
Python, numpy and the line count of ``src/qcx`` through ``metadata()`` of
``bench/run.py``. Each rung's time is printed with its ratio to the same
rung of the committed ``BENCH_ladder.json``, with ``outcome changed
(committed: X)`` beside a rung whose outcome is not the committed one;
nothing gates on seconds or outcomes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from run import metadata  # noqa: E402  (puts src/ on the path too)

from qcx import cli, families, l2basis, riskmeasure  # noqa: E402
from qcx.cindex import compute_index  # noqa: E402
from qcx.decomp import DecomposableSum, brute_force_sum_quasiconvex  # noqa: E402
from qcx.extcore import (BoxDomain, FunctionSpec, PairTable,  # noqa: E402
                         default_gap_tol)
from qcx.spaces import FiniteProbSpace, PartitionSigma  # noqa: E402

COMMITTED = ROOT / "BENCH_ladder.json"
KS = (3, 6, 10, 14, 40)
POINTS = (257, 513, 1025, 2049)
#: Points per axis of the 2-D index and the two-factor brute rungs.
POINTS_2D = (21, 31, 41)
#: Points per axis of the three-factor brute rungs.
POINTS_3D = (9, 11, 13)


def late_concave() -> FunctionSpec:
    """Increasing, convex up to 0.95 and concave beyond."""
    return FunctionSpec(1, lambda p: p[:, 0] ** 2 / 2 + p[:, 0]
                        - 10 * np.maximum(p[:, 0] - 0.95, 0.0) ** 2,
                        name="late_concave")


def log() -> FunctionSpec:
    """``log x``: concave, and ``x^t`` is concave exactly for ``0 < t < 1``."""
    return FunctionSpec(1, lambda p: np.log(p[:, 0]), name="log")


def neglog2() -> FunctionSpec:
    """``-log x - log y``, the sum of two ``neglog`` coordinates."""
    return FunctionSpec(2, lambda p: -np.log(p[:, 0]) - np.log(p[:, 1]),
                        name="neglog2")


INDEX_FUNCTIONS = {"sqrt": (families.sqrt, 1.0, 4.0),
                   "neglog": (families.neglog, 1.0, math.e),
                   "square": (families.square, 1.0, 2.0),
                   "log": (log, 1.0, math.e),
                   "late_concave": (late_concave, 0.0, 1.0)}
RUNS = 10
BUDGET = 200
MEASURES = ("entropic", "cubed_mean")  # as ``[measure] kind`` names them


def check_call(prop: str, rho):
    """The call of one rung, seed 0 and the default tolerance; it returns
    the verdict."""
    def call():
        triples = (riskmeasure.sample_triples(rho.space, 0, BUDGET)
                   if prop in cli.TRIPLE_PROPERTIES else None)
        return cli.check_property(
            prop, rho, triples, BUDGET, riskmeasure.DEFAULT_CHECK_TOL,
            0).verdict.value
    return call


def risk_calls(k: int) -> dict:
    """The risk rungs' calls at ``k`` atoms of three outcomes each."""
    space = FiniteProbSpace.uniform(3 * k)
    sigma = PartitionSigma.of(*(range(3 * a, 3 * a + 3) for a in range(k)))
    rhos = {measure: cli.PLAIN_MEASURES[measure](sigma, space)
            for measure in MEASURES}
    return {f"risk.{prop}.{measure}.k{k}": check_call(prop, rho)
            for measure, rho in rhos.items() for prop in cli.PROPERTY_CHECKS}


def index_call(name: str, m: int):
    """The call of one index rung; it returns the index value."""
    if name == "neglog2":
        f, box = neglog2(), BoxDomain.of((1.0, 1.0), (math.e, math.e), (m, m))
    else:
        make, lo, hi = INDEX_FUNCTIONS[name]
        f, box = make(), BoxDomain.of(lo, hi, m)
    return lambda: compute_index(f, box).value


def layer_calls(name: str, m: int) -> dict:
    """The table, scan and probe rungs of one 1-D index function; the
    probe's ``lam`` is the index value, the lower end of its bracket."""
    make, lo, hi = INDEX_FUNCTIONS[name]
    f, box = make(), BoxDomain.of(lo, hi, m)
    table, lam = PairTable(f, box), compute_index(f, box).value
    tol = default_gap_tol(f)
    return {f"table.{name}.m{m}": lambda: PairTable(f, box).blocks[-1][1],
            f"scan.{name}.m{m}": lambda: table.scan("convex", tol)[0],
            f"probe.{name}.m{m}": lambda: table.exp_transform_ok(lam)}


#: The brute-force sums: per coordinate, family, weight and domain.
BRUTE_SUMS = {"sqrt_neglog": (("sqrt", 1.0, (1.0, 4.0)),
                              ("neglog", 0.5, (1.0, math.e))),
              "sqrt_neglog_square": (("sqrt", 1.0, (1.0, 4.0)),
                                     ("neglog", 1.0, (1.0, math.e)),
                                     ("square", 1.0, (1.0, 2.0)))}


def brute_call(name: str, m: int):
    """The call of one brute rung, ``m`` points per axis; it returns the
    verdict."""
    dsum = DecomposableSum(tuple(
        (families.make_function(family, weight=w), BoxDomain.of(lo, hi, m))
        for family, w, (lo, hi) in BRUTE_SUMS[name]))
    return lambda: brute_force_sum_quasiconvex(
        dsum, pair_budget=10 ** 7).verdict.value


def l2_calls() -> dict:
    """The L2 rungs' calls, as ``qcx l2-demo`` makes the checks, seed 0;
    each returns the verdict."""
    block, entropic = cli.build_l2("paper10pt", "entropic")
    split, coarse = cli.build_l2("paper10pt-split", "coarse_cond_exp")

    def nqc():
        rng = np.random.default_rng(0)
        triples = riskmeasure.sample_triples(block.space, rng, BUDGET)
        return l2basis.check_nqc_wrt_preorder(entropic, block, triples=triples,
                                              rng=rng).verdict.value

    return {
        "l2.basis_locality.paper10pt": lambda: l2basis.check_basis_locality(
            entropic, block, budget=500, rng=0).verdict.value,
        "l2.basis_locality.paper10pt-split": lambda: l2basis.check_basis_locality(
            coarse, split, budget=500, rng=0).verdict.value,
        "l2.cone_self_dual.paper10pt":
            lambda: l2basis.check_cone_self_dual(block).verdict.value,
        "l2.nqc_wrt_preorder.paper10pt": nqc,
    }


def faults(call) -> int:
    """The minor page faults (``ru_minflt``) of one call, made in a child
    forked before any rung ran here, after a warm-up call there, so that
    the child's allocator has seen this rung only: in this process a large
    block freed by an earlier rung raises glibc's mmap and trim thresholds,
    which hides the churn of the later rungs."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child writes the count, or nothing if a call fails
        try:
            call()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            call()
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            os.write(write, str(after - before).encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        count = pipe.read()
    os.waitpid(pid, 0)
    return int(count)


def traced(call) -> dict:
    """The ``tracemalloc`` peak of one call, in MB, and its outcome."""
    tracemalloc.start()
    try:
        outcome = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"peak_mb": peak / 2 ** 20, "outcome": outcome}


def rungs(ks, points, points_2d, points_3d, runs: int) -> dict:
    """Every rung, timed in ``runs`` passes over all rungs, so that a
    drift of the host's speed reaches every rung alike."""
    calls = {}
    for k in ks:
        calls.update(risk_calls(k))
    for m in points:
        for name in INDEX_FUNCTIONS:
            calls[f"index.{name}.m{m}"] = index_call(name, m)
            calls.update(layer_calls(name, m))
    for m in points_2d:
        calls[f"index.neglog2.m{m}"] = index_call("neglog2", m)
        calls[f"brute.sqrt_neglog.m{m}"] = brute_call("sqrt_neglog", m)
    for m in points_3d:
        calls[f"brute.sqrt_neglog_square.m{m}"] = brute_call(
            "sqrt_neglog_square", m)
    calls.update(l2_calls())
    fresh = {name: faults(call) for name, call in calls.items()}
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(runs):
        for name, call in calls.items():
            start = time.perf_counter()
            call()
            best[name] = min(best[name], time.perf_counter() - start)
    return {name: {"best_s": best[name], "faults": fresh[name], **traced(call)}
            for name, call in calls.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=COMMITTED)
    args = parser.parse_args(argv)
    before = (json.loads(COMMITTED.read_text(encoding="utf-8"))["rungs"]
              if COMMITTED.is_file() else {})
    result = {"metadata": metadata(), "runs": RUNS,
              "rungs": rungs(KS, POINTS, POINTS_2D, POINTS_3D, RUNS)}
    for name, rung in result["rungs"].items():
        old = before.get(name)
        ratio = (f"{rung['best_s'] / old['best_s']:6.3f}x committed"
                 if old else "   new")
        if old and old["outcome"] != rung["outcome"]:
            ratio += f"  outcome changed (committed: {old['outcome']})"
        print(f"{name:36s} {rung['best_s'] * 1e3:9.3f} ms "
              f"{rung['peak_mb']:7.3f} MB {rung['faults']:6d} faults  {ratio}")
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
