"""Seeded job lists for the three benchmark workloads.

A job is one ``qcx`` command line plus the INI config it reads and the
outcome the verifier expects. The workload seed fixes the function weights,
the outcome probabilities and the CLI ``--seed``; the program only ever sees
the generated configs. Configs declare spaces and partitions inline, and the
config path handed to the CLI is absolute, so nothing depends on the
directory the jobs run in.

Why these workloads (later issues refer to them by name):

* ``index`` is probe-heavy: each ``qcx index`` job builds one pair table and
  scans it ~28 times during the bisection. Grids of 257 to 1025 points keep
  the largest table (~48 MB) inside a large L3 cache.
* ``brute`` is build-heavy: each ``qcx sum-check --brute`` job builds one
  product-grid table of 1.4 to 2.4 M pairs (146 to 290 MB) and scans it once.
  The two-factor sums take the certify and the refute path.
* ``risk`` is Python-overhead work on small vectors: ``qcx risk-check`` on
  four measures at k = 4, 8, 10 atoms (locality enumerates 2^k - 1 unions),
  plus three ``qcx l2-demo`` jobs on the ten-point block fixtures.

``index`` and ``brute`` use the same ``extcore`` pair table in opposite ways
(one cached table rescanned, one huge table scanned once), so a change to
the table shows its trade-off between them; ``risk`` bypasses ``extcore``
entirely and should not move with it.
"""

from __future__ import annotations

import math
import random

E = math.e
WORKLOADS = ("index", "brute", "risk")

#: Calibration kernel (see ``calibrate.py``) whose slowdown each workload's
#: jobs track: NumPy array passes for the grid workloads, interpreted Python
#: for the small-vector risk checks.
CALIBRATION = {"index": "numpy", "brute": "numpy", "risk": "python"}

#: The nine properties of ``qcx risk-check``, in report order.
PROPERTIES = ("monotonicity", "translativity", "locality", "convexity",
              "quasiconvexity", "nqc", "star", "sensitivity", "assumption")

#: Expected property verdicts per measure, read off the measure docstrings
#: and claims in ``qcx.riskmeasure``: entropic is monotone, translative, local
#: and convex; the cubed mean is monotone, local and quasiconvex but neither
#: convex nor translative; sqrt-log is local and quasiconvex only, and not
#: normalized (so sensitivity is inconclusive); mean-broadcast is monotone
#: and convex but mixes atoms. Natural quasiconvexity and star
#: quasiconvexity agree (the dual characterization).
RISK_EXPECT = {
    "entropic": dict.fromkeys(PROPERTIES, "pass"),
    "cubed_mean": {**dict.fromkeys(PROPERTIES, "pass"),
                   "translativity": "fail", "convexity": "fail",
                   "nqc": "fail", "star": "fail"},
    "sqrt_log": {**dict.fromkeys(PROPERTIES, "pass"),
                 "monotonicity": "fail", "translativity": "fail",
                 "convexity": "fail", "nqc": "fail", "star": "fail",
                 "sensitivity": "inconclusive"},
    "mean_broadcast": {**dict.fromkeys(PROPERTIES, "pass"),
                       "translativity": "fail", "locality": "fail"},
}

RISK_ATOMS = (4, 8, 10)
OUTCOMES_PER_ATOM = 3

#: l2-demo jobs: (fixture, measure) -> expected verdict per check.
L2_EXPECT = {
    ("paper10pt", "entropic"): {
        "classical_locality": "pass", "basis_locality": "pass",
        "cone_self_dual": "pass", "nqc_wrt_preorder": "pass"},
    ("paper10pt", "sqrt_log"): {
        "classical_locality": "pass", "basis_locality": "pass",
        "cone_self_dual": "pass", "nqc_wrt_preorder": "fail"},
    ("paper10pt-split", "coarse_cond_exp"): {
        "classical_locality": "fail", "basis_locality": "pass"},
}

#: Index jobs: family, domain, grid points, the index of the unweighted
#: function on that domain (``min f''/f'^2`` for the smooth families), and
#: the weight pair and exponent sign (see :func:`index_jobs`). The weighted
#: index follows the scaling law ``c / w``. The tabulated convex
#: ``piecewise`` table has index 0 up to the bracket width; ``negsquare`` has
#: a stationary maximum at 0, so its index is ``-inf`` from the cap probe.
INDEX_FUNCTIONS = (
    ("sqrt", (1.0, 4.0), 1025, -1.0, 0, 1),
    ("neglog", (1.0, E), 1025, 1.0, 0, 1),
    ("square", (1.0, 2.0), 513, 0.125, 1, 1),
    ("exp", (0.0, 1.0), 513, math.exp(-1.0), 1, -1),
    ("piecewise", (0.0, 4.0), 513, 0.0, 2, 1),
    ("negsquare", (-1.0, 1.0), 257, -math.inf, 3, 1),
)
PIECEWISE_TABLE = ("0 1 2 3 4", "0 1 4 9 16")
INDEX_TOL = 1e-4
#: Criterion-1 tolerance between the grid index and the smooth cross-check.
INDEX_AGREEMENT = 1e-3

#: Brute-force sums: coordinate grids stay at 129 points, the product grid
#: is set per job. Two-factor ``sqrt + w neglog`` is quasiconvex iff
#: ``-1 + w <= 0`` (reciprocal rule); the weight ranges keep a margin from 1.
BRUTE_COORD_GRID = 129
BRUTE_QC_WEIGHTS = (0.5, 0.85)
BRUTE_NQC_WEIGHTS = (1.25, 2.0)
SQRT_INDEX = -1.0
SQUARE_12_INDEX = 0.125


def _weight(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _function_section(name: str, family: str, weight: float,
                      domain: tuple[float, float], grid: int) -> str:
    lines = [f"[function {name}]", f"family = {family}"]
    if weight != 1.0:
        lines.append(f"weight = {weight!r}")
    if family == "piecewise":
        lines += [f"xs = {PIECEWISE_TABLE[0]}", f"ys = {PIECEWISE_TABLE[1]}"]
    lines += [f"domain = {domain[0]!r} {domain[1]!r}", f"grid = {grid}", ""]
    return "\n".join(lines)


def _job(name: str, command: str, config: str, expect: dict,
         extra: tuple[str, ...] = ()) -> dict:
    return {"name": name, "command": command, "config": config,
            "extra": list(extra), "expect": expect}


def index_jobs(rng: random.Random) -> list[dict]:
    """Weights are powers of two, drawn once per pair of equally sized jobs.

    Scaling by a power of two is exact in floating point, so the grid index
    obeys the scaling law exactly and each doubling of the weight shifts the
    bisection by one step, which turns one probe from passing to failing or
    back. Passing probes scan all etas, failing ones stop at the first
    violation, so with free real weights the work of a pass moved by a
    quarter from seed to seed. The weights of a pair move the two
    bisections in opposite directions, which keeps the work of every seed
    the same.
    """
    exponents = [rng.randint(-1, 1) for _ in range(4)]
    jobs = []
    for family, domain, grid, base, pair, sign in INDEX_FUNCTIONS:
        w = 2.0 ** (sign * exponents[pair])
        config = (_function_section("f", family, w, domain, grid)
                  + f"\n[index]\nfunction = f\ntol = {INDEX_TOL!r}\n")
        expect = {"exit": 0, "index": base / w,
                  "smooth": family != "piecewise"}
        jobs.append(_job(f"index-{family}", "index", config, expect))
    return jobs


def _sum_config(coords: list[tuple[str, str, float, tuple[float, float]]],
                brute_grid: list[int], pair_budget: int) -> str:
    parts = [_function_section(n, fam, w, dom, BRUTE_COORD_GRID)
             for n, fam, w, dom in coords]
    parts.append("[sum-check]\nfunctions = "
                 + " ".join(n for n, _, _, _ in coords)
                 + f"\npair_budget = {pair_budget}\n"
                 + "brute_grid = " + " ".join(map(str, brute_grid)) + "\n")
    return "\n".join(parts)


def _sum_expect(coords, indices: list[float]) -> dict:
    recip = sum(1.0 / c for c in indices)
    negatives = sum(1 for c in indices if c < 0)
    qc = negatives == 0 or (negatives == 1 and recip <= 0)
    return {"exit": 0, "coords": [list(c) for c in coords],
            "indices": indices,
            "decision": "quasiconvex" if qc else "not-quasiconvex",
            "index_sum": "quasiconvex" if sum(indices) >= 0 else "not-quasiconvex",
            "brute": "certified" if qc else "refuted"}


def brute_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for label, (lo, hi) in (("qc", BRUTE_QC_WEIGHTS),
                            ("nqc", BRUTE_NQC_WEIGHTS)):
        w = _weight(rng, lo, hi)
        coords = [("s", "sqrt", 1.0, (1.0, 4.0)),
                  ("l", "neglog", w, (1.0, E))]
        config = _sum_config(coords, [41, 41], 1_500_000)
        jobs.append(_job(f"sum2-{label}", "sum-check", config,
                         _sum_expect(coords, [SQRT_INDEX, 1.0 / w]),
                         ("--brute",)))
    w = _weight(rng, 0.5, 2.0)
    coords = [("s", "sqrt", 1.0, (1.0, 4.0)), ("l", "neglog", w, (1.0, E)),
              ("q", "square", 1.0, (1.0, 2.0))]
    config = _sum_config(coords, [13, 13, 13], 2_500_000)
    jobs.append(_job("sum3", "sum-check", config,
                     _sum_expect(coords, [SQRT_INDEX, 1.0 / w,
                                          SQUARE_12_INDEX]),
                     ("--brute",)))
    return jobs


def _probs(rng: random.Random, n: int) -> list[float]:
    """Non-uniform outcome probabilities within a factor of three of each other."""
    raw = [rng.uniform(1.0, 3.0) for _ in range(n)]
    total = sum(raw)
    probs = [round(r / total, 12) for r in raw]
    probs[-1] = 1.0 - sum(probs[:-1])
    return probs


def _atoms_text(k: int) -> str:
    m = OUTCOMES_PER_ATOM
    return "; ".join(f"{i * m + 1}-{i * m + m}" for i in range(k))


def risk_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for k in RISK_ATOMS:
        probs = _probs(rng, k * OUTCOMES_PER_ATOM)
        for measure, expect in RISK_EXPECT.items():
            config = ("[space]\nprobs = " + " ".join(repr(p) for p in probs)
                      + f"\n\n[partition]\natoms = {_atoms_text(k)}\n\n"
                      f"[measure m]\nkind = {measure}\n\n"
                      "[risk-check]\nmeasure = m\nbudget = 200\n"
                      "properties = " + " ".join(PROPERTIES) + "\n")
            code = 0 if all(v == "pass" for v in expect.values()) else 2
            jobs.append(_job(f"risk-{measure}-k{k}", "risk-check", config,
                             {"exit": code, "measure": measure,
                              "properties": dict(expect)}))
    for (fixture, measure), expect in L2_EXPECT.items():
        config = (f"[l2-demo]\nfixture = {fixture}\nmeasure = {measure}\n"
                  "budget = 200\nsamples = 500\n")
        code = 0 if all(v == "pass" for v in expect.values()) else 2
        jobs.append(_job(f"l2-{fixture}-{measure}", "l2-demo", config,
                         {"exit": code, "fixture": fixture, "measure": measure,
                          "checks": dict(expect)}))
    return jobs


GENERATORS = {"index": index_jobs, "brute": brute_jobs, "risk": risk_jobs}


def generate(workload: str, seed: int) -> list[dict]:
    """The job list of a workload; the same seed gives the same jobs.

    Each job also carries the CLI seed, drawn from the workload seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs = GENERATORS[workload](rng)
    for job in jobs:
        job["seed"] = rng.randrange(2 ** 31)
    return jobs
