"""Correctness gate: check one job's exit code and report against the seed.

Every check returns a list of problems; an empty list means the job is
correct. Expected values come from :mod:`workloads` (scaling law,
reciprocal rule, measure docstrings), never from the program's own output.
Witnesses are replayed through the library: brute-force witnesses through
``quasiconvexity_gap``, natural-quasiconvexity failures through
``nqc_mu_interval``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from qcx import families
from qcx.decomp import DecomposableSum
from qcx.extcore import BoxDomain, quasiconvexity_gap
from qcx.l2basis import build_example_10pt
from qcx.riskmeasure import (FiniteProbSpace, cubed_mean_map,
                             entropic_certainty_equivalent,
                             mean_broadcast_map, nqc_mu_interval,
                             parse_partition_text, sqrt_log_map)

import workloads

MEASURES = {"entropic": entropic_certainty_equivalent,
            "cubed_mean": cubed_mean_map, "sqrt_log": sqrt_log_map,
            "mean_broadcast": mean_broadcast_map}

#: Replayed witness values must match the reported ones this closely.
REPLAY_TOL = 1e-9


def check_job(job: dict, code, error, report_text) -> list[str]:
    expect = job["expect"]
    problems = []
    if error is not None:
        return [f"raised: {error.strip().splitlines()[-1]}"]
    if code != expect["exit"]:
        problems.append(f"exit code {code}, expected {expect['exit']}")
    if report_text is None:
        return problems + ["no report written"]
    report = json.loads(report_text)
    if report.get("seed") != job["seed"]:
        problems.append(f"report seed {report.get('seed')} != {job['seed']}")
    results = report["results"]
    problems += CHECKS[job["command"]](job, results)
    return problems


def _check_index(job, results) -> list[str]:
    expect = job["expect"]
    r = results["functions"]["f"]
    want = expect["index"]
    value = float(r["value"])
    problems = []
    if math.isinf(want):
        if not (value == want and r["cap_probe"] and r["case"] == "I"):
            problems.append(f"index {value}, expected {want} by the cap probe")
    elif want == 0.0:  # convex table: index 0 up to the bracket width
        if not (r["case"] == "II" and 0.0 <= value <= workloads.INDEX_TOL):
            problems.append(f"index {value}, expected [0, {workloads.INDEX_TOL}]")
    elif abs(value - want) > workloads.INDEX_AGREEMENT:
        problems.append(f"index {value}, scaling law gives {want}")
    if expect["smooth"] and not math.isinf(want):
        smooth = r.get("smooth_cross_check")
        if smooth is None or abs(value - smooth) > workloads.INDEX_AGREEMENT:
            problems.append(f"index {value} vs smooth cross-check {smooth}")
    if r["convex"] != (want >= 0):
        problems.append(f"convex flag {r['convex']} for index {want}")
    if r["constant"]:
        problems.append("classified constant")
    return problems


def _sum_function(coords):
    parts = []
    for name, family, weight, domain in coords:
        f = families.make_function(family, weight=weight)
        parts.append((f, BoxDomain.of(domain[0], domain[1],
                                      workloads.BRUTE_COORD_GRID)))
    return DecomposableSum(tuple(parts)).as_function()


def _check_sum(job, results) -> list[str]:
    expect = job["expect"]
    problems = []
    for got, want in zip(results["indices"], expect["indices"]):
        if abs(float(got) - want) > workloads.INDEX_AGREEMENT:
            problems.append(f"coordinate index {got}, expected {want}")
    if results["characterize"]["decision"] != expect["decision"]:
        problems.append(f"characterize {results['characterize']['decision']}, "
                        f"expected {expect['decision']}")
    if results["index_sum_criterion"]["decision"] != expect["index_sum"]:
        problems.append("index-sum decision "
                        f"{results['index_sum_criterion']['decision']}")
    if results.get("oracle_agrees") is not True:
        problems.append("brute-force oracle disagrees")
    brute = results.get("brute_force", {})
    if brute.get("verdict") != expect["brute"]:
        problems.append(f"brute verdict {brute.get('verdict')}, "
                        f"expected {expect['brute']}")
    w = brute.get("witness")
    if expect["brute"] == "refuted" and w is not None:
        gap, degenerate = quasiconvexity_gap(_sum_function(expect["coords"]),
                                             w["x1"], w["x2"], w["eta"])
        if degenerate or gap <= brute["tol"] or not math.isclose(
                gap, w["violation"], rel_tol=REPLAY_TOL, abs_tol=1e-15):
            problems.append(f"witness replays to gap {gap}, "
                            f"reported {w['violation']}")
    elif expect["brute"] == "refuted":
        problems.append("refutation without a witness")
    return problems


def _replay_nqc(witness: dict, keys: tuple[str, str, str], values,
                tol: float) -> list[str]:
    """The reported values must recompute from the witness positions and
    leave no feasible mixing weight."""
    r_x, r_y, r_mix = (np.asarray(witness[k]) for k in keys)
    problems = []
    if nqc_mu_interval(r_x, r_y, r_mix, tol) is not None:
        problems.append("nqc witness has a feasible mixing weight")
    x, y, lam = np.asarray(witness["x"]), np.asarray(witness["y"]), witness["lam"]
    for got, v in ((r_x, x), (r_y, y), (r_mix, lam * x + (1 - lam) * y)):
        if np.max(np.abs(values(v) - got)) > REPLAY_TOL:
            problems.append("nqc witness values do not replay")
            break
    return problems


def _space_and_sigma(config: str):
    fields = dict(line.split(" = ", 1) for line in config.splitlines()
                  if " = " in line)
    space = FiniteProbSpace(tuple(float(t) for t in fields["probs"].split()))
    return space, parse_partition_text(fields["atoms"])


def _check_risk(job, results) -> list[str]:
    expect = job["expect"]
    problems = []
    props = results["properties"]
    for prop, want in expect["properties"].items():
        got = props.get(prop, {}).get("verdict")
        if got != want:
            problems.append(f"{prop}: {got}, expected {want}")
    nqc = props.get("nqc", {})
    if nqc.get("verdict") == "fail":
        space, sigma = _space_and_sigma(job["config"])
        rho = MEASURES[expect["measure"]](sigma, space)
        problems += _replay_nqc(nqc["witness"], ("r_x", "r_y", "r_mix"),
                                rho.atom_values, nqc["tol"])
        if not nqc["witness"].get("separating_margin", 0.0) > nqc["tol"]:
            problems.append("nqc failure without a separating dual vector")
    return problems


def _check_l2(job, results) -> list[str]:
    expect = job["expect"]
    problems = []
    for check, want in expect["checks"].items():
        got = results.get(check, {}).get("verdict")
        if got != want:
            problems.append(f"{check}: {got}, expected {want}")
    unexpected = {"cone_self_dual", "nqc_wrt_preorder"} - set(expect["checks"])
    if unexpected & set(results):
        problems.append("cone checks ran on a fixture with 2-D e-blocks")
    if results["orthonormality_residual"] > 1e-12:
        problems.append("basis is not orthonormal")
    pre = results.get("nqc_wrt_preorder", {})
    if pre.get("verdict") == "fail":
        block = build_example_10pt()
        rho = MEASURES[expect["measure"]](block.sigma(), block.space)
        problems += _replay_nqc(pre["witness"], ("e_x", "e_y", "e_mix"),
                                lambda v: block.e_coordinates(rho(v)),
                                pre["tol"])
    return problems


CHECKS = {"index": _check_index, "sum-check": _check_sum,
          "risk-check": _check_risk, "l2-demo": _check_l2}
