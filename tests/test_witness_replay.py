"""Every ``Fail`` witness of a ``risk-check`` or ``l2-demo`` report replays.

:func:`replay` re-evaluates each failing check's witness through a fresh
oracle, recomputes the numbers the report gives (a violation, outputs,
e-coordinates, a dual margin, an e-Gram entry) and compares them within
:data:`REPLAY_TOL`; it also checks that the replayed values violate the
property at the report's tolerance. It runs on every ``risk`` job of the
benchmark at seeds 101-110, and on library reports of the checks that no
benchmark job fails (quasiconvexity, sensitivity, non-constancy, basis
locality, and cone self-duality on skewed bases). A forged witness must not
replay.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qcx.cli import (_read, build_l2, build_measure, build_partition,
                     build_space, load_config, main, report_to_dict)
from qcx.l2basis import CONE_TOL, check_basis_locality, check_cone_self_dual
from qcx.riskmeasure import (SENSITIVITY_TOL, RiskMeasureOracle,
                             blind_spot_map, check_assumption_nonconstant,
                             check_quasiconvexity, check_sensitivity,
                             nqc_mu_interval, sample_triples)
from qcx.spaces import FiniteProbSpace, PartitionSigma, conditional_expectation
from test_l2basis import skewed
from test_sample_oracle import ref_cell_projection

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "workloads", ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

REPLAY_TOL = 1e-9


def _close(replayed, reported, what):
    replayed, reported = np.atleast_1d(replayed), np.atleast_1d(reported)
    assert replayed.shape == reported.shape, what
    assert all(math.isclose(a, b, rel_tol=REPLAY_TOL, abs_tol=REPLAY_TOL)
               for a, b in zip(replayed, reported)), (what, replayed, reported)


def _triple(w):
    x, y, lam = np.array(w["x"]), np.array(w["y"]), w["lam"]
    return x, y, lam * x + (1 - lam) * y, lam


def _scalarized(rho, z, r_x, r_y, r_mix):
    """``E[Z r_mix] - max(E[Z r_x], E[Z r_y])`` over the atoms, after
    checking that ``Z >= 0`` has ``E[Z] = 1``."""
    p = rho.sigma.atom_probs(rho.space)
    assert min(z) >= 0.0
    _close(np.dot(p, z), 1.0, "E[Z]")
    return np.dot(p * z, r_mix) - max(np.dot(p * z, r_x), np.dot(p * z, r_y))


def _locality(rho, block, w, tol):
    x = np.array(w["x"])
    ind = rho.sigma.event_indicator(w["event_atoms"])
    if w["form"] == "definition":
        return np.max(np.abs(rho(x * ind) * ind - rho(x) * ind))
    u = np.array(w["u"])
    return np.max(np.abs(rho(x * ind + u * (1 - ind))
                         - (rho(x) * ind + rho(u) * (1 - ind))))


def _monotonicity(rho, block, w, tol):
    x, delta, i = np.array(w["x"]), np.array(w["delta"]), w["outcome"]
    assert min(delta) >= 0.0
    return rho(x + delta)[i] - rho(x)[i]


def _translativity(rho, block, w, tol):
    x, z = np.array(w["x"]), np.array(w["z"])
    assert rho.sigma.measurability_spread(z)[0] == 0.0
    return np.max(np.abs(rho(x + z) - (rho(x) - z)))


def _convexity(rho, block, w, tol):
    x, y, mix, lam = _triple(w)
    return np.max(rho(mix) - (lam * rho(x) + (1 - lam) * rho(y)))


def _quasiconvexity(rho, block, w, tol):
    x, y, mix, _ = _triple(w)
    return np.max(rho(mix) - np.maximum(rho(x), rho(y)))


def _same_and_infeasible(values, w, names, tol):
    """The reported values equal the replayed ones, and no mixing weight
    is feasible for them; returns them."""
    for v, name in zip(values, names):
        _close(v, w[name], name)
    assert nqc_mu_interval(*values, tol) is None
    return values


def _nqc(rho, block, w, tol):
    x, y, mix, _ = _triple(w)
    values = _same_and_infeasible([rho.atom_values(v) for v in (x, y, mix)],
                                  w, ("r_x", "r_y", "r_mix"), tol)
    if "separating_dual" in w:
        margin = _scalarized(rho, np.array(w["separating_dual"]), *values)
        _close(margin, w["separating_margin"], "separating_margin")
        assert margin > 0.0
    return None


def _star(rho, block, w, tol):
    x, y, mix, _ = _triple(w)
    return _scalarized(rho, np.array(w["z"]),
                       *(rho.atom_values(v) for v in (x, y, mix)))


def _sensitivity(rho, block, w, tol):
    ind = np.zeros(rho.space.n)
    ind[w["event"]] = 1.0
    out = rho(-w["eps"] * ind)
    assert not (out > SENSITIVITY_TOL).any()
    _close(np.max(out), w["max_output"], "max_output")
    return None


def _assumption(rho, block, w, tol):
    """The atom's scalarization takes one value on the constant probes."""
    ind = rho.sigma.indicator(w["atom"])
    ones = np.ones(rho.space.n)
    values = [np.dot(rho.space.p, rho(c * ones) * ind) for c in (0, 1, -1, 2)]
    _close(values, [values[0]] * 4, "scalarization")
    return None


def _basis_locality(rho, block, w, tol):
    x, ci = np.array(w["x"]), w["cell"]
    e = block.basis[block.row_cells == ci][w["e_index"]]
    inner = block.space.inner
    return abs(inner(rho(x), e)
               - inner(rho(ref_cell_projection(block, x, ci)), e))


def _cone_self_dual(rho, block, w, tol):
    """The reported entry of the e-Gram matrix, or of its inverse,
    recomputed one inner product at a time."""
    es = block.basis[:block.k]
    gram = np.array([[block.space.inner(a, b) for b in es] for a in es])
    entries = {"cone-in-dual": gram,
               "dual-in-cone": np.linalg.inv(gram)}[w["inclusion"]]
    value = entries[tuple(w["entry"])]
    _close(value, w["value"], "value")
    assert value < -tol
    return None


def _nqc_wrt_preorder(rho, block, w, tol):
    x, y, mix, _ = _triple(w)
    _same_and_infeasible([block.e_coordinates(rho(v)) for v in (x, y, mix)],
                         w, ("e_x", "e_y", "e_mix"), tol)
    return None


#: Report key -> replay of its witness: the replayed violation (compared
#: with the reported one and with ``tol``), or ``None`` for a check whose
#: replay compares its own fields.
REPLAYS = {
    "monotonicity": _monotonicity, "translativity": _translativity,
    "locality": _locality, "convexity": _convexity,
    "quasiconvexity": _quasiconvexity, "nqc": _nqc, "star": _star,
    "sensitivity": _sensitivity, "assumption": _assumption,
    "classical_locality": _locality, "basis_locality": _basis_locality,
    "cone_self_dual": _cone_self_dual, "nqc_wrt_preorder": _nqc_wrt_preorder,
}


def replay(report: dict, rho: RiskMeasureOracle, block=None) -> list[str]:
    """Replay every failing check of a ``risk-check`` or ``l2-demo`` report
    through ``rho`` (and ``block`` for the basis checks); returns the names
    of the checks replayed."""
    results = report["results"]
    checks = results["properties"] if "properties" in results else results
    replayed = []
    for name, rep in checks.items():
        if not isinstance(rep, dict) or rep.get("verdict") != "fail":
            continue
        w = rep["witness"]
        violation = REPLAYS[name](rho, block, w, rep["tol"])
        if violation is not None:
            _close(violation, w["violation"], name)
            assert violation > rep["tol"], name
        replayed.append(name)
    return replayed


def fresh_oracle(command: str, cp):
    """``(block, rho)``: the measure of a job config, built anew, with the
    basis of an ``l2-demo`` job (``None`` for ``risk-check``)."""
    if command == "l2-demo":
        return build_l2(_read(cp, "l2-demo", "fixture"),
                        _read(cp, "l2-demo", "measure"))
    space = build_space(cp)
    return None, build_measure(cp, _read(cp, "risk-check", "measure"),
                               build_partition(cp, space.n), space)


def test_bench_risk_witnesses_replay(tmp_path):
    cfg, out = tmp_path / "job.ini", tmp_path / "r.json"
    replayed = set()
    reports = 0
    for seed in range(101, 111):
        for job in workloads.generate("risk", seed):
            cfg.write_text(job["config"])
            main([job["command"], "--config", str(cfg), "--seed",
                  str(job["seed"]), *job["extra"], "--out", str(out)])
            block, rho = fresh_oracle(job["command"], load_config(str(cfg)))
            replayed.update(replay(json.loads(out.read_text()), rho, block))
            reports += 1
    assert reports == 150
    assert replayed == {"monotonicity", "translativity", "locality",
                        "convexity", "nqc", "star", "classical_locality",
                        "nqc_wrt_preorder"}


def _library_report(**reports):
    return {"results": {"properties": {
        name: report_to_dict(rep) for name, rep in reports.items()}}}


def test_library_witnesses_replay():
    """The checks that no benchmark job fails: a measure that is not
    quasiconvex, one blind to an atom (not sensitive, constant there) and
    one that mixes the cells of the basis."""
    space = FiniteProbSpace.uniform(9)
    sigma = PartitionSigma.of((0, 1, 2), (3, 4), (5, 6, 7, 8))
    concave = RiskMeasureOracle(
        "neg-square", lambda x: -conditional_expectation(x, sigma, space) ** 2,
        sigma, space)
    blind = blind_spot_map(sigma, space, 1)
    reports = [
        (_library_report(quasiconvexity=check_quasiconvexity(
            concave, triples=sample_triples(space, 0, 200))), concave, None),
        (_library_report(sensitivity=check_sensitivity(blind),
                         assumption=check_assumption_nonconstant(blind)),
         blind, None),
    ]
    block, mixing = build_l2("paper10pt", "mean_broadcast")
    reports.append(({"results": {"basis_locality": report_to_dict(
        check_basis_locality(mixing, block))}}, mixing, block))
    replayed = [name for report, rho, b in reports
                for name in replay(report, rho, b)]
    assert replayed == ["quasiconvexity", "sensitivity", "assumption",
                        "basis_locality"]


def test_forged_witnesses_do_not_replay():
    block, rho = build_l2("paper10pt", "mean_broadcast")
    rep = report_to_dict(check_basis_locality(rho, block))
    rep["witness"]["violation"] *= 1.5
    with pytest.raises(AssertionError):
        replay({"results": {"basis_locality": rep}}, rho, block)
    # the fixture's e-vectors are orthogonal: G[0, 1] is 0, not -1
    forged = {"verdict": "fail", "tol": CONE_TOL,
              "witness": {"inclusion": "cone-in-dual", "entry": [0, 1],
                          "value": -1.0}}
    with pytest.raises(AssertionError):
        replay({"results": {"cone_self_dual": forged}}, rho, block)


def test_cone_witnesses_of_skewed_bases_replay():
    block, rho = build_l2("paper10pt", "mean_broadcast")
    for off in (-0.5, 0.5):
        bad = skewed(block, off)
        rep = report_to_dict(check_cone_self_dual(bad))
        assert replay({"results": {"cone_self_dual": rep}}, rho, bad) == [
            "cone_self_dual"]
