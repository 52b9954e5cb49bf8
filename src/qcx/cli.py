"""Config-driven command line front end.

Subcommands: ``index``, ``sum-check``, ``risk-check``, ``l2-demo``. Every
run is driven by a line-oriented INI config (sections of key = value lines)
plus a seed; identical config and seed produce byte-identical JSON reports.

Exit codes: 0 when everything passed or was decided, 2 on any failure
(including an oracle disagreement), 3 when some result is inconclusive,
64 on configuration errors.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Optional

import numpy as np

from . import __version__
from .cindex import (ConvexityIndex, classify, compute_index, smooth_index_1d)
from .decomp import (DecomposableSum, SumDecision, SumVerdict,
                     brute_force_sum_quasiconvex, characterize,
                     harmonic_index, index_sum_criterion)
from .errors import ConfigError, NotGMeasurableError, NotNormalizedError, QcxError
from .extcore import BoxDomain, CertResult, FunctionSpec, Verdict, Witness
from .families import make_function
from .l2basis import (build_example_10pt, build_example_10pt_split,
                      check_basis_locality, check_cone_self_dual,
                      check_nqc_wrt_preorder, refined_partition_10pt)
from .riskmeasure import (CheckVerdict, PropertyReport, RiskMeasureOracle,
                          TripleTable, blind_spot_map, certainty_equivalent,
                          check_assumption_nonconstant, check_convexity,
                          check_locality, check_monotonicity,
                          check_natural_quasiconvexity, check_quasiconvexity,
                          check_sensitivity, check_star_quasiconvexity,
                          check_translativity, conditional_expectation_map,
                          cubed_mean_map, entropic_certainty_equivalent,
                          mean_broadcast_map, neg_conditional_expectation,
                          sample_triples, sqrt_log_map)
from .spaces import (FiniteProbSpace, PartitionSigma, load_partition,
                     load_scenario_table, parse_partition_text)

SCHEMA = "qcx-report/1"

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_CONFIG = 64


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _jsonify(obj):
    """Canonical JSON-friendly form: enums by value, infinities as strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (Verdict, CheckVerdict, SumDecision)):
        return obj.value
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if hasattr(obj, "__dataclass_fields__"):
        return _jsonify(asdict(obj))
    return obj


def render_json(report: dict) -> str:
    return json.dumps(_jsonify(report), sort_keys=True, indent=2) + "\n"


def render_table(rows: list[tuple]) -> str:
    rows = [tuple(str(c) for c in row) for row in rows]
    if not rows:
        return ""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)


def report_to_dict(rep: PropertyReport) -> dict:
    out = {"verdict": rep.verdict.value, "samples": rep.samples, "tol": rep.tol}
    if rep.witness is not None:
        out["witness"] = rep.witness
    if rep.details:
        out["details"] = rep.details
    return out


def sum_verdict_to_dict(v: SumVerdict) -> dict:
    return {"decision": v.decision.value, "rule": v.rule,
            "margin": v.margin, "boundary": v.boundary}


def witness_to_dict(w: Witness) -> dict:
    return {"x1": list(w.x1), "x2": list(w.x2), "eta": w.eta,
            "violation": w.violation}


def cert_to_dict(res: CertResult) -> dict:
    out = {"verdict": res.verdict.value, "tol": res.tol}
    if res.witness is not None:
        out["witness"] = witness_to_dict(res.witness)
    return out


def index_to_dict(ix: ConvexityIndex, smooth: Optional[float]) -> dict:
    cls = classify(ix)
    out = {
        "value": ix.value,
        "bracket": list(ix.bracket) if ix.bracket else None,
        "case": ix.case.value,
        "lambda_cap": ix.lambda_cap,
        "cap_probe": ix.cap_probe,
        "constant_shortcut": ix.constant_shortcut,
        "binding": witness_to_dict(ix.binding) if ix.binding else None,
        "convex": cls.convex,
        "constant": cls.constant,
    }
    if smooth is not None:
        out["smooth_cross_check"] = smooth
    return out


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def load_config(path: str) -> configparser.ConfigParser:
    """Parse the config; data-file paths resolve against its directory."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
        for section in ("space", "partition"):
            if cp.has_option(section, "file"):
                cp.set(section, "file", os.path.join(os.path.dirname(path),
                                                     cp.get(section, "file")))
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}") from e
    return cp


def _get(cp, section: str, key: str, default=None, required: bool = False):
    if not cp.has_section(section):
        if required:
            raise ConfigError(f"missing [{section}] section")
        return default
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"missing key {key!r} in [{section}]")
        return default
    return cp.get(section, key)


def _get_count(cp, section: str, key: str, default: Optional[str],
               minimum: int = 1) -> int:
    """An integer of at least ``minimum``: a sample budget (zero checks
    prove nothing), a size or a 1-based number."""
    text = _get(cp, section, key, default=default)
    try:
        value = int(text)
    except ValueError as e:
        raise ConfigError(f"[{section}] {key} is not an integer") from e
    if value < minimum:
        raise ConfigError(f"[{section}] {key} must be at least {minimum}, "
                          f"got {value}")
    return value


def _get_float(cp, section: str, key: str,
               default: Optional[str] = None) -> Optional[float]:
    """One number, or ``None`` when the key is absent and has no default."""
    values = _get_numbers(cp, section, key, float, default, count=1)
    return None if values is None else values[0]


def _get_positive(cp, section: str, key: str, default: str) -> float:
    """A number above zero: a tolerance or a lambda cap."""
    value = _get_float(cp, section, key, default=default)
    if not value > 0:
        raise ConfigError(f"[{section}] {key} must be positive, got {value}")
    return value


def _get_numbers(cp, section: str, key: str, cast=float,
                 default: Optional[str] = None, count: Optional[int] = None,
                 required: bool = False) -> Optional[list]:
    """The whitespace-separated values of a key through ``cast`` (exactly
    ``count`` of them when given), or ``None`` when the key is absent and
    has no default. A malformed value is a config error."""
    text = _get(cp, section, key, default=default, required=required)
    if text is None:
        return None
    try:
        values = [cast(t) for t in text.split()]
    except ValueError as e:
        raise ConfigError(f"[{section}] {key}: {e}") from e
    if count is not None and len(values) != count:
        raise ConfigError(f"[{section}] {key} needs {count} value(s), "
                          f"got {text!r}")
    return values


def build_space(cp) -> FiniteProbSpace:
    if _get(cp, "space", "uniform") is not None:
        return FiniteProbSpace.uniform(_get_count(cp, "space", "uniform", None))
    probs = _get_numbers(cp, "space", "probs")
    if probs is not None:
        try:
            return FiniteProbSpace(tuple(probs))
        except ValueError as e:
            raise ConfigError(f"[space] probs: {e}") from e
    path = _get(cp, "space", "file")
    if path is not None:
        try:
            return load_scenario_table(path)[0]
        except (OSError, ValueError) as e:
            raise ConfigError(f"[space] file: {e}") from e
    raise ConfigError("[space] needs one of: uniform, probs, file")


def build_partition(cp, n: int) -> PartitionSigma:
    atoms = _get(cp, "partition", "atoms")
    if atoms is not None:
        sigma = parse_partition_text(atoms)
    else:
        path = _get(cp, "partition", "file")
        if path is None:
            raise ConfigError("[partition] needs atoms or file")
        try:
            sigma = load_partition(path)
        except (OSError, ValueError) as e:
            raise ConfigError(f"[partition] file: {e}") from e
    if sigma.n != n:
        raise ConfigError(f"partition covers {sigma.n} outcomes, space has {n}")
    return sigma


def build_function(cp, name: str) -> tuple[FunctionSpec, BoxDomain]:
    section = f"function {name}"
    if not cp.has_section(section):
        raise ConfigError(f"function {name!r} is not declared (no [{section}])")
    family = _get(cp, section, "family", required=True)
    params = {}
    for key in ("a", "b", "c"):
        val = _get_float(cp, section, key)
        if val is not None:
            params[key] = val
    table_x = _get_numbers(cp, section, "xs")
    table_y = _get_numbers(cp, section, "ys")
    if table_x is not None or table_y is not None:
        if table_x is None or table_y is None:
            raise ConfigError(f"[{section}] needs both xs and ys")
        params["xs"], params["ys"] = table_x, table_y
    weight = _get_float(cp, section, "weight", default="1.0")
    try:
        f = make_function(family, weight=weight, **params)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"[{section}]: {e}") from e
    f.name = name
    lo, hi = _get_numbers(cp, section, "domain", count=2, required=True)
    grid = _get_count(cp, section, "grid", "129", minimum=3)
    try:
        return f, BoxDomain.of(lo, hi, grid)
    except ValueError as e:
        raise ConfigError(f"[{section}] domain: {e}") from e


MEASURE_KINDS = ("neg_cond_exp", "entropic", "certainty_equivalent",
                 "cubed_mean", "sqrt_log", "mean_broadcast", "blind_spot",
                 "coarse_cond_exp")


def build_measure(cp, name: str, sigma: PartitionSigma,
                  space: FiniteProbSpace) -> RiskMeasureOracle:
    section = f"measure {name}"
    if not cp.has_section(section):
        raise ConfigError(f"measure {name!r} is not declared (no [{section}])")
    kind = _get(cp, section, "kind", required=True)
    try:
        return _dispatch_measure(cp, section, kind, sigma, space)
    except ValueError as e:
        raise ConfigError(f"[{section}]: {e}") from e


def _dispatch_measure(cp, section: str, kind: str, sigma: PartitionSigma,
                      space: FiniteProbSpace) -> RiskMeasureOracle:
    if kind == "neg_cond_exp":
        return neg_conditional_expectation(sigma, space)
    if kind == "entropic":
        return entropic_certainty_equivalent(sigma, space)
    if kind == "certainty_equivalent":
        loss = _get(cp, section, "loss", default="exp")
        if loss == "exp":
            return entropic_certainty_equivalent(sigma, space)
        if loss == "identity":
            return certainty_equivalent(lambda t: t, lambda t: t, sigma, space,
                                        name="identity-ce")
        raise ConfigError(f"[{section}] unknown loss {loss!r}")
    if kind == "cubed_mean":
        return cubed_mean_map(sigma, space)
    if kind == "sqrt_log":
        return sqrt_log_map(sigma, space)
    if kind == "mean_broadcast":
        return mean_broadcast_map(sigma, space)
    if kind == "blind_spot":
        atom = _get_count(cp, section, "ignored_atom", "1")
        if atom > sigma.k:
            raise ConfigError(f"[{section}] ignored_atom must be an atom "
                              f"number in 1..{sigma.k}, got {atom}")
        return blind_spot_map(sigma, space, ignored_atom=atom - 1)
    if kind == "coarse_cond_exp":
        target_text = _get(cp, section, "target", required=True)
        target = parse_partition_text(target_text)
        negate = _get(cp, section, "negate", default="false").lower() == "true"
        return conditional_expectation_map(target, space, declared_sigma=sigma,
                                           negate=negate)
    raise ConfigError(f"[{section}] unknown kind {kind!r}; "
                      f"known: {MEASURE_KINDS}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_index(cp, seed: int, threads: int, csv_path: Optional[str]) -> dict:
    names_text = _get(cp, "index", "function", required=True)
    names = names_text.split()
    lambda_cap = _get_positive(cp, "index", "lambda_cap", "1e4")
    tol = _get_positive(cp, "index", "tol", "1e-4")
    results = {}
    sweeps = []
    for name in names:
        f, box = build_function(cp, name)
        ix = compute_index(f, box, lambda_cap=lambda_cap, tol=tol,
                           threads=threads)
        smooth = None
        if f.smooth and f.dim == 1 and ix.bracket is not None:
            smooth = smooth_index_1d(f, box)
        results[name] = index_to_dict(ix, smooth)
        sweeps.extend((name, lam, ok) for lam, ok in ix.probes)
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("function,lambda,transform_ok\n")
            for name, lam, ok in sweeps:
                fh.write(f"{name},{lam!r},{int(ok)}\n")
    return {"functions": results}


def cmd_sum_check(cp, seed: int, threads: int, brute: bool,
                  csv_path: Optional[str]) -> dict:
    names_text = _get(cp, "sum-check", "functions", required=True)
    names = names_text.split()
    if len(names) < 2:
        raise ConfigError("[sum-check] needs at least two functions")
    lambda_cap = _get_positive(cp, "sum-check", "lambda_cap", "1e4")
    tol = _get_positive(cp, "sum-check", "tol", "1e-4")
    coords = [build_function(cp, n) for n in names]
    dsum = DecomposableSum(tuple(coords))
    indices = dsum.indices(lambda_cap=lambda_cap, tol=tol, threads=threads)
    values = [ix.value for ix in indices]
    for name, v in zip(names, values):
        if math.isinf(v):
            raise ConfigError(f"coordinate {name!r} has infinite index {v}; "
                              "the sum criteria need non-constant coordinates")
    by_sum = index_sum_criterion(values)
    by_structure = characterize(values)
    result = {
        "functions": names,
        "indices": values,
        "index_sum_criterion": sum_verdict_to_dict(by_sum),
        "characterize": sum_verdict_to_dict(by_structure),
    }
    if all(v >= 0 for v in values):
        result["harmonic_index"] = harmonic_index(values)
    brute_cfg = _get(cp, "sum-check", "brute", default="false").lower() == "true"
    if brute or brute_cfg:
        budget = _get_count(cp, "sum-check", "pair_budget", "1000000")
        m_override = _get_numbers(cp, "sum-check", "brute_grid", int) or None
        oracle = brute_force_sum_quasiconvex(dsum, pair_budget=budget,
                                             m_override=m_override,
                                             threads=threads)
        oracle_decision = (SumDecision.NOT_QUASICONVEX if oracle.refuted
                           else SumDecision.QUASICONVEX)
        result["brute_force"] = cert_to_dict(oracle)
        # the structural characterization is the decisive criterion
        result["oracle_agrees"] = oracle_decision == by_structure.decision
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("x1,x2,eta,violation\n")
            witness = result.get("brute_force", {}).get("witness")
            if witness is not None:
                fh.write(f"\"{witness['x1']!r}\",\"{witness['x2']!r}\","
                         f"{witness['eta']!r},{witness['violation']!r}\n")
    return result


PROPERTY_CHECKS = {
    "monotonicity": check_monotonicity,
    "translativity": check_translativity,
    "locality": check_locality,
    "convexity": check_convexity,
    "quasiconvexity": check_quasiconvexity,
    "nqc": check_natural_quasiconvexity,
    "star": check_star_quasiconvexity,
    "sensitivity": check_sensitivity,
    "assumption": check_assumption_nonconstant,
}


def cmd_risk_check(cp, seed: int, threads: int) -> dict:
    space = build_space(cp)
    sigma = build_partition(cp, space.n)
    measure_name = _get(cp, "risk-check", "measure", required=True)
    rho = build_measure(cp, measure_name, sigma, space)
    props_text = _get(cp, "risk-check", "properties",
                      default=" ".join(PROPERTY_CHECKS))
    budget = _get_count(cp, "risk-check", "budget", "200")
    tol = _get_positive(cp, "risk-check", "tol", "1e-6")
    # one table: the four triple checks evaluate each triple once
    triples = TripleTable(rho, sample_triples(
        space, np.random.default_rng([seed, 1]), budget))
    reports = {}
    for i, prop in enumerate(props_text.split()):
        if prop not in PROPERTY_CHECKS:
            raise ConfigError(f"unknown property {prop!r}; "
                              f"known: {sorted(PROPERTY_CHECKS)}")
        rng = np.random.default_rng([seed, 100 + i])
        try:
            if prop in ("convexity", "quasiconvexity", "nqc"):
                rep = PROPERTY_CHECKS[prop](rho, tol=tol, triples=triples)
            elif prop == "star":
                rep = check_star_quasiconvexity(rho, tol=tol, triples=triples,
                                                rng=rng)
            elif prop == "sensitivity":
                rep = check_sensitivity(rho, rng=rng)
            elif prop == "assumption":
                rep = check_assumption_nonconstant(rho, rng=rng)
            else:
                rep = PROPERTY_CHECKS[prop](rho, budget=budget, tol=tol, rng=rng)
        except NotNormalizedError as e:
            rep = PropertyReport(prop, CheckVerdict.INCONCLUSIVE,
                                 details={"reason": str(e)})
        reports[prop] = report_to_dict(rep)
    return {"measure": rho.name, "budget": budget, "properties": reports}


L2_MEASURES = ("neg_cond_exp", "entropic", "sqrt_log", "cubed_mean",
               "mean_broadcast", "coarse_cond_exp")


def cmd_l2_demo(cp, seed: int, threads: int) -> dict:
    fixture = _get(cp, "l2-demo", "fixture", default="paper10pt")
    if fixture == "paper10pt":
        block = build_example_10pt()
        declared = block.sigma()
    elif fixture == "paper10pt-split":
        block = build_example_10pt_split()
        declared = refined_partition_10pt()
    else:
        raise ConfigError(f"unknown fixture {fixture!r}")
    space = block.space
    kind = _get(cp, "l2-demo", "measure", default="neg_cond_exp")
    if kind not in L2_MEASURES:
        raise ConfigError(f"unknown l2 measure {kind!r}; known: {L2_MEASURES}")
    if kind == "coarse_cond_exp":  # the target is the fixture's cells
        rho = conditional_expectation_map(PartitionSigma(block.cells), space,
                                          declared_sigma=declared)
    else:
        rho = _dispatch_measure(cp, "l2-demo", kind, declared, space)
    budget = _get_count(cp, "l2-demo", "budget", "200")
    samples = _get_count(cp, "l2-demo", "samples", "500")
    vecs = block.all_vectors()
    gram = np.array([[space.inner(a, b) for b in vecs] for a in vecs])
    ortho_resid = float(np.abs(gram - np.eye(len(vecs))).max())
    rng = np.random.default_rng([seed, 7])
    pyth = 0.0
    for _ in range(100):
        x = rng.normal(size=space.n)
        coeffs = block.coordinates(x)
        pyth = max(pyth, abs(space.inner(x, x) - float(np.sum(coeffs ** 2))))
    result = {
        "fixture": fixture,
        "measure": rho.name,
        "basis_size": len(vecs),
        "e_dims": list(block.e_dims()),
        "orthonormality_residual": ortho_resid,
        "pythagoras_residual": pyth,
        "classical_locality": report_to_dict(
            check_locality(rho, budget=samples,
                           rng=np.random.default_rng([seed, 2]))),
        "basis_locality": report_to_dict(
            check_basis_locality(rho, block, budget=samples,
                                 rng=np.random.default_rng([seed, 3]))),
    }
    if all(d == 1 for d in block.e_dims()):
        result["cone_self_dual"] = report_to_dict(
            check_cone_self_dual(block, budget=budget,
                                 rng=np.random.default_rng([seed, 4])))
        result["nqc_wrt_preorder"] = report_to_dict(
            check_nqc_wrt_preorder(rho, block, budget=budget,
                                   rng=np.random.default_rng([seed, 5])))
    return result


# ---------------------------------------------------------------------------
# rendering and exit codes
# ---------------------------------------------------------------------------

def _collect_verdicts(obj, out: list):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k in ("verdict", "decision") and isinstance(v, str):
                out.append(v)
            else:
                _collect_verdicts(v, out)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _collect_verdicts(v, out)


def exit_code_for(report: dict) -> int:
    verdicts: list[str] = []
    _collect_verdicts(_jsonify(report), verdicts)
    if report.get("results", {}).get("oracle_agrees") is False:
        return EXIT_FAIL
    if any(v == "fail" for v in verdicts):
        return EXIT_FAIL
    if any(v == "inconclusive" for v in verdicts):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def render_text(report: dict) -> str:
    lines = [f"qcx {report['command']} (seed {report['seed']})"]
    results = report["results"]
    cmd = report["command"]
    if cmd == "index":
        rows = [("function", "value", "case", "convex", "constant")]
        for name, r in results["functions"].items():
            val = r["value"]
            val_s = f"{val:.6g}" if isinstance(val, float) and math.isfinite(val) else str(val)
            rows.append((name, val_s, r["case"], str(r["convex"]),
                         str(r["constant"])))
        lines.append(render_table(rows))
    elif cmd == "sum-check":
        rows = [("coordinate", "index")]
        for n, v in zip(results["functions"], results["indices"]):
            rows.append((n, f"{v:.6g}"))
        lines.append(render_table(rows))
        isc = results["index_sum_criterion"]
        lines.append(f"index-sum: {isc['decision']} "
                     f"(margin {isc['margin']:.6g}, rule {isc['rule']})")
        ch = results["characterize"]
        lines.append(f"characterize: {ch['decision']} (rule {ch['rule']})")
        if "harmonic_index" in results:
            lines.append(f"harmonic index of the sum: "
                         f"{results['harmonic_index']:.6g}")
        if "brute_force" in results:
            bf = results["brute_force"]
            agree = "agrees" if results["oracle_agrees"] else "DISAGREES"
            lines.append(f"brute force: {bf['verdict']} ({agree})")
            if "witness" in bf:
                w = bf["witness"]
                lines.append(f"  witness: x1={w['x1']} x2={w['x2']} "
                             f"eta={w['eta']} violation={w['violation']:.3g}")
    elif cmd == "risk-check":
        lines.append(f"measure: {results['measure']}")
        rows = [("property", "verdict", "samples", "tol")]
        for prop, rep in results["properties"].items():
            rows.append((prop, rep["verdict"], str(rep.get("samples", "")),
                         f"{rep.get('tol', ''):.2g}" if rep.get("tol") else ""))
        lines.append(render_table(rows))
        for prop, rep in results["properties"].items():
            if rep["verdict"] == "fail" and "witness" in rep:
                lines.append(f"{prop} witness: {json.dumps(_jsonify(rep['witness']), sort_keys=True)}")
    elif cmd == "l2-demo":
        lines.append(f"fixture: {results['fixture']}  measure: {results['measure']}")
        lines.append(f"orthonormality residual: {results['orthonormality_residual']:.3e}")
        lines.append(f"pythagoras residual: {results['pythagoras_residual']:.3e}")
        rows = [("check", "verdict")]
        for key in ("classical_locality", "basis_locality", "cone_self_dual",
                    "nqc_wrt_preorder"):
            if key in results:
                rows.append((key, results[key]["verdict"]))
        lines.append(render_table(rows))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qcx", description=__doc__)
    ap.add_argument("--version", action="version", version=f"qcx {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("index", "sum-check", "risk-check", "l2-demo"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)
        if name == "sum-check":
            p.add_argument("--brute", action="store_true",
                           help="also run the product-grid oracle")
        if name in ("index", "sum-check"):
            p.add_argument("--csv", help="write sweep/violation data as CSV")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, "
                              f"got {args.threads}")
        # more workers than cores only add threads; the report keeps the
        # requested count
        threads = min(args.threads, os.cpu_count() or 1)
        cp = load_config(args.config)
        if args.command == "index":
            results = cmd_index(cp, args.seed, threads, args.csv)
        elif args.command == "sum-check":
            results = cmd_sum_check(cp, args.seed, threads, args.brute,
                                    args.csv)
        elif args.command == "risk-check":
            results = cmd_risk_check(cp, args.seed, threads)
        else:
            results = cmd_l2_demo(cp, args.seed, threads)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NotGMeasurableError as e:
        print(f"measure error: {e}", file=sys.stderr)
        return EXIT_FAIL
    except QcxError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "seed": args.seed,
        "threads": args.threads,
        "results": results,
    }
    sys.stdout.write(render_text(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_json(report))
    return exit_code_for(report)


if __name__ == "__main__":
    raise SystemExit(main())
