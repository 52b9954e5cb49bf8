"""Config-driven command line front end.

Subcommands: ``index``, ``sum-check``, ``risk-check``, ``l2-demo``. Every
run is driven by a line-oriented INI config (sections of key = value lines)
plus a seed; identical config and seed produce byte-identical JSON reports.
One table, ``CONFIG_KEYS``, types every key; a key is read when its command
needs it. A key the table does not list for a known section, and a value
that does not parse or is out of range, is a configuration error that
names ``[section] key``.

Exit codes: 0 when everything passed or was decided, 2 on any failure
(including an oracle disagreement), 3 when some result is inconclusive,
64 on configuration and usage errors (a flag argparse rejects, a missing
``--config``, a negative ``--seed``).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import enum
import json
import math
import os
import sys
from typing import Optional, TextIO

import numpy as np

from . import __version__
from .cindex import (DEFAULT_LAMBDA_CAP, ConvexityIndex, classify,
                     compute_index, smooth_index_1d)
from .decomp import (DecomposableSum, SumDecision,
                     brute_force_sum_quasiconvex, characterize,
                     harmonic_index, index_sum_criterion)
from .errors import (ConfigError, ImproperFunctionError, NotGMeasurableError,
                     NotNormalizedError, QcxError)
from .extcore import BoxDomain, CertResult, FunctionSpec, scale_function
from .families import make_function
from .l2basis import (build_example_10pt, build_example_10pt_split,
                      check_basis_locality, check_cone_self_dual,
                      check_nqc_wrt_preorder, refined_partition_10pt)
from .riskmeasure import (DEFAULT_CHECK_TOL, CheckVerdict, PropertyReport,
                          RiskMeasureOracle, TripleTable, blind_spot_map,
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
    """Canonical JSON-friendly form of a report: result dataclasses as dicts
    of their fields, enums as their values, numpy scalars as Python
    numbers, infinities as strings. :func:`main` converts each report once;
    the renderers and :func:`exit_code_for` read that form."""
    if dataclasses.is_dataclass(obj):
        return _jsonify({f.name: getattr(obj, f.name)
                         for f in dataclasses.fields(obj)})
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_table(rows: list[tuple]) -> str:
    rows = [tuple(str(c) for c in row) for row in rows]
    if not rows:
        return ""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)


def report_to_dict(rep: PropertyReport) -> dict:
    """The report's fields, its verdict as a string for library callers."""
    out = {"verdict": rep.verdict.value, "samples": rep.samples, "tol": rep.tol}
    if rep.witness is not None:
        out["witness"] = rep.witness
    if rep.details:
        out["details"] = rep.details
    return out


def cert_to_dict(res: CertResult) -> dict:
    out = {"verdict": res.verdict, "tol": res.tol}
    if res.witness is not None:
        out["witness"] = res.witness
    return out


def index_to_dict(ix: ConvexityIndex, smooth: Optional[float]) -> dict:
    cls = classify(ix)
    out = {
        "value": ix.value,
        "bracket": ix.bracket,
        "case": ix.case,
        "lambda_cap": ix.lambda_cap,
        "cap_probe": ix.cap_probe,
        "constant_shortcut": ix.constant_shortcut,
        "binding": ix.binding,
        "convex": cls.convex,
        "constant": cls.constant,
    }
    if smooth is not None:
        out["smooth_cross_check"] = smooth
    return out


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def _count(minimum: int = 1):
    """An integer of at least ``minimum``: a sample budget (zero checks
    prove nothing), a size or a 1-based number."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise ValueError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _positive(text: str) -> float:
    """A finite number above zero: a tolerance or a lambda cap."""
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError(f"must be positive and finite, got {value}")
    return value


def _flag(text: str) -> bool:
    """A flag in configparser's words (true/false, yes/no, on/off, 1/0)."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _choice(*options: str):
    """One of ``options``, as written."""
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"unknown {text!r}; known: {', '.join(options)}")
        return text
    return parse


def _words(item=str, count: Optional[int] = None):
    """Whitespace-separated values through ``item``: at least one, and
    exactly ``count`` when given."""
    def parse(text: str) -> list:
        values = [item(t) for t in text.split()]
        if not values or (count is not None and len(values) != count):
            raise ValueError(f"needs {count or 'one or more'} value(s), "
                             f"got {text!r}")
        return values
    return parse


_floats = _words(float)

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
#: The properties checked on the shared triple table.
TRIPLE_PROPERTIES = ("convexity", "quasiconvexity", "nqc", "star")
#: The measures built from the partition and the space alone.
PLAIN_MEASURES = {"neg_cond_exp": neg_conditional_expectation,
                  "entropic": entropic_certainty_equivalent,
                  "sqrt_log": sqrt_log_map, "cubed_mean": cubed_mean_map,
                  "mean_broadcast": mean_broadcast_map}
MEASURE_KINDS = (*PLAIN_MEASURES, "blind_spot", "coarse_cond_exp")
L2_MEASURES = (*PLAIN_MEASURES, "coarse_cond_exp")

#: Default of a key that must be given.
REQUIRED = object()
_BRACKET = {"lambda_cap": (_positive, DEFAULT_LAMBDA_CAP),
            "tol": (_positive, None)}  # no effect: brackets are adjacent floats

#: Every config key: section kind (a ``[function NAME]`` or ``[measure
#: NAME]`` section by its first word) -> key -> ``(parse, default)``. A
#: parse raises ``ValueError`` on a malformed or out-of-range value.
CONFIG_KEYS = {
    "space": {
        "uniform": (lambda t: FiniteProbSpace.uniform(_count()(t)), None),
        "probs": (lambda t: FiniteProbSpace(tuple(_floats(t))), None),
        "file": (lambda t: load_scenario_table(t)[0], None)},
    "partition": {"atoms": (parse_partition_text, None),
                  "file": (load_partition, None)},
    "function": {
        "family": (str, REQUIRED),
        "a": (float, None), "b": (float, None), "c": (float, None),
        "xs": (_floats, None), "ys": (_floats, None),
        "weight": (float, 1.0),
        "domain": (_words(float, 2), REQUIRED),
        "grid": (_count(3), 129)},
    "measure": {"kind": (_choice(*MEASURE_KINDS), REQUIRED),
                "ignored_atom": (_count(), 1),
                "target": (parse_partition_text, REQUIRED),
                "negate": (_flag, False)},
    "index": {"function": (_words(), REQUIRED), **_BRACKET},
    "sum-check": {"functions": (_words(), REQUIRED), **_BRACKET,
                  "pair_budget": (_count(), 1000000),
                  "brute_grid": (_words(_count(3)), None)},
    "risk-check": {"measure": (str, REQUIRED),
                   "properties": (_words(_choice(*PROPERTY_CHECKS)),
                                  list(PROPERTY_CHECKS)),
                   "budget": (_count(), 200),
                   "tol": (_positive, DEFAULT_CHECK_TOL)},
    "l2-demo": {"fixture": (_choice("paper10pt", "paper10pt-split"),
                            "paper10pt"),
                "measure": (_choice(*L2_MEASURES), "neg_cond_exp"),
                "budget": (_count(), 200),
                "samples": (_count(), 500)},
}


def load_config(path: str) -> configparser.ConfigParser:
    """Parse the config; data-file paths resolve against its directory. A
    key that :data:`CONFIG_KEYS` does not list for its section kind is an
    error; sections of other kinds are left alone."""
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
    for section in cp.sections():
        known = CONFIG_KEYS.get(section.partition(" ")[0])
        for key in cp.options(section) if known else ():
            if key not in known:
                raise ConfigError(f"[{section}] {key}: unknown key; "
                                  f"known: {', '.join(known)}")
    return cp


def _apply(section: str, key: str, fn, *args):
    """``fn(*args)``; a ``ValueError`` or ``OSError`` becomes a config error
    naming ``[section] key``."""
    try:
        return fn(*args)
    except (OSError, ValueError) as e:
        raise ConfigError(f"[{section}] {key}: {e}") from e


def _read(cp, section: str, key: str):
    """``[section] key`` through its parse in :data:`CONFIG_KEYS`; its
    default when absent."""
    parse, default = CONFIG_KEYS[section.partition(" ")[0]][key]
    if cp.has_option(section, key):
        return _apply(section, key, parse, cp.get(section, key))
    if default is not REQUIRED:
        return default
    raise ConfigError(f"missing key {key!r} in [{section}]")


def _read_distinct(cp, section: str, key: str) -> list:
    """:func:`_read` of names that key the report: a repeat is an error."""
    values = _read(cp, section, key)
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"[{section}] {key}: {value!r} is listed twice")
    return values


def _one_of(cp, section: str, keys: tuple[str, ...]):
    """The value of the one of ``keys`` that ``[section]`` sets; setting
    none of them, or more than one, is an error."""
    given = [key for key in keys if cp.has_option(section, key)]
    if len(given) > 1:
        raise ConfigError(f"[{section}] {' and '.join(given)}: conflicting "
                          f"keys; give only one of: {', '.join(keys)}")
    if not given:
        raise ConfigError(f"[{section}] needs one of: {', '.join(keys)}")
    return _read(cp, section, given[0])


def build_space(cp) -> FiniteProbSpace:
    return _one_of(cp, "space", ("uniform", "probs", "file"))


def build_partition(cp, n: int) -> PartitionSigma:
    sigma = _one_of(cp, "partition", ("atoms", "file"))
    if sigma.n != n:  # _one_of has found one key set
        key = "file" if cp.has_option("partition", "file") else "atoms"
        raise ConfigError(f"[partition] {key}: covers {sigma.n} outcomes, "
                          f"[space] has {n}")
    return sigma


def build_function(cp, name: str) -> tuple[FunctionSpec, BoxDomain]:
    section = f"function {name}"
    if not cp.has_section(section):
        raise ConfigError(f"function {name!r} is not declared (no [{section}])")
    family = _read(cp, section, "family")
    params = {key: _read(cp, section, key) for key in ("a", "b", "c", "xs", "ys")
              if cp.has_option(section, key)}
    if ("xs" in params) != ("ys" in params):
        raise ConfigError(f"[{section}] needs both xs and ys")
    weight = _read(cp, section, "weight")
    try:
        f = make_function(family, **params)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"[{section}]: {e}") from e
    if weight != 1.0:
        f = _apply(section, "weight", scale_function, f, weight)
    f.name = name
    lo, hi = _read(cp, section, "domain")
    grid = _read(cp, section, "grid")
    box = _apply(section, "domain", BoxDomain.of, lo, hi, grid)
    # every later evaluation lies in the box; a domain that leaves the
    # family's own is caught here, on the grid, not as NaN in a scan
    try:
        with np.errstate(all="ignore"):
            f(box.points())
    except (ValueError, ImproperFunctionError) as e:
        raise ConfigError(f"[{section}] domain: {family} is not defined on "
                          f"all of [{lo!r}, {hi!r}] ({e})") from e
    return f, box


def make_measure(kind: str, sigma: PartitionSigma, space: FiniteProbSpace,
                 section: str, param) -> RiskMeasureOracle:
    """The oracle of measure ``kind`` on ``sigma`` and ``space``, with the
    kind's parameters from ``param(key)``; a value the kind refuses is a
    config error naming ``[section]``."""
    try:
        if kind in PLAIN_MEASURES:
            return PLAIN_MEASURES[kind](sigma, space)
        if kind == "blind_spot":
            atom = param("ignored_atom")
            if atom > sigma.k:
                raise ConfigError(f"[{section}] ignored_atom must be an atom "
                                  f"number in 1..{sigma.k}, got {atom}")
            return blind_spot_map(sigma, space, ignored_atom=atom - 1)
        return conditional_expectation_map(  # coarse_cond_exp
            param("target"), space, declared_sigma=sigma,
            negate=param("negate"))
    except ValueError as e:
        raise ConfigError(f"[{section}]: {e}") from e


def build_measure(cp, name: str, sigma: PartitionSigma,
                  space: FiniteProbSpace) -> RiskMeasureOracle:
    section = f"measure {name}"
    if not cp.has_section(section):
        raise ConfigError(f"measure {name!r} is not declared (no [{section}])")
    return make_measure(_read(cp, section, "kind"), sigma, space, section,
                        lambda key: _read(cp, section, key))


def build_l2(fixture: str, kind: str) -> tuple:
    """``(block, rho)`` of an ``l2-demo`` fixture and measure ``kind``; the
    target of ``coarse_cond_exp`` is the fixture's cells."""
    if fixture == "paper10pt":
        block = build_example_10pt()
        declared = block.sigma()
    else:
        block = build_example_10pt_split()
        declared = refined_partition_10pt()
    return block, make_measure(
        kind, declared, block.space, "l2-demo",
        {"target": block.sigma(), "negate": False}.get)


def check_property(prop: str, rho: RiskMeasureOracle, triples, budget: int,
                   tol: float, rng) -> PropertyReport:
    """The check of ``prop`` on ``rho`` with the arguments it takes; a
    measure that is not normalized leaves it inconclusive."""
    check = PROPERTY_CHECKS[prop]
    try:
        if prop in TRIPLE_PROPERTIES:
            return check(rho, triples=triples, tol=tol)
        if prop in ("sensitivity", "assumption"):
            return check(rho, rng=rng)
        return check(rho, budget=budget, tol=tol, rng=rng)
    except NotNormalizedError as e:
        return PropertyReport(prop, CheckVerdict.INCONCLUSIVE,
                              details={"reason": str(e)})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_index(cp, csv: Optional[TextIO]) -> dict:
    names = _read_distinct(cp, "index", "function")
    lambda_cap = _read(cp, "index", "lambda_cap")
    _read(cp, "index", "tol")
    results = {}
    sweeps = []
    for name in names:
        f, box = build_function(cp, name)
        ix = compute_index(f, box, lambda_cap=lambda_cap)
        smooth = None
        if f.smooth and f.dim == 1 and ix.bracket is not None:
            smooth = smooth_index_1d(f, box)
        results[name] = index_to_dict(ix, smooth)
        sweeps.extend((name, lam, ok) for lam, ok in ix.probes)
    if csv is not None:
        csv.write("function,lambda,transform_ok\n")
        for name, lam, ok in sweeps:
            csv.write(f"{name},{lam!r},{int(ok)}\n")
    return {"functions": results}


def cmd_sum_check(cp, brute: bool, csv: Optional[TextIO]) -> dict:
    names = _read(cp, "sum-check", "functions")
    if len(names) < 2:
        raise ConfigError("[sum-check] needs at least two functions")
    lambda_cap = _read(cp, "sum-check", "lambda_cap")
    _read(cp, "sum-check", "tol")
    dsum = DecomposableSum(tuple(build_function(cp, n) for n in names))
    if brute:
        budget = _read(cp, "sum-check", "pair_budget")
        m_override = _read(cp, "sum-check", "brute_grid")
        if m_override is not None and len(m_override) != len(names):
            raise ConfigError(f"[sum-check] brute_grid needs one grid size "
                              f"per function, {len(names)}, got "
                              f"{len(m_override)}")
        pairs = math.comb(math.prod(dsum.product_box(m_override).m), 2)
        if pairs > budget:
            raise ConfigError(f"[sum-check] pair_budget = {budget} is below "
                              f"the {pairs} pairs of the brute force grid")
    values = dsum.index_values(lambda_cap)
    for name, v in zip(names, values):
        if math.isinf(v):
            raise ConfigError(f"[sum-check] functions: coordinate {name!r} "
                              f"has infinite index {v}; the sum criteria "
                              "need non-constant coordinates")
    by_sum = index_sum_criterion(values)
    by_structure = characterize(values)
    result = {
        "functions": names,
        "indices": values,
        "index_sum_criterion": by_sum,
        "characterize": by_structure,
    }
    if all(v >= 0 for v in values):
        result["harmonic_index"] = harmonic_index(values)
    if brute:
        oracle = brute_force_sum_quasiconvex(dsum, pair_budget=budget,
                                             m_override=m_override)
        oracle_decision = (SumDecision.NOT_QUASICONVEX if oracle.refuted
                           else SumDecision.QUASICONVEX)
        result["brute_force"] = cert_to_dict(oracle)
        # the structural characterization is the decisive criterion
        result["oracle_agrees"] = oracle_decision == by_structure.decision
    if csv is not None:
        csv.write("x1,x2,eta,violation\n")
        witness = oracle.witness if brute else None
        if witness is not None:
            csv.write(f"\"{list(witness.x1)!r}\",\"{list(witness.x2)!r}\","
                      f"{witness.eta!r},{witness.violation!r}\n")
    return result


def cmd_risk_check(cp, seed: int) -> dict:
    space = build_space(cp)
    sigma = build_partition(cp, space.n)
    rho = build_measure(cp, _read(cp, "risk-check", "measure"), sigma, space)
    props = _read_distinct(cp, "risk-check", "properties")
    budget = _read(cp, "risk-check", "budget")
    tol = _read(cp, "risk-check", "tol")
    # one table: the four triple checks evaluate each triple once
    triples = TripleTable(rho, sample_triples(
        space, np.random.default_rng([seed, 1]), budget))
    reports = {}
    for i, prop in enumerate(props):
        rng = np.random.default_rng([seed, 100 + i])
        reports[prop] = report_to_dict(
            check_property(prop, rho, triples, budget, tol, rng))
    return {"measure": rho.name, "budget": budget, "properties": reports}


def cmd_l2_demo(cp, seed: int) -> dict:
    fixture = _read(cp, "l2-demo", "fixture")
    block, rho = build_l2(fixture, _read(cp, "l2-demo", "measure"))
    space = block.space
    budget = _read(cp, "l2-demo", "budget")
    samples = _read(cp, "l2-demo", "samples")
    x = np.random.default_rng([seed, 7]).normal(size=(100, space.n))
    pyth = float(np.abs(np.sum(x * x * space.p, axis=1)
                        - np.sum(block.coordinates(x) ** 2, axis=1)).max())
    result = {
        "fixture": fixture,
        "measure": rho.name,
        "basis_size": len(block.basis),
        "e_dims": list(block.e_dims),
        "orthonormality_residual": block.ortho_residual,
        "pythagoras_residual": pyth,
        "classical_locality": report_to_dict(
            check_locality(rho, budget=samples,
                           rng=np.random.default_rng([seed, 2]))),
        "basis_locality": report_to_dict(
            check_basis_locality(rho, block, budget=samples,
                                 rng=np.random.default_rng([seed, 3]))),
    }
    if all(d == 1 for d in block.e_dims):
        result["cone_self_dual"] = report_to_dict(check_cone_self_dual(block))
        # the triples first, then basis locality, from one stream
        rng = np.random.default_rng([seed, 5])
        triples = sample_triples(space, rng, budget)
        result["nqc_wrt_preorder"] = report_to_dict(
            check_nqc_wrt_preorder(rho, block, triples=triples, rng=rng))
    return result


# ---------------------------------------------------------------------------
# rendering and exit codes
# ---------------------------------------------------------------------------

def _verdicts(obj):
    """Every ``verdict`` and ``decision`` string of a JSON-ready report."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k in ("verdict", "decision") and isinstance(v, str):
                yield v
            else:
                yield from _verdicts(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _verdicts(v)


def exit_code_for(report: dict) -> int:
    verdicts = set(_verdicts(report))
    if ("fail" in verdicts
            or report.get("results", {}).get("oracle_agrees") is False):
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE if "inconclusive" in verdicts else EXIT_OK


def render_text(report: dict) -> str:
    lines = [f"qcx {report['command']} (seed {report['seed']})"]
    results = report["results"]
    cmd = report["command"]
    if cmd == "index":
        rows = [("function", "value", "case", "convex", "constant")]
        for name, r in results["functions"].items():
            val = r["value"]  # an infinity is a string
            val_s = f"{val:.6g}" if isinstance(val, float) else val
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
                lines.append(f"{prop} witness: {json.dumps(rep['witness'], sort_keys=True)}")
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

class _Parser(argparse.ArgumentParser):
    """argparse that exits :data:`EXIT_CONFIG` on a usage error; its own
    exit code 2 would read as a failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="qcx", description=__doc__)
    ap.add_argument("--version", action="version", version=f"qcx {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("index", "sum-check", "risk-check", "l2-demo"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--seed", type=int, default=0, help="at least 0")
        p.add_argument("--threads", type=int, default=1,
                       help="at least 1; accepted, has no effect")
        if name == "sum-check":
            p.add_argument("--brute", action="store_true",
                           help="also run the product-grid oracle")
        if name in ("index", "sum-check"):
            p.add_argument("--csv", help="write sweep/violation data as CSV")
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:  # numpy seeds its streams with nonnegative integers
        parser.error(f"argument --seed: must be at least 0, got {args.seed}")
    with contextlib.ExitStack() as opened:
        # the output files open before anything is computed, so an
        # unwritable path is a usage error and not a lost result
        files = dict.fromkeys(("out", "csv"))
        for flag in files:
            path = getattr(args, flag, None)
            try:
                if path:
                    files[flag] = opened.enter_context(
                        open(path, "w", encoding="utf-8"))
            except OSError as e:
                parser.error(f"argument --{flag}: cannot write {path!r}: "
                             f"{e.strerror}")
        try:
            if args.threads < 1:
                raise ConfigError(f"--threads must be at least 1, "
                                  f"got {args.threads}")
            cp = load_config(args.config)
            if args.command == "index":
                results = cmd_index(cp, files["csv"])
            elif args.command == "sum-check":
                results = cmd_sum_check(cp, args.brute, files["csv"])
            elif args.command == "risk-check":
                results = cmd_risk_check(cp, args.seed)
            else:
                results = cmd_l2_demo(cp, args.seed)
        except ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return EXIT_CONFIG
        except NotGMeasurableError as e:
            print(f"measure error: {e}", file=sys.stderr)
            return EXIT_FAIL
        except QcxError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_FAIL
        report = _jsonify({
            "schema": SCHEMA,
            "command": args.command,
            "seed": args.seed,
            "results": results,
        })
        sys.stdout.write(render_text(report))
        if files["out"] is not None:
            files["out"].write(render_json(report))
        return exit_code_for(report)


if __name__ == "__main__":
    raise SystemExit(main())
