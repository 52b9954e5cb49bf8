"""The exact break-even index against the bisection it replaced.

``bisect_index`` is the earlier ``compute_index``: the same constant
shortcut, entry certification and cap probe, then a bisection of the
``exp_transform_ok`` predicate down to the requested bracket width. It lives
here only as an oracle, next to ``certify_index_bracket``, which replays
both bracket ends of an index on a fresh table. On every case the exact
value must lie inside the bisection bracket, the new bracket must
re-certify at its lower end and refute at its upper end, and it must be
float-tight.
"""

import math
import warnings

import numpy as np
import pytest

from qcx import families
from qcx.cindex import REL_GAP_TOL, ConvexityIndex, IndexCase, compute_index
from qcx.errors import CapTooSmallWarning
from qcx.extcore import (DEFAULT_ETAS, BoxDomain, CertResult, FunctionSpec,
                         PairTable, Verdict, default_gap_tol)

from test_acceptance import FIXTURES, SEED, _random_suite

#: Hard ceiling on bisection steps; the bracket also stops at width <= tol.
MAX_BISECT_ITERS = 60

ORACLE_TOL = 1e-4
CAP = 1e4
E = math.e


def _bisect(table: PairTable, lo: float, hi: float, sign: int, tol: float,
            probes: list[tuple[float, bool]]) -> tuple[float, float]:
    """Monotone bisection of ``exp_transform_ok`` on [lo, hi].

    The predicate holds at ``lo`` and fails at ``hi``; both stay on the
    correct side throughout.
    """
    for _ in range(MAX_BISECT_ITERS):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        ok = table.exp_transform_ok(mid, sign, REL_GAP_TOL)
        probes.append((mid, ok))
        if ok:
            lo = mid
        else:
            hi = mid
    return lo, hi


def certify_index_bracket(f: FunctionSpec, box: BoxDomain, idx: ConvexityIndex,
                          etas=DEFAULT_ETAS) -> tuple[CertResult, CertResult]:
    """Re-certify both bracket ends of a finite index (consistency check).

    Case I: the transform at the lower end must certify convex and at the
    upper end must refute. Case II: same with concavity. Raises on infinite
    values.
    """
    if idx.bracket is None:
        raise ValueError("bracket is absent for infinite indices")
    table = PairTable(f, box, etas=etas)
    sign = +1 if idx.case is IndexCase.CASE_I else -1
    lo_ok = table.exp_transform_ok(idx.bracket[0], sign, REL_GAP_TOL)
    hi_ok = table.exp_transform_ok(idx.bracket[1], sign, REL_GAP_TOL)

    def mk(ok: bool) -> CertResult:
        return CertResult(Verdict.CERTIFIED if ok else Verdict.REFUTED,
                          tol=REL_GAP_TOL)

    return mk(lo_ok), mk(hi_ok)


def bisect_index(f, box, tol=ORACLE_TOL, lambda_cap=CAP):
    """``(value, bracket)`` by bisection; the bracket is None for +-inf."""
    table = PairTable(f, box)
    if np.ptp(table.grid_values) < 1e-10:
        return math.inf, None
    probes: list[tuple[float, bool]] = []
    _, witness, _ = table.scan("convex", default_gap_tol(f))
    if witness is not None:
        if not table.exp_transform_ok(-lambda_cap, +1, REL_GAP_TOL):
            return -math.inf, None
        lo, hi = _bisect(table, -lambda_cap, 0.0, +1, tol, probes)
        value = 0.5 * (lo + hi)
        if value >= 0.0:
            value = math.nextafter(0.0, -1.0)
        return value, (lo, hi)
    if table.exp_transform_ok(lambda_cap, -1, REL_GAP_TOL):
        return math.inf, None
    lo, hi = _bisect(table, 0.0, lambda_cap, -1, tol, probes)
    return 0.5 * (lo + hi), (lo, hi)


def _index_families():
    """The ``index`` bench families at weights 0.5/1/2 on 257-point grids."""
    cases = []
    for family, lo, hi in [("sqrt", 1.0, 4.0), ("neglog", 1.0, E),
                           ("square", 1.0, 2.0), ("exp", 0.0, 1.0),
                           ("piecewise", 0.0, 4.0), ("negsquare", -1.0, 1.0)]:
        params = ({"xs": (0, 1, 2, 3, 4), "ys": (0, 1, 4, 9, 16)}
                  if family == "piecewise" else {})
        for w in (0.5, 1.0, 2.0):
            f = families.make_function(family, weight=w, **params)
            cases.append((f, BoxDomain.of(lo, hi, 257)))
    return cases


def _two_d():
    quad = FunctionSpec(2, lambda p: p[:, 0] ** 2 + 2 * p[:, 1] ** 2
                        + p[:, 0] * p[:, 1], name="quad2")
    cases = [(quad, BoxDomain.of((0.5, 0.5), (2.0, 2.0), (21, 21)))]
    for a in (0.5, 2.0):
        f = FunctionSpec(2, lambda p, a=a: np.sqrt(p[:, 0]) + a * np.sqrt(p[:, 1]),
                         name=f"sqrt+{a:g}sqrt")
        cases.append((f, BoxDomain.of((1.0, 1.0), (4.0, 4.0), (21, 21))))
    # A finite case-I sum (harmonic rule: 1 / (0.5 - 1) = -2), on a dyadic
    # grid; see test_clipped_local_pairs_are_skipped for a non-dyadic one.
    f = FunctionSpec(2, lambda p: np.sqrt(p[:, 0]) - 0.5 * np.log(p[:, 1]),
                     name="sqrt+0.5neglog")
    cases.append((f, BoxDomain.of((1.0, 1.0), (5.0, 3.0), (17, 17))))
    return cases


CASES = {
    "fixtures": lambda: [(f, box) for _, f, box, _ in FIXTURES],
    "index-families": _index_families,
    "random-suite": lambda: [(f, BoxDomain.of(-1.0, 1.0, 65))
                             for f in _random_suite(np.random.default_rng(SEED), 130)],
    "two-d": _two_d,
}


@pytest.mark.parametrize("group", sorted(CASES))
def test_exact_index_inside_bisection_bracket(group):
    finite = 0
    for f, box in CASES[group]():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CapTooSmallWarning)
            want, bracket = bisect_index(f, box)
            ix = compute_index(f, box, tol=ORACLE_TOL)
        if bracket is None:
            assert ix.value == want and ix.bracket is None, f.name
            assert ix.binding is None
            continue
        finite += 1
        assert bracket[0] <= ix.value <= bracket[1], (f.name, ix.value, bracket)
        lo, hi = ix.bracket
        assert ix.value == lo and hi == math.nextafter(lo, math.inf)
        assert hi - lo <= 1e-9 * max(1.0, abs(ix.value)), (f.name, lo, hi)
        lo_res, hi_res = certify_index_bracket(f, box, ix)
        assert lo_res.certified and hi_res.refuted, f.name
    assert finite > 0


def test_case_one_without_a_failing_pair():
    """Refuted by the absolute gap scan, yet the normalized transform never
    fails inside the cap: the index is the negative float nearest 0."""
    f = FunctionSpec(1, lambda p: 10 * p[:, 0] - 1e-5 * np.exp(-4 * p[:, 0] ** 2))
    box = BoxDomain.of(-1.0, 1.0, 65)
    want, bracket = bisect_index(f, box)
    ix = compute_index(f, box)
    assert ix.value == -math.ulp(0.0) and ix.bracket == (ix.value, 0.0)
    assert bracket[0] <= ix.value <= bracket[1]
    assert ix.binding is None
    assert ix.probes[-1] == (ix.value, True)


def test_clipped_local_pairs_are_skipped():
    """A local step clipped back onto its base point is no pair.

    On this non-dyadic grid the mix of a boundary point with itself rounds
    an ulp away from the point; kept as a pair, it read as a strict maximum
    and the index dropped to -inf at the cap.
    """
    f = FunctionSpec(2, lambda p: np.sqrt(p[:, 0]) - 0.5 * np.log(p[:, 1]),
                     name="sqrt+0.5neglog")
    box = BoxDomain.of((1.0, 1.0), (4.0, E), (21, 21))
    table = PairTable(f, box)
    assert not (table.a == table.b).all(axis=1).any()
    want, bracket = bisect_index(f, box)
    ix = compute_index(f, box, tol=ORACLE_TOL)
    assert math.isfinite(ix.value) and bracket is not None
    assert bracket[0] <= ix.value <= bracket[1], (ix.value, bracket)
    assert ix.binding is not None and ix.binding.x1 != ix.binding.x2
