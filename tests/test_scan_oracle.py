"""The streamed gap scan against the materialised scan it replaced.

``oracle_scan`` is the earlier scan: every pair materialised at once by
``_pair_arrays`` (``np.triu_indices`` plus the local pairs), both endpoints
and every mix evaluated on the whole arrays, and one full-array pass per
weight. ``oracle_certify`` adds the earlier witness replay through the
scalar extended-real helpers ``ext_mul``, ``ext_sub`` and ``ext_combo``
(``0 * inf = 0``, a same-sign ``inf - inf`` flagged as degenerate). They
live here only as oracles. The one change
carried over from the streamed generator is that a clipped local step that
lands back on its base point is skipped.

The streamed certifiers and ``PairTable.scan`` must return exactly what the
oracle returns: verdict, witness bits, violation and the degenerate flag,
for every gap form, at the default block size and at three sizes of a few
pairs, so that the worst pair and its ties cross block boundaries.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from qcx import extcore, families
from qcx.decomp import DecomposableSum, brute_force_sum_quasiconvex
from qcx.extcore import (DEFAULT_ETAS, LOCAL_SCALES, BoxDomain, CertResult,
                         FunctionSpec, PairTable, Verdict, Witness,
                         certify_concave, certify_convex, certify_quasiconvex,
                         default_gap_tol)

from test_acceptance import FIXTURES

E = math.e
KINDS = ("convex", "concave", "quasiconvex")
CERTIFIERS = {"convex": certify_convex, "concave": certify_concave,
              "quasiconvex": certify_quasiconvex}


def ext_mul(a: float, b: float) -> float:
    """Product under the convention ``0 * (+-inf) = 0``."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def ext_sub(a: float, b: float) -> tuple[float, bool]:
    """``(a - b, degenerate)``: a same-sign ``inf - inf`` has no value, so it
    reads ``(+inf, True)``."""
    if math.isinf(a) and math.isinf(b) and (a > 0) == (b > 0):
        return math.inf, True
    return a - b, False


def ext_combo(eta: float, a: float, b: float) -> float:
    """``eta*a + (1-eta)*b`` under ``0 * inf = 0``; opposite infinities
    cannot occur for proper functions (never ``-inf``) and raise."""
    left = ext_mul(eta, a)
    right = ext_mul(1.0 - eta, b)
    if math.isinf(left) and math.isinf(right) and (left > 0) != (right > 0):
        raise ValueError("combination of opposite infinities is undefined")
    return left + right


def test_ext_mul_zero_times_infinity():
    assert ext_mul(0.0, math.inf) == 0.0
    assert ext_mul(0.0, -math.inf) == 0.0
    assert ext_mul(math.inf, 0.0) == 0.0


def test_ext_sub_degeneracy():
    assert ext_sub(math.inf, math.inf) == (math.inf, True)
    assert ext_sub(-math.inf, -math.inf) == (math.inf, True)
    assert ext_sub(math.inf, 1.0) == (math.inf, False)
    assert ext_sub(1.0, math.inf) == (-math.inf, False)
    assert ext_sub(3.0, 1.0) == (2.0, False)


def test_ext_combo_weights():
    assert ext_combo(0.0, math.inf, 2.0) == 2.0
    assert ext_combo(1.0, math.inf, 2.0) == math.inf
    assert ext_combo(0.5, math.inf, 2.0) == math.inf
    assert ext_combo(0.25, 4.0, 8.0) == pytest.approx(7.0)


def _pair_arrays(box: BoxDomain) -> tuple[np.ndarray, np.ndarray]:
    """All grid pairs plus per-point geometric local pairs along each axis."""
    pts = box.points()
    i, j = np.triu_indices(len(pts), k=1)
    first = [pts[i]]
    second = [pts[j]]
    for axis, ax in enumerate(box.axes()):
        h = (ax[-1] - ax[0]) / (len(ax) - 1)
        for k in range(LOCAL_SCALES):
            d = h / 2 ** k
            up = pts.copy()
            up[:, axis] = np.minimum(up[:, axis] + d, ax[-1])
            moved = up[:, axis] != pts[:, axis]
            first.append(pts[moved])
            second.append(up[moved])
            down = pts.copy()
            down[:, axis] = np.maximum(down[:, axis] - d, ax[0])
            moved = down[:, axis] != pts[:, axis]
            first.append(down[moved])
            second.append(pts[moved])
    return np.concatenate(first), np.concatenate(second)


def oracle_scan(g: FunctionSpec, box: BoxDomain, kind: str, tol: float):
    """``(worst_gap, witness | None, degenerate_seen)`` in one full pass."""
    a, b = _pair_arrays(box)
    worst, arg, degen = -math.inf, None, False
    with np.errstate(all="ignore"):
        fa = g(a)
        fb = g(b)
        for eta in DEFAULT_ETAS:
            fm = g(eta * a + (1 - eta) * b)
            if kind == "quasiconvex":
                gap = fm - np.maximum(fa, fb)
            elif kind == "convex":
                gap = fm - (eta * fa + (1 - eta) * fb)
            else:
                gap = (eta * fa + (1 - eta) * fb) - fm
            bad = np.isnan(gap)
            if bad.any():
                degen = True
                gap = np.where(bad, -math.inf, gap)
            k = int(np.argmax(gap))
            if gap[k] > worst:
                worst, arg = float(gap[k]), (k, eta)
    witness = None
    if arg is not None and worst > tol:
        k, eta = arg
        witness = Witness(x1=tuple(float(v) for v in a[k]),
                          x2=tuple(float(v) for v in b[k]),
                          eta=float(eta), violation=worst)
    return worst, witness, degen


def oracle_certify(g: FunctionSpec, box: BoxDomain, kind: str) -> CertResult:
    tol = default_gap_tol(g)
    _, witness, degen = oracle_scan(g, box, kind, tol)
    if witness is None:
        return CertResult(Verdict.CERTIFIED, None, tol, degen)
    x1, x2, eta = np.array(witness.x1), np.array(witness.x2), witness.eta
    v1, v2, vm = (float(g(x.reshape(1, -1))[0])
                  for x in (x1, x2, eta * x1 + (1 - eta) * x2))
    if kind == "quasiconvex":
        gap, wdegen = ext_sub(vm, max(v1, v2))
    else:
        gap, wdegen = ext_sub(vm, ext_combo(eta, v1, v2))
        if kind == "concave" and not wdegen:
            gap = -gap
    if wdegen or gap <= tol:
        return CertResult(Verdict.INCONCLUSIVE, witness, tol, degen)
    return CertResult(Verdict.REFUTED, witness, tol, degen)


def _half_square():
    """x^2 on [-1, 0], +inf elsewhere: degenerate pairs on the +inf side."""
    return FunctionSpec(1, lambda p: np.where(p[:, 0] <= 0.0, p[:, 0] ** 2,
                                              np.inf), name="halfsquare")


def _ties():
    """1 at two off-grid mixes of local pairs near 0: many tied gaps."""
    return FunctionSpec(1, lambda p: np.where(
        (p[:, 0] == 2.0 ** -11) | (p[:, 0] == 2.0 ** -9), 1.0, 0.0), name="ties")


def _sum(*coords):
    return DecomposableSum(tuple(coords)).as_function()


CASES = {
    **{f"acceptance-{name}": (f, box) for name, f, box, _ in FIXTURES},
    "square": (families.square(), BoxDomain.of(-1, 1, 33)),
    "negsquare": (families.negsquare(), BoxDomain.of(-1, 1, 17)),
    "sqrt": (families.sqrt(), BoxDomain.of(1, 4, 33)),
    "abs": (FunctionSpec(1, lambda p: np.abs(p[:, 0]), name="abs"),
            BoxDomain.of(-1, 1, 17)),
    "exp": (families.exp(), BoxDomain.of(-2, 2, 17)),
    "halfsquare": (_half_square(), BoxDomain.of(-1, 1, 17)),
    "ties": (_ties(), BoxDomain.of(0, 8, 9)),
    "sqrt-2log": (FunctionSpec(2, lambda p: np.sqrt(p[:, 0])
                               - 2.0 * np.log(p[:, 1]), name="sqrt-2log"),
                  BoxDomain.of((1, 1), (4, E), (15, 15))),
    "sum2": (_sum((families.sqrt(), BoxDomain.of(1, 4, 9)),
                  (families.neglog(), BoxDomain.of(1, E, 9))),
             BoxDomain.of((1, 1), (4, E), (11, 9))),
    "sum3": (_sum((families.sqrt(), BoxDomain.of(1, 4, 5)),
                  (families.make_function("neglog", weight=1.5),
                   BoxDomain.of(1, E, 5)),
                  (families.square(), BoxDomain.of(1, 2, 5))),
             BoxDomain.of((1, 1, 1), (4, E, 2), (5, 6, 5))),
}


@functools.lru_cache(maxsize=None)
def _oracle(case: str, kind: str):
    f, box = CASES[case]
    return oracle_certify(f, box, kind), oracle_scan(f, box, kind,
                                                     default_gap_tol(f))


def _few(box: BoxDomain) -> int:
    """A block of about 1/20 of the grid pairs, at least 3."""
    n = math.prod(box.m)
    return max(3, n * (n - 1) // 40)


DEFAULT_BLOCK = extcore.SCAN_BLOCK


def _set_block(monkeypatch, box: BoxDomain, block: str, split: int):
    """Set ``SCAN_BLOCK`` for a setting: the default size or a few pairs,
    divided by ``split``."""
    size = DEFAULT_BLOCK if block == "default" else _few(box)
    monkeypatch.setattr(extcore, "SCAN_BLOCK", max(3, size // split))


#: Default blocks hold every grid pair of most cases; few-pair blocks of
#: about 1/20, 1/40 and 1/60 of the grid pairs split each case into a few
#: dozen blocks and more.
SETTINGS = [("default", 1), ("few", 1), ("few", 2), ("few", 3)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("block,split", SETTINGS)
def test_streamed_certifier_matches_oracle(block, kind, split, monkeypatch):
    refuted = 0
    for case, (f, box) in CASES.items():
        _set_block(monkeypatch, box, block, split)
        want, _ = _oracle(case, kind)
        got = CERTIFIERS[kind](f, box)
        assert got == want, (case, got, want)
        refuted += got.refuted
    assert refuted >= 4


@pytest.mark.parametrize("block,split", SETTINGS)
def test_table_scan_matches_oracle(block, split, monkeypatch):
    for case, (f, box) in CASES.items():
        _set_block(monkeypatch, box, block, split)
        table = PairTable(f, box)
        for kind in KINDS:
            want = _oracle(case, kind)[1]
            got = table.scan(kind, default_gap_tol(f))
            assert got == want, (case, kind, got, want)


def test_table_pairs_match_oracle(monkeypatch):
    """The blocks build the same pairs in the same order, at the default
    block size and at a few pairs: grid pairs, then up/down local steps."""
    for case, (f, box) in CASES.items():
        a, b = _pair_arrays(box)
        for size in (DEFAULT_BLOCK, _few(box)):
            monkeypatch.setattr(extcore, "SCAN_BLOCK", size)
            table = PairTable(f, box)
            built = [table._build(block) for block in table.blocks]
            assert [len(part[0]) for part in built] == [
                stop - start for start, stop in table.blocks], case
            ta, tb, fa, fb = map(np.concatenate, zip(*built))
            assert np.array_equal(ta, a) and np.array_equal(tb, b), case
            assert np.array_equal(fa, f(a)) and np.array_equal(fb, f(b)), case
            assert len(table.a) == len(a)


@pytest.mark.parametrize("coords,certified", [
    (((families.sqrt(), BoxDomain.of(1, 4, 41)),
      (families.make_function("neglog", weight=0.7), BoxDomain.of(1, E, 41))),
     True),
    (((families.sqrt(), BoxDomain.of(1, 4, 13)),
      (families.make_function("neglog", weight=0.7), BoxDomain.of(1, E, 13)),
      (families.square(), BoxDomain.of(1, 2, 13))), False),
], ids=["41x41", "13x13x13"])
def test_brute_force_memory_is_bounded_by_the_block(coords, certified):
    """1.4 M and 2.4 M grid pairs scan in a few MB: chunks of whole rows
    hold at most 4 * SCAN_BLOCK entries, where a whole N x N matrix of mix
    values would take 22 and 38 MB."""
    tracemalloc.start()
    try:
        res = brute_force_sum_quasiconvex(DecomposableSum(coords),
                                          pair_budget=2_500_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.certified == certified and res.refuted != certified
    assert peak < 4 * 2 ** 20, peak / 2 ** 20
