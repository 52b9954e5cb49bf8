"""The exact break-even index against the code it replaced.

``CachedPairTable`` is the earlier ``PairTable``: every pair's endpoints and
all seven mix values cached at once, and each pass a full-array pass over
the cache. ``oracle_index`` is ``compute_index`` on that table. The streamed
index must equal it field for field (value, bracket, binding pair and
probes) for any block size.

``bisect_index`` is the ``compute_index`` before the exact solve: the same
constant shortcut, entry certification and cap probe, then a bisection of
the ``exp_transform_ok`` predicate down to the requested bracket width.
Both live here only as oracles, next to ``certify_index_bracket``, which
replays both bracket ends of an index on a fresh table. On every case the
exact value must lie inside the bisection bracket, the new bracket must
re-certify at its lower end and refute at its upper end, and it must be
float-tight.

``unmasked_prune`` is the earlier ``_prune`` of the whole-table probe,
which computes every pair's minimizer; the cached table prunes with it, and
the masked ``_prune`` must keep the same pairs with the same bits.
"""

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qcx import families
from qcx.cindex import REL_GAP_TOL, ConvexityIndex, IndexCase, compute_index
from qcx.errors import CapTooSmallWarning
from qcx.extcore import (DEFAULT_ETAS, SOLVE_BATCH, BoxDomain, BreakEven,
                         BreakEvenSeed, CertResult, FunctionSpec, PairTable,
                         Verdict, Witness, _cap_violation, _crossing_estimate,
                         _exp_terms, _exp_violation, _prune,
                         _rising, _smallest, default_gap_tol)

from test_acceptance import FIXTURES, SEED, _random_suite
from test_scan_oracle import _pair_arrays, _set_block, oracle_scan

#: Hard ceiling on bisection steps; the bracket also stops at width <= tol.
MAX_BISECT_ITERS = 60

ORACLE_TOL = 1e-4
CAP = 1e4
E = math.e


def unmasked_prune(da, db, eta: float, t: float, sign: int, tol_rel: float,
                   lam_cap: float):
    """The earlier ``_prune``: every pair's minimizer ``t_min`` is computed.

    Returns the positions (ascending) of the pairs that can still beat
    ``t``, a ``t`` at which each fails and their crossing estimates.
    """
    fail = _exp_violation(da, db, eta, -sign * t, sign, tol_rel)
    pos = np.flatnonzero(fail)
    t_fail = np.full(len(pos), t)
    if sign > 0:
        t_min = db * (eta - 1)
        t_min /= eta * da
        np.log(t_min, out=t_min)
        t_min /= da - db
        beyond = np.flatnonzero((t_min > t) & (t_min < lam_cap) & ~fail)
        t_min = t_min[beyond]
        hit = _exp_violation(da[beyond], db[beyond], eta, -t_min, sign, tol_rel)
        pos = np.concatenate([pos, beyond[hit]])
        t_fail = np.concatenate([t_fail, t_min[hit]])
        order = np.argsort(pos, kind="stable")
        pos, t_fail = pos[order], t_fail[order]
    key = _crossing_estimate(da[pos], db[pos], eta, sign, tol_rel)
    return pos, t_fail, key


class CachedPairTable:
    """The earlier pair table: endpoints and mix values cached, one chunk."""

    def __init__(self, g: FunctionSpec, box: BoxDomain):
        self.g, self.box, self.etas = g, box, DEFAULT_ETAS
        self.grid_values = g(box.points())
        self.a, self.b = _pair_arrays(box)
        with np.errstate(all="ignore"):
            self.fa, self.fb = g(self.a), g(self.b)
            self.fm = [g(eta * self.a + (1 - eta) * self.b) for eta in self.etas]

    def scan(self, kind: str, tol: float):
        return oracle_scan(self.g, self.box, kind, tol)

    def _diffs(self, which: int, idx):
        fm = self.fm[which][idx]
        return self.fa[idx] - fm, self.fb[idx] - fm

    def exp_transform_ok(self, lam: float, sign: int, tol_rel: float) -> bool:
        if lam == 0.0:
            return True
        with np.errstate(all="ignore"):
            return not any(
                _exp_violation(*self._diffs(which, slice(None)), eta, lam,
                               sign, tol_rel).any()
                for which, eta in enumerate(self.etas))

    def exp_break_even(self, sign: int, tol_rel: float,
                       lam_cap: float) -> BreakEven:
        t_hat = lam_cap if sign < 0 else math.ulp(0.0)
        best = None  # (lam_pass, which, idx, t_pass, t_fail)
        probes: list[tuple[float, bool]] = []
        everything = np.arange(len(self.a))
        with np.errstate(all="ignore"):
            cands = [_smallest(_crossing_estimate(*self._diffs(which, everything),
                                                  eta, sign, tol_rel),
                               SOLVE_BATCH)
                     for which, eta in enumerate(self.etas)]
        while True:
            found = []
            pool = [everything] * len(self.etas) if cands is None else cands
            for which, idx in enumerate(pool):
                with np.errstate(all="ignore"):
                    pos, t_fail, key = unmasked_prune(
                        *self._diffs(which, idx), self.etas[which], t_hat,
                        sign, tol_rel, lam_cap)
                found.append((idx[pos], t_fail, key))
            if cands is None:
                ok = not any((t_fail == t_hat).any() for _, t_fail, _ in found)
                probes.append((-sign * t_hat, ok))
            if not any(len(f[0]) for f in found):
                if cands is None:
                    break
                cands = None
                continue
            picks, cands = [], []
            for which, (idx, t_fail, key) in enumerate(found):
                take = _smallest(key, SOLVE_BATCH)
                rest = np.ones(len(idx), dtype=bool)
                rest[take] = False
                picks.append((which, idx[take], t_fail[take]))
                cands.append(idx[rest])
            best = self._solve(picks, best, sign, tol_rel, lam_cap)
            t_hat = best[3]
        if best is None:
            return BreakEven(-t_hat, 0.0, None, tuple(probes))
        lam_pass, which, idx, _, t_fail = best
        hi = -sign * t_fail
        hi_ok = self.exp_transform_ok(hi, sign, tol_rel)
        probes.append((hi, hi_ok))
        assert not hi_ok
        da, db = self._diffs(which, np.array([idx]))
        eta = self.etas[which]
        with np.errstate(all="ignore"):
            excess = sign * (1.0 - np.add(*_exp_terms(da, db, eta, -sign * t_fail)))
        binding = Witness(x1=tuple(float(v) for v in self.a[idx]),
                          x2=tuple(float(v) for v in self.b[idx]),
                          eta=float(eta), violation=float(excess[0]))
        return BreakEven(lam_pass, hi, binding, tuple(probes))

    def _solve(self, picks, best, sign: int, tol_rel: float, lam_cap: float):
        which = np.concatenate([np.full(len(i), w) for w, i, _ in picks])
        idx = np.concatenate([i for _, i, _ in picks])
        t_fail = np.concatenate([t for _, _, t in picks])
        eta = np.asarray(self.etas)[which]
        da, db = (np.concatenate(d) for d in
                  zip(*(self._diffs(w, i) for w, i, _ in picks)))
        pass_bits = np.full(len(idx), 0.0 if sign < 0 else lam_cap).view(np.int64)
        fail_bits = t_fail.view(np.int64).copy()
        with np.errstate(all="ignore"):
            while True:
                step = fail_bits - pass_bits
                if not (np.abs(step) > 1).any():
                    break
                mid = pass_bits + step // 2
                bad = _exp_violation(da, db, eta, -sign * mid.view(np.float64),
                                     sign, tol_rel)
                fail_bits = np.where(bad, mid, fail_bits)
                pass_bits = np.where(bad, pass_bits, mid)
        t_pass = pass_bits.view(np.float64)
        lam_pass = -sign * t_pass
        k = np.lexsort((idx, which, lam_pass))[0]
        cand = (float(lam_pass[k]), int(which[k]), int(idx[k]),
                float(t_pass[k]), float(fail_bits.view(np.float64)[k]))
        if best is None or cand[:3] < best[:3]:
            return cand
        return best


def oracle_index(f: FunctionSpec, box: BoxDomain,
                 lambda_cap: float = CAP) -> ConvexityIndex:
    """``compute_index`` on the cached table, without the cap warnings."""
    table = CachedPairTable(f, box)
    if np.ptp(table.grid_values) < 1e-10:
        return ConvexityIndex(math.inf, None, IndexCase.CASE_II, lambda_cap,
                              constant_shortcut=True)
    _, witness, _ = table.scan("convex", default_gap_tol(f))
    if witness is not None:
        case, sign, flat = IndexCase.CASE_I, +1, -math.inf
    else:
        case, sign, flat = IndexCase.CASE_II, -1, math.inf
    ok = table.exp_transform_ok(-sign * lambda_cap, sign, REL_GAP_TOL)
    if ok == (flat > 0):  # the cap probe did not flip
        return ConvexityIndex(flat, None, case, lambda_cap, cap_probe=True,
                              probes=((-sign * lambda_cap, ok),))
    be = table.exp_break_even(sign, REL_GAP_TOL, lambda_cap)
    return ConvexityIndex(be.lo, (be.lo, be.hi), case, lambda_cap,
                          binding=be.binding,
                          probes=((-sign * lambda_cap, ok),) + be.probes)


def _bisect(table, lo: float, hi: float, sign: int, tol: float,
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


def certify_index_bracket(f: FunctionSpec, box: BoxDomain, idx: ConvexityIndex
                          ) -> tuple[CertResult, CertResult]:
    """Re-certify both bracket ends of a finite index (consistency check).

    Case I: the transform at the lower end must certify convex and at the
    upper end must refute. Case II: same with concavity. Raises on infinite
    values.
    """
    if idx.bracket is None:
        raise ValueError("bracket is absent for infinite indices")
    table = PairTable(f, box)
    sign = +1 if idx.case is IndexCase.CASE_I else -1
    lo_ok = table.exp_transform_ok(idx.bracket[0], sign, REL_GAP_TOL)
    hi_ok = table.exp_transform_ok(idx.bracket[1], sign, REL_GAP_TOL)

    def mk(ok: bool) -> CertResult:
        return CertResult(Verdict.CERTIFIED if ok else Verdict.REFUTED,
                          tol=REL_GAP_TOL)

    return mk(lo_ok), mk(hi_ok)


def bisect_index(f, box, tol=ORACLE_TOL, lambda_cap=CAP):
    """``(value, bracket)`` by bisection; the bracket is None for +-inf."""
    table = CachedPairTable(f, box)
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
    for block in table.blocks:
        a, b, _, _ = table._build(block)
        assert not (a == b).all(axis=1).any(), block
    want, bracket = bisect_index(f, box)
    ix = compute_index(f, box, tol=ORACLE_TOL)
    assert math.isfinite(ix.value) and bracket is not None
    assert bracket[0] <= ix.value <= bracket[1], (ix.value, bracket)
    assert ix.binding is not None and ix.binding.x1 != ix.binding.x2


#: Default blocks and half of them, and blocks of about 1/20 and 1/40 of the
#: grid pairs.
SETTINGS = [("default", 1), ("default", 2), ("few", 1), ("few", 2)]
STREAMED_GROUPS = ("fixtures", "random-suite", "two-d")


@functools.lru_cache(maxsize=None)
def _oracle_indices(group: str) -> list[ConvexityIndex]:
    return [oracle_index(f, box) for f, box in CASES[group]()]


@pytest.mark.parametrize("group", STREAMED_GROUPS)
@pytest.mark.parametrize("block,split", SETTINGS)
def test_streamed_index_matches_cached_oracle(group, block, split,
                                              monkeypatch):
    """Value, bracket, binding pair and probes equal the cached table's."""
    finite = 0
    for (f, box), want in zip(CASES[group](), _oracle_indices(group)):
        _set_block(monkeypatch, box, block, split)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CapTooSmallWarning)
            got = compute_index(f, box)
        assert got == want, (f.name, got, want)  # probes included
        finite += got.binding is not None
    assert finite > 0


@pytest.mark.parametrize("f,box", [
    (families.neglog(), BoxDomain.of(1.0, E, 1025)),
    (FunctionSpec(2, lambda p: np.sqrt(p[:, 0]) - 0.5 * np.log(p[:, 1]),
                  name="sqrt+0.5neglog"),
     BoxDomain.of((1.0, 1.0), (4.0, E), (41, 41))),
], ids=["neglog-1025", "sqrt+0.5neglog-41x41"])
def test_index_memory_is_bounded_by_the_block(f, box):
    """525 k and 840 k pairs: a few MB, not the 70 MB and 213 MB that a
    cached table of every pair and mix held."""
    tracemalloc.start()
    try:
        ix = compute_index(f, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ix.binding is not None
    assert peak < 8 * 2 ** 20, peak / 2 ** 20


#: The lambda cap and a ladder of negative lambdas for the masked cap test.
CAP_LADDER = (CAP, 1e3, 64.0, 3.0, 1.0, 0.25, 1e-3)


@pytest.mark.parametrize("group", STREAMED_GROUPS)
def test_cap_mask_matches_the_predicate_pair_for_pair(group):
    """The masked cap test flags exactly the pairs ``_exp_violation`` flags
    at ``lam = -L``, on every block and weight; the mask does skip pairs."""
    skipped = flagged = 0
    for f, box in CASES[group]():
        table = PairTable(f, box)
        for block in table.blocks:
            for eta, da, db in table._diffs(block):
                for cap in CAP_LADDER:
                    with np.errstate(all="ignore"):
                        want = _exp_violation(da, db, eta, -cap, +1, REL_GAP_TOL)
                        got = _cap_violation(da, db, eta, cap, REL_GAP_TOL)
                        skipped += int(np.count_nonzero(
                            (cap * da >= math.log(4 / eta))
                            | (cap * db >= math.log(4 / (1 - eta)))))
                    assert np.array_equal(got, want), (f.name, block, eta, cap)
                    flagged += int(want.sum())
    assert skipped > 0 and flagged > 0


def test_cap_mask_at_its_threshold():
    """Differences a few floats either side of the skip threshold, with
    infinite and NaN partners, flag the same pairs as the plain test."""
    cap = CAP
    for eta in DEFAULT_ETAS:
        edge = math.log(4 / eta) / cap
        near = [edge]
        for _ in range(4):
            near += [math.nextafter(near[-1], math.inf)]
            near.insert(0, math.nextafter(near[0], -math.inf))
        partners = [-math.inf, -1.0, -1e-300, 0.0, -edge, math.inf, math.nan]
        da, db = (np.array(v) for v in zip(*[(x, y) for x in near + partners
                                             for y in partners + near]))
        for a, b, w in ((da, db, eta), (db, da, 1 - eta)):
            with np.errstate(all="ignore"):
                want = _exp_violation(a, b, w, -cap, +1, REL_GAP_TOL)
                got = _cap_violation(a, b, w, cap, REL_GAP_TOL)
            assert np.array_equal(got, want), eta


def _prunes_alike(da, db, eta, t, sign):
    """Masked and unmasked pruning keep the same pairs with the same bits.
    Returns how many pairs the mask spared the minimizer for."""
    with np.errstate(all="ignore"):
        got = _prune(da, db, eta, t, sign, REL_GAP_TOL, CAP, np.arange(len(da)))
        pos, t_fail, key = unmasked_prune(da, db, eta, t, sign, REL_GAP_TOL, CAP)
        spared = 0 if sign < 0 else int(np.count_nonzero(
            _rising(da, db, *_exp_terms(da, db, eta, -t))))
    for g, w in zip(got, (pos, da[pos], db[pos], t_fail, key)):
        assert np.array_equal(g, w, equal_nan=True), (eta, t, sign)
    return spared


#: Differences from the smallest subnormal to the largest float.
MAGNITUDES = (5e-324, 1e-310, 2.0 ** -1000, 1e-300, 1e-8, 0.3, 1.0, 7.0,
              700.0, 1e8, 1e300, 1.7e308)


def test_probe_mask_matches_the_unmasked_prune_on_adversarial_pairs():
    """Every sign pattern and scale of differences, infinite and NaN ones,
    at ``t`` from the smallest float to past the cap (``t d`` overflows
    ``exp``), and at a few floats either side of each pair's minimizer."""
    values = [0.0, -0.0, math.inf, -math.inf, math.nan]
    values += [s * m for m in MAGNITUDES for s in (1.0, -1.0)]
    da, db = (np.array(v) for v in zip(*[(x, y) for x in values for y in values]))
    spared = 0
    for eta in DEFAULT_ETAS:
        for t in (math.ulp(0.0), 1e-300, 1e-8, 0.5, 1.0, 2.0, 700.0, CAP, 1e300):
            for sign in (+1, -1):
                spared += _prunes_alike(da, db, eta, t, sign)
    assert spared > 0
    rng = np.random.default_rng(SEED)
    scale = 10.0 ** rng.uniform(-300, 300, (2, 40))
    pairs = [(a, -b) for a, b in zip(*scale)] + [(-a, b) for a, b in zip(*scale)]
    pairs += [(1.0, -1e-300), (-1.0, 1e-300), (-8e300, 1e-10), (1e-310, -2e-310)]
    for eta in DEFAULT_ETAS[::3]:
        for a, b in pairs:
            da, db = np.array([a]), np.array([b])
            with np.errstate(all="ignore"):
                t_min = float(np.log(b * (eta - 1) / (eta * a)) / (a - b))
            if not 0 < t_min < math.inf:
                continue
            near = [t_min]
            for _ in range(4):
                near += [math.nextafter(near[-1], math.inf)]
                near.insert(0, math.nextafter(near[0], 0.0))
            for t in near:
                _prunes_alike(da, db, eta, t, +1)
    # pairs whose dip ``s^2 / 2q`` (mean s, second moment q) lies near the
    # tolerance, probed just below their failing interval: they pass at
    # ``t``, fail at their minimizer and keep it as the failing ``t``
    beyond = 0
    for eta in DEFAULT_ETAS:
        for scale in (1e-3, 1.0, 1e3):
            for c in np.linspace(1.40, 1.60, 9):
                da = np.array([scale])
                db = (-c * 1e-6 * scale - eta * da) / (1 - eta)
                t_min = c * 1e-6 / (scale * scale * (eta + (1 - eta) * eta ** 2
                                                     / (1 - eta) ** 2))
                for k in range(1, 40):
                    t = t_min * (1 - 2.0 ** -k)
                    _prunes_alike(da, db, eta, t, +1)
                    with np.errstate(all="ignore"):
                        kept = _prune(da, db, eta, t, +1, REL_GAP_TOL, CAP, np.arange(1))
                    beyond += bool((kept[3] > t).any())
    assert beyond > 0


@pytest.mark.parametrize("family,lo,hi", [("sqrt", 1.0, 4.0), ("exp", 0.0, 1.0),
                                          ("piecewise", 0.0, 4.0)])
def test_probe_mask_matches_the_unmasked_prune_on_tables(family, lo, hi):
    """Every block and weight of three tables, at the final extremum and the
    upper bracket end of the index, in the index's case and in case I."""
    params = ({"xs": (0, 1, 2, 3, 4), "ys": (0, 1, 4, 9, 16)}
              if family == "piecewise" else {})
    f, box = families.make_function(family, **params), BoxDomain.of(lo, hi, 257)
    ix = compute_index(f, box)
    table = PairTable(f, box)
    sign = +1 if ix.case is IndexCase.CASE_I else -1
    spared = 0
    for block in table.blocks:
        for eta, da, db in table._diffs(block):
            for t in (abs(ix.bracket[0]), abs(ix.bracket[1])):
                for s in {sign, +1}:
                    spared += _prunes_alike(da, db, eta, t, s)
    assert spared > 0


def _count_passes(monkeypatch):
    """Record every block build, and the builds each ``exp_transform_ok``
    call made."""
    builds, probes = [], []
    build, probe = PairTable._build, PairTable.exp_transform_ok

    def counted_build(self, block):
        builds.append(block)
        return build(self, block)

    def counted_probe(self, *args):
        before = len(builds)
        ok = probe(self, *args)
        probes.append(len(builds) - before)
        return ok

    monkeypatch.setattr(PairTable, "_build", counted_build)
    monkeypatch.setattr(PairTable, "exp_transform_ok", counted_probe)
    return builds, probes


def test_case_one_block_passes(monkeypatch):
    """Case I reads every block in the entry pass, which scans, seeds the
    solve and makes the cap probe, and in each whole-table probe; then it
    rebuilds the binding pair's block for the upper end and the pair for the
    witness. Its first gap above tolerance lies in block 0, weight 0, so the
    entry pass rebuilds nothing."""
    f, box = families.sqrt(), BoxDomain.of(1.0, 4.0, 1025)
    blocks = PairTable(f, box).blocks
    builds, probes = _count_passes(monkeypatch)
    ix = compute_index(f, box)
    assert ix.case is IndexCase.CASE_I and ix.binding is not None
    whole = len(ix.probes) - 2  # not the cap probe, not the upper end
    assert whole >= 1 and ix.probes[0] == (-CAP, True)
    assert len(builds) == (1 + whole) * len(blocks) + 2
    assert builds[:len(blocks)] == blocks
    idx = builds[-1][0]
    assert builds[-1] == (idx, idx + 1)
    assert builds[-2] == next(b for b in blocks if idx < b[1])
    assert probes == []


def test_case_two_block_passes(monkeypatch):
    """Case II reads every block in the entry pass, the first block in the
    cap probe, every block in each whole-table probe, then the binding
    pair's block and the pair."""
    f, box = families.neglog(), BoxDomain.of(1.0, E, 1025)
    blocks = PairTable(f, box).blocks
    builds, probes = _count_passes(monkeypatch)
    ix = compute_index(f, box)
    assert ix.case is IndexCase.CASE_II and ix.binding is not None
    whole = len(ix.probes) - 2  # not the cap probe, not the upper end
    assert whole >= 1 and ix.probes[0] == (CAP, False)
    assert len(builds) == (1 + whole) * len(blocks) + 3
    assert builds[:len(blocks) + 1] == blocks + blocks[:1]
    idx = builds[-1][0]
    assert builds[-1] == (idx, idx + 1)
    assert builds[-2] == next(b for b in blocks if idx < b[1])
    assert probes == [1]


def _late_refuted():
    """Increasing, convex up to 0.95 and concave beyond: long chords into
    the concave end stay above the function, so the first gap above
    tolerance lies in block 9 of 18."""
    f = FunctionSpec(1, lambda p: p[:, 0] ** 2 / 2 + p[:, 0]
                     - 10 * np.maximum(p[:, 0] - 0.95, 0.0) ** 2,
                     name="late-concave")
    return f, BoxDomain.of(0.0, 1.0, 513)


def test_case_one_late_switch_rebuilds_the_passed_blocks(monkeypatch):
    """The entry pass seeds case II until the first gap above tolerance,
    then rebuilds the blocks already passed to seed case I; the index equals
    the cached table's."""
    f, box = _late_refuted()
    blocks = PairTable(f, box).blocks
    passed = 9
    want = oracle_index(f, box)
    builds, probes = _count_passes(monkeypatch)
    ix = compute_index(f, box)
    assert ix == want and ix.case is IndexCase.CASE_I
    assert ix.binding is not None and ix.probes[0] == (-CAP, True)
    whole = len(ix.probes) - 2
    assert builds[:passed + 1] == blocks[:passed + 1]
    assert builds[passed + 1:2 * passed + 1] == blocks[:passed]
    assert len(builds) == (1 + whole) * len(blocks) + passed + 2
    assert probes == []


@pytest.mark.parametrize("which", [0, 3, 6])
def test_seed_switch_equals_a_fresh_case_one_seed(which):
    """A switch to case I at any block and weight leaves the seed a fresh
    case-I pass over the whole table folds."""
    f, box = _late_refuted()
    table = PairTable(f, box)
    fresh = BreakEvenSeed(table, REL_GAP_TOL, CAP)
    fresh.sign = +1
    with np.errstate(all="ignore"):
        for b in table.blocks:
            for w, diffs in enumerate(table._diffs(b)):
                assert fresh(b, w, *diffs)
    for n in (0, 4, len(table.blocks) - 1):
        seed = BreakEvenSeed(table, REL_GAP_TOL, CAP)
        table.scan("convex", 1.0, fold=lambda b, w, eta, da, db, _: seed(
            b, w, eta, da, db, (table.blocks.index(b), w) >= (n, which)))
        assert seed.sign == +1 and not seed.capped
        for got, want in zip(seed.rows, fresh.rows):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("f,box", [
    (families.sqrt(), BoxDomain.of(1.0, 4.0, 65)),
    (families.neglog(), BoxDomain.of(1.0, E, 65)),
], ids=["case-I", "case-II"])
def test_solve_that_makes_no_progress_raises(f, box, monkeypatch):
    """A solve that keeps the running best would re-probe the same pairs
    for ever; the round check stops it."""
    monkeypatch.setattr(PairTable, "_solve",
                        lambda self, picks, best, *args: best)
    with pytest.raises(RuntimeError, match="moved neither"):
        compute_index(f, box)
