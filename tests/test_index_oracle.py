"""The exact break-even index against the code it replaced.

``CachedPairTable`` is the earlier ``PairTable``: every pair's endpoints and
all seven mix values cached at once, and each pass a full-array pass over
the cache. ``oracle_index`` is ``compute_index`` on that table. The streamed
index must equal it field for field (value, bracket, binding pair and cap
flag, from which its case and probes follow) for any block size.

``bisect_index`` is the ``compute_index`` before the exact solve: the same
constant shortcut, entry certification and cap probe, then a bisection of
the ``exp_transform_ok`` predicate down to the requested bracket width.
Both live here only as oracles, next to ``certify_index_bracket``, which
replays both bracket ends of an index on a fresh table. On every case the
exact value must lie inside the bisection bracket, the new bracket must
re-certify at its lower end and refute at its upper end, and it must be
float-tight.

``unmasked_prune`` is ``_prune`` without its mask: it finds every pair's
canonical failing end; the cached table prunes with it, and the masked
``_prune`` must keep the same pairs with the same bits. ``ref_solve`` is
``_solve`` with a convergence test in each round; the fixed-round solve
must return its tuple on adversarial batches, and that of ``loop_solve``,
its rounds before they kept scratch arrays, on the solves of the random
suite and the bench families. The case-I cap test, which
the prune makes only on the pairs it cannot clear, must flag what the
whole table flags.

``PairTable.exp_transform_ok`` takes the property it tests from the sign
of lambda; it must equal the cached table's test with the sign explicit.

The index is a function of the pair table, so other solve schedules
(``SOLVE_BATCH`` 1 and 4096, the blocks in reverse order, the earlier
production schedule ``seed_break_even``, which folds a seed of crossing
estimates in the entry scan and probes the whole table until a probe moves
nothing, and ``stream_break_even``, a stream without piles that probes the
same way) must give the same value, bracket and binding pair, and
``exact_excess`` checks each binding pair's bracket against the exact
crossing of its float differences, in 40-digit decimal arithmetic.
"""

import decimal
import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qcx import cindex, extcore, families
from qcx.cindex import REL_GAP_TOL, ConvexityIndex, IndexCase, compute_index
from qcx.errors import CapTooSmallWarning
from qcx.extcore import (_NONE, DEFAULT_ETAS, EXCESS_MARGIN, SOLVE_BATCH,
                         BoxDomain, BreakEvenStream, CertResult,
                         FunctionSpec, PairTable, Verdict, Witness,
                         _cap_violation, _crossing_estimate, _excess,
                         _exp_violation, _fail_end, _mix_points,
                         _past_minimizer, _prune, _solve, default_gap_tol)

from test_acceptance import FIXTURES, SEED, _random_suite
from test_scan_oracle import _pair_arrays, _set_block, oracle_scan

#: Hard ceiling on bisection steps; the bracket also stops at width <= tol.
MAX_BISECT_ITERS = 60

ORACLE_TOL = 1e-4
CAP = 1e4
E = math.e


def _smallest(key: np.ndarray, k: int) -> np.ndarray:
    """Positions (ascending) of the ``k`` smallest keys, ties to the lower
    position, so per-chunk picks merge to the same set for any chunking."""
    if len(key) > k:
        kth = np.partition(key, k - 1)[k - 1]
        below = np.flatnonzero(key < kth)
        ties = np.flatnonzero(key == kth)[:k - len(below)]
        pos = np.concatenate([below, ties])
    else:
        pos = np.arange(len(key))
    return np.sort(pos)


def unmasked_prune(da, db, eta: float, t: float, sign: int, lam_cap: float):
    """``_prune`` without its mask: every pair's canonical failing end is
    found, and a pair is kept if it fails at ``t``, passes within
    ``EXCESS_MARGIN``, or (sign=+1) has a crossing, ``phi(t)`` is not
    provably over 1 and ``t`` is not provably past the minimizer of ``phi``.

    Returns the positions (ascending) of the kept pairs and their crossing
    estimates, made at ``t`` (at 0 where ``t`` is the cap).
    """
    excess = _excess(da, db, eta, -sign * t, sign)
    keep = excess > REL_GAP_TOL - EXCESS_MARGIN
    if sign > 0:
        keep |= (_fail_end(da, db, eta, sign, lam_cap)[1]
                 & (excess >= -EXCESS_MARGIN)
                 & ~_past_minimizer(da, db, eta, t))
    pos = np.flatnonzero(keep)
    at = t if t < lam_cap else 0.0
    key = _crossing_estimate(da[pos], db[pos], eta, sign, t=at,
                             excess=excess[pos] if at else 0.0)
    return pos, key


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
        """The transform test with its property and tolerance explicit:
        convexity for sign=+1, concavity for sign=-1."""
        if lam == 0.0:
            return True
        with np.errstate(all="ignore"):
            return not any(
                (_excess(*self._diffs(which, slice(None)), eta, lam, sign)
                 > tol_rel).any()
                for which, eta in enumerate(self.etas))

    def exp_break_even(self, sign: int, lam_cap: float):
        t_hat = lam_cap if sign < 0 else math.ulp(0.0)
        best = probed = None  # (lam_pass, which, idx, t_pass, t_fail)
        everything = np.arange(len(self.a))
        with np.errstate(all="ignore"):
            cands = [_smallest(_crossing_estimate(*self._diffs(which, everything),
                                                  eta, sign),
                               SOLVE_BATCH)
                     for which, eta in enumerate(self.etas)]
        while True:
            found = []
            for which, idx in enumerate(cands):
                with np.errstate(all="ignore"):
                    pos, key = unmasked_prune(
                        *self._diffs(which, idx), self.etas[which], t_hat,
                        sign, lam_cap)
                found.append((idx[pos], key))
            if not any(len(f[0]) for f in found):
                if t_hat == probed:
                    break
                probed, found = t_hat, []
                for which, eta in enumerate(self.etas):
                    with np.errstate(all="ignore"):
                        found.append(unmasked_prune(
                            *self._diffs(which, everything), eta, t_hat, sign,
                            lam_cap))
                if not any(len(f[0]) for f in found):
                    break
            picks, cands = [], []
            for which, (idx, key) in enumerate(found):
                take = _smallest(key, SOLVE_BATCH)
                rest = np.ones(len(idx), dtype=bool)
                rest[take] = False
                picks.append((which, idx[take]))
                cands.append(idx[rest])
            best = self._solve(picks, best, sign, lam_cap)
            t_hat = t_hat if best is None else best[3]
        if best is None:
            return -t_hat, 0.0, None
        lam_pass, which, idx, _, t_fail = best
        hi = -sign * t_fail
        assert not self.exp_transform_ok(hi, sign, REL_GAP_TOL)
        da, db = self._diffs(which, np.array([idx]))
        eta = self.etas[which]
        with np.errstate(all="ignore"):
            excess = _excess(da, db, eta, hi, sign)
        binding = Witness(x1=tuple(float(v) for v in self.a[idx]),
                          x2=tuple(float(v) for v in self.b[idx]),
                          eta=float(eta), violation=float(excess[0]))
        return lam_pass, hi, binding

    def _solve(self, picks, best, sign: int, lam_cap: float):
        which = np.concatenate([np.full(len(i), w) for w, i in picks])
        idx = np.concatenate([i for _, i in picks])
        eta = np.asarray(self.etas)[which]
        da, db = (np.concatenate(d) for d in
                  zip(*(self._diffs(w, i) for w, i in picks)))
        with np.errstate(all="ignore"):
            t_fail, has = _fail_end(da, db, eta, sign, lam_cap)
        if not has.any():
            return best
        which, idx, eta, da, db, t_fail = (x[has] for x in
                                           (which, idx, eta, da, db, t_fail))
        pass_bits = np.full(len(idx), 0.0 if sign < 0 else lam_cap).view(np.int64)
        fail_bits = t_fail.view(np.int64).copy()
        with np.errstate(all="ignore"):
            while True:
                step = fail_bits - pass_bits
                if not (np.abs(step) > 1).any():
                    break
                mid = pass_bits + step // 2
                bad = _exp_violation(da, db, eta, -sign * mid.view(np.float64),
                                     sign)
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
        return ConvexityIndex(math.inf, None, lambda_cap, constant_shortcut=True)
    _, witness, _ = table.scan("convex", default_gap_tol(f))
    sign, flat = (+1, -math.inf) if witness is not None else (-1, math.inf)
    ok = table.exp_transform_ok(-sign * lambda_cap, sign, REL_GAP_TOL)
    if ok == (flat > 0):  # the cap probe did not flip
        return ConvexityIndex(flat, None, lambda_cap, cap_probe=True)
    lo, hi, binding = table.exp_break_even(sign, lambda_cap)
    return ConvexityIndex(lo, (lo, hi), lambda_cap, binding=binding)


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
    lo_ok, hi_ok = (table.exp_transform_ok(lam) for lam in idx.bracket)

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


def _log(c: float, a: float) -> FunctionSpec:
    return FunctionSpec(1, lambda p: c * np.log(p[:, 0] + a),
                        name=f"{c:g}log(x+{a:g})")


def _ties():
    """``c log(x + a)`` (case I) and ``-c log(x + a)`` (case II): every pair
    of ``log`` crosses 1 at lambda = -1/c (case I) or 1/c (case II), so the
    crossings of the tolerance lie within a few parts in 10^12."""
    return [(_log(s * c, a), BoxDomain.of(lo, hi, m))
            for c, a, lo, hi, m in ((1.0, 0.0, 1.0, E, 257),
                                    (2.0, 3.0, -1.0, 1.0, 129),
                                    (0.5, 1.0, 0.0, 2.0, 65))
            for s in (1.0, -1.0)]


CASES = {
    "fixtures": lambda: [(f, box) for _, f, box, _ in FIXTURES],
    "index-families": _index_families,
    "random-suite": lambda: [(f, BoxDomain.of(-1.0, 1.0, 65))
                             for f in _random_suite(np.random.default_rng(SEED), 130)],
    "ties": _ties,
    "two-d": _two_d,
}


@pytest.mark.parametrize("group", sorted(CASES))
def test_exact_index_inside_bisection_bracket(group):
    finite = 0
    for f, box in CASES[group]():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CapTooSmallWarning)
            want, bracket = bisect_index(f, box)
            ix = compute_index(f, box)
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
    assert ix.probes == ((-CAP, True),)


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
    ix = compute_index(f, box)
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


def _recording_streams(monkeypatch) -> list[BreakEvenStream]:
    """Every ``BreakEvenStream`` that ``compute_index`` makes, in order."""
    streams = []

    class Recorded(BreakEvenStream):
        def __init__(self, *args):
            super().__init__(*args)
            streams.append(self)

    monkeypatch.setattr(cindex, "BreakEvenStream", Recorded)
    return streams


@pytest.mark.parametrize("group", STREAMED_GROUPS)
@pytest.mark.parametrize("block,split", SETTINGS)
def test_streamed_index_matches_cached_oracle(group, block, split,
                                              monkeypatch):
    """Value, bracket, binding pair and cap flag equal the cached table's."""
    finite = 0
    for (f, box), want in zip(CASES[group](), _oracle_indices(group)):
        _set_block(monkeypatch, box, block, split)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CapTooSmallWarning)
            got = compute_index(f, box)
        assert got == want, (f.name, got, want)
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


@pytest.mark.parametrize("f,box", [
    (families.neglog(), BoxDomain.of(1.0, E, 1025)),
    (_log(1.0, 0.0), BoxDomain.of(1.0, E, 1025)),
], ids=["neglog-1025", "log-1025"])
def test_index_piles_stay_small(f, box):
    """The stream's piles and bursts hold a few hundred pairs per weight
    beside the block, also where every pair ties (``log``)."""
    tracemalloc.start()
    try:
        ix = compute_index(f, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ix.binding is not None
    assert peak <= 2.5 * 2 ** 20, peak / 2 ** 20


def test_tie_solves_few_pairs(monkeypatch):
    """On ``log x`` over [1, e] every pair's excess at the extremum lies
    within the tolerance, so only the proven drop past the minimizer
    (``_past_minimizer``) keeps the solve from bisecting every pair: 262,528
    pairs and weights at 257 points. Counted, not timed."""
    solved = []

    def counted(picks, *args):
        solved.append(sum(len(p[1]) for p in picks))
        return _solve(picks, *args)

    monkeypatch.setattr(extcore, "_solve", counted)
    ix = compute_index(_log(1.0, 0.0), BoxDomain.of(1.0, E, 257))
    assert ix.binding is not None and ix.value == pytest.approx(-1.0)
    assert sum(solved) <= 4096, sum(solved)


def test_rel_gap_tol_lies_where_the_kernel_proofs_hold():
    """The proofs of ``_excess`` and ``_prune`` hold for a tolerance in
    ``(2^-45, 1/2)``; ``qcx.cindex`` re-exports the one of ``extcore``."""
    assert 2.0 ** -45 < extcore.REL_GAP_TOL < 0.5
    assert cindex.REL_GAP_TOL is extcore.REL_GAP_TOL


#: Lambdas of both signs, 0 and the cap.
LAMBDA_LADDER = (-CAP, -1.0, 0.0, 1.0, CAP)


@pytest.mark.parametrize("group", sorted(CASES))
def test_transform_test_takes_its_property_from_the_sign_of_lambda(group):
    """``PairTable.exp_transform_ok(lam)`` is the cached table's test with
    the property explicit, convexity (sign=+1) for ``lam < 0`` and
    concavity (sign=-1) for ``lam > 0``, on a ladder of both signs, 0, the
    cap and each index's bracket ends."""
    seen = set()
    for (f, box), ix in zip(CASES[group](), _production(group)):
        table, cached = PairTable(f, box), CachedPairTable(f, box)
        for lam in LAMBDA_LADDER + (ix.bracket or ()):
            ok = table.exp_transform_ok(lam)
            sign = +1 if lam < 0 else -1
            assert ok == cached.exp_transform_ok(lam, sign, REL_GAP_TOL), (
                f.name, lam)
            seen.add(ok)
    assert seen == {True, False}


def test_transform_test_refuses_a_lambda_that_is_not_finite():
    """A NaN ``lam`` used to pass, as a NaN excess never violates."""
    table = PairTable(families.sqrt(), BoxDomain.of(1.0, 4.0, 17))
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            table.exp_transform_ok(lam)


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
                        want = _exp_violation(da, db, eta, -cap, +1)
                        got = _cap_violation(da, db, eta, cap)
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
                want = _exp_violation(a, b, w, -cap, +1)
                got = _cap_violation(a, b, w, cap)
            assert np.array_equal(got, want), eta


def _prunes_alike(da, db, eta, t, sign):
    """Masked and unmasked pruning keep the same pairs with the same bits.
    For sign=+1, ``_prune`` returns None exactly when a pair whose excess at
    ``t`` is at least ``-EXCESS_MARGIN`` fails the cap test, and the pairs
    compared are those that pass it. Returns how many pairs the mask spared
    the failing end for."""
    with np.errstate(all="ignore"):
        got = _prune(da, db, eta, t, sign, CAP)
        spared = 0
        if sign > 0:
            excess = _excess(da, db, eta, -t, sign)
            capped = _cap_violation(da, db, eta, CAP)
            assert (got is None) == bool(
                (capped & (excess >= -EXCESS_MARGIN)).any()), (eta, t)
            if capped.any():
                da, db, excess = da[~capped], db[~capped], excess[~capped]
                got = _prune(da, db, eta, t, sign, CAP)
            spared = int(np.count_nonzero(excess < -EXCESS_MARGIN))
        pos, key = unmasked_prune(da, db, eta, t, sign, CAP)
    for g, w in zip(got, (pos, da[pos], db[pos], key)):
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
    # ``t``, fail at their minimizer and are kept
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
                        kept = _prune(da, db, eta, t, +1, CAP)
                        fails = _exp_violation(da, db, eta, -t, +1)
                    beyond += bool(len(kept[0])) and not fails.any()
    assert beyond > 0


def test_past_minimizer_marks_only_pairs_past_the_exact_minimizer():
    """A marked pair's exact minimizer ``log q / (da - db)``, in 40-digit
    decimal arithmetic, lies below ``t``: at floats a few steps either side
    of it, for differences from subnormal to the largest floats, in both
    sign orders and of one sign; and a ``t`` a part in 2^20 past it is
    marked for ordinary differences."""
    D = decimal.Decimal
    rng = np.random.default_rng(SEED)
    scale = np.hstack([10.0 ** rng.uniform(-300, 300, (2, 30)),
                       10.0 ** rng.uniform(-5, 5, (2, 30))])
    pairs = [(a, -b) for a, b in zip(*scale)] + [(-a, b) for a, b in zip(*scale)]
    pairs += [(1.0, -1.0), (1.0, -1e-300), (-5e-324, 1.0), (-1e-310, 2e-310),
              (1.7e308, -1.7e308), (2.0, 3.0), (-2.0, -3.0), (0.0, -1.0)]
    marked = past = 0
    for eta in DEFAULT_ETAS:
        for a, b in pairs:
            if not (a < 0 < b or b < 0 < a):
                # a mark must drop nothing that could count
                with np.errstate(all="ignore"):
                    has = _fail_end(np.array([a]), np.array([b]), eta, +1,
                                    CAP)[1][0]
                exact = D(-math.inf) if a >= 0 and b >= 0 or not has else None
            else:
                with decimal.localcontext() as ctx:
                    ctx.prec = 40
                    exact = ((D(1 - eta) * D(abs(b)) / (D(eta) * D(abs(a)))).ln()
                             / (D(a) - D(b)))
            near = float(exact) if exact is not None and exact > 0 else 1.0
            ts = [near]
            for _ in range(4):
                ts += [math.nextafter(ts[-1], math.inf)]
                ts.insert(0, math.nextafter(ts[0], 0.0))
            for t in ts + [near * (1 + 2.0 ** -20), 2 * near]:
                if not 0 < t < math.inf:
                    continue
                with np.errstate(all="ignore"):
                    got = _past_minimizer(np.array([a]), np.array([b]), eta, t)[0]
                if got:
                    assert exact is not None and D(t) > exact, (eta, a, b, t)
                    marked += 1
            if (1e-100 < abs(a) < 1e100 and 1e-100 < abs(b) < 1e100
                    and exact is not None and exact > 0):
                with np.errstate(all="ignore"):
                    past += bool(_past_minimizer(np.array([a]), np.array([b]), eta,
                                                 near * (1 + 2.0 ** -20))[0])
    assert marked > 100 and past > 100, (marked, past)


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


@pytest.mark.parametrize("family,lo,hi,sign", [("neglog", 1.0, E, -1),
                                               ("sqrt", 1.0, 4.0, +1)])
def test_prune_keeps_every_pair_at_its_own_crossing(family, lo, hi, sign):
    """A pair pruned at the extremum ``t`` could not tie it, so ``_prune``
    keeps every pair at the passing end of its own crossing, where it
    passes the float test, up to ``EXCESS_MARGIN``."""
    table = PairTable(families.make_function(family), BoxDomain.of(lo, hi, 33))
    kept = 0
    for which, (eta, da, db) in enumerate(table._diffs(table.blocks[0])):
        with np.errstate(all="ignore"):
            has = np.flatnonzero(_fail_end(da, db, eta, sign, CAP)[1])
            for k in has[::40]:
                d_a, d_b, at = da[k:k + 1], db[k:k + 1], np.array([k])
                _, _, _, t_pass, *_ = _solve(
                    [(which, at, d_a, d_b)], None, sign, CAP)
                assert len(_prune(d_a, d_b, eta, t_pass, sign, CAP)[0]) == 1, (
                    eta, k, t_pass)
                kept += 1
    assert kept > 20


def ref_solve(picks, best, sign: int, lam_cap: float):
    """``_solve`` before its rounds were fixed: a convergence test in each
    round, and ``np.where`` updates of both bracket ends."""
    which = np.concatenate([np.full(len(p[1]), p[0]) for p in picks])
    idx, da, db = (np.concatenate(c) for c in zip(*(p[1:] for p in picks)))
    eta = np.asarray(DEFAULT_ETAS)[which]
    t_fail, has = _fail_end(da, db, eta, sign, lam_cap)
    if not has.any():
        return best
    which, idx, da, db, eta, t_fail = (
        x[has] for x in (which, idx, da, db, eta, t_fail))
    pass_bits = np.full(len(idx), 0.0 if sign < 0 else lam_cap).view(np.int64)
    fail_bits = t_fail.view(np.int64).copy()
    while (np.abs(fail_bits - pass_bits) > 1).any():
        mid = pass_bits + (fail_bits - pass_bits) // 2
        bad = _exp_violation(da, db, eta, -sign * mid.view(np.float64), sign)
        fail_bits = np.where(bad, mid, fail_bits)
        pass_bits = np.where(bad, pass_bits, mid)
    t_pass = pass_bits.view(np.float64)
    lam_pass = -sign * t_pass
    k = np.lexsort((idx, which, lam_pass))[0]
    cand = (float(lam_pass[k]), int(which[k]), int(idx[k]),
            float(t_pass[k]), float(fail_bits.view(np.float64)[k]))
    return cand if best is None or cand[:3] < best[:3] else best


def loop_solve(picks, best, sign: int, lam_cap: float):
    """``_solve`` before its rounds kept scratch arrays: each round forms
    its midpoint and calls :func:`_exp_violation` afresh."""
    which = np.concatenate([np.full(len(p[1]), p[0]) for p in picks])
    idx, da, db = (np.concatenate(c) for c in zip(*(p[1:] for p in picks)))
    eta = np.asarray(DEFAULT_ETAS)[which]
    t_fail, has = _fail_end(da, db, eta, sign, lam_cap)
    if not has.any():
        return best
    which, idx, da, db, eta, t_fail = (
        x[has] for x in (which, idx, da, db, eta, t_fail))
    pass_bits = np.full(len(idx), 0.0 if sign < 0 else lam_cap).view(np.int64)
    fail_bits = t_fail.view(np.int64)
    width = int(np.abs(fail_bits - pass_bits).max())
    for _ in range(max(width - 1, 0).bit_length()):
        mid = fail_bits - pass_bits
        mid >>= 1
        mid += pass_bits
        t = mid.view(np.float64)
        bad = _exp_violation(da, db, eta, t if sign < 0 else -t, sign)
        np.putmask(fail_bits, bad, mid)
        np.putmask(mid, bad, pass_bits)
        pass_bits = mid
    t_pass = pass_bits.view(np.float64)
    lam_pass = -sign * t_pass
    k = np.lexsort((idx, which, lam_pass))[0]
    cand = (float(lam_pass[k]), int(which[k]), int(idx[k]),
            float(t_pass[k]), float(t_fail[k]))
    return cand if best is None or cand[:3] < best[:3] else best


@pytest.mark.filterwarnings("ignore::qcx.errors.CapTooSmallWarning")
@pytest.mark.parametrize("group", ["random-suite", "index-families"])
def test_solve_rounds_match_the_loop_they_replace(group, monkeypatch):
    """Every solve of the indices of a group returns the tuple ``(lam_pass,
    which, idx, t_pass, t_fail)`` of :func:`loop_solve` on its picks."""
    solve, solved = extcore._solve, []

    def both(picks, best, sign, lam_cap):
        got = solve(picks, best, sign, lam_cap)
        solved.append((got, loop_solve(picks, best, sign, lam_cap)))
        return got

    monkeypatch.setattr(extcore, "_solve", both)
    for f, box in CASES[group]():
        compute_index(f, box)
    assert len(solved) > 20
    for got, want in solved:
        assert got == want


def _solves_alike(pairs, sign, cap, size):
    """``_solve`` and ``ref_solve`` on ``(which, da, db)`` in batches of
    ``size``: the same tuple per batch. Returns how many batches solved a
    pair."""
    solved = 0
    for s in range(0, len(pairs), size):
        which, da, db = (np.array(x) for x in zip(*pairs[s:s + size]))
        picks = [(w, np.flatnonzero(which == w) + s, da[which == w],
                  db[which == w]) for w in range(len(DEFAULT_ETAS))]
        picks = [p for p in picks if len(p[1])]
        with np.errstate(all="ignore"):
            got = _solve(picks, None, sign, cap)
            want = ref_solve(picks, None, sign, cap)
        assert got == want, (sign, cap, s, got, want)
        solved += got is not None
    return solved


def test_fixed_round_solve_matches_the_parent_bisection():
    """Every pair of signed ``MAGNITUDES`` differences, and of those with
    infinite and NaN partners, at every weight and both signs, solved in
    batches of 1 (a subset), 32 and 4096, gives the tuple of the bisection
    with a convergence test. So do batches whose brackets start zero or one
    float wide (sign=+1 with the cap at or one float above a pair's
    minimizer) beside wider ones."""
    values = [s * m for m in MAGNITUDES for s in (1.0, -1.0)]
    values += [math.inf, -math.inf, math.nan]
    pairs = [(w, a, b) for w in range(len(DEFAULT_ETAS))
             for a in values for b in values]
    solved = 0
    for sign in (+1, -1):
        for size in (32, 4096):
            solved += _solves_alike(pairs, sign, CAP, size)
        solved += _solves_alike(pairs[::37], sign, CAP, 1)
    assert solved > 0
    narrow = 0
    for which, a, b in pairs[::60]:
        da, db = np.array([a]), np.array([b])
        with np.errstate(all="ignore"):
            t, fails = _fail_end(da, db, DEFAULT_ETAS[which], +1, CAP)
        if fails[0]:
            for cap in (float(t[0]), math.nextafter(float(t[0]), math.inf)):
                narrow += _solves_alike(pairs, +1, cap, 4096) > 0
    assert narrow > 0


@pytest.mark.parametrize("group", sorted(CASES))
def test_case_one_cap_test_matches_the_whole_table(group, monkeypatch):
    """At every cap of ``CAP_LADDER``, a case-I stream is capped exactly
    when ``_cap_violation`` flags a pair of some block and weight of the
    whole table, although it tests only the pairs that its prune cannot
    clear. A case-II stream makes no cap test; the entry scan, not the
    cap, fixes the case, so such an input is run at one cap."""
    streams = _recording_streams(monkeypatch)
    capped = uncapped = 0
    for f, box in CASES[group]():
        table = PairTable(f, box)
        diffs = [d for block in table.blocks for d in table._diffs(block)]
        for cap in CAP_LADDER:
            streams.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CapTooSmallWarning)
                compute_index(f, box, lambda_cap=cap)
            if not streams or streams[0].sign < 0:  # constant, or case II
                assert not streams or not streams[0].capped
                break
            with np.errstate(all="ignore"):
                want = any(_cap_violation(da, db, eta, cap).any()
                           for eta, da, db in diffs)
            assert streams[0].capped == want, (f.name, cap)
            capped += want
            uncapped += not want
    assert capped > 0 and uncapped > 0


def test_pairs_below_the_margin_pass_at_every_cap_above():
    """A pair whose excess at ``t`` (sign=+1) is under ``-EXCESS_MARGIN``
    passes the transform at every cap of ``CAP_LADDER`` from ``t`` on: the
    proof by which ``_prune`` skips its cap test, on every sign pattern
    and scale of differences, infinite and NaN ones."""
    values = [0.0, -0.0, math.inf, -math.inf, math.nan]
    values += [s * m for m in MAGNITUDES for s in (1.0, -1.0)]
    da, db = (np.array(v) for v in zip(*[(x, y) for x in values for y in values]))
    below = 0
    for eta in DEFAULT_ETAS:
        for t in (math.ulp(0.0), 1e-300, 1e-8, 0.5, 2.0, 700.0) + CAP_LADDER:
            with np.errstate(all="ignore"):
                under = _excess(da, db, eta, -t, +1) < -EXCESS_MARGIN
                for cap in CAP_LADDER:
                    if cap >= t:
                        assert not _exp_violation(da[under], db[under], eta,
                                                  -cap, +1).any()
            below += int(under.sum())
    assert below > 0


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


def _binding_pair(builds):
    """The last build: the binding pair, rebuilt for its replay."""
    idx = builds[-1][0]
    return [(idx, idx + 1)]


def test_case_one_block_passes(monkeypatch):
    """Case I reads every block once, in the entry pass, which scans,
    streams the solve and makes the cap test; then it rebuilds the binding
    pair alone, which replays the upper end and gives the witness. Its
    first gap above tolerance lies in block 0, weight 0, so nothing is
    re-read."""
    f, box = families.sqrt(), BoxDomain.of(1.0, 4.0, 1025)
    blocks = PairTable(f, box).blocks
    builds, probes = _count_passes(monkeypatch)
    ix = compute_index(f, box)
    assert ix.case is IndexCase.CASE_I and ix.binding is not None
    assert ix.probes == ((-CAP, True), (ix.bracket[1], False))
    assert builds == blocks + _binding_pair(builds)
    assert probes == []


def test_case_two_block_passes(monkeypatch):
    """Case II reads every block once in the entry pass, the first block in
    the cap probe, then the binding pair."""
    f, box = families.neglog(), BoxDomain.of(1.0, E, 1025)
    blocks = PairTable(f, box).blocks
    builds, probes = _count_passes(monkeypatch)
    ix = compute_index(f, box)
    assert ix.case is IndexCase.CASE_II and ix.binding is not None
    assert ix.probes == ((CAP, False), (ix.bracket[1], False))
    assert builds == blocks + blocks[:1] + _binding_pair(builds)
    assert probes == [1]


def _late_refuted():
    """Increasing, convex up to 0.95 and concave beyond, with ``f'' = -19``:
    the local pairs there have gaps above tolerance, and their blocks are
    read first, so the first such gap lies in block 0."""
    f = FunctionSpec(1, lambda p: p[:, 0] ** 2 / 2 + p[:, 0]
                     - 10 * np.maximum(p[:, 0] - 0.95, 0.0) ** 2,
                     name="late-concave")
    return f, BoxDomain.of(0.0, 1.0, 513)


def test_case_one_local_switch_reads_each_block_once(monkeypatch):
    """A case-I input whose concavity a local pair shows above tolerance
    switches in block 0, weight 0: it reads every block once, then the
    binding pair. Value, bracket and binding pair equal the cached
    table's."""
    f, box = _late_refuted()
    blocks = PairTable(f, box).blocks
    want = oracle_index(f, box)
    streams = _recording_streams(monkeypatch)
    builds, probes = _count_passes(monkeypatch)
    ix = compute_index(f, box)
    assert (ix.value, ix.bracket, ix.binding) == (want.value, want.bracket,
                                                  want.binding)
    assert ix.case is IndexCase.CASE_I and streams[0].switch == (blocks[0], 0)
    assert builds == blocks + _binding_pair(builds) and probes == []


def _bend(x, lo, hi, c):
    """``c (max(x - hi, 0)^2 - max(x - lo, 0)^2)``, which lowers ``f''``
    by ``2 c`` on ``[lo, hi]``."""
    return c * (np.maximum(x - hi, 0.0) ** 2 - np.maximum(x - lo, 0.0) ** 2)


def _chord_refuted():
    """Increasing, with ``f'' = 1`` but ``f'' = -1`` on [0.5, 0.55]: no
    local pair's gap reaches the tolerance 1e-6 (each is at most ``h^2 /
    8``, ``h = 1/512``), while chords across the stretch exceed it, so the
    first gap above tolerance lies in block 12 of 18, a grid block."""
    f = FunctionSpec(1, lambda p: p[:, 0] ** 2 / 2 + p[:, 0]
                     + _bend(p[:, 0], 0.5, 0.55, 1.0), name="chord-concave")
    return f, BoxDomain.of(0.0, 1.0, 513)


def test_case_one_late_switch_rereads_the_passed_blocks(monkeypatch):
    """The stream runs case II until the first gap above tolerance, then
    restarts at case I from there; after the scan it re-reads the blocks
    passed before, and the switching block if its switch came after weight
    0, once. Value, bracket and binding pair equal the cached table's."""
    f, box = _chord_refuted()
    table = PairTable(f, box)
    blocks = table.blocks
    want = oracle_index(f, box)
    streams = _recording_streams(monkeypatch)
    builds, probes = _count_passes(monkeypatch)
    ix = compute_index(f, box)
    assert (ix.value, ix.bracket, ix.binding) == (want.value, want.bracket,
                                                  want.binding)
    block, which = streams[0].switch
    k = blocks.index(block)
    assert ix.case is IndexCase.CASE_I and k == 12
    assert block[1] <= table.grid_pairs
    assert ix.probes == ((-CAP, True), (ix.bracket[1], False))
    assert builds == blocks + blocks[:k + (which > 0)] + _binding_pair(builds)
    assert probes == []


def test_case_one_late_switch_caps_the_passed_blocks(monkeypatch):
    """A spike of 5e-7 at one grid point of a flat stretch, under the gap
    tolerance, fails the transform at the cap only in grid pairs whose mix
    is that point, all in blocks before the switch; no local pair's mix is
    a grid point, and no local pair's gap on the concave stretch (``f'' =
    -1``) reaches the tolerance, so the switch comes in a grid block. The
    re-read of the passed blocks makes their cap test, and the index is
    -inf."""
    x = lambda p: p[:, 0]  # noqa: E731
    f = FunctionSpec(1, lambda p: np.maximum(x(p) - 0.3, 0.0) ** 2
                     + _bend(x(p), 0.6, 0.65, 1.5)
                     + np.where(x(p) == 52 / 512, 5e-7, 0.0),
                     name="spike-chord-concave")
    box = BoxDomain.of(0.0, 1.0, 513)
    streams = _recording_streams(monkeypatch)
    table = PairTable(f, box)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapTooSmallWarning)
        ix = compute_index(f, box)
        want = oracle_index(f, box)
    assert streams[0].switch[0][1] <= table.grid_pairs and streams[0].capped
    assert ix == want and ix.value == -math.inf and ix.cap_probe


@pytest.mark.parametrize("f,box", [
    (families.sqrt(), BoxDomain.of(1.0, 4.0, 65)),
    (families.neglog(), BoxDomain.of(1.0, E, 65)),
], ids=["case-I", "case-II"])
def test_solve_that_keeps_the_best_reads_each_block_once(f, box, monkeypatch):
    """Every burst round takes its batch off the piles, so a solve that
    never improves on the running best still empties them: the stream ends
    after the entry scan's one read of each block, with no binding pair to
    replay."""
    table = PairTable(f, box)
    stream = BreakEvenStream(CAP)
    monkeypatch.setattr(extcore, "_solve", lambda picks, best, *args: best)
    builds, probes = _count_passes(monkeypatch)
    table.scan("convex", default_gap_tol(f), fold=stream)
    _, _, binding = table.exp_break_even(stream)
    assert not any(len(part[0]) for pile in stream.piles for part in pile)
    assert binding is None and builds == table.blocks and probes == []


@pytest.mark.parametrize("f,box", [
    (families.sqrt(), BoxDomain.of(1.0, 4.0, 257)),
    (families.neglog(), BoxDomain.of(1.0, E, 257)),
], ids=["case-I", "case-II"])
@pytest.mark.parametrize("fault", ["next-pair", "passing-end"])
def test_upper_end_that_does_not_replay_raises(f, box, fault, monkeypatch):
    """A solve whose new best names the pair one position after the one
    it solved, with that pair's failing end, or the passing end as the
    failing one: the binding pair does not fail the transform test at
    ``hi``, so the index raises instead of reporting a wrong witness."""
    solve = extcore._solve

    def faulty(picks, best, *args):
        got = solve(picks, best, *args)
        if got is best:
            return got
        lam_pass, which, idx, t_pass, t_fail, *rest = got
        if fault == "next-pair":
            return (lam_pass, which, idx + 1, t_pass, t_fail, *rest)
        return (lam_pass, which, idx, t_pass, t_pass, *rest)

    monkeypatch.setattr(extcore, "_solve", faulty)
    with pytest.raises(RuntimeError, match="does not replay"):
        compute_index(f, box)


class BreakEvenSeed:
    """The seed of the earlier solve, folded block by block as the ``fold``
    of ``PairTable.scan``: per weight, ``rows`` holds the ``SOLVE_BATCH``
    pairs of least ``_crossing_estimate`` as ``(index, da, db, key)`` in
    fold order. It seeds case II until the scan sees a gap above its
    tolerance, then restarts at case I from that block and weight;
    ``skipped`` counts the folds before, whose pairs reach the solve
    through its whole-table probes. A case-I fold first makes the cap test;
    once a pair fails it, ``capped`` is set and folding stops."""

    def __init__(self, lam_cap: float):
        self.lam_cap = lam_cap
        self.sign, self.capped, self.skipped = -1, False, 0
        self.rows = [_NONE for _ in DEFAULT_ETAS]

    def __call__(self, block, which: int, eta: float, da, db,
                 refuted: bool = False) -> bool:
        if self.sign < 0 and refuted:
            self.sign, self.rows = +1, [_NONE for _ in DEFAULT_ETAS]
        self.skipped += self.sign < 0
        if self.sign > 0 and _cap_violation(da, db, eta, self.lam_cap).any():
            self.capped = True
            return False
        key = _crossing_estimate(da, db, eta, self.sign)
        rows = self.rows[which]
        pos = (np.flatnonzero(key < rows[-1].max())
               if len(rows[0]) == SOLVE_BATCH else np.arange(len(key)))
        if len(pos):
            rows = tuple(map(np.concatenate, zip(
                rows, (block[0] + pos, da[pos], db[pos], key[pos]))))
            take = _smallest(rows[-1], SOLVE_BATCH)
            self.rows[which] = tuple(x[take] for x in rows)
        return True


def _seeded_result(self, seed, best, t_hat):
    """The bracket and binding pair of a test-side schedule's best pair, as
    ``PairTable.exp_break_even`` returns them: the witness from the pair,
    rebuilt and its mix evaluated."""
    sign = seed.sign
    if best is None:
        return -t_hat, 0.0, None
    lam_pass, which, idx, _, t_fail = best
    hi, eta = -sign * t_fail, DEFAULT_ETAS[which]
    a, b, fa, fb = self._build((idx, idx + 1))
    with np.errstate(all="ignore"):
        fm = self.g(_mix_points(a, b, eta))
        excess = _excess(fa - fm, fb - fm, eta, hi, sign)
    binding = Witness(tuple(map(float, a[0])), tuple(map(float, b[0])), eta,
                      float(excess[0]))
    return lam_pass, hi, binding


def _prune_at(idx, da, db, *args):
    """``_prune(da, db, *args)`` with its positions taken from ``idx``."""
    pos, *kept = _prune(da, db, *args)
    return (idx[pos], *kept)


def seed_break_even(self, seed: BreakEvenSeed):
    """The earlier production solve, from a ``BreakEvenSeed``: rounds
    alternate an exact solve of ``SOLVE_BATCH`` pairs per weight, ranked by
    crossing estimate, with a prune of the rest at the extremum, and of the
    whole table (a probe, whose first pass makes the cap test of the folds
    the seed skipped) when none is left, until a probe's unsolved
    candidates are none."""
    sign, cap = seed.sign, seed.lam_cap
    t_hat = cap if sign < 0 else math.ulp(0.0)
    best = probed = None
    if seed.capped:
        return -math.inf, -cap, None
    uncapped = seed.skipped if sign > 0 else 0
    cands, solved = [r[:3] for r in seed.rows], [np.array([-1])] * len(seed.rows)
    with np.errstate(all="ignore"):
        while True:
            found = [_prune_at(idx, da, db, eta, t_hat, sign, cap)
                     for eta, (idx, da, db) in zip(DEFAULT_ETAS, cands)]
            if not any(len(f[0]) for f in found):
                if t_hat == probed:
                    break
                parts, probed = [], t_hat  # per block and weight, in order
                for b in self.blocks:
                    for eta, da, db in self._diffs(b):
                        if len(parts) < uncapped and _cap_violation(
                                da, db, eta, cap).any():
                            return -math.inf, -cap, None
                        parts.append(_prune_at(np.arange(*b), da, db, eta,
                                               t_hat, sign, cap))
                uncapped, k = 0, len(DEFAULT_ETAS)
                found = [tuple(map(np.concatenate, zip(*parts[w::k])))
                         for w in range(k)]
                new = [s[np.searchsorted(s, f[0]).clip(max=len(s) - 1)] != f[0]
                       for f, s in zip(found, solved)]  # unsolved; s is sorted
                found = [tuple(x[n] for x in f) for f, n in zip(found, new)]
                if not any(len(f[0]) for f in found):
                    break
            picks, cands = [], []
            for which, (idx, da, db, key) in enumerate(found):
                take = np.zeros(len(idx), dtype=bool)
                take[_smallest(key, SOLVE_BATCH)] = True
                picks.append((which, idx[take], da[take], db[take]))
                cands.append((idx[~take], da[~take], db[~take]))
                solved[which] = np.sort(np.concatenate([solved[which], idx[take]]))
            best = _solve(picks, best, sign, cap)
            t_hat = t_hat if best is None else best[3]
    return _seeded_result(self, seed, best, t_hat)


def stream_break_even(self, seed: BreakEvenSeed):
    """A stream without piles that ignores the seed's rows: each block and
    weight is pruned at the running extremum and its survivors solved in
    ranked batches of ``SOLVE_BATCH`` at once, making the cap test for
    sign=+1; then whole-table probes until one moves nothing."""
    sign, cap = seed.sign, seed.lam_cap
    t_hat = cap if sign < 0 else math.ulp(0.0)
    best = None

    def solve(found):
        nonlocal best, t_hat
        while any(len(f[0]) for f in found):
            picks, rest = [], []
            for which, (idx, da, db, key) in enumerate(found):
                take = np.isin(np.arange(len(idx)), _smallest(key, SOLVE_BATCH))
                picks.append((which, idx[take], da[take], db[take]))
                rest.append((idx[~take], da[~take], db[~take]))
            best = _solve(picks, best, sign, cap)
            t_hat = t_hat if best is None else best[3]
            found = [_prune_at(idx, da, db, eta, t_hat, sign, cap)
                     for eta, (idx, da, db) in zip(DEFAULT_ETAS, rest)]

    if seed.capped:
        return -math.inf, -cap, None
    with np.errstate(all="ignore"):
        for probe in itertools.count():
            probed = t_hat
            for b in self.blocks:
                found = []
                for eta, da, db in self._diffs(b):
                    if sign > 0 and not probe and _cap_violation(
                            da, db, eta, cap).any():
                        return -math.inf, -cap, None
                    found.append(_prune_at(np.arange(*b), da, db, eta, t_hat,
                                           sign, cap))
                solve(found)
            if probe and t_hat == probed:
                break
    return _seeded_result(self, seed, best, t_hat)


def _reversed_blocks(monkeypatch):
    init = PairTable.__init__

    def reversed_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.blocks.reverse()

    monkeypatch.setattr(PairTable, "__init__", reversed_init)


def _seeded(break_even, monkeypatch):
    """``compute_index`` folds a ``BreakEvenSeed`` and solves from it with
    ``break_even``."""
    monkeypatch.setattr(cindex, "BreakEvenStream", BreakEvenSeed)
    monkeypatch.setattr(PairTable, "exp_break_even", break_even)


#: Test-side solve schedules, each set up on a monkeypatch.
SCHEDULES = {
    "batch-1": lambda mp: mp.setattr(extcore, "SOLVE_BATCH", 1),
    "batch-4096": lambda mp: mp.setattr(extcore, "SOLVE_BATCH", 4096),
    "reversed-blocks": _reversed_blocks,
    "seed-and-probe": functools.partial(_seeded, seed_break_even),
    "one-pass-stream": functools.partial(_seeded, stream_break_even),
}


#: The functions of the two golden ``index`` reports.
GOLDEN_INDEX = [(families.make_function("sqrt", weight=1.0),
                 BoxDomain.of(1.0, 4.0, 257)),
                (families.make_function("neglog", weight=0.5),
                 BoxDomain.of(1.0, E, 257))]


def _fixed(f, box) -> ConvexityIndex:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapTooSmallWarning)
        return compute_index(f, box)


@functools.lru_cache(maxsize=None)
def _production(group: str) -> list[ConvexityIndex]:
    cases = GOLDEN_INDEX if group == "golden" else CASES[group]()
    return [_fixed(f, box) for f, box in cases]


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("group", sorted(CASES) + ["golden"])
def test_index_does_not_depend_on_the_solve_schedule(group, schedule,
                                                     monkeypatch):
    """Value, bracket, binding pair, case and cap flag are the production
    schedule's on all 163 inputs and both golden ``index`` configs."""
    cases = GOLDEN_INDEX if group == "golden" else CASES[group]()
    want = _production(group)
    SCHEDULES[schedule](monkeypatch)
    finite = 0
    for (f, box), w in zip(cases, want):
        got = _fixed(f, box)
        fields = [(x.value, x.bracket, x.binding, x.case, x.cap_probe)
                  for x in (got, w)]
        assert fields[0] == fields[1], (f.name, schedule, got, w)
        finite += w.binding is not None
    assert finite > 0


def exact_excess(da: float, db: float, eta: float, lam: float,
                 sign: int) -> tuple[decimal.Decimal, decimal.Decimal]:
    """``-sign (eta (e^{-lam da} - 1) + (1-eta) (e^{-lam db} - 1))`` of the
    float inputs in 40-digit decimal arithmetic (the products ``lam d`` are
    exact at 40 digits), and the error bound of the float kernel there:
    ``2^-53 (sum w |x| e^x + 5 sum w |e^x - 1| + |excess|)`` with ``x = -lam
    d``, from the proof in ``extcore._excess``."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        terms = [(w, -D(lam) * D(d)) for w, d in ((D(eta), da), (1 - D(eta), db))]
        excess = -sign * sum(w * (x.exp() - 1) for w, x in terms)
        bound = (sum(w * abs(x) * x.exp() + 5 * w * abs(x.exp() - 1)
                     for w, x in terms) + abs(excess)) * D(2) ** -53
        return excess, bound


def _binding_diffs(f, box, ix) -> tuple[float, float]:
    """The binding pair's ``(da, db)`` as the table's passes compute them."""
    table = PairTable(f, box)
    for block in table.blocks:
        a, b, _, _ = table._build(block)
        k = np.flatnonzero((a == ix.binding.x1).all(axis=1)
                           & (b == ix.binding.x2).all(axis=1))
        if len(k):
            _, da, db = list(table._diffs(block))[
                DEFAULT_ETAS.index(ix.binding.eta)]
            return float(da[k[0]]), float(db[k[0]])
    raise AssertionError("binding pair not in the table")


@pytest.mark.parametrize("group", sorted(CASES) + ["golden"])
def test_binding_bracket_holds_the_exact_crossing(group):
    """The exact crossing of each binding pair's float ``(da, db, eta)`` lies
    in ``[lo, hi]`` (its exact excess is at most the tolerance at ``lo``
    and above it at ``hi``), or the exact excess at the end on the wrong
    side is within the float kernel's error bound there of the tolerance:
    the float test cannot place the crossing closer. Where the two terms
    cancel, that bound is far above the change of the excess over one
    float step of ``lam``, so a crossing usually lies just outside its
    float bracket."""
    cases = GOLDEN_INDEX if group == "golden" else CASES[group]()
    tol, checked = decimal.Decimal(REL_GAP_TOL), 0
    for (f, box), ix in zip(cases, _production(group)):
        if ix.binding is None:
            continue
        da, db = _binding_diffs(f, box, ix)
        sign = +1 if ix.case is IndexCase.CASE_I else -1
        (lo, lo_err), (hi, hi_err) = (
            exact_excess(da, db, ix.binding.eta, lam, sign) for lam in ix.bracket)
        assert lo - tol <= lo_err and hi - tol > -hi_err, (f.name, lo, hi)
        assert lo_err < 2.0 ** -48 and hi_err < 2.0 ** -48
        checked += 1
    assert checked > 0
