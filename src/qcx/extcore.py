"""Grid-based convexity and quasiconvexity certification.

This module is the numerical backend used everywhere else: it discretizes a
box domain, scans pairs of grid points together with a set of interpolation
weights, and reports either a reproducible violation witness or a
"no violation found" certificate.

Certification semantics
-----------------------
A ``Certified`` verdict is a *necessary-condition* certificate: it means no
violation larger than the tolerance was found at the given grid resolution
and weight set. A ``Refuted`` verdict is sound: the witness re-evaluates to
a violation of at least the tolerance.

The pair set contains all pairs of grid points plus, for each grid point and
each axis, short pairs at geometrically shrinking steps. The short pairs make
narrow curvature defects visible well below the uniform grid spacing, which
is where the convexity index of :mod:`qcx.cindex` usually finds the pair that
fixes its break-even point.

:class:`PairTable` streams the pairs in blocks of :data:`SCAN_BLOCK` and
keeps no pair: every pass rebuilds each block and evaluates its mixes one
weight at a time, so memory is O(block + grid) and ``pair_budget`` bounds
time, not memory. On a declared separable sum (:attr:`FunctionSpec.terms`)
the grid pairs stream in chunks of whole rows, whose mix values are outer
sums of per-term tables of O(block) entries, and the local pairs' far
endpoint and mix values are outer sums of per-cell term values
(:mod:`qcx.separable`), so the sum is evaluated on the grid only. The
certifiers make one gap scan. The convexity index reads every block once,
in its gap scan, which also streams the pairs through its
break-even solve (:class:`BreakEvenStream`, whose case-I prune makes the cap
test where it cannot clear a pair) and forms no gap after the first above
its tolerance; a case switch after the first block and weight re-reads what
the scan passed before it, the case-II cap probe reads up to its first
failing block, and the upper bracket end replays on the binding pair
alone. The solve bisects each batch in a fixed count of rounds, each one
kernel call over the batch's pairs.

The exponential transform ``exp(-lam * g)`` is tested pair by pair in a
mix-normalized ``expm1`` form by one kernel, :func:`_excess`, and the index
is the extremum of each pair's canonical crossing
(:meth:`PairTable.exp_break_even`), so no solve schedule can move it.
Kernels skip the exponentials or logs of pairs that provably cannot matter
(:func:`_cap_violation`, :func:`_prune`), and a pair pruned at one running
extremum can beat no later one, so no pass verifies the result.

Every pass walks the blocks one at a time, in the table's read order, not
in the pairs' position order (:class:`PairTable`), so the evaluation oracle
is never called concurrently and need not be reentrant. Ties between gaps
go to the earlier weight, then the lower pair position, so results depend
on neither the block size nor the read order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import BudgetExceededError, ImproperFunctionError

#: The interpolation weights k/8; midpoint alone misses asymmetric violations.
DEFAULT_ETAS: tuple[float, ...] = tuple(k / 8 for k in range(1, 8))

#: Number of geometric refinement scales for local pairs (h, h/2, ..., h/2^8).
LOCAL_SCALES = 9

#: Range spread below which a grid of values is treated as constant.
CONSTANT_SPREAD = 1e-10

#: Pairs per weight solved in a break-even burst's first round; it doubles.
SOLVE_BATCH = 32

#: Candidates per weight that set off a burst, which leaves at most half.
SOLVE_PILE = 256

#: Pairs per block of a streamed pass; a pass holds one block at a time.
SCAN_BLOCK = 8192

#: No pair: ``(position, da, db, key)`` of none.
_NONE = (np.empty(0, dtype=np.intp),) + (np.empty(0),) * 3


class Verdict(enum.Enum):
    CERTIFIED = "certified"
    REFUTED = "refuted"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Witness:
    """A violating triple: two points and an interpolation weight."""

    x1: tuple[float, ...]
    x2: tuple[float, ...]
    eta: float
    violation: float


@dataclass(frozen=True)
class CertResult:
    verdict: Verdict
    witness: Optional[Witness] = None
    tol: float = 0.0
    degenerate: bool = False

    @property
    def certified(self) -> bool:
        return self.verdict is Verdict.CERTIFIED

    @property
    def refuted(self) -> bool:
        return self.verdict is Verdict.REFUTED


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box with a per-axis grid resolution.

    Grids always include both endpoints; every resolution must be >= 3.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    m: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.lo) == len(self.hi) == len(self.m)):
            raise ValueError("lo, hi, m must have equal lengths")
        for a, b, k in zip(self.lo, self.hi, self.m):
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError(f"invalid interval [{a}, {b}]")
            if k < 3:
                raise ValueError(f"grid resolution {k} < 3")

    @staticmethod
    def of(lo, hi, m) -> "BoxDomain":
        """Build from scalars (1-D) or per-axis sequences."""
        if np.isscalar(lo):
            lo, hi, m = (lo,), (hi,), (m,)
        return BoxDomain(tuple(float(x) for x in lo),
                         tuple(float(x) for x in hi),
                         tuple(int(k) for k in m))

    @property
    def dim(self) -> int:
        return len(self.lo)

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(a, b, k) for a, b, k in zip(self.lo, self.hi, self.m)]

    def points(self) -> np.ndarray:
        """All grid points as an (N, dim) array in C order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=1)


@dataclass
class FunctionSpec:
    """An extended-real function on a box, given by a vectorized oracle.

    ``fn`` maps an ``(N, dim)`` array to an ``(N,)`` float array, point by
    point; ``+inf`` entries are allowed, ``-inf`` and NaN are not (proper
    functions). The optional ``grad`` and ``hess`` oracles have the same
    calling convention and are only consulted by the smooth 1-D cross-check.

    ``terms`` declares a separable sum, its axis ranges in order: ``((f_k,
    first, stop), ...)`` says that ``fn`` is ``0 + f_1(x[:, first_1:stop_1])
    + f_2(...) + ...``, summed in that order. :class:`PairTable` then looks
    every value off the grid up in per-term values instead of evaluating.
    """

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""
    terms: tuple[tuple["FunctionSpec", int, int], ...] = ()

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, self.dim)
        vals = np.asarray(self.fn(pts), dtype=float).reshape(-1)
        if len(vals) != len(pts):
            raise ValueError(f"oracle for {self.name or 'function'} returned "
                             f"{len(vals)} values for {len(pts)} points")
        return self.check(vals)

    def check(self, vals: np.ndarray) -> np.ndarray:
        """``vals``, once no entry is NaN or ``-inf``."""
        low = vals.min(initial=math.inf)  # NaN propagates through min
        if math.isnan(low):
            raise ValueError(f"oracle for {self.name or 'function'} returned NaN")
        if low == -math.inf:
            raise ImproperFunctionError(
                f"{self.name or 'function'} declared proper but returned -inf")
        return vals

    @property
    def smooth(self) -> bool:
        return self.grad is not None and self.hess is not None


def default_gap_tol(g: FunctionSpec) -> float:
    """1e-9 for inputs with derivative oracles, 1e-6 otherwise."""
    return 1e-9 if g.smooth else 1e-6


def scale_function(g: FunctionSpec, w: float) -> FunctionSpec:
    """The function ``w * g`` with derivatives scaled alongside."""
    if not 0 <= w < math.inf:
        raise ValueError(f"scale weight must be finite and nonnegative, "
                         f"got {w}")
    return FunctionSpec(
        dim=g.dim,
        fn=lambda p: w * g.fn(p),
        grad=(lambda p: w * g.grad(p)) if g.grad is not None else None,
        hess=(lambda p: w * g.hess(p)) if g.hess is not None else None,
        name=f"{w:g}*{g.name}" if g.name else "",
    )


# ---------------------------------------------------------------------------
# gap forms and the block scan
# ---------------------------------------------------------------------------

def _combos(fa, fb, out=None):
    return lambda eta: np.add(eta * fa, (1 - eta) * fb, out=out)


def _peaks(fa, fb, out=None):
    peak = np.maximum(fa, fb, out=out)  # the same at every weight
    return lambda eta: peak


#: ``(sign, refs)`` per scan kind: ``gap = sign * (fm - refs(fa, fb)(eta))``
#: at the mix value ``fm``; a NaN gap (both sides +inf) is degenerate.
GAP_FORMS = {"convex": (1.0, _combos), "concave": (-1.0, _combos),
             "quasiconvex": (1.0, _peaks)}


def _gap(kind: str, g: FunctionSpec, x1, x2, eta: float) -> tuple[float, bool]:
    """The gap of form ``kind`` at one triple, in the arithmetic of the scan,
    with a degeneracy flag; an undetermined gap is ``+inf``."""
    sign, refs = GAP_FORMS[kind]
    x1, x2 = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (x1, x2))
    v1, v2, vm = g(np.stack([x1, x2, _mix_points(x1, x2, eta)]))
    with np.errstate(all="ignore"):
        gap = sign * (vm - refs(v1, v2)(eta))
    return (math.inf, True) if math.isnan(gap) else (float(gap), False)


def convexity_gap(g: FunctionSpec, x1, x2, eta: float) -> tuple[float, bool]:
    """``(gap, degenerate)`` of ``g(eta x1 + (1-eta) x2) - eta g(x1) - (1-eta)
    g(x2)``; ``(+inf, True)`` when both sides of the difference are ``+inf``."""
    return _gap("convex", g, x1, x2, eta)


def quasiconvexity_gap(g: FunctionSpec, x1, x2, eta: float) -> tuple[float, bool]:
    """``g(mix) - max(g(x1), g(x2))`` with the same degeneracy convention."""
    return _gap("quasiconvex", g, x1, x2, eta)


# ---------------------------------------------------------------------------
# exponential-transform kernels
# ---------------------------------------------------------------------------

#: Over twice the error of :func:`_excess` plus one float step of ``t``.
EXCESS_MARGIN = 2.0 ** -46

#: Relative tolerance of the mix-normalized exponential-transform test.
REL_GAP_TOL = 1e-12


def _excess(da, db, eta, lam, sign: int) -> np.ndarray:
    """Per pair, ``-sign (eta expm1(-lam da) + (1-eta) expm1(-lam db))``:
    ``-sign (phi - 1)`` for ``phi = eta e^{-lam da} + (1-eta) e^{-lam db}``.
    Every exponential-transform test uses it; NaN never violates.

    Error, with ``u = 2^-53`` and ``expm1`` within 2 ulp: where the exact
    ``phi <= 2``, each term has ``w e^x <= 2`` (``x <= log 16``), so the
    product ``x = -lam d`` adds at most ``u sum w |x| e^x <= 6u``,
    ``expm1`` and the weight ``5u sum w |expm1 x| <= 15u`` and the sum
    ``u``: under ``22u``. A float step of ``t = |lam|`` moves the exact
    excess by at most ``2u sum w |x| e^x <= 12u`` (``2^-49`` among
    subnormals). Where ``phi > 2`` the error is under ``716u phi``: the
    float excess fails (sign=-1) or passes (sign=+1) :data:`REL_GAP_TOL`,
    in ``(2^-45, 1/2)``, as the exact one does.
    """
    ea, eb = np.multiply(-lam, da), np.multiply(-lam, db)
    np.expm1(ea, out=ea)
    np.expm1(eb, out=eb)
    ea *= eta
    eb *= 1 - eta
    ea += eb
    return np.negative(ea, out=ea) if sign > 0 else ea


def _exp_violation(da, db, eta, lam, sign: int) -> np.ndarray:
    """Per pair: is :func:`_excess` above :data:`REL_GAP_TOL`? NaN never is."""
    return _excess(da, db, eta, lam, sign) > REL_GAP_TOL


def _cap_violation(da, db, eta: float, cap: float) -> np.ndarray:
    """``_exp_violation(da, db, eta, -cap, +1)``, skipping the
    exponentials of the pairs that cannot violate.

    The mask forms ``cap * da`` as the kernel does. Where it is at least
    the float ``log(4 / eta)``, ``expm1`` gives over ``4 / eta - 1.01``, so
    ``eta expm1 > 3.1`` while the other term is at least ``-(1 - eta)``
    (``expm1 >= -1``): the excess is negative or NaN. Likewise for ``db``.
    A pair with a NaN difference is skipped as well: its excess is NaN,
    which never violates.
    """
    keep = np.multiply(cap, da) < math.log(4 / eta)
    keep &= np.multiply(cap, db) < math.log(4 / (1 - eta))
    fail = np.zeros(len(da), dtype=bool)
    fail[keep] = _exp_violation(da[keep], db[keep], eta, -cap, +1)
    return fail


def _crossing_estimate(da, db, eta, sign: int, *, t: float = 0.0,
                       excess=0.0) -> np.ndarray:
    """Second-order estimate of each pair's break-even lambda (+inf: none)
    at ``t``, where its excess is ``excess``: with ``w_a = eta e^{sign t
    da}``, ``w_b = (1-eta) e^{sign t db}``, ``s = w_a da + w_b db`` and ``q
    = w_a da^2 + w_b db^2``, ``phi(t + h) ~ phi(t) + sign s h + q h^2 / 2``;
    it is ``-sign`` times the root ``t + h`` of ``phi = 1 -/+ REL_GAP_TOL``
    that bounds the passing set; smaller is more binding, it only orders work."""
    wa, wb = eta, 1 - eta
    if t:
        wa = np.exp(np.multiply(sign * t, da)) * eta
        wb = np.exp(np.multiply(sign * t, db)) * (1 - eta)
    s, q = wa * da + wb * db, wa * da * da + wb * db * db
    root = np.sqrt(s * s - (sign * 2.0) * (REL_GAP_TOL - excess) * q)
    key = (s - root if sign > 0 else s + root) / q - sign * t
    return np.fmin(key, math.inf, out=key)  # NaN (no crossing) -> +inf


def _fail_end(da, db, eta, sign: int, lam_cap: float):
    """Each pair's canonical failing ``t`` and whether it fails there: the
    cap for sign=-1, the minimizer ``log(-(1-eta) db / (eta da)) / (da -
    db)`` of ``phi`` if inside ``(0, lam_cap)`` for sign=+1."""
    t = (np.full(len(da), lam_cap) if sign < 0 else
         np.log(db * (eta - 1) / (eta * da)) / (da - db))
    fails = (t > 0) & (t <= lam_cap)  # the test only where that holds
    at, eta = np.flatnonzero(fails), np.broadcast_to(eta, t.shape)
    fails[at] = _exp_violation(da[at], db[at], eta[at], -sign * t[at], sign)
    return t, fails


def _past_minimizer(da, db, eta: float, t: float) -> np.ndarray:
    """Per pair: is ``t > 0`` provably above the minimizer ``t_min`` of
    ``phi(t) = eta e^{t da} + (1-eta) e^{t db}`` (sign=+1)?

    Where ``da`` and ``db`` have opposite signs, ``r = t |da - db| - sgn(da)
    log q``, with ``q = (1-eta) |db| / (eta |da|)``, is ``(t - t_min) |da -
    db|``. Marked: a float ``r`` over ``2^-40 P + 2^-39``, ``P = t |da| + t
    |db|`` as formed. With ``u = 2^-53`` and libm's ``log`` within 2 ulp,
    the three logs (each under 745, so within ``2^-42``) and their two sums
    (under 1492) err by under ``2^-40``, ``P`` by ``2.01u t |da - db| +
    2^-1073`` (it overflows only where ``r`` is huge) and the subtraction by
    ``u |r|``: a mark means ``r > 0``. Where the signs agree, ``phi`` never
    falls below 1 or :func:`_fail_end` finds no crossing, so a mark drops
    nothing that counts; a zero or infinite difference is never marked.
    """
    r = np.abs(da) * t + np.abs(db) * t
    log_q = np.log(np.abs(db)) - np.log(np.abs(da)) + math.log((1 - eta) / eta)
    return r - np.sign(da) * log_q > r * 2.0 ** -40 + 2.0 ** -39


def _prune(da, db, eta: float, t: float, sign: int, lam_cap: float):
    """The pairs whose crossing can beat or tie the running extremum ``t``:
    their positions in the input (ascending), ``da``, ``db`` and crossing
    estimates, made at ``t`` (at 0 while ``t`` is the cap). For sign=+1,
    None instead if a pair fails the cap test (:func:`_cap_violation`),
    made only on the pairs whose excess at ``t`` is at least ``-EXCESS_MARGIN``.

    Dropped: an excess at ``t`` under ``REL_GAP_TOL - EXCESS_MARGIN``, for
    sign=+1 under ``-EXCESS_MARGIN``, or in between with ``t`` past the
    minimizer (:func:`_past_minimizer`; not tested at the least positive
    ``t``, past which lies no positive minimizer) or no crossing
    (:func:`_fail_end`).
    With the bounds of :func:`_excess` (``EXCESS_MARGIN`` is ``128u``), a
    dropped pair passes at every midpoint its bisection can reach past
    ``t``, so its crossing is worse than ``t``:

    * sign=-1: the exact excess is under ``REL_GAP_TOL - EXCESS_MARGIN + 34u``
      up to a float above ``t``, and by convexity of ``phi`` (``phi(0) =
      1``) below that or 0 on ``[0, t]``; the bisection ends above ``t``.
    * sign=+1: ``phi`` rises beyond ``t``, where ``phi(t) > 1`` (slope at
      least ``(phi(t) - 1) / t``) or past the minimizer, so the exact
      excess is under ``REL_GAP_TOL - EXCESS_MARGIN + 34u`` from a float
      below ``t`` on; the bisection down from the cap ends below ``t``.

    The running extremum only falls for sign=-1 and only rises for sign=+1,
    so a drop holds at every later extremum too: one prune of each pair at
    the extremum of its turn finds the index, and no probe need confirm it.

    The cap test skips no failing pair (sign=+1, ``t <= lam_cap``, both
    ends exact floats). A float excess under ``-EXCESS_MARGIN`` at ``t``
    puts the exact one under ``-EXCESS_MARGIN + 22u < 0`` where ``phi(t) <=
    2``, so ``phi(t) > 1`` either way. As ``phi`` is convex with ``phi(0) =
    1``, it does not fall from ``t`` on, so ``phi > 1`` at every ``lambda``
    from ``-t`` to ``-lam_cap``: the pair passes there exactly, and at the
    cap in floats too, its float excess under ``22u`` where ``phi <= 2``
    and passing :data:`REL_GAP_TOL`, in ``(2^-45, 1/2)``, where ``phi > 2``.
    A NaN excess at ``t`` (a NaN difference; ``t > 0`` is finite) is NaN at
    the cap too, which never violates.

    A re-prune of kept pairs (:meth:`BreakEvenStream.burst`) never returns
    None: each kept pair's excess was over ``REL_GAP_TOL - EXCESS_MARGIN >
    -EXCESS_MARGIN``, so it passed its cap test, which ignores ``t``.
    """
    excess = _excess(da, db, eta, -sign * t, sign)
    pos = np.flatnonzero(excess >= -EXCESS_MARGIN if sign > 0
                         else excess > REL_GAP_TOL - EXCESS_MARGIN)
    if not len(pos):  # most prunes at the final extremum
        return _NONE
    da, db, excess = da[pos], db[pos], excess[pos]
    if sign > 0:  # the near pairs: NaN fails both tests
        if _cap_violation(da, db, eta, lam_cap).any():
            return None
        keep = excess > REL_GAP_TOL - EXCESS_MARGIN
        middle = np.flatnonzero(~keep)
        if len(middle) and t > math.ulp(0.0):
            middle = middle[~_past_minimizer(da[middle], db[middle], eta, t)]
        if len(middle):
            keep[middle] = _fail_end(da[middle], db[middle], eta, sign,
                                     lam_cap)[1]
        pos, da, db, excess = pos[keep], da[keep], db[keep], excess[keep]
    if not len(pos):
        return _NONE
    at = t if t < lam_cap else 0.0  # the cap is no solved crossing
    return pos, da, db, _crossing_estimate(da, db, eta, sign, t=at,
                                           excess=excess if at else 0.0)


def _mix_points(a, b, eta):
    """The mixes ``eta a + (1 - eta) b``, in the arithmetic of every scan."""
    m = np.multiply(a, eta)
    m += np.multiply(b, 1 - eta)
    return m


def _solve(picks, best, sign: int, lam_cap: float):
    """Solve the crossings of ``picks``, ``(which, pair indices, da, db)``
    per weight, from :func:`_fail_end` to 0 (sign=-1) or the cap
    (sign=+1); return the better of ``best`` and the best solved pair as
    ``(lam_pass, which, idx, t_pass, t_fail)``.

    The bisection on float bit patterns halves every bracket in each of
    a fixed count of rounds, the ``ceil(log2)`` of the widest bracket, with
    no convergence test: a round is one :func:`_exp_violation` of every
    pair at its midpoint and the two bracket updates. A bracket already one
    float wide (or none) re-tests its passing end (sign=-1) or its failing
    end (sign=+1) with the same operands, so it does not move.

    The rounds form :func:`_excess` in place, in three scratch arrays: the
    products ``-lam d`` as ``t (sign d)``, the same bits, with ``sign d``
    and ``1 - eta`` formed once, and for sign=+1 the test ``-x >
    REL_GAP_TOL`` as ``x < -REL_GAP_TOL``."""
    which = np.concatenate([np.full(len(p[1]), p[0]) for p in picks])
    idx, da, db = (np.concatenate(c) for c in zip(*(p[1:] for p in picks)))
    eta = np.asarray(DEFAULT_ETAS)[which]
    t_fail, has = _fail_end(da, db, eta, sign, lam_cap)
    if not has.any():
        return best
    which, idx, da, db, eta, t_fail = (
        x[has] for x in (which, idx, da, db, eta, t_fail))
    pass_bits = np.full(len(idx), 0.0 if sign < 0 else lam_cap).view(np.int64)
    fail_bits = t_fail.view(np.int64)  # t_fail is bisected in place
    width = int(np.abs(fail_bits - pass_bits).max())
    sda, sdb = (-da, -db) if sign < 0 else (da, db)
    rest = 1 - eta
    ea, eb, mid = np.empty(len(idx)), np.empty(len(idx)), np.empty_like(
        pass_bits)
    for _ in range(max(width - 1, 0).bit_length()):
        np.subtract(fail_bits, pass_bits, out=mid)
        mid >>= 1  # floors, as // 2 does
        mid += pass_bits
        t = mid.view(np.float64)
        np.expm1(np.multiply(t, sda, out=ea), out=ea)
        np.expm1(np.multiply(t, sdb, out=eb), out=eb)
        ea *= eta
        eb *= rest
        ea += eb
        bad = ea > REL_GAP_TOL if sign < 0 else ea < -REL_GAP_TOL
        np.putmask(fail_bits, bad, mid)
        np.putmask(mid, bad, pass_bits)  # mid is the new passing end
        pass_bits, mid = mid, pass_bits
    t_pass = pass_bits.view(np.float64)
    lam_pass = -sign * t_pass
    k = np.lexsort((idx, which, lam_pass))[0]
    cand = (float(lam_pass[k]), int(which[k]), int(idx[k]),
            float(t_pass[k]), float(t_fail[k]))
    return cand if best is None or cand[:3] < best[:3] else best


class BreakEvenStream:
    """The solve of :meth:`PairTable.exp_break_even`, fed block by block as
    the ``fold`` of :meth:`PairTable.scan`: each block and weight is pruned
    at the running extremum ``t`` (:func:`_prune`) onto a pile of that
    weight, as pair positions and the prune's arrays, and a pile of over
    :data:`SOLVE_PILE` pairs sets off a :meth:`burst`. It starts at case II
    (sign=-1, ``t = lam_cap``); at the scan's first gap above its tolerance
    it drops its piles and restarts at case I (sign=+1, ``t = ulp(0)``) from
    the block and weight in ``switch``. A case-I prune also makes the cap
    test, on the pairs it cannot clear at ``t``; once a pair fails it,
    ``capped`` is set and folding stops."""

    def __init__(self, lam_cap: float):
        self.lam_cap, self.sign, self.t = lam_cap, -1, lam_cap
        self.best, self.capped, self.switch = None, False, None
        self.piles = [[_NONE] for _ in DEFAULT_ETAS]  # _prune results per weight

    def __call__(self, block, which: int, eta: float, da, db,
                 refuted: bool = False) -> bool:
        """Stream a block's pairs at one weight; false once capped."""
        if self.sign < 0 and refuted:
            self.__init__(self.lam_cap)
            self.sign, self.t, self.switch = +1, math.ulp(0.0), (block, which)
        found = _prune(da, db, eta, self.t, self.sign, self.lam_cap)
        self.capped = found is None
        if self.capped:
            return False
        pile = self.piles[which]
        if len(found[0]):
            np.add(found[0], block[0], out=found[0])  # positions in the table
            pile.append(found)
        if sum(len(p[0]) for p in pile) > SOLVE_PILE:
            self.burst(SOLVE_PILE // 2)
        return True

    def burst(self, most: int):
        """Solve rounds until no pile holds over ``most`` pairs: each solves
        the ``batch`` pairs of least :func:`_crossing_estimate` of every pile
        in one :func:`_solve`, ``batch`` doubling from ``SOLVE_BATCH``, and
        prunes the rest at the extremum if it moved."""
        piles = [tuple(map(np.concatenate, zip(*p))) for p in self.piles]
        batch = SOLVE_BATCH
        while max(len(p[0]) for p in piles) > most:
            picks, rest = [], []
            for which, (idx, da, db, key) in enumerate(piles):
                take = np.zeros(len(idx), dtype=bool)
                take[np.argsort(key, kind="stable")[:batch]] = True
                picks.append((which, idx[take], da[take], db[take]))
                rest.append(tuple(x[~take] for x in (idx, da, db, key)))
            self.best = _solve(picks, self.best, self.sign, self.lam_cap)
            piles, batch = rest, 2 * batch
            if self.best is not None and self.best[3] != self.t:
                self.t = self.best[3]
                kept = [_prune(da, db, eta, self.t, self.sign, self.lam_cap)
                        for eta, (_, da, db, _) in zip(DEFAULT_ETAS, piles)]
                piles = [(p[0][k[0]],) + k[1:] for p, k in zip(piles, kept)]
        self.piles = [[p] for p in piles]


class PairTable:
    """The pair set of a box grid, streamed in blocks of :data:`SCAN_BLOCK`.

    Pair positions run over the grid pairs in ``np.triu_indices`` order,
    then per axis and local scale the steps up from every grid point and the
    steps down, clipped to the box. A step clipped back onto its base point
    is skipped (its mix may round an ulp away from it). Passes read the
    ``blocks`` that hold local pairs first, whose crossings follow
    ``f''/f'^2`` point by point and mostly fix the index. The table keeps
    the grid points, their values and the block list; every pass rebuilds
    each block and evaluates its mixes one weight at a time, so a pass holds
    one block. The passes are gap scans and the ``expm1`` transform test.
    The index's gap scan also streams its break-even solve, so the index
    reads each block once, and once more the blocks that the scan passed
    before a case switch, then only its binding pair; that scan only decides
    whether a gap exceeds its tolerance, and stops forming gaps once one does.

    For a function that declares separable ``terms``, ``terms`` holds its
    :class:`qcx.separable.TermTables`: per weight and term the values
    ``T_k[p, q] = f_k(eta c_p + (1 - eta) c_q)`` at the mixes of every two
    cells ``c_p``, ``c_q`` of the term's sub-grid, and per local run the
    moving term's values at its far ends and mixes. The grid pairs stream in
    chunks of whole rows, whose mix values are the outer sum ``0 + T_1 + T_2
    + ...``, and the local blocks' far endpoint and mix values are outer
    sums of per-cell term values: the sum's own arithmetic on the same term
    values, so the sum is evaluated on the grid only. The tables are kept
    only when every term has at most ``SCAN_BLOCK`` cell pairs, so they stay
    O(block) per weight and term; otherwise every mix is evaluated. A gap
    scan makes three passes per chunk and weight, in one buffer per scan
    (:meth:`scan`), and checks no sum that the term values' minima prove
    neither NaN nor ``-inf``.
    """

    def __init__(self, g: FunctionSpec, box: BoxDomain,
                 pair_budget: Optional[int] = None):
        if g.dim != box.dim:
            raise ValueError(f"function dim {g.dim} != box dim {box.dim}")
        n = math.prod(box.m)  # the budget is checked before the grid is built
        self.grid_pairs = count = n * (n - 1) // 2
        if pair_budget is not None and count > pair_budget:
            raise BudgetExceededError(
                f"grid yields {count} pairs, budget is {pair_budget}")
        self.g = g
        self.pts = box.points()
        self.grid_values = g(self.pts)
        if np.isposinf(self.grid_values).all():
            raise ImproperFunctionError(
                f"{g.name or 'function'} is +inf on the entire grid")
        self.row_start = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
        self.local = []  # (first position, size, (axis, step, lo, hi)) per run
        for axis, ax in enumerate(box.axes()):
            h = (ax[-1] - ax[0]) / (len(ax) - 1)
            for step in (sign * h / 2 ** k for k in range(LOCAL_SCALES)
                         for sign in (1, -1)):
                local = (axis, step, ax[0], ax[-1])
                size = len(self._local(*local)[0])
                self.local += [(count, size, local)] if size else []
                count += size
        self.a = range(count)  # pair positions; bench/spans.py counts len(a)
        self.terms = term_tables(self, box) if g.terms else None
        chunks, first = ([], 0) if self.terms is None else (
            self.terms.chunks(), self.grid_pairs)
        self.blocks = sorted(chunks + [
            (s, min(s + SCAN_BLOCK, count))
            for s in range(first, count, SCAN_BLOCK)],
            key=lambda block: block[1] <= self.grid_pairs)  # local pairs first

    def _local(self, axis, step, lo, hi):
        moved = np.clip(self.pts[:, axis] + step, lo, hi)
        base = np.flatnonzero(moved != self.pts[:, axis])
        return base, moved[base]

    def _build(self, block):
        """``(a, b, fa, fb)`` of the pairs at positions ``block[0]`` up to
        ``block[1]``, filled in one run of pairs at a time."""
        start, stop = block
        out, at = None, 0
        for run in self._runs(start, stop):
            if out is None:
                if len(run[2]) == stop - start:
                    return run
                out = tuple(np.empty((stop - start,) + x.shape[1:]) for x in run)
            for whole, x in zip(out, run):
                whole[at:at + len(x)] = x
            at += len(run[2])
        return out

    def _runs(self, start, stop):
        """``(a, b, fa, fb)`` of each run of pairs between positions
        ``start`` and ``stop``: the grid pairs, then each local run."""
        if start < self.grid_pairs:
            i, j = self._grid(start, min(stop, self.grid_pairs))
            yield (np.take(self.pts, i, axis=0), np.take(self.pts, j, axis=0),
                   self.grid_values[i], self.grid_values[j])
        for first, size, local in self.local:
            lo, hi = max(start - first, 0), min(stop - first, size)
            if lo < hi:
                yield self._steps(local, lo, hi)

    def _grid(self, start, stop):
        """Point indices ``(i, j)`` of the grid pairs ``start`` up to
        ``stop``."""
        first = int(np.searchsorted(self.row_start, start, side="right")) - 1
        rows = np.arange(first, np.searchsorted(self.row_start, stop))
        counts = np.diff(np.clip(self.row_start[first:rows[-1] + 2], start, stop))
        i = np.repeat(rows, counts)
        j = np.arange(start, stop) + i + 1 - np.repeat(self.row_start[rows], counts)
        return i, j

    def _steps(self, local, lo, hi):
        """Endpoints and values of steps ``lo`` up to ``hi`` of a local run."""
        base, moved = self._local(*local)
        base = base[lo:hi]
        near, far = np.take(self.pts, base, axis=0), np.take(self.pts, base, axis=0)
        far[:, local[0]] = moved[lo:hi]
        f_near, f_far = self.grid_values[base], self.g(far)
        if local[1] > 0:
            return near, far, f_near, f_far
        return far, near, f_far, f_near

    def _block(self, block, out=None):
        """``(fa, fb, mix, skip, pair)`` of the pairs at positions
        ``block[0]`` up to ``block[1]``: ``mix(which)`` gives their values at
        the mixes of weight ``DEFAULT_ETAS[which]``, aligned with ``fa`` and
        ``fb``, and ``pair(k)`` the position and endpoints of its entry ``k``
        in C order. ``skip`` is None, or for a chunk (``TermTables.chunk``,
        which writes its mix values into ``out`` if given) it marks the
        entries that are no pair. A sum's local blocks are looked up too
        (``TermTables.steps``)."""
        if self.terms is not None and block[0] < self.grid_pairs:
            return self.terms.chunk(block, out)
        if self.terms is not None and self.terms.runs is not None:
            return self.terms.steps(block)
        a, b, fa, fb = self._build(block)
        return (fa, fb,
                lambda which: self.g(_mix_points(a, b, DEFAULT_ETAS[which])),
                None, lambda k: (block[0] + k, a[k], b[k]))

    def _diffs(self, block):
        """Per weight ``(eta, fa - fm, fb - fm)`` of the block's pairs, in
        position order, the mix values ``fm`` made one weight at a time."""
        fa, fb, mix, skip, _ = self._block(block)
        keep = slice(None) if skip is None else ~skip
        for which, eta in enumerate(DEFAULT_ETAS):
            fm = mix(which)
            yield eta, (fa - fm)[keep], (fb - fm)[keep]

    # -- absolute gap scans --------------------------------------------------

    def scan(self, kind: str, tol: float, fold=None):
        """Largest non-degenerate gap of the given kind over the table.

        kind is one of ``convex``, ``concave``, ``quasiconvex`` (see
        :data:`GAP_FORMS`). Returns ``(worst_gap, witness | None,
        degenerate_seen)`` where the witness is reported only when the worst
        gap exceeds ``tol``. Ties go to the earlier weight, then the lower
        pair index, within and across blocks, so the result does not depend
        on the block size.

        A chunk's mix values are summed into one of two buffers of
        ``chunk_size`` entries, made at the first chunk, after the local
        blocks, and its reference written into the other. The reference is
        ``sign * inf`` at the entries that are no pair, so their gaps are
        ``-inf``, or NaN, which is not degenerate, where the mix value is
        ``sign * inf``.
        The best entry is the ``argmax`` of the difference ``fm - ref``, or
        its ``argmin`` for the concave form, whose gap is the negation.

        ``fold(block, which, eta, da, db, refuted)``, if given, gets each
        block and weight's :meth:`_diffs` and whether a gap above ``tol``
        was seen so far, until it returns false, which ends the scan. A scan
        with a fold forms no gap once it has seen one, and returns nothing.
        """
        sign, refs = GAP_FORMS[kind]
        # finds the best gap's entry in fm - ref, which is sign * gap
        pick = np.ndarray.argmax if sign > 0 else np.ndarray.argmin
        top = np.fmax.reduce if sign > 0 else np.fmin.reduce  # skip NaN
        # (gap, -which, -position) of the running best; a -inf gap (no pair
        # or all degenerate) is never kept
        best, degen, refuted, bufs = (-math.inf, 0, 0), False, False, None
        with np.errstate(all="ignore"):
            for block in self.blocks:
                if (bufs is None and self.terms is not None
                        and block[0] < self.grid_pairs):
                    bufs = np.empty((2, self.terms.chunk_size))
                fa, fb, mix, skip, pair = self._block(
                    block, None if bufs is None else bufs[0])
                ref = refs(fa, fb, None if skip is None else
                           bufs[1, :skip.size].reshape(skip.shape))
                for which, eta in enumerate(DEFAULT_ETAS):
                    gap = mix(which)  # a chunk's buffer; an oracle's maybe not own
                    if fold is not None:
                        keep = slice(None) if skip is None else ~skip
                        diffs = (fa - gap)[keep], (fb - gap)[keep]
                    if not refuted:
                        # masked per weight, or once for a peak, which is the
                        # same at every weight
                        r = ref(eta)
                        if skip is not None and (refs is _combos or which == 0):
                            np.copyto(r, sign * math.inf, where=skip)
                        # sign times the gap, which is -inf at no pair, or NaN
                        # where the mix value is sign * inf; in no oracle's array
                        gap = np.subtract(gap, r, out=gap if skip is not None
                                          else r if refs is _combos else None)
                        del r
                    if fold is not None:
                        refuted = refuted or bool(sign * top(gap, None) > tol)
                        if not fold(block, which, eta, *diffs, refuted):
                            return
                        continue
                    # the pick finds a NaN (degenerate if a pair) if there is one
                    k = int(pick(gap))
                    if math.isnan(gap.flat[k]):
                        degen = (degen or skip is None
                                 or bool(np.isnan(gap[~skip]).any()))
                        gap[np.isnan(gap)] = -sign * math.inf
                        k = int(pick(gap))
                    pos, x1, x2 = pair(k)
                    key = (float(sign * gap.flat[k]), -which, -pos)
                    if key[0] > -math.inf and key > best:
                        best, at = key, (tuple(map(float, x1)),
                                         tuple(map(float, x2)), float(eta))
        if fold is not None:
            return
        worst = best[0]
        return worst, Witness(*at, worst) if worst > tol else None, degen

    # -- mix-normalized exponential scan --------------------------------------

    def exp_transform_ok(self, lam: float) -> bool:
        """Is ``exp(-lam * g)`` convex (``lam < 0``) or concave (``lam > 0``)
        on the table? Both at 0; a NaN or infinite ``lam`` raises ValueError.

        Each pair is tested in a form normalized by the value at the mix
        point: with ``c = eta e^{-lam (fa - fm)} + (1-eta) e^{-lam (fb - fm)}``
        a convexity violation is ``1 - c > REL_GAP_TOL`` and a concavity
        violation is ``c - 1 > REL_GAP_TOL``, formed from ``expm1`` terms
        (:func:`_excess`). The normalization keeps the test exact when
        ``exp(-lam * g)`` itself would overflow or underflow, which happens at
        the lambda cap of the index. Pairs where the normalized differences
        are undetermined (both values +inf) are skipped. :meth:`exp_break_even`
        solves this test, pair by pair. The scan stops at the first failing
        block.
        """
        if not math.isfinite(lam):
            raise ValueError(f"lam must be finite, got {lam}")
        with np.errstate(all="ignore"):
            return lam == 0.0 or not any(
                _exp_violation(da, db, eta, lam, np.sign(-lam)).any()
                for block in self.blocks for eta, da, db in self._diffs(block))

    def exp_break_even(self, stream: BreakEvenStream
                       ) -> tuple[float, float, Optional[Witness]]:
        """The exact break-even lambda of :meth:`exp_transform_ok`,
        finishing a ``stream`` that the entry scan fed every block, at its
        sign and ``lam_cap``. For sign=-1, call it once the cap probe
        ``exp_transform_ok(lam_cap)`` has failed. Write ``lam = -sign * t``
        with ``t >= 0``; per pair, ``phi(t) = eta e^{-lam da} +
        (1-eta) e^{-lam db}`` is convex with ``phi(0) = 1``. A pair passes
        at ``t = 0``, and at the cap for sign=+1.

        Returns ``(lo, hi, binding)``: adjacent floats around the break-even
        lambda, the crossing of the ``binding`` pair, which passes at ``lo``
        and fails at ``hi``; but for float flips within the kernel's error
        so does the transform, by the proof of :func:`_prune`. Without a
        binding pair (sign=+1 only: no pair fails inside the cap), ``lo`` is
        the negative float nearest 0 and ``hi`` is 0; if the transform fails
        at the cap, ``lo`` is ``-inf`` and ``hi`` is ``-lam_cap``.

        The index is the extremum of each pair's canonical crossing, ties
        to the earlier weight, then the lower pair index: the adjacent
        floats that a bisection on the float bit patterns reaches from the
        pair's failing end (:func:`_fail_end`) to its passing end. A pair
        that does not fail at its failing end has none; in exact arithmetic
        it fails nowhere, or only within the error of :func:`_excess`.

        * sign=-1 (concavity, ``lam = t``): a pair passes on ``[0, t*]``;
          the index is the least crossing, bisected from ``[0, lam_cap]``.
        * sign=+1 (convexity, ``lam = -t``): a pair fails around the
          minimizer of ``phi``; the index is minus the greatest crossing,
          bisected from the minimizer to the cap.

        The stream gets the blocks and weights that the scan passed before a
        case switch again, then bursts until no candidate is left. The
        binding pair is rebuilt and its mix evaluated as a scan does; it must
        fail the transform test at ``hi``, or a RuntimeError is raised, and
        its endpoints and excess there are the witness.
        """
        sign, lam_cap = stream.sign, stream.lam_cap
        with np.errstate(all="ignore"):
            if stream.switch is not None and not stream.capped:
                block, which = stream.switch
                for b in self.blocks[:self.blocks.index(block) + 1]:
                    n = which if b == block else len(DEFAULT_ETAS)
                    if not all(stream(b, w, *diffs) for w, diffs in
                               zip(range(n), self._diffs(b))):
                        break
            if stream.capped:
                return -math.inf, -lam_cap, None
            stream.burst(0)
            if stream.best is None:  # sign=+1 only: no pair fails in [-lam_cap, 0)
                return -stream.t, 0.0, None
            lam_pass, which, idx, _, t_fail = stream.best
            hi, eta = -sign * t_fail, DEFAULT_ETAS[which]
            # replay the upper end on the binding pair, rebuilt as scanned
            a, b, fa, fb = self._build((idx, idx + 1))
            fm = self.g(_mix_points(a, b, eta))
            excess = _excess(fa - fm, fb - fm, eta, hi, sign)
            if not excess[0] > REL_GAP_TOL:
                raise RuntimeError("break-even upper end does not replay")
        binding = Witness(x1=tuple(map(float, a[0])), x2=tuple(map(float, b[0])),
                          eta=float(eta), violation=float(excess[0]))
        return lam_pass, hi, binding


# ---------------------------------------------------------------------------
# public certifiers
# ---------------------------------------------------------------------------

def _certify(g: FunctionSpec, box: BoxDomain, kind: str, replay,
             tol: Optional[float], pair_budget: Optional[int]) -> CertResult:
    if tol is None:
        tol = default_gap_tol(g)
    if tol <= 0:
        raise ValueError("tol must be positive")
    table = PairTable(g, box, pair_budget=pair_budget)
    _, witness, degen = table.scan(kind, tol)
    if witness is None:
        return CertResult(Verdict.CERTIFIED, None, tol, degen)
    # re-evaluate the witness independently of the scan before reporting it
    gap, wdegen = replay(g, witness.x1, witness.x2, witness.eta)
    if wdegen or gap <= tol:
        return CertResult(Verdict.INCONCLUSIVE, witness, tol, degen)
    return CertResult(Verdict.REFUTED, witness, tol, degen)


def certify_convex(g: FunctionSpec, box: BoxDomain, tol: Optional[float] = None,
                   pair_budget: Optional[int] = None) -> CertResult:
    """Scan for Jensen-inequality violations of ``g`` on the box grid."""
    return _certify(g, box, "convex", convexity_gap, tol, pair_budget)


def certify_concave(g: FunctionSpec, box: BoxDomain, tol: Optional[float] = None,
                    pair_budget: Optional[int] = None) -> CertResult:
    """Concavity counterpart of :func:`certify_convex`."""
    return _certify(g, box, "concave", partial(_gap, "concave"), tol, pair_budget)


def certify_quasiconvex(g: FunctionSpec, box: BoxDomain, tol: Optional[float] = None,
                        pair_budget: Optional[int] = None) -> CertResult:
    """Scan for ``g(mix) > max(g(x1), g(x2)) + tol`` over the pair set."""
    return _certify(g, box, "quasiconvex", quasiconvexity_gap, tol, pair_budget)


# The lookups of a declared sum build on the names above.
from .separable import term_tables  # noqa: E402
