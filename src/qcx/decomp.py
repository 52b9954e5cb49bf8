"""Quasiconvexity of additively decomposable sums via convexity indices.

A decomposable sum ``s(x_1, ..., x_n) = f_1(x_1) + ... + f_n(x_n)`` of
non-constant coordinate functions is quasiconvex exactly when the sum of the
coordinate convexity indices is nonnegative. Equivalently: either every
coordinate is convex, or all but one are convex and the reciprocal index sum
``sum_i 1/c_i`` is nonpositive (reciprocals under the ``1/0 = +inf``
convention). For convex coordinates the index of the sum itself obeys the
harmonic formula ``1/c(s) = sum_i 1/c(f_i)``.

This module decides sums from index vectors, extends the decision to
truncated infinite streams, and provides a brute-force product-grid oracle
that validates the index criteria end to end.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .cindex import DEFAULT_LAMBDA_CAP, ConvexityIndex, compute_index
from .errors import InfiniteIndexError, NegativeIndexError
from .extcore import BoxDomain, CertResult, FunctionSpec, certify_quasiconvex

#: Verdict margins closer to zero than this are flagged as boundary cases.
DEFAULT_BOUNDARY_MARGIN = 1e-3


def _inv(c: float) -> float:
    """Reciprocal with ``1/0 = +inf`` (``1/+inf`` is already 0)."""
    return math.inf if c == 0 else 1.0 / c


class SumDecision(enum.Enum):
    QUASICONVEX = "quasiconvex"
    NOT_QUASICONVEX = "not-quasiconvex"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SumVerdict:
    """Decision, the rule that fired, and the distance from its threshold.

    ``boundary`` is set when the margin is within
    :data:`DEFAULT_BOUNDARY_MARGIN` of the threshold; the decision then follows the inclusive reading (a margin of
    exactly zero counts as quasiconvex) but should be treated as fragile.
    """

    decision: SumDecision
    rule: str
    margin: float
    boundary: bool = False


def _finite(c, where: str) -> float:
    """``float(c)``, refusing an infinite (constant) or NaN index."""
    c = float(c)
    if math.isinf(c):
        raise InfiniteIndexError(f"{where} is infinite; the criteria require "
                                 "non-constant coordinates")
    if math.isnan(c):
        raise ValueError(f"{where} is NaN")
    return c


def index_sum_criterion(indices: Sequence[float]) -> SumVerdict:
    """Decide quasiconvexity from the sign of the index sum.

    The margin is ``sum(indices)``; within :data:`DEFAULT_BOUNDARY_MARGIN`
    of zero the verdict follows the sign (zero inclusive as quasiconvex)
    with the boundary flag set, since grid resolution makes an exact zero
    untrustworthy.

    The sign form is exact for two coordinates. With three or more
    coordinates and a non-convex exception it is only necessary: the convex
    block must first be aggregated by :func:`harmonic_index`, which is what
    :func:`characterize` does; prefer that one as the decisive criterion.
    """
    cs = [_finite(c, f"coordinate {k} index")
          for k, c in enumerate(indices)]
    total = sum(cs)
    boundary = abs(total) < DEFAULT_BOUNDARY_MARGIN
    if total >= 0:
        return SumVerdict(SumDecision.QUASICONVEX, "index-sum", total, boundary)
    return SumVerdict(SumDecision.NOT_QUASICONVEX, "index-sum", total, boundary)


def characterize(indices: Sequence[float]) -> SumVerdict:
    """Decide via the structural characterization.

    All coordinates convex: quasiconvex (rule ``all-convex``). Exactly one
    negative index: quasiconvex iff ``sum_i 1/c_i <= 0`` under ``1/0 = +inf``
    (rule ``one-exception-reciprocal``); a zero-index convex coordinate next
    to an exception therefore forces not-quasiconvex. Two or more negative
    indices: not quasiconvex (rule ``multiple-exceptions``).
    """
    cs = [_finite(c, f"coordinate {k} index")
          for k, c in enumerate(indices)]
    negatives = [c for c in cs if c < 0]
    if not negatives:
        return SumVerdict(SumDecision.QUASICONVEX, "all-convex",
                          min(cs) if cs else 0.0)
    if len(negatives) >= 2:
        return SumVerdict(SumDecision.NOT_QUASICONVEX, "multiple-exceptions",
                          sum(negatives))
    recip = sum(_inv(c) for c in cs)
    margin = -recip  # quasiconvex iff recip <= 0
    boundary = math.isfinite(recip) and abs(recip) < DEFAULT_BOUNDARY_MARGIN
    if recip <= 0:
        return SumVerdict(SumDecision.QUASICONVEX, "one-exception-reciprocal",
                          margin, boundary)
    return SumVerdict(SumDecision.NOT_QUASICONVEX, "one-exception-reciprocal",
                      margin, boundary)


def harmonic_index(indices: Sequence[float]) -> float:
    """Index of a sum of convex coordinates: ``1 / sum_i (1/c_i)``.

    Conventions: any zero index forces 0; all-``+inf`` (all constant) gives
    ``+inf``. Indices must be nonnegative: a negative one raises
    :class:`NegativeIndexError` and a NaN one ``ValueError``.
    """
    total = 0.0
    for k, c in enumerate(indices):
        c = float(c)
        if math.isnan(c):
            raise ValueError(f"coordinate {k} index is NaN")
        if c < 0:
            raise NegativeIndexError(
                f"coordinate {k} has index {c}; the harmonic formula needs "
                "convex coordinates")
        total += _inv(c)
    return _inv(total)


def infinite_sum_criterion(index_stream: Iterable[float], n_max: int,
                           tail_bound: Optional[float] = None) -> SumVerdict:
    """Decide a truncated infinite sum from a stream of coordinate indices.

    Walks at most ``n_max`` indices, accumulating ``a_N = sum 1/c_i``. A
    second negative index decides not-quasiconvex immediately (at most one
    exception is possible). After the exception has been seen the partial
    sums are nondecreasing, so ``a_N > 0`` also decides not-quasiconvex.
    Quasiconvexity needs a caller-supplied nonnegative ``tail_bound`` on the
    remaining reciprocals: concluded when ``a_N + tail_bound <= 0``.
    Otherwise the verdict is inconclusive at ``n_max``.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if tail_bound is not None and not tail_bound >= 0:  # NaN too
        raise ValueError(f"tail_bound must be nonnegative, got {tail_bound}")
    seen_negative = 0
    a = 0.0
    n = 0
    it: Iterator[float] = iter(index_stream)
    for c in it:
        n += 1
        c = _finite(c, f"stream index {n}")
        if c < 0:
            seen_negative += 1
            if seen_negative >= 2:
                return SumVerdict(SumDecision.NOT_QUASICONVEX,
                                  "multiple-exceptions", a)
        a += _inv(c)
        if seen_negative == 1:
            if a > 0:
                return SumVerdict(SumDecision.NOT_QUASICONVEX,
                                  "partial-sum-positive", a)
            if tail_bound is not None and a + tail_bound <= 0:
                return SumVerdict(SumDecision.QUASICONVEX,
                                  "partial-sum-with-tail", -(a + tail_bound))
        if n >= n_max:
            break
    return SumVerdict(SumDecision.INCONCLUSIVE, "budget-exhausted", a)


# ---------------------------------------------------------------------------
# sums of concrete functions
# ---------------------------------------------------------------------------

@dataclass
class DecomposableSum:
    """Concrete coordinate functions on their boxes, summed blockwise."""

    coords: tuple[tuple[FunctionSpec, BoxDomain], ...]

    def __post_init__(self):
        self.coords = tuple((f, b) for f, b in self.coords)
        if not self.coords:
            raise ValueError("a decomposable sum needs at least one coordinate")

    @property
    def dim(self) -> int:
        return sum(b.dim for _, b in self.coords)

    def product_box(self, m_override: Optional[Sequence[int]] = None) -> BoxDomain:
        lo: list[float] = []
        hi: list[float] = []
        m: list[int] = []
        for _, b in self.coords:
            lo.extend(b.lo)
            hi.extend(b.hi)
            m.extend(b.m)
        if m_override is not None:
            if len(m_override) != len(m):
                raise ValueError("m_override length mismatch")
            m = list(m_override)
        return BoxDomain(tuple(lo), tuple(hi), tuple(m))

    def as_function(self) -> FunctionSpec:
        """The sum as a single function of the stacked coordinates, with its
        terms declared (see :class:`qcx.extcore.FunctionSpec`)."""
        terms = []
        start = 0
        for f, b in self.coords:
            terms.append((f, start, start + b.dim))
            start += b.dim
        terms = tuple(terms)

        def fn(pts: np.ndarray) -> np.ndarray:
            total = np.zeros(len(pts))
            for f, s, e in terms:
                total += f(pts[:, s:e])
            return total

        name = " + ".join(f.name or f"f{k}" for k, (f, _) in enumerate(self.coords))
        return FunctionSpec(dim=self.dim, fn=fn, name=name, terms=terms)

    def indices(self, lambda_cap: float = DEFAULT_LAMBDA_CAP
                ) -> tuple[ConvexityIndex, ...]:
        """Coordinate indices, computed at ``lambda_cap`` on every call."""
        return tuple(compute_index(f, b, lambda_cap) for f, b in self.coords)

    def index_values(self, lambda_cap: float = DEFAULT_LAMBDA_CAP) -> list[float]:
        return [ix.value for ix in self.indices(lambda_cap)]


def brute_force_sum_quasiconvex(dsum: DecomposableSum, pair_budget: int = 10 ** 6,
                                m_override: Optional[Sequence[int]] = None
                                ) -> CertResult:
    """Certify quasiconvexity of the sum on the full product grid.

    A gap above 1e-9 refutes. Pairs are drawn across the whole product (not
    coordinatewise); the scan refuses to start if the all-pairs count would
    exceed ``pair_budget``. The scan streams the pairs in bounded chunks and
    blocks (see :class:`qcx.extcore.PairTable`), so its memory does not grow
    with the pair count and ``pair_budget`` bounds time, not memory.

    The sum declares its terms (:meth:`DecomposableSum.as_function`), so the
    grid pairs' mix values, a chunk of whole grid rows at a time, are outer
    sums of per-term tables of the term values at the mixes of two cells:
    the oracle evaluates the grid, ``7 M_k^2`` mixes per term and the local
    pairs, not every mix of the product. A term with more than
    ``SCAN_BLOCK`` cell pairs turns the tables off and every mix is
    evaluated; the result is the same bit for bit either way.
    """
    box = dsum.product_box(m_override)
    return certify_quasiconvex(dsum.as_function(), box, tol=1e-9,
                               pair_budget=pair_budget)
