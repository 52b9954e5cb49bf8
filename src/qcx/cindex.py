"""The convexity index of an extended-real function.

For a proper function ``f`` and a real ``lam``, consider the transform
``r_lam(x) = exp(-lam * f(x))`` under the extended-real conventions. Two
regimes are possible and they do not mix:

* some ``r_lam`` with ``lam < 0`` fails to be convex; then the set of
  negative ``lam`` with ``r_lam`` convex is a down-set and the index is its
  supremum (case I, index in ``[-inf, 0)``);
* ``r_lam`` is convex for every ``lam < 0``; then the set of nonnegative
  ``lam`` with ``r_lam`` concave is a down-set within ``[0, inf)`` and the
  index is its supremum (case II, index in ``[0, +inf]``).

The index is nonnegative exactly when ``f`` is convex, it is ``+inf``
exactly when ``f`` is constant (for lower semicontinuous ``f``), and it
scales as ``index(w * f) = index(f) / w`` for ``w >= 0``.

On a grid the break-even point is exact. For a pair ``(a, b, eta)``
the mix-normalized transform ``eta e^{-lam (fa-fm)} + (1-eta) e^{-lam (fb-fm)}``
is convex in ``lam`` and equals 1 at ``lam = 0``, so each pair has one
crossing of ``1 +- REL_GAP_TOL``, fixed to adjacent floats by a canonical
bisection, and the grid index is the extremum of those crossings, whatever
order :meth:`qcx.extcore.PairTable.exp_break_even` solves them in. It names
the pair that fixes the index and, like every pass over the pairs, streams
them in blocks. The value is the break-even point of the *grid* transform
family, reported with a float-tight bracket.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import CapTooSmallWarning, MissingDerivativesError
from .extcore import (CONSTANT_SPREAD, REL_GAP_TOL, BoxDomain, BreakEvenStream,
                      FunctionSpec, PairTable, Witness, default_gap_tol)

DEFAULT_LAMBDA_CAP = 1e4


class IndexCase(enum.Enum):
    CASE_I = "I"    # some r_lam with lam < 0 is not convex; index < 0
    CASE_II = "II"  # r_lam convex for all lam < 0; index >= 0


class Classification(NamedTuple):
    convex: bool
    constant: bool


@dataclass(frozen=True)
class ConvexityIndex:
    """A computed index with its bracket and provenance.

    ``bracket`` is absent for infinite values. ``cap_probe`` marks values
    reported as +-inf purely because the probe at the lambda cap did not
    flip; ``constant_shortcut`` marks +inf values detected from a flat grid
    before any probing. ``binding`` is the pair that fixes a finite index:
    it passes at the lower bracket end and fails at the upper one, where its
    ``violation`` is the normalized excess. ``case`` is the sign of
    ``value``, and ``probes`` is derived from the other fields.
    """

    value: float
    bracket: Optional[tuple[float, float]]
    lambda_cap: float
    cap_probe: bool = False
    constant_shortcut: bool = False
    binding: Optional[Witness] = None

    def __post_init__(self):
        if self.bracket is not None:
            lo, hi = self.bracket
            if not (lo <= self.value <= hi):
                raise ValueError("bracket must contain the value")

    @property
    def case(self) -> IndexCase:
        return IndexCase.CASE_I if self.value < 0 else IndexCase.CASE_II

    @property
    def probes(self) -> tuple[tuple[float, bool], ...]:
        """The tests of the transform that were made, as ``(lambda, ok)``:
        none for the constant shortcut, else the cap probe, then the upper
        bracket end where a pair binds."""
        if self.constant_shortcut:
            return ()
        cap = ((-self.lambda_cap, not self.cap_probe) if self.value < 0
               else (self.lambda_cap, self.cap_probe))
        return (cap,) + (((self.bracket[1], False),) if self.binding else ())


def r_lambda(f: FunctionSpec, lam: float) -> FunctionSpec:
    """The transform ``x -> exp(-lam * f(x))`` as a new function spec."""
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")

    def fn(pts: np.ndarray) -> np.ndarray:
        vals = f(pts)
        if lam == 0.0:
            return np.ones_like(vals)
        with np.errstate(all="ignore"):
            return np.exp(-lam * vals)

    return FunctionSpec(dim=f.dim, fn=fn,
                        name=f"exp(-{lam:g}*{f.name or 'f'})")


def compute_index(f: FunctionSpec, box: BoxDomain,
                  lambda_cap: float = DEFAULT_LAMBDA_CAP) -> ConvexityIndex:
    """The exact grid convexity index of ``f`` on the box grid.

    The value is the break-even lambda of the grid transform family, the
    lower end of a bracket of adjacent floats: the transform passes on the
    whole table there, and the ``binding`` pair fails one float up. The
    entry certification of ``f`` itself uses the absolute tolerance
    :func:`qcx.extcore.default_gap_tol`; the exponential-transform tests
    use the mix-normalized relative test against :data:`REL_GAP_TOL`, which
    is immune to overflow at extreme lambda.

    Near-constant inputs (grid range spread below ``CONSTANT_SPREAD``)
    classify as constant, index ``+inf``, without probing. A ``+-inf``
    result obtained because the cap probe did not flip carries
    ``cap_probe=True`` and emits :class:`qcx.errors.CapTooSmallWarning`.
    Every pass streams the pairs block by block, and the result does not
    depend on the block size.
    """
    if not 0 < lambda_cap < math.inf:
        raise ValueError("lambda_cap must be positive and finite")
    table = PairTable(f, box)
    spread = float(np.max(table.grid_values) - np.min(table.grid_values))
    if spread < CONSTANT_SPREAD:
        return ConvexityIndex(math.inf, None, lambda_cap, constant_shortcut=True)
    # the entry pass certifies f and streams the solve; a refuted f restarts
    # the stream at case I (index < 0), whose folds make the cap test
    stream = BreakEvenStream(lambda_cap)
    table.scan("convex", default_gap_tol(f), fold=stream)
    # f certified convex (case II): the index is >= 0
    if stream.sign < 0 and table.exp_transform_ok(lambda_cap):
        warnings.warn("index is +inf at the probe cap; the function may be "
                      "constant or the cap too small", CapTooSmallWarning)
        return ConvexityIndex(math.inf, None, lambda_cap, cap_probe=True)
    lo, hi, binding = table.exp_break_even(stream)
    if lo == -math.inf:
        warnings.warn("index is -inf at the probe cap; increase lambda_cap "
                      "to look further", CapTooSmallWarning)
        return ConvexityIndex(-math.inf, None, lambda_cap, cap_probe=True)
    return ConvexityIndex(lo, (lo, hi), lambda_cap, binding=binding)


def smooth_index_1d(f: FunctionSpec, box: BoxDomain) -> float:
    """Closed-form cross-check for twice differentiable 1-D functions.

    The transform ``exp(-lam f)`` has second derivative proportional to
    ``lam * (lam f'^2 - f'')``, so on a 1-D box the break-even lambda is the
    infimum over the grid of ``f''(x) / f'(x)^2``. Stationary points follow
    the conventions: ``f' = 0`` with ``f'' < 0`` forces ``-inf``; otherwise a
    stationary point imposes no constraint and contributes ``+inf``.
    """
    if f.dim != 1:
        raise MissingDerivativesError("smooth cross-check is 1-D only")
    if not f.smooth:
        raise MissingDerivativesError("grad and hess oracles are required")
    pts = box.points()
    fp = np.asarray(f.grad(pts), dtype=float).reshape(-1)
    fpp = np.asarray(f.hess(pts), dtype=float).reshape(-1)
    stationary = fp == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = fpp / fp ** 2
    ratio = np.where(stationary & (fpp < 0), -math.inf, ratio)
    ratio = np.where(stationary & (fpp >= 0), math.inf, ratio)
    return float(np.min(ratio))


def scale_index(c: float, w: float) -> float:
    """Index of ``w * f`` from the index of ``f``: ``c / w`` with conventions.

    ``w = 0`` collapses the function to a constant, whose index is ``+inf``.
    A NaN ``c``, or a NaN, infinite or negative ``w``, raises ``ValueError``.
    """
    if math.isnan(c) or not 0 <= w < math.inf:
        raise ValueError(f"need an index that is not NaN and a finite weight "
                         f">= 0, got c={c}, w={w}")
    if w == 0.0:
        return math.inf
    if math.isinf(c):
        return c
    return c / w


def classify(c) -> Classification:
    """Convex iff the index is nonnegative; constant iff it is ``+inf``.

    The constancy reading assumes the input function was lower
    semicontinuous, which is a declared property of the test classes this
    library certifies. A NaN index raises ``ValueError``.
    """
    value = c.value if isinstance(c, ConvexityIndex) else float(c)
    if math.isnan(value):
        raise ValueError("cannot classify a NaN index")
    return Classification(convex=bool(value >= 0),
                          constant=bool(value == math.inf))
