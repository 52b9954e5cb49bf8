"""Conditional risk measures on finite probability spaces.

Positions are plain numpy vectors indexed by outcome; a conditioning
sigma-algebra is an atom partition of the outcome set, and a conditional
risk measure is an oracle mapping position vectors to vectors constant on
each atom (checked on every call). All inner products are probability
weighted: ``<X, Y> = E[X Y]``. On a finite space every L^p coincides, so the
exponent never appears.

The property checkers sample positions and mixing weights, so a ``Pass`` is
always "no violation found at this tolerance on these samples" while a
``Fail`` carries a witness that replays. The natural-quasiconvexity check is
exact per sampled triple: feasibility of the mixing weight reduces to an
interval intersection, and infeasibility is certified either by a
contradictory pair of atom constraints or by a separating nonnegative dual
vector whose scalarization violates quasiconvexity at the same triple.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (InverseMismatchError, NotGMeasurableError,
                     NotNormalizedError)

#: Default tolerance of the sampled checks. Kept at 1e-6 so that every
#: declared natural-quasiconvexity failure has infeasibility depth above it,
#: which in turn guarantees a separating dual vector with margin > 1e-6.
DEFAULT_CHECK_TOL = 1e-6

#: Measurability tolerance applied to every risk-measure output.
MEASURABILITY_TOL = 1e-9

DEFAULT_LAMBDA_GRID = tuple(k / 8 for k in range(1, 8))
DEFAULT_SAMPLE_RANGE = (-3.0, 3.0)


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def _vec(x) -> list[float]:
    return [float(v) for v in np.asarray(x).ravel()]


# ---------------------------------------------------------------------------
# spaces, partitions, conditional expectation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteProbSpace:
    """Outcome probabilities; all positive, summing to one."""

    probs: tuple[float, ...]

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or len(p) == 0:
            raise ValueError("probs must be a nonempty vector")
        if (p <= 0).any():
            raise ValueError("all outcome probabilities must be positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "probs", tuple(float(v) for v in p))

    @staticmethod
    def uniform(n: int) -> "FiniteProbSpace":
        return FiniteProbSpace(tuple([1.0 / n] * n))

    @property
    def n(self) -> int:
        return len(self.probs)

    @property
    def p(self) -> np.ndarray:
        return np.asarray(self.probs)

    def expectation(self, x: np.ndarray) -> float:
        return float(np.dot(self.p, np.asarray(x, dtype=float)))

    def inner(self, x: np.ndarray, y: np.ndarray) -> float:
        """Probability-weighted inner product ``E[x y]``."""
        return float(np.dot(self.p, np.asarray(x) * np.asarray(y)))

    def norm(self, x: np.ndarray) -> float:
        return math.sqrt(max(self.inner(x, x), 0.0))


@dataclass(frozen=True)
class PartitionSigma:
    """A sub-sigma-algebra given as a partition of outcome indices."""

    atoms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        if not self.atoms:
            raise ValueError("partition needs at least one atom")
        norm = []
        for atom in self.atoms:
            atom = tuple(sorted(int(i) for i in atom))
            if not atom:
                raise ValueError("empty atom")
            if seen & set(atom):
                raise ValueError("atoms overlap")
            seen |= set(atom)
            norm.append(atom)
        if seen != set(range(len(seen))) or min(seen) != 0:
            raise ValueError("atoms must cover 0..n-1 exactly")
        object.__setattr__(self, "atoms", tuple(norm))

    @staticmethod
    def trivial(n: int) -> "PartitionSigma":
        return PartitionSigma((tuple(range(n)),))

    @staticmethod
    def of(*atoms: Iterable[int]) -> "PartitionSigma":
        return PartitionSigma(tuple(tuple(a) for a in atoms))

    @property
    def n(self) -> int:
        return sum(len(a) for a in self.atoms)

    @property
    def k(self) -> int:
        return len(self.atoms)

    def atom_probs(self, space: FiniteProbSpace) -> np.ndarray:
        p = space.p
        return np.array([p[list(a)].sum() for a in self.atoms])

    def measurability_spread(self, x: np.ndarray) -> tuple[float, int]:
        """Largest within-atom spread and the atom where it occurs."""
        x = np.asarray(x, dtype=float)
        worst, where = 0.0, 0
        for i, a in enumerate(self.atoms):
            vals = x[list(a)]
            s = float(vals.max() - vals.min())
            if s > worst:
                worst, where = s, i
        return worst, where

    def is_measurable(self, x: np.ndarray, tol: float = MEASURABILITY_TOL) -> bool:
        return self.measurability_spread(x)[0] <= tol

    def atom_values(self, x: np.ndarray) -> np.ndarray:
        """One representative value per atom (for measurable vectors)."""
        x = np.asarray(x, dtype=float)
        return np.array([x[a[0]] for a in self.atoms])

    def from_atom_values(self, vals: Sequence[float]) -> np.ndarray:
        out = np.empty(self.n)
        for v, a in zip(vals, self.atoms):
            out[list(a)] = v
        return out

    def indicator(self, atom_index: int) -> np.ndarray:
        out = np.zeros(self.n)
        out[list(self.atoms[atom_index])] = 1.0
        return out

    def event_indicator(self, atom_indices: Iterable[int]) -> np.ndarray:
        out = np.zeros(self.n)
        for i in atom_indices:
            out[list(self.atoms[i])] = 1.0
        return out

    def refines(self, other: "PartitionSigma") -> bool:
        """True when every atom of self sits inside an atom of other."""
        return all(any(set(a) <= set(b) for b in other.atoms) for a in self.atoms)


def conditional_expectation(x: np.ndarray, sigma: PartitionSigma,
                            space: FiniteProbSpace) -> np.ndarray:
    """Per-atom probability-weighted mean, broadcast back to outcomes."""
    x = np.asarray(x, dtype=float)
    p = space.p
    out = np.empty_like(x)
    for a in sigma.atoms:
        idx = list(a)
        out[idx] = np.dot(p[idx], x[idx]) / p[idx].sum()
    return out


# ---------------------------------------------------------------------------
# risk-measure oracles
# ---------------------------------------------------------------------------

class RiskMeasureOracle:
    """A map from positions to atom-measurable vectors, checked per call."""

    def __init__(self, name: str, fn: Callable[[np.ndarray], np.ndarray],
                 sigma: PartitionSigma, space: FiniteProbSpace,
                 claims: tuple[str, ...] = ()):
        self.name = name
        self.fn = fn
        self.sigma = sigma
        self.space = space
        self.claims = claims

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y = np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)
        if y.shape != (self.sigma.n,):
            raise ValueError(f"{self.name}: output shape {y.shape}")
        if np.isnan(y).any():
            raise ValueError(f"{self.name}: output contains NaN")
        spread, atom = self.sigma.measurability_spread(y)
        if spread > MEASURABILITY_TOL:
            raise NotGMeasurableError(atom, spread)
        return y

    def atom_values(self, x: np.ndarray) -> np.ndarray:
        return self.sigma.atom_values(self(x))


def neg_conditional_expectation(sigma: PartitionSigma,
                                space: FiniteProbSpace) -> RiskMeasureOracle:
    return RiskMeasureOracle(
        "neg-cond-exp", lambda x: -conditional_expectation(x, sigma, space),
        sigma, space, claims=("monotone", "translative", "local", "convex"))


def certainty_equivalent(loss: Callable[[np.ndarray], np.ndarray],
                         loss_inv: Callable[[np.ndarray], np.ndarray],
                         sigma: PartitionSigma, space: FiniteProbSpace,
                         name: str = "certainty-equivalent",
                         probe_points: Optional[np.ndarray] = None) -> RiskMeasureOracle:
    """``rho(X) = loss_inv(E[loss(-X) | G])`` for an increasing loss.

    The declared inverse is probed on construction; a mismatch beyond 1e-9
    raises :class:`qcx.errors.InverseMismatchError`.
    """
    probes = np.linspace(-6.0, 6.0, 25) if probe_points is None else probe_points
    residual = np.max(np.abs(loss_inv(loss(probes)) - probes))
    if residual > 1e-9:
        raise InverseMismatchError(
            f"{name}: loss_inv(loss(t)) deviates from t by {residual:.3e}")

    def fn(x: np.ndarray) -> np.ndarray:
        return loss_inv(conditional_expectation(loss(-x), sigma, space))

    return RiskMeasureOracle(name, fn, sigma, space,
                             claims=("monotone", "translative", "local"))


def entropic_certainty_equivalent(sigma: PartitionSigma,
                                  space: FiniteProbSpace) -> RiskMeasureOracle:
    """Exponential loss: ``rho(X) = log E[exp(-X) | G]``."""
    ce = certainty_equivalent(np.exp, np.log, sigma, space, name="entropic-ce")
    ce.claims = ("monotone", "translative", "local", "convex")
    return ce


def cubed_mean_map(sigma: PartitionSigma,
                   space: FiniteProbSpace) -> RiskMeasureOracle:
    """``(-E[X|G])^3``: quasiconvex but neither convex nor translative."""
    def fn(x: np.ndarray) -> np.ndarray:
        return (-conditional_expectation(x, sigma, space)) ** 3

    return RiskMeasureOracle("cubed-mean", fn, sigma, space,
                             claims=("monotone", "local", "quasiconvex"))


def sqrt_log_map(sigma: PartitionSigma,
                 space: FiniteProbSpace) -> RiskMeasureOracle:
    """Cellwise concave/convex demo map: quasiconvex, local, not convex.

    Atom 0 evaluates ``sqrt(mean + 4)`` of its atom mean; every other atom
    evaluates ``-log(mean + 5)``. The shifts keep both branches smooth on
    the default sampling range; a small floor keeps the map total when a
    check drives an atom mean below the shift. The map is a vector map used
    to exercise the feasibility machinery; it is not claimed to be monotone
    or translative.
    """
    if sigma.k < 2:
        raise ValueError("sqrt-log map needs at least two atoms")
    floor = 1e-6

    def fn(x: np.ndarray) -> np.ndarray:
        ce = conditional_expectation(x, sigma, space)
        out = np.empty_like(ce)
        a0 = list(sigma.atoms[0])
        out[a0] = np.sqrt(np.maximum(ce[a0] + 4.0, floor))
        for a in sigma.atoms[1:]:
            idx = list(a)
            out[idx] = -np.log(np.maximum(ce[idx] + 5.0, floor))
        return out

    return RiskMeasureOracle("sqrt-log", fn, sigma, space,
                             claims=("local", "quasiconvex"))


def mean_broadcast_map(sigma: PartitionSigma,
                       space: FiniteProbSpace) -> RiskMeasureOracle:
    """``-E[X]`` broadcast to all outcomes: mixes atoms, breaks locality."""
    def fn(x: np.ndarray) -> np.ndarray:
        return np.full(space.n, -space.expectation(x))

    return RiskMeasureOracle("mean-broadcast", fn, sigma, space,
                             claims=("monotone", "convex"))


def blind_spot_map(sigma: PartitionSigma, space: FiniteProbSpace,
                   ignored_atom: int = 0) -> RiskMeasureOracle:
    """``-E[X 1_{A0^c} | G]``: ignores one atom, hence not sensitive there."""
    mask = 1.0 - sigma.indicator(ignored_atom)

    def fn(x: np.ndarray) -> np.ndarray:
        return -conditional_expectation(x * mask, sigma, space)

    return RiskMeasureOracle(f"blind-spot[{ignored_atom}]", fn, sigma, space)


def conditional_expectation_map(target_sigma: PartitionSigma,
                                space: FiniteProbSpace,
                                declared_sigma: Optional[PartitionSigma] = None,
                                negate: bool = False) -> RiskMeasureOracle:
    """``E[X | target]`` (optionally negated), declared on a finer partition.

    Used for the locality counterexample: a coarse conditional expectation is
    measurable with respect to any refinement of its target partition.
    """
    declared = declared_sigma or target_sigma
    if not declared.refines(target_sigma):
        raise ValueError("declared partition must refine the target partition")
    sign = -1.0 if negate else 1.0

    def fn(x: np.ndarray) -> np.ndarray:
        return sign * conditional_expectation(x, target_sigma, space)

    name = ("neg-" if negate else "") + "cond-exp-coarse"
    return RiskMeasureOracle(name, fn, declared, space)


# ---------------------------------------------------------------------------
# property reports and sampling
# ---------------------------------------------------------------------------

class CheckVerdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"


@dataclass
class PropertyReport:
    prop: str
    verdict: CheckVerdict
    witness: Optional[dict] = None
    samples: int = 0
    tol: float = DEFAULT_CHECK_TOL
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict is CheckVerdict.PASS

    @property
    def failed(self) -> bool:
        return self.verdict is CheckVerdict.FAIL


def sample_triples(space: FiniteProbSpace, rng, count: int,
                   lam_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
                   sample_range: tuple[float, float] = DEFAULT_SAMPLE_RANGE
                   ) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Deterministic (X, Y, lambda) triples for the sampled checks."""
    gen = _rng(rng)
    lo, hi = sample_range
    out = []
    for _ in range(count):
        x = gen.uniform(lo, hi, space.n)
        y = gen.uniform(lo, hi, space.n)
        lam = float(gen.choice(np.asarray(lam_grid)))
        out.append((x, y, lam))
    return out


def _atom_events(k: int) -> list[tuple[int, ...]]:
    """All nonempty unions of k atoms (as atom index tuples), by size."""
    return [ev for r in range(1, k + 1)
            for ev in itertools.combinations(range(k), r)]


def _sampled_events(k: int, budget: int, gen) -> list[tuple[int, ...]]:
    """Atoms, atom complements and the whole space, then distinct random
    unions up to ``budget`` events (there must be more unions than that)."""
    structural = [(a,) for a in range(k)]
    structural += [tuple(b for b in range(k) if b != a) for a in range(k)]
    structural.append(tuple(range(k)))
    events = dict.fromkeys(ev for ev in structural if ev)  # ordered set
    while len(events) < budget:
        ev = tuple(int(a) for a in np.flatnonzero(gen.integers(0, 2, k)))
        if ev:
            events[ev] = None
    return list(events)


# ---------------------------------------------------------------------------
# elementary property checks
# ---------------------------------------------------------------------------

def check_monotonicity(rho: RiskMeasureOracle, budget: int = 200,
                       tol: float = DEFAULT_CHECK_TOL, rng=0) -> PropertyReport:
    """Larger positions must not carry larger risk: X <= Y => rho(X) >= rho(Y)."""
    gen = _rng(rng)
    lo, hi = DEFAULT_SAMPLE_RANGE
    for checked in range(1, budget + 1):
        x = gen.uniform(lo, hi, rho.space.n)
        delta = gen.uniform(0.0, 2.0, rho.space.n)
        rx = rho(x)
        ry = rho(x + delta)
        viol = rx - (ry - tol)
        if (viol < 0).any():
            i = int(np.argmin(viol))
            return PropertyReport(
                "monotonicity", CheckVerdict.FAIL,
                witness={"x": _vec(x), "delta": _vec(delta), "outcome": i,
                         "violation": float(ry[i] - rx[i])},
                samples=checked, tol=tol)
    return PropertyReport("monotonicity", CheckVerdict.PASS, samples=budget, tol=tol)


def check_translativity(rho: RiskMeasureOracle, budget: int = 200,
                        tol: float = DEFAULT_CHECK_TOL, rng=0) -> PropertyReport:
    """Adding a measurable position Z shifts the risk by exactly -Z."""
    gen = _rng(rng)
    lo, hi = DEFAULT_SAMPLE_RANGE
    for checked in range(1, budget + 1):
        x = gen.uniform(lo, hi, rho.space.n)
        z = rho.sigma.from_atom_values(gen.uniform(-2.0, 2.0, rho.sigma.k))
        lhs = rho(x + z)
        rhs = rho(x) - z
        err = float(np.max(np.abs(lhs - rhs)))
        if err > tol:
            return PropertyReport(
                "translativity", CheckVerdict.FAIL,
                witness={"x": _vec(x), "z": _vec(z), "violation": err},
                samples=checked, tol=tol)
    return PropertyReport("translativity", CheckVerdict.PASS, samples=budget, tol=tol)


def check_locality(rho: RiskMeasureOracle, budget: int = 200,
                   tol: float = DEFAULT_CHECK_TOL, rng=0) -> PropertyReport:
    """Both locality forms over measurable events.

    Definition form: ``rho(X 1_A) 1_A == rho(X) 1_A``. Two-sided form:
    ``rho(X 1_A + U 1_{A^c}) == rho(X) 1_A + rho(U) 1_{A^c}``.

    When all ``2^k - 1`` atom unions fit in the budget, each round of fresh
    X, U checks every union, for ``budget // (2^k - 1)`` rounds. Otherwise
    one round checks the atoms, their complements, the whole space and then
    distinct random unions up to the budget. ``samples`` counts the events
    checked: at most two oracle calls each, plus two per round.
    """
    gen = _rng(rng)
    lo, hi = DEFAULT_SAMPLE_RANGE
    k, n = rho.sigma.k, rho.space.n
    x, u = gen.uniform(lo, hi, n), gen.uniform(lo, hi, n)
    n_unions = 2 ** k - 1
    if n_unions <= budget:
        events, rounds = _atom_events(k), budget // n_unions
    else:
        events, rounds = _sampled_events(k, budget, gen), 1
    checked = 0
    for r in range(rounds):
        if r:
            x, u = gen.uniform(lo, hi, n), gen.uniform(lo, hi, n)
        rx, ru = rho(x), rho(u)
        for ev in events:
            checked += 1
            ind = rho.sigma.event_indicator(ev)
            err = float(np.max(np.abs(rho(x * ind) * ind - rx * ind)))
            if err > tol:
                return PropertyReport(
                    "locality", CheckVerdict.FAIL,
                    witness={"x": _vec(x), "event_atoms": list(ev),
                             "form": "definition", "violation": err},
                    samples=checked, tol=tol)
            if len(ev) < k:
                lhs = rho(x * ind + u * (1 - ind))
                rhs = rx * ind + ru * (1 - ind)
                err = float(np.max(np.abs(lhs - rhs)))
                if err > tol:
                    return PropertyReport(
                        "locality", CheckVerdict.FAIL,
                        witness={"x": _vec(x), "u": _vec(u),
                                 "event_atoms": list(ev), "form": "two-sided",
                                 "violation": err},
                        samples=checked, tol=tol)
    return PropertyReport("locality", CheckVerdict.PASS, samples=checked, tol=tol)


def check_convexity(rho: RiskMeasureOracle, budget: int = 200,
                    tol: float = DEFAULT_CHECK_TOL, rng=0,
                    triples=None) -> PropertyReport:
    """Componentwise Jensen inequality over sampled triples."""
    if triples is None:
        triples = sample_triples(rho.space, rng, budget)
    for i, (x, y, lam) in enumerate(triples, 1):
        rx, ry = rho(x), rho(y)
        rm = rho(lam * x + (1 - lam) * y)
        viol = rm - (lam * rx + (1 - lam) * ry)
        worst = float(np.max(viol))
        if worst > tol:
            return PropertyReport(
                "convexity", CheckVerdict.FAIL,
                witness={"x": _vec(x), "y": _vec(y), "lam": lam,
                         "violation": worst},
                samples=i, tol=tol)
    return PropertyReport("convexity", CheckVerdict.PASS,
                          samples=len(triples), tol=tol)


def check_quasiconvexity(rho: RiskMeasureOracle, budget: int = 200,
                         tol: float = DEFAULT_CHECK_TOL, rng=0,
                         triples=None) -> PropertyReport:
    """Componentwise max inequality over sampled triples."""
    if triples is None:
        triples = sample_triples(rho.space, rng, budget)
    for i, (x, y, lam) in enumerate(triples, 1):
        rx, ry = rho(x), rho(y)
        rm = rho(lam * x + (1 - lam) * y)
        viol = rm - np.maximum(rx, ry)
        worst = float(np.max(viol))
        if worst > tol:
            return PropertyReport(
                "quasiconvexity", CheckVerdict.FAIL,
                witness={"x": _vec(x), "y": _vec(y), "lam": lam,
                         "violation": worst},
                samples=i, tol=tol)
    return PropertyReport("quasiconvexity", CheckVerdict.PASS,
                          samples=len(triples), tol=tol)


# ---------------------------------------------------------------------------
# natural quasiconvexity and dual scalarizations
# ---------------------------------------------------------------------------

def _mu_feasibility(r_x, r_y, r_mix, tol: float
                    ) -> tuple[Optional[tuple[float, float]], Optional[dict]]:
    """The :func:`nqc_mu_interval` and ``None``, or ``None`` and a certificate:
    the first zero-slope atom no weight satisfies, or the crossing bounds with
    their binding atoms (``None`` where [0, 1] binds). Ties go to the lowest
    atom; 0 and 1 yield only to strictly tighter bounds."""
    r_y = np.asarray(r_y, dtype=float)
    d = np.asarray(r_x, dtype=float) - r_y
    c = np.asarray(r_mix, dtype=float) - r_y - tol
    blocked = np.flatnonzero((d == 0.0) & (c > 0.0))
    if blocked.size:
        a = int(blocked[0])
        return None, {"kind": "single-atom", "atom": a, "excess": float(c[a])}
    with np.errstate(divide="ignore", invalid="ignore"):
        q = c / d
    lower = np.where(d > 0.0, q, -np.inf)
    upper = np.where(d < 0.0, q, np.inf)
    a, b = int(np.argmax(lower)), int(np.argmin(upper))
    lo, lo_atom = (float(lower[a]), a) if lower[a] > 0.0 else (0.0, None)
    hi, hi_atom = (float(upper[b]), b) if upper[b] < 1.0 else (1.0, None)
    if lo > hi:
        return None, {"kind": "contradictory-pair", "atom_lower": lo_atom,
                      "atom_upper": hi_atom, "mu_lower": lo, "mu_upper": hi}
    return (lo, hi), None


def nqc_mu_interval(r_x: np.ndarray, r_y: np.ndarray, r_mix: np.ndarray,
                    tol: float = DEFAULT_CHECK_TOL
                    ) -> Optional[tuple[float, float]]:
    """Exact feasible set of mixing weights, intersected with [0, 1].

    Each atom contributes the half-line ``mu (r_x - r_y) >= r_mix - r_y - tol``
    (everything, or nothing, when the slope vanishes). Returns the interval
    or ``None`` when the intersection is empty.
    """
    return _mu_feasibility(r_x, r_y, r_mix, tol)[0]


def _simplex_grid(k: int, per_edge: int) -> np.ndarray:
    """Lattice points of the unit simplex in R^k (plain coordinates)."""
    if k == 1:
        return np.array([[1.0]])
    if k == 2:
        t = np.linspace(0.0, 1.0, per_edge)
        return np.stack([t, 1 - t], axis=1)
    if k == 3:
        pts = []
        for i in range(per_edge):
            for j in range(per_edge - i):
                a = i / (per_edge - 1)
                b = j / (per_edge - 1)
                pts.append((a, b, 1.0 - a - b))
        return np.array(pts)
    raise ValueError("grid construction is used for at most 3 atoms")


def _dual_candidates(u, v, p) -> np.ndarray:
    """Vertices plus two-atom kink points of the piecewise-linear margin.

    Rows are normalized by the atom probabilities to ``sum_a p_a z_a = 1``:
    each vertex ``e_a / p_a``, then for each pair ``a < b`` the edge point
    where ``E[Z u] = E[Z v]`` (``u = r_mix - r_x``, ``v = r_mix - r_y``).
    Maximizing ``min(E[Z u], E[Z v])`` over the simplex is a linear program
    with two inequality rows, so these basic solutions contain an optimum.
    """
    k = len(p)
    w = u - v
    a, b = np.triu_indices(k, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (v[b] - u[b]) / (w[a] - w[b])
    on_edge = (s >= 0.0) & (s <= 1.0)  # a zero denominator gives inf or nan
    a, b, s = a[on_edge], b[on_edge], s[on_edge]
    z = np.zeros((k + len(s), k))
    z[np.arange(k), np.arange(k)] = 1.0 / p
    rows = np.arange(k, k + len(s))
    z[rows, a] = s / p[a]
    z[rows, b] = (1.0 - s) / p[b]
    return z


def _best_dual(r_x, r_y, r_mix, atom_probs) -> tuple[np.ndarray, float]:
    """The candidate maximizing ``min(E[Z u], E[Z v])``, with that margin."""
    p = np.asarray(atom_probs, dtype=float)
    u = np.asarray(r_mix) - np.asarray(r_x)
    v = np.asarray(r_mix) - np.asarray(r_y)
    z = _dual_candidates(u, v, p)
    best = z[int(np.argmax(np.minimum((z * p) @ u, (z * p) @ v)))]
    return best, min(float(np.dot(p * best, u)), float(np.dot(p * best, v)))


def infeasibility_depth(r_x: np.ndarray, r_y: np.ndarray,
                        r_mix: np.ndarray) -> float:
    """Minimax depth ``min_mu max_a (r_mix - mu r_x - (1-mu) r_y)_a``.

    Positive exactly when no mixing weight dominates the mixed risk. By LP
    duality it equals the best margin of a normalized nonnegative dual vector.
    """
    return _best_dual(r_x, r_y, r_mix, np.ones(len(r_x)))[1]


def separating_dual_witness(r_x, r_y, r_mix, atom_probs,
                            tol: float = DEFAULT_CHECK_TOL
                            ) -> Optional[tuple[np.ndarray, float]]:
    """The nonnegative dual vector that best separates the mixed risk.

    ``Z`` is normalized to ``E[Z] = 1``; its margin is ``E[Z r_mix] -
    max(E[Z r_x], E[Z r_y])``. The result is the exact LP optimum, a vertex
    or two-atom basic solution, so the margin equals the infeasibility depth.
    Returns ``None`` when the feasibility interval is nonempty (nothing to
    separate) or when rounding leaves the best margin nonpositive.
    """
    if nqc_mu_interval(r_x, r_y, r_mix, tol) is not None:
        return None
    best, margin = _best_dual(r_x, r_y, r_mix, atom_probs)
    return (best, margin) if margin > 0.0 else None


def check_natural_quasiconvexity(rho: RiskMeasureOracle, budget: int = 200,
                                 tol: float = DEFAULT_CHECK_TOL, rng=0,
                                 triples=None) -> PropertyReport:
    """Exact mixing-weight feasibility per sampled triple.

    A failing triple carries the infeasibility certificate and, unless
    rounding leaves no positive margin, the optimal separating dual vector
    with its margin.
    """
    if triples is None:
        triples = sample_triples(rho.space, rng, budget)
    atom_probs = rho.sigma.atom_probs(rho.space)
    for i, (x, y, lam) in enumerate(triples, 1):
        r_x = rho.atom_values(x)
        r_y = rho.atom_values(y)
        r_mix = rho.atom_values(lam * x + (1 - lam) * y)
        certificate = _mu_feasibility(r_x, r_y, r_mix, tol)[1]
        if certificate is not None:
            witness = {
                "x": _vec(x), "y": _vec(y), "lam": lam,
                "r_x": _vec(r_x), "r_y": _vec(r_y), "r_mix": _vec(r_mix),
                "certificate": certificate,
            }
            found = separating_dual_witness(r_x, r_y, r_mix, atom_probs, tol)
            if found is not None:
                z, m = found
                witness["separating_dual"] = _vec(z)
                witness["separating_margin"] = m
            return PropertyReport("natural-quasiconvexity", CheckVerdict.FAIL,
                                  witness=witness, samples=i, tol=tol)
    return PropertyReport("natural-quasiconvexity", CheckVerdict.PASS,
                          samples=len(triples), tol=tol)


def check_star_quasiconvexity(rho: RiskMeasureOracle,
                              budget_z: int = 512, budget_xy: int = 200,
                              tol: float = DEFAULT_CHECK_TOL, rng=0,
                              triples=None) -> PropertyReport:
    """Quasiconvexity of every sampled nonnegative dual scalarization.

    Dual vectors are drawn from the atom-indexed simplex (a 51-per-edge grid
    through 3 atoms, Dirichlet samples beyond), always including the extreme
    points, and are normalized to ``E[Z] = 1``. For each sampled triple the
    kink candidates of that triple's margin function are also tested, which
    makes the scalarization check exactly as sharp as the feasibility check.
    """
    if triples is None:
        triples = sample_triples(rho.space, rng, budget_xy)
    atom_probs = rho.sigma.atom_probs(rho.space)
    k = rho.sigma.k
    if k <= 3:
        raw = _simplex_grid(k, 51)
    else:
        raw = np.vstack([np.eye(k), _rng(rng).dirichlet(np.ones(k), size=budget_z)])
    z_set = raw / np.maximum(raw @ atom_probs, 1e-300)[:, None]
    for i, (x, y, lam) in enumerate(triples, 1):
        r_x = rho.atom_values(x)
        r_y = rho.atom_values(y)
        r_mix = rho.atom_values(lam * x + (1 - lam) * y)
        zs = np.vstack([z_set, _dual_candidates(r_mix - r_x, r_mix - r_y,
                                                atom_probs)])
        s_x = (zs * atom_probs) @ r_x
        s_y = (zs * atom_probs) @ r_y
        s_mix = (zs * atom_probs) @ r_mix
        viol = s_mix - np.maximum(s_x, s_y) - tol
        j = int(np.argmax(viol))
        if viol[j] > 0:
            return PropertyReport(
                "star-quasiconvexity", CheckVerdict.FAIL,
                witness={"z": _vec(zs[j]), "x": _vec(x), "y": _vec(y),
                         "lam": lam, "violation": float(viol[j] + tol)},
                samples=i, tol=tol,
                details={"dual_samples": len(zs)})
    return PropertyReport("star-quasiconvexity", CheckVerdict.PASS,
                          samples=len(triples), tol=tol,
                          details={"dual_samples": len(z_set)})


# ---------------------------------------------------------------------------
# sensitivity and the non-constancy hypothesis
# ---------------------------------------------------------------------------

def check_sensitivity(rho: RiskMeasureOracle,
                      eps_list: Sequence[float] = (0.01, 0.1, 1.0),
                      events: Optional[Sequence[Sequence[int]]] = None,
                      budget: int = 32, rng=0,
                      tol: float = 1e-12) -> PropertyReport:
    """Charging any nonnull event must create risk somewhere.

    Requires a normalized measure (``rho(0) = 0``). Events are outcome index
    sets; the default set contains every singleton, every atom, the whole
    space, and random events up to the budget.
    """
    zero = rho(np.zeros(rho.space.n))
    if np.max(np.abs(zero)) > 1e-9:
        raise NotNormalizedError(f"{rho.name}: rho(0) has norm "
                                 f"{np.max(np.abs(zero)):.3e}")
    n = rho.space.n
    if events is None:
        gen = _rng(rng)
        ev: list[tuple[int, ...]] = [(i,) for i in range(n)]
        ev.extend(tuple(a) for a in rho.sigma.atoms)
        ev.append(tuple(range(n)))
        while len(ev) < budget:
            mask = gen.integers(0, 2, n).astype(bool)
            if mask.any():
                ev.append(tuple(np.flatnonzero(mask)))
        events = ev
    checked = 0
    for eps in eps_list:
        if eps <= 0:
            raise ValueError("eps values must be positive")
        for event in events:
            ind = np.zeros(n)
            ind[list(event)] = 1.0
            out = rho(-eps * ind)
            checked += 1
            if not (out > tol).any():
                return PropertyReport(
                    "sensitivity", CheckVerdict.FAIL,
                    witness={"eps": float(eps), "event": list(map(int, event)),
                             "max_output": float(np.max(out))},
                    samples=checked, tol=tol)
    return PropertyReport("sensitivity", CheckVerdict.PASS, samples=checked,
                          tol=tol)


def check_assumption_nonconstant(rho: RiskMeasureOracle, budget: int = 16,
                                 tol: float = 1e-9, rng=0) -> PropertyReport:
    """Each atom scalarization ``X -> E[rho(X) 1_A]`` must be non-constant.

    Atoms suffice: the scalarization is additive over disjoint measurable
    events. Constant probes are tried first, then random pairs up to the
    budget of each atom. ``samples`` counts the probe pairs tried, summed
    over atoms.
    """
    gen = _rng(rng)
    p = rho.space.p
    ones = np.ones(rho.space.n)
    checked = 0
    for ai, atom in enumerate(rho.sigma.atoms):
        ind = np.zeros(rho.space.n)
        ind[list(atom)] = 1.0

        def scal(x: np.ndarray) -> float:
            return float(np.dot(p, rho(x) * ind))

        found = False
        tried = 0
        for x1, x2 in [(0.0, 1.0), (0.0, -1.0), (-1.0, 2.0)]:
            tried += 1
            if abs(scal(x1 * ones) - scal(x2 * ones)) > tol:
                found = True
                break
        while not found and tried < budget:
            a = gen.uniform(-3, 3, rho.space.n)
            b = gen.uniform(-3, 3, rho.space.n)
            if abs(scal(a) - scal(b)) > tol:
                found = True
            tried += 1
        checked += tried
        if not found:
            return PropertyReport(
                "assumption-nonconstant", CheckVerdict.FAIL,
                witness={"atom": ai}, samples=checked, tol=tol)
    return PropertyReport("assumption-nonconstant", CheckVerdict.PASS,
                          samples=checked, tol=tol)


# ---------------------------------------------------------------------------
# scenario and partition files
# ---------------------------------------------------------------------------

def load_scenario_table(path) -> tuple[FiniteProbSpace, list[str]]:
    """One outcome per row: probability, then an optional label."""
    probs: list[float] = []
    labels: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            probs.append(float(parts[0]))
            labels.append(parts[1] if len(parts) > 1 else f"w{len(probs)}")
    return FiniteProbSpace(tuple(probs)), labels


def _parse_index_list(text: str) -> list[int]:
    """1-based indices and ranges: ``1 2 5-7`` -> [0, 1, 4, 5, 6]."""
    out: list[int] = []
    for tok in text.replace(",", " ").split():
        if "-" in tok:
            a, b = tok.split("-", 1)
            out.extend(range(int(a) - 1, int(b)))
        else:
            out.append(int(tok) - 1)
    return out


def load_partition(path) -> PartitionSigma:
    """One atom per row, as 1-based outcome indices or ranges."""
    atoms: list[tuple[int, ...]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            atoms.append(tuple(_parse_index_list(line)))
    return PartitionSigma(tuple(atoms))


def parse_partition_text(text: str) -> PartitionSigma:
    """Semicolon-separated atoms of 1-based indices: ``1-4; 5-7; 8-10``."""
    atoms = [tuple(_parse_index_list(part))
             for part in text.split(";") if part.strip()]
    return PartitionSigma(tuple(atoms))
