"""Conditional risk measures on finite probability spaces.

A conditional risk measure is an oracle mapping position vectors to vectors
constant on each atom of a partition (checked on every call); the spaces,
partitions and the conditional expectation live in :mod:`qcx.spaces` and
are re-exported here. Oracles are row-wise: a stack of positions ``(m, n)``
is evaluated in one call and gives each row the bits of its own call.

The property checkers sample positions and mixing weights, so a ``Pass`` is
always "no violation found at this tolerance on these samples" while a
``Fail`` carries a witness that replays. The natural-quasiconvexity check is
exact per sampled triple: feasibility of the mixing weight reduces to an
interval intersection, and infeasibility is certified either by a
contradictory pair of atom constraints or by a separating nonnegative dual
vector whose scalarization violates quasiconvexity at the same triple.

Every sampled checker evaluates stacked rows: one oracle call per chunk of
samples or events, in the order of single calls, with the first failure
taken from a violation mask, so reports equal those of one call per row.
The six triple checkers (convexity, quasiconvexity, natural and star
quasiconvexity here, and the two preorder checks of :mod:`qcx.l2basis`) read
one :class:`TripleTable`: ``rho`` of every ``X``, ``Y`` and mix, evaluated
once per triple, only as far as some checker reads.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (InverseMismatchError, NotGMeasurableError,
                     NotNormalizedError, QcxError)
# re-exported, loaders included: scripts and tests import them from here
from .spaces import (MEASURABILITY_TOL, FiniteProbSpace, PartitionSigma,
                     conditional_expectation, load_partition,
                     load_scenario_table, parse_partition_text)

#: Default tolerance of the sampled checks. Kept at 1e-6 so that every
#: declared natural-quasiconvexity failure has infeasibility depth above it,
#: which in turn guarantees a separating dual vector with margin > 1e-6.
DEFAULT_CHECK_TOL = 1e-6

DEFAULT_LAMBDA_GRID = tuple(k / 8 for k in range(1, 8))
DEFAULT_SAMPLE_RANGE = (-3.0, 3.0)


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def _vec(x) -> list[float]:
    return [float(v) for v in np.asarray(x).ravel()]


# ---------------------------------------------------------------------------
# risk-measure oracles
# ---------------------------------------------------------------------------

class RiskMeasureOracle:
    """A map from positions to atom-measurable vectors, checked per call.

    ``fn`` must be row-wise on ``(..., n)``: given a stack of positions it
    returns the stack of their outputs, and each row equals the output of
    that row alone bit for bit. Every map built in this module complies.
    """

    def __init__(self, name: str, fn: Callable[[np.ndarray], np.ndarray],
                 sigma: PartitionSigma, space: FiniteProbSpace,
                 claims: tuple[str, ...] = ()):
        self.name = name
        self.fn = fn
        self.sigma = sigma
        self.space = space
        self.claims = claims

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """``rho`` of one position ``(n,)`` or of a stack ``(m, n)``.

        Each output row is checked as a single call checks it (no NaN, atom
        spread within :data:`MEASURABILITY_TOL`), and the first bad row
        raises what its own call would raise.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(self.fn(x), dtype=float)
        if y.shape != x.shape[:-1] + (self.sigma.n,):
            raise ValueError(f"{self.name}: output shape {y.shape}")
        if (np.isnan(y).any() or self.sigma.atom_spreads(y).max(initial=0.0)
                > MEASURABILITY_TOL):
            for row in y.reshape(-1, self.sigma.n):
                if np.isnan(row).any():
                    raise ValueError(f"{self.name}: output contains NaN")
                spread, atom = self.sigma.measurability_spread(row)
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
    in_atom0 = sigma.labels == 0

    def fn(x: np.ndarray) -> np.ndarray:
        ce = conditional_expectation(x, sigma, space)
        return np.where(in_atom0, np.sqrt(np.maximum(ce + 4.0, floor)),
                        -np.log(np.maximum(ce + 5.0, floor)))

    return RiskMeasureOracle("sqrt-log", fn, sigma, space,
                             claims=("local", "quasiconvex"))


def mean_broadcast_map(sigma: PartitionSigma,
                       space: FiniteProbSpace) -> RiskMeasureOracle:
    """``-E[X]`` broadcast to all outcomes: mixes atoms, breaks locality."""
    def fn(x: np.ndarray) -> np.ndarray:
        # one dot per row: a matrix-vector product rounds differently
        means = [-space.expectation(row) for row in x.reshape(-1, space.n)]
        return np.repeat(means, space.n).reshape(x.shape)

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
    grid = [float(lam) for lam in lam_grid]
    out = []
    for _ in range(count):
        x = gen.uniform(lo, hi, space.n)
        y = gen.uniform(lo, hi, space.n)
        out.append((x, y, grid[gen.integers(len(grid))]))
    return out


#: Triples, samples or events per stacked oracle call of a sampled checker.
TRIPLE_CHUNK = 64


class TripleTable:
    """``rho(X)``, ``rho(Y)`` and ``rho(mix)`` of a list of ``(X, Y, lam)``
    triples, evaluated once and shared by the triple checkers.

    The table fills lazily, :data:`TRIPLE_CHUNK` triples at a time, through
    one stacked oracle call per chunk with rows in call order ``X_1, Y_1,
    mix_1, X_2, ...``; the mix is ``lam X + (1 - lam) Y``. Reading the
    triple of a failing row raises its error (see :func:`_stacked`).
    """

    def __init__(self, rho: RiskMeasureOracle, triples):
        self.rho = rho
        self.triples = list(triples)
        self.lam = np.array([lam for _, _, lam in self.triples], dtype=float)
        self._risks: list[np.ndarray] = []  # one (c, 3, n) array per chunk
        self._error: Optional[Exception] = None

    def __len__(self) -> int:
        return len(self.triples)

    @property
    def filled(self) -> int:
        """The number of triples evaluated so far."""
        return sum(map(len, self._risks))

    def chunks(self):
        """Yield ``(start, risks)`` chunk by chunk, evaluating each chunk on
        first use: ``risks[j]`` holds ``rho(X)``, ``rho(Y)`` and ``rho(mix)``
        of triple ``start + j``."""
        for c, start in enumerate(range(0, len(self), TRIPLE_CHUNK)):
            if c == len(self._risks):
                self._risks.append(self._evaluate(start))
            if len(self._risks[c]):
                yield start, self._risks[c]
            if self._error is not None and c == len(self._risks) - 1:
                raise self._error

    def _evaluate(self, start: int) -> np.ndarray:
        stop = min(start + TRIPLE_CHUNK, len(self))
        n = self.rho.sigma.n
        xy = np.array([t[:2] for t in self.triples[start:stop]], dtype=float)
        lam = self.lam[start:stop, None, None]
        mix = lam * xy[:, :1] + (1 - lam) * xy[:, 1:]
        risks, self._error = _stacked(
            self.rho, np.concatenate([xy, mix], axis=1).reshape(-1, n))
        return risks[:len(risks) // 3 * 3].reshape(-1, 3, n)


def _stacked(rho: RiskMeasureOracle, rows: np.ndarray
             ) -> tuple[np.ndarray, Optional[Exception]]:
    """``rho`` of a stack of rows ``(m, n)`` in one call, and ``None``.

    When that call raises, the rows are evaluated one at a time: the result
    holds the outputs of the rows before the first failing one, and that
    row's error. A checker raises the error once it needs a row past those
    outputs, as the calls of one row each would have raised it there.
    """
    try:
        return rho(rows), None
    except (ValueError, QcxError):
        done = []
        for row in rows:
            try:
                done.append(rho(row))
            except (ValueError, QcxError) as e:
                return np.reshape(done, (-1, rows.shape[-1])), e
        return np.reshape(done, rows.shape), None


def _first_failure(mask: np.ndarray, error: Optional[Exception]
                   ) -> Optional[int]:
    """The index of the first ``True`` of a violation mask over the rows
    :func:`_stacked` evaluated; ``None`` when there is none, unless the rows
    stopped at ``error``, which is then raised."""
    bad = np.flatnonzero(mask)
    if bad.size:
        return int(bad[0])
    if error is not None:
        raise error
    return None


def _triple_table(rho: RiskMeasureOracle, triples) -> TripleTable:
    """``triples`` as a table of ``rho``: a :class:`TripleTable` of the same
    oracle is shared as it is, a plain list is wrapped."""
    if not isinstance(triples, TripleTable):
        return TripleTable(rho, triples)
    if triples.rho is not rho:
        raise ValueError("the triple table was built for another measure")
    return triples


def _excess_check(prop: str, table: TripleTable, chunks, bound: Callable,
                  tol: float) -> PropertyReport:
    """Fail at the first triple whose mixed value exceeds
    ``bound(lam, v_x, v_y)`` by more than ``tol`` in some coordinate,
    reporting the largest excess; one vectorized pass per chunk.

    ``chunks`` yields ``(start, values)`` as :meth:`TripleTable.chunks`
    does, ``values[j]`` holding ``v_x``, ``v_y`` and ``v_mix`` of triple
    ``start + j``.
    """
    for start, values in chunks:
        v_x, v_y, v_mix = values.transpose(1, 0, 2)
        lam = table.lam[start:start + len(values), None]
        worst = (v_mix - bound(lam, v_x, v_y)).max(axis=1)
        bad = np.flatnonzero(worst > tol)
        if bad.size:
            i = start + int(bad[0])
            x, y, lam = table.triples[i]
            return PropertyReport(
                prop, CheckVerdict.FAIL,
                witness={"x": _vec(x), "y": _vec(y), "lam": lam,
                         "violation": float(worst[bad[0]])},
                samples=i + 1, tol=tol)
    return PropertyReport(prop, CheckVerdict.PASS, samples=len(table), tol=tol)


def _jensen_bound(lam, v_x, v_y):
    return lam * v_x + (1 - lam) * v_y


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
    """Larger positions must not carry larger risk: X <= Y => rho(X) >= rho(Y).

    One stacked call per :data:`TRIPLE_CHUNK` samples, drawn in sample order
    (a caller's generator advances by whole chunks), rows ``X``, ``Y``.
    """
    gen = _rng(rng)
    lo, hi = DEFAULT_SAMPLE_RANGE
    n = rho.space.n
    for start in range(0, budget, TRIPLE_CHUNK):
        x, delta = np.array([
            (gen.uniform(lo, hi, n), gen.uniform(0.0, 2.0, n))
            for _ in range(min(TRIPLE_CHUNK, budget - start))]).swapaxes(0, 1)
        out, error = _stacked(rho, np.stack([x, x + delta], 1).reshape(-1, n))
        rx, ry = out[:len(out) // 2 * 2].reshape(-1, 2, n).swapaxes(0, 1)
        viol = rx - (ry - tol)
        j = _first_failure((viol < 0).any(axis=1), error)
        if j is not None:
            i = int(np.argmin(viol[j]))
            return PropertyReport(
                "monotonicity", CheckVerdict.FAIL,
                witness={"x": _vec(x[j]), "delta": _vec(delta[j]),
                         "outcome": i,
                         "violation": float(ry[j, i] - rx[j, i])},
                samples=start + j + 1, tol=tol)
    return PropertyReport("monotonicity", CheckVerdict.PASS, samples=budget, tol=tol)


def check_translativity(rho: RiskMeasureOracle, budget: int = 200,
                        tol: float = DEFAULT_CHECK_TOL, rng=0) -> PropertyReport:
    """Adding a measurable position Z shifts the risk by exactly -Z.

    Chunked as :func:`check_monotonicity` is, rows ``X + Z``, ``X``.
    """
    gen = _rng(rng)
    lo, hi = DEFAULT_SAMPLE_RANGE
    n = rho.space.n
    for start in range(0, budget, TRIPLE_CHUNK):
        x, z = np.array([
            (gen.uniform(lo, hi, n),
             rho.sigma.from_atom_values(gen.uniform(-2.0, 2.0, rho.sigma.k)))
            for _ in range(min(TRIPLE_CHUNK, budget - start))]).swapaxes(0, 1)
        out, error = _stacked(rho, np.stack([x + z, x], 1).reshape(-1, n))
        lhs, rx = out[:len(out) // 2 * 2].reshape(-1, 2, n).swapaxes(0, 1)
        err = np.abs(lhs - (rx - z[:len(rx)])).max(axis=1)
        j = _first_failure(err > tol, error)
        if j is not None:
            return PropertyReport(
                "translativity", CheckVerdict.FAIL,
                witness={"x": _vec(x[j]), "z": _vec(z[j]),
                         "violation": float(err[j])},
                samples=start + j + 1, tol=tol)
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
    checked. A round is one stacked call per :data:`TRIPLE_CHUNK` events,
    rows in the order of single calls: ``X`` and ``U`` first, then per event
    the definition form and, unless the event is the whole space, the
    two-sided form.
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
    inds = np.array([rho.sigma.event_indicator(ev) for ev in events])
    # row slot 2 e + f is event e in form f (0 definition, 1 two-sided; the
    # whole space has no two-sided form), cut into chunks of events
    slots = np.flatnonzero([f == 0 or len(ev) < k
                            for ev in events for f in (0, 1)])
    chunks = np.split(slots, np.searchsorted(
        slots, np.arange(2 * TRIPLE_CHUNK, 2 * len(events), 2 * TRIPLE_CHUNK)))
    for r in range(rounds):
        if r:
            x, u = gen.uniform(lo, hi, n), gen.uniform(lo, hi, n)
        for c, slot in enumerate(chunks):
            two, ind = slot % 2 == 1, inds[slot // 2]
            rows = np.where(two[:, None], x * ind + u * (1 - ind), x * ind)
            if c == 0:
                out, error = _stacked(rho, np.vstack([x, u, rows]))
                if len(out) < 2:
                    raise error
                rx, ru, out = out[0], out[1], out[2:]
            else:
                out, error = _stacked(rho, rows)
            two, ind = two[:len(out)], ind[:len(out)]
            err = np.where(two[:, None],
                           np.abs(out - (rx * ind + ru * (1 - ind))),
                           np.abs(out * ind - rx * ind)).max(axis=1)
            j = _first_failure(err > tol, error)
            if j is not None:
                e = int(slot[j] // 2)
                witness = {"x": _vec(x)}
                if two[j]:
                    witness["u"] = _vec(u)
                witness.update(event_atoms=list(events[e]),
                               form="two-sided" if two[j] else "definition",
                               violation=float(err[j]))
                return PropertyReport("locality", CheckVerdict.FAIL,
                                      witness=witness,
                                      samples=r * len(events) + e + 1, tol=tol)
    return PropertyReport("locality", CheckVerdict.PASS,
                          samples=rounds * len(events), tol=tol)


def check_convexity(rho: RiskMeasureOracle, budget: int = 200,
                    tol: float = DEFAULT_CHECK_TOL, rng=0,
                    triples=None) -> PropertyReport:
    """Componentwise Jensen inequality over sampled triples."""
    if triples is None:
        triples = sample_triples(rho.space, rng, budget)
    table = _triple_table(rho, triples)
    return _excess_check("convexity", table, table.chunks(), _jensen_bound,
                         tol)


def check_quasiconvexity(rho: RiskMeasureOracle, budget: int = 200,
                         tol: float = DEFAULT_CHECK_TOL, rng=0,
                         triples=None) -> PropertyReport:
    """Componentwise max inequality over sampled triples."""
    if triples is None:
        triples = sample_triples(rho.space, rng, budget)
    table = _triple_table(rho, triples)
    return _excess_check("quasiconvexity", table, table.chunks(),
                         lambda lam, v_x, v_y: np.maximum(v_x, v_y), tol)


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


@functools.lru_cache(maxsize=64)
def _atom_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(k, 1)``, computed once per ``k`` and read-only."""
    pairs = np.triu_indices(k, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


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
    a, b = _atom_pairs(k)
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


def _each_triple(chunks):
    """``(i, values)`` per triple of :meth:`TripleTable.chunks`, ``i``
    counted from 1."""
    for start, values in chunks:
        yield from enumerate(values, start + 1)


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
    table = _triple_table(rho, triples)
    atom_probs = rho.sigma.atom_probs(rho.space)
    for i, risks in _each_triple(table.chunks()):
        r_x, r_y, r_mix = rho.sigma.atom_values(risks)
        certificate = _mu_feasibility(r_x, r_y, r_mix, tol)[1]
        if certificate is not None:
            x, y, lam = table.triples[i - 1]
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
                          samples=len(table), tol=tol)


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
    table = _triple_table(rho, triples)
    atom_probs = rho.sigma.atom_probs(rho.space)
    k = rho.sigma.k
    if k <= 3:
        raw = _simplex_grid(k, 51)
    else:
        raw = np.vstack([np.eye(k), _rng(rng).dirichlet(np.ones(k), size=budget_z)])
    z_set = raw / np.maximum(raw @ atom_probs, 1e-300)[:, None]
    # the weighted set once, then each triple's kinks behind it: the product
    # runs on the same rows as a stacked copy would, so it keeps their bits
    m = len(z_set)
    weighted = np.empty((m + k + k * (k - 1) // 2, k))
    weighted[:m] = z_set * atom_probs
    for i, risks in _each_triple(table.chunks()):
        r_x, r_y, r_mix = rho.sigma.atom_values(risks)
        kinks = _dual_candidates(r_mix - r_x, r_mix - r_y, atom_probs)
        rows = weighted[:m + len(kinks)]
        np.multiply(kinks, atom_probs, out=rows[m:])
        viol = rows @ r_mix - np.maximum(rows @ r_x, rows @ r_y) - tol
        j = int(np.argmax(viol))
        if viol[j] > 0:
            x, y, lam = table.triples[i - 1]
            z = z_set[j] if j < m else kinks[j - m]
            return PropertyReport(
                "star-quasiconvexity", CheckVerdict.FAIL,
                witness={"z": _vec(z), "x": _vec(x), "y": _vec(y),
                         "lam": lam, "violation": float(viol[j] + tol)},
                samples=i, tol=tol,
                details={"dual_samples": len(rows)})
    return PropertyReport("star-quasiconvexity", CheckVerdict.PASS,
                          samples=len(table), tol=tol,
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
    space, and random events up to the budget. The events of one ``eps``
    are one stacked call.
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
    inds = np.zeros((len(events), n))
    for row, event in zip(inds, events):
        row[list(event)] = 1.0
    checked = 0
    for eps in eps_list:
        if eps <= 0:
            raise ValueError("eps values must be positive")
        out, error = _stacked(rho, -eps * inds)
        j = _first_failure(~(out > tol).any(axis=1), error)
        if j is not None:
            # a stacked output row may be strided, and the max of a strided
            # row can pick the other of 0.0 and -0.0: take it of a copy
            return PropertyReport(
                "sensitivity", CheckVerdict.FAIL,
                witness={"eps": float(eps), "event": list(map(int, events[j])),
                         "max_output": float(np.max(out[j].copy()))},
                samples=checked + j + 1, tol=tol)
        checked += len(events)
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
    for ai in range(rho.sigma.k):
        ind = rho.sigma.indicator(ai)

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
