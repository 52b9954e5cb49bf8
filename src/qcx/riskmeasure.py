"""Conditional risk measures on finite probability spaces.

A conditional risk measure is an oracle mapping position vectors to vectors
constant on each atom of a partition (checked on every call); the spaces,
partitions and the conditional expectation live in :mod:`qcx.spaces`.
Oracles are row-wise: a stack of positions ``(m, n)`` is evaluated in one
call and gives each row the bits of its own call.

The property checkers sample positions and mixing weights, so a ``Pass`` is
always "no violation found at this tolerance on these samples" while a
``Fail`` carries a witness that replays. The natural-quasiconvexity check is
exact per sampled triple: feasibility of the mixing weight reduces to an
interval intersection, and infeasibility is certified either by a
contradictory pair of atom constraints or by a separating nonnegative dual
vector whose scalarization violates quasiconvexity at the same triple. The
star check is exact per triple too: the best such vector solves a linear
program with two inequality rows, whose basic solutions (atom vertices and
two-atom edge points) it tests, their values in closed form.

The sampled checkers evaluate stacked rows: one oracle call for all their
samples (per locality round, per block of sensitivity events; the
non-constancy check makes one per probe position), in the order of single
calls, so reports equal those of one call per row. One rule,
:func:`_verdict`, turns the violation mask of every check but the
non-constancy one into its report: the first flagged sample fails. When a
stacked call raises, :func:`_stacked` alone decides what a checker sees:
the rows from the first failing one on are NaN, which no mask flags, so a
check reports a failure found before that row and otherwise raises its
error. The six triple checkers (convexity,
quasiconvexity, natural and star quasiconvexity here, and the two preorder
checks of :mod:`qcx.l2basis`) take the caller's triples, ``triples=`` a
list from :func:`sample_triples` or a shared :class:`TripleTable`: ``rho``
of every ``X``, ``Y`` and mix, evaluated in one call when a checker first
reads it. Each decides its triples with violation masks, the star check in
blocks.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (InverseMismatchError, NotGMeasurableError,
                     NotNormalizedError, QcxError)
# parse_partition_text is imported only to be re-exported: bench/verify.py
# reads it from here (ROADMAP item 6 moves that import to qcx.spaces)
from .spaces import (MEASURABILITY_TOL, FiniteProbSpace, PartitionSigma,
                     atom_means, conditional_expectation,
                     parse_partition_text)

#: Default tolerance of the sampled checks. Kept at 1e-6 so that every
#: declared natural-quasiconvexity failure has infeasibility depth above it,
#: which in turn guarantees a separating dual vector with margin > 1e-6.
DEFAULT_CHECK_TOL = 1e-6

#: Mixing weights of the sampled triples, k/8.
DEFAULT_LAMBDA_GRID = tuple(k / 8 for k in range(1, 8))
DEFAULT_SAMPLE_RANGE = (-3.0, 3.0)

#: The sensitivity check charges 32 events and needs an output above 1e-12;
#: the non-constancy check tries 16 probe pairs per atom and needs two
#: values more than 1e-9 apart.
SENSITIVITY_EVENTS, SENSITIVITY_TOL = 32, 1e-12
NONCONSTANT_PROBES, NONCONSTANT_TOL = 16, 1e-9

#: Values per stacked call of the sensitivity check: its event rows.
SENSITIVITY_BLOCK = 2 ** 16

#: Dual candidate values the star check decides per block of triples.
STAR_BLOCK = 2 ** 13

#: Points at which a certainty equivalent's declared loss inverse is checked.
INVERSE_PROBES = np.linspace(-6.0, 6.0, 25)


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
    ``fn`` gets a C-contiguous float array whatever the caller's layout, so
    a map that rounds by layout (BLAS on strided rows) keeps per-row bits.
    """

    def __init__(self, name: str, fn: Callable[[np.ndarray], np.ndarray],
                 sigma: PartitionSigma, space: FiniteProbSpace):
        if sigma.n != space.n:
            raise ValueError(f"{name}: partition covers {sigma.n} outcomes, "
                             f"space has {space.n}")
        self.name = name
        self.fn = fn
        self.sigma = sigma
        self.space = space

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """``rho`` of one position ``(n,)`` or of a stack ``(m, n)``.

        Each output row is checked as a single call checks it (no NaN, atom
        spread within :data:`MEASURABILITY_TOL`), and the first bad row
        raises what its own call would raise.
        """
        x = np.ascontiguousarray(x, dtype=float)
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
        sigma, space)


def certainty_equivalent(loss: Callable[[np.ndarray], np.ndarray],
                         loss_inv: Callable[[np.ndarray], np.ndarray],
                         sigma: PartitionSigma, space: FiniteProbSpace,
                         name: str = "certainty-equivalent") -> RiskMeasureOracle:
    """``rho(X) = loss_inv(E[loss(-X) | G])`` for an increasing loss.

    The declared inverse is probed at :data:`INVERSE_PROBES` on construction;
    a mismatch beyond 1e-9, or a NaN, raises
    :class:`qcx.errors.InverseMismatchError`.
    """
    residual = np.max(np.abs(loss_inv(loss(INVERSE_PROBES)) - INVERSE_PROBES))
    if not residual <= 1e-9:  # NaN too
        raise InverseMismatchError(
            f"{name}: loss_inv(loss(t)) deviates from t by {residual:.3e}")

    def fn(x: np.ndarray) -> np.ndarray:
        return loss_inv(conditional_expectation(loss(-x), sigma, space))

    return RiskMeasureOracle(name, fn, sigma, space)


def entropic_certainty_equivalent(sigma: PartitionSigma,
                                  space: FiniteProbSpace) -> RiskMeasureOracle:
    """Exponential loss: ``rho(X) = log E[exp(-X) | G]``."""
    return certainty_equivalent(np.exp, np.log, sigma, space, name="entropic-ce")


def cubed_mean_map(sigma: PartitionSigma,
                   space: FiniteProbSpace) -> RiskMeasureOracle:
    """``(-E[X|G])^3``: quasiconvex but neither convex nor translative.
    The ``k`` atom means are cubed before the broadcast, with the same bits."""
    def fn(x: np.ndarray) -> np.ndarray:
        return sigma.from_atom_values((-atom_means(x, sigma, space)) ** 3)

    return RiskMeasureOracle("cubed-mean", fn, sigma, space)


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

    return RiskMeasureOracle("sqrt-log", fn, sigma, space)


def mean_broadcast_map(sigma: PartitionSigma,
                       space: FiniteProbSpace) -> RiskMeasureOracle:
    """``-E[X]`` broadcast to all outcomes: mixes atoms, breaks locality."""
    def fn(x: np.ndarray) -> np.ndarray:
        # one dot per row: a matrix-vector product rounds differently
        means = [-space.expectation(row) for row in x.reshape(-1, space.n)]
        return np.repeat(means, space.n).reshape(x.shape)

    return RiskMeasureOracle("mean-broadcast", fn, sigma, space)


def blind_spot_map(sigma: PartitionSigma, space: FiniteProbSpace,
                   ignored_atom: int = 0) -> RiskMeasureOracle:
    """``-E[X 1_{A0^c} | G]``: ignores one atom, hence not sensitive there.
    ``ignored_atom`` is a 0-based atom index, ``0 <= ignored_atom < k``."""
    if not 0 <= ignored_atom < sigma.k:
        raise ValueError(f"ignored_atom must be an atom index in "
                         f"0..{sigma.k - 1}, got {ignored_atom}")
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


def sample_triples(space: FiniteProbSpace, rng, count: int
                   ) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Deterministic (X, Y, lambda) triples for the triple checkers, lambda
    drawn from :data:`DEFAULT_LAMBDA_GRID`. ``X`` and ``Y`` are one ``(2, n)``
    draw, the doubles of two calls; lambda is drawn per triple, since one
    call for all would reorder the 32-bit halves the generator buffers."""
    gen = _rng(rng)
    lo, hi = DEFAULT_SAMPLE_RANGE
    grid = DEFAULT_LAMBDA_GRID
    return [(*gen.uniform(lo, hi, (2, space.n)),
             grid[gen.integers(len(grid))]) for _ in range(count)]


class TripleTable:
    """``rho(X)``, ``rho(Y)`` and ``rho(mix)`` of a list of ``(X, Y, lam)``
    triples, evaluated once and shared by the triple checkers.

    The first checker to read the table evaluates every triple in one
    stacked oracle call with rows in call order ``X_1, Y_1, mix_1, X_2,
    ...``; the mix is ``lam X + (1 - lam) Y``. A table that no checker reads
    makes no call.
    """

    def __init__(self, rho: RiskMeasureOracle, triples):
        self.rho = rho
        self.triples = list(triples)
        self.lam = np.array([lam for _, _, lam in self.triples], dtype=float)
        self._read: Optional[tuple[np.ndarray, Optional[Exception]]] = None

    def __len__(self) -> int:
        return len(self.triples)

    def read(self) -> tuple[np.ndarray, Optional[Exception]]:
        """``(risks, error)`` as :func:`_stacked` gives them: ``risks[j]``
        holds ``rho(X)``, ``rho(Y)`` and ``rho(mix)`` of triple ``j``, NaN
        from the first failing row on, whose error is ``error``."""
        if self._read is None:
            n = self.rho.sigma.n
            rows = np.empty((len(self), 3, n))
            rows[:, :2] = np.reshape([t[:2] for t in self.triples], (-1, 2, n))
            lam = self.lam[:, None]
            rows[:, 2] = lam * rows[:, 0] + (1 - lam) * rows[:, 1]
            risks, error = _stacked(self.rho, rows.reshape(-1, n))
            self._read = risks.reshape(-1, 3, n), error
        return self._read


def _stacked(rho: RiskMeasureOracle, rows: np.ndarray
             ) -> tuple[np.ndarray, Optional[Exception]]:
    """``rho`` of a stack of rows ``(m, n)`` in one call, and ``None``.

    When that call raises, the rows are evaluated one at a time, and the
    result keeps the stack's shape: the rows before the first failing one
    hold their outputs, that row and every later one are NaN, and that
    row's error comes back beside them. A violation mask is False on NaN,
    so a checker stops where calls of one row each would have stopped.
    """
    try:
        return rho(rows), None
    except (ValueError, QcxError):
        out = np.full(rows.shape, np.nan)
        for i, row in enumerate(rows):
            try:
                out[i] = rho(row)
            except (ValueError, QcxError) as e:
                return out, e
        return out, None


def _verdict(prop: str, mask, error: Optional[Exception], samples: int,
             witness: Callable[[int], dict], tol: float,
             offset: int = 0) -> PropertyReport:
    """The verdict of every masked check. ``mask`` flags the violating
    samples among the rows of one :func:`_stacked` call or triple-table
    read, False on the NaN rows that stopped at ``error``. The first flagged
    sample ``j`` fails, with ``witness(j)`` and ``offset + j + 1`` samples
    (``offset`` counts the samples of the blocks decided before). With none
    flagged, ``error`` is raised when there is one, and otherwise the check
    passes with ``samples``."""
    bad = np.flatnonzero(mask)
    if bad.size:
        j = int(bad[0])
        return PropertyReport(prop, CheckVerdict.FAIL, witness=witness(j),
                              samples=offset + j + 1, tol=tol)
    if error is not None:
        raise error
    return PropertyReport(prop, CheckVerdict.PASS, samples=samples, tol=tol)


def _triple_table(rho: RiskMeasureOracle, triples) -> TripleTable:
    """``triples`` as a table of ``rho``: a :class:`TripleTable` of the same
    oracle is shared as it is, a plain list is wrapped."""
    if not isinstance(triples, TripleTable):
        return TripleTable(rho, triples)
    if triples.rho is not rho:
        raise ValueError("the triple table was built for another measure")
    return triples


def _triple(table: TripleTable, i: int) -> dict:
    """The witness entries ``x``, ``y`` and ``lam`` of triple ``i``."""
    x, y, lam = table.triples[i]
    return {"x": _vec(x), "y": _vec(y), "lam": lam}


def _excess_check(prop: str, table: TripleTable, values: np.ndarray,
                  error: Optional[Exception], bound: Callable,
                  tol: float) -> PropertyReport:
    """Fail at the first triple whose mixed value exceeds
    ``bound(lam, v_x, v_y)`` by more than ``tol`` in some coordinate,
    reporting the largest excess.

    ``values, error`` are as :meth:`TripleTable.read` gives them, or
    transformed row by row: ``values[j]`` holds ``v_x``, ``v_y`` and
    ``v_mix`` of triple ``j``.
    """
    v_x, v_y, v_mix = values.transpose(1, 0, 2)
    worst = (v_mix - bound(table.lam[:, None], v_x, v_y)).max(axis=1)
    return _verdict(prop, worst > tol, error, len(table),
                    lambda i: {**_triple(table, i),
                               "violation": float(worst[i])}, tol)


def _jensen_bound(lam, v_x, v_y):
    return lam * v_x + (1 - lam) * v_y


def _atom_events(k: int) -> list[tuple[int, ...]]:
    """All nonempty unions of k atoms (as atom index tuples), by size."""
    return [ev for r in range(1, k + 1)
            for ev in itertools.combinations(range(k), r)]


def _sampled_events(k: int, budget: int, gen) -> list[tuple[int, ...]]:
    """Atoms, atom complements and the whole space, then distinct random
    unions, cut at ``budget <= 2^k - 1`` events. The unions still missing
    are drawn as 0/1 atom rows in one call, the rows of one call per union;
    a row adds at most one event, so the budget is met only on a block's
    last row, and events and generator are those of one draw per union."""
    if budget > 2 ** k - 1:
        raise ValueError(f"{budget} events asked of {2 ** k - 1} unions")
    eye = np.eye(k, dtype=np.int64)
    rows = np.vstack([eye, 1 - eye, np.ones((1, k), np.int64)])
    seen, events = {bytes(8 * k)}, []  # the empty union is no event
    while True:
        for row in rows:
            if (key := row.tobytes()) not in seen:  # exact for every k
                seen.add(key)
                events.append(tuple(np.flatnonzero(row).tolist()))
        if len(events) >= budget:
            return events[:budget]
        rows = gen.integers(0, 2, (budget - len(events), k))


# ---------------------------------------------------------------------------
# elementary property checks
# ---------------------------------------------------------------------------

def check_monotonicity(rho: RiskMeasureOracle, budget: int = 200,
                       tol: float = DEFAULT_CHECK_TOL, rng=0) -> PropertyReport:
    """Larger positions must not carry larger risk: X <= Y => rho(X) >= rho(Y).

    All samples come from one draw, in the order of one ``X`` and one
    ``delta`` call per sample, and are evaluated in one stacked call, rows
    ``X``, ``Y``.
    """
    lo, hi = DEFAULT_SAMPLE_RANGE
    n = rho.space.n
    x, delta = _rng(rng).uniform([[lo], [0.0]], [[hi], [2.0]],
                                 (budget, 2, n)).swapaxes(0, 1)
    out, error = _stacked(rho, np.stack([x, x + delta], 1).reshape(-1, n))
    rx, ry = out.reshape(-1, 2, n).swapaxes(0, 1)
    viol = rx - (ry - tol)
    i = viol.argmin(axis=1)  # the first outcome of largest violation
    return _verdict("monotonicity", (viol < 0).any(axis=1), error, budget,
                    lambda j: {"x": _vec(x[j]), "delta": _vec(delta[j]),
                               "outcome": int(i[j]), "violation":
                               float(ry[j, i[j]] - rx[j, i[j]])}, tol)


def check_translativity(rho: RiskMeasureOracle, budget: int = 200,
                        tol: float = DEFAULT_CHECK_TOL, rng=0) -> PropertyReport:
    """Adding a measurable position Z shifts the risk by exactly -Z.

    Drawn and stacked as :func:`check_monotonicity` is, ``X`` and the atom
    values of ``Z`` per sample, rows ``X + Z``, ``X``.
    """
    lo, hi = DEFAULT_SAMPLE_RANGE
    n, k = rho.space.n, rho.sigma.k
    draws = _rng(rng).uniform([lo] * n + [-2.0] * k, [hi] * n + [2.0] * k,
                              (budget, n + k))
    x, z = draws[:, :n], rho.sigma.from_atom_values(draws[:, n:])
    out, error = _stacked(rho, np.stack([x + z, x], 1).reshape(-1, n))
    lhs, rx = out.reshape(-1, 2, n).swapaxes(0, 1)
    err = np.abs(lhs - (rx - z)).max(axis=1)
    return _verdict("translativity", err > tol, error, budget,
                    lambda j: {"x": _vec(x[j]), "z": _vec(z[j]),
                               "violation": float(err[j])}, tol)


def check_locality(rho: RiskMeasureOracle, budget: int = 200,
                   tol: float = DEFAULT_CHECK_TOL, rng=0) -> PropertyReport:
    """Both locality forms over measurable events.

    Definition form: ``rho(X 1_A) 1_A == rho(X) 1_A``. Two-sided form:
    ``rho(X 1_A + U 1_{A^c}) == rho(X) 1_A + rho(U) 1_{A^c}``.

    When all ``2^k - 1`` atom unions fit in the budget, each round of fresh
    X, U checks every union, for ``budget // (2^k - 1)`` rounds. Otherwise
    one round checks the atoms, their complements, the whole space and then
    distinct random unions, ``budget`` events in all. ``samples`` counts the
    events checked. A round is one stacked call, rows in the order of single
    calls: ``X`` and ``U`` first, then per event the definition form and,
    unless the event is the whole space, the two-sided form; the indicators
    are the events' 0/1 atom matrix, indexed by the atom labels.
    """
    gen = _rng(rng)
    lo, hi = DEFAULT_SAMPLE_RANGE
    k, n = rho.sigma.k, rho.space.n
    x, u = gen.uniform(lo, hi, n), gen.uniform(lo, hi, n)
    events = (_atom_events(k) if 2 ** k - 1 <= budget
              else _sampled_events(k, budget, gen))
    rounds = budget // max(1, len(events))  # no events at budget 0
    # row slot 2 e + f is event e in form f (0 definition, 1 two-sided; the
    # whole space has no two-sided form)
    slots = np.flatnonzero([f == 0 or len(ev) < k
                            for ev in events for f in (0, 1)])
    two = slots % 2 == 1
    on = np.zeros((len(events), k))  # the events' 0/1 atom rows
    on[np.repeat(np.arange(len(events)), [len(ev) for ev in events]),
       list(itertools.chain.from_iterable(events))] = 1.0
    ind = rho.sigma.from_atom_values(on[slots // 2])  # C-contiguous rows
    off = 1 - ind[two]

    def glued(a, b):
        """``a 1_A`` per row, plus ``b 1_{A^c}`` in a two-sided row."""
        rows = a * ind
        rows[two] += b * off
        return rows

    def witness(e):
        f = int(np.argmax(err[e] > tol))  # the first failing form
        return {"x": _vec(x), **({"u": _vec(u)} if f else {}),
                "event_atoms": list(events[e]),
                "form": ("definition", "two-sided")[f],
                "violation": float(err[e, f])}

    for r in range(rounds):
        if r:
            x, u = gen.uniform(lo, hi, n), gen.uniform(lo, hi, n)
        out, error = _stacked(rho, np.vstack([x, u, glued(x, u)]))
        rx, ru, out = out[0], out[1], out[2:]
        got = np.where(two[:, None], out, out * ind)
        err = np.full((len(events), 2), np.nan)  # per event and form
        err.flat[slots] = np.abs(got - glued(rx, ru)).max(axis=1)
        report = _verdict("locality", (err > tol).any(axis=1), error,
                          rounds * len(events), witness, tol,
                          offset=r * len(events))
        if report.failed:
            return report
    return _verdict("locality", [], None, rounds * len(events), witness, tol)


def check_convexity(rho: RiskMeasureOracle, *, triples,
                    tol: float = DEFAULT_CHECK_TOL) -> PropertyReport:
    """Componentwise Jensen inequality over the triples."""
    table = _triple_table(rho, triples)
    return _excess_check("convexity", table, *table.read(), _jensen_bound, tol)


def check_quasiconvexity(rho: RiskMeasureOracle, *, triples,
                         tol: float = DEFAULT_CHECK_TOL) -> PropertyReport:
    """Componentwise max inequality over the triples."""
    table = _triple_table(rho, triples)
    return _excess_check("quasiconvexity", table, *table.read(),
                         lambda lam, v_x, v_y: np.maximum(v_x, v_y), tol)


# ---------------------------------------------------------------------------
# natural quasiconvexity and dual scalarizations
# ---------------------------------------------------------------------------

def _mu_slopes(r_x, r_y, r_mix, tol: float):
    """Row-wise on ``(..., k)``: the excess ``c = r_mix - r_y - tol`` that
    each atom's half-line ``mu (r_x - r_y) >= c`` asks for, the zero-slope
    atoms that no weight satisfies, and the lower and upper bound that each
    atom puts on the weight (infinite where it puts none)."""
    r_y = np.asarray(r_y, dtype=float)
    d = np.asarray(r_x, dtype=float) - r_y
    c = np.asarray(r_mix, dtype=float) - r_y - tol
    with np.errstate(divide="ignore", invalid="ignore"):
        q = c / d
    return (c, (d == 0.0) & (c > 0.0), np.where(d > 0.0, q, -np.inf),
            np.where(d < 0.0, q, np.inf))


def _mu_infeasible(r_x, r_y, r_mix, tol: float) -> np.ndarray:
    """Row-wise on ``(..., k)``: no mixing weight in [0, 1] satisfies every
    atom (the mask of :func:`_mu_feasibility`'s certificates)."""
    _, blocked, lower, upper = _mu_slopes(r_x, r_y, r_mix, tol)
    return blocked.any(axis=-1) | (lower.max(axis=-1, initial=0.0)
                                   > upper.min(axis=-1, initial=1.0))


def _mu_feasibility(r_x, r_y, r_mix, tol: float
                    ) -> tuple[Optional[tuple[float, float]], Optional[dict]]:
    """The :func:`nqc_mu_interval` and ``None``, or ``None`` and a certificate:
    the first zero-slope atom no weight satisfies, or the crossing bounds with
    their binding atoms (``None`` where [0, 1] binds). Ties go to the lowest
    atom; 0 and 1 yield only to strictly tighter bounds."""
    c, blocked, lower, upper = _mu_slopes(r_x, r_y, r_mix, tol)
    if blocked.any():
        a = int(np.argmax(blocked))
        return None, {"kind": "single-atom", "atom": a, "excess": float(c[a])}
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


@functools.lru_cache(maxsize=64)
def _candidate_atoms(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The atoms ``a``, ``b`` of each dual candidate: ``(a, a)`` for each
    vertex, then each pair ``a < b`` in ``np.triu_indices`` order. Computed
    once per ``k`` and read-only."""
    atoms = tuple(np.concatenate([np.arange(k), pair])
                  for pair in np.triu_indices(k, 1))
    for a in atoms:
        a.setflags(write=False)
    return atoms


def _dual_values(u, v, *rs) -> tuple[np.ndarray, list[np.ndarray]]:
    """Row-wise on ``(..., k)``, the basic solutions of ``max_Z min(E[Z u],
    E[Z v])`` over ``Z >= 0``, ``E[Z] = 1``, which contain an optimum: per
    :func:`_candidate_atoms` pair the point ``s e_a / p_a + (1 - s) e_b /
    p_b``, at ``s = 1`` for a vertex and where ``E[Z u] = E[Z v]`` for an
    edge. Returns ``s`` (NaN off the edge) and, for each ``r`` of ``rs``,
    every candidate's ``E[Z r] = s r_a + (1 - s) r_b``."""
    k = u.shape[-1]
    a, b = _candidate_atoms(k)
    w = u - v
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (v[..., b] - u[..., b]) / (w[..., a] - w[..., b])
    s[..., :k] = 1.0
    s[~((s >= 0.0) & (s <= 1.0))] = np.nan  # a zero denominator too
    return s, [s * r[..., a] + (1.0 - s) * r[..., b] for r in rs]


def _dual_vector(j: int, s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Candidate ``j`` of :func:`_dual_values`, given its row of ``s``."""
    a, b = (atoms[j] for atoms in _candidate_atoms(len(p)))
    z = np.zeros(len(p))
    z[b] = (1.0 - s[j]) / p[b]
    z[a] = s[j] / p[a]  # a vertex has a == b
    return z


def separating_dual_witness(r_x, r_y, r_mix, atom_probs,
                            tol: float = DEFAULT_CHECK_TOL
                            ) -> Optional[tuple[np.ndarray, float]]:
    """The nonnegative dual vector that best separates the mixed risk.

    ``Z`` is normalized to ``E[Z] = 1``; its margin is ``E[Z r_mix] -
    max(E[Z r_x], E[Z r_y])``. The result is the exact LP optimum, a vertex
    or two-atom basic solution, so by LP duality the margin equals the
    infeasibility depth ``min_mu max_a (r_mix - mu r_x - (1-mu) r_y)_a``.
    Returns ``None`` when the feasibility interval is nonempty (nothing to
    separate) or when rounding leaves the best margin nonpositive.
    """
    if nqc_mu_interval(r_x, r_y, r_mix, tol) is not None:
        return None
    u = np.asarray(r_mix, dtype=float) - r_x
    v = np.asarray(r_mix, dtype=float) - r_y
    s, (e_u, e_v) = _dual_values(u, v, u, v)
    margins = np.minimum(e_u, e_v)
    if not np.fmax.reduce(margins) > 0.0:  # NaN off the edge
        return None
    j = int(np.nanargmax(margins))
    return (_dual_vector(j, s, np.asarray(atom_probs, dtype=float)),
            float(margins[j]))


def _nqc_check(prop: str, table: TripleTable, values: np.ndarray,
               error: Optional[Exception], keys: tuple[str, str, str],
               tol: float, probs: Optional[np.ndarray] = None
               ) -> PropertyReport:
    """Fail at the first triple that no mixing weight satisfies, with the
    witness of both natural-quasiconvexity checks: ``x``, ``y``, ``lam``,
    the triple's three value vectors under ``keys`` and the certificate of
    :func:`_mu_feasibility`; given atom ``probs``, also the separating dual
    vector and its margin, unless rounding leaves no positive margin.
    ``values, error`` are as :func:`_excess_check` takes them."""
    def witness(i):
        v = values[i]
        out = {**_triple(table, i), **dict(zip(keys, map(_vec, v))),
               "certificate": _mu_feasibility(*v, tol)[1]}
        found = probs is not None and separating_dual_witness(*v, probs, tol)
        if found:
            out.update(separating_dual=_vec(found[0]),
                       separating_margin=found[1])
        return out
    return _verdict(prop, _mu_infeasible(*values.transpose(1, 0, 2), tol),
                    error, len(table), witness, tol)


def check_natural_quasiconvexity(rho: RiskMeasureOracle, *, triples,
                                 tol: float = DEFAULT_CHECK_TOL
                                 ) -> PropertyReport:
    """Exact mixing-weight feasibility per triple.

    A failing triple carries the infeasibility certificate and, unless
    rounding leaves no positive margin, the optimal separating dual vector
    with its margin.
    """
    table = _triple_table(rho, triples)
    risks, error = table.read()
    return _nqc_check("natural-quasiconvexity", table,
                      rho.sigma.atom_values(risks), error,
                      ("r_x", "r_y", "r_mix"), tol,
                      rho.sigma.atom_probs(rho.space))


def check_star_quasiconvexity(rho: RiskMeasureOracle, *, triples,
                              tol: float = DEFAULT_CHECK_TOL) -> PropertyReport:
    """Quasiconvexity of every nonnegative dual scalarization, exact per triple.

    A dual vector ``Z >= 0``, normalized to ``E[Z] = 1``, violates
    quasiconvexity at a triple by ``E[Z r_mix] - max(E[Z r_x], E[Z r_y])``.
    Maximizing that over ``Z`` is a linear program with two inequality rows,
    so its basic solutions (:func:`_dual_values`: the atom vertices and the
    two-atom edge points) contain an optimum, and testing them tests every
    ``Z``. Blocks of :data:`STAR_BLOCK` candidate values, decided in turn up
    to the first failure, bound the memory; the kernel is row-wise, so they
    move no bits. The witness is the first candidate of largest violation
    at the first failing triple.
    """
    table = _triple_table(rho, triples)
    risks, error = table.read()
    values = rho.sigma.atom_values(risks)
    step = max(1, STAR_BLOCK // len(_candidate_atoms(rho.sigma.k)[0]))

    def witness(i):
        j = int(np.nanargmax(viol[i]))
        z = _dual_vector(j, s[i], rho.sigma.atom_probs(rho.space))
        return {"z": _vec(z), **_triple(table, start + i),
                "violation": float(viol[i, j] + tol)}

    for start in range(0, len(values) or 1, step):  # one block if none
        r_x, r_y, r_mix = values[start:start + step].transpose(1, 0, 2)
        s, (e_x, e_y, e_mix) = _dual_values(r_mix - r_x, r_mix - r_y,
                                            r_x, r_y, r_mix)
        viol = e_mix - np.maximum(e_x, e_y) - tol  # NaN off the edge
        last = start + step >= len(values)
        report = _verdict("star-quasiconvexity",
                          np.fmax.reduce(viol, axis=-1) > 0,
                          error if last else None, len(table), witness, tol,
                          offset=start)
        if report.failed or last:
            return report


# ---------------------------------------------------------------------------
# sensitivity and the non-constancy hypothesis
# ---------------------------------------------------------------------------

def check_sensitivity(rho: RiskMeasureOracle, rng=0) -> PropertyReport:
    """Charging any nonnull event must create risk somewhere.

    Requires a normalized measure (``rho(0) = 0``). Events are outcome index
    sets: every singleton, every atom, the whole space, and random events up
    to :data:`SENSITIVITY_EVENTS`, each charged ``eps`` = 0.01, 0.1 and 1;
    some output must exceed :data:`SENSITIVITY_TOL`. The events of one
    ``eps`` are stacked calls of at most :data:`SENSITIVITY_BLOCK` values,
    one call while all ``(n + k + 1) x n`` fit, their rows built per call,
    so the memory does not grow with ``n^2``. The missing random events are
    drawn in one call, the rows and the stream of one call per event.
    """
    zero = rho(np.zeros(rho.space.n))
    if np.max(np.abs(zero)) > 1e-9:
        raise NotNormalizedError(f"{rho.name}: rho(0) has norm "
                                 f"{np.max(np.abs(zero)):.3e}")
    n, k = rho.space.n, rho.sigma.k
    gen = _rng(rng)
    own = n + k + 1  # every outcome, every atom and the whole space
    drawn = np.zeros((0, n))
    while own + len(drawn) < SENSITIVITY_EVENTS:
        more = gen.integers(0, 2, (SENSITIVITY_EVENTS - own - len(drawn), n))
        drawn = np.vstack([drawn, more[more.any(axis=1)]])
    events, step = own + len(drawn), max(1, SENSITIVITY_BLOCK // n)

    def indicators(lo, hi):
        """The 0/1 rows of events ``lo`` to ``hi``."""
        e = np.arange(lo, min(hi, own))[:, None]
        rows = ((e == np.arange(n)) | (e == n + rho.sigma.labels)
                | (e == n + k))
        return np.vstack([rows, drawn[max(lo, own) - own:max(hi, own) - own]])

    for charged, eps in enumerate((0.01, 0.1, 1.0)):
        for lo in range(0, events, step):
            ind = indicators(lo, lo + step)
            out, error = _stacked(rho, -eps * ind)
            report = _verdict(
                "sensitivity", (out <= SENSITIVITY_TOL).all(axis=1), error,
                3 * events,
                lambda j: {"eps": float(eps),
                           "event": np.flatnonzero(ind[j]).tolist(),
                           "max_output": float(np.max(out[j]))},
                SENSITIVITY_TOL, offset=charged * events + lo)
            if report.failed:
                return report
    return report


def check_assumption_nonconstant(rho: RiskMeasureOracle, rng=0) -> PropertyReport:
    """Each atom scalarization ``X -> E[rho(X) 1_A]`` must be non-constant.

    Atoms suffice: the scalarization is additive over disjoint measurable
    events. Constant probes are tried first, then random pairs, up to
    :data:`NONCONSTANT_PROBES` per atom, until two values differ by more
    than :data:`NONCONSTANT_TOL`. ``samples`` counts the probe pairs tried,
    summed over atoms. Each constant probe is evaluated once, if reached.
    """
    gen = _rng(rng)
    p, n = rho.space.p, rho.space.n
    at = functools.lru_cache(maxsize=None)(lambda c: rho(c * np.ones(n)))
    constant = [(at, pair) for pair in ((0.0, 1.0), (0.0, -1.0), (-1.0, 2.0))]
    checked = 0
    for ai in range(rho.sigma.k):
        ind = rho.sigma.indicator(ai)
        drawn = ((rho, gen.uniform(*DEFAULT_SAMPLE_RANGE, (2, n)))
                 for _ in itertools.count())  # drawn only when reached
        for value, pair in itertools.islice(itertools.chain(constant, drawn),
                                            NONCONSTANT_PROBES):
            checked += 1
            a, b = (float(np.dot(p, value(x) * ind)) for x in pair)
            if abs(a - b) > NONCONSTANT_TOL:
                break
        else:
            return PropertyReport(
                "assumption-nonconstant", CheckVerdict.FAIL,
                witness={"atom": ai}, samples=checked, tol=NONCONSTANT_TOL)
    return PropertyReport("assumption-nonconstant", CheckVerdict.PASS,
                          samples=checked, tol=NONCONSTANT_TOL)
