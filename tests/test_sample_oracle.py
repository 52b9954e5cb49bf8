"""The stacked per-sample checkers against the loops they replaced.

The ``ref_*`` checkers are the earlier implementations of monotonicity,
translativity, locality, sensitivity and basis locality: one oracle call
per position, in sampling order. They live here only as oracles. On random
spaces and shuffled partitions (2-12 atoms of 1-4 outcomes, random
probabilities), for every built-in measure and for probe measures that fail
early or late (past the 64th sample) and at the two-sided locality form, the
stacked checkers must give the loops' reports, compared by ``repr`` so that
float bits count. The one exception is basis locality: its loop projects
onto a cell's basis vectors one inner product at a time, the checker
restricts to the cell exactly, and its violation moves by a few ulps, so
it is compared within :data:`BASIS_REL`. An oracle that raises partway
through a stacked call, also at the first, a middle or the last row of
any stacked call of these checks or of the six triple checks, must give
the loop's report when a failure comes first, and the loop's error
otherwise. Monotonicity and translativity draw all their samples in one
call, which must give the rows of one call per sample and part.

The block draws and matrices keep their per-row forms here too: the
sampled locality unions drawn one per call, the triples drawn in three
calls, the locality indicators built one event at a time, the sensitivity
events drawn one per call and the cubed mean cubed on every outcome. Each
must give the production bytes, and the numpy stream facts they rest on
are pinned on their own.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from qcx.errors import NotNormalizedError, QcxError
from qcx.l2basis import (build_example_10pt, build_example_10pt_split,
                         check_basis_locality, refined_partition_10pt)
from qcx.l2basis import (check_convexity_wrt_preorder,
                         check_nqc_wrt_preorder)
from qcx.riskmeasure import (DEFAULT_CHECK_TOL, DEFAULT_LAMBDA_GRID,
                             DEFAULT_SAMPLE_RANGE, SENSITIVITY_BLOCK,
                             SENSITIVITY_EVENTS,
                             CheckVerdict, PropertyReport,
                             RiskMeasureOracle, _atom_events, _rng,
                             _sampled_events, _vec, blind_spot_map,
                             check_convexity, check_locality,
                             check_monotonicity,
                             check_natural_quasiconvexity,
                             check_quasiconvexity, check_sensitivity,
                             check_star_quasiconvexity, check_translativity,
                             conditional_expectation_map, cubed_mean_map,
                             mean_broadcast_map,
                             neg_conditional_expectation, sample_triples)
from qcx.spaces import (FiniteProbSpace, PartitionSigma,
                        conditional_expectation)
from test_triple_oracle import (_squared_gap_measure, indicator_block,
                                measures, random_case, ref_convexity,
                                ref_convexity_wrt_preorder, ref_nqc,
                                ref_nqc_wrt_preorder, ref_quasiconvexity,
                                ref_star, same_star)

LATE = 64  # a failure past this many samples or events counts as late
BASIS_REL = 1e-12  # relative slack of a basis-locality violation


# ---------------------------------------------------------------------------
# the per-sample loops
# ---------------------------------------------------------------------------

def ref_sampled_events(k: int, budget: int, gen) -> list[tuple[int, ...]]:
    """Atoms, atom complements and the whole space, then distinct random
    unions, one ``gen.integers(0, 2, k)`` call each, cut at ``budget``
    events (there must be more unions than that)."""
    structural = [(a,) for a in range(k)]
    structural += [tuple(b for b in range(k) if b != a) for a in range(k)]
    structural.append(tuple(range(k)))
    events = dict.fromkeys(ev for ev in structural if ev)  # ordered set
    while len(events) < budget:
        ev = tuple(int(a) for a in np.flatnonzero(gen.integers(0, 2, k)))
        if ev:
            events[ev] = None
    return list(events)[:budget]


def ref_event_indicators(sigma, events) -> np.ndarray:
    """The outcome indicators of atom unions, one event at a time."""
    return np.array([sigma.event_indicator(ev) for ev in events]
                    ).reshape(-1, sigma.n)


def ref_sensitivity_events(rho, budget: int, gen):
    """Every singleton, every atom, the whole space, then random outcome
    sets up to ``budget``, one ``gen.integers(0, 2, n)`` call each."""
    n = rho.space.n
    ev: list[tuple[int, ...]] = [(i,) for i in range(n)]
    ev.extend(tuple(a) for a in rho.sigma.atoms)
    ev.append(tuple(range(n)))
    while len(ev) < budget:
        mask = gen.integers(0, 2, n).astype(bool)
        if mask.any():
            ev.append(tuple(np.flatnonzero(mask)))
    return ev


def ref_three_call_triples(space, rng, count):
    """``X``, ``Y`` and the lambda index of each triple, one call each."""
    gen = _rng(rng)
    lo, hi = DEFAULT_SAMPLE_RANGE
    grid = DEFAULT_LAMBDA_GRID
    return [(gen.uniform(lo, hi, space.n), gen.uniform(lo, hi, space.n),
             grid[gen.integers(len(grid))]) for _ in range(count)]


def ref_cubed_mean(x, sigma, space) -> np.ndarray:
    """``(-E[X|G])^3`` cubed on every outcome."""
    return (-conditional_expectation(x, sigma, space)) ** 3


def ref_monotonicity(rho: RiskMeasureOracle, budget: int = 200,
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


def ref_translativity(rho: RiskMeasureOracle, budget: int = 200,
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


def ref_locality(rho: RiskMeasureOracle, budget: int = 200,
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
        events, rounds = ref_sampled_events(k, budget, gen), 1
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


def ref_sensitivity(rho: RiskMeasureOracle,
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
        events = ref_sensitivity_events(rho, budget, _rng(rng))
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


def ref_cell_projection(block, x: np.ndarray, cell: int) -> np.ndarray:
    """``sum_v <x, v> v`` over the basis vectors of ``cell``, e then beta,
    one inner product per vector: the cell projection as it was computed
    before it became the restriction ``x 1_C``."""
    out = np.zeros(block.space.n)
    for v in block.basis[block.row_cells == cell]:
        out += block.space.inner(x, v) * v
    return out


def ref_basis_locality(rho: RiskMeasureOracle, block: BlockStructure,
                       budget: int = 200, tol: float = DEFAULT_CHECK_TOL,
                       rng=0) -> PropertyReport:
    """Locality with respect to the e-block coordinates.

    For each sampled position, each cell i and each e-vector e^i_k, the
    coordinate ``<rho(X), e^i_k>`` must be unchanged when X is replaced by
    its projection onto the cell (e-part plus beta-part). ``samples`` counts
    the e-vector comparisons made, one round of them per position.
    """
    gen = _rng(rng)
    rounds = max(1, budget // sum(block.e_dims))
    checked = 0
    for _ in range(rounds):
        x = gen.uniform(-3.0, 3.0, block.space.n)
        rx = rho(x)
        for ci, dim in enumerate(block.e_dims):
            arg = ref_cell_projection(block, x, ci)
            r_arg = rho(arg)
            for ki, e in enumerate(block.basis[block.row_cells == ci][:dim]):
                checked += 1
                lhs = block.space.inner(rx, e)
                rhs = block.space.inner(r_arg, e)
                if abs(lhs - rhs) > tol:
                    return PropertyReport(
                        "basis-locality", CheckVerdict.FAIL,
                        witness={"x": _vec(x), "cell": ci, "e_index": ki,
                                 "violation": float(abs(lhs - rhs))},
                        samples=checked, tol=tol)
    return PropertyReport("basis-locality", CheckVerdict.PASS, samples=checked,
                          tol=tol)


# ---------------------------------------------------------------------------
# measures and cases
# ---------------------------------------------------------------------------

def _shifted(base, name, shift):
    """``base`` plus ``shift(x)``, one value per position added to every
    outcome: row-wise and still measurable."""
    return RiskMeasureOracle(name, lambda x: base.fn(x) + shift(x),
                             base.sigma, base.space)


def probe_measures(space, sigma):
    """Measures that fail the per-sample checks rarely or selectively.

    ``bump`` adds 5 once the first outcome passes ``t``: past ``t = 4.5``
    only ``X + delta`` or ``X + Z`` gets there, a few times in 200 samples;
    at ``t = 1`` locality fails in the definition form when ``X`` passes
    and in the two-sided form when only ``U`` does. ``zeros`` adds 5 to a
    position with exactly ``m`` zero outcomes, so only the definition form
    at events whose complement has ``m`` outcomes fails. ``saturating``
    vanishes beyond ``|X| = 0.5``: not sensitive at ``eps = 1``.
    """
    base = neg_conditional_expectation(sigma, space)
    out = {f"bump-{t}": _shifted(base, f"bump-{t}",
                                 lambda x, t=t: 5.0 * (x[..., :1] > t))
           for t in (1.0, 4.5)}
    for m in (2, 5, 9):
        out[f"zeros-{m}"] = _shifted(
            base, f"zeros-{m}",
            lambda x, m=m: 5.0 * ((x == 0).sum(axis=-1, keepdims=True) == m))
    out["saturating"] = RiskMeasureOracle(
        "saturating",
        lambda x: base.fn(x) * (np.abs(x).max(axis=-1, keepdims=True) < 0.5),
        sigma, space)
    return out


def outcome(call):
    """The report, or the error's type, text and attributes."""
    try:
        return call()
    except (ValueError, QcxError) as e:
        return type(e), str(e), vars(e)


def same(new, old) -> bool:
    """Equal outcomes: reports by ``repr``, except that a basis-locality
    violation only has to agree within :data:`BASIS_REL`, and star reports
    as :func:`same_star` compares them."""
    if not isinstance(new, PropertyReport) or not isinstance(old, PropertyReport):
        return new == old
    if new.prop == "star-quasiconvexity":
        return same_star(new, old)
    if new.prop == "basis-locality" and new.failed and old.failed:
        a, b = new.witness["violation"], old.witness["violation"]
        if not math.isclose(a, b, rel_tol=BASIS_REL):
            return False
        new = dataclasses.replace(new, witness={**new.witness, "violation": b})
    return repr(new) == repr(old)


def checker_pairs(rho, block, seed):
    """``(name, stacked, loop)`` calls of the five checkers on ``rho``."""
    pairs = [
        ("monotonicity", check_monotonicity, ref_monotonicity),
        ("translativity", check_translativity, ref_translativity),
        ("locality", check_locality, ref_locality),
    ]
    out = [(name, lambda f=f: f(rho, rng=seed), lambda g=g: g(rho, rng=seed))
           for name, f, g in pairs]
    out.append(("sensitivity", lambda: check_sensitivity(rho, rng=seed),
                lambda: ref_sensitivity(rho, rng=seed)))
    out.append(("basis-locality",
                lambda: check_basis_locality(rho, block, budget=60, rng=seed),
                lambda: ref_basis_locality(rho, block, budget=60, rng=seed)))
    return out


CASES = [(k, 700 + k) for k in range(2, 13)]


@pytest.mark.parametrize("k,seed", CASES)
def test_checkers_match_the_loops(k, seed):
    space, sigma, rng = random_case(k, seed)
    block = indicator_block(space, sigma)
    cases = {**measures(space, sigma, rng), **probe_measures(space, sigma)}
    for name, rho in cases.items():
        for prop, new, old in checker_pairs(rho, block, seed):
            assert same(outcome(new), outcome(old)), (name, prop)


def test_failures_come_early_and_late():
    """The cases above fail past the 64th sample, past the 64th event of a
    locality round, at the two-sided form and at a later ``eps``, besides
    failing at once."""
    seen = set()
    for k, seed in CASES:
        space, sigma, rng = random_case(k, seed)
        block = indicator_block(space, sigma)
        cases = {**measures(space, sigma, rng), **probe_measures(space, sigma)}
        n_events = min(2 ** k - 1, 200)
        for rho in cases.values():
            for prop, new, _ in checker_pairs(rho, block, seed):
                try:
                    rep = new()
                except NotNormalizedError:
                    continue
                if rep.failed:
                    late = rep.samples > LATE
                    if prop == "locality":
                        late = (rep.samples - 1) % n_events >= LATE
                    seen.add((prop, late, rep.witness.get("form")))
    for prop in ("monotonicity", "translativity", "sensitivity"):
        assert {(prop, False, None), (prop, True, None)} <= seen, prop
    assert {("locality", False, "definition"), ("locality", True, "definition"),
            ("locality", False, "two-sided")} <= seen
    assert ("basis-locality", False, None) in seen


# ---------------------------------------------------------------------------
# an oracle that raises partway through a stacked call
# ---------------------------------------------------------------------------

def _marked(base, bad):
    """``base``, except that a row where ``bad`` holds returns itself (not
    measurable, so its call raises). Records whether a stacked call met a
    bad row."""
    def fn(x):
        marks = bad(x)
        if x.ndim == 2 and len(x) > 1 and marks.any():
            fn.stacked_bad = True
        return np.where(marks[..., None], x, base.fn(x))

    fn.stacked_bad = False
    return RiskMeasureOracle(f"marked-{base.name}", fn, base.sigma, base.space)


def _posmean(rho):
    return RiskMeasureOracle("posmean", lambda x: -rho.fn(x), rho.sigma,
                             rho.space)


def _window(lo, hi, col=0):
    return lambda x: (x[..., col] > lo) & (x[..., col] < hi)


def _zero_first_nonzero_last(x):
    """A row with an exact zero first and a nonzero last outcome: never a
    sampled position, only a projection or an event's restriction."""
    return (x[..., 0] == 0) & (x[..., -1] != 0)


def raising_cases():
    """``(checker, stacked, loop, base, bad)``: a base measure that fails
    early or passes, and the rows that raise."""
    space, sigma, rng = random_case(6, 41)
    block = build_example_10pt()
    ten = neg_conditional_expectation(block.sigma(), block.space)
    base = neg_conditional_expectation(sigma, space)
    blind = blind_spot_map(sigma, space, int(sigma.labels[0]))
    near = _window(2.85, 3.0)
    return [
        ("monotonicity", check_monotonicity, ref_monotonicity,
         _posmean(base), near),
        ("monotonicity", check_monotonicity, ref_monotonicity, base, near),
        ("translativity", check_translativity, ref_translativity,
         measures(space, sigma, rng)["cubed-mean"], near),
        ("translativity", check_translativity, ref_translativity, base, near),
        ("locality", check_locality, ref_locality,
         mean_broadcast_map(sigma, space), _zero_first_nonzero_last),
        ("locality", check_locality, ref_locality, base,
         _zero_first_nonzero_last),
        ("sensitivity", check_sensitivity, ref_sensitivity, blind,
         _window(-0.02, 0.0, col=-1)),
        ("sensitivity", check_sensitivity, ref_sensitivity, base,
         _window(-0.02, 0.0, col=-1)),
        ("basis-locality",
         lambda rho, rng: check_basis_locality(rho, block, budget=60, rng=rng),
         lambda rho, rng: ref_basis_locality(rho, block, budget=60, rng=rng),
         mean_broadcast_map(block.sigma(), block.space),
         _zero_first_nonzero_last),
        ("basis-locality",
         lambda rho, rng: check_basis_locality(rho, block, budget=60, rng=rng),
         lambda rho, rng: ref_basis_locality(rho, block, budget=60, rng=rng),
         ten, _zero_first_nonzero_last),
    ]


def _poisoned(base, row):
    """``base``, except a NaN output, so an error, on the rows within 1e-12
    of ``row``: the same rows for a checker and its loop, whose projection
    onto a cell lies a few ulps from the checker's restriction."""
    def fn(x):
        hit = (np.abs(x - row) <= 1e-12).all(axis=-1)
        return np.where(hit[..., None], np.nan, base.fn(x))

    return RiskMeasureOracle(f"poisoned-{base.name}", fn, base.sigma,
                             base.space)


def _stacks(check, base):
    """The rows of each stacked oracle call that ``check`` makes on
    ``base``."""
    stacks = []

    def fn(x):
        if x.ndim == 2:
            stacks.append(x.copy())
        return base.fn(x)

    outcome(lambda: check(RiskMeasureOracle(base.name, fn, base.sigma,
                                            base.space)))
    return stacks


def positional_cases():
    """``(checker, stacked, loop, bases)`` for every check that stacks its
    rows, each with a base measure that fails early and one that passes
    (or fails late)."""
    space, sigma, rng = random_case(4, 43)
    block, ten = indicator_block(space, sigma), build_example_10pt()
    zoo = measures(space, sigma, rng)
    base, cubed = zoo["neg-cond-exp"], zoo["cubed-mean"]
    atom = next(a for a, outs in enumerate(sigma.atoms) if len(outs) > 1)
    gap = _squared_gap_measure(sigma, space, atom, sigma.atoms[atom][:2])
    triples = sample_triples(space, rng, 30)

    def budgeted(check, budget):
        return lambda rho: check(rho, budget=budget, rng=5)

    cases = [
        ("monotonicity", budgeted(check_monotonicity, 40),
         budgeted(ref_monotonicity, 40), (_posmean(base), base)),
        ("translativity", budgeted(check_translativity, 40),
         budgeted(ref_translativity, 40), (cubed, base)),
        # 15 unions: every union in two rounds, or 10 sampled events
        ("locality-unions", budgeted(check_locality, 40),
         budgeted(ref_locality, 40), (zoo["mean-broadcast"], base)),
        ("locality-sampled", budgeted(check_locality, 10),
         budgeted(ref_locality, 10), (zoo["mean-broadcast"], base)),
        ("sensitivity", lambda rho: check_sensitivity(rho, rng=5),
         lambda rho: ref_sensitivity(rho, rng=5), (zoo["blind-spot"], base)),
        ("basis-locality",
         lambda rho: check_basis_locality(rho, ten, budget=30, rng=5),
         lambda rho: ref_basis_locality(rho, ten, budget=30, rng=5),
         (mean_broadcast_map(ten.sigma(), ten.space),
          neg_conditional_expectation(ten.sigma(), ten.space))),
    ]
    for prop, check, ref, fails in (
            ("convexity", check_convexity, ref_convexity, cubed),
            ("quasiconvexity", check_quasiconvexity, ref_quasiconvexity, gap),
            ("natural-quasiconvexity", check_natural_quasiconvexity, ref_nqc,
             cubed),
            ("star-quasiconvexity", check_star_quasiconvexity, ref_star,
             cubed)):
        cases.append((prop, lambda rho, f=check: f(rho, triples=triples),
                      lambda rho, g=ref: g(rho, triples), (fails, base)))
    cases += [
        ("convexity-wrt-preorder",
         lambda rho: check_convexity_wrt_preorder(rho, block, triples=triples),
         lambda rho: ref_convexity_wrt_preorder(rho, block, triples),
         (cubed, base)),
        ("nqc-wrt-preorder",
         lambda rho: check_nqc_wrt_preorder(rho, block, triples=triples,
                                            rng=5),
         lambda rho: ref_nqc_wrt_preorder(rho, block, triples, rng=5),
         (cubed, base)),
    ]
    return cases


def test_raising_row_inside_a_stacked_call():
    """A failure before the raising row gives the loop's report; reaching
    that row raises the loop's error. Rows that raise by a rule, and the
    first, a middle and the last row of each stacked call of every check
    that stacks its rows."""
    seen = set()
    for prop, new, old, base, bad in raising_cases():
        for seed in range(3):
            rho = _marked(base, bad)
            got = outcome(lambda: new(rho, rng=seed))
            assert same(got, outcome(lambda: old(rho, rng=seed))), (prop, seed)
            seen.add((prop, isinstance(got, PropertyReport),
                      rho.fn.stacked_bad))
    for prop in ("monotonicity", "translativity", "locality", "sensitivity",
                 "basis-locality"):
        # a report although a stacked call raised, and the error
        assert {(prop, True, True), (prop, False, True)} <= seen, prop
    seen, cases = set(), positional_cases()
    for prop, new, old, bases in cases:
        for base in bases:
            for stack in _stacks(new, base):
                for row in stack[[0, len(stack) // 2, -1]]:
                    rho = _poisoned(base, row)
                    got = outcome(lambda: new(rho))
                    assert same(got, outcome(lambda: old(rho))), (
                        prop, base.name)
                    seen.add((prop, isinstance(got, PropertyReport)))
    assert seen == {(case[0], report) for case in cases
                    for report in (True, False)}


def test_locality_makes_one_call_per_round():
    space, sigma, _ = random_case(4, 3)
    base = neg_conditional_expectation(sigma, space)
    calls = []

    def fn(x):
        calls.append(len(x))
        return base.fn(x)

    rep = check_locality(RiskMeasureOracle("counted", fn, sigma, space),
                         budget=200)
    assert rep.passed and rep.samples == 13 * 15
    # X, U, 15 definition rows and 14 two-sided rows per round
    assert calls == [2 + 15 + 14] * 13


def _uniform_triads(n):
    """A uniform space of ``n`` outcomes, atoms of three."""
    return (FiniteProbSpace.uniform(n),
            PartitionSigma.of(*(range(a, a + 3) for a in range(0, n, 3))))


@pytest.mark.parametrize("n", [9, 30, 1200])
def test_sensitivity_stacks_stay_within_the_block(n):
    """The event rows of one ``eps`` reach the oracle in stacks of at most
    :data:`SENSITIVITY_BLOCK` values: one stack per ``eps`` while they fit,
    as on every small space, and blocks beyond that. At ``n = 1200`` the
    rows of one ``eps`` hold 1.9 million values."""
    space, sigma = _uniform_triads(n)
    base = neg_conditional_expectation(sigma, space)
    stacks = []

    def fn(x):
        stacks.append(x.reshape(-1, n).shape[0])
        return base.fn(x)

    rep = check_sensitivity(RiskMeasureOracle("counted", fn, sigma, space))
    events = max(n + sigma.k + 1, SENSITIVITY_EVENTS)
    assert rep.passed and rep.samples == 3 * events
    rows = stacks[1:]  # after rho(0)
    assert sum(rows) == 3 * events
    assert max(rows) * n <= SENSITIVITY_BLOCK
    assert (rows == [events] * 3) is (events * n <= SENSITIVITY_BLOCK)


def test_sensitivity_blocks_keep_the_loop_report():
    """A blind spot on the last atom fails at that atom's first singleton,
    in the sixth stack of ``n = 600``, with the loop's report."""
    space, sigma = _uniform_triads(600)
    blind = blind_spot_map(sigma, space, sigma.k - 1)
    rep = check_sensitivity(blind)
    assert rep.failed and rep.samples == 598 > 5 * (SENSITIVITY_BLOCK // 600)
    assert rep.witness["event"] == [597]
    assert repr(rep) == repr(ref_sensitivity(blind))


# ---------------------------------------------------------------------------
# the cell projection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", range(2, 15))
def test_cell_projection_is_the_restriction(k):
    """The loop's projection onto a cell's basis vectors is ``x 1_C`` up to
    rounding, on random indicator blocks and on both ten-point fixtures."""
    space, sigma, rng = random_case(k, 900 + k)
    blocks = [indicator_block(space, sigma)]
    if k == 2:
        blocks += [build_example_10pt(), build_example_10pt_split()]
    for block in blocks:
        labels = block.sigma().labels
        for x in rng.uniform(-3.0, 3.0, (20, block.space.n)):
            for cell in range(block.k):
                np.testing.assert_allclose(
                    ref_cell_projection(block, x, cell),
                    np.where(labels == cell, x, 0.0), rtol=0, atol=1e-14)


def test_two_dimensional_e_blocks_match_the_loop():
    """On the split fixture, whose first cell has two e-vectors, the checker
    gives the loop's outcome, and a measure that lets outcome 4 leak into
    the second e-vector's atom fails at that e-vector."""
    split = build_example_10pt_split()
    refined, space = refined_partition_10pt(), split.space
    leak = RiskMeasureOracle(
        "leak", lambda x: -conditional_expectation(x, refined, space)
        + np.where(refined.labels == 1, x[..., 4:5], 0.0), refined, space)
    cases = [conditional_expectation_map(split.sigma(), space,
                                         declared_sigma=refined),
             mean_broadcast_map(refined, space), leak]
    for rho in cases:
        for seed in range(3):
            new = check_basis_locality(rho, split, budget=60, rng=seed)
            old = ref_basis_locality(rho, split, budget=60, rng=seed)
            assert same(new, old), (rho.name, seed)
    rep = check_basis_locality(leak, split, budget=60)
    assert rep.failed and rep.samples == 2
    assert (rep.witness["cell"], rep.witness["e_index"]) == (0, 1)


# ---------------------------------------------------------------------------
# the draws
# ---------------------------------------------------------------------------

def _drawn_rows(check, rho, seed):
    """The rows of ``check``'s stacked call and the next draw of its
    generator after the check."""
    gen = np.random.default_rng(seed)
    (rows,) = _stacks(lambda r: check(r, budget=50, rng=gen), rho)
    return rows, gen.random()


@pytest.mark.parametrize("k,seed", [(1, 801), (4, 804), (9, 809)])
def test_one_call_draws_keep_the_per_sample_stream(k, seed):
    """Monotonicity and translativity draw all samples in one call; the rows
    they evaluate, and the generator's position after them, equal those of
    one call per sample and part. A passing report shows no sample, so the
    rows are compared directly."""
    space, sigma, _ = random_case(k, seed)
    rho = neg_conditional_expectation(sigma, space)
    lo, hi = DEFAULT_SAMPLE_RANGE
    n = space.n
    for s in range(20):
        gen = np.random.default_rng(s)
        mono, trans = [], []
        for _ in range(50):
            x, delta = gen.uniform(lo, hi, n), gen.uniform(0.0, 2.0, n)
            mono += [x, x + delta]
        after_mono = gen.random()
        gen = np.random.default_rng(s)
        for _ in range(50):
            x = gen.uniform(lo, hi, n)
            z = sigma.from_atom_values(gen.uniform(-2.0, 2.0, k))
            trans += [x + z, x]
        after_trans = gen.random()
        for check, rows, after in ((check_monotonicity, mono, after_mono),
                                   (check_translativity, trans, after_trans)):
            got, got_after = _drawn_rows(check, rho, s)
            assert got.tobytes() == np.array(rows).tobytes(), check.__name__
            assert got_after == after, check.__name__


def test_atom_values_spread_row_wise():
    """``from_atom_values`` maps a stack of atom values ``(..., k)`` to
    ``(..., n)``, each row as its own call maps it."""
    space, sigma, rng = random_case(5, 811)
    vals = rng.uniform(-2.0, 2.0, (3, 4, sigma.k))
    got = sigma.from_atom_values(vals)
    assert got.shape == (3, 4, sigma.n)
    single = [[sigma.from_atom_values(v) for v in block] for block in vals]
    assert got.tobytes() == np.array(single).tobytes()
    assert (sigma.atom_values(got) == vals).all()


def ref_locality_round(rho, budget: int, gen) -> np.ndarray:
    """The rows of the first stacked locality call, built as before the
    block draws: the unions drawn one per call, then the indicators one
    event at a time."""
    lo, hi = DEFAULT_SAMPLE_RANGE
    k, n = rho.sigma.k, rho.space.n
    x, u = gen.uniform(lo, hi, n), gen.uniform(lo, hi, n)
    events = (_atom_events(k) if 2 ** k - 1 <= budget
              else ref_sampled_events(k, budget, gen))
    rows = [x, u]
    for ev, ind in zip(events, ref_event_indicators(rho.sigma, events)):
        rows.append(x * ind)
        if len(ev) < k:
            rows.append(x * ind + u * (1 - ind))
    return np.array(rows)


def _triple_bytes(triples):
    return [(x.tobytes(), y.tobytes(), lam) for x, y, lam in triples]


@pytest.mark.parametrize("k", range(2, 15))
def test_block_draws_match_the_per_row_forms(k):
    """Every block draw and matrix against its per-row form, by bytes, on
    20 seeds: the sampled unions at budgets up to ``2^k - 1``, the triples,
    and the generator after each; the first locality round, unions sampled
    from ``k = 8`` on; the sensitivity rows of each ``eps`` and the
    generator after them; the cubed mean of a row and of stacks."""
    space, sigma, rng = random_case(k, 1000 + k)
    rho, cubed = (neg_conditional_expectation(sigma, space),
                  cubed_mean_map(sigma, space))
    budgets = {0, 1, min(2 * k + 1, 2 ** k - 1), min(200, 2 ** k - 1)}
    if k <= 8:
        budgets.add(2 ** k - 1)
    for seed in range(20):
        for budget in sorted(budgets):
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            assert (_sampled_events(k, budget, new)
                    == ref_sampled_events(k, budget, old)), budget
            assert new.random() == old.random(), budget
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (_triple_bytes(sample_triples(space, new, 30))
                == _triple_bytes(ref_three_call_triples(space, old, 30)))
        assert new.random() == old.random()
        first = _stacks(lambda r: check_locality(r, rng=seed), rho)[0]
        want = ref_locality_round(rho, 200, np.random.default_rng(seed))
        assert first.tobytes() == want.tobytes()
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        stacks = _stacks(lambda r: check_sensitivity(r, rng=new), rho)
        events = ref_sensitivity_events(rho, 32, old)
        ind = np.zeros((len(events), space.n))
        for row, event in zip(ind, events):
            row[list(event)] = 1.0
        assert ([s.tobytes() for s in stacks]
                == [(-eps * ind).tobytes() for eps in (0.01, 0.1, 1.0)])
        assert new.random() == old.random()
        x = rng.uniform(-3.0, 3.0, (3, 5, space.n))
        for arg in (x[0, 0], x[0], x):
            assert (cubed.fn(arg).tobytes()
                    == ref_cubed_mean(arg, sigma, space).tobytes())


@pytest.mark.parametrize("k", range(1, 21))
def test_numpy_block_draws_keep_the_stream(k):
    """The numpy facts the block draws rest on, after a few ``uniform``
    draws and with or without a spare 32-bit half in the bit generator:
    ``m`` rows of one ``integers(0, 2, (m, k))`` call are ``m`` calls of
    ``integers(0, 2, k)``, odd ``k`` too, and one ``uniform(lo, hi, (2,
    n))`` call is two ``(n,)`` calls; the next draw after each agrees."""
    lo, hi = DEFAULT_SAMPLE_RANGE
    for seed in range(4):
        for before in range(1, 5):
            block, single = (np.random.default_rng(seed) for _ in range(2))
            for gen in (block, single):
                gen.uniform(lo, hi, before)
                if before % 2:
                    gen.integers(7)  # leaves a spare 32-bit half
            m = 3 + seed
            rows = [single.integers(0, 2, k) for _ in range(m)]
            assert (block.integers(0, 2, (m, k)).tobytes()
                    == np.array(rows).tobytes())
            assert block.integers(7) == single.integers(7)
            pair = [single.uniform(lo, hi, k) for _ in range(2)]
            assert (block.uniform(lo, hi, (2, k)).tobytes()
                    == np.array(pair).tobytes())
            assert block.random() == single.random()
