"""The stacked per-sample checkers against the loops they replaced.

The ``ref_*`` checkers are the earlier implementations of monotonicity,
translativity, locality, sensitivity and basis locality: one oracle call
per position, in sampling order. They live here only as oracles. On random
spaces and shuffled partitions (2-12 atoms of 1-4 outcomes, random
probabilities), for every built-in measure and for probe measures that fail
late, in the first or a later chunk and at the two-sided locality form, the
stacked checkers must give the loops' reports, compared by ``repr`` so that
float bits count. An oracle that raises partway through a stacked call must
give the loop's report when a failure comes first, and the loop's error
otherwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from qcx.errors import NotNormalizedError, QcxError
from qcx.l2basis import build_example_10pt, check_basis_locality
from qcx.riskmeasure import (DEFAULT_CHECK_TOL, DEFAULT_SAMPLE_RANGE,
                             TRIPLE_CHUNK, CheckVerdict, PropertyReport,
                             RiskMeasureOracle, _atom_events, _rng,
                             _sampled_events, _vec, blind_spot_map,
                             check_locality, check_monotonicity,
                             check_sensitivity, check_translativity,
                             mean_broadcast_map, neg_conditional_expectation)
from test_triple_oracle import indicator_block, measures, random_case


# ---------------------------------------------------------------------------
# the per-sample loops
# ---------------------------------------------------------------------------

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


def ref_basis_locality(rho: RiskMeasureOracle, block: BlockStructure,
                       budget: int = 200, tol: float = DEFAULT_CHECK_TOL,
                       rng=0) -> PropertyReport:
    """Locality with respect to the e-block coordinates.

    For each sampled position, each cell i and each e-vector e^i_k, the
    coordinate ``<rho(X), e^i_k>`` must be unchanged when X is replaced by
    its projection onto the cell (e-part plus beta-part). ``samples`` counts
    the e-vector comparisons made.
    """
    gen = _rng(rng)
    n_cells = block.k
    rounds = max(1, budget // max(1, n_cells))
    checked = 0
    for _ in range(rounds):
        x = gen.uniform(-3.0, 3.0, block.space.n)
        rx = rho(x)
        for ci in range(n_cells):
            arg = block.cell_projection_argument(x, ci)
            r_arg = rho(arg)
            for ki, e in enumerate(block.e_blocks[ci]):
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
    """The report's ``repr``, or the error's type, text and attributes."""
    try:
        return repr(call())
    except (ValueError, QcxError) as e:
        return type(e), str(e), vars(e)


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
            assert outcome(new) == outcome(old), (name, prop)


def test_failures_reach_later_chunks():
    """The cases above fail in a later chunk of samples, in the second
    chunk of a locality round, at the two-sided form and at a later
    ``eps``, besides failing at once."""
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
                    chunk = (rep.samples - 1) // TRIPLE_CHUNK
                    if prop == "locality":
                        chunk = (rep.samples - 1) % n_events // TRIPLE_CHUNK
                    seen.add((prop, chunk > 0, rep.witness.get("form")))
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


def test_raising_row_inside_a_stacked_call():
    """A failure before the raising row gives the loop's report; reaching
    that row raises the loop's error."""
    seen = set()
    for prop, new, old, base, bad in raising_cases():
        for seed in range(3):
            rho = _marked(base, bad)
            got = outcome(lambda: new(rho, rng=seed))
            assert got == outcome(lambda: old(rho, rng=seed)), (prop, seed)
            seen.add((prop, isinstance(got, str), rho.fn.stacked_bad))
    for prop in ("monotonicity", "translativity", "locality", "sensitivity",
                 "basis-locality"):
        # a report although a stacked call raised, and the error
        assert {(prop, True, True), (prop, False, True)} <= seen, prop


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
