"""The partition's atom index against the per-atom loops it replaced.

The ``ref_*`` functions are the earlier implementations of the partition
helpers and of the conditional expectation: one Python iteration per atom,
each gathering ``list(atom)`` from the vector. They live here only as
oracles. On random partitions (shuffled outcomes, non-contiguous atoms,
1-14 atoms of 1-12 outcomes, random probabilities) every index-based helper
must return the loop's bits. The conditional expectation and the sqrt-log
map sum in another order than the loop's ``np.dot``, so they must agree to
rel 1e-14 / abs 1e-15. The relative bound is taken of the larger of the
value and ``E[|X| | G]``: a sum of at most 12 terms is off by at most about
12 eps of the sum of the absolute terms in either order, and an atom mean
that cancels to near zero keeps that absolute error.
"""

import numpy as np
import pytest

from qcx.riskmeasure import (FiniteProbSpace, PartitionSigma,
                             conditional_expectation, sqrt_log_map)

CASES = 120
RTOL, ATOL = 1e-14, 1e-15


def ref_measurability_spread(sigma, x):
    x = np.asarray(x, dtype=float)
    worst, where = 0.0, 0
    for i, a in enumerate(sigma.atoms):
        vals = x[list(a)]
        s = float(vals.max() - vals.min())
        if s > worst:
            worst, where = s, i
    return worst, where


def ref_atom_values(sigma, x):
    x = np.asarray(x, dtype=float)
    return np.array([x[a[0]] for a in sigma.atoms])


def ref_from_atom_values(sigma, vals):
    out = np.empty(sigma.n)
    for v, a in zip(vals, sigma.atoms):
        out[list(a)] = v
    return out


def ref_event_indicator(sigma, atom_indices):
    out = np.zeros(sigma.n)
    for i in atom_indices:
        out[list(sigma.atoms[i])] = 1.0
    return out


def ref_atom_probs(sigma, space):
    p = np.asarray(space.probs)
    return np.array([p[list(a)].sum() for a in sigma.atoms])


def ref_conditional_expectation(x, sigma, space):
    x = np.asarray(x, dtype=float)
    p = np.asarray(space.probs)
    out = np.empty_like(x)
    for a in sigma.atoms:
        idx = list(a)
        out[idx] = np.dot(p[idx], x[idx]) / p[idx].sum()
    return out


def ref_sqrt_log(x, sigma, space, floor=1e-6):
    ce = ref_conditional_expectation(x, sigma, space)
    out = np.empty_like(ce)
    a0 = list(sigma.atoms[0])
    out[a0] = np.sqrt(np.maximum(ce[a0] + 4.0, floor))
    for a in sigma.atoms[1:]:
        idx = list(a)
        out[idx] = -np.log(np.maximum(ce[idx] + 5.0, floor))
    return out


def assert_close(new, ref, scale):
    assert np.all(np.abs(new - ref) <= RTOL * np.maximum(np.abs(ref), scale)
                  + ATOL)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_case(seed):
    """A shuffled partition with non-contiguous atoms and a random space."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 15))
    sizes = rng.integers(1, 13, size=k)
    outcomes = rng.permutation(int(sizes.sum()))
    atoms = np.split(outcomes, np.cumsum(sizes)[:-1])
    sigma = PartitionSigma(tuple(tuple(int(i) for i in a) for a in atoms))
    raw = rng.uniform(0.05, 1.0, sigma.n)
    return rng, sigma, FiniteProbSpace(tuple(raw / raw.sum()))


def probe_vectors(rng, sigma):
    """Random, measurable, all-equal, tied, NaN and infinite inputs."""
    n, k = sigma.n, sigma.k
    level = ref_from_atom_values(sigma, rng.integers(-5, 5, k).astype(float))
    tied = level.copy()
    for a in sigma.atoms[::2]:
        if len(a) > 1:
            tied[a[-1]] += 0.5  # exact: every bumped atom spreads by 0.5
    with_nan = rng.uniform(-3, 3, n)
    with_nan[sigma.atoms[0][0]] = np.nan
    with_inf = rng.uniform(-3, 3, n)
    with_inf[sigma.atoms[-1][-1]] = np.inf
    return [rng.uniform(-3, 3, n), rng.normal(size=n) * 1e3, level,
            np.full(n, 1.25), np.zeros(n), tied, with_nan, with_inf]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("seed", range(CASES))
def test_index_helpers_match_loops_bit_for_bit(seed):
    rng, sigma, space = random_case(seed)
    assert sigma.n == sum(len(a) for a in sigma.atoms)
    for x in probe_vectors(rng, sigma):
        assert sigma.measurability_spread(x) == ref_measurability_spread(sigma, x)
        assert same_bits(sigma.atom_values(x), ref_atom_values(sigma, x))
    vals = rng.uniform(-3, 3, sigma.k)
    assert same_bits(sigma.from_atom_values(vals),
                     ref_from_atom_values(sigma, vals))
    assert same_bits(sigma.from_atom_values(list(vals)),
                     ref_from_atom_values(sigma, vals))
    for i in list(range(sigma.k)) + [-1]:
        assert same_bits(sigma.indicator(i), ref_event_indicator(sigma, [i]))
    events = [(), tuple(range(sigma.k)),
              tuple(int(a) for a in np.flatnonzero(rng.integers(0, 2, sigma.k)))]
    for ev in events:
        assert same_bits(sigma.event_indicator(ev), ref_event_indicator(sigma, ev))
    assert same_bits(sigma.atom_probs(space), ref_atom_probs(sigma, space))


def test_spread_ties_go_to_the_first_atom():
    sigma = PartitionSigma.of((4, 0), (1, 5), (2, 3))
    x = np.array([0.0, 1.0, 2.0, 2.5, 0.5, 1.5])
    assert sigma.measurability_spread(x) == (0.5, 0)
    assert sigma.measurability_spread(np.full(6, np.nan)) == (0.0, 0)
    x[[0, 4]] = 7.0
    assert sigma.measurability_spread(x) == (0.5, 1)


@pytest.mark.parametrize("seed", range(CASES))
def test_conditional_expectation_matches_loop(seed):
    rng, sigma, space = random_case(seed)
    finite = probe_vectors(rng, sigma)[:6]
    for x in finite:
        scale = ref_conditional_expectation(np.abs(x), sigma, space)
        assert_close(conditional_expectation(x, sigma, space),
                     ref_conditional_expectation(x, sigma, space), scale)
    if sigma.k >= 2:
        rho = sqrt_log_map(sigma, space)
        # not the 1e3-scale vector: its atom means reach the steep part of
        # log(mean + 5) just above the floor
        for x in finite[:1] + finite[2:]:
            scale = ref_conditional_expectation(np.abs(x), sigma, space)
            assert_close(rho.fn(x), ref_sqrt_log(x, sigma, space), scale)


def test_index_and_probabilities_are_read_only():
    sigma = PartitionSigma.of((0, 2), (1, 3))
    space = FiniteProbSpace((0.1, 0.2, 0.3, 0.4))
    probs = sigma.atom_probs(space)
    assert probs is sigma.atom_probs(FiniteProbSpace(space.probs))
    for arr in (sigma.labels, probs, space.p):
        with pytest.raises(ValueError):
            arr[0] = 9.0
    assert sigma == PartitionSigma.of((2, 0), (3, 1))
    assert hash(sigma) == hash(PartitionSigma.of((2, 0), (3, 1)))
