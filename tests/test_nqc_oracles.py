"""The vectorized feasibility and dual kernels against loop reference code.

The reference functions below are the earlier loop implementations of the
mixing-weight interval, the infeasibility certificate, the minimax depth
(enumeration of pairwise crossing weights), the dual candidates as a matrix
of dual vectors (the star check's reference in ``test_triple_oracle`` uses
it too) and the grid/Dirichlet/blend-refinement search for a separating dual
vector. They live here only as oracles. The closed-form candidate values
must match the matrix products within rel 1e-9, and the chosen dual vector
the matrix row bit for bit.
"""

import numpy as np
import pytest

from qcx.riskmeasure import (DEFAULT_CHECK_TOL, _dual_values, _dual_vector,
                             _mu_feasibility, _mu_infeasible, nqc_mu_interval,
                             separating_dual_witness)

TRIPLES_PER_K = 300


def ref_mu_interval(r_x, r_y, r_mix, tol):
    lo, hi = 0.0, 1.0
    for a in range(len(r_x)):
        d = float(r_x[a] - r_y[a])
        c = float(r_mix[a] - r_y[a]) - tol
        if d == 0.0:
            if c > 0.0:
                return None
        elif d > 0.0:
            lo = max(lo, c / d)
        else:
            hi = min(hi, c / d)
    if lo > hi:
        return None
    return lo, hi


def ref_certificate(r_x, r_y, r_mix, tol):
    lo, hi = 0.0, 1.0
    lo_atom, hi_atom = None, None
    for a in range(len(r_x)):
        d = float(r_x[a] - r_y[a])
        c = float(r_mix[a] - r_y[a]) - tol
        if d == 0.0:
            if c > 0.0:
                return {"kind": "single-atom", "atom": a, "excess": c}
        elif d > 0.0:
            if c / d > lo:
                lo, lo_atom = c / d, a
        else:
            if c / d < hi:
                hi, hi_atom = c / d, a
    return {"kind": "contradictory-pair", "atom_lower": lo_atom,
            "atom_upper": hi_atom, "mu_lower": lo, "mu_upper": hi}


def ref_depth(r_x, r_y, r_mix):
    slopes = r_x - r_y
    mus = {0.0, 1.0}
    k = len(r_x)
    for a in range(k):
        for b in range(a + 1, k):
            den = slopes[a] - slopes[b]
            if den != 0.0:
                mu = ((r_mix[a] - r_y[a]) - (r_mix[b] - r_y[b])) / den
                if 0.0 <= mu <= 1.0:
                    mus.add(float(mu))
    return min(float(np.max(r_mix - (mu * r_x + (1 - mu) * r_y)))
               for mu in mus)


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


def ref_candidates(r_x, r_y, r_mix, atom_probs):
    """The LP basic solutions as a matrix of dual vectors, one per row: the
    vertices ``e_a / p_a``, then the on-edge points of each pair ``a < b``."""
    k = len(atom_probs)
    u = r_mix - r_x
    v = r_mix - r_y
    cands = []
    for a in range(k):
        z = np.zeros(k)
        z[a] = 1.0 / atom_probs[a]
        cands.append(z)
    for a in range(k):
        for b in range(a + 1, k):
            den = (u[a] - v[a]) - (u[b] - v[b])
            if den == 0.0:
                continue
            s = (v[b] - u[b]) / den
            if 0.0 <= s <= 1.0:
                z = np.zeros(k)
                z[a] = s / atom_probs[a]
                z[b] = (1.0 - s) / atom_probs[b]
                cands.append(z)
    return np.array(cands)


def ref_search(r_x, r_y, r_mix, atom_probs, tol, per_edge=33,
               refine_rounds=3, samples=512, seed=0):
    """Grid (Dirichlet beyond 3 atoms) plus candidates, then blend refinement."""
    if ref_mu_interval(r_x, r_y, r_mix, tol) is not None:
        return None
    k = len(atom_probs)
    u = r_mix - r_x
    v = r_mix - r_y

    def margin(z):
        return min(float(np.dot(atom_probs * z, u)),
                   float(np.dot(atom_probs * z, v)))

    if k <= 3:
        raw = _simplex_grid(k, per_edge)
    else:
        raw = np.random.default_rng(seed).dirichlet(np.ones(k), size=samples)
    grid = raw / np.maximum(raw @ atom_probs, 1e-300)[:, None]
    anchors = ref_candidates(r_x, r_y, r_mix, atom_probs)
    cands = np.vstack([grid, anchors])
    margins = np.minimum((cands * atom_probs) @ u, (cands * atom_probs) @ v)
    best = cands[int(np.argmax(margins))]
    best_margin = margin(best)
    for _ in range(refine_rounds):
        improved = False
        for anchor in anchors:
            for t in (0.5, 0.25, 0.125):
                z = (1 - t) * best + t * anchor
                m = margin(z)
                if m > best_margin:
                    best, best_margin, improved = z, m, True
        if not improved:
            break
    if best_margin <= 0.0:
        return None
    return best, best_margin


def check_candidates(r_x, r_y, r_mix, atom_probs):
    """The closed-form kernel against the matrix of dual vectors: the
    on-edge candidates are the matrix rows bit for bit, and each value
    ``E[Z r]`` is ``(z * p) @ r`` within rel 1e-9."""
    u, v = r_mix - r_x, r_mix - r_y
    rs = (r_x, r_y, r_mix, u, v)
    s, values = _dual_values(u, v, *rs)
    kept = np.flatnonzero(~np.isnan(s))
    assert all(np.array_equal(np.isnan(e), np.isnan(s)) for e in values)
    cands = ref_candidates(r_x, r_y, r_mix, atom_probs)
    assert np.array([_dual_vector(j, s, atom_probs) for j in kept]
                    ).reshape(cands.shape).tobytes() == cands.tobytes()
    for r, e in zip(rs, values):
        np.testing.assert_allclose(e[kept], (cands * atom_probs) @ r,
                                   rtol=1e-9, atol=1e-12)


def check_against_references(r_x, r_y, r_mix, atom_probs, tol):
    """Assert every kernel output equals its reference; True if infeasible."""
    interval = nqc_mu_interval(r_x, r_y, r_mix, tol)
    # repr keeps the sign of zero, which the certificate reports
    assert repr(interval) == repr(ref_mu_interval(r_x, r_y, r_mix, tol))
    same, certificate = _mu_feasibility(r_x, r_y, r_mix, tol)
    assert repr(same) == repr(interval)
    if interval is None:
        assert repr(certificate) == repr(ref_certificate(r_x, r_y, r_mix, tol))
    else:
        assert certificate is None
    check_candidates(r_x, r_y, r_mix, atom_probs)
    found = separating_dual_witness(r_x, r_y, r_mix, atom_probs, tol)
    if interval is not None:
        assert found is None
        return False
    assert found is not None
    z, margin = found
    # the chosen vector is the matrix argmax bit for bit, or, where the
    # best margins tie in exact arithmetic and the products' rounding picks
    # among them, one of the tied rows
    u, v = r_mix - r_x, r_mix - r_y
    cands = ref_candidates(r_x, r_y, r_mix, atom_probs)
    weighted = cands * atom_probs
    margins = np.minimum(weighted @ u, weighted @ v)
    tied = {row.tobytes() for row in cands[margins >= margins.max() - 1e-12]}
    assert z.tobytes() in tied
    if len(tied) == 1:
        assert z.tobytes() == cands[int(np.argmax(margins))].tobytes()
    assert (z >= 0).all() and float(np.dot(atom_probs, z)) == pytest.approx(1.0)
    assert margin == pytest.approx(ref_depth(r_x, r_y, r_mix),
                                   rel=1e-9, abs=1e-12)
    searched = ref_search(r_x, r_y, r_mix, atom_probs, tol)
    assert searched is not None and margin >= searched[1] - 1e-15
    return True


def _atom_probs(rng, k):
    p = rng.uniform(0.5, 2.0, k)
    return p / p.sum()


@pytest.mark.parametrize("k", range(1, 11))
def test_random_triples(k):
    rng = np.random.default_rng(100 + k)
    atom_probs = _atom_probs(rng, k)
    infeasible = 0
    for _ in range(TRIPLES_PER_K):
        r_x, r_y = rng.normal(size=(2, k))
        lam = rng.uniform()
        # the shift spreads the triples over both sides of feasibility
        r_mix = (lam * r_x + (1 - lam) * r_y + rng.normal(scale=0.3, size=k)
                 - rng.uniform(-0.3, 0.9))
        infeasible += check_against_references(r_x, r_y, r_mix, atom_probs,
                                               DEFAULT_CHECK_TOL)
    assert 20 < infeasible < TRIPLES_PER_K - 20


@pytest.mark.parametrize("k", range(1, 11))
def test_lattice_triples(k):
    """Small integers with tol 0: zero slopes, tied bounds, bounds at 0 and 1."""
    rng = np.random.default_rng(200 + k)
    atom_probs = _atom_probs(rng, k)
    for _ in range(100):
        r_x, r_y, r_mix = rng.integers(-2, 3, size=(3, k)).astype(float)
        check_against_references(r_x, r_y, r_mix, atom_probs, 0.0)


@pytest.mark.parametrize("k", range(1, 11))
def test_row_wise_mask_matches_the_intervals(k):
    """One call of the row-wise mask on a stack of rows marks exactly the
    rows whose interval is empty: small integers at tol 0 (zero slopes,
    ties, bounds at 0 and 1) and shifted mixes as in the random triples."""
    rng = np.random.default_rng(300 + k)
    lattice = rng.integers(-2, 3, size=(3, 500, k)).astype(float)
    r_x, r_y = rng.normal(size=(2, 500, k))
    lam = rng.uniform(size=(500, 1))
    r_mix = (lam * r_x + (1 - lam) * r_y + rng.normal(scale=0.3, size=(500, k))
             - rng.uniform(-0.3, 0.9, size=(500, 1)))
    seen = set()
    for rows, tol in ((lattice, 0.0), ((r_x, r_y, r_mix), DEFAULT_CHECK_TOL)):
        mask = _mu_infeasible(*rows, tol)
        assert mask.tolist() == [ref_mu_interval(*row, tol) is None
                                 for row in zip(*rows)]
        seen.update(mask.tolist())
    assert seen == {False, True}


@pytest.mark.parametrize("r_x, r_y, r_mix, tol, kind", [
    # zero slopes: atom 1 blocks, and of two blocking atoms the first counts
    ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.001, 3.0], 1e-6, "single-atom"),
    ([0.0, 2.0, 3.0], [1.0, 2.0, 3.0], [5.0, 2.5, 3.5], 0.0, "single-atom"),
    # zero slope with c = 0 is satisfied by every weight
    ([1.0, 2.0], [0.0, 2.0], [0.5, 2.0], 0.0, None),
    # atoms 0 and 2 tie for the lower bound; atom 0 binds
    ([1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.8, 0.8, 0.8], 0.0,
     "contradictory-pair"),
    # bounds exactly 0 and 1 do not displace [0, 1]
    ([1.0, 0.0], [0.0, 1.0], [0.0, 0.0], 0.0, None),
    # upper bound -0.0 from c = 0 and d < 0: feasible at mu = 0
    ([0.0, 1.0], [1.0, 0.0], [1.0, 0.0], 0.0, None),
    # upper bound below 0 with no lower atom
    ([0.0], [1.0], [1.5], 0.0, "contradictory-pair"),
])
def test_edge_cases(r_x, r_y, r_mix, tol, kind):
    r_x, r_y, r_mix = map(np.array, (r_x, r_y, r_mix))
    atom_probs = np.full(len(r_x), 1.0 / len(r_x))
    check_against_references(r_x, r_y, r_mix, atom_probs, tol)
    certificate = _mu_feasibility(r_x, r_y, r_mix, tol)[1]
    assert (certificate and certificate["kind"]) == kind
