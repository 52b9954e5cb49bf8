"""The triple table against the per-triple loops it replaced.

The ``ref_*`` checkers are the earlier implementations of the six triple
checkers: one Python iteration per triple, calling ``rho`` on ``X``, ``Y``
and the mix each time. They live here only as oracles. On random spaces and
shuffled partitions (2-14 atoms of 1-4 outcomes, random probabilities) and
for every built-in measure, the table-based checkers must give the loops'
reports, compared by ``repr`` so that float bits count, both when a check
passes and when it fails early (the two preorder checks up to 4 atoms, as
their e-coordinates cost an inner product per atom and output). A stacked
oracle call must give the bits of the row-by-row calls, and a bad row must
raise what its own call raises.

``ref_star`` also keeps the earlier dual set: a 51-per-edge simplex grid
through 3 atoms, the vertices and 512 Dirichlet draws beyond, tested beside
each triple's LP basic solutions, all as rows of one matrix of dual vectors
(``ref_candidates``) with matrix-vector products. The star check tests only
the basic solutions and takes their values in closed form, so it must match
``ref_star`` on verdict, ``samples``, ``tol`` and the witness ``z``, ``x``,
``y`` and ``lam`` by ``repr``, and on the witness ``violation`` within rel
1e-9; the sampled set never finds a larger violation.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qcx import riskmeasure
from qcx.errors import NotGMeasurableError
from qcx.l2basis import (blocks_from_generators, check_basis_locality,
                         check_convexity_wrt_preorder, check_nqc_wrt_preorder)
from qcx.riskmeasure import (DEFAULT_CHECK_TOL, CheckVerdict,
                             PropertyReport, RiskMeasureOracle, TripleTable,
                             _dual_values, _mu_feasibility, _rng, _vec,
                             blind_spot_map, certainty_equivalent,
                             check_convexity, check_natural_quasiconvexity,
                             check_quasiconvexity, check_star_quasiconvexity,
                             check_locality, check_monotonicity,
                             check_translativity, conditional_expectation_map,
                             cubed_mean_map, entropic_certainty_equivalent,
                             mean_broadcast_map, neg_conditional_expectation,
                             sample_triples, separating_dual_witness,
                             sqrt_log_map)
from qcx.spaces import FiniteProbSpace, PartitionSigma, conditional_expectation
from test_nqc_oracles import (_simplex_grid, check_against_references,
                              ref_candidates)

TRIPLES = 70
LATE = 64  # a failure past this many triples counts as late
TOL = DEFAULT_CHECK_TOL


# ---------------------------------------------------------------------------
# the per-triple loops
# ---------------------------------------------------------------------------

def ref_convexity(rho, triples, tol=TOL):
    for i, (x, y, lam) in enumerate(triples, 1):
        rx, ry = rho(x), rho(y)
        rm = rho(lam * x + (1 - lam) * y)
        worst = float(np.max(rm - (lam * rx + (1 - lam) * ry)))
        if worst > tol:
            return PropertyReport(
                "convexity", CheckVerdict.FAIL,
                witness={"x": _vec(x), "y": _vec(y), "lam": lam,
                         "violation": worst},
                samples=i, tol=tol)
    return PropertyReport("convexity", CheckVerdict.PASS,
                          samples=len(triples), tol=tol)


def ref_quasiconvexity(rho, triples, tol=TOL):
    for i, (x, y, lam) in enumerate(triples, 1):
        rx, ry = rho(x), rho(y)
        rm = rho(lam * x + (1 - lam) * y)
        worst = float(np.max(rm - np.maximum(rx, ry)))
        if worst > tol:
            return PropertyReport(
                "quasiconvexity", CheckVerdict.FAIL,
                witness={"x": _vec(x), "y": _vec(y), "lam": lam,
                         "violation": worst},
                samples=i, tol=tol)
    return PropertyReport("quasiconvexity", CheckVerdict.PASS,
                          samples=len(triples), tol=tol)


def ref_nqc(rho, triples, tol=TOL):
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


def ref_star(rho, triples, tol=TOL, rng=0, budget_z=512):
    atom_probs = rho.sigma.atom_probs(rho.space)
    k = rho.sigma.k
    if k <= 3:
        raw = _simplex_grid(k, 51)
    else:
        raw = np.vstack([np.eye(k), _rng(rng).dirichlet(np.ones(k), size=budget_z)])
    z_set = raw / np.maximum(raw @ atom_probs, 1e-300)[:, None]
    weighted_set = z_set * atom_probs
    for i, (x, y, lam) in enumerate(triples, 1):
        r_x = rho.atom_values(x)
        r_y = rho.atom_values(y)
        r_mix = rho.atom_values(lam * x + (1 - lam) * y)
        kinks = ref_candidates(r_x, r_y, r_mix, atom_probs)
        zs = np.vstack([z_set, kinks])
        weighted = np.vstack([weighted_set, kinks * atom_probs])
        viol = weighted @ r_mix - np.maximum(weighted @ r_x, weighted @ r_y) - tol
        j = int(np.argmax(viol))
        if viol[j] > 0:
            return PropertyReport(
                "star-quasiconvexity", CheckVerdict.FAIL,
                witness={"z": _vec(zs[j]), "x": _vec(x), "y": _vec(y),
                         "lam": lam, "violation": float(viol[j] + tol)},
                samples=i, tol=tol, details={"dual_samples": len(zs)})
    return PropertyReport("star-quasiconvexity", CheckVerdict.PASS,
                          samples=len(triples), tol=tol,
                          details={"dual_samples": len(z_set)})


def ref_convexity_wrt_preorder(rho, block, triples, tol=TOL):
    for i, (x, y, lam) in enumerate(triples, 1):
        ex = block.e_coordinates(rho(x))
        ey = block.e_coordinates(rho(y))
        em = block.e_coordinates(rho(lam * x + (1 - lam) * y))
        worst = float(np.max(em - (lam * ex + (1 - lam) * ey)))
        if worst > tol:
            return PropertyReport(
                "convexity-wrt-preorder", CheckVerdict.FAIL,
                witness={"x": _vec(x), "y": _vec(y), "lam": lam,
                         "violation": worst},
                samples=i, tol=tol)
    return PropertyReport("convexity-wrt-preorder", CheckVerdict.PASS,
                          samples=len(triples), tol=tol)


def ref_nqc_wrt_preorder(rho, block, triples, tol=TOL, rng=0,
                         locality_budget=24):
    for i, (x, y, lam) in enumerate(triples, 1):
        ex = block.e_coordinates(rho(x))
        ey = block.e_coordinates(rho(y))
        em = block.e_coordinates(rho(lam * x + (1 - lam) * y))
        certificate = _mu_feasibility(ex, ey, em, tol)[1]
        if certificate is not None:
            return PropertyReport(
                "nqc-wrt-preorder", CheckVerdict.FAIL,
                witness={"x": _vec(x), "y": _vec(y), "lam": lam,
                         "e_x": _vec(ex), "e_y": _vec(ey), "e_mix": _vec(em),
                         "certificate": certificate},
                samples=i, tol=tol)
    conv = ref_convexity_wrt_preorder(rho, block, triples, tol)
    normalized = bool(np.max(np.abs(rho(np.zeros(block.space.n)))) <= 1e-9)
    loc = check_basis_locality(rho, block, budget=locality_budget, tol=tol,
                               rng=rng)
    hypotheses = normalized and loc.passed
    return PropertyReport(
        "nqc-wrt-preorder", CheckVerdict.PASS, samples=len(triples), tol=tol,
        details={
            "convexity_wrt_preorder": conv.verdict.value,
            "normalized": normalized,
            "basis_local": loc.passed,
            "implication_holds": (not hypotheses) or conv.passed,
        })


# ---------------------------------------------------------------------------
# random cases
# ---------------------------------------------------------------------------

def random_case(k, seed):
    """A random space and a shuffled partition of k atoms of 1-4 outcomes."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 5, k)
    outcomes = rng.permutation(int(sizes.sum()))
    atoms = np.split(outcomes, np.cumsum(sizes)[:-1])
    raw = rng.uniform(0.5, 2.0, len(outcomes))
    space = FiniteProbSpace(tuple(raw / raw.sum()))
    return space, PartitionSigma(tuple(tuple(a) for a in atoms)), rng


def measures(space, sigma, rng):
    """Every built-in measure on the case, by name."""
    coarse = PartitionSigma(tuple(sum(sigma.atoms[i:i + 2], ())
                                  for i in range(0, sigma.k, 2)))
    return {
        "neg-cond-exp": neg_conditional_expectation(sigma, space),
        "entropic": entropic_certainty_equivalent(sigma, space),
        "identity-ce": certainty_equivalent(lambda t: t, lambda t: t,
                                            sigma, space),
        "cubed-mean": cubed_mean_map(sigma, space),
        "sqrt-log": sqrt_log_map(sigma, space),
        "mean-broadcast": mean_broadcast_map(sigma, space),
        "blind-spot": blind_spot_map(sigma, space,
                                     int(rng.integers(sigma.k))),
        "cond-exp-coarse": conditional_expectation_map(
            coarse, space, declared_sigma=sigma, negate=bool(sigma.k % 2)),
    }


def indicator_block(space, sigma):
    """Cells = atoms, e-blocks = atom indicators, beta-blocks completed."""
    return blocks_from_generators(
        space, sigma.atoms, [[sigma.indicator(a)] for a in range(sigma.k)],
        [[] for _ in range(sigma.k)])


def triple_lists(space, rng):
    """Sampled triples, and the same after 70 triples with ``X == Y`` (no
    check can fail there), so that a first failure comes late."""
    triples = sample_triples(space, rng, TRIPLES)
    flat = [(x, x.copy(), lam) for x, _, lam in sample_triples(space, rng, 70)]
    return {"sampled": triples, "late": flat + triples[:30]}


CASES = [(k, 500 + k) for k in (2, 3, 4, 6, 8, 10, 12, 14)]


def star_fields(rep):
    """What the star check reports but the witness ``violation``, by
    ``repr``, and that violation. ``details`` is left out, as only
    ``ref_star`` counts its dual samples there."""
    witness = dict(rep.witness) if rep.witness else None
    violation = witness.pop("violation") if witness else None
    fields = (rep.prop, rep.verdict, rep.samples, witness, rep.tol)
    return repr(fields), violation


def same_star(new, old) -> bool:
    """Equal star reports, the violation within rel 1e-9: the check takes
    ``E[Z r]`` in closed form, the reference from matrix products."""
    (fields, violation), (ref_fields, ref_violation) = (star_fields(new),
                                                       star_fields(old))
    return fields == ref_fields and (
        violation == ref_violation
        or math.isclose(violation, ref_violation, rel_tol=1e-9))


def _first_fail(rep):
    """The triple a report fails at, a pass counting as one past the last."""
    return rep.samples + rep.passed


@pytest.mark.parametrize("k,seed", CASES)
def test_checkers_match_the_loops(k, seed):
    space, sigma, rng = random_case(k, seed)
    block = indicator_block(space, sigma)
    verdicts = set()
    for name, rho in measures(space, sigma, rng).items():
        for kind, triples in triple_lists(space, rng).items():
            table = TripleTable(rho, triples)
            pairs = [
                (check_convexity(rho, triples=table),
                 ref_convexity(rho, triples)),
                (check_quasiconvexity(rho, triples=table),
                 ref_quasiconvexity(rho, triples)),
                (check_natural_quasiconvexity(rho, triples=table),
                 ref_nqc(rho, triples)),
                (check_star_quasiconvexity(rho, triples=table),
                 ref_star(rho, triples, rng=seed)),
            ]
            if k <= 4:  # the e-coordinates cost k inner products per output
                pairs += [
                    (check_nqc_wrt_preorder(rho, block, triples=triples,
                                            rng=seed),
                     ref_nqc_wrt_preorder(rho, block, triples, rng=seed)),
                    (check_convexity_wrt_preorder(rho, block, triples=table),
                     ref_convexity_wrt_preorder(rho, block, triples)),
                ]
                # convex implies nqc per triple, in e-coordinates too, so
                # the preorder convexity check fails no later
                nqc, conv = (new for new, _ in pairs[-2:])
                assert _first_fail(conv) <= _first_fail(nqc), (name, kind)
            for new, old in pairs:
                if new.prop == "star-quasiconvexity":
                    assert same_star(new, old), (name, kind)
                else:
                    assert repr(new) == repr(old), (name, kind, new.prop)
                verdicts.add((new.verdict, kind, new.samples > LATE))
    # both verdicts are exercised, and late failures too
    assert (CheckVerdict.PASS, "sampled", True) in verdicts
    assert (CheckVerdict.FAIL, "sampled", False) in verdicts
    assert (CheckVerdict.FAIL, "late", True) in verdicts


def _squared_gap_measure(sigma, space, atom, pair):
    """``-E[X|G]``, except ``-(X_i - X_j)^2`` on ``atom`` for the outcome
    ``pair = (i, j)``: not quasiconvex there, and equal at ``X`` and ``Y``
    whenever their gaps are opposite."""
    i, j = pair
    on_atom = sigma.labels == atom

    def fn(x):
        gap = -(x[..., i:i + 1] - x[..., j:j + 1]) ** 2
        out = -conditional_expectation(x, sigma, space)
        return np.where(on_atom, gap, out)

    return RiskMeasureOracle("squared-gap", fn, sigma, space)


def test_star_on_one_atom():
    """One atom has no edge points: the star check is the quasiconvexity
    check of the atom value, and matches the reference."""
    space, sigma, rng = random_case(1, 601)
    assert space.n > 1
    triples = sample_triples(space, rng, TRIPLES)
    seen = set()
    for rho in (neg_conditional_expectation(sigma, space),
                cubed_mean_map(sigma, space),
                entropic_certainty_equivalent(sigma, space),
                _squared_gap_measure(sigma, space, 0, (0, 1))):
        star = check_star_quasiconvexity(rho, triples=triples)
        assert same_star(star, ref_star(rho, triples))
        quasi = check_quasiconvexity(rho, triples=triples)
        assert (star.verdict, star.samples) == (quasi.verdict, quasi.samples)
        seen.add(star.verdict)
    assert seen == {CheckVerdict.PASS, CheckVerdict.FAIL}


@pytest.mark.parametrize("k,seed", [(2, 612), (3, 613), (8, 618)])
def test_equal_positions_have_no_edge_points(k, seed):
    """``X == Y``: every edge denominator is zero, so only the vertices
    remain; the star check passes as the reference does, and a mix that
    exceeds both risks is separated by its best vertex."""
    space, sigma, rng = random_case(k, seed)
    triples = [(x, x.copy(), lam)
               for x, _, lam in sample_triples(space, rng, 40)]
    for name, rho in measures(space, sigma, rng).items():
        star = check_star_quasiconvexity(rho, triples=triples)
        assert star.passed and same_star(star, ref_star(rho, triples)), name
    atom_probs = sigma.atom_probs(space)
    for _ in range(20):
        r = rng.normal(size=k)
        r_mix = r + rng.uniform(-0.5, 1.0, k)
        s, _ = _dual_values(r_mix - r, r_mix - r)
        assert (s[:k] == 1.0).all() and np.isnan(s[k:]).all()
        check_against_references(r, r.copy(), r_mix, atom_probs,
                                 DEFAULT_CHECK_TOL)


def test_vertex_tied_with_edge_points():
    """``r_x == r_y`` on atom 1: its edge points with the atoms before it
    sit at ``s = 0`` and those with the atoms after it at ``s = 1``, both on
    vertex 1, which is also the best candidate. The vertex comes first and
    is the witness, as in the reference."""
    sigma = PartitionSigma(((0,), (1, 2), (3, 4), (5,)))
    space = FiniteProbSpace((0.1, 0.2, 0.15, 0.25, 0.1, 0.2))
    rho = _squared_gap_measure(sigma, space, 1, (1, 2))
    x = np.array([0.3, 1.5, 0.5, -0.2, 0.7, 1.1])
    y = np.array([-0.4, 0.5, 1.5, 0.9, 0.2, -1.3])
    triples = [(x, y, 0.5)]
    r_x, r_y, r_mix = rho.atom_values(np.array([x, y, (x + y) / 2]))
    s, _ = _dual_values(r_mix - r_x, r_mix - r_y)
    assert r_x[1] == r_y[1] < r_mix[1]
    # after the 4 vertices, the pairs (0, 1), (1, 2) and (1, 3)
    assert s[[4, 7, 8]].tolist() == [0.0, 1.0, 1.0]
    star = check_star_quasiconvexity(rho, triples=triples)
    assert star.failed and same_star(star, ref_star(rho, triples))
    atom_probs = sigma.atom_probs(space)
    assert star.witness["z"] == [0.0, 1.0 / atom_probs[1], 0.0, 0.0]
    assert check_against_references(r_x, r_y, r_mix, atom_probs, TOL)
    z, _ = separating_dual_witness(r_x, r_y, r_mix, atom_probs)
    assert z.tolist() == star.witness["z"]


@pytest.mark.parametrize("k,seed", CASES)
def test_star_reads_each_triple_alone(k, seed):
    """A star check that fails within the first ``m`` triples reports the
    same on those ``m`` triples as on the whole table, bit for bit."""
    space, sigma, rng = random_case(k, seed)
    triples = sample_triples(space, rng, TRIPLES)
    failed = 0
    for name, rho in measures(space, sigma, rng).items():
        whole = check_star_quasiconvexity(rho, triples=triples)
        if whole.passed:
            continue
        failed += 1
        for m in (whole.samples, whole.samples + 1, len(triples) - 1):
            head = check_star_quasiconvexity(rho, triples=triples[:m])
            assert repr(head) == repr(whole), (name, m)
    assert failed


@pytest.mark.parametrize("k,seed", CASES)
def test_star_blocks_do_not_move_bits(k, seed, monkeypatch):
    """One triple per block, seven, and all triples in one block give the
    same star report, bit for bit."""
    space, sigma, rng = random_case(k, seed)
    candidates = k + k * (k - 1) // 2
    for name, rho in measures(space, sigma, rng).items():
        for kind, triples in triple_lists(space, rng).items():
            table = TripleTable(rho, triples)
            reports = set()
            for block in (1, 7 * candidates, 10 ** 9):
                monkeypatch.setattr(riskmeasure, "STAR_BLOCK", block)
                reports.add(repr(check_star_quasiconvexity(rho,
                                                           triples=table)))
            assert len(reports) == 1, (name, kind)


def test_star_memory_is_bounded_by_its_blocks():
    """At k = 40 (820 dual candidates per triple) and 200 triples, the
    star check on a read table peaks below 2 MB, on a pass and on a
    failure; deciding every triple at once peaked at 8.3 MB."""
    k = 40
    space = FiniteProbSpace.uniform(3 * k)
    sigma = PartitionSigma(tuple(tuple(range(3 * a, 3 * a + 3))
                                 for a in range(k)))
    triples = sample_triples(space, 0, 200)
    for make, passed in ((entropic_certainty_equivalent, True),
                         (cubed_mean_map, False)):
        rho = make(sigma, space)
        table = TripleTable(rho, triples)
        table.read()
        tracemalloc.start()
        try:
            rep = check_star_quasiconvexity(rho, triples=table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed is passed
        assert peak < 2e6, (make.__name__, peak)


def test_star_matches_the_loop_on_the_acceptance_fixture():
    """The acceptance suite's space, partition, triples and measures."""
    space = FiniteProbSpace.uniform(10)
    sigma = PartitionSigma.of(range(0, 4), range(4, 7), range(7, 10))
    triples = sample_triples(space, 2024, 200)
    for make in (neg_conditional_expectation, entropic_certainty_equivalent,
                 cubed_mean_map, sqrt_log_map):
        rho = make(sigma, space)
        assert same_star(check_star_quasiconvexity(rho, triples=triples),
                         ref_star(rho, triples)), make.__name__


@pytest.mark.parametrize("k,seed", CASES)
def test_stacked_call_matches_row_calls(k, seed):
    space, sigma, rng = random_case(k, seed)
    rows = np.vstack([rng.uniform(-3, 3, (9, sigma.n)),
                      rng.uniform(-40, 40, (2, sigma.n)),
                      np.zeros((1, sigma.n))])
    for name, rho in measures(space, sigma, rng).items():
        stacked = rho(rows)
        single = np.array([rho(row) for row in rows])
        assert stacked.shape == rows.shape
        assert stacked.tobytes() == single.tobytes(), name
        assert rho(rows[:0]).shape == (0, sigma.n)


def test_stacked_conditional_expectation_is_c_contiguous():
    """Stacked rows come back row-major, so a reduction over one row reads
    it as the row's own call does (a strided row can resolve a max of 0.0
    and -0.0 the other way)."""
    space, sigma, rng = random_case(5, 505)
    rows = rng.uniform(-3, 3, (5, sigma.n))
    got = conditional_expectation(rows, sigma, space)
    assert got.flags.c_contiguous
    single = [conditional_expectation(row, sigma, space) for row in rows]
    assert got.tobytes() == np.array(single).tobytes()


def test_stack_labels_are_kept_for_the_largest_stack():
    """The offset labels of a stack are built once and kept; a smaller
    stack reads their prefix, a larger one rebuilds them, and every row
    gets its own call's bits throughout."""
    space, sigma, rng = random_case(5, 506)
    rows = rng.uniform(-3, 3, (12, sigma.n))
    single = np.array([conditional_expectation(row, sigma, space)
                       for row in rows])
    for m in (7, 3, 7, 12, 1):
        got = conditional_expectation(rows[:m], sigma, space)
        assert got.tobytes() == single[:m].tobytes(), m
    kept = sigma._stacked[0]
    assert kept.tolist() == [a + sigma.k * r for r in range(12)
                             for a in sigma.labels]
    conditional_expectation(rows[:4], sigma, space)
    assert sigma._stacked[0] is kept


def _marked_measure(sigma, space):
    """``-E[X|G]``, except that a row whose first outcome exceeds 100
    returns itself (not measurable), and beyond 1000 with a NaN first."""
    first = np.arange(sigma.n) == 0

    def fn(x):
        out = -conditional_expectation(x, sigma, space)
        mark = x[..., :1]
        return np.where(mark > 100, np.where(first & (mark > 1000), np.nan, x),
                        out)

    return RiskMeasureOracle("marked", fn, sigma, space)


def _raised(call):
    try:
        call()
    except Exception as e:  # the error itself is the result
        return type(e), str(e), vars(e)
    return None


def test_first_bad_row_raises_its_own_error():
    space, sigma, rng = random_case(5, 7)
    rho = _marked_measure(sigma, space)
    rows = rng.uniform(-3, 3, (6, sigma.n))
    rows[2, 0], rows[3, 0], rows[4, 0] = 500.0, 200.0, 5000.0
    for stop in (3, 4, 5, 6):
        expected = _raised(lambda: rho(rows[2]))
        assert expected[0] is NotGMeasurableError
        assert _raised(lambda: rho(rows[:stop])) == expected
    rows[2, 0] = 5000.0  # NaN in a row that is not measurable either
    assert rho.sigma.measurability_spread(np.nan_to_num(rho.fn(rows[2])))[0] > 1
    assert _raised(lambda: rho(rows)) == _raised(lambda: rho(rows[2]))
    assert _raised(lambda: rho(rows))[0] is ValueError
    assert _raised(lambda: rho(rows[:2])) is None


def test_bad_triple_raises_when_read():
    """Reading up to the bad triple works; reading it raises what the
    per-triple calls raise, for every checker that reads it."""
    space, sigma, _ = random_case(6, 11)
    rho = cubed_mean_map(sigma, space)
    marked = _marked_measure(sigma, space)
    triples = sample_triples(space, 3, 150)
    x, y, lam = triples[100]
    triples[100] = (x, np.concatenate([[300.0], y[1:]]), lam)
    bad = RiskMeasureOracle("marked-cubed", lambda v: np.where(
        v[..., :1] > 100, v, rho.fn(v)), sigma, space)
    table = TripleTable(bad, triples)
    # convexity fails well before triple 101 and does not see it
    assert repr(check_convexity(bad, triples=table)) == repr(
        ref_convexity(bad, triples))
    expected = _raised(lambda: ref_quasiconvexity(bad, triples))
    assert expected[0] is NotGMeasurableError
    assert _raised(lambda: check_quasiconvexity(bad, triples=table)) == expected
    assert _filled(table) == 100
    # star fails before triple 101, from the partly filled table
    assert same_star(check_star_quasiconvexity(bad, triples=table),
                     ref_star(bad, triples))
    # on a convex measure every check reaches the bad triple and raises
    convex = RiskMeasureOracle("marked-neg-cond-exp", lambda v: np.where(
        v[..., :1] > 100, v, -conditional_expectation(v, sigma, space)),
        sigma, space)
    table = TripleTable(convex, triples)
    for check, ref in ((check_convexity, ref_convexity),
                       (check_quasiconvexity, ref_quasiconvexity),
                       (check_natural_quasiconvexity, ref_nqc),
                       (check_star_quasiconvexity, ref_star)):
        expected = _raised(lambda: ref(convex, triples))
        assert expected[0] is NotGMeasurableError
        assert _raised(lambda: check(convex, triples=table)) == expected
    # blocks of one triple: the error surfaces after the last block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(riskmeasure, "STAR_BLOCK", 1)
        table = TripleTable(convex, triples)
        assert _raised(lambda: check_star_quasiconvexity(
            convex, triples=table)) == _raised(lambda: ref_star(convex,
                                                                triples))
        assert same_star(check_star_quasiconvexity(bad, triples=triples),
                         ref_star(bad, triples))
    # a measure that is bad on every X is bad at the first row
    assert _raised(lambda: check_convexity(marked, triples=[
        (np.full(sigma.n, 2000.0), y, lam)]))[0] is ValueError


def _filled(table: TripleTable) -> int:
    """The number of triples the table has evaluated so far: those without
    a NaN row."""
    if table._read is None:
        return 0
    return int((~np.isnan(table._read[0]).any(axis=(1, 2))).sum())


def _counted(rho):
    """``rho`` with a list of the rows of each oracle call."""
    calls = []

    def fn(x):
        calls.append(x.size // rho.sigma.n)
        return rho.fn(x)

    return RiskMeasureOracle("counted", fn, rho.sigma, rho.space), calls


def test_each_check_makes_one_oracle_call():
    """At k = 10 and budget 200, monotonicity, translativity, a locality
    round and the triple table each make one stacked oracle call, also when
    a check fails early; a table that no check reads makes none."""
    space, sigma, _ = random_case(10, 3)
    rho, calls = _counted(cubed_mean_map(sigma, space))
    for check in (check_monotonicity, check_translativity, check_locality):
        calls.clear()
        check(rho, budget=200)
        assert len(calls) == 1, check.__name__
    assert calls == [2 + 2 * 200 - 1]  # X, U, 200 events, 199 two-sided
    calls.clear()
    table = TripleTable(rho, sample_triples(space, 0, 200))
    assert calls == [] and _filled(table) == 0
    reports = [check(rho, triples=table) for check in (
        check_convexity, check_quasiconvexity, check_natural_quasiconvexity,
        check_star_quasiconvexity)]
    # convexity fails early, and the table is still read whole, once
    assert reports[0].failed and reports[0].samples < 10
    assert calls == [3 * 200] and _filled(table) == 200


def test_table_of_another_measure_is_refused():
    space, sigma, _ = random_case(3, 1)
    triples = sample_triples(space, 0, 5)
    table = TripleTable(cubed_mean_map(sigma, space), triples)
    with pytest.raises(ValueError, match="another measure"):
        check_convexity(neg_conditional_expectation(sigma, space),
                        triples=table)


def ref_sample_triples(space, rng, count):
    gen = np.random.default_rng(rng)
    lam_grid = np.array([0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875])
    out = []
    for _ in range(count):
        x = gen.uniform(-3.0, 3.0, space.n)
        y = gen.uniform(-3.0, 3.0, space.n)
        out.append((x, y, float(gen.choice(lam_grid))))
    return out


def test_lambda_draw_keeps_the_stream():
    space = FiniteProbSpace.uniform(7)
    for seed in range(10):
        new = sample_triples(space, seed, 60)
        old = ref_sample_triples(space, seed, 60)
        assert repr(new) == repr(old)
        assert all(type(lam) is float for _, _, lam in new)
