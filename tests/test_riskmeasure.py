import math
import time

import numpy as np
import pytest

from qcx.errors import (InverseMismatchError, NotGMeasurableError,
                        NotNormalizedError)
from qcx.riskmeasure import (
    FiniteProbSpace, PartitionSigma, RiskMeasureOracle, blind_spot_map,
    certainty_equivalent, check_assumption_nonconstant, check_convexity,
    check_locality, check_monotonicity, check_natural_quasiconvexity,
    check_quasiconvexity, check_sensitivity, check_star_quasiconvexity,
    check_translativity, conditional_expectation, cubed_mean_map,
    entropic_certainty_equivalent, infeasibility_depth, load_partition,
    load_scenario_table, mean_broadcast_map, neg_conditional_expectation,
    nqc_mu_interval, parse_partition_text, sample_triples,
    separating_dual_witness, sqrt_log_map)
from qcx.riskmeasure import _sampled_events


@pytest.fixture
def space10():
    return FiniteProbSpace.uniform(10)


@pytest.fixture
def sigma10():
    return PartitionSigma.of(range(0, 4), range(4, 7), range(7, 10))


@pytest.fixture
def triples(space10):
    return sample_triples(space10, 7, 120)


class TestSpaces:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteProbSpace((0.5, 0.6))
        with pytest.raises(ValueError):
            FiniteProbSpace((1.0, 0.0))

    def test_inner_product(self, space10):
        x = np.arange(10.0)
        assert space10.expectation(x) == pytest.approx(4.5)
        assert space10.inner(x, np.ones(10)) == pytest.approx(4.5)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            PartitionSigma.of((0, 1), (1, 2))
        with pytest.raises(ValueError):
            PartitionSigma.of((0, 1), (3,))

    def test_atom_probs(self, space10, sigma10):
        np.testing.assert_allclose(sigma10.atom_probs(space10), [0.4, 0.3, 0.3])

    def test_measurability(self, sigma10):
        x = sigma10.from_atom_values([1.0, 2.0, 3.0])
        assert sigma10.is_measurable(x)
        x[0] += 1e-3
        assert not sigma10.is_measurable(x)

    def test_refines(self, sigma10):
        fine = PartitionSigma.of((0, 1), (2, 3), (4, 5, 6), (7, 8, 9))
        assert fine.refines(sigma10)
        assert not sigma10.refines(fine)


class TestConditionalExpectation:
    def test_atom_means(self, space10, sigma10):
        x = np.arange(1.0, 11.0)
        got = conditional_expectation(x, sigma10, space10)
        want = np.array([2.5] * 4 + [6.0] * 3 + [9.0] * 3)
        np.testing.assert_allclose(got, want)

    def test_measurable_fixed_point(self, space10, sigma10):
        x = sigma10.from_atom_values([3.0, -1.0, 2.0])
        np.testing.assert_allclose(
            conditional_expectation(x, sigma10, space10), x)

    def test_trivial_sigma_centered(self, space10):
        x = np.arange(10.0) - 4.5
        got = conditional_expectation(x, PartitionSigma.trivial(10), space10)
        np.testing.assert_allclose(got, np.zeros(10), atol=1e-12)


class TestCertaintyEquivalent:
    def test_constant_position(self, space10, sigma10):
        rho = entropic_certainty_equivalent(sigma10, space10)
        out = rho(np.full(10, 1.7))
        np.testing.assert_allclose(out, np.full(10, -1.7), atol=1e-12)

    def test_identity_loss_is_neg_condexp(self, space10, sigma10):
        rho = certainty_equivalent(lambda t: t, lambda t: t, sigma10, space10)
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 3, 10)
        want = -conditional_expectation(x, sigma10, space10)
        np.testing.assert_allclose(rho(x), want, atol=1e-12)

    def test_exponential_two_point(self):
        space = FiniteProbSpace.uniform(2)
        sigma = PartitionSigma.trivial(2)
        rho = entropic_certainty_equivalent(sigma, space)
        x = np.array([0.0, -math.log(2.0)])
        np.testing.assert_allclose(rho(x), np.full(2, math.log(1.5)))

    def test_inverse_mismatch(self, space10, sigma10):
        with pytest.raises(InverseMismatchError):
            certainty_equivalent(np.exp, lambda t: t, sigma10, space10)


class TestOracleMeasurability:
    def test_not_measurable_names_atom(self, space10, sigma10):
        bad = RiskMeasureOracle("bad", lambda x: x, sigma10, space10)
        with pytest.raises(NotGMeasurableError) as exc:
            bad(np.arange(10.0))
        assert exc.value.atom_index == 0

    def test_nan_rejected(self, space10, sigma10):
        bad = RiskMeasureOracle("nan", lambda x: np.full(10, np.nan),
                                sigma10, space10)
        with pytest.raises(ValueError):
            bad(np.zeros(10))


class TestElementaryChecks:
    def test_monotonicity(self, space10, sigma10):
        assert check_monotonicity(neg_conditional_expectation(sigma10, space10)).passed
        assert check_monotonicity(entropic_certainty_equivalent(sigma10, space10)).passed
        wrong_sign = RiskMeasureOracle(
            "posmean", lambda x: conditional_expectation(x, sigma10, space10),
            sigma10, space10)
        rep = check_monotonicity(wrong_sign)
        assert rep.failed and rep.witness["violation"] > 0
        assert rep.samples == 1  # the first sample already fails

    def test_translativity(self, space10, sigma10):
        assert check_translativity(neg_conditional_expectation(sigma10, space10)).passed
        assert check_translativity(entropic_certainty_equivalent(sigma10, space10)).passed
        rep = check_translativity(cubed_mean_map(sigma10, space10))
        assert rep.failed and rep.samples == 1

    def test_locality(self, space10, sigma10):
        rep = check_locality(neg_conditional_expectation(sigma10, space10))
        assert rep.passed
        assert rep.samples == 7 * (200 // 7)  # every union, in 28 rounds
        assert check_locality(sqrt_log_map(sigma10, space10)).passed
        rep = check_locality(mean_broadcast_map(sigma10, space10))
        assert rep.failed and rep.samples == 1

    def test_locality_budget_bounds_oracle_calls(self):
        """Beyond the budget, unions are sampled instead of enumerated."""
        k = 14
        space = FiniteProbSpace.uniform(2 * k)
        sigma = PartitionSigma.of(*[(2 * i, 2 * i + 1) for i in range(k)])
        rho = entropic_certainty_equivalent(sigma, space)
        calls = 0
        fn = rho.fn

        def counted(x):
            nonlocal calls
            calls += 1
            return fn(x)

        rho.fn = counted
        start = time.perf_counter()
        rep = check_locality(rho, budget=200)
        elapsed = time.perf_counter() - start
        assert rep.passed and rep.samples == 200
        assert calls <= 2 * 200 + 2
        assert elapsed < 1.0

    def test_locality_sampled_events(self):
        """Atoms, complements and the whole space come first, all distinct."""
        k = 8
        events = _sampled_events(k, 100, np.random.default_rng(0))
        assert len(events) == len(set(events)) == 100
        assert events[:k] == [(a,) for a in range(k)]
        assert [set(range(k)) - set(ev) for ev in events[k:2 * k]] == \
            [{a} for a in range(k)]
        assert events[2 * k] == tuple(range(k))
        assert all(ev and ev == tuple(sorted(ev)) for ev in events)
        # fewer unions than structural events: each is listed once
        assert sorted(_sampled_events(2, 2, np.random.default_rng(0))) == \
            [(0,), (0, 1), (1,)]

    def test_convexity(self, space10, sigma10, triples):
        assert check_convexity(entropic_certainty_equivalent(sigma10, space10),
                               triples=triples).passed
        assert check_convexity(sqrt_log_map(sigma10, space10),
                               triples=triples).failed

    def test_quasiconvexity(self, space10, sigma10, triples):
        for make in (neg_conditional_expectation, entropic_certainty_equivalent,
                     cubed_mean_map, sqrt_log_map):
            assert check_quasiconvexity(make(sigma10, space10),
                                        triples=triples).passed


class TestMuInterval:
    def test_vacuous(self):
        z = np.zeros(2)
        assert nqc_mu_interval(z, z, z) == (0.0, 1.0)

    def test_symmetric_midpoint(self):
        iv = nqc_mu_interval(np.array([2.0, 0.0]), np.array([0.0, 2.0]),
                             np.array([1.0, 1.0]))
        assert iv is not None
        lo, hi = iv
        assert lo == pytest.approx(0.5, abs=1e-5)
        assert hi == pytest.approx(0.5, abs=1e-5)

    def test_contradictory(self):
        iv = nqc_mu_interval(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                             np.array([0.9, 0.9]))
        assert iv is None

    def test_returned_mu_satisfies_constraints(self):
        rng = np.random.default_rng(3)
        feasible = infeasible = 0
        for _ in range(300):
            rx, ry, rm = rng.normal(size=(3, 4))
            tol = 1e-6
            iv = nqc_mu_interval(rx, ry, rm, tol)
            if iv is None:
                assert infeasibility_depth(rx, ry, rm) > tol
                infeasible += 1
                continue
            for mu in iv:
                mu = min(max(mu, 0.0), 1.0)
                viol = rm - (mu * rx + (1 - mu) * ry)
                assert viol.max() <= tol + 1e-12
            feasible += 1
        assert feasible > 30 and infeasible > 30


class TestSeparatingDual:
    def test_symmetric_example(self):
        pa = np.array([0.5, 0.5])
        got = separating_dual_witness(np.array([1.0, 0.0]),
                                      np.array([0.0, 1.0]),
                                      np.array([0.9, 0.9]), pa)
        assert got is not None
        z, margin = got
        assert margin == pytest.approx(0.4, abs=1e-9)
        assert (z >= 0).all()
        assert float(np.dot(pa, z)) == pytest.approx(1.0)

    def test_precondition_dominated(self):
        pa = np.array([0.5, 0.5])
        # r_mix <= r_x componentwise: feasible at mu = 1
        assert separating_dual_witness(np.array([1.0, 1.0]),
                                       np.array([5.0, 5.0]),
                                       np.array([0.5, 0.5]), pa) is None

    def test_precondition_midpoint_feasible(self):
        pa = np.array([0.5, 0.5])
        assert separating_dual_witness(np.array([2.0, 0.0]),
                                       np.array([0.0, 2.0]),
                                       np.array([1.0, 1.0]), pa) is None

    def test_margin_matches_depth(self):
        rng = np.random.default_rng(5)
        pa = np.array([0.4, 0.3, 0.3])
        found = 0
        for _ in range(200):
            rx, ry, rm = rng.normal(size=(3, 3))
            if nqc_mu_interval(rx, ry, rm) is None:
                depth = infeasibility_depth(rx, ry, rm)
                z, margin = separating_dual_witness(rx, ry, rm, pa)
                assert margin == pytest.approx(depth, rel=1e-9, abs=1e-12)
                found += 1
        assert found > 20


class TestNQCAndStar:
    def test_verdicts(self, space10, sigma10, triples):
        expectations = {
            neg_conditional_expectation: True,
            entropic_certainty_equivalent: True,
            cubed_mean_map: False,
            sqrt_log_map: False,
        }
        for make, should_pass in expectations.items():
            rho = make(sigma10, space10)
            nqc = check_natural_quasiconvexity(rho, triples=triples)
            star = check_star_quasiconvexity(rho, triples=triples)
            assert nqc.passed == should_pass
            assert star.passed == should_pass
            if nqc.failed:
                assert nqc.witness["separating_margin"] > 1e-6
                cert = nqc.witness["certificate"]
                assert cert["kind"] in ("single-atom", "contradictory-pair")

    def test_per_triple_duality(self, space10, sigma10, triples):
        """Feasibility and scalarization quasiconvexity agree per triple."""
        tol = 1e-6
        for make in (cubed_mean_map, sqrt_log_map,
                     entropic_certainty_equivalent):
            rho = make(sigma10, space10)
            for x, y, lam in triples[:60]:
                rx = rho.atom_values(x)
                ry = rho.atom_values(y)
                rm = rho.atom_values(lam * x + (1 - lam) * y)
                empty = nqc_mu_interval(rx, ry, rm, tol) is None
                assert empty == (infeasibility_depth(rx, ry, rm) > tol)

    def test_star_witness_replays(self, space10, sigma10, triples):
        rho = sqrt_log_map(sigma10, space10)
        rep = check_star_quasiconvexity(rho, triples=triples)
        w = rep.witness
        z = np.array(w["z"])
        pa = sigma10.atom_probs(space10)
        x, y, lam = np.array(w["x"]), np.array(w["y"]), w["lam"]
        s = lambda v: float(np.dot(pa * z, rho.atom_values(v)))
        mix = lam * x + (1 - lam) * y
        assert s(mix) > max(s(x), s(y)) + rep.tol

    @pytest.mark.parametrize("make", [cubed_mean_map, sqrt_log_map])
    def test_star_violation_replays_on_a_weighted_space(self, make):
        """Six unequal atoms: the reported violation is the witness dual's
        probability-weighted scalarization gap, kink candidates included."""
        rng = np.random.default_rng(11)
        raw = rng.uniform(1.0, 3.0, 18)
        space = FiniteProbSpace(tuple(raw / raw.sum()))
        sigma = PartitionSigma.of(*(range(3 * a, 3 * a + 3) for a in range(6)))
        rho = make(sigma, space)
        rep = check_star_quasiconvexity(rho, budget_z=64,
                                        triples=sample_triples(space, 3, 200))
        assert rep.failed
        w = rep.witness
        weights = sigma.atom_probs(space) * np.array(w["z"])
        x, y, lam = np.array(w["x"]), np.array(w["y"]), w["lam"]
        s = lambda v: float(weights @ rho.atom_values(v))
        gap = s(lam * x + (1 - lam) * y) - max(s(x), s(y))
        assert gap == pytest.approx(w["violation"], rel=1e-9, abs=1e-12)


class TestSensitivityAndAssumption:
    def test_pass_cases(self, space10, sigma10):
        assert check_sensitivity(entropic_certainty_equivalent(sigma10, space10)).passed
        assert check_sensitivity(neg_conditional_expectation(sigma10, space10)).passed

    def test_blind_spot_fails_inside_ignored_atom(self, space10, sigma10):
        rep = check_sensitivity(blind_spot_map(sigma10, space10, ignored_atom=0))
        assert rep.failed
        assert set(rep.witness["event"]) <= set(sigma10.atoms[0])

    def test_normalization_required(self, space10, sigma10):
        with pytest.raises(NotNormalizedError):
            check_sensitivity(sqrt_log_map(sigma10, space10))

    def test_assumption(self, space10, sigma10):
        rep = check_assumption_nonconstant(
            entropic_certainty_equivalent(sigma10, space10))
        assert rep.passed and rep.samples == 3  # one probe per atom
        assert check_assumption_nonconstant(
            neg_conditional_expectation(sigma10, space10)).passed
        zero = RiskMeasureOracle("zero", lambda x: np.zeros(10), sigma10, space10)
        rep = check_assumption_nonconstant(zero)
        assert rep.failed and rep.witness["atom"] == 0
        assert rep.samples == 16  # the whole budget of atom 0


class TestFileFormats:
    def test_scenario_roundtrip(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("# prob label\n0.5 up\n0.25 mid\n0.25 down\n")
        space, labels = load_scenario_table(path)
        assert space.probs == (0.5, 0.25, 0.25)
        assert labels == ["up", "mid", "down"]

    def test_partition_file(self, tmp_path):
        path = tmp_path / "partition.txt"
        path.write_text("1-4\n5 6 7\n8-10\n")
        sigma = load_partition(path)
        assert sigma.atoms == ((0, 1, 2, 3), (4, 5, 6), (7, 8, 9))

    def test_partition_text(self):
        sigma = parse_partition_text("1-4; 5-7; 8-10")
        assert sigma.atoms == ((0, 1, 2, 3), (4, 5, 6), (7, 8, 9))


class TestImplicationChain:
    def test_convex_implies_nqc_implies_quasiconvex(self, space10, sigma10, triples):
        """Verdict implications on shared samples for the suite measures."""
        for make in (neg_conditional_expectation, entropic_certainty_equivalent,
                     cubed_mean_map, sqrt_log_map, mean_broadcast_map):
            rho = make(sigma10, space10)
            conv = check_convexity(rho, triples=triples).passed
            nqc = check_natural_quasiconvexity(rho, triples=triples).passed
            qc = check_quasiconvexity(rho, triples=triples).passed
            if conv:
                assert nqc
            if nqc:
                assert qc

    def test_nqc_implies_convexity_for_local_suite(self, space10, sigma10, triples):
        """Local measures passing the hypotheses: NQC pass forces convex pass."""
        for make in (neg_conditional_expectation, entropic_certainty_equivalent,
                     cubed_mean_map, sqrt_log_map):
            rho = make(sigma10, space10)
            if not check_locality(rho, budget=40).passed:
                continue
            if not check_assumption_nonconstant(rho).passed:
                continue
            if check_natural_quasiconvexity(rho, triples=triples).passed:
                assert check_convexity(rho, triples=triples).passed
