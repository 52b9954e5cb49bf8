import copy
import math

import numpy as np
import pytest

from qcx.errors import AssumptionViolatedError, RankDeficientError
from qcx.l2basis import (BlockStructure, blocks_from_generators,
                         build_example_10pt, build_example_10pt_split,
                         check_basis_locality, check_cone_self_dual,
                         check_convexity_wrt_preorder, check_nqc_wrt_preorder,
                         CONE_TOL, cone_leq, gram_schmidt,
                         project_G_complement, refined_partition_10pt)
from qcx.riskmeasure import (CheckVerdict, RiskMeasureOracle, check_locality,
                             check_natural_quasiconvexity,
                             conditional_expectation_map,
                             entropic_certainty_equivalent, mean_broadcast_map,
                             neg_conditional_expectation, sample_triples,
                             sqrt_log_map)
from qcx.spaces import FiniteProbSpace, PartitionSigma, conditional_expectation


@pytest.fixture(scope="module")
def block():
    return build_example_10pt()


@pytest.fixture(scope="module")
def triples(block):
    return sample_triples(block.space, 11, 150)


def ref_cone_self_dual(block, budget=200, rng=0):
    """The sampled cone check the exact one replaced, kept as an oracle:
    ``(verdict, kind)``, where ``kind`` is the inclusion a failing sample
    refutes. Pairs of nonnegative-coordinate samples must have inner
    products of at least ``-CONE_TOL``; a sample with one negative
    coordinate must be excluded from the dual by that e-vector."""
    gen = np.random.default_rng(rng)
    k, es = block.k, block.basis[:block.k]
    for _ in range(budget):
        y_coords, v_coords = gen.uniform(0.0, 3.0, (2, k))
        if block.space.inner(y_coords @ es, v_coords @ es) < -CONE_TOL:
            return CheckVerdict.FAIL, "cone-in-dual"
        neg_coords = gen.uniform(0.0, 3.0, k)
        j = int(gen.integers(0, k))
        neg_coords[j] = -gen.uniform(0.5, 2.0)
        if block.space.inner(neg_coords @ es, es[j]) >= 0.0:
            return CheckVerdict.FAIL, "dual-in-cone"
    return CheckVerdict.PASS, None


def skewed(block, off):
    """``block`` with its second e-vector ``e_1`` replaced by ``e_1 + off
    e_0``, which puts ``off`` at (0, 1) and (1, 0) of the e-Gram matrix and
    ``1 + off^2`` at (1, 1). No constructor would accept it."""
    basis = block.basis.copy()
    basis[1] += off * basis[0]
    out = copy.copy(block)
    object.__setattr__(out, "basis", basis)
    return out


def ref_coordinates(block, x):
    """The coordinates one inner product per basis vector, as they were
    computed before the row-wise kernel."""
    return np.array([block.space.inner(x, v) for v in block.basis])


class TestGramSchmidt:
    def test_two_point_example(self):
        space = FiniteProbSpace.uniform(2)
        out = gram_schmidt([np.array([1.0, 1.0]), np.array([1.0, 0.0])], space)
        np.testing.assert_allclose(out[0], [1.0, 1.0])
        np.testing.assert_allclose(np.abs(out[1]), [1.0, 1.0])
        assert out[1][0] * out[1][1] < 0  # the (1, -1) direction
        assert abs(space.inner(out[0], out[1])) <= 1e-12

    def test_orthonormal_input_unchanged(self):
        space = FiniteProbSpace.uniform(4)
        v1 = np.array([1.0, 1.0, -1.0, -1.0])
        v2 = np.array([1.0, -1.0, 1.0, -1.0])
        out = gram_schmidt([v1, v2], space)
        np.testing.assert_allclose(out[0], v1, atol=1e-12)
        np.testing.assert_allclose(out[1], v2, atol=1e-12)

    def test_ten_point_generators(self):
        space = FiniteProbSpace.uniform(10)
        b1 = np.array([1, 1, -1, -1, 0, 0, 0, 0, 0, 0], dtype=float)
        b2 = np.array([1, -1, 1, -1, 0, 0, 0, 0, 0, 0], dtype=float)
        out = gram_schmidt([b1, b2], space)
        # uniform weights: ||b|| = sqrt(0.4), normalization factor sqrt(10)/2
        np.testing.assert_allclose(out[0], b1 * math.sqrt(10) / 2)
        np.testing.assert_allclose(out[1], b2 * math.sqrt(10) / 2)
        assert abs(space.inner(out[0], out[1])) <= 1e-12

    def test_rank_deficient(self):
        space = FiniteProbSpace.uniform(3)
        with pytest.raises(RankDeficientError) as exc:
            gram_schmidt([np.array([1.0, 0.0, 0.0]),
                          np.array([2.0, 0.0, 0.0])], space)
        assert exc.value.index == 1


class TestExampleStructure:
    def test_sigma_is_built_once(self, block):
        assert block.sigma() is block.sigma()
        assert block.sigma().atoms == block.cells

    def test_dimensions(self, block):
        assert block.e_dims == (1, 1, 1)
        assert block.basis.shape == (10, 10)
        # the e-vectors cell by cell, then the beta-vectors cell by cell
        assert block.row_cells.tolist() == [0, 1, 2] + [0] * 3 + [1] * 2 + [2] * 2

    def test_e_vectors_are_normalized_indicators(self, block):
        e1 = block.basis[0]
        want = np.zeros(10)
        want[:4] = 1.0 / math.sqrt(0.4)
        np.testing.assert_allclose(e1, want)

    def test_orthonormality_residual(self, block):
        vecs = block.basis
        gram = np.array([[block.space.inner(a, b) for b in vecs] for a in vecs])
        assert np.abs(gram - np.eye(10)).max() < 1e-12
        assert block.ortho_residual == pytest.approx(
            np.abs(gram - np.eye(10)).max(), abs=1e-15)

    def test_pythagoras(self, block):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.normal(size=10)
            coeffs = block.coordinates(x)
            assert abs(block.space.inner(x, x) - np.sum(coeffs ** 2)) < 1e-10

    def test_structure_validation(self):
        space = FiniteProbSpace.uniform(4)
        r2 = math.sqrt(2.0)
        e = ((np.array([r2, r2, 0, 0]),), (np.array([0, 0, r2, r2]),))
        beta = ((np.array([r2, -r2, 0, 0]),), (np.array([0, 0, r2, -r2]),))
        good = BlockStructure(space, ((0, 1), (2, 3)), e, beta)
        assert good.e_dims == (1, 1)
        assert good.row_cells.tolist() == [0, 1, 0, 1]
        bad = [
            # a cell short of a vector
            (((0, 1), (2, 3)), e, (beta[0], ()), "must be 4 x 4"),
            # cells that leave outcomes 2 and 3 out: a 2 x 4 basis
            (((0, 1),), e[:1], beta[:1], "must be 4 x 4"),
            # a vector that leaks out of its cell
            (((0, 1), (2, 3)), e, ((np.array([r2, -r2, 1e-6, 0]),), beta[1]),
             "vector 2 does not vanish outside cell 0"),
            # two cells swapped: each vector lives outside its cell
            (((0, 1), (2, 3)), e[::-1], beta[::-1], "does not vanish"),
            (((0, 1), (2, 3)), e, ((2 * beta[0][0],), beta[1]),
             "not orthonormal"),
            (((0, 1), (2, 3)), e[:1], beta, "align"),
        ]
        for cells, e_blocks, beta_blocks, why in bad:
            with pytest.raises(ValueError, match=why):
                BlockStructure(space, cells, e_blocks, beta_blocks)

    def test_coordinates_match_the_inner_products(self, block):
        split = build_example_10pt_split()
        rng = np.random.default_rng(3)
        for b in (block, split):
            for x in rng.normal(size=(50, 10)):
                np.testing.assert_allclose(b.coordinates(x),
                                           ref_coordinates(b, x),
                                           rtol=0, atol=1e-14)
        for x in rng.normal(size=(50, 10)):
            np.testing.assert_array_equal(block.e_coordinates(x),
                                          block.coordinates(x)[:3])

    def test_coordinates_are_row_wise(self, block):
        """A row alone and the same row in a stack get the same bits."""
        stack = np.random.default_rng(4).uniform(-3.0, 3.0, (6, 5, 10))
        for kernel in (block.coordinates, block.e_coordinates):
            whole = kernel(stack)
            flat = kernel(stack.reshape(-1, 10)).reshape(whole.shape)
            assert whole.tobytes() == flat.tobytes()
            for idx in np.ndindex(stack.shape[:2]):
                assert kernel(stack[idx]).tobytes() == whole[idx].tobytes()


class TestProjection:
    def test_measurable_maps_to_zero(self, block):
        sigma = block.sigma()
        x = sigma.from_atom_values([1.0, -2.0, 0.5])
        got = project_G_complement(x, sigma, block.space)
        np.testing.assert_allclose(got, np.zeros(10), atol=1e-12)

    def test_two_point_trivial(self):
        space = FiniteProbSpace.uniform(2)
        got = project_G_complement(np.array([1.0, -1.0]),
                                   PartitionSigma.of(range(2)), space)
        np.testing.assert_allclose(got, [1.0, -1.0])

    def test_ten_point_pattern(self, block):
        x = np.arange(1.0, 11.0)
        got = project_G_complement(x, block.sigma(), block.space)
        want = x - np.array([2.5] * 4 + [6.0] * 3 + [9.0] * 3)
        np.testing.assert_allclose(got, want, atol=1e-12)
        for e in block.basis[:3]:
            assert abs(block.space.inner(got, e)) < 1e-12


class TestBasisLocality:
    def test_condexp_passes(self, block):
        rho = neg_conditional_expectation(block.sigma(), block.space)
        rep = check_basis_locality(rho, block, budget=120)
        assert rep.passed and rep.samples == 120  # 40 rounds of 3 e-vectors

    def test_mean_broadcast_fails(self, block):
        rho = mean_broadcast_map(block.sigma(), block.space)
        rep = check_basis_locality(rho, block, budget=120)
        assert rep.failed and rep.samples == 1
        assert rep.witness["violation"] > rep.tol

    def test_e_coordinate_projection_map_passes(self, block):
        es = block.basis[:3]

        def fn(x):
            return -sum(block.space.inner(x, e) * e for e in es)

        rho = RiskMeasureOracle("neg-e-projection", fn, block.sigma(),
                                block.space)
        assert check_basis_locality(rho, block, budget=120).passed

    def test_classical_implies_basis_locality(self, block):
        for make in (neg_conditional_expectation, entropic_certainty_equivalent,
                     sqrt_log_map):
            rho = make(block.sigma(), block.space)
            assert check_locality(rho, budget=60).passed
            assert check_basis_locality(rho, block, budget=60).passed

    def test_equivalence_when_cells_generate(self, block):
        # G = sigma(cells): the two notions agree on the suite
        for make, local in ((neg_conditional_expectation, True),
                            (mean_broadcast_map, False)):
            rho = make(block.sigma(), block.space)
            assert check_locality(rho, budget=60).passed is local
            assert check_basis_locality(rho, block, budget=60).passed is local


class TestSplitFixture:
    def test_basis_local_but_not_local(self):
        split = build_example_10pt_split()
        refined = refined_partition_10pt()
        rho = conditional_expectation_map(PartitionSigma(split.cells),
                                          split.space, declared_sigma=refined)
        assert split.e_dims == (2, 1, 1)
        rep = check_basis_locality(rho, split, budget=120)
        assert rep.passed and rep.samples == 30 * 4  # one per e-vector
        rep = check_locality(rho, budget=120)
        assert rep.failed
        # the violating event lives inside the split cell
        assert set(rep.witness["event_atoms"]) <= {0, 1}

    def test_budget_bounds_the_comparisons(self):
        """A round compares one coordinate per e-vector, four here, and the
        rounds stop before the comparisons pass the budget."""
        split = build_example_10pt_split()
        rho = neg_conditional_expectation(split.sigma(), split.space)
        for budget in (24, 60, 61, 63, 120, 500):
            rep = check_basis_locality(rho, split, budget=budget)
            assert rep.passed and budget - 4 < rep.samples <= budget
        # at least one round
        assert check_basis_locality(rho, split, budget=2).samples == 4

    def test_e_coordinates_require_one_dim(self):
        split = build_example_10pt_split()
        with pytest.raises(AssumptionViolatedError):
            split.e_coordinates(np.zeros(10))


class TestCone:
    def test_cone_leq(self, block):
        rng = np.random.default_rng(1)
        y = rng.normal(size=10)
        e1 = block.basis[0]
        assert cone_leq(y, y, block)
        assert cone_leq(y, y + e1, block)
        assert not cone_leq(y, y - e1, block)

    def test_self_dual(self, block):
        rep = check_cone_self_dual(block)
        assert rep.passed and rep.samples == 2 * 3 * 3
        assert rep.tol == CONE_TOL

    def test_matches_the_sampled_check(self, block):
        """The exact check gives the sampled check's verdict on the
        fixture and on random one-dimensional e-generators."""
        assert ref_cone_self_dual(block) == (CheckVerdict.PASS, None)
        rng = np.random.default_rng(8)
        for k in (1, 2, 4, 7):
            sizes = rng.integers(1, 4, k)
            cells = np.split(rng.permutation(int(sizes.sum())),
                             np.cumsum(sizes)[:-1])
            raw = rng.uniform(0.5, 2.0, int(sizes.sum()))
            space = FiniteProbSpace(tuple(raw / raw.sum()))
            gens = []
            for cell in cells:
                v = np.zeros(space.n)
                v[cell] = rng.normal(size=len(cell))
                gens.append([v])
            random_block = blocks_from_generators(
                space, cells, gens, [[] for _ in cells])
            rep = check_cone_self_dual(random_block)
            assert rep.passed and rep.samples == 2 * k * k
            assert ref_cone_self_dual(random_block, rng=k)[0] == rep.verdict

    def test_skewed_bases_are_refuted(self, block):
        """An obtuse pair of e-vectors leaves the cone outside its dual;
        an acute pair makes the dual larger than the cone. Both checks
        refute each, and name the same inclusion."""
        # the first bad entry is (0, 1), row-major, of G or after all of G
        for off, inclusion, samples in ((-0.5, "cone-in-dual", 2),
                                        (0.5, "dual-in-cone", 9 + 2)):
            bad = skewed(block, off)
            rep = check_cone_self_dual(bad)
            assert rep.failed and rep.tol == CONE_TOL
            assert rep.witness["inclusion"] == inclusion
            assert rep.witness["entry"] == [0, 1]
            assert rep.samples == samples
            gram = np.array([[1, off, 0], [off, 1 + off ** 2, 0], [0, 0, 1]])
            want = gram if off < 0 else np.linalg.inv(gram)
            assert rep.witness["value"] == pytest.approx(want[0, 1],
                                                         abs=1e-12)
            assert ref_cone_self_dual(bad) == (CheckVerdict.FAIL, inclusion)

    def test_dependent_e_vectors_raise(self, block):
        """``e_1 = e_0`` makes the e-Gram matrix singular: its second pivot
        is zero, and the inverse names e-vector 1."""
        dependent = skewed(block, 0.0)  # a copy with a basis of its own
        dependent.basis[1] = dependent.basis[0]
        with pytest.raises(RankDeficientError) as exc:
            check_cone_self_dual(dependent)
        assert exc.value.index == 1

    def test_requires_one_dim_blocks(self):
        with pytest.raises(AssumptionViolatedError):
            check_cone_self_dual(build_example_10pt_split())


class TestPreorderNQC:
    def test_condexp_and_entropic_pass(self, block, triples):
        for make in (neg_conditional_expectation, entropic_certainty_equivalent):
            rho = make(block.sigma(), block.space)
            rep = check_nqc_wrt_preorder(rho, block, triples=triples)
            assert rep.passed
            assert rep.details["convexity_wrt_preorder"] == "pass"
            assert rep.details["implication_holds"]

    def test_sqrt_log_fails_with_witness(self, block, triples):
        rho = sqrt_log_map(block.sigma(), block.space)
        rep = check_nqc_wrt_preorder(rho, block, triples=triples)
        assert rep.failed
        assert "certificate" in rep.witness

    def test_matches_atom_value_checker(self, block, triples):
        """Normalized-indicator e-blocks reduce the preorder to atom order."""
        for make in (neg_conditional_expectation, sqrt_log_map,
                     entropic_certainty_equivalent):
            rho = make(block.sigma(), block.space)
            a = check_natural_quasiconvexity(rho, triples=triples)
            b = check_nqc_wrt_preorder(rho, block, triples=triples)
            assert a.verdict == b.verdict

    def test_convexity_wrt_preorder(self, block, triples):
        rho = sqrt_log_map(block.sigma(), block.space)
        assert check_convexity_wrt_preorder(rho, block, triples=triples).failed

    def test_requires_one_dim_blocks(self, triples):
        split = build_example_10pt_split()
        rho = neg_conditional_expectation(refined_partition_10pt(), split.space)
        with pytest.raises(AssumptionViolatedError):
            check_nqc_wrt_preorder(rho, split, triples=triples)
