import math

import numpy as np
import pytest

from qcx import extcore, families
from qcx.errors import BudgetExceededError, ImproperFunctionError
from qcx.extcore import (BoxDomain, FunctionSpec, PairTable, Verdict,
                         certify_concave, certify_convex, certify_quasiconvex,
                         convexity_gap, quasiconvexity_gap, scale_function)


def absfn():
    return FunctionSpec(1, lambda p: np.abs(p[:, 0]), name="abs")


def partial_domain():
    """x^2 on [-1, 0], +inf elsewhere: proper but not finite everywhere."""
    def fn(p):
        x = p[:, 0]
        return np.where(x <= 0.0, x ** 2, np.inf)
    return FunctionSpec(1, fn, name="halfsquare")


class TestBoxDomain:
    def test_of_scalars(self):
        box = BoxDomain.of(0, 1, 5)
        assert box.dim == 1
        np.testing.assert_allclose(box.axes()[0], [0, 0.25, 0.5, 0.75, 1.0])

    def test_endpoints_included(self):
        box = BoxDomain.of((0, 1), (1, 3), (3, 4))
        pts = box.points()
        assert pts.shape == (12, 2)
        assert [0.0, 1.0] in pts.tolist()
        assert [1.0, 3.0] in pts.tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            BoxDomain.of(1, 1, 5)
        with pytest.raises(ValueError):
            BoxDomain.of(0, 1, 2)
        with pytest.raises(ValueError):
            BoxDomain.of(0, math.inf, 5)


class TestGaps:
    def test_square_gap(self):
        gap, degen = convexity_gap(families.square(), [0.0], [2.0], 0.5)
        assert not degen
        assert gap == pytest.approx(-1.0)

    def test_abs_gap(self):
        gap, _ = convexity_gap(absfn(), [-1.0], [1.0], 0.5)
        assert gap == pytest.approx(-1.0)

    def test_negsquare_gap_positive(self):
        gap, _ = convexity_gap(families.negsquare(), [-1.0], [1.0], 0.5)
        assert gap == pytest.approx(1.0)

    def test_sqrt_midpoint_gap(self):
        gap, _ = convexity_gap(families.sqrt(), [1.0], [4.0], 0.5)
        assert gap == pytest.approx(math.sqrt(2.5) - 1.5)
        assert gap > 0.08

    def test_degenerate_infinite(self):
        g = partial_domain()
        gap, degen = convexity_gap(g, [0.5], [1.0], 0.5)
        assert degen and gap == math.inf

    def test_quasi_gap(self):
        gap, _ = quasiconvexity_gap(families.negsquare(), [-1.0], [1.0], 0.5)
        assert gap == pytest.approx(1.0)  # 0 - max(-1, -1)


class TestCertifyConvex:
    def test_square_certified(self):
        res = certify_convex(families.square(), BoxDomain.of(-1, 1, 33), tol=1e-9)
        assert res.certified

    def test_negsquare_refuted_with_witness(self):
        res = certify_convex(families.negsquare(), BoxDomain.of(-1, 1, 33),
                             tol=1e-9)
        assert res.refuted
        w = res.witness
        assert w.violation == pytest.approx(1.0)
        assert (w.x1, w.x2, w.eta) == ((-1.0,), (1.0,), 0.5)

    def test_sqrt_refuted(self):
        res = certify_convex(families.sqrt(), BoxDomain.of(1, 4, 33), tol=1e-9)
        assert res.refuted

    def test_witness_replays(self):
        res = certify_convex(families.negsquare(), BoxDomain.of(-1, 1, 17))
        gap, degen = convexity_gap(families.negsquare(), res.witness.x1,
                                   res.witness.x2, res.witness.eta)
        assert not degen and gap >= res.tol

    def test_affine_gap_is_exact_zero(self):
        f = families.affine(a=3.0, b=-2.0)
        box = BoxDomain.of(-5, 5, 33)
        pts = box.axes()[0]
        rng = np.random.default_rng(0)
        for _ in range(50):
            x1, x2 = rng.choice(pts, 2)
            eta = rng.choice([k / 8 for k in range(1, 8)])
            gap, _ = convexity_gap(f, [x1], [x2], eta)
            assert abs(gap) <= 1e-12

    def test_improper_all_infinite(self):
        g = FunctionSpec(1, lambda p: np.full(len(p), np.inf), name="allinf")
        with pytest.raises(ImproperFunctionError):
            certify_convex(g, BoxDomain.of(0, 1, 5))

    def test_neg_infinity_rejected(self):
        g = FunctionSpec(1, lambda p: np.full(len(p), -np.inf))
        with pytest.raises(ImproperFunctionError):
            certify_convex(g, BoxDomain.of(0, 1, 5))

    def test_oracle_output_checks(self):
        """NaN is an error even beside -inf; -inf is improper; an empty
        output passes."""
        outs = {"nan": [1.0, np.nan], "nan-neginf": [-np.inf, np.nan, 2.0],
                "neginf": [0.0, -np.inf], "empty": []}
        for out in outs.values():
            g = FunctionSpec(1, lambda p, out=out: np.array(out), name="g")
            pts = np.zeros((len(out), 1))
            if np.isnan(out).any():
                with pytest.raises(ValueError, match="returned NaN"):
                    g(pts)
            elif -np.inf in out:
                with pytest.raises(ImproperFunctionError):
                    g(pts)
            else:
                assert np.array_equal(g(pts), out)

    def test_oracle_output_length_checks(self):
        """An oracle that returns one value for the grid, or one value too
        many, is refused with both counts before its values are used; an
        ``(N, 1)`` output passes as its column."""
        box = BoxDomain.of(1, 4, 9)
        one = FunctionSpec(1, lambda p: np.sqrt(p[:1, 0]).sum(), name="one")
        with pytest.raises(ValueError,
                           match="oracle for one returned 1 values for 9 points"):
            certify_convex(one, box)
        extra = FunctionSpec(1, lambda p: np.append(np.sqrt(p[:, 0]), 1.0))
        with pytest.raises(ValueError,
                           match="oracle for function returned 10 values for 9"):
            certify_convex(extra, box)
        column = FunctionSpec(1, lambda p: np.sqrt(p))
        flat = FunctionSpec(1, lambda p: np.sqrt(p[:, 0]))
        assert certify_convex(column, box) == certify_convex(flat, box)

    def test_partial_domain_still_certifies(self):
        # +inf region does not produce spurious refutations
        res = certify_convex(partial_domain(), BoxDomain.of(-1, 1, 17))
        assert res.certified
        assert res.degenerate  # some pairs hit inf - inf


class TestCertifyQuasiconvex:
    def test_sqrt_quasiconvex(self):
        res = certify_quasiconvex(families.sqrt(), BoxDomain.of(1, 4, 33))
        assert res.certified

    def test_negsquare_refuted(self):
        res = certify_quasiconvex(families.negsquare(), BoxDomain.of(-1, 1, 33))
        assert res.refuted

    def test_two_dim_decomposable_refuted(self):
        def fn(p):
            return np.sqrt(p[:, 0]) - 2.0 * np.log(p[:, 1])
        g = FunctionSpec(2, fn, name="sqrt-2log")
        res = certify_quasiconvex(g, BoxDomain.of((1, 1), (4, math.e), (15, 15)))
        assert res.refuted

    def test_convex_implies_quasiconvex(self):
        box = BoxDomain.of(-2, 2, 17)
        for f in (families.square(), families.exp(), families.affine(2, 1)):
            vc = certify_convex(f, box)
            vq = certify_quasiconvex(f, box)
            assert vc.certified and vq.certified


class TestConcaveAndThreads:
    def test_certify_concave(self):
        assert certify_concave(families.negsquare(), BoxDomain.of(-1, 1, 17)).certified
        assert certify_concave(families.square(), BoxDomain.of(-1, 1, 17)).refuted

    def test_tied_gaps_do_not_depend_on_block_size(self, monkeypatch):
        """Gaps of 1 tie across weights and local pairs; every certifier and
        the table scan pick the same pair at every block size, the one a
        single block reports."""
        g = FunctionSpec(1, lambda p: np.where(
            (p[:, 0] == 2.0 ** -11) | (p[:, 0] == 2.0 ** -9), 1.0, 0.0))
        box = BoxDomain.of(0, 8, 9)
        sizes = (extcore.SCAN_BLOCK, 1, 2, 3, 7)

        def each_size(run):
            out = set()
            for size in sizes:
                monkeypatch.setattr(extcore, "SCAN_BLOCK", size)
                out.add(run())
            return out

        for certify in (certify_convex, certify_concave, certify_quasiconvex):
            results = each_size(lambda: certify(g, box))
            assert len(results) == 1, results
        res, = each_size(lambda: certify_quasiconvex(g, box))
        assert (res.witness.x1, res.witness.x2) == ((0.0,), (2.0 ** -8,))
        assert res.witness.eta == 0.5
        for kind in ("convex", "concave", "quasiconvex"):
            scans = each_size(lambda: PairTable(g, box).scan(kind, 1e-6))
            assert len(scans) == 1, (kind, scans)

    def test_pair_budget(self):
        with pytest.raises(BudgetExceededError):
            certify_convex(families.square(), BoxDomain.of(-1, 1, 101),
                           pair_budget=100)

    def test_refused_budget_builds_no_grid(self):
        """The pair count comes from the grid sizes: a grid of 10^15
        points, too large to build, is refused before the oracle sees a
        point."""
        calls = []

        def fn(p):
            calls.append(len(p))
            return p.sum(axis=1)

        box = BoxDomain.of((0, 0, 0), (1, 1, 1), (10 ** 5,) * 3)
        with pytest.raises(BudgetExceededError, match="budget is 1000000"):
            PairTable(FunctionSpec(3, fn), box, pair_budget=10 ** 6)
        assert calls == []


def test_scale_function():
    f = scale_function(families.sqrt(), 2.0)
    assert f([[4.0]])[0] == pytest.approx(4.0)
    assert f.grad(np.array([[4.0]]))[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        scale_function(families.sqrt(), -1.0)


@pytest.mark.parametrize("w", [math.nan, math.inf])
def test_scale_function_rejects_non_finite_weight(w):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        scale_function(families.sqrt(), w)
    assert scale_function(families.sqrt(), 0.0)([[4.0]])[0] == 0.0


def test_verdict_enum_roundtrip():
    assert Verdict("certified") is Verdict.CERTIFIED
