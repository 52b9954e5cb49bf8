import math
import warnings

import numpy as np
import pytest

from qcx import families
from qcx.cindex import (REL_GAP_TOL, ConvexityIndex, IndexCase, classify,
                        compute_index, r_lambda, scale_index, smooth_index_1d)
from qcx.errors import CapTooSmallWarning, MissingDerivativesError
from qcx.extcore import (BoxDomain, FunctionSpec, PairTable, _exp_violation,
                         scale_function)

from test_index_oracle import certify_index_bracket

E = math.e


def box1(lo, hi, m=129):
    return BoxDomain.of(lo, hi, m)


#: Finite-index fixtures: function, domain.
INDEX_FIXTURES = [(families.sqrt(), 1, 4), (families.neglog(), 1, E),
                  (families.square(), 1, 2), (families.affine(), 0, 1),
                  (families.exp(), 0, 1)]


class TestRLambda:
    def test_affine_negative_lambda(self):
        r = r_lambda(families.affine(), -1.0)
        x = np.array([[0.0], [1.0], [2.0]])
        np.testing.assert_allclose(r(x), np.exp([0.0, 1.0, 2.0]))

    def test_infinite_region_maps_to_zero(self):
        def fn(p):
            return np.where(p[:, 0] > 0, np.inf, 0.0)
        r = r_lambda(FunctionSpec(1, fn), 1.0)
        np.testing.assert_allclose(r(np.array([[1.0], [-1.0]])), [0.0, 1.0])

    def test_neglog_power(self):
        r = r_lambda(families.neglog(), 0.5)
        y = np.array([[1.0], [2.0], [E]])
        np.testing.assert_allclose(r(y), y[:, 0] ** 0.5)

    def test_lambda_zero_is_one_even_at_inf(self):
        def fn(p):
            return np.where(p[:, 0] > 0, np.inf, 0.0)
        r = r_lambda(FunctionSpec(1, fn), 0.0)
        np.testing.assert_allclose(r(np.array([[1.0], [-1.0]])), [1.0, 1.0])

    def test_rejects_nonfinite_lambda(self):
        with pytest.raises(ValueError):
            r_lambda(families.square(), math.inf)


class TestComputeIndex:
    def test_sqrt(self):
        ix = compute_index(families.sqrt(), box1(1, 4))
        assert ix.case is IndexCase.CASE_I
        assert ix.value == pytest.approx(-1.0, abs=1e-3)
        lo, hi = ix.bracket
        assert lo <= ix.value <= hi and hi - lo <= 1e-4

    def test_neglog(self):
        ix = compute_index(families.neglog(), box1(1, E))
        assert ix.case is IndexCase.CASE_II
        assert ix.value == pytest.approx(1.0, abs=1e-3)

    def test_square_on_shifted_box(self):
        ix = compute_index(families.square(), box1(1, 2))
        assert ix.value == pytest.approx(0.125, abs=1e-3)

    def test_affine_is_zero(self):
        ix = compute_index(families.affine(), box1(0, 1))
        assert ix.case is IndexCase.CASE_II
        assert ix.value == pytest.approx(0.0, abs=1e-3)

    def test_constant_shortcut(self):
        ix = compute_index(families.const(3.0), box1(0, 1, 33))
        assert ix.value == math.inf
        assert ix.constant_shortcut
        assert classify(ix).constant

    def test_negsquare_minus_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CapTooSmallWarning)
            ix = compute_index(families.negsquare(), box1(-1, 1))
        assert ix.value == -math.inf
        assert ix.case is IndexCase.CASE_I
        assert ix.cap_probe

    def test_cap_warning_emitted(self):
        with pytest.warns(CapTooSmallWarning):
            compute_index(families.negsquare(), box1(-1, 1, 33))

    def test_exp_fixture(self):
        ix = compute_index(families.exp(), box1(0, 1))
        assert ix.value == pytest.approx(math.exp(-1), abs=1e-3)

    def test_bracket_consistency(self):
        for f, lo, hi in [(families.sqrt(), 1, 4), (families.neglog(), 1, E),
                          (families.square(), 1, 2)]:
            box = box1(lo, hi)
            ix = compute_index(f, box)
            lo_res, hi_res = certify_index_bracket(f, box, ix)
            assert lo_res.certified
            assert hi_res.refuted

    def test_downset_property(self):
        """Transform convex at some negative lambda stays convex below it."""
        f = families.sqrt()
        box = box1(1, 4, 65)
        table = PairTable(f, box)
        assert table.exp_transform_ok(-1.5)
        for lam in (-2.0, -4.0, -16.0):
            assert table.exp_transform_ok(lam)
        assert not table.exp_transform_ok(-0.5)
        for lam in (-0.25, -0.1):
            assert not table.exp_transform_ok(lam)

    def test_downset_property_random_suite(self):
        """Same monotone structure on random non-convex functions."""
        rng = np.random.default_rng(9)
        box = box1(-1, 1, 65)
        ladder = [-(2.0 ** k) for k in range(5, -5, -1)]  # -32 up to -1/16
        for _ in range(6):
            amp = rng.uniform(0.5, 2.0)
            width = rng.uniform(4.0, 12.0)
            f = FunctionSpec(
                1, lambda p, amp=amp, width=width:
                    p[:, 0] ** 2 - amp * np.exp(-width * p[:, 0] ** 2))
            table = PairTable(f, box)
            flags = [table.exp_transform_ok(lam) for lam in ladder]
            # scanning upward from the most negative lambda, convexity can
            # only be lost, never regained
            for earlier, later in zip(flags, flags[1:]):
                assert earlier or not later

    def test_binding_pair_fixes_the_index(self):
        """The binding pair alone passes at the lower bracket end and fails
        at the upper one."""
        quad = FunctionSpec(2, lambda p: p[:, 0] ** 2 + 2 * p[:, 1] ** 2
                            + p[:, 0] * p[:, 1])
        cases = [(f, box1(lo, hi)) for f, lo, hi in INDEX_FIXTURES]
        cases.append((quad, BoxDomain.of((0.5, 0.5), (2.0, 2.0), (21, 21))))
        for f, box in cases:
            ix = compute_index(f, box)
            w = ix.binding
            sign = +1 if ix.case is IndexCase.CASE_I else -1
            x1, x2 = np.array([w.x1]), np.array([w.x2])
            fm = f(w.eta * x1 + (1 - w.eta) * x2)
            da, db = f(x1) - fm, f(x2) - fm
            lo, hi = ix.bracket
            assert not _exp_violation(da, db, w.eta, lo, sign)[0]
            assert _exp_violation(da, db, w.eta, hi, sign)[0]
            assert w.violation > REL_GAP_TOL
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CapTooSmallWarning)
            assert compute_index(families.negsquare(), box1(-1, 1, 33)).binding is None
        assert compute_index(families.const(1.0), box1(0, 1, 9)).binding is None

    def test_probes_end_with_the_bracket(self):
        ix = compute_index(families.sqrt(), box1(1, 4))
        lo, hi = ix.bracket
        # the cap test and the upper end; the lower end rests on the prune
        assert ix.probes == ((-1e4, True), (hi, False))

    def test_validation(self):
        for bad in ({"lambda_cap": -1.0}, {"lambda_cap": math.nan},
                    {"lambda_cap": math.inf}):
            with pytest.raises(ValueError):
                compute_index(families.square(), box1(0, 1), **bad)
        # a NaN cap passed the sign test and gave wrong indices
        for f, lo, hi in ((families.sqrt(), 1, 4), (families.neglog(), 1, E)):
            with pytest.raises(ValueError):
                compute_index(f, box1(lo, hi, 65), lambda_cap=math.nan)


class TestSmoothIndex:
    def test_square(self):
        assert smooth_index_1d(families.square(), box1(1, 2, 33)) == pytest.approx(0.125)

    def test_exp(self):
        got = smooth_index_1d(families.exp(), box1(0, 1, 33))
        assert got == pytest.approx(math.exp(-1))

    def test_neglog_constant_ratio(self):
        got = smooth_index_1d(families.neglog(), box1(1, E, 33))
        assert got == pytest.approx(1.0)

    def test_stationary_conventions(self):
        # square has f'(0) = 0 with f'' > 0: no constraint from that point
        assert smooth_index_1d(families.square(), box1(-1, 1, 33)) == pytest.approx(0.5)
        # negsquare has a maximum: index forced to -inf
        assert smooth_index_1d(families.negsquare(), box1(-1, 1, 33)) == -math.inf
        # affine: every point stationary-free except f'' = 0 everywhere
        assert smooth_index_1d(families.affine(), box1(0, 1, 33)) == pytest.approx(0.0)
        assert smooth_index_1d(families.const(2.0), box1(0, 1, 33)) == math.inf

    def test_requires_derivatives(self):
        bare = FunctionSpec(1, lambda p: p[:, 0] ** 2)
        with pytest.raises(MissingDerivativesError):
            smooth_index_1d(bare, box1(0, 1, 9))

    def test_oracle_agreement(self):
        for f, lo, hi, in [(families.sqrt(), 1, 4), (families.neglog(), 1, E),
                           (families.square(), 1, 2), (families.exp(), 0, 1)]:
            box = box1(lo, hi)
            ix = compute_index(f, box)
            assert abs(ix.value - smooth_index_1d(f, box)) <= 1e-3


class TestScaleAndClassify:
    def test_scale_examples(self):
        assert scale_index(1.0, 2.0) == pytest.approx(0.5)
        assert scale_index(-1.0, 0.5) == pytest.approx(-2.0)
        assert scale_index(0.125, 0.0) == math.inf
        assert scale_index(math.inf, 3.0) == math.inf
        assert scale_index(-math.inf, 3.0) == -math.inf
        with pytest.raises(ValueError):
            scale_index(1.0, -1.0)

    def test_scale_refuses_what_scale_function_refuses(self):
        """A NaN or infinite weight, which ``scale_function`` refuses, gave
        NaN and -0.0; a NaN index passed through."""
        for w in (math.nan, math.inf):
            with pytest.raises(ValueError):
                scale_function(families.sqrt(), w)
            for c in (-1.0, 1.0, -math.inf):
                with pytest.raises(ValueError):
                    scale_index(c, w)
        for w in (0.0, 2.0):
            with pytest.raises(ValueError):
                scale_index(math.nan, w)

    def test_scaling_law_on_functions(self):
        f = families.sqrt()
        box = box1(1, 4)
        base = compute_index(f, box).value
        for w in (0.5, 2.0, 10.0):
            scaled = compute_index(scale_function(f, w), box).value
            assert abs(scaled - scale_index(base, w)) <= 5e-3

    def test_classify(self):
        assert classify(0.125).convex and not classify(0.125).constant
        assert not classify(-1.0).convex
        assert classify(math.inf).convex and classify(math.inf).constant
        ix = ConvexityIndex(-0.5, (-0.6, -0.4), 1e4)
        assert not classify(ix).convex and ix.case is IndexCase.CASE_I
        with pytest.raises(ValueError, match="NaN"):
            classify(math.nan)

    def test_index_invariants(self):
        with pytest.raises(ValueError):
            ConvexityIndex(0.5, (0.6, 0.7), 1e4)


class TestSignAgreement:
    def test_random_suite_agreement(self):
        """Certifier verdict and index sign agree on a randomized suite."""
        rng = np.random.default_rng(42)
        box = BoxDomain.of(-1.0, 1.0, 65)
        count = 0
        for _ in range(30):
            kind = rng.integers(0, 3)
            if kind == 0:
                a = rng.uniform(0.2, 3.0)
                b = rng.uniform(-1.0, 1.0)
                f = FunctionSpec(1, lambda p, a=a, b=b: a * p[:, 0] ** 2 + b * p[:, 0])
            elif kind == 1:
                s = rng.choice([-1.0, 1.0])
                beta = rng.uniform(0.5, 2.0)
                f = FunctionSpec(1, lambda p, s=s, beta=beta: s * np.exp(beta * p[:, 0]))
            else:
                amp = rng.uniform(0.5, 2.0)
                f = FunctionSpec(
                    1, lambda p, amp=amp: p[:, 0] ** 2 - amp * np.exp(-8 * p[:, 0] ** 2))
            from qcx.extcore import certify_convex
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CapTooSmallWarning)
                ix = compute_index(f, box)
            if abs(ix.value) < 1e-3:
                continue
            assert classify(ix).convex == certify_convex(f, box).certified
            count += 1
        assert count >= 25
