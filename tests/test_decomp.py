import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcx import families
from qcx.decomp import (DecomposableSum, SumDecision, brute_force_sum_quasiconvex,
                        characterize, harmonic_index, index_sum_criterion,
                        infinite_sum_criterion)
from qcx.errors import (BudgetExceededError, CapTooSmallWarning,
                        InfiniteIndexError, NegativeIndexError)
from qcx.extcore import BoxDomain

E = math.e


def sum_sqrt_neglog(a: float, m: int = 31) -> DecomposableSum:
    return DecomposableSum((
        (families.sqrt(), BoxDomain.of(1, 4, m)),
        (families.make_function("neglog", weight=a), BoxDomain.of(1, E, m)),
    ))


class TestIndexSumCriterion:
    def test_boundary_zero_is_quasiconvex_flagged(self):
        v = index_sum_criterion([-1.0, 1.0])
        assert v.decision is SumDecision.QUASICONVEX
        assert v.boundary and v.margin == 0.0

    def test_positive(self):
        v = index_sum_criterion([-1.0, 2.0])
        assert v.decision is SumDecision.QUASICONVEX
        assert v.margin == pytest.approx(1.0) and not v.boundary

    def test_negative(self):
        v = index_sum_criterion([-1.0, 0.5])
        assert v.decision is SumDecision.NOT_QUASICONVEX
        assert v.margin == pytest.approx(-0.5)

    def test_infinite_rejected(self):
        with pytest.raises(InfiniteIndexError):
            index_sum_criterion([1.0, math.inf])


class TestCharacterize:
    def test_all_convex(self):
        v = characterize([0.125, 1.0])
        assert v.decision is SumDecision.QUASICONVEX and v.rule == "all-convex"

    def test_one_exception_positive_reciprocal(self):
        v = characterize([-1.0, 0.5])
        assert v.decision is SumDecision.NOT_QUASICONVEX
        assert v.rule == "one-exception-reciprocal"

    def test_one_exception_negative_reciprocal(self):
        v = characterize([-0.25, 1.0, 1.0])
        assert v.decision is SumDecision.QUASICONVEX
        assert v.rule == "one-exception-reciprocal"

    def test_zero_index_next_to_exception(self):
        # 1/0 = +inf drives the reciprocal sum to +inf
        v = characterize([-1.0, 0.0, 2.0])
        assert v.decision is SumDecision.NOT_QUASICONVEX

    def test_two_exceptions(self):
        v = characterize([-1.0, -0.5, 3.0])
        assert v.decision is SumDecision.NOT_QUASICONVEX
        assert v.rule == "multiple-exceptions"

    def test_agrees_with_two_factor_reduction(self):
        """One-exception verdicts match the index sum of (c1, harmonic(rest))."""
        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(2, 6))
            rest = rng.uniform(0.05, 4.0, n - 1)
            c1 = -float(rng.uniform(0.05, 4.0))
            vec = [c1] + rest.tolist()
            by_structure = characterize(vec)
            reduced = index_sum_criterion([c1, harmonic_index(rest)])
            assert by_structure.decision == reduced.decision

    def test_two_factor_all_criteria_agree(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            c1 = -float(rng.uniform(0.05, 4.0))
            c2 = float(rng.uniform(0.05, 4.0))
            a = index_sum_criterion([c1, c2])
            b = characterize([c1, c2])
            assert a.decision == b.decision


class TestHarmonicIndex:
    def test_examples(self):
        assert harmonic_index([0.125, 1.0]) == pytest.approx(1.0 / 9.0)
        assert harmonic_index([0.0, 1.0]) == 0.0
        assert harmonic_index([math.inf, 2.0]) == pytest.approx(2.0)
        assert harmonic_index([math.inf, math.inf]) == math.inf

    def test_zero_and_infinite_reciprocals(self):
        """``1/0 = +inf`` and ``1/+inf = 0``, exactly."""
        assert harmonic_index([0.0]) == 0.0
        assert harmonic_index([0.0, 0.0]) == 0.0
        assert harmonic_index([0.0, math.inf]) == 0.0
        assert harmonic_index([math.inf]) == math.inf
        assert harmonic_index([math.inf, 4.0]) == 4.0

    def test_negative_rejected(self):
        with pytest.raises(NegativeIndexError):
            harmonic_index([-0.1, 1.0])
        with pytest.raises(NegativeIndexError):
            harmonic_index([-math.inf, 1.0])

    def test_nan_rejected_as_nan(self):
        """A NaN index is no negative one: it raises ValueError, not
        NegativeIndexError."""
        with pytest.raises(ValueError, match="coordinate 1 index is NaN") as err:
            harmonic_index([1.0, math.nan])
        assert not isinstance(err.value, NegativeIndexError)

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0),
                    min_size=2, max_size=6))
    def test_symmetric(self, xs):
        assert harmonic_index(xs) == pytest.approx(harmonic_index(xs[::-1]))

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0),
                    min_size=2, max_size=6),
           st.integers(min_value=0, max_value=5),
           st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=100)
    def test_monotone_in_each_argument(self, xs, pos, bump):
        pos = pos % len(xs)
        bigger = list(xs)
        bigger[pos] += bump
        assert harmonic_index(bigger) >= harmonic_index(xs) - 1e-12


class TestInfiniteSum:
    def test_quasiconvex_with_tail_bound(self):
        def stream():
            yield -0.5
            for i in range(2, 10_000):
                yield float(i * i)
        # integral bound: sum_{i > N} 1/i^2 <= 1/N
        v = infinite_sum_criterion(stream(), n_max=100, tail_bound=1 / 100)
        assert v.decision is SumDecision.QUASICONVEX

    def test_not_quasiconvex_at_three(self):
        def stream():
            yield -1.0
            while True:
                yield 1.0
        v = infinite_sum_criterion(stream(), n_max=50)
        assert v.decision is SumDecision.NOT_QUASICONVEX
        assert v.rule == "partial-sum-positive"
        assert v.margin == pytest.approx(1.0)  # stopped at a_3 = 1

    def test_constants_rejected(self):
        with pytest.raises(InfiniteIndexError):
            infinite_sum_criterion(iter([math.inf, math.inf]), n_max=5)

    def test_nan_rejected_at_its_position(self):
        """A NaN gave an inconclusive verdict with margin NaN."""
        with pytest.raises(ValueError, match="stream index 2 is NaN"):
            infinite_sum_criterion(iter([-1.0, math.nan, 1.0]), n_max=10)

    def test_nan_tail_bound_rejected(self):
        """A NaN tail bound could never conclude: it ended ``INCONCLUSIVE``
        at ``budget-exhausted``. An infinite one is a valid bound."""
        with pytest.raises(ValueError, match="tail_bound must be nonnegative"):
            infinite_sum_criterion(iter([-1.0, 4.0]), n_max=10,
                                   tail_bound=math.nan)
        v = infinite_sum_criterion(iter([-1.0, 4.0]), n_max=2,
                                   tail_bound=math.inf)
        assert v.decision is SumDecision.INCONCLUSIVE

    def test_two_exceptions_immediate(self):
        v = infinite_sum_criterion(iter([-1.0, -2.0, 1.0]), n_max=10)
        assert v.decision is SumDecision.NOT_QUASICONVEX
        assert v.rule == "multiple-exceptions"

    def test_inconclusive_without_tail(self):
        v = infinite_sum_criterion(iter([-0.5] + [float(i * i) for i in range(2, 50)]),
                                   n_max=30)
        assert v.decision is SumDecision.INCONCLUSIVE

    def test_consistent_with_characterize_on_prefixes(self):
        prefix = [-0.5] + [float(i * i) for i in range(2, 30)]
        v = infinite_sum_criterion(iter(prefix), n_max=len(prefix),
                                   tail_bound=0.0)
        assert v.decision == characterize(prefix).decision


class TestBruteForce:
    @pytest.mark.parametrize("a,quasiconvex", [
        (0.5, True), (0.9, True), (1.1, False), (2.0, False)])
    def test_sqrt_minus_a_log(self, a, quasiconvex):
        res = brute_force_sum_quasiconvex(sum_sqrt_neglog(a))
        assert res.certified == quasiconvex
        if res.refuted:
            w = res.witness
            from qcx.extcore import quasiconvexity_gap
            gap, degen = quasiconvexity_gap(sum_sqrt_neglog(a).as_function(),
                                            w.x1, w.x2, w.eta)
            assert not degen and gap >= res.tol

    def test_square_sum_certified(self):
        ds = DecomposableSum((
            (families.square(), BoxDomain.of(-1, 1, 21)),
            (families.square(), BoxDomain.of(-1, 1, 21)),
        ))
        assert brute_force_sum_quasiconvex(ds).certified

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            brute_force_sum_quasiconvex(sum_sqrt_neglog(1.0, m=64),
                                        pair_budget=10_000)

    def test_indices_correct(self):
        ds = sum_sqrt_neglog(2.0)
        vals = ds.index_values()
        assert vals[0] == pytest.approx(-1.0, abs=2e-3)
        assert vals[1] == pytest.approx(0.5, abs=2e-3)

    def test_indices_recomputed_for_other_arguments(self):
        """A second call with another cap computes its own indices, not the
        first call's."""
        ds = DecomposableSum(((families.sqrt(), BoxDomain.of(1, 4, 9)),
                              (families.neglog(), BoxDomain.of(1, 4, 9))))
        wide = ds.index_values(lambda_cap=1e4)
        assert wide[0] == pytest.approx(-1.0, abs=1e-3)
        assert wide[1] == pytest.approx(1.0, abs=1e-3)
        with pytest.warns(CapTooSmallWarning):
            assert ds.index_values(lambda_cap=1e-3) == [-math.inf, math.inf]

    def test_agreement_between_criterion_and_oracle(self):
        for a in (0.5, 2.0):
            ds = sum_sqrt_neglog(a)
            verdict = index_sum_criterion(ds.index_values())
            oracle = brute_force_sum_quasiconvex(ds)
            assert (verdict.decision is SumDecision.QUASICONVEX) == oracle.certified
