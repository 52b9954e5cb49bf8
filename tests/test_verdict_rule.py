"""Every masked property check decides its verdict in one place.

``riskmeasure._verdict`` turns the first failing sample of a violation mask
into a report, for the checks of :mod:`qcx.riskmeasure` and the basis checks
of :mod:`qcx.l2basis`, which imports it by name. Both names are wrapped here
to record the reports they make; each masked check runs on a measure or basis
that fails it and on one that passes it, and every report must be one that
the rule made. The non-constancy check has no mask and is not among them.
"""

from __future__ import annotations

import pytest

from qcx import l2basis, riskmeasure
from qcx.l2basis import (build_example_10pt, check_basis_locality,
                         check_cone_self_dual, check_convexity_wrt_preorder,
                         check_nqc_wrt_preorder)
from qcx.riskmeasure import (RiskMeasureOracle, check_convexity,
                             check_locality, check_monotonicity,
                             check_natural_quasiconvexity,
                             check_quasiconvexity, check_sensitivity,
                             check_star_quasiconvexity, check_translativity,
                             conditional_expectation_map, cubed_mean_map,
                             mean_broadcast_map, neg_conditional_expectation,
                             sample_triples, sqrt_log_map)
from qcx.spaces import PartitionSigma, conditional_expectation
from test_l2basis import skewed


@pytest.fixture
def made(monkeypatch):
    """The reports that the verdict rule makes, in order."""
    reports = []
    rule = riskmeasure._verdict

    def recording(*args, **kwargs):
        reports.append(rule(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(riskmeasure, "_verdict", recording)
    monkeypatch.setattr(l2basis, "_verdict", recording)
    return reports


def masked_checks():
    """``(check, failing input, passing input)`` for the twelve masked
    checks, on the paper's 10-outcome fixture."""
    block = build_example_10pt()
    space, sigma = block.space, block.sigma()
    triples = sample_triples(space, 7, 120)
    cubed, sqrt_log = cubed_mean_map(sigma, space), sqrt_log_map(sigma, space)
    broadcast = mean_broadcast_map(sigma, space)
    coarse = conditional_expectation_map(
        PartitionSigma.of(range(7), range(7, 10)), space, declared_sigma=sigma)
    # a concave, non-monotone map of the atom means: not quasiconvex
    square = RiskMeasureOracle(
        "neg-squared-mean",
        lambda x: -conditional_expectation(x, sigma, space) ** 2, sigma, space)
    good = neg_conditional_expectation(sigma, space)

    def on_triples(check):
        return lambda rho: check(rho, triples=triples)

    def on_block(check, **kw):
        return lambda rho: check(rho, block, **kw)

    return {
        "monotonicity": (check_monotonicity, sqrt_log, good),
        "translativity": (check_translativity, cubed, good),
        "locality": (check_locality, broadcast, good),
        "sensitivity": (check_sensitivity, coarse, good),
        "convexity": (on_triples(check_convexity), sqrt_log, good),
        "quasiconvexity": (on_triples(check_quasiconvexity), square, good),
        "natural-quasiconvexity": (
            on_triples(check_natural_quasiconvexity), cubed, good),
        "star-quasiconvexity": (
            on_triples(check_star_quasiconvexity), cubed, good),
        "basis-locality": (on_block(check_basis_locality), broadcast, good),
        "cone-self-dual": (check_cone_self_dual, skewed(block, -0.5), block),
        "convexity-wrt-preorder": (
            on_block(check_convexity_wrt_preorder, triples=triples),
            sqrt_log, good),
        "nqc-wrt-preorder": (
            on_block(check_nqc_wrt_preorder, triples=triples), sqrt_log, good),
    }


@pytest.mark.parametrize("prop", list(masked_checks()))
def test_every_report_comes_from_the_verdict_rule(made, prop):
    check, failing, passing = masked_checks()[prop]
    bad, good = check(failing), check(passing)
    assert (bad.prop, bad.failed) == (prop, True)
    assert (good.prop, good.passed) == (prop, True)
    for report in (bad, good):
        assert any(report is r for r in made), (prop, report.verdict)
