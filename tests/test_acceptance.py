"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is sized for a few minutes on a laptop.
"""

import json
import math
import warnings

import numpy as np
import pytest

from qcx import families
from qcx.cindex import classify, compute_index, smooth_index_1d
from qcx.cli import main as cli_main
from qcx.decomp import (DecomposableSum, SumDecision,
                        brute_force_sum_quasiconvex, characterize,
                        harmonic_index, infinite_sum_criterion)
from qcx.errors import CapTooSmallWarning
from qcx.extcore import (BoxDomain, FunctionSpec, certify_convex,
                         quasiconvexity_gap, scale_function)
from qcx.l2basis import (build_example_10pt, build_example_10pt_split,
                         check_basis_locality, check_cone_self_dual,
                         refined_partition_10pt)
from qcx.riskmeasure import (check_convexity, check_locality,
                             check_natural_quasiconvexity,
                             check_quasiconvexity, check_star_quasiconvexity,
                             conditional_expectation_map, cubed_mean_map,
                             entropic_certainty_equivalent,
                             neg_conditional_expectation, nqc_mu_interval,
                             sample_triples, separating_dual_witness,
                             sqrt_log_map)
from qcx.spaces import FiniteProbSpace, PartitionSigma

E = math.e
SEED = 2024


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{status}] {name}{extra}")
    assert ok, f"criterion {number} failed: {name} {extra}"


FIXTURES = [
    ("sqrt", families.sqrt(), BoxDomain.of(1, 4, 129), -1.0),
    ("neglog", families.neglog(), BoxDomain.of(1, E, 129), 1.0),
    ("square", families.square(), BoxDomain.of(1, 2, 129), 0.125),
    ("affine", families.affine(), BoxDomain.of(0, 1, 129), 0.0),
    ("exp", families.exp(), BoxDomain.of(0, 1, 129), math.exp(-1)),
]


def test_criterion_1_index_exactness():
    worst = 0.0
    for name, f, box, want in FIXTURES[:4]:
        ix = compute_index(f, box)
        err = abs(ix.value - want)
        worst = max(worst, err)
        assert err <= 1e-3, (name, ix.value, want)
        smooth = smooth_index_1d(f, box)
        assert abs(ix.value - smooth) <= 1e-3, (name, ix.value, smooth)
    ix = compute_index(families.const(3.0), BoxDomain.of(0, 1, 33))
    assert ix.value == math.inf
    assert smooth_index_1d(families.const(3.0), BoxDomain.of(0, 1, 33)) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapTooSmallWarning)
        ix = compute_index(families.negsquare(), BoxDomain.of(-1, 1, 129))
    assert ix.value == -math.inf
    assert smooth_index_1d(families.negsquare(), BoxDomain.of(-1, 1, 129)) == -math.inf
    report(1, "index exactness on the fixture set", True,
           f"max finite-index error {worst:.2e}")


def _random_suite(rng, count):
    """Convex quadratics, exponentials, concave-bump perturbations."""
    suite = []
    while len(suite) < count:
        kind = len(suite) % 3
        if kind == 0:
            a = rng.uniform(0.2, 3.0)
            b = rng.uniform(-1.0, 1.0)
            f = FunctionSpec(1, lambda p, a=a, b=b: a * p[:, 0] ** 2 + b * p[:, 0],
                             name=f"quad({a:.2f})")
        elif kind == 1:
            s = float(rng.choice([-1.0, 1.0]))
            beta = rng.uniform(0.5, 2.0)
            f = FunctionSpec(1, lambda p, s=s, beta=beta: s * np.exp(beta * p[:, 0]),
                             name=f"exp({s:+.0f},{beta:.2f})")
        else:
            amp = rng.uniform(0.5, 2.0)
            width = rng.uniform(4.0, 12.0)
            f = FunctionSpec(
                1, lambda p, amp=amp, width=width:
                    p[:, 0] ** 2 - amp * np.exp(-width * p[:, 0] ** 2),
                name=f"bump({amp:.2f})")
        suite.append(f)
    return suite


def test_criterion_2_sign_theorem():
    rng = np.random.default_rng(SEED)
    box = BoxDomain.of(-1.0, 1.0, 65)
    agreed = checked = 0
    for f in _random_suite(rng, 130):
        if checked >= 100:
            break
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CapTooSmallWarning)
            ix = compute_index(f, box)
        if abs(ix.value) < 1e-3:
            continue  # boundary band excluded
        checked += 1
        if classify(ix).convex == certify_convex(f, box).certified:
            agreed += 1
    report(2, "index sign agrees with the convexity certifier",
           checked == 100 and agreed == 100, f"{agreed}/{checked}")


def test_criterion_3_scaling_lemma():
    worst = 0.0
    for name, f, box, want in FIXTURES:
        base = compute_index(f, box).value
        for w in (0.5, 2.0, 10.0):
            scaled = compute_index(scale_function(f, w), box).value
            err = abs(scaled - base / w)
            worst = max(worst, err)
            assert err <= 5e-3, (name, w, scaled, base / w)
    report(3, "scaling lemma on the fixtures", True, f"max error {worst:.2e}")


def _sqrt_log_sum(a: float) -> DecomposableSum:
    return DecomposableSum((
        (families.sqrt(), BoxDomain.of(1, 4, 31)),
        (families.make_function("neglog", weight=a), BoxDomain.of(1, E, 31)),
    ))


def test_criterion_4_two_factor_case():
    outcomes = []
    for a in (0.5, 0.9, 1.1, 2.0):
        ds = _sqrt_log_sum(a)
        res = brute_force_sum_quasiconvex(ds)
        want_qc = (-1.0 + 1.0 / a) >= 0
        ok = res.certified == want_qc
        if res.refuted:
            w = res.witness
            gap, degen = quasiconvexity_gap(ds.as_function(), w.x1, w.x2, w.eta)
            ok = ok and not degen and gap >= res.tol
        outcomes.append(ok)
    report(4, "two-factor criterion matches the product-grid oracle",
           all(outcomes), f"{sum(outcomes)}/4 cases")


def test_criterion_5_harmonic_formula():
    def fn(p):
        return p[:, 0] ** 2 - np.log(p[:, 1])
    s = FunctionSpec(2, fn, name="square+neglog")
    box = BoxDomain.of((1.0, 1.0), (2.0, E), (21, 21))
    ix = compute_index(s, box)
    target = 1.0 / 9.0
    h = harmonic_index([0.125, 1.0])
    ok = abs(ix.value - target) <= 5e-2 and abs(ix.value - h) <= 5e-2
    report(5, "harmonic index formula on a two-block sum", ok,
           f"computed {ix.value:.4f}, formula {h:.4f}")


def test_criterion_6_three_factor():
    ds3 = DecomposableSum((
        (families.make_function("sqrt", weight=4.0), BoxDomain.of(1, 4, 10)),
        (families.neglog(), BoxDomain.of(1, E, 10)),
        (families.neglog(), BoxDomain.of(1, E, 10)),
    ))
    verdict3 = characterize([-0.25, 1.0, 1.0])
    oracle3 = brute_force_sum_quasiconvex(ds3)
    ok3 = (verdict3.decision is SumDecision.QUASICONVEX) and oracle3.certified

    ds2 = _sqrt_log_sum(2.0)
    verdict2 = characterize([-1.0, 0.5])
    oracle2 = brute_force_sum_quasiconvex(ds2)
    ok2 = (verdict2.decision is SumDecision.NOT_QUASICONVEX) and oracle2.refuted
    report(6, "except-one characterization matches brute force", ok3 and ok2)


def test_criterion_7_infinite_sums():
    def stream_a():
        yield -0.5
        for i in range(2, 10_000):
            yield float(i * i)

    v1 = infinite_sum_criterion(stream_a(), n_max=100, tail_bound=1 / 100)

    def stream_b():
        yield -1.0
        while True:
            yield 1.0

    v2 = infinite_sum_criterion(stream_b(), n_max=100)
    ok = (v1.decision is SumDecision.QUASICONVEX
          and v2.decision is SumDecision.NOT_QUASICONVEX)
    report(7, "truncated infinite-sum criteria", ok,
           f"a: {v1.decision.value} at tail 1e-2, b: {v2.decision.value}")


@pytest.fixture(scope="module")
def space10():
    return FiniteProbSpace.uniform(10)


@pytest.fixture(scope="module")
def sigma10():
    return PartitionSigma.of(range(0, 4), range(4, 7), range(7, 10))


@pytest.fixture(scope="module")
def triples200(space10):
    return sample_triples(space10, SEED, 200)


def test_criterion_8_nqc_iff_star(space10, sigma10, triples200):
    makers = (neg_conditional_expectation, entropic_certainty_equivalent,
              cubed_mean_map, sqrt_log_map)
    atom_probs = sigma10.atom_probs(space10)
    agreements = []
    min_margin = math.inf
    fail_triples = 0
    for make in makers:
        rho = make(sigma10, space10)
        nqc = check_natural_quasiconvexity(rho, triples=triples200)
        star = check_star_quasiconvexity(rho, triples=triples200)
        agreements.append(nqc.verdict == star.verdict)
        for x, y, lam in triples200:
            r_x = rho.atom_values(x)
            r_y = rho.atom_values(y)
            r_m = rho.atom_values(lam * x + (1 - lam) * y)
            if nqc_mu_interval(r_x, r_y, r_m) is None:
                fail_triples += 1
                found = separating_dual_witness(r_x, r_y, r_m, atom_probs)
                assert found is not None
                min_margin = min(min_margin, found[1])
    ok = all(agreements) and (fail_triples == 0 or min_margin > 1e-6)
    report(8, "natural quasiconvexity matches dual scalarizations", ok,
           f"{fail_triples} failing triples, min separating margin "
           f"{min_margin if fail_triples else float('nan'):.2e}")


def test_criterion_9_nqc_iff_convexity(space10, sigma10, triples200):
    entropic = entropic_certainty_equivalent(sigma10, space10)
    ok_e = (check_natural_quasiconvexity(entropic, triples=triples200).passed
            and check_convexity(entropic, triples=triples200).passed)
    demo = sqrt_log_map(sigma10, space10)
    ok_d = (check_quasiconvexity(demo, triples=triples200).passed
            and check_locality(demo, budget=200).passed
            and check_natural_quasiconvexity(demo, triples=triples200).failed
            and check_convexity(demo, triples=triples200).failed)
    report(9, "natural quasiconvexity tracks convexity at desk scale",
           ok_e and ok_d)


def test_criterion_10_l2_fixture():
    block = build_example_10pt()
    vecs = block.basis
    gram = np.array([[block.space.inner(a, b) for b in vecs] for a in vecs])
    resid = float(np.abs(gram - np.eye(10)).max())
    ok_basis = len(vecs) == 10 and resid < 1e-12

    rho = neg_conditional_expectation(block.sigma(), block.space)
    ok_loc = (check_locality(rho, budget=500, rng=1).passed
              and check_basis_locality(rho, block, budget=500, rng=2).passed)

    split = build_example_10pt_split()
    coarse = conditional_expectation_map(PartitionSigma(split.cells),
                                         split.space,
                                         declared_sigma=refined_partition_10pt())
    counter = check_locality(coarse, budget=200, rng=3)
    ok_counter = (check_basis_locality(coarse, split, budget=200, rng=4).passed
                  and counter.failed and counter.witness is not None)
    if ok_counter:
        print(f"  locality counterexample witness: "
              f"event atoms {counter.witness['event_atoms']}, "
              f"violation {counter.witness['violation']:.3e}")

    ok_cone = check_cone_self_dual(block).passed
    report(10, "block-basis fixture: orthonormality, locality, cone", bool(
        ok_basis and ok_loc and ok_counter and ok_cone),
        f"residual {resid:.1e}")


CLI_CONFIG = """\
[space]
uniform = 10

[partition]
atoms = 1-4; 5-7; 8-10

[function s]
family = sqrt
domain = 1 4
grid = 31

[function l]
family = neglog
weight = 1.1
domain = 1 2.718281828459045
grid = 31

[measure m]
kind = entropic

[index]
function = s l

[sum-check]
functions = s l

[risk-check]
measure = m
budget = 60

[l2-demo]
fixture = paper10pt
measure = neg_cond_exp
budget = 60
samples = 60
"""


def test_criterion_11_reproducibility(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CLI_CONFIG)
    identical = []
    for command in ("index", "sum-check", "risk-check", "l2-demo"):
        a = tmp_path / f"{command}-a.json"
        b = tmp_path / f"{command}-b.json"
        brute = ["--brute"] if command == "sum-check" else []
        cli_main([command, "--config", str(cfg), "--seed", "11", *brute,
                  "--out", str(a)])
        cli_main([command, "--config", str(cfg), "--seed", "11", *brute,
                  "--out", str(b)])
        same = a.read_bytes() == b.read_bytes()
        identical.append(same)
        json.loads(a.read_text())  # reports must be valid JSON
    report(11, "seeded command-line runs are byte-identical", all(identical),
           f"{sum(identical)}/4 commands")
