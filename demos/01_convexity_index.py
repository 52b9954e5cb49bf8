"""Walkthrough: grid certification and the convexity index.

The index of a function is the break-even value of lambda at which the
exponential transform exp(-lambda * f) switches its convexity character.
Nonnegative index = convex function; +inf = constant; the more negative the
index, the further from convex.
"""

import math

import numpy as np

from qcx import (BoxDomain, certify_convex, certify_quasiconvex, classify,
                 compute_index, convexity_gap, families, r_lambda,
                 scale_function, scale_index, smooth_index_1d)

E = math.e

print("== certifying convexity on a grid ==")
sqrt_fn = families.sqrt()
box = BoxDomain.of(1, 4, 129)
res = certify_convex(sqrt_fn, box)
print(f"sqrt on [1,4]: {res.verdict.value}")
print(f"  witness: mix of {res.witness.x1} and {res.witness.x2} at "
      f"eta={res.witness.eta} violates by {res.witness.violation:.4f}")
gap, _ = convexity_gap(sqrt_fn, [1.0], [4.0], 0.5)
print(f"  midpoint gap sqrt(2.5) - 1.5 = {gap:.4f}")
print(f"sqrt is still quasiconvex (monotone): "
      f"{certify_quasiconvex(sqrt_fn, box).verdict.value}")

print("\n== the exact grid index, with a smooth cross-check ==")
for f, lo, hi in [(families.sqrt(), 1, 4), (families.neglog(), 1, E),
                  (families.square(), 1, 2), (families.affine(), 0, 1),
                  (families.exp(), 0, 1)]:
    b = BoxDomain.of(lo, hi, 129)
    ix = compute_index(f, b)
    smooth = smooth_index_1d(f, b)
    cls = classify(ix)
    print(f"{f.name:12s} on [{lo:g},{hi:g}]: index {ix.value:+.5f} "
          f"(case {ix.case.value}, smooth oracle {smooth:+.5f}, "
          f"convex={cls.convex}, binding pair {ix.binding.x1[0]:.4f} "
          f"{ix.binding.x2[0]:.4f} eta {ix.binding.eta:g})")

print("\n== the transform family around the break-even point ==")
f = families.neglog()
b = BoxDomain.of(1, E, 65)
for lam in (0.5, 0.9, 1.0, 1.1, 2.0):
    r = r_lambda(f, lam)  # here r_lambda(y) = y ** lam
    from qcx import certify_concave
    verdict = certify_concave(r, b).verdict.value
    print(f"  lambda={lam:4.1f}: y^lambda concave? {verdict}")

print("\n== scaling: index of w*f is index(f)/w ==")
base = compute_index(families.sqrt(), box).value
for w in (0.5, 2.0, 10.0):
    got = compute_index(scale_function(families.sqrt(), w), box).value
    print(f"  w={w:4.1f}: computed {got:+.5f}, lemma {scale_index(base, w):+.5f}")
