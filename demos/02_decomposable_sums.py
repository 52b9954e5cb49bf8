"""Walkthrough: quasiconvexity of blockwise sums from coordinate indices.

A sum f1(x1) + ... + fn(xn) of non-constant coordinates is quasiconvex
exactly when either every block is convex, or all blocks but one are convex
and the reciprocal index sum is nonpositive. Every decision below is
cross-checked against a brute-force scan of the full product grid.
"""

import math

import numpy as np

from qcx import (BoxDomain, DecomposableSum, brute_force_sum_quasiconvex,
                 characterize, families, harmonic_index, index_sum_criterion,
                 infinite_sum_criterion)

E = math.e

print("== two blocks: sqrt(x) - a*log(y), index sum = -1 + 1/a ==")
for a in (0.5, 0.9, 1.1, 2.0):
    ds = DecomposableSum((
        (families.sqrt(), BoxDomain.of(1, 4, 31)),
        (families.make_function("neglog", weight=a), BoxDomain.of(1, E, 31)),
    ))
    values = ds.index_values()
    verdict = index_sum_criterion(values)
    oracle = brute_force_sum_quasiconvex(ds)
    agree = "agrees" if ((verdict.decision.value == "quasiconvex")
                         == oracle.certified) else "DISAGREES"
    print(f"a={a:3.1f}: indices ({values[0]:+.3f}, {values[1]:+.3f}) -> "
          f"{verdict.decision.value:16s} oracle {oracle.verdict.value} ({agree})")
    if oracle.witness:
        w = oracle.witness
        print(f"        witness: {w.x1} / {w.x2} at eta={w.eta}, "
              f"excess {w.violation:.2e}")

print("\n== all blocks convex: the harmonic formula ==")
ds = DecomposableSum((
    (families.square(), BoxDomain.of(1, 2, 21)),
    (families.neglog(), BoxDomain.of(1, E, 21)),
))
from qcx import FunctionSpec, compute_index
joint = FunctionSpec(2, lambda p: p[:, 0] ** 2 - np.log(p[:, 1]))
joint_box = BoxDomain.of((1, 1), (2, E), (21, 21))
direct = compute_index(joint, joint_box).value
print(f"block indices: {ds.index_values()}")
print(f"harmonic formula: {harmonic_index([0.125, 1.0]):.5f} = 1/9")
print(f"direct 2-D grid index: {direct:.5f}")

print("\n== three blocks: the except-one rule needs the reciprocal form ==")
vec = [-0.25, 1.0, 1.0]
print(f"indices {vec}: plain sum {sum(vec):+.2f}, "
      f"reciprocal sum {sum(1 / c for c in vec):+.2f}")
print(f"characterize: {characterize(vec).decision.value} "
      f"(rule {characterize(vec).rule})")
vec = [-1.0, 0.5, 0.7]
print(f"indices {vec}: plain sum {sum(vec):+.2f} but reciprocal sum "
      f"{sum(1 / c for c in vec):+.2f} > 0")
print(f"characterize: {characterize(vec).decision.value} "
      "(the convex block aggregates harmonically, not additively)")

print("\n== infinite sums from a truncated index stream ==")

def stream():
    yield -0.5          # one non-convex block
    for i in range(2, 10 ** 6):
        yield float(i * i)   # reciprocals sum to pi^2/6 - 1

v = infinite_sum_criterion(stream(), n_max=100, tail_bound=1 / 100)
print(f"c1=-0.5, ci=i^2: {v.decision.value} at N=100 with integral tail "
      f"bound 1/N (margin {v.margin:+.4f})")
v = infinite_sum_criterion(iter([-1.0] + [1.0] * 50), n_max=50)
print(f"c1=-1, ci=1: {v.decision.value} (rule {v.rule})")
