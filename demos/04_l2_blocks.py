"""Walkthrough: block bases, two notions of locality, and the cone preorder.

The ten-outcome space is split into cells of sizes 4, 3, 3. Each cell gets a
one-dimensional measurable direction (the normalized cell indicator) and an
orthonormal complement inside the cell. Locality with respect to this basis
is an inner-product analogue of the classical event locality; the two agree
when the cells generate the sigma-algebra, and the split fixture shows they
differ for a coarse conditional expectation on a refined partition.
"""

import numpy as np

from qcx import (PartitionSigma, build_example_10pt, build_example_10pt_split,
                 check_basis_locality, check_cone_self_dual, check_locality,
                 check_nqc_wrt_preorder, conditional_expectation_map,
                 cone_leq, mean_broadcast_map, neg_conditional_expectation,
                 project_G_complement, refined_partition_10pt,
                 sample_triples, sqrt_log_map)

block = build_example_10pt()
space = block.space
print("== the ten-point block structure ==")
print(f"cells: {block.cells}")
print(f"e-block dims {block.e_dims}, beta-block dims "
      f"{tuple(len(c) - d for c, d in zip(block.cells, block.e_dims))}")
# one basis vector per row: the e-vectors cell by cell, then the beta-vectors
gram = (block.basis * space.p) @ block.basis.T
print(f"orthonormality residual: {np.abs(gram - np.eye(10)).max():.2e}")
rng = np.random.default_rng(0)
x = rng.normal(size=10)
coeffs = block.coordinates(x)
print(f"pythagoras residual on a random vector: "
      f"{abs(space.inner(x, x) - np.sum(coeffs ** 2)):.2e}")
# a cell's basis vectors span all that lives on it: projecting is restricting
on = block.row_cells == 0
restricted = np.where(block.sigma().labels == 0, x, 0.0)
print(f"projection onto the first cell minus x 1_C: "
      f"{np.abs(coeffs[on] @ block.basis[on] - restricted).max():.1e}")
xa = np.arange(1.0, 11.0)
print(f"measurable complement of (1..10): "
      f"{project_G_complement(xa, block.sigma(), space)}")

print("\n== classical vs basis locality ==")
rho = neg_conditional_expectation(block.sigma(), space)
print(f"neg conditional expectation: classical "
      f"{check_locality(rho, budget=100).verdict.value}, basis "
      f"{check_basis_locality(rho, block, budget=100).verdict.value}")
rho = mean_broadcast_map(block.sigma(), space)
print(f"mean broadcast (mixes cells): classical "
      f"{check_locality(rho, budget=100).verdict.value}, basis "
      f"{check_basis_locality(rho, block, budget=100).verdict.value}")

print("\n== the split fixture separates the two notions ==")
split = build_example_10pt_split()
coarse = conditional_expectation_map(PartitionSigma(split.cells), split.space,
                                     declared_sigma=refined_partition_10pt())
rep_basis = check_basis_locality(coarse, split, budget=100)
rep_classic = check_locality(coarse, budget=100)
print(f"coarse conditional expectation on the refined partition:")
print(f"  basis locality: {rep_basis.verdict.value}")
print(f"  classical locality: {rep_classic.verdict.value} "
      f"(event atoms {rep_classic.witness['event_atoms']})")

print("\n== the cone preorder from the e-coordinates ==")
e1 = block.basis[0]
y = rng.normal(size=10)
print(f"y <= y + e1: {cone_leq(y, y + e1, block)}; "
      f"y <= y - e1: {cone_leq(y, y - e1, block)}")
print(f"self-duality from the e-Gram matrix: "
      f"{check_cone_self_dual(block).verdict.value}")

print("\n== natural quasiconvexity with respect to the preorder ==")
triples = sample_triples(space, 0, 150)
for make in (neg_conditional_expectation, sqrt_log_map):
    rho = make(block.sigma(), space)
    rep = check_nqc_wrt_preorder(rho, block, triples=triples)
    line = f"{rho.name}: {rep.verdict.value}"
    if rep.details:
        line += (f" (convex wrt preorder: "
                 f"{rep.details['convexity_wrt_preorder']}, implication holds: "
                 f"{rep.details['implication_holds']})")
    print(line)
