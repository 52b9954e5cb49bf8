"""Convexity indices, decomposable sums, and conditional risk measures.

The package certifies convexity and quasiconvexity of extended-real
functions on box grids, computes the exact grid break-even convexity
index, decides quasiconvexity of additively decomposable sums from the
coordinate indices, and checks the property suite of conditional risk
measures on finite probability spaces, including natural quasiconvexity and
its dual-scalarization characterization, and the block-basis locality and
cone-preorder machinery on finite L2.

The package root re-exports the names the demos use; everything else is
imported from its module.
"""

from . import families
from .extcore import (BoxDomain, FunctionSpec, certify_concave, certify_convex,
                      certify_quasiconvex, convexity_gap, scale_function)
from .cindex import (classify, compute_index, r_lambda, scale_index,
                     smooth_index_1d)
from .decomp import (DecomposableSum, brute_force_sum_quasiconvex,
                     characterize, harmonic_index, index_sum_criterion,
                     infinite_sum_criterion)
from .spaces import FiniteProbSpace, PartitionSigma, conditional_expectation
from .riskmeasure import (blind_spot_map, check_convexity, check_locality,
                          check_monotonicity, check_natural_quasiconvexity,
                          check_quasiconvexity, check_sensitivity,
                          check_star_quasiconvexity, check_translativity,
                          conditional_expectation_map, cubed_mean_map,
                          entropic_certainty_equivalent, mean_broadcast_map,
                          neg_conditional_expectation, nqc_mu_interval,
                          sample_triples, separating_dual_witness,
                          sqrt_log_map)
from .l2basis import (build_example_10pt, build_example_10pt_split,
                      check_basis_locality, check_cone_self_dual,
                      check_nqc_wrt_preorder, cone_leq, project_G_complement,
                      refined_partition_10pt)

__version__ = "0.1.0"
