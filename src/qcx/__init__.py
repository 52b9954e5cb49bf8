"""Convexity indices, decomposable sums, and conditional risk measures.

The package certifies convexity and quasiconvexity of extended-real
functions on box grids, computes the exact grid break-even convexity
index, decides quasiconvexity of additively decomposable sums from the
coordinate indices, and checks the property suite of conditional risk
measures on finite probability spaces, including natural quasiconvexity and
its dual-scalarization characterization, and the block-basis locality and
cone-preorder machinery on finite L2.
"""

from .errors import (AssumptionViolatedError, BudgetExceededError,
                     CapTooSmallWarning, ConfigError, ImproperFunctionError,
                     InfiniteIndexError, InverseMismatchError,
                     MissingDerivativesError, NegativeIndexError,
                     NotGMeasurableError, NotNormalizedError, QcxError,
                     RankDeficientError)
from .extreal import (ExtReal, NEG_INF, POS_INF, ext_combo, ext_exp,
                      ext_exp_neg, ext_inv, ext_mul, ext_sub, is_ext)
from .extcore import (BoxDomain, CertResult, DEFAULT_ETAS, FunctionSpec,
                      Verdict, Witness, certify_concave, certify_convex,
                      certify_quasiconvex, convexity_gap, default_gap_tol,
                      quasiconvexity_gap, scale_function)
from .cindex import (Classification, ConvexityIndex, IndexCase, classify,
                     compute_index, r_lambda, scale_index, smooth_index_1d)
from .decomp import (DecomposableSum, SumDecision, SumVerdict,
                     brute_force_sum_quasiconvex, characterize,
                     harmonic_index, index_sum_criterion,
                     infinite_sum_criterion)
from .families import FAMILIES, make_function
from .spaces import (FiniteProbSpace, PartitionSigma, conditional_expectation,
                     load_partition, load_scenario_table, parse_partition_text)
from .riskmeasure import (CheckVerdict, PropertyReport, RiskMeasureOracle,
                          TripleTable, blind_spot_map, certainty_equivalent,
                          check_assumption_nonconstant, check_convexity,
                          check_locality, check_monotonicity,
                          check_natural_quasiconvexity, check_quasiconvexity,
                          check_sensitivity, check_star_quasiconvexity,
                          check_translativity, conditional_expectation_map,
                          cubed_mean_map, entropic_certainty_equivalent,
                          infeasibility_depth, mean_broadcast_map,
                          neg_conditional_expectation, nqc_mu_interval,
                          sample_triples, separating_dual_witness,
                          sqrt_log_map)
from .l2basis import (BlockStructure, build_example_10pt,
                      build_example_10pt_split, blocks_from_generators,
                      check_basis_locality, check_cone_self_dual,
                      check_convexity_wrt_preorder, check_nqc_wrt_preorder,
                      cone_leq, gram_schmidt, load_block_structure,
                      project_G_complement, refined_partition_10pt,
                      save_basis_matrix)

__version__ = "0.1.0"
