"""Concordant monotone correlation over finite posets.

Exact computation of the CMC (maximum correlation over monotone transform
pairs) for finite joint distributions whose alphabets carry partial orders,
together with the classical measures it dominates, an independent
brute-force oracle, and verification suites for its structural properties.
"""

from .classic import (
    PairComparator,
    grades,
    kendall_tau_b,
    pair_rank_correlation,
    pearson,
    sign_comparator,
    spearman,
    x_grades,
    y_grades,
)
from .dist import (
    CorrelationReport,
    JointPmf,
    PairStats,
    ScoredPair,
    check_report,
    empirical_from_samples,
    joint_pmf,
    marginal_x,
    marginal_y,
    merge_pmf,
    pair_stats,
    product_pmf,
    strip_zero_support,
)
from .engine import (
    Candidate,
    CmcOptions,
    cmc_exact,
    cmc_plus,
    cmc_with_x_reversed,
    cmc_x_reversed,
    default_mgf_grid,
    mgf_bound_sup,
    mgf_rhs,
)
from .harness import (
    VerifyReport,
    example3_min_disagreement,
    random_instances,
    verify_example3,
    verify_fkg,
    verify_independence,
    verify_mgf,
    verify_rank_dominance,
    verify_sandwich,
    verify_tensorization,
)
from .maxcorr import maximal_correlation, residual_singular_pairs
from .oracle import OracleConfig, grid_oracle
from .order import (
    BlockPartition,
    Poset,
    antichain,
    enumerate_monotone_boolean,
    is_monotone,
    partition_from_blocks,
    poset_from_pairs,
    product,
    reverse,
    total_order,
)

__version__ = "0.1.0"
