"""Exact and Monte Carlo laboratory for cokernel fluctuations of random
block lower triangular integer matrices."""

from .exact_linalg import (
    BlockStructureError,
    CokernelPartition,
    cokernel_partition,
    padic_valuations,
    snf_diagonal,
    streaming_block_eliminate,
)
from .ensembles import (
    ConfigError,
    EnsembleSpec,
    EntryDistribution,
    build_bidiagonal_embedding,
    default_precision,
    draw_integers,
    product_factors,
    sample_block_matrix,
    sample_product,
)
from .experiments import (
    ComparisonSummary,
    ExperimentReport,
    MomentEstimate,
    TrialRecord,
    UnsettledTrial,
    compare_ensembles,
    hom_moment_of_trial,
    run_experiment,
    run_trial,
    total_variation,
    trial_records,
)
from .oracles import (
    verify_balanced_sums,
    verify_chain_claim,
    verify_cok_identity,
    verify_moment_identity,
    verify_residual_bound,
    verify_w0_decomposition,
    w0_chain_counts,
    wt_statistics,
)
from .pgroups import (
    AbelianPGroup,
    LatticeGuardError,
    SubgroupLattice,
    as_partition,
    chain_count,
    conjugate,
    ell,
    enumerate_subgroups,
    hom_count,
    subgroup_closure,
    subgroup_count,
)
from .theory import (
    FluctuationParams,
    LMomentValue,
    L_moment,
    centered_rank_vector,
    centering,
    limit_rescaled_hom_moment,
)

__version__ = "0.1.0"
