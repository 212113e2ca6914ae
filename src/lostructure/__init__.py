"""Concentration functions of weighted sums and constructive structure
recovery over generalized arithmetic progressions.

The public surface mirrors the six areas of the library: exact rational
distributions and weight vectors, concentration estimators, the witness
functional beta with its compound-law bound, progression (GAP/CGAP)
geometry, the recovery pipelines, and the verification harness.
"""

from .concentration import (
    ConcentrationResult,
    ReductionPair,
    conc_ball_mc,
    conc_interval,
    conc_zero,
    empirical_window_max,
    esseen_upper,
    reduction_pair,
    regularity_factor,
    zero_tau_pair,
)
from .beta import (
    BetaResult,
    BoundReport,
    append_bound_ledger,
    beta,
    check_cp_bound,
    cp_bound_rhs,
    mass_outside,
    weighted_sum_bound_rhs,
)
from .config import Constants, RunConfig, calibrated_config, load_config
from .distributions import (
    AtomicMeasure,
    CompoundPoissonSpec,
    DiscreteDistribution,
    WeightVector,
    from_scalar_atoms,
    h_point_mass_zero,
    levy_measure_plain,
    levy_measure_star,
    point_mass,
    rademacher,
    sample_H_lambda,
    symmetrize,
    tail_mass,
    uniform_on,
    weighted_sum_law,
    weights_1d,
)
from .errors import (
    AtomCapExceeded,
    EmbeddingNotFound,
    EnumerationCapExceeded,
    InvalidSchedule,
    InvalidWindow,
    LostructureError,
    QuadratureFailure,
    SandwichNotFound,
    TrivialCase,
    UnsupportedRank,
)
from .gap import (
    Cgap,
    EmbeddingResult,
    Gap,
    ProductCgap,
    SymmetricPolytope,
    box_body,
    cgap_image,
    coverage_count,
    dilate,
    embed_proper,
    gap_1d,
    image,
    interval_body,
    is_infinitely_proper,
    is_proper,
    is_t_proper,
    lattice_points,
    mahler_sandwich,
    neighborhood_contains,
    size,
    vol,
    zero_cgap,
    zero_gap,
)
from .harness import (
    Instance,
    SUITES,
    SuiteReport,
    calibrate,
    gen_planted,
    report_csv,
    run_suite,
)
from .recovery import (
    CoordinateSchedule,
    LogRankReport,
    ProductRecoveryReport,
    RecoveryParams,
    RecoveryReport,
    log_rank_construct,
    make_params,
    recover,
    recover_multid,
    schedule_scaled_tau,
    schedule_zero_tau,
    select_m,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
