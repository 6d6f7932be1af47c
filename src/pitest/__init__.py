"""One-way locally private independence testing from released covariance projections."""

from .errors import (
    CsvParseError,
    DegenerateStatisticError,
    InsufficientSamplesError,
    InvalidInputError,
    PackageFormatError,
    PiTestError,
    ShapeError,
    UnsupportedVersionError,
)
from .matrices import (
    adjacency_W,
    centering_matrix,
    double_center,
    factor_S,
    factor_W,
    laplacian_S,
    laplacian_W,
    pairwise_sq_dist,
)
from .estimators import (
    DcovComponents,
    TestDecision,
    complete_graph_quadratic,
    dcov_components,
    dcov_sq_closed_form,
    dcov_sq_direct,
    dcov_sq_directional,
    dcov_sq_laplacian,
    dcov_sq_unbiased,
    decide,
    distance_correlation_sq,
    rejection_threshold,
    s_hat,
    s_hat_directional,
    test_statistic,
)
from .privacy import (
    JlParams,
    PrivacyParams,
    PrivateProjection,
    jl_params,
    private_centered_sq_norm,
    private_directional_variance,
    private_sum_directional_variances,
    privatize_covariance,
    tau,
    tau_mechanism,
)
from .bounds import (
    DistanceSpreadCheck,
    NaiveInterval,
    aggregate_coverage_probability,
    lower_bound_ratio,
    naive_ratio_interval,
    omega_le_s_condition,
    upper_bound_ratio,
)
from .protocol import (
    FORMAT_VERSION,
    AlicePackage,
    BoundsReport,
    TestReport,
    alice_prepare,
    bob_evaluate,
    deserialize_package,
    report_to_dict,
    serialize_package,
)
from .data import load_csv, save_csv, synthetic_pair
from .sweep import SWEEP_HEADER, SweepConfig, SweepRow, run_sweep

__version__ = "0.1.0"
