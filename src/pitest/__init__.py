"""One-way locally private independence testing from released covariance projections."""

from .errors import (
    CsvParseError,
    InsufficientSamplesError,
    InvalidInputError,
    PackageFormatError,
    PiTestError,
    ShapeError,
    UnsupportedVersionError,
)
from .estimators import (
    TestDecision,
    dcov_sq_closed_form,
    decide,
    rejection_threshold,
    s_hat,
)
from .privacy import (
    JlParams,
    PrivacyParams,
    jl_params,
    private_centered_sq_norm,
    private_sum_directional_variances,
    privatize_covariance_panels,
    tau,
    tau_mechanism,
)
from .bounds import BoundsReport, aggregate_coverage_probability, lower_bound_ratio, upper_bound_ratio
from .protocol import (
    FORMAT_VERSION,
    AlicePackage,
    TestReport,
    alice_stream,
    bob_evaluate,
    package_parts,
    read_package,
)
from .data import load_csv, save_csv, synthetic_pair
from .laws import factor_W
from .sweep import SWEEP_HEADER, SweepConfig, SweepRow, run_sweep

__version__ = "0.1.0"
