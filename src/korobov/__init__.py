"""Korobov lattice rules for integration of analytic periodic functions.

The package constructs and evaluates rank-1 lattice rules in weighted
Korobov spaces whose Fourier coefficients decay exponentially: exact
worst-case errors with certified truncation bounds, exhaustive generator
searches, closed-form existence and information-complexity bounds, and
tractability diagnostics.
"""

from .bounds import (
    LAMBDA_GRID,
    BoundReport,
    empirical_info_complexity,
    error_bound,
    error_bound_min,
    info_complexity_bound,
    m_lambda,
    minkowski_start,
    product_bound,
)
from .errors import (
    CapExceededError,
    CertificateError,
    KorobovError,
    OracleInfeasibleError,
    SummationCapError,
)
from .lattice import (
    KorobovParam,
    LatticeRule,
    is_prime,
    korobov_vector,
    next_prime,
    primitive_root,
)
from .qmc import (
    FourierPolynomial,
    convergence_study,
    dual_witness,
    error_vs_wce,
    exact_qmc_error,
    product_cosine,
    qmc_apply,
    random_sparse,
)
from .search import SearchResult, mean_pow_error, search_general, search_korobov
from .space import (
    DEFAULT_TOL,
    WeightFamily,
    WeightModel,
    a_lambda,
    kernel,
    rho,
    theta,
)
from .tract import TractTrace, alg_classify, st_ratio_trace, wt_ratio_trace
from .wce import (
    ErrorEstimate,
    dominant_dual_frequency,
    dual_enum_work_estimate,
    korobov_survivors,
    wce2_dual_enum,
    wce2_kernel_double_sum,
    wce2_theta_product,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CapExceededError",
    "CertificateError",
    "DEFAULT_TOL",
    "ErrorEstimate",
    "FourierPolynomial",
    "KorobovError",
    "KorobovParam",
    "LAMBDA_GRID",
    "LatticeRule",
    "OracleInfeasibleError",
    "SearchResult",
    "SummationCapError",
    "TractTrace",
    "WeightFamily",
    "WeightModel",
    "a_lambda",
    "alg_classify",
    "convergence_study",
    "dominant_dual_frequency",
    "dual_enum_work_estimate",
    "dual_witness",
    "empirical_info_complexity",
    "error_bound",
    "error_bound_min",
    "error_vs_wce",
    "exact_qmc_error",
    "info_complexity_bound",
    "is_prime",
    "kernel",
    "korobov_survivors",
    "korobov_vector",
    "m_lambda",
    "mean_pow_error",
    "minkowski_start",
    "next_prime",
    "primitive_root",
    "product_bound",
    "product_cosine",
    "qmc_apply",
    "random_sparse",
    "rho",
    "search_general",
    "search_korobov",
    "st_ratio_trace",
    "theta",
    "wce2_dual_enum",
    "wce2_kernel_double_sum",
    "wce2_theta_product",
    "wt_ratio_trace",
]
