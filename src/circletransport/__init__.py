"""Exact Wasserstein-1 transport on the unit interval and unit circle.

Measures are represented by piecewise constant/exponential CDFs, which makes
both distances exactly computable: on the line as the L1 norm of the CDF
difference, on the circle by minimizing over the cut offset (a Lebesgue
median).  The harness reproduces the convergence rates of the base-b
mantissa distribution of 1..N toward its rotated exponential limit.
"""

from .harness import (
    CIRCLE_SQRT_BOUND,
    MetricsRow,
    RateFit,
    SweepConfig,
    VerificationReport,
    compute_metrics,
    decade_grid,
    fit_rate,
    line_rate_limit,
    read_csv,
    run_sweep,
    verify,
    write_csv,
)
from .logseq import (
    LogSequenceSpec,
    build_nu,
    closed_form_cdf,
    digit_count,
    frac_log,
    reference_rotation,
    significand_count,
)
from .measures import (
    ATOM_MERGE_TOL,
    CircleEmpirical,
    DeltaProfile,
    PiecewiseCdf,
    build_empirical,
    cdf_of_empirical,
    cdf_wrapped_exponential,
    delta_profile,
    eval_cdf,
    rotate_cdf,
)
from .oracle import (
    AtomList,
    discrete_w1_circle,
    discrete_w1_line,
    equivalence_trials,
    grid_minimize_offset,
    quantile_discretize,
)
from .summation import compensated_sum
from .transport import (
    TransportResult,
    cut_distance,
    integral_abs,
    level_measure,
    median_offset,
    w1_circle,
    w1_line,
)

__version__ = "0.1.0"

__all__ = [
    "ATOM_MERGE_TOL",
    "AtomList",
    "CircleEmpirical",
    "CIRCLE_SQRT_BOUND",
    "DeltaProfile",
    "LogSequenceSpec",
    "MetricsRow",
    "PiecewiseCdf",
    "RateFit",
    "SweepConfig",
    "TransportResult",
    "VerificationReport",
    "build_empirical",
    "build_nu",
    "cdf_of_empirical",
    "cdf_wrapped_exponential",
    "closed_form_cdf",
    "compensated_sum",
    "compute_metrics",
    "cut_distance",
    "decade_grid",
    "delta_profile",
    "digit_count",
    "discrete_w1_circle",
    "discrete_w1_line",
    "equivalence_trials",
    "eval_cdf",
    "fit_rate",
    "frac_log",
    "grid_minimize_offset",
    "integral_abs",
    "level_measure",
    "line_rate_limit",
    "median_offset",
    "quantile_discretize",
    "read_csv",
    "reference_rotation",
    "rotate_cdf",
    "run_sweep",
    "significand_count",
    "verify",
    "w1_circle",
    "w1_line",
    "write_csv",
]
