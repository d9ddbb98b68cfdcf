"""Exact Wasserstein-1 transport on the unit interval and unit circle.

Measures are represented by piecewise constant/exponential CDFs, which makes
both distances exactly computable: on the line as the L1 norm of the CDF
difference, on the circle by minimizing over the cut offset (a Lebesgue
median).  The harness reproduces the convergence rates of the base-b
mantissa distribution of 1..N toward its rotated exponential limit.

The package exports the harness, the CDF builders and the two distances;
every other name is imported from its own module.
"""

from .harness import (
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
from .logseq import build_nu, closed_form_cdf
from .measures import (
    DeltaProfile,
    PiecewiseCdf,
    build_empirical,
    cdf_of_empirical,
    cdf_wrapped_exponential,
    delta_profile,
    rotate_cdf,
)
from .transport import TransportResult, w1_circle, w1_line

__version__ = "0.1.0"

__all__ = [
    # harness
    "SweepConfig",
    "MetricsRow",
    "RateFit",
    "VerificationReport",
    "compute_metrics",
    "run_sweep",
    "verify",
    "fit_rate",
    "decade_grid",
    "read_csv",
    "write_csv",
    "line_rate_limit",
    # building the CDFs
    "build_nu",
    "closed_form_cdf",
    "PiecewiseCdf",
    "DeltaProfile",
    "build_empirical",
    "cdf_of_empirical",
    "cdf_wrapped_exponential",
    "delta_profile",
    "rotate_cdf",
    # distances
    "TransportResult",
    "w1_line",
    "w1_circle",
]
