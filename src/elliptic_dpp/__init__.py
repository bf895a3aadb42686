"""Elliptic determinantal point processes on circles and intervals.

Seven families of biorthogonal theta systems, their correlation kernels and
degeneration limits, and the equivalent noncolliding-bridge descriptions,
with a verification harness covering every identity the library relies on.
"""

__version__ = "0.1.0"

from .bridges import (bridge_density, ck_residual, matrix_identity_residual, r_matrix,
                      transition, transition_images)
from .dpp_kernels import (InfiniteKernelSpec, KernelSpec, SampleResult, bin_intensity, corr_det,
                          density, empirical_density, exact_sample, infinite_kernel, intensity,
                          kernel, kernel_matrix, sine_kernel, trig_kernel)
from .macdonald import denominator_residual, selberg_check
from .root_systems import FAMILIES, FamilySpec
from .theta_core import AccuracyError, eta_log, theta, theta_parts, theta_series
from .verification import CheckResult, run_suites

__all__ = [
    "AccuracyError",
    "CheckResult",
    "FAMILIES",
    "FamilySpec",
    "InfiniteKernelSpec",
    "KernelSpec",
    "SampleResult",
    "__version__",
    "bin_intensity",
    "bridge_density",
    "ck_residual",
    "corr_det",
    "denominator_residual",
    "density",
    "empirical_density",
    "eta_log",
    "exact_sample",
    "infinite_kernel",
    "intensity",
    "kernel",
    "kernel_matrix",
    "matrix_identity_residual",
    "r_matrix",
    "run_suites",
    "selberg_check",
    "sine_kernel",
    "theta",
    "theta_parts",
    "theta_series",
    "transition",
    "transition_images",
    "trig_kernel",
]
