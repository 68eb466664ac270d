"""Distributed-order fractional diffusion toolkit.

Solves initial-boundary value problems whose time derivative is a Caputo
derivative averaged over orders in (0, 1) against a density mu.  The weak
solution is assembled per eigenmode from inverse-Laplace relaxation kernels
evaluated on a deformed integration contour, cross-checked against a
real-axis spectral-density route and an independent time-stepping scheme.
"""

from .errors import DomainError, NumericError, PreconditionError
from .kernel import (
    ContourSpec,
    KernelConfig,
    KernelTable,
    an_threshold,
    build_kernel_table,
    check_g0c,
    choose_contour,
    eval_Gn_spectral,
    eval_kernel_block,
)
from .oracle import GridField, OracleConfig, compare, solve_oracle
from .solver import (
    ProblemSpec,
    SolutionField,
    Source,
    duhamel,
    estimate_decay_exponent,
    solve,
)
from .spectral import (
    EllipticCoefficients,
    SpectralBasis,
    build_exact_dirichlet,
    build_fd,
    fractional_norm,
    project,
    synthesize,
)
from .verify import SUITES, ExperimentReport
from .weight import (
    WeightFunction,
    check_symbol_bounds,
    eval_sw,
    eval_w,
    make_box_weight,
    make_constant_weight,
    make_tapered_weight,
    zeta_env,
    zeta_inv,
)

__version__ = "0.1.0"

__all__ = [
    "ContourSpec",
    "DomainError",
    "EllipticCoefficients",
    "ExperimentReport",
    "GridField",
    "KernelConfig",
    "KernelTable",
    "NumericError",
    "OracleConfig",
    "PreconditionError",
    "ProblemSpec",
    "SUITES",
    "SolutionField",
    "Source",
    "SpectralBasis",
    "WeightFunction",
    "an_threshold",
    "build_exact_dirichlet",
    "build_fd",
    "build_kernel_table",
    "check_g0c",
    "check_symbol_bounds",
    "choose_contour",
    "compare",
    "duhamel",
    "estimate_decay_exponent",
    "eval_Gn_spectral",
    "eval_kernel_block",
    "eval_sw",
    "eval_w",
    "fractional_norm",
    "make_box_weight",
    "make_constant_weight",
    "make_tapered_weight",
    "project",
    "solve",
    "solve_oracle",
    "synthesize",
    "zeta_env",
    "zeta_inv",
    "__version__",
]
