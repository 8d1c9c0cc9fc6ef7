"""qnlse: q-deformed nonlinear Schrodinger equations.

Closed-form free-particle solutions built from the deformed exponential
and its hypergeometric representation, scaled-residual verification of
every governing equation, and validated RK4 / method-of-lines
integrators with a vectorized numpy time march.
"""

from .errors import (
    ConvergenceError,
    DegenerateStudyError,
    DomainError,
    PropagationError,
    QnlseError,
)
from .integrators import (
    ConvergenceReport,
    Frame,
    GridSpec,
    OdeSpaceCase,
    OdeTimeCase,
    PdeCase,
    Trajectory,
    convergence_study,
    fit_observed_order,
    integrate_separated_space,
    integrate_separated_time,
    interior_linf_error,
    manufactured_field,
    propagate,
    rk4_step,
    sample_field,
)
from .qmath import (
    HypParams,
    check_binomial_identity,
    cpow_principal,
    hyp2f1,
    hyp2f1_deriv,
    hyp2f1_series,
    q_exp,
    q_exp_real_cutoff,
)
from .residuals import (
    Analytic,
    DerivativeMethod,
    FiniteDifference,
    ResidualReport,
    fd_partial,
    hypergeom_ode_residual,
    new_nlse_phi_residual,
    new_nlse_residual,
    nrt_residual,
    scan_residual,
    separated_space_residual,
    separated_time_residual,
)
from .solutions import (
    FreeParticleSpec,
    SolutionKind,
    classical_plane_wave_field,
    product_solution_field,
    q_plane_wave_field,
    q_plane_wave_hypergeometric,
    separated_space_curve,
    separated_time_curve,
)

__version__ = "0.1.0"

__all__ = [
    "Analytic",
    "ConvergenceError",
    "ConvergenceReport",
    "DegenerateStudyError",
    "DerivativeMethod",
    "DomainError",
    "FiniteDifference",
    "Frame",
    "FreeParticleSpec",
    "GridSpec",
    "HypParams",
    "OdeSpaceCase",
    "OdeTimeCase",
    "PdeCase",
    "PropagationError",
    "QnlseError",
    "ResidualReport",
    "SolutionKind",
    "Trajectory",
    "check_binomial_identity",
    "classical_plane_wave_field",
    "convergence_study",
    "cpow_principal",
    "fd_partial",
    "fit_observed_order",
    "hyp2f1",
    "hyp2f1_deriv",
    "hyp2f1_series",
    "hypergeom_ode_residual",
    "integrate_separated_space",
    "integrate_separated_time",
    "interior_linf_error",
    "manufactured_field",
    "new_nlse_phi_residual",
    "new_nlse_residual",
    "nrt_residual",
    "product_solution_field",
    "propagate",
    "q_exp",
    "q_exp_real_cutoff",
    "q_plane_wave_field",
    "q_plane_wave_hypergeometric",
    "rk4_step",
    "sample_field",
    "scan_residual",
    "separated_space_curve",
    "separated_time_curve",
]
