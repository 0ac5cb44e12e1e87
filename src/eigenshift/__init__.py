"""Dirichlet ground states of 1D Schrodinger operators on (a, t), the energy
curve over the moving right endpoint, and its endpoint derivatives."""

from .errors import (
    ConditioningError,
    ConfinementError,
    ConvergenceError,
    DomainError,
    EigenshiftError,
    RangeError,
    StructureError,
    TruncationError,
    UsageError,
)
from .ground_state import (
    Domain,
    Grid,
    GroundState,
    rayleigh_energy,
    richardson_lambda,
    solve_ground_state,
    truncate_domain,
)
from .potentials import (
    ConvexityClass,
    PotentialSpec,
    convexity_on,
    eval_V,
    eval_Vprime,
    make_potential,
    make_tabulated,
    parse_potential,
    validate_confinement,
)
from .sensitivity import (
    Sensitivity,
    compute_sensitivity,
    fd_derivatives,
    find_nodal_point,
    lambda_ddot,
    lambda_dot_flux,
    lambda_dot_integral,
    solve_u_dot,
)
from .sweep import (
    SweepResult,
    blowup_profile,
    sweep,
)
from .tolerances import DEFAULT_TOLS, Tolerances

__version__ = "0.1.0"

__all__ = [
    "ConditioningError", "ConfinementError", "ConvergenceError", "DomainError",
    "EigenshiftError", "RangeError", "StructureError", "TruncationError",
    "UsageError",
    "Domain", "Grid", "GroundState", "rayleigh_energy",
    "richardson_lambda", "solve_ground_state", "truncate_domain",
    "ConvexityClass", "PotentialSpec", "convexity_on",
    "eval_V", "eval_Vprime", "make_potential", "make_tabulated",
    "parse_potential", "validate_confinement",
    "Sensitivity", "compute_sensitivity", "fd_derivatives", "find_nodal_point",
    "lambda_ddot", "lambda_dot_flux", "lambda_dot_integral", "solve_u_dot",
    "SweepResult", "blowup_profile", "sweep",
    "DEFAULT_TOLS", "Tolerances",
    "__version__",
]
