"""Exception types raised by the solvers and the CLI."""


class EigenshiftError(Exception):
    """Base class for all package errors."""


class UsageError(EigenshiftError):
    """Malformed CLI flag, config key, or potential spec string (exit code 2)."""


class RangeError(EigenshiftError):
    """Evaluation point outside the range of a tabulated potential."""


class DomainError(EigenshiftError):
    """Invalid interval, e.g. a >= t or a truncation wall right of t."""


class ConfinementError(EigenshiftError):
    """Potential does not grow at -infinity, so no bound state on (-inf, t)."""


class ConvergenceError(EigenshiftError):
    """The eigensolve failed: LAPACK reported an error, the inverse iteration
    did not settle, or the computed pair is not the ground state or misses its
    residual cap."""


class TruncationError(EigenshiftError):
    """Leftward search for a converged truncation wall exceeded its cap."""


class StructureError(EigenshiftError):
    """Computed field violates a structural guarantee (e.g. wrong number of
    sign changes), signalling a numerical fault rather than a user error."""


class ConditioningError(EigenshiftError):
    """Bordered linear system produced an unreliable solution, or ``lam`` is
    not the smallest eigenvalue (the lifted matrix is not positive definite);
    either flags a degenerate eigenvalue or a bad ground-state solve."""
