"""Exception types shared across the package."""

__all__ = [
    "ConvergenceError", "DegenerateStudyError", "DomainError", "PropagationError", "QnlseError"
]


class QnlseError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QnlseError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConvergenceError(QnlseError, RuntimeError):
    """An iterative evaluation exhausted its budget without converging."""


class PropagationError(QnlseError, RuntimeError):
    """A time integration blew up or produced a non-finite value."""


class DegenerateStudyError(QnlseError, ValueError):
    """A convergence study cannot be fitted (resolutions or errors that are
    not positive, resolutions whose logs coincide, or errors that do not
    fall strictly under refinement)."""
