"""qnlse: q-deformed nonlinear Schrodinger equations.

Closed-form free-particle solutions built from the deformed exponential
and its hypergeometric representation, scaled-residual verification of
every governing equation, and validated RK4 / method-of-lines
integrators with a vectorized numpy time march.

The public API is the ``__all__`` of each module that defines it:
``errors``, ``integrators``, ``qmath``, ``residuals`` and ``solutions``.
This package re-exports those names, and its ``__all__`` is their lists.
"""

from .errors import *  # noqa: F403
from .integrators import *  # noqa: F403
from .qmath import *  # noqa: F403
from .residuals import *  # noqa: F403
from .solutions import *  # noqa: F403

__version__ = "0.1.0"

__all__ = []
__all__ += errors.__all__  # noqa: F405
__all__ += integrators.__all__  # noqa: F405
__all__ += qmath.__all__  # noqa: F405
__all__ += residuals.__all__  # noqa: F405
__all__ += solutions.__all__  # noqa: F405
