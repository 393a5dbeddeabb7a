"""Exception types shared across the toolkit.

Everything derives from ToolkitError so callers (and the CLI) can catch the
package's own failures without swallowing genuine bugs.
"""

from __future__ import annotations

import numpy as np


class ToolkitError(Exception):
    pass


class DimensionError(ToolkitError, ValueError):
    """Subsystem dimensions do not match the operation's requirements."""


class ContractError(ToolkitError, ValueError):
    """An input violates a declared precondition (hermiticity, PSD, ...)."""


class SupportError(ContractError):
    """An operator sticks out of the support it must live on.

    ``direction`` holds the offending unit vector so the caller can see
    where the support condition fails.
    """

    def __init__(self, message: str, direction: np.ndarray | None = None):
        super().__init__(message)
        self.direction = direction


class ImaginaryResidueError(ToolkitError, ArithmeticError):
    """A quantity that must be real came out with a large imaginary part."""


class VanishingSuccessError(ToolkitError, ArithmeticError):
    """Success probability below the configured threshold."""


class CutoffError(ToolkitError, ValueError):
    """A Fock-space construction does not fit under the requested cutoff.

    ``suggested_n_max`` carries a cutoff that would (estimated) succeed;
    the message names it too, so every report of the error shows it.
    """

    def __init__(self, message: str, suggested_n_max: int | None = None):
        if suggested_n_max is not None:
            message = f"{message}; suggested cutoff n_max={suggested_n_max}"
        super().__init__(message)
        self.suggested_n_max = suggested_n_max


class SearchError(ToolkitError, RuntimeError):
    """An iterative search failed to converge; ``best`` is the best iterate."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best
