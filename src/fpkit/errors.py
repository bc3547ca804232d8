"""Exception taxonomy for fpkit.

Every failure mode that callers are expected to branch on gets its own class.
All inherit from FpkError so CLI code can map any toolkit failure to a
numerical-failure exit without enumerating subclasses.
"""

from __future__ import annotations


class FpkError(Exception):
    """Base class for all fpkit errors."""


class EvaluationError(FpkError):
    """A field produced a non-finite value. Carries the offending point."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class EllipticityError(FpkError):
    """Diffusion matrix violated its declared ellipticity window."""


class ConfinementError(FpkError):
    """Drift confinement failed, e.g. the stationary normalization diverged."""


class InsufficientResolutionError(FpkError):
    """Too few small-radius samples to extrapolate the oscillation integral."""


class ConvergenceError(FpkError):
    """Linear or fixed-point solve failed to reach its residual target."""

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class SchemePositivityError(FpkError):
    """Discrete density needed more negative-mass clipping than allowed."""


class TruncationError(FpkError):
    """Domain truncation too aggressive: the boundary cells hold too much mass."""


class GridMismatchError(FpkError):
    """Two grid quantities with different grid specs were combined."""


class SupportError(FpkError):
    """A compactly supported test function leaks outside the grid box."""


class DegenerateDensityError(FpkError):
    """Density vanishes (or nearly) where a positive value is required."""


class IncompatibilityError(FpkError):
    """Reference density and discrete operator disagree beyond tolerance."""

    def __init__(self, message: str, projection_magnitude: float = 0.0):
        super().__init__(message)
        self.projection_magnitude = projection_magnitude


class EllipticityMarginError(FpkError):
    """Nonlocal perturbation would eat more than half the ellipticity margin."""


class NonContractionError(FpkError):
    """Fixed-point iteration hit max_iter with non-monotone gaps.

    Carries the gap sequence so callers can report it; deliberately does not
    guess a coupling threshold.
    """

    def __init__(self, message: str, gaps=None):
        super().__init__(message)
        self.gaps = list(gaps) if gaps is not None else []


class ValidationError(FpkError):
    """Configuration failed schema validation. Carries the offending key path."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path
