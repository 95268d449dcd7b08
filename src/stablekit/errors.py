"""Exception taxonomy for stablekit.

Every failure mode raised by the library derives from :class:`StablekitError`
so callers (notably the CLI) can distinguish library failures from bugs.
"""

from __future__ import annotations

__all__ = [
    "StablekitError",
    "DimensionMismatch",
    "SingularPencil",
    "NoUniqueSolution",
    "SpectrumViolation",
    "NonSymmetricInput",
    "ConvergenceFailure",
    "AtPole",
    "SingularTransform",
    "AxisEigenvalue",
    "NegativeSpectrum",
    "NonzeroFeedthrough",
    "NonFiniteSample",
    "NotMinimal",
    "LeastSquaresInconsistent",
    "GammaTooSmall",
    "StructureViolation",
    "NotStandardForm",
    "ParseError",
]


class StablekitError(Exception):
    """Base class for all stablekit failures."""


class DimensionMismatch(StablekitError):
    """Matrix dimensions are inconsistent with the requested operation."""


class SingularPencil(StablekitError):
    """The pencil (E, A) is singular: det(sE - A) vanishes identically."""


class NoUniqueSolution(StablekitError):
    """A coupled Sylvester system is rank-deficient (spectra not disjoint)."""


class SpectrumViolation(StablekitError):
    """The pencil spectrum is outside the region required by the operation."""


class NonSymmetricInput(StablekitError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class ConvergenceFailure(StablekitError):
    """An iterative factorization failed to converge."""


class AtPole(StablekitError):
    """Transfer-function evaluation requested at (or too near) a pole."""

    def __init__(self, message: str, s: complex | None = None):
        super().__init__(message)
        self.s = s


class SingularTransform(StablekitError):
    """A system-equivalence transform matrix is numerically rank-deficient."""


class AxisEigenvalue(StablekitError):
    """A finite pencil eigenvalue lies inside the imaginary-axis band."""

    def __init__(self, eigenvalue: complex, message: str | None = None):
        self.eigenvalue = complex(eigenvalue)
        if message is None:
            message = (
                "eigenvalue lambda = "
                f"{self.eigenvalue.real:.6g}{self.eigenvalue.imag:+.6g}j "
                "lies on (or numerically on) the imaginary axis; "
                "stable approximation is not solvable"
            )
        super().__init__(message)


class NegativeSpectrum(StablekitError):
    """A product that must be positive semidefinite has a significantly
    negative eigenvalue, signalling an upstream Gramian failure."""


class NonzeroFeedthrough(StablekitError):
    """The L2 norm is infinite because the feedthrough term is nonzero."""


class NonFiniteSample(StablekitError):
    """A frequency-response sample is non-finite (near-axis pole)."""


class NotMinimal(StablekitError):
    """A Gramian (or Gramian cross-factor) is numerically singular."""


class LeastSquaresInconsistent(StablekitError):
    """An exactly-solvable least-squares system has a large residual,
    signalling a bad balanced form."""


class GammaTooSmall(StablekitError):
    """Requested gamma lies below the largest Hankel singular value."""


class StructureViolation(StablekitError):
    """Blocks guaranteed to vanish structurally are not numerically zero,
    signalling a misestimated sigma_1 or rank."""


class NotStandardForm(StablekitError):
    """The operation requires E = I but the system is a proper descriptor."""


class ParseError(StablekitError):
    """A model file is malformed."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
