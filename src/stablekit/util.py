"""Small shared helpers: the working tolerance and matrix validation."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

__all__ = ["EPS", "TOL", "as_matrix", "require_square", "fro"]

#: Machine epsilon for IEEE binary64, the only scalar type used.
EPS = float(np.finfo(np.float64).eps)

#: The working tolerance of the package's rank and band decisions: which
#: eigenvalues are infinite (``kernels.pencil_eigendata``), the
#: imaginary-axis band (``systems.pencil_spectrum``), numeric ranks
#: (``kernels.svd``), residual checks, and the trimming of negligible
#: polynomial coefficients. No call takes another.
TOL = 1e-10


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce ``x`` to a 2-D float64 array and reject complex or non-finite entries.

    Scalars and 1-element nests are accepted and become 1x1 matrices, which
    keeps scalar examples readable in tests and docstrings.
    """
    if np.iscomplexobj(x):
        raise ValueError(f"{name} contains complex entries; only real matrices are supported")
    m = np.array(x, dtype=np.float64, order="C", copy=True)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    elif m.ndim == 1:
        # A bare vector is ambiguous; only the empty vector has a safe reading.
        raise DimensionMismatch(f"{name} must be 2-D, got shape {m.shape}")
    elif m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def require_square(m: np.ndarray, name: str = "matrix") -> int:
    """Return the order of a square matrix, raising DimensionMismatch otherwise."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    return m.shape[0]


def fro(m: np.ndarray) -> float:
    """Frobenius norm as a plain float (0.0 for empty matrices)."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, "fro"))
