"""Small shared helpers: tolerance resolution and matrix validation."""

from __future__ import annotations

import os

import numpy as np

from .errors import DimensionMismatch

__all__ = ["EPS", "ENV_TOL", "default_tol", "as_matrix", "require_square", "fro"]

#: Machine epsilon for IEEE binary64, the only scalar type used.
EPS = float(np.finfo(np.float64).eps)

#: Environment variable overriding the package-wide default tolerance.
ENV_TOL = "STABLEKIT_TOL"


def default_tol(tol: float | None = None) -> float:
    """Resolve an effective tolerance.

    Precedence: explicit argument, then the ``STABLEKIT_TOL`` environment
    variable, then the package default ``1e-10``.
    """
    if tol is not None:
        tol = float(tol)
        if not (tol > 0.0) or not np.isfinite(tol):
            raise ValueError(f"tolerance must be a positive finite number, got {tol!r}")
        return tol
    env = os.environ.get(ENV_TOL)
    if env is not None:
        return default_tol(float(env))
    return 1e-10


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce ``x`` to a 2-D float64 array and reject non-finite entries.

    Scalars and 1-element nests are accepted and become 1x1 matrices, which
    keeps scalar examples readable in tests and docstrings.
    """
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


def _is_standard(e: np.ndarray, tol: float) -> bool:
    """Whether E is the identity to within ``tol * max(1, ||E||_F)``."""
    return fro(e - np.eye(e.shape[0])) <= tol * max(1.0, fro(e))
