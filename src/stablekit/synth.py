"""Synthetic test-system generator.

Builds random systems with a prescribed number of unstable poles by direct
spectral construction: a stable block (eigenvalue real parts in [-5, -0.1])
in direct sum with an antistable block (real parts in [0.1, 5]), mixed by a
random orthogonal similarity. Deterministic for a given seed.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .systems import DescriptorSystem

__all__ = [
    "random_orthogonal",
    "random_unstable_system",
]


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_orthogonal(rng, n: int) -> np.ndarray:
    """Haar-ish orthogonal matrix via sign-fixed QR of a Gaussian sample."""
    rng = _as_rng(rng)
    if n == 0:
        return np.zeros((0, 0))
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def _spectrum_block(rng: np.random.Generator, k: int, lo: float, hi: float) -> np.ndarray:
    """Block-diagonal matrix with eigenvalue real parts in [lo, hi].

    Mixes 1x1 real eigenvalues and 2x2 complex-pair blocks.
    """
    blocks = []
    left = k
    while left > 0:
        if left >= 2 and rng.random() < 0.5:
            re = rng.uniform(lo, hi)
            im = rng.uniform(0.1, 5.0)
            blocks.append(np.array([[re, im], [-im, re]]))
            left -= 2
        else:
            blocks.append(np.array([[rng.uniform(lo, hi)]]))
            left -= 1
    if not blocks:
        return np.zeros((0, 0))
    return scipy.linalg.block_diag(*blocks)


def random_unstable_system(
    n: int,
    n_unstable: int,
    seed,
    m: int = 1,
    p: int = 1,
    descriptor: bool = False,
) -> DescriptorSystem:
    """Random standard system with exactly ``n_unstable`` eigenvalues in Re > 0.

    With ``descriptor`` True, E, A and B are left-multiplied by a random
    well-conditioned invertible matrix, producing a genuine descriptor pair
    with the same spectrum and transfer function. The matrices are assembled
    first, so the model is validated and factored by one constructor call.
    """
    if not 0 <= n_unstable <= n:
        raise ValueError(f"need 0 <= n_unstable <= n, got {n_unstable} of {n}")
    rng = _as_rng(seed)
    k = n - n_unstable
    a = scipy.linalg.block_diag(
        _spectrum_block(rng, k, -5.0, -0.1), _spectrum_block(rng, n_unstable, 0.1, 5.0)
    )
    b1, c1 = rng.standard_normal((k, m)), rng.standard_normal((p, k))
    b2, c2 = rng.standard_normal((n_unstable, m)), rng.standard_normal((p, n_unstable))
    t = random_orthogonal(rng, n)
    e, a, b, c = np.eye(n), t @ a @ t.T, t @ np.vstack([b1, b2]), np.hstack([c1, c2]) @ t.T
    if descriptor:
        u, v = random_orthogonal(rng, n), random_orthogonal(rng, n)
        e = (u * rng.uniform(0.6, 1.6, size=n)) @ v.T
        a, b = e @ a, e @ b
    return DescriptorSystem(e, a, b, c, np.zeros((p, m)))
