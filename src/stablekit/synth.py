"""Synthetic test-system generator.

Builds random systems with a prescribed number of unstable poles by direct
spectral construction: a stable block (eigenvalue real parts in [-5, -0.1])
in direct sum with an antistable block (real parts in [0.1, 5]), mixed by a
random orthogonal similarity. Deterministic for a given seed.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .systems import DescriptorSystem, direct_sum, rse_transform

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


def _random_standard(
    rng: np.random.Generator, a: np.ndarray, m: int, p: int
) -> DescriptorSystem:
    n = a.shape[0]
    b = rng.standard_normal((n, m))
    c = rng.standard_normal((p, n))
    return DescriptorSystem(np.eye(n), a, b, c, np.zeros((p, m)))


def _orthogonal_mix(t: np.ndarray, s: DescriptorSystem) -> DescriptorSystem:
    """Orthogonal state-space similarity that keeps E = I bit-exact."""
    return DescriptorSystem(np.eye(s.n), t @ s.a @ t.T, t @ s.b, s.c @ t.T, s.d)


def random_unstable_system(
    n: int,
    n_unstable: int,
    seed,
    m: int = 1,
    p: int = 1,
    descriptor: bool = False,
) -> DescriptorSystem:
    """Random standard system with exactly ``n_unstable`` eigenvalues in Re > 0.

    With ``descriptor`` True the result is left-multiplied by a random
    well-conditioned invertible matrix, producing a genuine descriptor pair
    with the same spectrum and transfer function shape.
    """
    if not 0 <= n_unstable <= n:
        raise ValueError(f"need 0 <= n_unstable <= n, got {n_unstable} of {n}")
    rng = _as_rng(seed)
    a_stable = _spectrum_block(rng, n - n_unstable, -5.0, -0.1)
    a_anti = _spectrum_block(rng, n_unstable, 0.1, 5.0)
    s_stable = _random_standard(rng, a_stable, m, p)
    s_anti = _random_standard(rng, a_anti, m, p)
    s0 = direct_sum(s_stable, s_anti)
    t = random_orthogonal(rng, n)
    mixed = _orthogonal_mix(t, s0)
    if not descriptor:
        return mixed
    u = random_orthogonal(rng, n)
    v = random_orthogonal(rng, n)
    w = (u * rng.uniform(0.6, 1.6, size=n)) @ v.T
    return rse_transform(w, mixed, np.eye(n))
