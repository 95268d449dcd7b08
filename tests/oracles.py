"""Shared test oracles, independent of the library's own linear-algebra paths.

Everything here is deliberately written against plain numpy primitives
(``solve``, ``qr``, dense arithmetic) so that agreement between the library
and these helpers carries evidential weight: transfer values come from raw
linear solves, L2 norms from adaptive Simpson quadrature, characteristic
polynomials from the Faddeev-LeVerrier recursion.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# Transfer-function evaluation from first principles


def eval_transfer_np(s, z):
    """C (zE - A)^{-1} B + D via one dense solve, no library plumbing."""
    e, a, b, c, d = s.e, s.a, s.b, s.c, s.d
    if e.shape[0] == 0:
        return d.astype(complex)
    x = np.linalg.solve(z * e - a, b.astype(complex))
    return c @ x + d


def sample_diff_norms(s1, s2, omegas):
    """Spectral norm of G1(iw) - G2(iw) per frequency, from raw solves."""
    out = np.empty(len(omegas))
    for k, w in enumerate(omegas):
        diff = eval_transfer_np(s1, 1j * w) - eval_transfer_np(s2, 1j * w)
        out[k] = np.linalg.norm(diff, 2)
    return out


def sample_norms(s, omegas):
    """Spectral norm of G(iw) per frequency."""
    out = np.empty(len(omegas))
    for k, w in enumerate(omegas):
        out[k] = np.linalg.norm(eval_transfer_np(s, 1j * w), 2)
    return out


# ---------------------------------------------------------------------------
# Adaptive Simpson quadrature (iterative, evaluation-capped)


def adaptive_simpson(f, a, b, tol, max_evals=200_000):
    """Classic adaptive Simpson on [a, b] with absolute tolerance ``tol``."""
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    evals = [3]

    def simpson(x0, f0, x2, f2, f1):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, f0, x2, f2, f1, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        lm = f(0.5 * (x0 + x1))
        rm = f(0.5 * (x1 + x2))
        evals[0] += 2
        left = simpson(x0, f0, x1, f1, lm)
        right = simpson(x1, f1, x2, f2, rm)
        if depth <= 0 or evals[0] > max_evals:
            return left + right
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, f0, x1, f1, lm, left, 0.5 * eps, depth - 1) + recurse(
            x1, f1, x2, f2, rm, right, 0.5 * eps, depth - 1
        )

    whole = simpson(a, fa, b, fb, fm)
    return recurse(a, fa, b, fb, fm, whole, tol, 48)


def quad_l2_diff(s1, s2=None, reltol=1e-9):
    """Quadrature L2 norm of G1 - G2 (or of G1 alone) over the imaginary axis.

    Uses ||G||_2^2 = (1/pi) * int_0^inf ||G(iw)||_F^2 dw (real systems have
    even integrands), compactified by w = tan(theta). Only valid when the
    difference decays at infinity; callers ensure strict properness.
    """

    def integrand(theta):
        w = math.tan(theta)
        g = eval_transfer_np(s1, 1j * w)
        if s2 is not None:
            g = g - eval_transfer_np(s2, 1j * w)
        sec2 = 1.0 + w * w
        return float(np.sum(np.abs(g) ** 2)) * sec2

    hi = math.pi / 2.0 - 1e-9
    coarse = abs(integrand(1e-3)) + abs(integrand(1.0)) + abs(integrand(hi)) + 1e-30
    val = adaptive_simpson(integrand, 0.0, hi, reltol * coarse)
    return math.sqrt(max(val, 0.0) / math.pi)


# ---------------------------------------------------------------------------
# Eigenvalue multiset pairing


def assert_eigen_multisets_close(got, expected, tol=1e-8):
    """Greedy nearest-neighbour pairing of two complex multisets."""
    got = list(np.asarray(got, dtype=complex))
    expected = list(np.asarray(expected, dtype=complex))
    assert len(got) == len(expected), f"cardinality {len(got)} != {len(expected)}"
    for lam in expected:
        dists = [abs(g - lam) for g in got]
        k = int(np.argmin(dists))
        assert dists[k] <= tol * (1.0 + abs(lam)), (
            f"no eigenvalue near {lam}: best match {got[k]} at distance {dists[k]}"
        )
        got.pop(k)


def pencil_eigenvalues_np(e, a):
    """Second opinion on the finite spectrum of a pencil with invertible E.

    Uses numpy's standard eigensolver on E^{-1}A - a different path than any
    QZ factorization under test. Singular-E cases in the tests rely on
    hand-derived spectra instead.
    """
    if e.shape[0] == 0:
        return np.zeros(0, dtype=complex)
    return np.linalg.eigvals(np.linalg.solve(e, a))


# ---------------------------------------------------------------------------
# Random fixtures


def random_regular(rng, n, spread=(0.5, 2.0)):
    """Well-conditioned random regular matrix: orth * diag * orth."""
    if n == 0:
        return np.zeros((0, 0))
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q1 * rng.uniform(spread[0], spread[1], size=n)) @ q2


def random_antistable_tri(rng, n, lo=0.2, hi=3.0):
    """Upper-triangular matrix with prescribed positive real eigenvalues."""
    a = np.triu(rng.standard_normal((n, n)), 1)
    a[np.diag_indices(n)] = rng.uniform(lo, hi, size=n)
    return a
