"""Shared test oracles, independent of the library's own linear-algebra paths.

Everything here is deliberately written against plain numpy primitives
(``solve``, ``qr``, dense arithmetic) so that agreement between the library
and these helpers carries evidential weight: transfer values come from raw
linear solves, L2 norms from adaptive Simpson quadrature, Gramians from
dense Kronecker solves. The random fixtures build their systems through the
public constructor. ``response_at_infinity`` is a convenience over the
library's ``weierstrass_split``, not an independent oracle, and
``linf_error_sequential`` is the library's own L-infinity sampler with its
refinement run one point at a time, the bitwise reference for the lockstep
refinement. ``sylvester_on_general_pencils`` brings two general pencils to
real generalized Schur form with ``scipy.linalg.qz`` so that the library's
coupled Sylvester kernel, which takes Schur-form blocks only, can be tested
on them.

``perfbench_modules`` imports the benchmark's seeded models and its
correctness gate from ``perfbench/`` as they are, so tests can replay
benchmark cases and judge them by the same checks.

The balanced-coordinates construction (``glover_oracle``, on top of
``balanced_realization``) is the classical route to the optimal L-infinity
approximant. It shares only the Gramians with the library's balance-free
route, so the two agreeing checks the gamma-system assembly and its
singular reduction.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from stablekit import (
    AtPole,
    DescriptorSystem,
    FrequencyGrid,
    SpectrumViolation,
    StabilityClass,
    direct_sum,
    empty_system,
    frequency_response,
    gramians,
    pencil_spectrum,
    rse_transform,
    solve_generalized_sylvester,
    weierstrass_split,
)
from stablekit.gramians import (
    _INVPHI,
    _default_band,
    _difference_at_infinity,
    _spectral_norms,
)
from stablekit.synth import (
    _as_rng,
    _spectrum_block,
    random_orthogonal,
    random_unstable_system,
)
from stablekit.util import TOL

# the package root's ``gramians`` is the function, not the module
gramians_module = importlib.import_module("stablekit.gramians")

# ---------------------------------------------------------------------------
# Transfer-function evaluation from first principles


def eval_transfer_np(s, z):
    """C (zE - A)^{-1} B + D via one dense solve, no library plumbing."""
    e, a, b, c, d = s.e, s.a, s.b, s.c, s.d
    if e.shape[0] == 0:
        return d.astype(complex)
    x = np.linalg.solve(z * e - a, b.astype(complex))
    return c @ x + d


def transfer_eval(s, z):
    """Evaluate G(z) = C (zE - A)^{-1} B + D at one point.

    Raises AtPole when zE - A is numerically singular (condition number
    beyond 1/TOL territory).
    """
    if s.n == 0:
        return s.d.astype(complex)
    pencil = z * s.e.astype(complex) - s.a
    try:
        x = np.linalg.solve(pencil, s.b.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise AtPole(f"s = {z} is a pole of the transfer function", s=z) from exc
    cond = np.linalg.cond(pencil)
    if not np.isfinite(cond) or cond > 1.0 / TOL:
        raise AtPole(
            f"s = {z} is numerically at a pole (condition number {cond:.3e})", s=z
        )
    return s.c @ x + s.d


def response_at_infinity(s):
    """The limit of G(s) as s -> infinity, or None when G is unbounded there."""
    coeffs = weierstrass_split(s).coefficients
    if coeffs.shape[0] > 1:
        return None
    return coeffs[0]


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


def linf_error_sequential(s1, s2):
    """``linf_error`` with its three golden-section searches run one after another.

    The reference for the library's lockstep refinement: the same seed grid,
    a Python loop for the peak pick, one single-point ``frequency_response``
    call per refinement sample, and both finite parts sampled even when one
    has order 0. Reads the library's ``_SEED_POINTS`` and ``_RELTOL`` when
    called. Returns a ``FrequencyGrid`` that should match bit for bit.
    """
    wmin, wmax = _default_band(s1, s2)
    split1, split2 = weierstrass_split(s1), weierstrass_split(s2)
    value_at_inf = _difference_at_infinity(split1.coefficients, split2.coefficients)
    omegas = np.concatenate([[0.0], np.geomspace(wmin, wmax, gramians_module._SEED_POINTS)])

    def batch(ws):
        diff = frequency_response(split1.finite, ws) - frequency_response(split2.finite, ws)
        return _spectral_norms(diff)

    vals = batch(omegas)
    rec_w, rec_v = [omegas], [vals]
    k = omegas.size
    peaks = []
    for i in range(k):
        left = vals[i - 1] if i > 0 else -math.inf
        right = vals[i + 1] if i + 1 < k else -math.inf
        if vals[i] >= left and vals[i] >= right:
            peaks.append(i)
    peaks.sort(key=lambda i: (-vals[i], omegas[i]))

    def eval_one(w):
        v = batch(np.array([w]))
        rec_w.append(np.array([w]))
        rec_v.append(v)
        return float(v[0])

    for i in peaks[:3]:
        a = omegas[i - 1] if i > 0 else omegas[i]
        b = omegas[i + 1] if i + 1 < k else omegas[i]
        if b <= a:
            continue
        target = gramians_module._RELTOL * max(omegas[i], wmin)
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc = eval_one(c)
        fd = eval_one(d)
        while (b - a) > target:
            if fc < fd:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                fd = eval_one(d)
            else:
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                fc = eval_one(c)

    all_w, idx = np.unique(np.concatenate(rec_w), return_index=True)
    all_v = np.concatenate(rec_v)[idx]
    best = int(np.argmax(all_v))
    max_value, argmax_omega = float(all_v[best]), float(all_w[best])
    if value_at_inf > max_value:
        max_value, argmax_omega = float(value_at_inf), math.inf
    return FrequencyGrid(
        omegas=all_w, values=all_v, argmax_omega=argmax_omega, max_value=max_value,
        upper=math.inf, margin=0.0,
    )


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
# Coupled Sylvester equations on general pencils


def sylvester_on_general_pencils(a1, a3, e1, e3, a2, e2):
    """(R, L) with A1 R - L A3 = -A2 and E1 R - L E3 = -E2 for general pencils.

    ``scipy.linalg.qz`` brings each pencil to real generalized Schur form,
    A = Q S Z^T and E = Q T Z^T. The library's kernel, which takes such
    blocks only, solves for Z1^T R Z3 and Q1^T L Q3, which are transformed
    back here.
    """
    s1, t1, q1, z1 = scipy.linalg.qz(a1, e1, output="real")
    s3, t3, q3, z3 = scipy.linalg.qz(a3, e3, output="real")
    r, l = solve_generalized_sylvester(s1, s3, t1, t3, q1.T @ a2 @ z3, q1.T @ e2 @ z3)
    return z1 @ r @ z3.T, q1 @ l @ q3.T


# ---------------------------------------------------------------------------
# Gramians from dense Kronecker solves


def gramians_kron(s):
    """(Xc, Xo) solving A Xc E^T + E Xc A^T + B B^T = 0 and
    A^T Xo E + E^T Xo A + C^T C = 0 as n^2 x n^2 linear systems.

    With column-major vec, vec(M X N) = (N^T kron M) vec(X). Meant for
    n <= 12 or so: the solve costs O(n^6).
    """
    e, a, b, c = s.e, s.a, s.b, s.c
    n = e.shape[0]
    k_c = np.kron(e, a) + np.kron(a, e)
    k_o = np.kron(e.T, a.T) + np.kron(a.T, e.T)
    xc = np.linalg.solve(k_c, -(b @ b.T).ravel(order="F"))
    xo = np.linalg.solve(k_o, -(c.T @ c).ravel(order="F"))
    return xc.reshape((n, n), order="F"), xo.reshape((n, n), order="F")


def hankel_values_standard(a, b, c):
    """Hankel singular values, descending, of the antistable standard triple
    (A, B, C), from SciPy's Lyapunov solver on the stable mirror (-A, B, -C)."""
    p = scipy.linalg.solve_continuous_lyapunov(-a, -b @ b.T)
    q = scipy.linalg.solve_continuous_lyapunov(-a.T, -c.T @ c)
    mu = np.sort(np.linalg.eigvals(p @ q).real)[::-1]
    return np.sqrt(np.clip(mu, 0.0, None))


# A Hankel value within this relative distance of sigma_1 counts into its
# group. Tight enough that an antistable pair a few tolerances from the axis,
# whose two Hankel values lie 3e-10 apart relative, reads as two groups.
HANKEL_GROUP_RTOL = 1e-11


def hankel_multiplicity(values, rtol=HANKEL_GROUP_RTOL):
    """Size of the sigma_1 group among descending Hankel values."""
    return int(np.count_nonzero(values[0] - values <= rtol * values[0]))


def perfbench_modules():
    """The benchmark's ``models`` and ``gate`` modules, imported unchanged.

    The gate imports ``models`` by its bare name, so ``perfbench/`` goes on
    the import path.
    """
    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import gate
    import models

    return models, gate


# ---------------------------------------------------------------------------
# Random fixtures


def random_regular(rng, n, spread=(0.5, 2.0)):
    """Well-conditioned random regular matrix: orth * diag * orth."""
    if n == 0:
        return np.zeros((0, 0))
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q1 * rng.uniform(spread[0], spread[1], size=n)) @ q2


def random_conditioned(rng, n, cond):
    """Random n x n matrix whose singular values run log-evenly from 1 down to
    1 / ``cond``, so its condition number is ``cond`` (1 when n = 1)."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q1 * np.geomspace(1.0, 1.0 / cond, n)) @ q2


def bumped_descriptor_system(seed, n=12, n_unstable=6):
    """Seeded system with complex pairs (2x2 bumps) on both sides of the axis
    and an index-2 nilpotent block, mixed by random orthogonal factors."""
    rng = np.random.default_rng(seed)
    s = random_unstable_system(n, n_unstable, seed=rng, m=2, p=2)
    e0 = scipy.linalg.block_diag(np.eye(n), [[0.0, 1.0], [0.0, 0.0]])
    a0 = scipy.linalg.block_diag(s.a, np.eye(2))
    b0 = np.vstack([s.b, rng.standard_normal((2, 2))])
    c0 = np.hstack([s.c, rng.standard_normal((2, 2))])
    u, _ = np.linalg.qr(rng.standard_normal((n + 2, n + 2)))
    v, _ = np.linalg.qr(rng.standard_normal((n + 2, n + 2)))
    return DescriptorSystem(u @ e0 @ v, u @ a0 @ v, u @ b0, c0 @ v)


def _random_standard(rng, a, m, p):
    n = a.shape[0]
    b = rng.standard_normal((n, m))
    c = rng.standard_normal((p, n))
    return DescriptorSystem(np.eye(n), a, b, c, np.zeros((p, m)))


def _orthogonal_mix(t, s):
    """Orthogonal state-space similarity that keeps E = I bit-exact."""
    return DescriptorSystem(np.eye(s.n), t @ s.a @ t.T, t @ s.b, s.c @ t.T, s.d)


def random_antistable_system(n, seed, m=1, p=1):
    """Random standard antistable system (all eigenvalue real parts in [0.1, 5])."""
    rng = _as_rng(seed)
    a = _spectrum_block(rng, n, 0.1, 5.0)
    s0 = _random_standard(rng, a, m, p)
    return _orthogonal_mix(random_orthogonal(rng, n), s0)


def random_unstable_system_by_parts(n, n_unstable, seed, m=1, p=1, descriptor=False):
    """``synth.random_unstable_system`` built from validated systems, piece by piece.

    The same draws in the same order, through the public constructor at each
    stage: a standard system per block, their direct sum, the orthogonal
    mix and, with ``descriptor``, ``rse_transform`` by W on the left and I
    on the right. The bitwise reference for the generator, which assembles
    the matrices first and constructs once.
    """
    rng = _as_rng(seed)
    a_stable = _spectrum_block(rng, n - n_unstable, -5.0, -0.1)
    a_anti = _spectrum_block(rng, n_unstable, 0.1, 5.0)
    s0 = direct_sum(_random_standard(rng, a_stable, m, p), _random_standard(rng, a_anti, m, p))
    mixed = _orthogonal_mix(random_orthogonal(rng, n), s0)
    if not descriptor:
        return mixed
    u = random_orthogonal(rng, n)
    v = random_orthogonal(rng, n)
    w = (u * rng.uniform(0.6, 1.6, size=n)) @ v.T
    return rse_transform(w, mixed, np.eye(n))


def random_antistable_tri(rng, n, lo=0.2, hi=3.0):
    """Upper-triangular matrix with prescribed positive real eigenvalues."""
    a = np.triu(rng.standard_normal((n, n)), 1)
    a[np.diag_indices(n)] = rng.uniform(lo, hi, size=n)
    return a


# ---------------------------------------------------------------------------
# Balanced coordinates and the classical optimal approximant


# The balanced construction groups Hankel values within this relative
# distance of sigma_1 into the block it removes.
MULTIPLICITY_RTOL = 1e-8


class NotMinimal(Exception):
    """A Gramian (or the Gramian cross factor) is numerically singular."""


class NotStandardForm(Exception):
    """Balancing needs E = I."""


@dataclass(frozen=True)
class BalancedRealization:
    """Balanced antistable standard system with the sigma_1 group trailing.

    Gramians of ``system`` equal -diag(sigmas) with ``sigmas`` holding the
    smaller Hankel singular values first (descending) and the sigma_1 group
    (size ``r``, value ``h``) last. ``sigma_c``/``sigma_o`` are the leading
    (n-r) x (n-r) Gramian blocks (negative diagonal). ``t``/``t_inv`` map
    the original coordinates: A_bal = t_inv A t.
    """

    system: DescriptorSystem
    sigma_c: np.ndarray
    sigma_o: np.ndarray
    r: int
    h: float
    t: np.ndarray
    t_inv: np.ndarray


def balanced_realization(s: DescriptorSystem) -> BalancedRealization:
    """Square-root balancing of a minimal antistable standard system."""
    n = s.n
    if np.linalg.norm(s.e - np.eye(n)) > TOL * max(1.0, np.linalg.norm(s.e)):
        raise NotStandardForm("balancing requires E = I")
    rep = pencil_spectrum(s)
    if rep.stability_class is not StabilityClass.ANTISTABLE:
        raise SpectrumViolation(
            f"balancing requires an antistable system, got {rep.stability_class.value}"
        )
    gr = gramians(s)

    def factor(gram: np.ndarray, which: str) -> np.ndarray:
        w, v = np.linalg.eigh(0.5 * (-(gram) + -(gram).T))
        if w.size == 0:
            return np.zeros((0, 0))
        if w.min() <= TOL * max(w.max(initial=0.0), 0.0) or w.max(initial=0.0) <= 0.0:
            raise NotMinimal(f"{which} Gramian is numerically singular")
        return v * np.sqrt(w)

    up = factor(gr.xc, "controllability")
    lo = factor(gr.xo, "observability")
    w_svd, sig, vt = np.linalg.svd(lo.T @ up)
    if sig.size == 0 or sig[-1] <= TOL * sig[0]:
        raise NotMinimal("Gramian cross factor is numerically rank-deficient")
    sig_isqrt = 1.0 / np.sqrt(sig)
    t = up @ vt.T * sig_isqrt
    t_inv = (w_svd * sig_isqrt).T @ lo.T

    h = float(sig[0])
    r = int(np.count_nonzero(np.abs(sig - h) <= MULTIPLICITY_RTOL * h))
    order = np.concatenate([np.arange(r, n), np.arange(0, r)])
    t = t[:, order]
    t_inv = t_inv[order, :]
    sig = sig[order]

    a_b = t_inv @ s.a @ t
    b_b = t_inv @ s.b
    c_b = s.c @ t
    system = DescriptorSystem(np.eye(n), a_b, b_b, c_b, s.d)
    lead = -np.diag(sig[: n - r])
    return BalancedRealization(
        system=system,
        sigma_c=lead,
        sigma_o=lead.copy(),
        r=r,
        h=h,
        t=t,
        t_inv=t_inv,
    )


def glover_oracle(s: DescriptorSystem) -> DescriptorSystem:
    """Classical balanced-coordinates optimal approximant (cross-check).

    Balances the antistable system, splits off the sigma_1 group (size r),
    solves C2^T U = -B2 in the minimum-norm least-squares sense, and forms
    the order n - r stable system

        Gamma = S1 S2 - h^2 I,
        A~ = Gamma^{-1} (h^2 A11^T + S2 A11 S1 + h C1^T U B1^T),
        B~ = Gamma^{-1} (S2 B1 - h C1^T U),
        C~ = C1 S1 - h U B1^T,         D~ = D + h U,

    whose distance to the input is exactly h = sigma_1.
    """
    bal = balanced_realization(s)
    n = s.n
    r = bal.r
    nb = n - r
    a_b = np.asarray(bal.system.a)
    b_b = np.asarray(bal.system.b)
    c_b = np.asarray(bal.system.c)
    a11 = a_b[:nb, :nb]
    b1 = b_b[:nb, :]
    b2 = b_b[nb:, :]
    c1 = c_b[:, :nb]
    c2 = c_b[:, nb:]
    h = bal.h

    gram_gap = np.linalg.norm(b2 @ b2.T - c2.T @ c2)
    gram_scale = max(1.0, np.linalg.norm(b2) ** 2, np.linalg.norm(c2) ** 2)
    if gram_gap > 1e-8 * gram_scale:
        raise AssertionError(
            f"balanced sigma_1 blocks violate B2 B2^T = C2^T C2 by {gram_gap:.3e}"
        )
    u_m, *_ = np.linalg.lstsq(c2.T, -b2, rcond=None)
    resid = np.linalg.norm(c2.T @ u_m + b2)
    if resid > TOL * max(1.0, np.linalg.norm(b2)):
        raise AssertionError(
            f"C2^T U = -B2 is inconsistent (residual {resid:.3e}); "
            "the balanced form is unreliable"
        )
    d_t = s.d + h * u_m
    if nb == 0:
        return empty_system(s.m, s.p, d_t)
    s1 = bal.sigma_c
    s2 = bal.sigma_o
    gamma_m = s1 @ s2 - h**2 * np.eye(nb)
    a_t = scipy.linalg.solve(gamma_m, h**2 * a11.T + s2 @ a11 @ s1 + h * c1.T @ u_m @ b1.T)
    b_t = scipy.linalg.solve(gamma_m, s2 @ b1 - h * c1.T @ u_m)
    c_t = c1 @ s1 - h * u_m @ b1.T
    return DescriptorSystem(np.eye(nb), a_t, b_t, c_t, d_t)
