"""Generalized Gramians, Hankel data, norm evaluation, and balancing.

The Gramians of an antistable descriptor system solve

    A Xc E^T + E Xc A^T + B B^T = 0,      A^T Xo E + E^T Xo A + C^T C = 0,

and are negative semidefinite. The largest Hankel singular value is
sigma_1 = sqrt(max eig(Xc E^T Xo E)), a realization invariant. Norms:
the L2 norm of a strictly proper antistable transfer is
sqrt(trace(C (-Xc) C^T)); the L-infinity norm is evaluated by adaptive
sampling of the frequency response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AtPole,
    NegativeSpectrum,
    NonFiniteSample,
    NonzeroFeedthrough,
    NotMinimal,
    NotStandardForm,
    SpectrumViolation,
)
from .kernels import solve_generalized_lyapunov
from .systems import (
    DescriptorSystem,
    StabilityClass,
    _mirror,
    additive_decompose,
    empty_system,
    frequency_response,
    pencil_spectrum,
    transfer_polynomial_part,
)
from .util import _is_standard, default_tol, fro

__all__ = [
    "GramianPair",
    "HankelData",
    "FrequencyGrid",
    "BalancedRealization",
    "gramians",
    "hankel_sigma_max",
    "h2_norm_antistable",
    "linf_error",
    "linf_of",
    "rl2_norm",
    "balanced_realization",
]


# ---------------------------------------------------------------------------
# Gramians


@dataclass(frozen=True)
class GramianPair:
    """Controllability/observability Gramians with equation residuals."""

    xc: np.ndarray
    xo: np.ndarray
    residual_c: float
    residual_o: float


def gramians(s: DescriptorSystem, tol: float | None = None) -> GramianPair:
    """Solve both generalized Lyapunov equations of an antistable system."""
    tol = default_tol(tol)
    rep = pencil_spectrum(s, tol)
    if rep.stability_class is not StabilityClass.ANTISTABLE:
        raise SpectrumViolation(
            "Gramians are defined here only for antistable systems; "
            f"spectrum classifies as {rep.stability_class.value}"
        )
    wc = s.b @ s.b.T
    wo = s.c.T @ s.c
    xc = solve_generalized_lyapunov(s.e, s.a, wc, "controllability", tol)
    xo = solve_generalized_lyapunov(s.e, s.a, wo, "observability", tol)
    res_c = fro(s.a @ xc @ s.e.T + s.e @ xc @ s.a.T + wc)
    res_o = fro(s.a.T @ xo @ s.e + s.e.T @ xo @ s.a + wo)
    return GramianPair(xc=xc, xo=xo, residual_c=res_c, residual_o=res_o)


# ---------------------------------------------------------------------------
# Hankel data


@dataclass(frozen=True)
class HankelData:
    """Largest Hankel singular value and the spectrum it came from.

    ``spectrum`` holds the (real, nonnegative, descending) eigenvalues of
    Xc E^T Xo E; ``sigma1`` is the square root of its maximum;
    ``multiplicity_estimate`` counts eigenvalues within 1e-8 relative of
    sigma1**2 — the size of the group that decides the singular branch.
    """

    sigma1: float
    spectrum: np.ndarray
    multiplicity_estimate: int


_MULTIPLICITY_RTOL = 1e-8


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def hankel_sigma_max(
    s: DescriptorSystem, gr: GramianPair, tol: float | None = None
) -> HankelData:
    """sigma_1 = sqrt(max eig(Xc E^T Xo E)) via a symmetrized product.

    When -Xc is (numerically) positive semidefinite the eigenvalues are
    computed from the congruent symmetric matrix
    (-Xc)^{1/2} E^T (-Xo) E (-Xc)^{1/2}, which preserves the nonnegativity
    the theory guarantees; otherwise falls back to the direct nonsymmetric
    eigensolve with real-part clamping.
    """
    tol = default_tol(tol)
    n = s.n
    if n == 0:
        return HankelData(sigma1=0.0, spectrum=np.zeros(0), multiplicity_estimate=0)
    neg_floor = tol * max(fro(gr.xc) * fro(gr.xo), 1.0)
    wc = np.linalg.eigvalsh(0.5 * (-(gr.xc) + -(gr.xc).T))
    if wc.min() >= -tol * max(1.0, wc.max(initial=0.0)):
        root = _psd_sqrt(-gr.xc)
        core = root @ s.e.T @ (-gr.xo) @ s.e @ root
        mu = np.linalg.eigvalsh(0.5 * (core + core.T))
    else:  # pragma: no cover - defensive; theory gives -Xc >= 0
        mu = np.linalg.eigvals(gr.xc @ s.e.T @ gr.xo @ s.e).real
    mu = np.sort(mu)[::-1]
    if mu.size and mu[-1] < -neg_floor:
        raise NegativeSpectrum(
            f"Hankel spectrum has eigenvalue {mu[-1]:.3e} below -{neg_floor:.3e}; "
            "Gramian computation failed upstream"
        )
    mu = np.clip(mu, 0.0, None)
    top = mu[0] if mu.size else 0.0
    mult = int(np.count_nonzero(np.abs(mu - top) <= _MULTIPLICITY_RTOL * max(top, 0.0)))
    return HankelData(sigma1=math.sqrt(top), spectrum=mu, multiplicity_estimate=mult)


# ---------------------------------------------------------------------------
# L2 norm


def h2_norm_antistable(
    s: DescriptorSystem, gr: GramianPair, tol: float | None = None
) -> float:
    """L2 norm of a strictly proper antistable transfer: sqrt(tr(C (-Xc) C^T))."""
    tol = default_tol(tol)
    if fro(s.d) > tol:
        raise NonzeroFeedthrough(
            "the L2 norm is infinite for nonzero feedthrough "
            f"(||D|| = {fro(s.d):.3e})"
        )
    val = float(np.trace(s.c @ (-gr.xc) @ s.c.T)) if s.n else 0.0
    return math.sqrt(max(val, 0.0))


def rl2_norm(s: DescriptorSystem, tol: float | None = None) -> float:
    """L2 norm of an arbitrary axis-pole-free transfer; inf when unbounded.

    Finite exactly when the response vanishes at infinity; then the squared
    norm splits over the stable/antistable parts (they are orthogonal in L2),
    and the stable half is evaluated through its mirror G_plus(-s), whose
    antistable part has the same norm.
    """
    tol = default_tol(tol)
    coeffs = transfer_polynomial_part(s, tol)
    feed_scale = tol * (1.0 + fro(s.b) * fro(s.c) + fro(s.d))
    if coeffs.shape[0] > 1 or fro(coeffs[0]) > feed_scale:
        return float("inf")
    dec = additive_decompose(s, tol)
    total = 0.0
    if dec.s_minus.n > 0:
        total += h2_norm_antistable(dec.s_minus, gramians(dec.s_minus, tol), tol) ** 2
    if dec.s_plus.n > 0:
        flip = additive_decompose(_mirror(dec.s_plus), tol).s_minus
        if flip.n > 0:
            total += h2_norm_antistable(flip, gramians(flip, tol), tol) ** 2
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# L-infinity norm by sampling + refinement


@dataclass(frozen=True)
class FrequencyGrid:
    """Evaluated frequencies (sorted), their response norms, and the max."""

    omegas: np.ndarray
    values: np.ndarray
    argmax_omega: float
    max_value: float


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _spectral_norms(g: np.ndarray) -> np.ndarray:
    if g.shape[1] == 0 or g.shape[2] == 0:
        return np.zeros(g.shape[0])
    return np.linalg.svd(g, compute_uv=False)[:, 0]


def _pole_scale(*systems: DescriptorSystem, tol: float | None = None) -> float:
    rho = 1.0
    for s in systems:
        fin = pencil_spectrum(s, tol).finite_eigenvalues
        if fin.size:
            rho = max(rho, float(np.abs(fin).max()))
    return rho


def _difference_at_infinity(
    s1: DescriptorSystem, s2: DescriptorSystem, tol: float
) -> float:
    """Spectral norm of G1 - G2 at infinity; inf when the difference is unbounded."""
    c1 = transfer_polynomial_part(s1, tol)
    c2 = transfer_polynomial_part(s2, tol)
    length = max(c1.shape[0], c2.shape[0])
    p, m = s1.p, s1.m
    pad1 = np.zeros((length, p, m))
    pad2 = np.zeros((length, p, m))
    pad1[: c1.shape[0]] = c1
    pad2[: c2.shape[0]] = c2
    diff = pad1 - pad2
    for i in range(1, length):
        bound = tol * (1.0 + fro(pad1[i]) + fro(pad2[i]))
        if fro(diff[i]) > bound:
            return float("inf")
    if p == 0 or m == 0:
        return 0.0
    return float(np.linalg.norm(diff[0], 2))


def linf_error(
    s1: DescriptorSystem,
    s2: DescriptorSystem,
    wmin: float | None = None,
    wmax: float | None = None,
    n0: int = 512,
    reltol: float = 1e-8,
    tol: float | None = None,
) -> FrequencyGrid:
    """Sampled L-infinity norm of the difference G1 - G2.

    ``wmin``/``wmax`` default to 1e-6 and 1e6 times the magnitude scale of
    the finite poles of both systems (floored at 1). Seeds a log grid of
    ``n0`` points (omega = 0 always included), then runs golden-section
    refinement around the top three local maxima (ties broken toward lower
    omega) until the bracket is below ``reltol`` relative to its location.
    The reported maximum also covers the difference at omega = infinity,
    which is infinite when G1 - G2 is improper. Raises NonFiniteSample if
    any sample at finite omega is not finite.
    """
    tol = default_tol(tol)
    if s1.m != s2.m or s1.p != s2.p:
        raise SpectrumViolation(
            "error norm needs matching input/output counts, got "
            f"({s1.m},{s1.p}) and ({s2.m},{s2.p})"
        )
    scale = _pole_scale(s1, s2, tol=tol)
    value_at_inf = _difference_at_infinity(s1, s2, tol)
    wmin = float(wmin) if wmin is not None else 1e-6 * scale
    wmax = float(wmax) if wmax is not None else 1e6 * scale
    if not (0.0 < wmin < wmax):
        raise ValueError(f"need 0 < wmin < wmax, got [{wmin}, {wmax}]")
    omegas = np.concatenate([[0.0], np.geomspace(wmin, wmax, int(n0))])

    def batch(ws: np.ndarray) -> np.ndarray:
        try:
            diff = frequency_response(s1, ws) - frequency_response(s2, ws)
        except AtPole as exc:
            raise NonFiniteSample(str(exc)) from exc
        vals = _spectral_norms(diff)
        if not np.isfinite(vals).all():
            w_bad = ws[~np.isfinite(vals)][0]
            raise NonFiniteSample(
                f"response norm is not finite at omega = {w_bad:.6g} "
                "(pole on or near the imaginary axis)"
            )
        return vals

    vals = batch(omegas)
    rec_w = [omegas]
    rec_v = [vals]

    k = omegas.size
    peaks = []
    for i in range(k):
        left = vals[i - 1] if i > 0 else -math.inf
        right = vals[i + 1] if i + 1 < k else -math.inf
        if vals[i] >= left and vals[i] >= right:
            peaks.append(i)
    peaks.sort(key=lambda i: (-vals[i], omegas[i]))

    def eval_one(w: float) -> float:
        v = batch(np.array([w]))
        rec_w.append(np.array([w]))
        rec_v.append(v)
        return float(v[0])

    for i in peaks[:3]:
        a = omegas[i - 1] if i > 0 else omegas[i]
        b = omegas[i + 1] if i + 1 < k else omegas[i]
        if b <= a:
            continue
        target = reltol * max(omegas[i], wmin)
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

    # sorted and deduplicated, keeping the first sample of a repeated omega
    all_w, idx = np.unique(np.concatenate(rec_w), return_index=True)
    all_v = np.concatenate(rec_v)[idx]

    best = int(np.argmax(all_v))  # ties resolve to the lowest omega
    max_value = float(all_v[best])
    argmax_omega = float(all_w[best])
    if value_at_inf > max_value:
        max_value = float(value_at_inf)
        argmax_omega = math.inf
    return FrequencyGrid(
        omegas=all_w, values=all_v, argmax_omega=argmax_omega, max_value=max_value
    )


def linf_of(
    s: DescriptorSystem,
    wmin: float | None = None,
    wmax: float | None = None,
    n0: int = 512,
    reltol: float = 1e-8,
    tol: float | None = None,
) -> FrequencyGrid:
    """Sampled L-infinity norm of a single transfer function: the error to G = 0."""
    return linf_error(s, empty_system(s.m, s.p), wmin, wmax, n0, reltol, tol)


# ---------------------------------------------------------------------------
# Balanced realization (square-root method, antistable sign convention)


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


def balanced_realization(
    s: DescriptorSystem, tol: float | None = None
) -> BalancedRealization:
    """Square-root balancing of a minimal antistable standard system."""
    tol = default_tol(tol)
    n = s.n
    if not _is_standard(s.e, tol):
        raise NotStandardForm("balancing requires E = I")
    rep = pencil_spectrum(s, tol)
    if rep.stability_class is not StabilityClass.ANTISTABLE:
        raise SpectrumViolation(
            f"balancing requires an antistable system, got {rep.stability_class.value}"
        )
    gr = gramians(s, tol)

    def factor(gram: np.ndarray, which: str) -> np.ndarray:
        w, v = np.linalg.eigh(0.5 * (-(gram) + -(gram).T))
        if w.size == 0:
            return np.zeros((0, 0))
        if w.min() <= tol * max(w.max(initial=0.0), 0.0) or w.max(initial=0.0) <= 0.0:
            raise NotMinimal(f"{which} Gramian is numerically singular")
        return v * np.sqrt(w)

    up = factor(gr.xc, "controllability")
    lo = factor(gr.xo, "observability")
    w_svd, sig, vt = np.linalg.svd(lo.T @ up)
    if sig.size == 0 or sig[-1] <= tol * sig[0]:
        raise NotMinimal("Gramian cross factor is numerically rank-deficient")
    sig_isqrt = 1.0 / np.sqrt(sig)
    t = up @ vt.T * sig_isqrt
    t_inv = (w_svd * sig_isqrt).T @ lo.T

    h = float(sig[0])
    r = int(np.count_nonzero(np.abs(sig - h) <= _MULTIPLICITY_RTOL * h))
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
