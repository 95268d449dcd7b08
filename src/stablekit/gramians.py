"""Generalized Gramians, Hankel data, and norm evaluation.

The Gramians of an antistable descriptor system solve

    A Xc E^T + E Xc A^T + B B^T = 0,      A^T Xo E + E^T Xo A + C^T C = 0,

and are negative semidefinite. They are solved on the generalized Schur
form each system stores, so no factorization runs here. The largest Hankel
singular value is sigma_1 = sqrt(max eig(Xc E^T Xo E)), a realization
invariant. Norms: the L2 norm of a strictly proper antistable transfer is
sqrt(trace(C (-Xc) C^T)); the L-infinity norm is evaluated by adaptive
sampling of the frequency response of the finite parts, with the polynomial
parts compared coefficient by coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    AtPole,
    NegativeSpectrum,
    NonFiniteSample,
    NonzeroFeedthrough,
    SpectrumViolation,
)
from .systems import (
    DescriptorSystem,
    StabilityClass,
    _mirror,
    additive_decompose,
    empty_system,
    frequency_response,
    pencil_spectrum,
    weierstrass_split,
)
from .util import default_tol, fro

__all__ = [
    "GramianPair",
    "HankelData",
    "FrequencyGrid",
    "gramians",
    "hankel_sigma_max",
    "h2_norm_antistable",
    "linf_error",
    "linf_of",
    "rl2_norm",
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


def _quasi_triangular_lyapunov(f: np.ndarray, rhs: np.ndarray, transpose: bool) -> np.ndarray:
    """Solve F X + X F^T = rhs (F^T X + X F when ``transpose``) with LAPACK ``trsyl``.

    F must be quasi-upper triangular with its spectrum in the open right
    half-plane, so that F and -F^T share no eigenvalue.
    """
    trana, tranb = ("T", "N") if transpose else ("N", "T")
    x, scale, info = scipy.linalg.lapack.dtrsyl(f, f, rhs, trana=trana, tranb=tranb)
    if info != 0:
        raise SpectrumViolation(
            f"Lyapunov solver failed (trsyl info {info}); the pencil spectrum "
            "is numerically not antistable"
        )
    return x / scale


def gramians(s: DescriptorSystem, tol: float | None = None) -> GramianPair:
    """Solve both generalized Lyapunov equations of an antistable system.

    Bartels-Stewart on the stored generalized Schur form U E V = T,
    U A V = S (Penzl, Adv. Comput. Math. 8, 1998). T is regular because
    every eigenvalue is finite, and F = T^{-1} S keeps the quasi-triangular
    pattern of S, so each equation is one ``trsyl`` solve:

        F Y + Y F^T = -G G^T,  G = T^{-1} U B,  Xc = V Y V^T;
        F^T W + W F = -H^T H,  H = C V,         Xo = M^T W M,  M = T^{-1} U.
    """
    tol = default_tol(tol)
    rep = pencil_spectrum(s, tol)
    if rep.stability_class is not StabilityClass.ANTISTABLE:
        raise SpectrumViolation(
            "Gramians are defined here only for antistable systems; "
            f"spectrum classifies as {rep.stability_class.value}"
        )
    form = s._schur
    n = s.n
    # F = T^{-1} S and M = T^{-1} U from one triangular solve
    f_m = scipy.linalg.solve_triangular(form.et, np.hstack([form.at, form.u]))
    f, m = f_m[:, :n], f_m[:, n:]
    g = m @ s.b
    h = s.c @ form.v
    y = _quasi_triangular_lyapunov(f, -(g @ g.T), transpose=False)
    w = _quasi_triangular_lyapunov(f, -(h.T @ h), transpose=True)
    xc = form.v @ y @ form.v.T
    xo = m.T @ w @ m
    xc = 0.5 * (xc + xc.T)
    xo = 0.5 * (xo + xo.T)
    wc = s.b @ s.b.T
    wo = s.c.T @ s.c
    res_c = fro(s.a @ xc @ s.e.T + s.e @ xc @ s.a.T + wc)
    res_o = fro(s.a.T @ xo @ s.e + s.e.T @ xo @ s.a + wo)
    return GramianPair(xc=xc, xo=xo, residual_c=res_c, residual_o=res_o)


# ---------------------------------------------------------------------------
# Hankel data


@dataclass(frozen=True)
class HankelData:
    """Largest Hankel singular value and the spectrum it came from.

    ``spectrum`` holds the (real, nonnegative, descending) eigenvalues of
    Xc E^T Xo E; ``sigma1`` is the square root of its maximum.
    """

    sigma1: float
    spectrum: np.ndarray


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
        return HankelData(sigma1=0.0, spectrum=np.zeros(0))
    neg_floor = tol * max(fro(gr.xc) * fro(gr.xo), 1.0)
    wc, vc = np.linalg.eigh(0.5 * (-(gr.xc) + -(gr.xc).T))
    if wc.min() >= -tol * max(1.0, wc.max(initial=0.0)):
        root = (vc * np.sqrt(np.clip(wc, 0.0, None))) @ vc.T
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
    return HankelData(sigma1=math.sqrt(top), spectrum=mu)


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

    Finite exactly when the response vanishes at infinity, which the
    ``weierstrass_split`` coefficients decide before any other split. Then
    the squared norm splits over the stable/antistable parts of the finite
    part (they are orthogonal in L2), and the stable half is evaluated
    through its mirror G_plus(-s), which is antistable with the same norm.
    """
    tol = default_tol(tol)
    ws = weierstrass_split(s, tol)
    coeffs = ws.coefficients
    feed_scale = tol * (1.0 + fro(s.b) * fro(s.c) + fro(s.d))
    if coeffs.shape[0] > 1 or fro(coeffs[0]) > feed_scale:
        return float("inf")
    dec = additive_decompose(ws.finite, tol)
    total = 0.0
    if dec.s_minus.n > 0:
        total += h2_norm_antistable(dec.s_minus, gramians(dec.s_minus, tol), tol) ** 2
    if dec.s_plus.n > 0:
        flip = additive_decompose(_mirror(dec.s_plus), tol).s_minus
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


def _default_band(*systems: DescriptorSystem, tol: float | None = None) -> tuple[float, float]:
    """The frequency band [1e-6 rho, 1e6 rho] around the systems' pole scale.

    rho is the largest magnitude of a finite pole, floored at 1, so the band
    is always finite and ordered.
    """
    rho = 1.0
    for s in systems:
        fin = pencil_spectrum(s, tol).finite_eigenvalues
        if fin.size:
            rho = max(rho, float(np.abs(fin).max()))
    return 1e-6 * rho, 1e6 * rho


def _difference_at_infinity(c1: np.ndarray, c2: np.ndarray, tol: float) -> float:
    """Spectral norm of G1 - G2 at infinity; inf when the difference is unbounded.

    ``c1``/``c2`` are the polynomial coefficients of G1, G2.
    """
    length = max(c1.shape[0], c2.shape[0])
    p, m = c1.shape[1:]
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


def _golden_section(a: float, b: float, target: float):
    """Golden-section search for a maximum on [a, b], as a coroutine.

    Yields each next frequency and receives its sampled value through
    ``send``; stops once the bracket is no wider than ``target``.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = yield c
    fd = yield d
    while (b - a) > target:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = yield d
        else:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = yield c


#: Log-spaced seed points of ``linf_error``'s grid, omega = 0 aside.
_SEED_POINTS = 512
#: Width, relative to its location, below which a refined bracket stops.
_RELTOL = 1e-8


def linf_error(
    s1: DescriptorSystem, s2: DescriptorSystem, tol: float | None = None
) -> FrequencyGrid:
    """Sampled L-infinity norm of the difference G1 - G2.

    Seeds a log grid of ``_SEED_POINTS`` points from 1e-6 to 1e6 times the
    magnitude scale of the finite poles of both systems (floored at 1),
    with omega = 0 always included, then runs golden-section refinement
    around the top three local maxima (ties broken toward lower omega)
    until the bracket is below ``_RELTOL`` relative to its location.
    The three searches run in lockstep: each round samples the next point of
    every unfinished bracket in one batch, and each bracket sees the same
    points and comparisons as it would alone. The reported maximum also
    covers the difference at omega = infinity, which is infinite when
    G1 - G2 is improper. Each system is split once and sampled through its
    ``weierstrass_split`` finite part, so polynomial parts that cancel in
    G1 - G2 are never subtracted in floating point; a finite part of order 0
    is its constant D and is not sampled at all. Raises NonFiniteSample if
    any sample at finite omega is not finite.
    """
    tol = default_tol(tol)
    if s1.m != s2.m or s1.p != s2.p:
        raise SpectrumViolation(
            "error norm needs matching input/output counts, got "
            f"({s1.m},{s1.p}) and ({s2.m},{s2.p})"
        )
    wmin, wmax = _default_band(s1, s2, tol=tol)
    split1, split2 = weierstrass_split(s1, tol), weierstrass_split(s2, tol)
    value_at_inf = _difference_at_infinity(split1.coefficients, split2.coefficients, tol)
    omegas = np.concatenate([[0.0], np.geomspace(wmin, wmax, _SEED_POINTS)])

    def response(finite: DescriptorSystem, ws: np.ndarray) -> np.ndarray:
        if finite.n == 0:
            return finite.d.astype(complex)
        return frequency_response(finite, ws)

    def batch(ws: np.ndarray) -> np.ndarray:
        try:
            diff = response(split1.finite, ws) - response(split2.finite, ws)
        except AtPole as exc:
            raise NonFiniteSample(str(exc)) from exc
        vals = _spectral_norms(np.broadcast_to(diff, (ws.size, s1.p, s1.m)))
        if not np.isfinite(vals).all():
            w_bad = ws[~np.isfinite(vals)][0]
            raise NonFiniteSample(
                f"response norm is not finite at omega = {w_bad:.6g} "
                "(pole on or near the imaginary axis)"
            )
        return vals

    vals = batch(omegas)

    # local maxima, by value descending and then omega ascending
    edge = np.array([-math.inf])
    left, right = np.concatenate([edge, vals[:-1]]), np.concatenate([vals[1:], edge])
    peaks = np.flatnonzero((vals >= left) & (vals >= right))
    peaks = peaks[np.lexsort((omegas[peaks], -vals[peaks]))]

    k = omegas.size
    searches = []
    for i in peaks[:3]:
        a = omegas[i - 1] if i > 0 else omegas[i]
        b = omegas[i + 1] if i + 1 < k else omegas[i]
        if b > a:
            searches.append(_golden_section(a, b, _RELTOL * max(omegas[i], wmin)))
    sampled = [[] for _ in searches]
    live = [(j, search.send(None)) for j, search in enumerate(searches)]
    while live:
        ws = np.array([w for _, w in live])
        next_live = []
        for (j, w), v in zip(live, batch(ws).tolist()):
            sampled[j].append((w, v))
            try:
                next_live.append((j, searches[j].send(v)))
            except StopIteration:
                pass
        live = next_live

    # in the order a sequential search would sample, so that np.unique keeps
    # the first sample of a repeated omega exactly as one would
    refined = [pair for pairs in sampled for pair in pairs]
    rec_w = np.concatenate([omegas, [w for w, _ in refined]])
    rec_v = np.concatenate([vals, [v for _, v in refined]])
    all_w, idx = np.unique(rec_w, return_index=True)
    all_v = rec_v[idx]

    best = int(np.argmax(all_v))  # ties resolve to the lowest omega
    max_value = float(all_v[best])
    argmax_omega = float(all_w[best])
    if value_at_inf > max_value:
        max_value = float(value_at_inf)
        argmax_omega = math.inf
    return FrequencyGrid(
        omegas=all_w, values=all_v, argmax_omega=argmax_omega, max_value=max_value
    )


def linf_of(s: DescriptorSystem, tol: float | None = None) -> FrequencyGrid:
    """Sampled L-infinity norm of a single transfer function: the error to G = 0."""
    return linf_error(s, empty_system(s.m, s.p), tol)
