"""Generalized Gramians, Hankel data, and norm evaluation.

The Gramians of an antistable descriptor system solve

    A Xc E^T + E Xc A^T + B B^T = 0,      A^T Xo E + E^T Xo A + C^T C = 0,

and are negative semidefinite. They are solved on the generalized Schur
form each system stores, so no factorization runs here. The largest Hankel
singular value is sigma_1 = sqrt(max eig(Xc E^T Xo E)), a realization
invariant. Norms: the L2 norm of a strictly proper antistable transfer is
sqrt(trace(C (-Xc) C^T)). The L-infinity norm of one system is certified
by Hamiltonian level tests on its finite part (``linf_of``); the error
between two systems is sampled adaptively on the frequency responses of
their finite parts (``linf_error``). Polynomial parts are compared
coefficient by coefficient.
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
from .util import EPS, TOL, fro

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


def _schur_realization(s: DescriptorSystem) -> tuple[np.ndarray, np.ndarray]:
    """(F, M) = (T^{-1} S, T^{-1} U) from the stored Schur form U E V = T, U A V = S.

    For a system whose eigenvalues are all finite (T regular), (F, M B, C V)
    is a standard realization of the strictly proper part; F keeps the
    quasi-triangular pattern of S. One triangular solve, no factorization.
    """
    form = s._schur
    f_m = scipy.linalg.solve_triangular(form.et, np.hstack([form.at, form.u]))
    return f_m[:, : s.n], f_m[:, s.n :]


def gramians(s: DescriptorSystem) -> GramianPair:
    """Solve both generalized Lyapunov equations of an antistable system.

    Bartels-Stewart on the stored generalized Schur form U E V = T,
    U A V = S (Penzl, Adv. Comput. Math. 8, 1998). T is regular because
    every eigenvalue is finite, and F = T^{-1} S keeps the quasi-triangular
    pattern of S, so each equation is one ``trsyl`` solve:

        F Y + Y F^T = -G G^T,  G = T^{-1} U B,  Xc = V Y V^T;
        F^T W + W F = -H^T H,  H = C V,         Xo = M^T W M,  M = T^{-1} U.
    """
    rep = pencil_spectrum(s)
    if rep.stability_class is not StabilityClass.ANTISTABLE:
        raise SpectrumViolation(
            "Gramians are defined here only for antistable systems; "
            f"spectrum classifies as {rep.stability_class.value}"
        )
    form = s._schur
    f, m = _schur_realization(s)
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


def hankel_sigma_max(s: DescriptorSystem, gr: GramianPair) -> HankelData:
    """sigma_1 = sqrt(max eig(Xc E^T Xo E)) via a symmetrized product.

    The eigenvalues are computed from the congruent symmetric matrix
    (-Xc)^{1/2} E^T (-Xo) E (-Xc)^{1/2}, which preserves the nonnegativity
    the theory guarantees. A -Xc that is not (numerically) positive
    semidefinite, or a spectrum below zero, raises NegativeSpectrum.
    """
    n = s.n
    if n == 0:
        return HankelData(sigma1=0.0, spectrum=np.zeros(0))
    neg_floor = TOL * max(fro(gr.xc) * fro(gr.xo), 1.0)
    wc, vc = np.linalg.eigh(0.5 * (-(gr.xc) + -(gr.xc).T))
    if wc.min() < -TOL * max(1.0, wc.max(initial=0.0)):
        raise NegativeSpectrum(
            f"-Xc is indefinite (eigenvalue {wc.min():.3e}); Gramian computation failed upstream"
        )
    root = (vc * np.sqrt(np.clip(wc, 0.0, None))) @ vc.T
    core = root @ s.e.T @ (-gr.xo) @ s.e @ root
    mu = np.sort(np.linalg.eigvalsh(0.5 * (core + core.T)))[::-1]
    if mu[-1] < -neg_floor:
        raise NegativeSpectrum(
            f"Hankel spectrum has eigenvalue {mu[-1]:.3e} below -{neg_floor:.3e}; "
            "Gramian computation failed upstream"
        )
    mu = np.clip(mu, 0.0, None)
    return HankelData(sigma1=math.sqrt(mu[0]), spectrum=mu)


# ---------------------------------------------------------------------------
# L2 norm


def h2_norm_antistable(s: DescriptorSystem, gr: GramianPair) -> float:
    """L2 norm of a strictly proper antistable transfer: sqrt(tr(C (-Xc) C^T))."""
    if fro(s.d) > TOL:
        raise NonzeroFeedthrough(
            "the L2 norm is infinite for nonzero feedthrough "
            f"(||D|| = {fro(s.d):.3e})"
        )
    val = float(np.trace(s.c @ (-gr.xc) @ s.c.T)) if s.n else 0.0
    return math.sqrt(max(val, 0.0))


def rl2_norm(s: DescriptorSystem) -> float:
    """L2 norm of an arbitrary axis-pole-free transfer; inf when unbounded.

    Finite exactly when the response vanishes at infinity, which the
    ``weierstrass_split`` coefficients decide before any other split. Then
    the squared norm splits over the stable/antistable parts of the finite
    part (they are orthogonal in L2), and the stable half is evaluated
    through its mirror G_plus(-s), which is antistable with the same norm.
    """
    ws = weierstrass_split(s)
    coeffs = ws.coefficients
    feed_scale = TOL * (1.0 + fro(s.b) * fro(s.c) + fro(s.d))
    if coeffs.shape[0] > 1 or fro(coeffs[0]) > feed_scale:
        return float("inf")
    dec = additive_decompose(ws.finite)
    total = 0.0
    if dec.s_minus.n > 0:
        total += h2_norm_antistable(dec.s_minus, gramians(dec.s_minus)) ** 2
    if dec.s_plus.n > 0:
        flip = additive_decompose(_mirror(dec.s_plus)).s_minus
        total += h2_norm_antistable(flip, gramians(flip)) ** 2
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# L-infinity norm: sampling with refinement, and Hamiltonian level tests


@dataclass(frozen=True)
class FrequencyGrid:
    """Evaluated frequencies (sorted), their response norms, and a norm bracket.

    ``max_value`` is the largest sample, or the norm at omega = infinity
    when ``argmax_omega`` is inf: a lower bound on the L-infinity norm.
    ``upper`` is a level that a Hamiltonian test certified as an upper
    bound, and ``margin`` the smallest |Re lambda| / (1 + |lambda|) over
    that test's eigenvalues. A sampled maximum certifies nothing, so a grid
    without a passing test has ``upper`` inf and ``margin`` 0.
    """

    omegas: np.ndarray
    values: np.ndarray
    argmax_omega: float
    max_value: float
    upper: float
    margin: float


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _spectral_norms(g: np.ndarray) -> np.ndarray:
    if g.shape[1] == 0 or g.shape[2] == 0:
        return np.zeros(g.shape[0])
    return np.linalg.svd(g, compute_uv=False)[:, 0]


def _default_band(*systems: DescriptorSystem) -> tuple[float, float]:
    """The frequency band [1e-6 rho, 1e6 rho] around the systems' pole scale.

    rho is the largest magnitude of a finite pole, floored at 1, so the band
    is always finite and ordered.
    """
    rho = 1.0
    for s in systems:
        fin = pencil_spectrum(s).finite_eigenvalues
        if fin.size:
            rho = max(rho, float(np.abs(fin).max()))
    return 1e-6 * rho, 1e6 * rho


def _difference_at_infinity(c1: np.ndarray, c2: np.ndarray) -> float:
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
        bound = TOL * (1.0 + fro(pad1[i]) + fro(pad2[i]))
        if fro(diff[i]) > bound:
            return float("inf")
    if p == 0 or m == 0:
        return 0.0
    return float(np.linalg.norm(diff[0], 2))


def _response(finite: DescriptorSystem, ws: np.ndarray) -> np.ndarray:
    """F(i w) on ``ws``; a finite part of order 0 is its constant D, not sampled."""
    if finite.n == 0:
        return finite.d.astype(complex)
    return frequency_response(finite, ws)


def _response_norms(
    ws: np.ndarray, finite: DescriptorSystem, other: DescriptorSystem | None = None
) -> np.ndarray:
    """Spectral norms of F(i w), or of F(i w) - F_other(i w), on ``ws``.

    Raises NonFiniteSample when a frequency sits on a pole.
    """
    try:
        g = _response(finite, ws)
        if other is not None:
            g = g - _response(other, ws)
    except AtPole as exc:
        raise NonFiniteSample(str(exc)) from exc
    vals = _spectral_norms(np.broadcast_to(g, (ws.size, finite.p, finite.m)))
    if not np.isfinite(vals).all():
        w_bad = ws[~np.isfinite(vals)][0]
        raise NonFiniteSample(
            f"response norm is not finite at omega = {w_bad:.6g} "
            "(pole on or near the imaginary axis)"
        )
    return vals


def _best(
    omegas: list[np.ndarray], values: list[np.ndarray], value_at_inf: float
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Merge sampled frequencies into a sorted grid and pick its maximum.

    A repeated omega keeps its first sample; ties resolve to the lowest
    omega; the value at infinity wins only when it is strictly larger.
    Returns ``(omegas, values, argmax_omega, max_value)``.
    """
    all_w, idx = np.unique(np.concatenate(omegas), return_index=True)
    all_v = np.concatenate(values)[idx]
    best = int(np.argmax(all_v))
    max_value, argmax_omega = float(all_v[best]), float(all_w[best])
    if value_at_inf > max_value:
        max_value, argmax_omega = float(value_at_inf), math.inf
    return all_w, all_v, argmax_omega, max_value


def _golden_section(a: float, b: float, target: float):
    """Golden-section search for a maximum on [a, b], as a coroutine.

    Yields a tuple of the next frequencies and receives their sampled
    values, in order, through ``send``: both interior points first, then
    one point per step. Stops once the bracket is no wider than ``target``.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = yield c, d
    while (b - a) > target:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            (fd,) = yield (d,)
        else:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            (fc,) = yield (c,)


#: Log-spaced seed points of ``linf_error``'s grid, omega = 0 aside.
_SEED_POINTS = 512
#: Width, relative to its location, below which a refined bracket stops.
_RELTOL = 1e-8


def linf_error(s1: DescriptorSystem, s2: DescriptorSystem) -> FrequencyGrid:
    """Sampled L-infinity norm of the difference G1 - G2.

    Seeds a log grid of ``_SEED_POINTS`` points from 1e-6 to 1e6 times the
    magnitude scale of the finite poles of both systems (floored at 1),
    with omega = 0 always included, then runs golden-section refinement
    around the top three local maxima (ties broken toward lower omega)
    until the bracket is below ``_RELTOL`` relative to its location.
    The three searches run in lockstep: each round samples the next points
    of every unfinished bracket in one batch, and each bracket sees the same
    points and comparisons as it would alone. The reported maximum also
    covers the difference at omega = infinity, which is infinite when
    G1 - G2 is improper. Each system is split once and sampled through its
    ``weierstrass_split`` finite part, so polynomial parts that cancel in
    G1 - G2 are never subtracted in floating point; a finite part of order 0
    is its constant D and is not sampled at all. A sampled maximum is no
    certificate: ``upper`` is inf. Raises NonFiniteSample if any sample at
    finite omega is not finite.
    """
    if s1.m != s2.m or s1.p != s2.p:
        raise SpectrumViolation(
            "error norm needs matching input/output counts, got "
            f"({s1.m},{s1.p}) and ({s2.m},{s2.p})"
        )
    wmin, wmax = _default_band(s1, s2)
    split1, split2 = weierstrass_split(s1), weierstrass_split(s2)
    value_at_inf = _difference_at_infinity(split1.coefficients, split2.coefficients)
    omegas = np.concatenate([[0.0], np.geomspace(wmin, wmax, _SEED_POINTS)])

    vals = _response_norms(omegas, split1.finite, split2.finite)

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
        ws = np.array([w for _, points in live for w in points])
        got = iter(_response_norms(ws, split1.finite, split2.finite).tolist())
        next_live = []
        for j, points in live:
            values = tuple(next(got) for _ in points)
            sampled[j].extend(zip(points, values))
            try:
                next_live.append((j, searches[j].send(values)))
            except StopIteration:
                pass
        live = next_live

    # in the order a sequential search would sample, so that np.unique keeps
    # the first sample of a repeated omega exactly as one would
    refined = [pair for pairs in sampled for pair in pairs]
    all_w, all_v, argmax_omega, max_value = _best(
        [omegas, np.array([w for w, _ in refined])],
        [vals, np.array([v for _, v in refined])],
        value_at_inf,
    )
    return FrequencyGrid(
        omegas=all_w, values=all_v, argmax_omega=argmax_omega, max_value=max_value,
        upper=math.inf, margin=0.0,
    )


# The gap and the two bands below were set by measurement (scratch runs on
# the benchmark's error systems and on a resonance of relative damping 1e-9).
# At the level test's smallest gap the passing tests' margins were at least
# 1.9e-7 on the benchmark's error systems, and 5e-12 on the resonance.
# Eigenvalues on the axis came out of the unstructured eigensolver with
# |Re lambda| / (1 + |lambda|) up to 10^-10, so _AXIS_BAND alone would pass
# some levels below the norm; the samples at the near-axis frequencies
# refute those, since between two true crossings at level gamma the
# response exceeds gamma.

#: Relative gap of each level test above the best sample; also sets how
#: close ``max_value`` gets to the norm (about 2e-12 relative).
_LEVEL_GAP = 1e-12
#: |Re lambda| / (1 + |lambda|) at or below which a Hamiltonian eigenvalue
#: counts as on the imaginary axis and fails the level test.
_AXIS_BAND = 1e-12
#: |Re lambda| / (1 + |lambda|) at or below which an eigenvalue's frequency
#: is sampled, with the midpoints between consecutive such frequencies.
_NEAR_AXIS = 1e-6
#: Level tests ``linf_of`` runs before it gives up the certificate.
_MAX_TESTS = 30


def _hamiltonian(f, g, h, d, gamma: float) -> np.ndarray:
    """The Hamiltonian of G = H (sI - F)^{-1} G + D at level gamma.

    Its imaginary eigenvalues i w are the frequencies where G(i w) has a
    singular value gamma. With R = gamma^2 I - D^T D positive definite
    (Boyd, Balakrishnan & Kabamba, MCSS 2, 1989):

        [[F + G R^{-1} D^T H,                   G R^{-1} G^T          ],
         [-H^T (I + D R^{-1} D^T) H,  -(F + G R^{-1} D^T H)^T]].
    """
    n = f.shape[0]
    r = gamma * gamma * np.eye(d.shape[1]) - d.T @ d
    x = np.linalg.solve(r, np.hstack([d.T @ h, g.T]))
    a_h = f + g @ x[:, :n]
    return np.block([[a_h, g @ x[:, n:]], [-(h.T @ h) - (h.T @ d) @ x[:, :n], -a_h.T]])


def linf_of(s: DescriptorSystem) -> FrequencyGrid:
    """Certified L-infinity norm of one transfer function: [max_value, upper].

    Splits at infinity as ``linf_error`` does: an improper G has norm inf,
    and a finite part of order 0 is its constant D, with norm sigma_max(D)
    exactly. Otherwise the lower bound starts as the largest of sigma_max(D)
    and the samples at omega = 0 and at the finite pole magnitudes, and
    Bruinsma-Steinbuch iteration (SCL 14, 1990) raises it until a level test
    passes. The test at gamma = (1 + 2 ``_LEVEL_GAP``) times the lower bound
    (which exceeds sigma_max(D), so R is positive definite) builds
    ``_hamiltonian`` from the standard realization (T^{-1} S, T^{-1} U B, C V)
    of the finite part's stored Schur form and computes its eigenvalues. The
    test passes when none lies within ``_AXIS_BAND`` of the axis and no
    sample at the frequencies of those within ``_NEAR_AXIS``, or at the
    midpoints between consecutive ones, exceeds gamma; those samples raise
    the lower bound. A round that raises nothing widens the gap tenfold.
    ``upper`` is the level of the passing test, or inf when none passes
    within ``_MAX_TESTS``; the grid holds every sampled frequency. The
    verdict rests on an unstructured eigensolver: near a peak too narrow for
    its roundoff to resolve, the bracket is good to that roundoff only.
    Raises NonFiniteSample when a sample sits on a pole.
    """
    split = weierstrass_split(s)
    finite = split.finite
    value_at_inf = _difference_at_infinity(split.coefficients, np.zeros((1, s.p, s.m)))
    if finite.n == 0 or s.p == 0 or s.m == 0:
        # G is a constant plus its polynomial part: the norm is exact
        all_w, all_v, argmax_omega, max_value = _best(
            [np.zeros(1)], [_spectral_norms(finite.d[None])], value_at_inf
        )
        return FrequencyGrid(
            omegas=all_w, values=all_v, argmax_omega=argmax_omega, max_value=max_value,
            upper=max_value, margin=math.inf if math.isfinite(max_value) else 0.0,
        )
    poles = pencil_spectrum(finite).finite_eigenvalues
    omegas = [np.unique(np.concatenate([[0.0], np.abs(poles)]))]
    values = [_response_norms(omegas[0], finite)]
    upper, margin = math.inf, 0.0
    if math.isfinite(value_at_inf):
        f, m = _schur_realization(finite)
        g, h = m @ finite.b, finite.c @ finite._schur.v
        lower = max(value_at_inf, float(values[0].max()))
        gap = 2.0 * _LEVEL_GAP
        for _ in range(_MAX_TESTS):
            # a zero lower bound (G vanishes at every sample) starts at eps
            level = (1.0 + gap) * (lower if lower > 0.0 else EPS)
            lam = np.linalg.eigvals(_hamiltonian(f, g, h, finite.d, level))
            rel = np.abs(lam.real) / (1.0 + np.abs(lam))
            near = np.unique(np.abs(lam.imag[rel <= _NEAR_AXIS]))
            ws_near = np.concatenate([near, 0.5 * (near[1:] + near[:-1])])
            vals = _response_norms(ws_near, finite) if near.size else np.zeros(0)
            omegas.append(ws_near)
            values.append(vals)
            top = float(vals.max(initial=0.0))
            if top <= level and not (rel <= _AXIS_BAND).any():
                upper, margin = level, float(rel.min())
                break
            if top > lower:
                lower, gap = top, 2.0 * _LEVEL_GAP
            else:
                gap *= 10.0
    all_w, all_v, argmax_omega, max_value = _best(omegas, values, value_at_inf)
    return FrequencyGrid(
        omegas=all_w, values=all_v, argmax_omega=argmax_omega, max_value=max_value,
        upper=upper, margin=margin,
    )
