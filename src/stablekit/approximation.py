"""Optimal stable approximation in the L2 and L-infinity norms.

Given a system S with no poles on the imaginary axis, split S into a stable
part S_plus and an antistable part S_minus. Then:

* The L2-optimal stable approximation is S_plus itself, with error equal to
  the L2 norm of S_minus.

* For the L-infinity problem, the best achievable error equals sigma_1, the
  largest Hankel singular value of S_minus. For any gamma >= sigma_1 a
  stable approximant within error gamma is assembled *balance-free* from the
  Gramians:

      R_gamma = Xo E Xc E^T - gamma^2 I,
      E_gamma = E^T R_gamma,          B_gamma = E^T Xo B,
      C_gamma = C Xc E^T,             A_gamma = -A^T R_gamma - C^T C_gamma,

  giving the approximant (E_gamma, A_gamma, B_gamma, C_gamma, 0) + S_plus.
  At gamma = sigma_1 the matrix A_gamma may be singular; then the system
  carries a removable non-dynamic part that one orthogonal transformation,
  taken from the SVD of A_gamma, eliminates, reducing the order below n
  while preserving optimality.

A classical balanced-coordinates construction (``glover_oracle``) is kept as
an independent cross-check of the balance-free route.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.linalg

from .errors import (
    GammaTooSmall,
    LeastSquaresInconsistent,
    SpectrumViolation,
    StructureViolation,
)
from .gramians import (
    GramianPair,
    balanced_realization,
    gramians,
    h2_norm_antistable,
    hankel_sigma_max,
)
from .kernels import SvdResult, svd
from .systems import (
    DescriptorSystem,
    StabilityClass,
    additive_decompose,
    direct_sum,
    empty_system,
    pencil_spectrum,
)
from .util import default_tol, fro

__all__ = [
    "Branch",
    "RegularityVerdict",
    "GammaSystem",
    "ApproxResult",
    "solve_ap2",
    "construct_gamma_system",
    "reduce_singular_svd",
    "glover_oracle",
    "solve_apinf",
]


class Branch(enum.Enum):
    REGULAR = "regular"
    SINGULAR_SVD = "singular-svd"


@dataclass(frozen=True)
class RegularityVerdict:
    """Numeric-rank verdict on the gamma-system A matrix.

    ``is_regular`` holds when the smallest singular value exceeds
    ``threshold = tol * largest_sv``. ``borderline`` flags a smallest
    singular value within 10x of the threshold — near the regular/singular
    boundary where the singular reduction is the backward-stable route.
    """

    is_regular: bool
    rank: int
    smallest_sv: float
    largest_sv: float
    threshold: float

    @property
    def borderline(self) -> bool:
        return self.smallest_sv <= 10.0 * self.threshold


@dataclass(frozen=True)
class GammaSystem:
    """Balance-free approximant data at level gamma.

    Holds the raw matrices (the pencil may legitimately be singular at
    gamma = sigma_1, so no DescriptorSystem is formed here), the resolvent
    matrix ``r_g``, the regularity verdict on ``a_g`` with the SVD it was
    read from (``a_svd``, reused by the singular reduction), the sigma_1 it
    was built against, and the source antistable system (whose feedthrough
    the reduction reattaches).
    """

    e_g: np.ndarray
    a_g: np.ndarray
    b_g: np.ndarray
    c_g: np.ndarray
    gamma: float
    r_g: np.ndarray
    regular: RegularityVerdict
    a_svd: SvdResult
    sigma1: float
    source: DescriptorSystem


@dataclass(frozen=True)
class ApproxResult:
    """A stable approximant plus the quantities that produced it."""

    system: DescriptorSystem
    sigma1: float
    gamma_used: float | None
    branch: Branch | None
    reduced_order: int
    diagnostics: dict[str, Any]


# ---------------------------------------------------------------------------
# L2


def solve_ap2(s: DescriptorSystem, tol: float | None = None) -> ApproxResult:
    """Best stable L2 approximation: the stable part of the decomposition.

    The reported error is the L2 norm of the antistable part; any other
    optimal solution realizes the same transfer function.
    """
    tol = default_tol(tol)
    dec = additive_decompose(s, tol)
    diagnostics: dict[str, Any] = {}
    if dec.s_minus.n == 0:
        sigma1 = 0.0
        diagnostics["error_l2"] = 0.0
    else:
        gr = gramians(dec.s_minus, tol)
        hank = hankel_sigma_max(dec.s_minus, gr, tol)
        sigma1 = hank.sigma1
        diagnostics["error_l2"] = h2_norm_antistable(dec.s_minus, gr, tol)
        diagnostics["gramian_residual_c"] = gr.residual_c
        diagnostics["gramian_residual_o"] = gr.residual_o
    return ApproxResult(
        system=dec.s_plus,
        sigma1=sigma1,
        gamma_used=None,
        branch=None,
        reduced_order=dec.s_plus.n,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Gamma system and regularity


def _rank_verdict(res: SvdResult, tol: float) -> RegularityVerdict:
    s = res.singular_values
    largest = float(s[0]) if s.size else 0.0
    smallest = float(s[-1]) if s.size else 0.0
    threshold = tol * largest
    return RegularityVerdict(
        is_regular=bool(s.size) and smallest > threshold,
        rank=res.numeric_rank,
        smallest_sv=smallest,
        largest_sv=largest,
        threshold=threshold,
    )


def construct_gamma_system(
    s_minus: DescriptorSystem,
    gr: GramianPair,
    gamma: float,
    tol: float | None = None,
) -> GammaSystem:
    """Assemble the balance-free approximant matrices at level gamma.

    Requires gamma >= sigma_1 (up to a 1e-12 relative slack); for
    gamma > sigma_1 strictly the resulting A matrix is provably regular.
    """
    tol = default_tol(tol)
    gamma = float(gamma)
    hank = hankel_sigma_max(s_minus, gr, tol)
    if gamma < hank.sigma1 * (1.0 - 1e-12):
        raise GammaTooSmall(
            f"gamma = {gamma:.12g} is below sigma_1 = {hank.sigma1:.12g}; "
            "no stable approximation within that error exists"
        )
    e, a, b, c = s_minus.e, s_minus.a, s_minus.b, s_minus.c
    r_g = gr.xo @ e @ gr.xc @ e.T - gamma**2 * np.eye(s_minus.n)
    e_g = e.T @ r_g
    b_g = e.T @ gr.xo @ b
    c_g = c @ gr.xc @ e.T
    a_g = -a.T @ r_g - c.T @ c_g
    a_svd = svd(a_g, tol)
    return GammaSystem(
        e_g=e_g,
        a_g=a_g,
        b_g=b_g,
        c_g=c_g,
        gamma=gamma,
        r_g=r_g,
        regular=_rank_verdict(a_svd, tol),
        a_svd=a_svd,
        sigma1=hank.sigma1,
        source=s_minus,
    )


# ---------------------------------------------------------------------------
# Singular-branch reduction


def reduce_singular_svd(gs: GammaSystem, tol: float | None = None) -> DescriptorSystem:
    """Eliminate the non-dynamic part of a singular gamma system via SVD.

    Orthogonal U, V from the SVD of A_gamma (``gs.a_svd``, computed once when
    the gamma system was built, together with its numeric rank) put it into
    the form [[A11, A12], [0, 0]] with A11 regular of size equal to the
    rank; the same transformation provably zeroes the corresponding rows of
    E_gamma and B_gamma (verified here; StructureViolation otherwise).
    Returns the leading subsystem with the source feedthrough reattached.
    Raises ValueError when A_gamma is cleanly regular.
    """
    tol = default_tol(tol)
    verdict = gs.regular
    if verdict.is_regular and not verdict.borderline:
        raise ValueError(
            "gamma-system A matrix is cleanly regular (smallest singular value "
            f"{verdict.smallest_sv:.3e} vs threshold {verdict.threshold:.3e}); "
            "use the unreduced system directly"
        )
    rank = gs.a_svd.numeric_rank
    if rank == 0:
        return empty_system(gs.b_g.shape[1], gs.c_g.shape[0], gs.source.d)
    u_t = gs.a_svd.u.T
    v = gs.a_svd.v
    at = u_t @ gs.a_g @ v
    et = u_t @ gs.e_g @ v
    bt = u_t @ gs.b_g
    ct = gs.c_g @ v
    bound = tol * max(1.0, fro(gs.e_g), fro(gs.a_g), fro(gs.b_g))
    for name, block in (("A", at), ("E", et), ("B", bt)):
        err = fro(block[rank:, :])
        if err > bound:
            raise StructureViolation(
                f"{name} block expected to vanish has norm {err:.3e} > {bound:.3e}; "
                "sigma_1 or the rank was misestimated"
            )
    return DescriptorSystem(
        et[:rank, :rank], at[:rank, :rank], bt[:rank, :], ct[:, :rank], gs.source.d
    )


# ---------------------------------------------------------------------------
# Balanced-coordinates oracle


def glover_oracle(s: DescriptorSystem, tol: float | None = None) -> DescriptorSystem:
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
    tol = default_tol(tol)
    bal = balanced_realization(s, tol)
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

    gram_gap = fro(b2 @ b2.T - c2.T @ c2)
    gram_scale = max(1.0, fro(b2) ** 2, fro(c2) ** 2)
    if gram_gap > 1e-8 * gram_scale:
        raise LeastSquaresInconsistent(
            f"balanced sigma_1 blocks violate B2 B2^T = C2^T C2 by {gram_gap:.3e}"
        )
    u_m, *_ = np.linalg.lstsq(c2.T, -b2, rcond=None)
    resid = fro(c2.T @ u_m + b2)
    if resid > tol * max(1.0, fro(b2)):
        raise LeastSquaresInconsistent(
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


# ---------------------------------------------------------------------------
# Top-level L-infinity solver


def solve_apinf(
    s: DescriptorSystem,
    gamma_factor: float | None = None,
    tol: float | None = None,
) -> ApproxResult:
    """Best (or gamma-suboptimal) stable L-infinity approximation.

    With ``gamma_factor`` None the optimal level gamma = sigma_1 is used;
    otherwise gamma = gamma_factor * sigma_1 with gamma_factor > 1. The
    pipeline: decompose, Gramians, sigma_1, gamma system; take it directly
    when its A matrix is cleanly regular, otherwise eliminate the
    non-dynamic part with ``reduce_singular_svd`` (standard and descriptor
    E alike) and reattach the stable part.
    """
    tol = default_tol(tol)
    if gamma_factor is not None and not gamma_factor > 1.0:
        raise ValueError(f"gamma_factor must exceed 1, got {gamma_factor!r}")
    dec = additive_decompose(s, tol)
    diagnostics: dict[str, Any] = {}
    if dec.s_minus.n == 0:
        diagnostics["note"] = "input already stable; returned unchanged"
        return ApproxResult(
            system=dec.s_plus,
            sigma1=0.0,
            gamma_used=0.0,
            branch=Branch.REGULAR,
            reduced_order=dec.s_plus.n,
            diagnostics=diagnostics,
        )

    gr = gramians(dec.s_minus, tol)
    hank = hankel_sigma_max(dec.s_minus, gr, tol)
    sigma1 = hank.sigma1
    gamma = sigma1 if gamma_factor is None else gamma_factor * sigma1
    gs = construct_gamma_system(dec.s_minus, gr, gamma, tol)
    verdict = gs.regular
    diagnostics.update(
        gramian_residual_c=gr.residual_c,
        gramian_residual_o=gr.residual_o,
        sigma1_multiplicity=hank.multiplicity_estimate,
        regularity_smallest_sv=verdict.smallest_sv,
        regularity_largest_sv=verdict.largest_sv,
    )

    if gamma_factor is None:
        use_singular = (not verdict.is_regular) or verdict.borderline
    else:
        use_singular = not verdict.is_regular
    if not use_singular:
        approx_minus = DescriptorSystem(gs.e_g, gs.a_g, gs.b_g, gs.c_g, dec.s_minus.d)
        branch = Branch.REGULAR
    else:
        approx_minus = reduce_singular_svd(gs, tol)
        branch = Branch.SINGULAR_SVD

    system = direct_sum(dec.s_plus, approx_minus)
    rep = pencil_spectrum(system, tol)
    if rep.stability_class is not StabilityClass.STABLE:
        raise SpectrumViolation(
            "assembled approximant failed the stability check "
            f"(class {rep.stability_class.value}); the input is numerically "
            "outside this method's reach"
        )
    diagnostics["infimum_linf"] = sigma1
    return ApproxResult(
        system=system,
        sigma1=sigma1,
        gamma_used=gamma,
        branch=branch,
        reduced_order=system.n,
        diagnostics=diagnostics,
    )
