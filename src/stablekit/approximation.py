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
  while preserving optimality. One rule selects that step at every level:
  reduce exactly when A_gamma's numeric rank (singular values above
  ``util.TOL`` times the largest) is below n.

Because G_hat = G_plus + G_hat_minus, the L-infinity error G - G_hat equals
G_minus - G_hat_minus, which is sigma_1 times an all-pass at the optimum
(Glover, IJC 1984). ``solve_apinf`` returns that difference as
``ApproxResult.error_system``, so the error norms can be evaluated at the
antistable order instead of on the full input and approximant.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import (
    GammaTooSmall,
    SpectrumViolation,
    StructureViolation,
)
from .gramians import (
    GramianPair,
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
    negate_output,
    pencil_spectrum,
    weierstrass_split,
)
from .util import TOL, fro

__all__ = [
    "Branch",
    "GammaSystem",
    "ApproxResult",
    "solve_ap2",
    "construct_gamma_system",
    "reduce_singular_svd",
    "solve_apinf",
]


class Branch(enum.Enum):
    REGULAR = "regular"
    SINGULAR_SVD = "singular-svd"


@dataclass(frozen=True)
class GammaSystem:
    """Balance-free approximant data at level gamma.

    Holds the raw matrices (the pencil may legitimately be singular at
    gamma = sigma_1, so no DescriptorSystem is formed here), the resolvent
    matrix ``r_g``, the SVD of ``a_g`` with its numeric rank (``a_svd``,
    which selects and performs the singular reduction), and the source
    antistable system (whose feedthrough the reduction reattaches).
    """

    e_g: np.ndarray
    a_g: np.ndarray
    b_g: np.ndarray
    c_g: np.ndarray
    gamma: float
    r_g: np.ndarray
    a_svd: SvdResult
    source: DescriptorSystem


@dataclass(frozen=True)
class ApproxResult:
    """A stable approximant plus the quantities that produced it.

    ``error_system`` (L-infinity only) realizes the error G - G_hat as
    S_minus (+) (-S_hat_minus): the stable part cancels exactly, so its order
    is at most twice the antistable order, whatever the input's.
    """

    system: DescriptorSystem
    sigma1: float
    gamma_used: float | None
    branch: Branch | None
    diagnostics: dict[str, Any]
    error_system: DescriptorSystem | None


# ---------------------------------------------------------------------------
# L2


def solve_ap2(s: DescriptorSystem) -> ApproxResult:
    """Best stable L2 approximation: the stable part of the decomposition.

    The reported error is the L2 norm of the antistable part; any other
    optimal solution realizes the same transfer function.
    """
    dec = additive_decompose(s)
    diagnostics: dict[str, Any] = {}
    if dec.s_minus.n == 0:
        sigma1 = 0.0
        diagnostics["error_l2"] = 0.0
    else:
        gr = gramians(dec.s_minus)
        hank = hankel_sigma_max(dec.s_minus, gr)
        sigma1 = hank.sigma1
        diagnostics["error_l2"] = h2_norm_antistable(dec.s_minus, gr)
        diagnostics["gramian_residual_c"] = gr.residual_c
        diagnostics["gramian_residual_o"] = gr.residual_o
    return ApproxResult(
        system=dec.s_plus,
        sigma1=sigma1,
        gamma_used=None,
        branch=None,
        diagnostics=diagnostics,
        error_system=None,
    )


# ---------------------------------------------------------------------------
# Gamma system


def construct_gamma_system(
    s_minus: DescriptorSystem, gr: GramianPair, gamma: float, sigma1: float
) -> GammaSystem:
    """Assemble the balance-free approximant matrices at level gamma.

    ``sigma1`` is the largest Hankel singular value of ``s_minus`` on the
    Gramians ``gr`` (``hankel_sigma_max``). Requires gamma >= sigma_1 (up to
    a 1e-12 relative slack); for gamma > sigma_1 strictly the resulting A
    matrix is provably regular.
    """
    gamma = float(gamma)
    if gamma < sigma1 * (1.0 - 1e-12):
        raise GammaTooSmall(
            f"gamma = {gamma:.12g} is below sigma_1 = {sigma1:.12g}; "
            "no stable approximation within that error exists"
        )
    e, a, b, c = s_minus.e, s_minus.a, s_minus.b, s_minus.c
    r_g = gr.xo @ e @ gr.xc @ e.T - gamma**2 * np.eye(s_minus.n)
    e_g = e.T @ r_g
    b_g = e.T @ gr.xo @ b
    c_g = c @ gr.xc @ e.T
    a_g = -a.T @ r_g - c.T @ c_g
    a_svd = svd(a_g)
    return GammaSystem(
        e_g=e_g,
        a_g=a_g,
        b_g=b_g,
        c_g=c_g,
        gamma=gamma,
        r_g=r_g,
        a_svd=a_svd,
        source=s_minus,
    )


# ---------------------------------------------------------------------------
# Singular-branch reduction


def reduce_singular_svd(gs: GammaSystem) -> DescriptorSystem:
    """Eliminate the non-dynamic part of a singular gamma system via SVD.

    Orthogonal U, V from the SVD of A_gamma (``gs.a_svd``, computed once when
    the gamma system was built, together with its numeric rank) put it into
    the form [[A11, A12], [0, 0]] with A11 regular of size equal to the
    rank; the same transformation provably zeroes the corresponding rows of
    E_gamma and B_gamma (verified here; StructureViolation otherwise).
    Returns the leading subsystem with the source feedthrough reattached.
    Raises ValueError when A_gamma has full numeric rank.
    """
    rank = gs.a_svd.numeric_rank
    if rank == gs.a_g.shape[0]:
        raise ValueError(
            f"gamma-system A matrix has full numeric rank {rank}; "
            "use the unreduced system directly"
        )
    if rank == 0:
        return empty_system(gs.b_g.shape[1], gs.c_g.shape[0], gs.source.d)
    u_t = gs.a_svd.u.T
    v = gs.a_svd.v
    at = u_t @ gs.a_g @ v
    et = u_t @ gs.e_g @ v
    bt = u_t @ gs.b_g
    ct = gs.c_g @ v
    bound = TOL * max(1.0, fro(gs.e_g), fro(gs.a_g), fro(gs.b_g))
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
# Top-level L-infinity solver


def solve_apinf(s: DescriptorSystem, gamma_factor: float | None = None) -> ApproxResult:
    """Best (or gamma-suboptimal) stable L-infinity approximation.

    With ``gamma_factor`` None the optimal level gamma = sigma_1 is used;
    otherwise gamma = gamma_factor * sigma_1 with gamma_factor > 1. The
    pipeline: decompose, Gramians, sigma_1, gamma system; take it directly
    when its A matrix has full numeric rank, otherwise eliminate the
    non-dynamic part with ``reduce_singular_svd`` (standard and descriptor
    E alike, at any level). Infinite eigenvalues left with a constant
    polynomial part fold into the feedthrough (the ``weierstrass_split``
    finite part), so the antistable side keeps n - multiplicity states.
    Then reattach the stable part. The ``sigma1_multiplicity`` diagnostic
    counts the antistable states these two steps removed.
    """
    if gamma_factor is not None and not 1.0 < gamma_factor < math.inf:
        raise ValueError(f"gamma_factor must be finite and exceed 1, got {gamma_factor!r}")
    dec = additive_decompose(s)
    diagnostics: dict[str, Any] = {}
    if dec.s_minus.n == 0:
        diagnostics["note"] = "input already stable; returned unchanged"
        return ApproxResult(
            system=dec.s_plus,
            sigma1=0.0,
            gamma_used=0.0,
            branch=Branch.REGULAR,
            diagnostics=diagnostics,
            error_system=dec.s_minus,
        )

    gr = gramians(dec.s_minus)
    sigma1 = hankel_sigma_max(dec.s_minus, gr).sigma1
    gamma = sigma1 if gamma_factor is None else gamma_factor * sigma1
    gs = construct_gamma_system(dec.s_minus, gr, gamma, sigma1)
    if gs.a_svd.numeric_rank == dec.s_minus.n:
        approx_minus = DescriptorSystem(gs.e_g, gs.a_g, gs.b_g, gs.c_g, dec.s_minus.d)
        branch = Branch.REGULAR
    else:
        approx_minus = reduce_singular_svd(gs)
        branch = Branch.SINGULAR_SVD
    ws = weierstrass_split(approx_minus)
    if ws.coefficients.shape[0] == 1:
        approx_minus = ws.finite
    sv = gs.a_svd.singular_values
    diagnostics.update(
        gramian_residual_c=gr.residual_c,
        gramian_residual_o=gr.residual_o,
        sigma1_multiplicity=dec.s_minus.n - approx_minus.n,
        regularity_smallest_sv=float(sv[-1]),
        regularity_largest_sv=float(sv[0]),
    )

    system = direct_sum(dec.s_plus, approx_minus)
    rep = pencil_spectrum(system)
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
        diagnostics=diagnostics,
        error_system=direct_sum(dec.s_minus, negate_output(approx_minus)),
    )
