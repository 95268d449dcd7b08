"""Dense real matrix factorizations and two-sided matrix-equation solvers.

This module wraps the LAPACK-backed factorizations (ordered QZ and SVD)
behind the contracts the rest of the package relies on, and implements
the two coupled-equation solvers: the generalized Sylvester equation used to
block-diagonalize a triangularized pencil, and the generalized Lyapunov
equation whose solutions are the system Gramians.

All operations are pure functions over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonSymmetricInput,
    NoUniqueSolution,
    SingularPencil,
    SpectrumViolation,
)
from .util import EPS, as_matrix, default_tol, fro, require_square

__all__ = [
    "EigenvalueSelector",
    "stable_or_infinite",
    "antistable_finite",
    "all_finite",
    "OrderedQz",
    "SvdResult",
    "pencil_eigendata",
    "qz_ordered",
    "solve_generalized_sylvester",
    "solve_generalized_lyapunov",
    "svd",
]


# ---------------------------------------------------------------------------
# Eigenvalue-region selectors


@dataclass(frozen=True)
class EigenvalueSelector:
    """Region predicate used to order a QZ decomposition.

    ``finite`` receives a complex array of finite generalized eigenvalues and
    returns a boolean array; ``include_infinite`` decides whether infinite
    eigenvalues belong to the selected (leading) set.
    """

    finite: Callable[[np.ndarray], np.ndarray]
    include_infinite: bool = False


def stable_or_infinite() -> EigenvalueSelector:
    """Select the closed left half-plane complement's complement: Re < 0 or infinity.

    This is the region a stable descriptor spectrum must occupy.
    """
    return EigenvalueSelector(lambda lam: lam.real < 0.0, include_infinite=True)


def antistable_finite() -> EigenvalueSelector:
    """Select finite eigenvalues with Re > 0 (the antistable region)."""
    return EigenvalueSelector(lambda lam: lam.real > 0.0, include_infinite=False)


def all_finite() -> EigenvalueSelector:
    """Select every finite eigenvalue, leaving infinity trailing."""
    return EigenvalueSelector(lambda lam: np.ones(lam.shape, dtype=bool), include_infinite=False)


# ---------------------------------------------------------------------------
# Result containers


@dataclass(frozen=True)
class OrderedQz:
    """Ordered generalized Schur decomposition U E V = Et, U A V = At.

    ``u`` and ``v`` are orthogonal, ``et``/``at`` quasi-upper-triangular, and
    ``split`` is the size of the leading block whose pencil spectrum lies in
    the selected region. ``alpha``/``beta`` are the generalized eigenvalue
    data of the reordered diagonal, so ``[:split]`` belongs to the leading
    block and ``[split:]`` to the trailing one.
    """

    u: np.ndarray
    v: np.ndarray
    et: np.ndarray
    at: np.ndarray
    split: int
    alpha: np.ndarray
    beta: np.ndarray


@dataclass(frozen=True)
class SvdResult:
    """Singular value decomposition M = U diag(s) V^T with a numeric rank.

    ``u`` and ``v`` are full square orthogonal factors; ``numeric_rank``
    counts singular values above ``tol * s[0]``.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray
    numeric_rank: int


# ---------------------------------------------------------------------------
# Pencil eigenvalue extraction and regularity


def _regularity_check(alpha: np.ndarray, beta: np.ndarray, e: np.ndarray, a: np.ndarray) -> None:
    """Declare the pencil singular when a QZ diagonal pair is doubly tiny.

    Criterion: some (ett, att) with max(|ett|, |att|) <= tol * (||E||_F + ||A||_F),
    tol = n * eps * 32.
    """
    n = e.shape[0]
    if n == 0:
        return
    scale = fro(e) + fro(a)
    thresh = n * EPS * 32.0 * scale
    tiny = np.maximum(np.abs(alpha), np.abs(beta)) <= thresh
    if tiny.any():
        raise SingularPencil(
            "pencil (E, A) is singular: a generalized Schur diagonal pair is "
            f"zero to working precision (threshold {thresh:.3e})"
        )


def _select_none(alpha, beta):
    return np.zeros(np.asarray(alpha).shape, dtype=bool)


def infinite_eigenvalue_threshold(e: np.ndarray, a: np.ndarray, tol: float) -> float:
    """Bound on |beta| below which a generalized eigenvalue counts as infinite.

    Combines the E-relative criterion ``tol * ||E||_F`` with the pencil-level
    noise floor of the regularity test, so that an E block that is itself
    numerical noise (for example after a rank reduction) still classifies as
    singular-E rather than producing spurious huge finite eigenvalues.
    """
    n = e.shape[0]
    return max(tol * fro(e), n * EPS * 32.0 * (fro(e) + fro(a)))


def pencil_eigendata(e, a) -> OrderedQz:
    """Generalized Schur form of the pencil (E, A), in QZ order (``split`` 0).

    One real QZ gives orthogonal U, V with U E V = Et upper triangular and
    U A V = At quasi-upper triangular; ``alpha``/``beta`` are the eigenvalue
    data of its diagonal. Eigenvalues are alpha/beta; beta below
    ``infinite_eigenvalue_threshold`` marks an infinite eigenvalue. Raises
    SingularPencil when the pencil has no well-defined spectrum.
    ``qz_ordered`` and the block splits of ``systems`` reorder this form
    instead of factoring (E, A) again.
    """
    e = as_matrix(e, "E")
    a = as_matrix(a, "A")
    n = require_square(e, "E")
    if require_square(a, "A") != n:
        raise DimensionMismatch(f"E and A must have equal sizes, got {e.shape} and {a.shape}")
    if n == 0:
        empty = np.zeros((0, 0))
        return OrderedQz(
            u=empty, v=empty, et=empty, at=empty, split=0,
            alpha=np.zeros(0, dtype=complex), beta=np.zeros(0),
        )
    # ordqz with an empty selection performs no reordering but returns the
    # diagonal data as LAPACK tgsen computes it, like every later reorder.
    try:
        at, et, alpha, beta, q, z = scipy.linalg.ordqz(a, e, sort=_select_none, output="real")
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK-dependent
        raise ConvergenceFailure(f"QZ iteration failed: {exc}") from exc
    _regularity_check(alpha, beta, e, a)
    return OrderedQz(u=q.T, v=z, et=et, at=at, split=0, alpha=alpha, beta=beta)


def _reorder(form: OrderedQz, e, a, selector: EigenvalueSelector, tol: float) -> OrderedQz:
    """Reorder a generalized Schur form of (E, A) so the selected eigenvalues lead.

    LAPACK ``tgsen`` (ijob = 0; Kagstrom & Poromaa, Numer. Algorithms 12,
    1996) swaps the diagonal blocks of ``form`` and updates U and V, so no
    QZ runs. E and A give the infinite-eigenvalue and regularity thresholds.
    Raises ConvergenceFailure when a swap is too ill-conditioned to keep the
    form.
    """
    n = form.et.shape[0]
    if n == 0:
        return form
    inf_thresh = infinite_eigenvalue_threshold(e, a, tol)

    def picked(alpha, beta):
        infinite = np.abs(beta) <= inf_thresh
        lam = np.zeros(alpha.shape, dtype=complex)
        finite = ~infinite
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lam[finite] = alpha[finite] / beta[finite]
        # A singular pencil can surface NaNs here; route them anywhere, the
        # regularity check below rejects the decomposition before use.
        lam[~np.isfinite(lam)] = 0.0
        out = np.asarray(selector.finite(lam), dtype=bool)
        out[infinite] = selector.include_infinite
        return out

    at, et, alphar, alphai, beta, q, z, *_, info = scipy.linalg.lapack.dtgsen(
        picked(form.alpha, form.beta), form.at, form.et, form.u.T, form.v,
        ijob=0, wantq=1, wantz=1, lwork=4 * n + 16, liwork=1,
    )
    if info != 0:
        raise ConvergenceFailure(
            f"reordering the generalized Schur form failed (tgsen info {info}); "
            "swapping its eigenvalues is too ill-conditioned"
        )
    alpha = alphar + alphai * 1j
    _regularity_check(alpha, beta, e, a)
    split = int(np.count_nonzero(picked(alpha, beta)))
    return OrderedQz(u=q.T, v=z, et=et, at=at, split=split, alpha=alpha, beta=beta)


def qz_ordered(e, a, selector: EigenvalueSelector, tol: float | None = None) -> OrderedQz:
    """Ordered QZ decomposition of the pencil (E, A).

    Computes orthogonal U, V with U E V = Et, U A V = At quasi-upper
    triangular, reordered so the leading ``split`` x ``split`` block carries
    exactly the eigenvalues picked by ``selector`` (infinite eigenvalues
    according to its flag) and the trailing block the complement. It is the
    QZ of ``pencil_eigendata`` followed by the ``tgsen`` reorder that the
    block splits of ``systems`` apply to a system's stored form.
    """
    tol = default_tol(tol)
    form = pencil_eigendata(e, a)
    return _reorder(form, as_matrix(e, "E"), as_matrix(a, "A"), selector, tol)


# ---------------------------------------------------------------------------
# Coupled Sylvester equation


def _schur_form(a: np.ndarray, e: np.ndarray):
    """(S, T, Q, Z) with A = Q S Z^T, E = Q T Z^T and (S, T) in real generalized Schur form.

    A pencil already in that form (A zero below its first subdiagonal with no
    two adjacent nonzero subdiagonal entries, E upper triangular), such as a
    diagonal block of ``qz_ordered``, is returned as is with identity factors,
    so no pencil is factored twice.
    """
    i = np.arange(a.shape[0])
    sub = a.diagonal(-1) != 0.0
    below_sub = a[np.greater.outer(i, i + 1)]
    below_diag = e[np.greater.outer(i, i)]
    if not (below_sub.any() or (sub[1:] & sub[:-1]).any() or below_diag.any()):
        eye = np.eye(a.shape[0])
        return a, e, eye, eye
    try:
        return scipy.linalg.qz(a, e, output="real")
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK-dependent
        raise ConvergenceFailure(f"QZ iteration failed: {exc}") from exc


def solve_generalized_sylvester(a1, a3, e1, e3, a2, e2, tol: float | None = None):
    """Solve the coupled pair A1 R - L A3 = -A2 and E1 R - L E3 = -E2.

    The pencils (E1, A1) and (E3, A3) must be regular with disjoint spectra;
    otherwise NoUniqueSolution is raised. Each pencil is brought to real
    generalized Schur form by QZ unless it already is (the diagonal blocks of
    ``qz_ordered`` are), and the reduced equation is solved by LAPACK
    ``tgsyl`` (Kagstrom & Poromaa, ACM TOMS 1996). After the reductions the
    solve costs O(kl(k + l)) time and O(kl) memory.
    """
    tol = default_tol(tol)
    a1 = as_matrix(a1, "A1")
    a3 = as_matrix(a3, "A3")
    e1 = as_matrix(e1, "E1")
    e3 = as_matrix(e3, "E3")
    a2 = as_matrix(a2, "A2")
    e2 = as_matrix(e2, "E2")
    k = require_square(a1, "A1")
    l = require_square(a3, "A3")
    require_square(e1, "E1")
    require_square(e3, "E3")
    if e1.shape[0] != k or a2.shape != (k, l) or e2.shape != (k, l) or e3.shape[0] != l:
        raise DimensionMismatch(
            "inconsistent block sizes for the coupled Sylvester equation: "
            f"A1 {a1.shape}, A3 {a3.shape}, A2 {a2.shape}, E2 {e2.shape}"
        )
    if k == 0 or l == 0:
        return np.zeros((k, l)), np.zeros((k, l))

    # On blocks already in Schur form no call below builds a keyword dict,
    # as np.tril and keyword arguments to f2py wrappers do: whether such a
    # dict is allocated afresh depends on CPython's free lists, so the bytes
    # a call allocates, which traced benchmark runs compare between passes,
    # would vary.
    s1, t1, q1, z1 = _schur_form(a1, e1)
    s3, t3, q3, z3 = _schur_form(a3, e3)
    # In the Schur bases the unknowns are Z1^T R Z3 and Q1^T L Q3; the
    # wrapper's default ijob = 0 solves without the dif estimate.
    r, m_l, scale, _, info = scipy.linalg.lapack.dtgsyl(
        s1, s3, -(q1.T @ a2 @ z3), t1, t3, -(q1.T @ e2 @ z3)
    )
    if info != 0:
        raise NoUniqueSolution(
            f"coupled Sylvester solver failed (info {info}); the block spectra "
            "are not disjoint"
        )
    r = z1 @ (r / scale) @ z3.T
    m_l = q1 @ (m_l / scale) @ q3.T

    bound = tol * (fro(a2) + fro(e2) + 1.0)
    res_a = fro(a1 @ r - m_l @ a3 + a2)
    res_e = fro(e1 @ r - m_l @ e3 + e2)
    if res_a > bound or res_e > bound:
        raise NoUniqueSolution(
            "coupled Sylvester residual too large "
            f"({max(res_a, res_e):.3e} > {bound:.3e}); block spectra are "
            "numerically not disjoint"
        )
    return r, m_l


# ---------------------------------------------------------------------------
# Generalized Lyapunov equation


def solve_generalized_lyapunov(e, a, w, side: str, tol: float | None = None):
    """Solve A X E^T + E X A^T + W = 0 or A^T X E + E^T X A + W = 0.

    ``side`` is ``"controllability"`` for the first form (W = B B^T) and
    ``"observability"`` for the second (W = C^T C). Requires E regular and
    the pencil spectrum strictly inside the open right half-plane, which
    guarantees a unique symmetric solution; the result is explicitly
    symmetrized before return.

    The solve reduces to standard form with F = E^{-1} A (an explicit inverse
    is acceptable: E is regular by contract and desk scale) and delegates the
    standard equation to a Bartels-Stewart backend.
    """
    tol = default_tol(tol)
    e = as_matrix(e, "E")
    a = as_matrix(a, "A")
    w = as_matrix(w, "W")
    n = require_square(e, "E")
    require_square(a, "A")
    require_square(w, "W")
    if a.shape[0] != n or w.shape[0] != n:
        raise DimensionMismatch(
            f"E, A, W must share one order, got {e.shape}, {a.shape}, {w.shape}"
        )
    if side not in ("controllability", "observability"):
        raise ValueError(f"side must be 'controllability' or 'observability', got {side!r}")
    if n == 0:
        return np.zeros((0, 0))

    if fro(w - w.T) > tol * (1.0 + fro(w)):
        raise NonSymmetricInput("right-hand side W must be symmetric")
    w = 0.5 * (w + w.T)

    try:
        f = scipy.linalg.solve(e, a)
        e_inv = scipy.linalg.solve(e, np.eye(n))
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise SpectrumViolation(
            "E is singular; the generalized Lyapunov equation requires a "
            "regular E (finite spectrum)"
        ) from exc

    lam = scipy.linalg.eigvals(f)
    band = tol * (1.0 + np.abs(lam))
    bad = lam.real <= band
    if bad.any():
        worst = lam[bad][np.argmin(lam[bad].real)]
        raise SpectrumViolation(
            "pencil spectrum must lie strictly in the open right half-plane; "
            f"found eigenvalue {worst:.6g}"
        )

    if side == "controllability":
        # F X + X F^T = -E^{-1} W E^{-T}
        q = e_inv @ w @ e_inv.T
        x = scipy.linalg.solve_continuous_lyapunov(f, -q)
    else:
        # Substituting Y = E^T X E turns the dual equation into
        # F^T Y + Y F = -W.
        y = scipy.linalg.solve_continuous_lyapunov(f.T, -w)
        x = e_inv.T @ y @ e_inv
    return 0.5 * (x + x.T)


# ---------------------------------------------------------------------------
# SVD


def svd(m, tol: float | None = None) -> SvdResult:
    """Full SVD M = U diag(s) V^T with a tolerance-relative numeric rank."""
    tol = default_tol(tol)
    m = as_matrix(m, "M")
    if m.size == 0:
        return SvdResult(
            u=np.eye(m.shape[0]),
            singular_values=np.zeros(0),
            v=np.eye(m.shape[1]),
            numeric_rank=0,
        )
    u, s, vh = np.linalg.svd(m, full_matrices=True)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > tol * s[0]))
    return SvdResult(u=u, singular_values=s, v=vh.T, numeric_rank=rank)
