"""Dense real matrix factorizations and the coupled Sylvester solver.

This module wraps the LAPACK-backed factorizations (generalized and real
Schur forms, SVD) behind the contracts the rest of the package relies on,
and solves, on the diagonal blocks of a generalized Schur form and with no
factorization of its own, the coupled generalized Sylvester equation that
block-diagonalizes that form. Which eigenvalues of a pencil are infinite
is decided once, by rank decisions on E against ``util.TOL``, when
``pencil_eigendata`` builds the generalized Schur form: the infinite pairs
go last, with beta exactly 0. The singular values of that rank test also
pick the route. An E of full numeric rank with sigma_max(E) <= ``_KAPPA``
sigma_min(E) (10) is served by one sorted real Schur form of E^{-1} A,
which puts the antistable pairs first; every other E goes through one
staircase and an unsorted QZ. Where the finite eigenvalues lie is read in
``systems``, which also reorders a system's stored form when its order is
not the one a split needs; the Gramians' Lyapunov equations are solved in
``gramians``, on that stored form.

All operations are pure functions over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NoUniqueSolution,
    SingularPencil,
)
from .util import EPS, TOL, as_matrix, fro, require_square

__all__ = [
    "OrderedQz",
    "SvdResult",
    "pencil_eigendata",
    "solve_generalized_sylvester",
    "svd",
]


# ---------------------------------------------------------------------------
# Result containers


@dataclass(frozen=True)
class OrderedQz:
    """Ordered generalized Schur decomposition U E V = Et, U A V = At.

    ``u`` and ``v`` are orthogonal, ``et``/``at`` quasi-upper-triangular,
    and ``alpha``/``beta`` the generalized eigenvalue data of the diagonal.
    The layout is [finite | infinite]: ``split`` counts the finite pairs,
    which lead, and the trailing ``n - split`` pairs are infinite, with
    beta exactly 0, ``et`` strictly and ``at`` upper triangular there.
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
    counts singular values above ``TOL * s[0]``.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray
    numeric_rank: int


# ---------------------------------------------------------------------------
# Pencil eigenvalue extraction and regularity


def _noise_floor(e: np.ndarray, a: np.ndarray) -> float:
    """The roundoff level of the pencil (E, A): 32 n eps (||E||_F + ||A||_F)."""
    return e.shape[0] * EPS * 32.0 * (fro(e) + fro(a))


def _regularity_check(alpha: np.ndarray, beta: np.ndarray, e: np.ndarray, a: np.ndarray) -> None:
    """Declare the pencil singular when a QZ diagonal pair is doubly tiny.

    Criterion: some (ett, att) with max(|ett|, |att|) at or below
    ``_noise_floor(e, a)``.
    """
    if e.shape[0] == 0:
        return
    thresh = _noise_floor(e, a)
    tiny = np.maximum(np.abs(alpha), np.abs(beta)) <= thresh
    if tiny.any():
        raise SingularPencil(
            "pencil (E, A) is singular: a generalized Schur diagonal pair is "
            f"zero to working precision (threshold {thresh:.3e})"
        )


def _qz(a: np.ndarray, e: np.ndarray):
    # ordqz with an empty selection performs no reordering but returns the
    # diagonal data as LAPACK tgsen computes it, like every later reorder.
    try:
        return scipy.linalg.ordqz(
            a, e, sort=lambda alpha, beta: np.zeros(alpha.shape, dtype=bool), output="real"
        )
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK-dependent
        raise ConvergenceFailure(f"QZ iteration failed: {exc}") from exc


#: Largest condition number sigma_max(E) / sigma_min(E) for which
#: ``pencil_eigendata`` factors E^{-1} A by one real Schur form instead of
#: running QZ on (A, E). Forming E^{-1} A adds a backward error of about
#: cond(E) eps ||A||, which at 10 stays within one digit of QZ's.
_KAPPA = 10.0


def _antistable(wr, wi):
    return wr > 0.0


def _real_schur(f: np.ndarray):
    """Real Schur form Z^T F Z = S by LAPACK ``gees``, eigenvalues with Re > 0 first.

    Returns (S, Z, eigenvalues), the eigenvalues in diagonal order. ``gees``
    orders the form by the standard reordering of ``trsen`` (Bai & Demmel,
    LAA 186, 1993). Its info n + 2 says that roundoff moved a sorted
    eigenvalue across the axis: the form is still valid, and the additive
    split, which reads the order from the returned eigenvalues, reorders
    what it must.
    """
    n = f.shape[0]
    lwork = int(scipy.linalg.lapack.dgees(_antistable, f, lwork=-1)[-2][0])
    s, _, wr, wi, z, _, info = scipy.linalg.lapack.dgees(_antistable, f, lwork=lwork, sort_t=1)
    if info and info != n + 2:
        what = "reordering the real Schur form" if info == n + 1 else "real Schur iteration"
        raise ConvergenceFailure(f"{what} failed (gees info {info})")
    return s, z, wr + 1j * wi


def _standardize_pairs(t, s_f, u, v) -> None:
    """Make the 2x2 diagonal blocks of T diagonal and nonnegative, in place.

    The blocks sit where the quasi-triangular S_F has a subdiagonal entry.
    The SVD P diag(sigma) W^T of each block of T gives the rotations: the
    rows of T and U turn by P^T, the rows of S_F by W^T, and the columns of
    T, S_F and V by W, so T S_F and U E V = T keep their meaning and the
    entries below both diagonals stay exactly zero.
    """
    j = np.flatnonzero(s_f.diagonal(-1))
    if not j.size:
        return
    idx = np.stack([j, j + 1], axis=1)
    block = (idx[:, :, None], idx[:, None, :])
    p, sigma, wt = np.linalg.svd(t[block])
    pt = p.transpose(0, 2, 1)
    for m, g in ((t, pt), (u, pt), (s_f, wt), (t.T, wt), (s_f.T, wt), (v.T, wt)):
        m[idx] = g @ m[idx]
    t[block] = sigma[:, :, None] * np.eye(2)


def _sorted_schur(e: np.ndarray, a: np.ndarray, identity: bool) -> OrderedQz:
    """The form of a pencil with a well-conditioned E, antistable pairs first.

    F = E^{-1} A (one LU solve) has the pencil's eigenvalues; its sorted
    real Schur form Z^T F Z = S_F and the QR factorization E Z = Q R give
    U = Q^T, V = Z, T = R and S = R S_F, exactly quasi-triangular because R
    is upper triangular. T's diagonal is made nonnegative and its 2x2 blocks
    diagonal, LAPACK's canonical form. For E exactly I, F = A and the form
    is the real Schur form itself, T = I. beta is T's diagonal and alpha
    the eigenvalues of F times beta, so a 1x1 block stores its own pair and
    the pairs scale with (E, A), as QZ's do; beta = 1 when T = I.
    """
    n = a.shape[0]
    if identity:
        s_f, z, alpha = _real_schur(a)
        return OrderedQz(u=z.T, v=z, et=e, at=s_f, split=n, alpha=alpha, beta=np.ones(n))
    s_f, z, alpha = _real_schur(np.linalg.solve(e, a))
    q, t = np.linalg.qr(e @ z)
    u = q.T
    signs = np.copysign(1.0, t.diagonal())[:, None]
    t *= signs
    u *= signs
    _standardize_pairs(t, s_f, u, z)
    beta = t.diagonal().copy()
    return OrderedQz(u=u, v=z, et=t, at=t @ s_f, split=n, alpha=alpha * beta, beta=beta)


def _deflate_infinite(t, s, sv, floor: float, a_floor: float, slack: float):
    """Staircase deflation of the infinite eigenvalues of (T, S).

    Each step tests the leading block of T for singular values at or below
    ``floor``, without singular vectors (``sv`` holds those of the whole T,
    computed by the caller); only a rank-deficient block is decomposed: its
    rows are rotated by its left singular vectors, the null rows zeroed,
    the same rows of S RQ-compressed onto a triangle R, and the block
    shrinks (Van Dooren, LAA 27, 1979). Returns ``(T, S, U, V, k)``, k the
    size of the block left and U, V the accumulated rotations; without a
    step T and S come back uncopied, with U = V = None. An R_ii at or below
    ``a_floor`` means a zero row in T and S: a singular pencil. S must
    dominate the null rows, min |R_ii| * floor > ``slack`` * (largest null
    singular value); rows small in T and S alike belong to a badly scaled
    finite eigenvalue, so the staircase stops and QZ reads them.
    """
    k, u, v = t.shape[0], None, None
    while k:
        r = int(np.count_nonzero(sv > floor))
        if r == k:
            break
        w, sv, _ = np.linalg.svd(t[:k, :k])
        tri, q = scipy.linalg.rq(w[:, r:].T @ s[:k, :k])
        r_min = np.abs(np.diagonal(tri[:, r:])).min()
        if r_min <= a_floor:
            raise SingularPencil(
                "pencil (E, A) is singular: a null row of E meets a row of A "
                f"below {a_floor:.3e}"
            )
        if r_min * floor <= slack * sv[r]:
            break
        if u is None:
            t, s, u, v = t.copy(), s.copy(), np.eye(len(t)), np.eye(len(t))
        for m in (t, s, u):
            m[:k] = w.T @ m[:k]
        for m in (t[:k], s[:k], v):
            m[:, :k] = m[:, :k] @ q.T
        t[r:k, :k] = 0.0
        s[r:k, :k] = np.triu(s[r:k, :k], r)
        k = r
        if k:
            sv = np.linalg.svd(t[:k, :k], compute_uv=False)
    return t, s, u, v, k


def _empty_form() -> OrderedQz:
    """The generalized Schur form of the empty pencil."""
    empty = np.zeros((0, 0))
    return OrderedQz(
        u=empty, v=empty, et=empty, at=empty, split=0,
        alpha=np.zeros(0, dtype=complex), beta=np.zeros(0),
    )


def pencil_eigendata(e, a) -> OrderedQz:
    """Generalized Schur form of the pencil (E, A), finite pairs first.

    Which eigenvalues are infinite is decided here, once, by rank decisions
    on E: singular values at or below max(TOL ||E||_F, ``_noise_floor``)
    count as zero. One SVD of E without singular vectors (none for E
    exactly I, whose singular values are all 1) picks the route:

    * E of full numeric rank with sigma_max(E) <= ``_KAPPA`` sigma_min(E):
      ``_sorted_schur`` factors E^{-1} A by one real Schur form (LAPACK
      ``gees``) and a QR factorization, at a fraction of the cost of QZ.
      The antistable pairs lead, so the additive split reorders nothing.
      An E of full rank makes the pencil regular, so nothing is checked.
    * every other E: ``_deflate_infinite``, whose first rank test reads
      the same singular values, moves the infinite eigenvalues into a
      trailing block, and QZ runs, unsorted, on the leading one; an E of
      full numeric rank costs one QZ of (A, E).

    Raises SingularPencil when the pencil has no well-defined spectrum.
    ``systems`` reorders this form instead of factoring again.
    """
    e = as_matrix(e, "E")
    a = as_matrix(a, "A")
    n = require_square(e, "E")
    if require_square(a, "A") != n:
        raise DimensionMismatch(f"E and A must have equal sizes, got {e.shape} and {a.shape}")
    if n == 0:
        return _empty_form()
    noise = _noise_floor(e, a)
    floor = max(TOL * fro(e), noise)
    identity = np.array_equal(e, np.eye(n))
    sv = np.ones(n) if identity else np.linalg.svd(e, compute_uv=False)
    if sv[-1] > floor and sv[0] <= _KAPPA * sv[-1]:
        return _sorted_schur(e, a, identity)
    a_floor, slack = max(TOL * fro(a), noise), math.sqrt(TOL) * fro(a)
    et, at, u, v, k = _deflate_infinite(e, a, sv, floor, a_floor, slack)
    alpha, beta = at.diagonal().astype(complex), np.zeros(n)
    if k:
        ak, ek, alpha[:k], beta[:k], q, z = _qz(at[:k, :k], et[:k, :k])
        if u is None:  # no staircase step: the form is the QZ of (A, E)
            at, et, u, v = ak, ek, q.T, z
        else:
            at[:k, :k], et[:k, :k] = ak, ek
            et[:k, k:], at[:k, k:] = q.T @ et[:k, k:], q.T @ at[:k, k:]
            u[:k] = q.T @ u[:k]
            v[:, :k] = v[:, :k] @ z
    _regularity_check(alpha, beta, e, a)
    return OrderedQz(u=u, v=v, et=et, at=at, split=k, alpha=alpha, beta=beta)


# ---------------------------------------------------------------------------
# Coupled Sylvester equation


def solve_generalized_sylvester(a1, a3, e1, e3, a2, e2):
    """Solve the coupled pair A1 R - L A3 = -A2 and E1 R - L E3 = -E2.

    (A1, E1) and (A3, E3) must be diagonal blocks of a real generalized
    Schur form (A quasi-upper and E upper triangular), as ``_block_split``
    passes them, with disjoint spectra. LAPACK ``tgsyl`` (Kagstrom &
    Poromaa, ACM TOMS 1996) solves the pair in O(kl(k + l)) time and O(kl)
    memory. The residual is checked on the input, so blocks that break
    the contract, or spectra that are not disjoint, raise NoUniqueSolution.
    """
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

    # No call below builds a keyword dict, as np.tril and keyword arguments
    # to f2py wrappers do: whether such a dict is allocated afresh depends
    # on CPython's free lists, so the bytes a call allocates, which traced
    # benchmark runs compare between passes, would vary. The wrapper's
    # default ijob = 0 solves without the dif estimate.
    r, m_l, scale, _, info = scipy.linalg.lapack.dtgsyl(a1, a3, -a2, e1, e3, -e2)
    if info != 0:
        raise NoUniqueSolution(
            f"coupled Sylvester solver failed (info {info}); the block spectra "
            "are not disjoint"
        )
    r = r / scale
    m_l = m_l / scale

    bound = TOL * (fro(a2) + fro(e2) + 1.0)
    res_a = fro(a1 @ r - m_l @ a3 + a2)
    res_e = fro(e1 @ r - m_l @ e3 + e2)
    if res_a > bound or res_e > bound:
        raise NoUniqueSolution(
            "coupled Sylvester residual too large "
            f"({max(res_a, res_e):.3e} > {bound:.3e}); the blocks are not in "
            "real generalized Schur form, or their spectra are numerically "
            "not disjoint"
        )
    return r, m_l


# ---------------------------------------------------------------------------
# SVD


def svd(m) -> SvdResult:
    """Full SVD M = U diag(s) V^T with a numeric rank relative to ``TOL``."""
    m = as_matrix(m, "M")
    if m.size == 0:
        return SvdResult(
            u=np.eye(m.shape[0]),
            singular_values=np.zeros(0),
            v=np.eye(m.shape[1]),
            numeric_rank=0,
        )
    u, s, vh = np.linalg.svd(m, full_matrices=True)
    rank = int(np.count_nonzero(s > TOL * s[0]))
    return SvdResult(u=u, singular_values=s, v=vh.T, numeric_rank=rank)
