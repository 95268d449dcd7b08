"""Descriptor-system model, transfer evaluation, and spectral decompositions.

A descriptor system is the quintuple (E, A, B, C, D) with transfer function
G(s) = C (sE - A)^{-1} B + D. E may be singular as long as the pencil
(E, A) is regular; n = 0 is allowed and realizes the constant transfer D.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    AtPole,
    AxisEigenvalue,
    DimensionMismatch,
    SingularTransform,
    SpectrumViolation,
)
from .kernels import (
    OrderedQz,
    _regularity_check,
    _reorder,
    all_finite,
    infinite_eigenvalue_threshold,
    pencil_eigendata,
    solve_generalized_sylvester,
    svd,
    stable_or_infinite,
)
from .util import as_matrix, default_tol, fro, require_square

__all__ = [
    "DescriptorSystem",
    "empty_system",
    "negate_output",
    "StabilityClass",
    "SpectrumReport",
    "WeierstrassSplit",
    "AdditiveDecomposition",
    "pencil_spectrum",
    "transfer_eval",
    "frequency_response",
    "transfer_polynomial_part",
    "response_at_infinity",
    "direct_sum",
    "rse_transform",
    "weierstrass_split",
    "additive_decompose",
]


def _frozen(m: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(m)
    m.flags.writeable = False
    return m


class DescriptorSystem:
    """Immutable descriptor system (E, A, B, C, D).

    Construction validates dimensions, finiteness, and pencil regularity;
    every downstream operation may therefore assume a regular pencil. The
    generalized Schur form of (E, A) that validation computes is kept, so
    the system is factored once: spectral questions read its diagonal, and
    the Weierstrass split and the additive decomposition reorder it.
    """

    __slots__ = ("e", "a", "b", "c", "d", "_schur")

    def __init__(self, e, a, b, c, d=None):
        e = as_matrix(e, "E")
        a = as_matrix(a, "A")
        b = as_matrix(b, "B")
        c = as_matrix(c, "C")
        n = require_square(e, "E")
        if require_square(a, "A") != n:
            raise DimensionMismatch(f"A must be {n}x{n}, got {a.shape}")
        if b.shape[0] != n:
            raise DimensionMismatch(f"B must have {n} rows, got {b.shape}")
        if c.shape[1] != n:
            raise DimensionMismatch(f"C must have {n} columns, got {c.shape}")
        m = b.shape[1]
        p = c.shape[0]
        if d is None:
            d = np.zeros((p, m))
        else:
            d = as_matrix(d, "D")
        if d.shape != (p, m):
            raise DimensionMismatch(f"D must be {p}x{m}, got {d.shape}")
        # pencil_eigendata raises SingularPencil when the pencil is degenerate.
        self._store(e, a, b, c, d, pencil_eigendata(e, a))

    def _store(self, e, a, b, c, d, schur: OrderedQz) -> None:
        for name, m in zip(self.__slots__, (e, a, b, c, d)):
            setattr(self, name, _frozen(m))
        for m in (schur.u, schur.v, schur.et, schur.at, schur.alpha, schur.beta):
            m.flags.writeable = False
        self._schur = schur

    @property
    def n(self) -> int:
        return self.e.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @property
    def p(self) -> int:
        return self.c.shape[0]

    def __repr__(self) -> str:
        return f"DescriptorSystem(n={self.n}, m={self.m}, p={self.p})"


def _known_spectrum(e, a, b, c, d, schur: OrderedQz) -> DescriptorSystem:
    """A system whose generalized Schur form ``schur`` is known by construction.

    Serves QZ diagonal blocks, direct sums and sign flips of validated
    systems: the constructor's regularity criterion runs on the form's
    diagonal data instead of on a fresh factorization.
    """
    _regularity_check(schur.alpha, schur.beta, e, a)
    s = object.__new__(DescriptorSystem)
    s._store(e, a, b, c, d, schur)
    return s


def _diagonal_block(oq: OrderedQz, lo: int, hi: int, b, c, d) -> DescriptorSystem:
    """The diagonal block [lo:hi, lo:hi] of a generalized Schur form as a system.

    Such a block is its own generalized Schur form, with U = V = I.
    """
    e = _frozen(oq.et[lo:hi, lo:hi])
    a = _frozen(oq.at[lo:hi, lo:hi])
    eye = np.eye(hi - lo)
    schur = OrderedQz(
        u=eye, v=eye, et=e, at=a, split=0, alpha=oq.alpha[lo:hi], beta=oq.beta[lo:hi]
    )
    return _known_spectrum(e, a, b, c, d, schur)


def _mirror(s: DescriptorSystem) -> DescriptorSystem:
    """The system (E, -A, B, -C, D), which realizes G(-s).

    Its Schur form is the source's with At negated; the eigenvalues change
    sign (conjugated too, which keeps LAPACK's order within complex pairs).
    """
    f = s._schur
    schur = OrderedQz(
        u=f.u, v=f.v, et=f.et, at=-f.at, split=0, alpha=-f.alpha.conj(), beta=f.beta
    )
    return _known_spectrum(s.e, -s.a, s.b, -s.c, s.d, schur)


def empty_system(m: int, p: int, d=None) -> DescriptorSystem:
    """The order-0 system with constant transfer D (zero when omitted)."""
    if d is None:
        d = np.zeros((p, m))
    return DescriptorSystem(
        np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, m)), np.zeros((p, 0)), d
    )


def negate_output(s: DescriptorSystem) -> DescriptorSystem:
    """The system realizing -G(s); used to form error systems S + (-S_hat)."""
    return _known_spectrum(s.e, s.a, s.b, -s.c, -s.d, s._schur)


# ---------------------------------------------------------------------------
# Spectrum


class StabilityClass(enum.Enum):
    STABLE = "stable"
    ANTISTABLE = "antistable"
    AXIS_FREE = "axis-free"
    AXIS_EIGENVALUE = "axis-eigenvalue"
    SINGULAR_PENCIL = "singular-pencil"


@dataclass(frozen=True)
class SpectrumReport:
    """Finite pencil eigenvalues with multiplicity plus classification.

    ``margin`` is the minimum distance of the finite eigenvalues to the
    imaginary axis (+inf when every eigenvalue is infinite).
    """

    finite_eigenvalues: np.ndarray
    has_infinite: bool
    n_infinite: int
    stability_class: StabilityClass
    margin: float


def pencil_spectrum(s: DescriptorSystem, tol: float | None = None) -> SpectrumReport:
    """Classify the pencil spectrum of a descriptor system.

    Stable means every finite eigenvalue has Re < 0 (infinite allowed);
    antistable means every eigenvalue is finite with Re > 0 (E regular).
    Finite eigenvalues within the band |Re| <= tol * (1 + |lambda|) are
    classified as axis eigenvalues. Reads the diagonal of the Schur form
    stored at construction; every threshold comes from the system's own E
    and A.
    """
    tol = default_tol(tol)
    alpha, beta = s._schur.alpha, s._schur.beta
    inf_mask = np.abs(beta) <= infinite_eigenvalue_threshold(s.e, s.a, tol)
    n_inf = int(np.count_nonzero(inf_mask))
    finite = alpha[~inf_mask] / beta[~inf_mask]
    order = np.lexsort((finite.imag, finite.real))
    finite = finite[order]

    if finite.size == 0:
        margin = float("inf")
    else:
        margin = float(np.min(np.abs(finite.real)))
    band = tol * (1.0 + np.abs(finite))
    if finite.size and (np.abs(finite.real) <= band).any():
        cls = StabilityClass.AXIS_EIGENVALUE
    elif finite.size == 0 or (finite.real < 0).all():
        cls = StabilityClass.STABLE
    elif (finite.real > 0).all() and n_inf == 0:
        cls = StabilityClass.ANTISTABLE
    else:
        cls = StabilityClass.AXIS_FREE
    return SpectrumReport(
        finite_eigenvalues=finite,
        has_infinite=n_inf > 0,
        n_infinite=n_inf,
        stability_class=cls,
        margin=margin,
    )


# ---------------------------------------------------------------------------
# Transfer function evaluation


def transfer_eval(s: DescriptorSystem, z: complex) -> np.ndarray:
    """Evaluate G(z) = C (zE - A)^{-1} B + D at one point.

    Raises AtPole when zE - A is numerically singular (condition number
    beyond 1/tol territory).
    """
    if s.n == 0:
        return s.d.astype(complex)
    pencil = z * s.e.astype(complex) - s.a
    try:
        x = np.linalg.solve(pencil, s.b.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise AtPole(f"s = {z} is a pole of the transfer function", s=z) from exc
    cond = np.linalg.cond(pencil)
    if not np.isfinite(cond) or cond > 1.0 / default_tol():
        raise AtPole(
            f"s = {z} is numerically at a pole (condition number {cond:.3e})", s=z
        )
    return s.c @ x + s.d


#: Bytes of complex n x n pencils that ``frequency_response`` stacks into one
#: solve; longer grids are solved block by block, so memory stays bounded.
_RESPONSE_BLOCK_BYTES = 1 << 20


def frequency_response(s: DescriptorSystem, omegas) -> np.ndarray:
    """Evaluate G(i omega) on a batch of frequencies.

    Returns a (k, p, m) complex array. The frequencies are solved in stacked
    blocks of about ``_RESPONSE_BLOCK_BYTES`` of pencils each, so a long grid
    costs a few LAPACK batches rather than k Python-level calls, and its
    memory does not grow with k.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=np.float64))
    k = omegas.shape[0]
    if s.n == 0:
        return np.broadcast_to(s.d.astype(complex), (k, s.p, s.m)).copy()
    step = max(1, _RESPONSE_BLOCK_BYTES // (16 * s.n * s.n))
    b = s.b.astype(complex)
    out = np.empty((k, s.p, s.m), dtype=complex)
    for lo in range(0, k, step):
        ws = omegas[lo : lo + step]
        pencils = 1j * ws[:, None, None] * s.e - s.a
        try:
            x = np.linalg.solve(pencils, np.broadcast_to(b, (ws.size, s.n, s.m)))
        except np.linalg.LinAlgError as exc:
            raise AtPole("a grid frequency sits numerically on a pole") from exc
        out[lo : lo + step] = s.c @ x + s.d
    return out


def transfer_polynomial_part(s: DescriptorSystem, tol: float | None = None) -> np.ndarray:
    """Coefficients T_i of the behaviour of G at infinity.

    Returns an (l, p, m) array with G(s) = strictly-proper part +
    sum_i s^i T_i; trailing negligible coefficients are trimmed, so l = 1
    with T_0 = D for a system with regular E. l > 1 means G is improper.
    """
    tol = default_tol(tol)
    if not pencil_spectrum(s, tol).has_infinite:
        return s.d[None, :, :].copy()
    ws = weierstrass_split(s, tol)
    coeffs = [np.asarray(s.d, dtype=np.float64).copy()]
    if ws.nil.shape[0] > 0:
        power = np.eye(ws.nil.shape[0])
        scales = []
        raw = []
        for _ in range(ws.nu):
            raw.append(ws.c_n @ power @ ws.b_n)
            scales.append(fro(ws.c_n) * fro(power) * fro(ws.b_n))
            power = power @ ws.nil
        coeffs[0] -= raw[0]
        for i in range(1, len(raw)):
            coeffs.append(-raw[i])
        # Trim trailing coefficients that vanish relative to their own
        # construction scale (products of already-computed factors).
        while len(coeffs) > 1:
            i = len(coeffs) - 1
            if fro(coeffs[i]) <= tol * (1.0 + scales[i]):
                coeffs.pop()
            else:
                break
    return np.stack(coeffs, axis=0)


def response_at_infinity(s: DescriptorSystem, tol: float | None = None) -> np.ndarray | None:
    """The limit of G(s) as s -> infinity, or None when G is unbounded there."""
    coeffs = transfer_polynomial_part(s, tol)
    if coeffs.shape[0] > 1:
        return None
    return coeffs[0]


# ---------------------------------------------------------------------------
# System algebra


def direct_sum(s1: DescriptorSystem, s2: DescriptorSystem) -> DescriptorSystem:
    """Parallel connection: block-diagonal states, transfer G1 + G2."""
    if s1.m != s2.m or s1.p != s2.p:
        raise DimensionMismatch(
            f"direct sum needs matching input/output counts, got "
            f"({s1.m},{s1.p}) and ({s2.m},{s2.p})"
        )
    e = scipy.linalg.block_diag(s1.e, s2.e)
    a = scipy.linalg.block_diag(s1.a, s2.a)
    b = np.vstack([s1.b, s2.b])
    c = np.hstack([s1.c, s2.c])
    d = s1.d + s2.d
    f1, f2 = s1._schur, s2._schur
    schur = OrderedQz(
        u=scipy.linalg.block_diag(f1.u, f2.u),
        v=scipy.linalg.block_diag(f1.v, f2.v),
        et=scipy.linalg.block_diag(f1.et, f2.et),
        at=scipy.linalg.block_diag(f1.at, f2.at),
        split=0,
        alpha=np.concatenate([f1.alpha, f2.alpha]),
        beta=np.concatenate([f1.beta, f2.beta]),
    )
    return _known_spectrum(e, a, b, c, d, schur)


def rse_transform(p, s: DescriptorSystem, q) -> DescriptorSystem:
    """Restricted system equivalence (PEQ, PAQ, PB, CQ, D).

    P and Q must be regular n x n; the transfer function is unchanged.
    """
    p = as_matrix(p, "P")
    q = as_matrix(q, "Q")
    n = s.n
    if p.shape != (n, n) or q.shape != (n, n):
        raise DimensionMismatch(
            f"P and Q must be {n}x{n}, got {p.shape} and {q.shape}"
        )
    for name, m in (("P", p), ("Q", q)):
        if n == 0:
            continue
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] <= default_tol() * sv[0]:
            raise SingularTransform(f"{name} is numerically rank-deficient")
    return DescriptorSystem(p @ s.e @ q, p @ s.a @ q, p @ s.b, s.c @ q, s.d)


# ---------------------------------------------------------------------------
# Block split shared by the Weierstrass split and the additive decomposition


def _block_split(s: DescriptorSystem, selector, tol: float):
    """Reordered Schur form of (E, A) plus Sylvester decoupling of its two blocks.

    The system's stored generalized Schur form is reordered by LAPACK
    ``tgsen``; no QZ runs. Returns ``(oq, p, q)``: P (E, A) Q is block
    diagonal with the diagonal blocks of ``oq.et``/``oq.at`` split at
    ``oq.split``, the leading block carrying the eigenvalues the selector
    picks.
    """
    oq = _reorder(s._schur, s.e, s.a, selector, tol)
    k = oq.split
    n = s.n
    e1, e2, e3 = oq.et[:k, :k], oq.et[:k, k:], oq.et[k:, k:]
    a1, a2, a3 = oq.at[:k, :k], oq.at[:k, k:], oq.at[k:, k:]
    if k == 0 or k == n:
        r = l = np.zeros((k, n - k))
    else:
        r, l = solve_generalized_sylvester(a1, a3, e1, e3, a2, e2, tol)
    p_mat = np.block(
        [[np.eye(k), -l], [np.zeros((n - k, k)), np.eye(n - k)]]
    ) @ oq.u
    q_mat = oq.v @ np.block(
        [[np.eye(k), r], [np.zeros((n - k, k)), np.eye(n - k)]]
    )
    return oq, p_mat, q_mat


# ---------------------------------------------------------------------------
# Weierstrass-like split


@dataclass(frozen=True)
class WeierstrassSplit:
    """Decoupled slow/fast form of a regular pencil system.

    The transfer function satisfies
    G(s) = c_j (sI - j)^{-1} b_j + d - sum_{i<nu} s^i c_n nil^i b_n,
    where ``j`` carries the finite spectrum and ``nil`` is nilpotent with
    index ``nu``.
    """

    j: np.ndarray
    b_j: np.ndarray
    c_j: np.ndarray
    nil: np.ndarray
    b_n: np.ndarray
    c_n: np.ndarray
    d: np.ndarray
    nu: int


def weierstrass_split(s: DescriptorSystem, tol: float | None = None) -> WeierstrassSplit:
    """Split a system into its finite (standard) and infinite (nilpotent) parts."""
    tol = default_tol(tol)
    oq, p_mat, q_mat = _block_split(s, all_finite(), tol)
    k = oq.split
    n = s.n
    e1, e3 = oq.et[:k, :k], oq.et[k:, k:]
    a1, a3 = oq.at[:k, :k], oq.at[k:, k:]
    # Scale the decoupled blocks: the finite block gets identity E, the
    # infinite block identity A.
    if k > 0:
        p_top = scipy.linalg.solve(e1, p_mat[:k, :])
        j = scipy.linalg.solve(e1, a1)
    else:
        p_top = p_mat[:k, :]
        j = np.zeros((0, 0))
    if n - k > 0:
        q_right = scipy.linalg.solve(a3.T, q_mat[:, k:].T).T
        nil = scipy.linalg.solve(a3.T, e3.T).T
    else:
        q_right = q_mat[:, k:]
        nil = np.zeros((0, 0))

    b_all = np.vstack([p_top @ s.b, p_mat[k:, :] @ s.b])
    c_all = np.hstack([s.c @ q_mat[:, :k], s.c @ q_right])
    b_j, b_n = b_all[:k, :], b_all[k:, :]
    c_j, c_n = c_all[:, :k], c_all[:, k:]

    size = n - k
    nu = 1
    if size > 0:
        power = nil.copy()
        nu = size
        for i in range(1, size + 1):
            if fro(power) <= tol * max(1.0, fro(nil)):
                nu = i
                break
            power = power @ nil
    return WeierstrassSplit(
        j=j, b_j=b_j, c_j=c_j, nil=nil, b_n=b_n, c_n=c_n, d=s.d.copy(), nu=nu
    )


# ---------------------------------------------------------------------------
# Additive decomposition


@dataclass(frozen=True)
class AdditiveDecomposition:
    """Stable/antistable splitting S ~ s_plus + s_minus.

    ``s_plus`` carries the full feedthrough and any infinite eigenvalues;
    ``s_minus`` has regular E, zero feedthrough, and spectrum in Re > 0.
    ``p`` and ``q`` are the equivalence transforms: (P E Q, P A Q, P B, C Q, D)
    equals s_plus (+) s_minus block for block.
    """

    s_plus: DescriptorSystem
    s_minus: DescriptorSystem
    p: np.ndarray
    q: np.ndarray


def additive_decompose(s: DescriptorSystem, tol: float | None = None) -> AdditiveDecomposition:
    """Split a system with no axis eigenvalues into stable + antistable parts.

    The transfer functions add: G = G_plus + G_minus on the whole axis.
    Raises AxisEigenvalue (with the offending eigenvalue) when the pencil
    spectrum touches the tolerance band around the imaginary axis.
    """
    tol = default_tol(tol)
    rep = pencil_spectrum(s, tol)
    if rep.stability_class is StabilityClass.AXIS_EIGENVALUE:
        fin = rep.finite_eigenvalues
        offender = fin[np.argmin(np.abs(fin.real) - tol * (1.0 + np.abs(fin)))]
        raise AxisEigenvalue(complex(offender))
    eye = np.eye(s.n)
    if rep.stability_class is StabilityClass.STABLE:
        return AdditiveDecomposition(
            s_plus=s, s_minus=empty_system(s.m, s.p), p=eye, q=eye.copy()
        )
    if rep.stability_class is StabilityClass.ANTISTABLE:
        s_minus = _known_spectrum(s.e, s.a, s.b, s.c, np.zeros((s.p, s.m)), s._schur)
        return AdditiveDecomposition(
            s_plus=empty_system(s.m, s.p, s.d), s_minus=s_minus, p=eye, q=eye.copy()
        )

    oq, p_mat, q_mat = _block_split(s, stable_or_infinite(), tol)
    k = oq.split
    b_t = p_mat @ s.b
    c_t = s.c @ q_mat
    s_plus = _diagonal_block(oq, 0, k, b_t[:k, :], c_t[:, :k], s.d)
    s_minus = _diagonal_block(oq, k, s.n, b_t[k:, :], c_t[:, k:], np.zeros((s.p, s.m)))
    # The selector routed eigenvalues; reclassify to catch borderline drift.
    if pencil_spectrum(s_plus, tol).stability_class is not StabilityClass.STABLE:
        raise SpectrumViolation("separated slow part failed the stability check")
    if pencil_spectrum(s_minus, tol).stability_class is not StabilityClass.ANTISTABLE:
        raise SpectrumViolation("separated fast part failed the antistability check")
    return AdditiveDecomposition(s_plus=s_plus, s_minus=s_minus, p=p_mat, q=q_mat)
