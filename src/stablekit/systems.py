"""Descriptor-system model, transfer evaluation, and spectral decompositions.

A descriptor system is the quintuple (E, A, B, C, D) with transfer function
G(s) = C (sE - A)^{-1} B + D. E may be singular as long as the pencil
(E, A) is regular; n = 0 is allowed and realizes the constant transfer D.

Every system keeps the generalized Schur form of (E, A) from its
construction, laid out as [finite | infinite]: which pairs are infinite is
decided there, once, by rank decisions on E, and every form built from it
keeps that layout. For a standard system (E exactly I) that form is one
real Schur form of A, with T = I; every reader takes it as it takes a QZ
form. ``_classify`` reads the layout and the finite eigenvalues from the
stored diagonal: the spectrum report reads it, with an imaginary-axis band
set by ``util.TOL``, and the additive decomposition reorders the finite
pairs by a mask computed from it. The Weierstrass split needs no
reordering at all.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    AtPole,
    AxisEigenvalue,
    ConvergenceFailure,
    DimensionMismatch,
    SingularTransform,
    SpectrumViolation,
)
from .kernels import (
    OrderedQz,
    _empty_form,
    _regularity_check,
    pencil_eigendata,
    solve_generalized_sylvester,
)
from .util import TOL, as_matrix, fro, require_square

__all__ = [
    "DescriptorSystem",
    "empty_system",
    "negate_output",
    "StabilityClass",
    "SpectrumReport",
    "WeierstrassSplit",
    "AdditiveDecomposition",
    "pencil_spectrum",
    "frequency_response",
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
    systems, which are regular by construction: nothing is checked again.
    """
    s = object.__new__(DescriptorSystem)
    s._store(e, a, b, c, d, schur)
    return s


def _diagonal_block(oq: OrderedQz, lo: int, hi: int, b, c, d) -> DescriptorSystem:
    """The diagonal block [lo:hi, lo:hi] of a generalized Schur form as a system.

    Such a block is its own generalized Schur form, with U = V = I, and keeps
    the [finite | infinite] layout.
    """
    e = _frozen(oq.et[lo:hi, lo:hi])
    a = _frozen(oq.at[lo:hi, lo:hi])
    eye = np.eye(hi - lo)
    schur = OrderedQz(
        u=eye, v=eye, et=e, at=a, split=max(min(hi, oq.split) - lo, 0),
        alpha=oq.alpha[lo:hi], beta=oq.beta[lo:hi],
    )
    return _known_spectrum(e, a, b, c, d, schur)


def _mirror(s: DescriptorSystem) -> DescriptorSystem:
    """The system (E, -A, B, -C, D), which realizes G(-s).

    Its Schur form is the source's with At negated; the eigenvalues change
    sign (conjugated too, which keeps LAPACK's order within complex pairs).
    """
    f = s._schur
    schur = OrderedQz(
        u=f.u, v=f.v, et=f.et, at=-f.at, split=f.split, alpha=-f.alpha.conj(), beta=f.beta
    )
    return _known_spectrum(s.e, -s.a, s.b, -s.c, s.d, schur)


def empty_system(m: int, p: int, d=None) -> DescriptorSystem:
    """The order-0 system with constant transfer D (zero when omitted).

    Its pencil is empty, so regular by construction: only D is validated,
    and no factorization runs.
    """
    d = np.zeros((p, m)) if d is None else as_matrix(d, "D")
    if d.shape != (p, m):
        raise DimensionMismatch(f"D must be {p}x{m}, got {d.shape}")
    form = _empty_form()
    return _known_spectrum(form.et, form.at, np.zeros((0, m)), np.zeros((p, 0)), d, form)


def negate_output(s: DescriptorSystem) -> DescriptorSystem:
    """The system realizing -G(s); used to form error systems S + (-S_hat)."""
    return _known_spectrum(s.e, s.a, s.b, -s.c, -s.d, s._schur)


# ---------------------------------------------------------------------------
# Spectrum


def _classify(form: OrderedQz):
    """Eigenvalues of a Schur diagonal and which of them are infinite.

    Returns ``(lam, infinite)`` in diagonal order. The layout decides:
    ``infinite`` marks the trailing ``n - form.split`` pairs, whose beta is
    exactly 0, and ``lam`` holds alpha/beta for the others (inf for infinite
    pairs). Every spectral decision of this module reads it.
    """
    k = form.split
    lam = np.full(form.alpha.shape, np.inf, dtype=complex)
    lam[:k] = form.alpha[:k] / form.beta[:k]
    return lam, np.arange(lam.size) >= k


class StabilityClass(enum.Enum):
    STABLE = "stable"
    ANTISTABLE = "antistable"
    AXIS_FREE = "axis-free"
    AXIS_EIGENVALUE = "axis-eigenvalue"


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


def pencil_spectrum(s: DescriptorSystem) -> SpectrumReport:
    """Classify the pencil spectrum of a descriptor system.

    Stable means every finite eigenvalue has Re < 0 (infinite allowed);
    antistable means every eigenvalue is finite with Re > 0 (E regular).
    Finite eigenvalues within the band |Re| <= TOL * (1 + |lambda|) are
    classified as axis eigenvalues. Reads the diagonal of the Schur form
    stored at construction, whose layout fixed which eigenvalues are
    infinite.
    """
    lam, infinite = _classify(s._schur)
    n_inf = int(np.count_nonzero(infinite))
    finite = lam[~infinite]
    order = np.lexsort((finite.imag, finite.real))
    finite = finite[order]

    if finite.size == 0:
        margin = float("inf")
    else:
        margin = float(np.min(np.abs(finite.real)))
    band = TOL * (1.0 + np.abs(finite))
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
    out = np.empty((k, s.p, s.m), dtype=complex)
    # i omega E - A for one block, allocated once: the real part -A never
    # changes, so each block rewrites only the imaginary part
    buf = np.empty((min(step, k), s.n, s.n), dtype=complex)
    np.negative(s.a, out=buf.real)
    for lo in range(0, k, step):
        ws = omegas[lo : lo + step]
        pencils = buf[: ws.size]
        np.multiply(ws[:, None, None], s.e, out=pencils.imag)
        try:
            # B as a stack of one matrix: NumPy 1.x would read a 2-D B
            # against 3-D pencils as a stack of vectors
            x = np.linalg.solve(pencils, s.b[None])
        except np.linalg.LinAlgError as exc:
            raise AtPole("a grid frequency sits numerically on a pole") from exc
        out[lo : lo + step] = s.c @ x + s.d
    return out


# ---------------------------------------------------------------------------
# System algebra


def _block_diag(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    # scipy.linalg.block_diag spends about 70 microseconds per call on
    # argument handling, more than the copy itself at these sizes.
    k, l = m1.shape
    out = np.zeros((k + m2.shape[0], l + m2.shape[1]))
    out[:k, :l] = m1
    out[k:, l:] = m2
    return out


def direct_sum(s1: DescriptorSystem, s2: DescriptorSystem) -> DescriptorSystem:
    """Parallel connection: block-diagonal states, transfer G1 + G2."""
    if s1.m != s2.m or s1.p != s2.p:
        raise DimensionMismatch(
            f"direct sum needs matching input/output counts, got "
            f"({s1.m},{s1.p}) and ({s2.m},{s2.p})"
        )
    e = _block_diag(s1.e, s2.e)
    a = _block_diag(s1.a, s2.a)
    b = np.vstack([s1.b, s2.b])
    c = np.hstack([s1.c, s2.c])
    d = s1.d + s2.d
    f1, f2 = s1._schur, s2._schur
    # The block-diagonal form, permuted to [finite 1 | finite 2 | infinite 1
    # | infinite 2]: still triangular, because both blocks are.
    n1 = s1.n
    perm = np.r_[0 : f1.split, n1 : n1 + f2.split, f1.split : n1, n1 + f2.split : e.shape[0]]
    schur = OrderedQz(
        u=_block_diag(f1.u, f2.u)[perm],
        v=_block_diag(f1.v, f2.v)[:, perm],
        et=_block_diag(f1.et, f2.et)[np.ix_(perm, perm)],
        at=_block_diag(f1.at, f2.at)[np.ix_(perm, perm)],
        split=f1.split + f2.split,
        alpha=np.concatenate([f1.alpha, f2.alpha])[perm],
        beta=np.concatenate([f1.beta, f2.beta])[perm],
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
        if sv[0] == 0.0 or sv[-1] <= TOL * sv[0]:
            raise SingularTransform(f"{name} is numerically rank-deficient")
    return DescriptorSystem(p @ s.e @ q, p @ s.a @ q, p @ s.b, s.c @ q, s.d)


# ---------------------------------------------------------------------------
# Block split shared by the Weierstrass split and the additive decomposition


def _block_split(s: DescriptorSystem, lead: np.ndarray):
    """Stored Schur form with the pairs ``lead`` marks first, plus Sylvester decoupling.

    ``lead`` marks finite pairs of the stored diagonal. LAPACK ``tgsen``
    (ijob = 0; Kagstrom & Poromaa, Numer. Algorithms 12, 1996) moves them to
    the front and updates U and V, so no QZ runs; a swap too ill-conditioned
    to keep the form raises ConvergenceFailure. The infinite pairs trail
    every finite pair and are never selected, so they never swap. Returns
    ``(oq, p, q)``: P (E, A) Q is block diagonal with the diagonal blocks of
    ``oq.et``/``oq.at`` split after the k = count(lead) leading pairs.
    """
    oq = s._schur
    n = s.n
    k = int(np.count_nonzero(lead))
    if not lead[:k].all():
        at, et, alphar, alphai, beta, q, z, *_, info = scipy.linalg.lapack.dtgsen(
            lead, oq.at, oq.et, oq.u.T, oq.v,
            ijob=0, wantq=1, wantz=1, lwork=4 * n + 16, liwork=1,
        )
        if info != 0:
            raise ConvergenceFailure(
                f"reordering the generalized Schur form failed (tgsen info {info}); "
                "swapping its eigenvalues is too ill-conditioned"
            )
        oq = OrderedQz(
            u=q.T, v=z, et=et, at=at, split=oq.split, alpha=alphar + alphai * 1j, beta=beta
        )
    if k == 0 or k == n:
        return oq, oq.u, oq.v
    # The regularity criterion on the form being split; its blocks inherit
    # it. Its scalar arithmetic also refills CPython's float free list, so
    # the bytes the Sylvester call allocates (traced benchmark runs compare
    # them between passes) do not depend on what ran before.
    _regularity_check(oq.alpha, oq.beta, s.e, s.a)
    e1, e2, e3 = oq.et[:k, :k], oq.et[:k, k:], oq.et[k:, k:]
    a1, a2, a3 = oq.at[:k, :k], oq.at[:k, k:], oq.at[k:, k:]
    r, l = solve_generalized_sylvester(a1, a3, e1, e3, a2, e2)
    # P = [[I, -L], [0, I]] U and Q = V [[I, R], [0, I]]
    p_mat, q_mat = oq.u.copy(), oq.v.copy()
    p_mat[:k] -= l @ oq.u[k:]
    q_mat[:, k:] += oq.v[:, :k] @ r
    return oq, p_mat, q_mat


# ---------------------------------------------------------------------------
# Weierstrass-like split


@dataclass(frozen=True)
class WeierstrassSplit:
    """A transfer function split at infinity: G(s) = F(s) + sum_{i>=1} s^i T_i.

    ``finite`` realizes F: the finite eigenvalues (regular E) with
    feedthrough T_0. ``coefficients`` is the (l, p, m) array of
    T_0, ..., T_{l-1} with trailing negligible coefficients trimmed; l > 1
    means G is improper.
    """

    finite: DescriptorSystem
    coefficients: np.ndarray


def weierstrass_split(s: DescriptorSystem) -> WeierstrassSplit:
    """Split a system into its finite part and the polynomial part of its infinite one.

    The stored form leads with the finite pairs, so one Sylvester solve
    decouples the infinite block (T, S) and nothing is reordered. There
    (sT - S)^{-1} = -S^{-1} sum_i s^i N^i with N = T S^{-1} strictly upper
    triangular, nilpotent exactly, so T_i = -C S^{-1} N^i B (plus D for
    i = 0) takes triangular solves only. A system without infinite
    eigenvalues is its own finite part.
    """
    k = s._schur.split
    if k == s.n:
        return WeierstrassSplit(finite=s, coefficients=s.d[None, :, :].copy())
    oq, p_mat, q_mat = _block_split(s, np.arange(s.n) < k)
    b_t = p_mat @ s.b
    c_t = s.c @ q_mat
    t_inf, s_inf, c_inf = oq.et[k:, k:], oq.at[k:, k:], c_t[:, k:]
    terms, scales = [], []
    y = b_t[k:]
    for _ in range(s.n - k):
        z = scipy.linalg.solve_triangular(s_inf, y)
        terms.append(-(c_inf @ z))
        scales.append(fro(c_inf) * fro(z))
        y = t_inf @ z
    coeffs = [s.d + terms[0], *terms[1:]]
    # Trim trailing coefficients that vanish relative to their own
    # construction scale (products of already-computed factors).
    while len(coeffs) > 1 and fro(coeffs[-1]) <= TOL * (1.0 + scales[len(coeffs) - 1]):
        coeffs.pop()
    finite = _diagonal_block(oq, 0, k, b_t[:k], c_t[:, :k], coeffs[0])
    return WeierstrassSplit(finite=finite, coefficients=np.stack(coeffs))


# ---------------------------------------------------------------------------
# Additive decomposition


@dataclass(frozen=True)
class AdditiveDecomposition:
    """Stable/antistable splitting S ~ s_minus + s_plus.

    ``s_plus`` carries the full feedthrough and any infinite eigenvalues;
    ``s_minus`` has regular E, zero feedthrough, and spectrum in Re > 0.
    """

    s_plus: DescriptorSystem
    s_minus: DescriptorSystem


def additive_decompose(s: DescriptorSystem) -> AdditiveDecomposition:
    """Split a system with no axis eigenvalues into stable + antistable parts.

    The transfer functions add: G = G_plus + G_minus on the whole axis.
    Raises AxisEigenvalue (with the offending eigenvalue) when the pencil
    spectrum touches the tolerance band around the imaginary axis. The
    antistable pairs are moved first, so the infinite ones never swap.
    """
    rep = pencil_spectrum(s)
    if rep.stability_class is StabilityClass.AXIS_EIGENVALUE:
        fin = rep.finite_eigenvalues
        offender = fin[np.argmin(np.abs(fin.real) - TOL * (1.0 + np.abs(fin)))]
        raise AxisEigenvalue(complex(offender))
    if rep.stability_class is StabilityClass.STABLE:
        return AdditiveDecomposition(s_plus=s, s_minus=empty_system(s.m, s.p))
    if rep.stability_class is StabilityClass.ANTISTABLE:
        s_minus = _known_spectrum(s.e, s.a, s.b, s.c, np.zeros((s.p, s.m)), s._schur)
        return AdditiveDecomposition(s_plus=empty_system(s.m, s.p, s.d), s_minus=s_minus)

    lam, infinite = _classify(s._schur)
    anti = ~infinite & (lam.real > 0.0)
    k = int(np.count_nonzero(anti))
    oq, p_mat, q_mat = _block_split(s, anti)
    b_t = p_mat @ s.b
    c_t = s.c @ q_mat
    s_minus = _diagonal_block(oq, 0, k, b_t[:k, :], c_t[:, :k], np.zeros((s.p, s.m)))
    s_plus = _diagonal_block(oq, k, s.n, b_t[k:, :], c_t[:, k:], s.d)
    # The split routed eigenvalues; reclassify to catch any that drifted
    # across the axis band on the way.
    if pencil_spectrum(s_plus).stability_class is not StabilityClass.STABLE:
        raise SpectrumViolation("separated slow part failed the stability check")
    if pencil_spectrum(s_minus).stability_class is not StabilityClass.ANTISTABLE:
        raise SpectrumViolation("separated fast part failed the antistability check")
    return AdditiveDecomposition(s_plus=s_plus, s_minus=s_minus)
