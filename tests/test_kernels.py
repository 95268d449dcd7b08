"""Factorization and matrix-equation kernels: hand cases plus seeded property loops."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import stablekit.kernels as kernels
import stablekit.systems as systems
from stablekit import (
    ConvergenceFailure,
    DescriptorSystem,
    DimensionMismatch,
    NoUniqueSolution,
    SingularPencil,
    SpectrumViolation,
    additive_decompose,
    direct_sum,
    frequency_response,
    gramians,
    pencil_eigendata,
    pencil_spectrum,
    random_orthogonal,
    random_unstable_system,
    solve_ap2,
    solve_apinf,
    solve_generalized_sylvester,
    svd,
    weierstrass_split,
)
from stablekit.util import EPS, fro

from oracles import (
    assert_eigen_multisets_close,
    bumped_descriptor_system,
    eval_transfer_np,
    pencil_eigenvalues_np,
    random_antistable_tri,
    random_conditioned,
    random_regular,
    sylvester_on_general_pencils,
)

ORTH_BOUND = lambda n: 64.0 * max(n, 1) * EPS  # noqa: E731


def assert_orthogonal(x):
    n = x.shape[0]
    if n == 0:
        return
    assert np.linalg.norm(x.T @ x - np.eye(n)) <= ORTH_BOUND(n)


# ---------------------------------------------------------------------------
# Block splits: the stored QZ form reordered by a mask of its classified diagonal

STABLE = lambda lam, infinite: ~infinite & (lam.real < 0.0)  # noqa: E731
ANTISTABLE_FINITE = lambda lam, infinite: ~infinite & (lam.real > 0.0)  # noqa: E731
FINITE = lambda lam, infinite: ~infinite  # noqa: E731


def block_split(s, lead):
    """``_block_split`` of ``s`` by the mask ``lead`` picks on its stored diagonal,
    plus the size of the leading block."""
    mask = lead(*systems._classify(s._schur))
    return (*systems._block_split(s, mask), int(np.count_nonzero(mask)))


def ordered(e, a, lead):
    """The reordered Schur form of the pencil (E, A) and its leading block size."""
    n = np.shape(e)[0]
    s = DescriptorSystem(e, a, np.ones((n, 1)), np.ones((1, n)))
    oq, _, _, k = block_split(s, lead)
    return oq, k


def test_qz_diagonal_already_ordered():
    e = np.eye(2)
    a = np.diag([-1.0, 2.0])
    res, k = ordered(e, a, STABLE)
    assert k == 1
    # leading pair encodes eigenvalue -1, trailing encodes 2
    assert_allclose(res.at[0, 0] / res.et[0, 0], -1.0, atol=1e-12)
    assert_allclose(res.at[1, 1] / res.et[1, 1], 2.0, atol=1e-12)


def test_qz_infinite_eigenvalue_stays_trailing():
    # spectrum {2, infinity, -1}; the antistable pair moves first, past the
    # stable one, and the infinite pair stays last with beta exactly 0
    e = np.diag([1.0, 0.0, 1.0])
    a = np.diag([-1.0, 1.0, 2.0])
    res, k = ordered(e, a, ANTISTABLE_FINITE)
    assert k == 1 and res.split == 2
    assert_allclose(res.at[0, 0] / res.et[0, 0], 2.0, atol=1e-12)
    assert_allclose(res.at[1, 1] / res.et[1, 1], -1.0, atol=1e-12)
    assert res.et[2, 2] == 0.0 and res.beta[2] == 0.0


def test_qz_upper_triangular_mixed():
    e = np.eye(2)
    a = np.array([[-1.0, 3.0], [0.0, 2.0]])
    res, k = ordered(e, a, STABLE)
    assert k == 1
    assert_allclose(res.at[0, 0] / res.et[0, 0], -1.0, atol=1e-12)
    assert_allclose(res.at[1, 1] / res.et[1, 1], 2.0, atol=1e-12)


def test_qz_reconstruction_orthogonality_and_split_property():
    rng = np.random.default_rng(20240817)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n))
        if trial % 3 == 0:
            # a descriptor pencil with some infinite eigenvalues
            e = rng.standard_normal((n, n))
            k = int(rng.integers(1, n))
            u, _ = np.linalg.qr(rng.standard_normal((n, n)))
            v, _ = np.linalg.qr(rng.standard_normal((n, n)))
            sing = np.concatenate([rng.uniform(0.5, 2.0, size=n - k), np.zeros(k)])
            e = (u * sing) @ v
        else:
            e = np.eye(n)
        lead = STABLE if trial % 2 else ANTISTABLE_FINITE
        res, k = ordered(e, a, lead)
        assert_orthogonal(res.u)
        assert_orthogonal(res.v)
        assert np.linalg.norm(res.u @ e @ res.v - res.et) <= 1e-10 * (
            1.0 + np.linalg.norm(e)
        )
        assert np.linalg.norm(res.u @ a @ res.v - res.at) <= 1e-10 * (
            1.0 + np.linalg.norm(a)
        )
        # eigenvalue multiset is preserved by the ordering
        q0 = pencil_eigendata(e, a)
        alpha0, beta0 = q0.alpha, q0.beta
        q1 = pencil_eigendata(res.et, res.at)
        alpha1, beta1 = q1.alpha, q1.beta
        thresh = 1e-8 * (np.linalg.norm(e) + np.linalg.norm(a))
        fin0 = alpha0[np.abs(beta0) > thresh] / beta0[np.abs(beta0) > thresh]
        fin1 = alpha1[np.abs(beta1) > thresh] / beta1[np.abs(beta1) > thresh]
        assert_eigen_multisets_close(fin1, fin0, tol=1e-7)

        def picked(block):
            q = pencil_eigendata(res.et[block, block], res.at[block, block])
            infinite = np.abs(q.beta) <= thresh
            lam = np.full(q.alpha.shape, np.inf, dtype=complex)
            lam[~infinite] = q.alpha[~infinite] / q.beta[~infinite]
            return lead(lam, infinite)

        # split: the leading block carries exactly the picked eigenvalues
        assert picked(slice(0, k)).all()
        assert not picked(slice(k, n)).any()


def test_qz_rejects_dimension_mismatch():
    with pytest.raises((SingularPencil, DimensionMismatch)):
        ordered(np.eye(2), np.eye(3), STABLE)


def test_qz_rejects_singular_pencil():
    e = np.diag([1.0, 0.0])
    a = np.diag([1.0, 0.0])  # det(sE - A) == 0 identically
    with pytest.raises(SingularPencil):
        pencil_eigendata(e, a)


def test_failed_reorder_raises_convergence_failure(monkeypatch, tmp_path, capsys):
    from stablekit.cli import main
    from stablekit.dsysio import save_dsys

    # (W, W A, W B, C) with cond(W) = 100 > _KAPPA is factored by QZ, whose
    # unsorted form leaves stable pairs ahead of antistable ones here, so
    # the additive split must reorder
    g = random_unstable_system(8, 3, seed=6, m=2, p=2)
    w = random_conditioned(np.random.default_rng(6), 8, 100.0)
    s = DescriptorSystem(w, w @ g.a, w @ g.b, g.c, g.d)
    lam, infinite = systems._classify(s._schur)
    anti = ~infinite & (lam.real > 0.0)
    assert not anti[: np.count_nonzero(anti)].all()
    path = tmp_path / "s.dsys"
    save_dsys(path, s)
    tgsen = scipy.linalg.lapack.dtgsen

    def ill_conditioned_swap(*args, **kwargs):
        *out, _ = tgsen(*args, **kwargs)
        return (*out, 1)

    monkeypatch.setattr(scipy.linalg.lapack, "dtgsen", ill_conditioned_swap)
    with pytest.raises(ConvergenceFailure):
        additive_decompose(s)
    # the stored form already leads with the finite pairs, so the
    # Weierstrass split of an improper model reorders nothing
    assert weierstrass_split(bumped_descriptor_system(5)).coefficients.shape[0] == 2
    assert main(["approx", str(path), "--norm", "h2", "-o", str(tmp_path / "out.dsys")]) == 1
    assert "reordering the generalized Schur form failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve_generalized_sylvester


def test_sylvester_zero_rhs():
    a1 = np.array([[-1.0]])
    a3 = np.array([[2.0]])
    e1 = np.array([[1.0]])
    e3 = np.array([[1.0]])
    r, l = solve_generalized_sylvester(a1, a3, e1, e3, np.zeros((1, 1)), np.zeros((1, 1)))
    assert_allclose(r, 0.0, atol=1e-14)
    assert_allclose(l, 0.0, atol=1e-14)


def test_sylvester_scalar_closed_form():
    # r - 2l = -1 and r - l = 0  =>  r = l = 1
    one = np.array([[1.0]])
    r, l = solve_generalized_sylvester(one, 2 * one, one, one, one, np.zeros((1, 1)))
    assert_allclose(r, 1.0, atol=1e-14)
    assert_allclose(l, 1.0, atol=1e-14)


def test_sylvester_matches_direct_vectorized_oracle():
    rng = np.random.default_rng(7)
    m, p = 3, 2
    a1 = random_antistable_tri(rng, m, -3.0, -0.5)  # spectrum in C_{<0}
    a3 = random_antistable_tri(rng, p, 0.5, 3.0)  # spectrum in C_{>0}
    e1 = np.eye(m) + 0.1 * np.triu(rng.standard_normal((m, m)), 1)
    e3 = np.eye(p) + 0.1 * np.triu(rng.standard_normal((p, p)), 1)
    a2 = rng.standard_normal((m, p))
    e2 = rng.standard_normal((m, p))
    r, l = solve_generalized_sylvester(a1, a3, e1, e3, a2, e2)

    # independent oracle: assemble the 12x12 system column by column from
    # the defining equations acting on unit-vector unknowns
    nv = m * p
    big = np.zeros((2 * nv, 2 * nv))
    rhs = np.concatenate([-a2.flatten(order="F"), -e2.flatten(order="F")])
    for col in range(nv):
        unit = np.zeros(nv)
        unit[col] = 1.0
        rr = unit.reshape((m, p), order="F")
        big[:nv, col] = (a1 @ rr).flatten(order="F")
        big[nv:, col] = (e1 @ rr).flatten(order="F")
    for col in range(nv):
        unit = np.zeros(nv)
        unit[col] = 1.0
        ll = unit.reshape((m, p), order="F")
        big[:nv, nv + col] = (-ll @ a3).flatten(order="F")
        big[nv:, nv + col] = (-ll @ e3).flatten(order="F")
    sol = np.linalg.solve(big, rhs)
    assert_allclose(r, sol[:nv].reshape((m, p), order="F"), atol=1e-10)
    assert_allclose(l, sol[nv:].reshape((m, p), order="F"), atol=1e-10)


def test_sylvester_residual_property_loop():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(1, 6))
        p = int(rng.integers(1, 6))
        a1 = random_antistable_tri(rng, m, -4.0, -0.3)
        a3 = random_antistable_tri(rng, p, 0.3, 4.0)
        q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
        q3, _ = np.linalg.qr(rng.standard_normal((p, p)))
        a1 = q1 @ a1 @ q1.T
        a3 = q3 @ a3 @ q3.T
        e1, e3 = np.eye(m), np.eye(p)
        a2 = rng.standard_normal((m, p))
        e2 = rng.standard_normal((m, p))
        r, l = sylvester_on_general_pencils(a1, a3, e1, e3, a2, e2)
        scale = np.linalg.norm(a2) + np.linalg.norm(e2) + 1.0
        assert np.linalg.norm(a1 @ r - l @ a3 + a2) <= 1e-10 * scale
        assert np.linalg.norm(e1 @ r - l @ e3 + e2) <= 1e-10 * scale


def test_sylvester_rejects_shared_spectrum():
    one = np.array([[1.0]])
    with pytest.raises(NoUniqueSolution):
        solve_generalized_sylvester(one, one, one, one, one, one)


def test_sylvester_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_generalized_sylvester(
            np.eye(2), np.eye(3), np.eye(2), np.eye(3), np.ones((2, 2)), np.ones((2, 3))
        )


def count_qz_calls(monkeypatch):
    """Record the order of every real QZ the Sylvester reduction step runs."""
    sizes = []
    qz = scipy.linalg.qz

    def counted(a, b, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return qz(a, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "qz", counted)
    return sizes


def assert_sylvester_residuals(a1, a3, e1, e3, a2, e2, r, l):
    scale = np.linalg.norm(a2) + np.linalg.norm(e2) + 1.0
    assert np.linalg.norm(a1 @ r - l @ a3 + a2) <= 1e-10 * scale
    assert np.linalg.norm(e1 @ r - l @ e3 + e2) <= 1e-10 * scale


def split_blocks(s, lead):
    oq, _, _, k = block_split(s, lead)
    et, at = oq.et, oq.at
    return at[:k, :k], at[k:, k:], et[:k, :k], et[k:, k:], at[:k, k:], et[:k, k:]


def test_sylvester_on_qz_blocks_factors_nothing(monkeypatch):
    s = random_unstable_system(60, 30, seed=41, m=2, p=2, descriptor=True)
    blocks = split_blocks(s, STABLE)
    a1, a3 = blocks[0], blocks[1]
    assert a1.shape == (30, 30) and a3.shape == (30, 30)
    # both diagonal blocks carry complex pairs: 2x2 bumps on the subdiagonal
    assert np.count_nonzero(np.diagonal(a1, -1)) > 0
    assert np.count_nonzero(np.diagonal(a3, -1)) > 0
    sizes = count_qz_calls(monkeypatch)
    r, l = solve_generalized_sylvester(*blocks)
    assert sizes == []
    assert_sylvester_residuals(*blocks, r, l)


def test_sylvester_on_weierstrass_blocks_with_singular_e3(monkeypatch):
    # finite part of order 6 plus an index-2 nilpotent block, mixed by
    # random orthogonal factors
    rng = np.random.default_rng(43)
    n_f = 6
    e0 = scipy.linalg.block_diag(np.eye(n_f), np.array([[0.0, 1.0], [0.0, 0.0]]))
    a0 = scipy.linalg.block_diag(rng.standard_normal((n_f, n_f)), np.eye(2))
    u = random_regular(rng, n_f + 2, spread=(1.0, 1.0))
    v = random_regular(rng, n_f + 2, spread=(1.0, 1.0))
    b0 = rng.standard_normal((n_f + 2, 1))
    c0 = rng.standard_normal((1, n_f + 2))
    blocks = split_blocks(DescriptorSystem(u @ e0 @ v, u @ a0 @ v, b0, c0), FINITE)
    e3 = blocks[3]
    assert e3.shape == (2, 2)
    assert not np.tril(e3, -1).any()
    assert np.min(np.abs(np.diag(e3))) <= 1e-12
    sizes = count_qz_calls(monkeypatch)
    r, l = solve_generalized_sylvester(*blocks)
    assert sizes == []
    assert_sylvester_residuals(*blocks, r, l)


def test_sylvester_rejects_blocks_outside_schur_form():
    # general descriptor pencils: tgsyl reads them as if they were
    # triangular, and the residual check on the input catches the result
    rng = np.random.default_rng(47)
    k, p = 7, 5
    e1 = random_regular(rng, k)
    e3 = random_regular(rng, p)
    q1, _ = np.linalg.qr(rng.standard_normal((k, k)))
    q3, _ = np.linalg.qr(rng.standard_normal((p, p)))
    a1 = e1 @ q1 @ random_antistable_tri(rng, k, -3.0, -0.5) @ q1.T
    a3 = e3 @ q3 @ random_antistable_tri(rng, p, 0.5, 3.0) @ q3.T
    a2 = rng.standard_normal((k, p))
    e2 = rng.standard_normal((k, p))
    with pytest.raises(NoUniqueSolution, match="not in real generalized Schur form"):
        solve_generalized_sylvester(a1, a3, e1, e3, a2, e2)
    r, l = sylvester_on_general_pencils(a1, a3, e1, e3, a2, e2)
    assert_sylvester_residuals(a1, a3, e1, e3, a2, e2, r, l)


def test_sylvester_memory_stays_small():
    # dense k = l = 60 blocks: QZ blocks of a seeded pencil, mixed by random
    # regular factors and brought back to Schur form by the oracle's QZ
    s = random_unstable_system(120, 60, seed=53, m=2, p=2, descriptor=True)
    a1, a3, e1, e3, a2, e2 = split_blocks(s, STABLE)
    rng = np.random.default_rng(53)
    u1, v1, u3, v3 = (random_regular(rng, 60, spread=(1.0, 1.0)) for _ in range(4))
    a1, e1 = u1 @ a1 @ v1, u1 @ e1 @ v1
    a3, e3 = u3 @ a3 @ v3, u3 @ e3 @ v3
    a2, e2 = u1 @ a2 @ v3, u1 @ e2 @ v3
    tracemalloc.start()
    try:
        r, l = sylvester_on_general_pencils(a1, a3, e1, e3, a2, e2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    assert_sylvester_residuals(a1, a3, e1, e3, a2, e2, r, l)


# ---------------------------------------------------------------------------
# Generalized Lyapunov equations, solved by ``gramians`` on the stored Schur form
#
# With C = B^T both equations have the forcing W = B B^T:
#   A Xc E^T + E Xc A^T + W = 0  and  A^T Xo E + E^T Xo A + W = 0.


def lyapunov_pair(e, a, b):
    gr = gramians(DescriptorSystem(e, a, b, np.transpose(b)))
    return {"controllability": gr.xc, "observability": gr.xo}


def test_lyapunov_scalar_closed_form():
    one = np.array([[1.0]])
    for x in lyapunov_pair(one, one, one).values():
        assert_allclose(x, [[-0.5]], atol=1e-14)


def test_lyapunov_zero_forcing():
    e = np.eye(2)
    a = np.diag([1.0, 2.0])
    for x in lyapunov_pair(e, a, np.zeros((2, 1))).values():
        assert_allclose(x, 0.0, atol=1e-14)


def test_lyapunov_hand_verified_two_state():
    e = np.eye(2)
    a = np.array([[1.0, 0.5], [-0.5, 0.0]])
    b = np.array([[np.sqrt(2.0)], [0.0]])
    # A(-I) + (-I)A^T + diag(2, 0) = 0 holds by hand, and so does its transpose
    for x in lyapunov_pair(e, a, b).values():
        assert_allclose(x, -np.eye(2), atol=1e-12)


def test_lyapunov_rejects_stable_spectrum():
    one = np.array([[1.0]])
    with pytest.raises(SpectrumViolation):
        lyapunov_pair(one, -one, one)


def test_lyapunov_residual_and_symmetry_property_loop():
    rng = np.random.default_rng(13)
    for trial in range(20):
        n = int(rng.integers(1, 9))
        a = random_antistable_tri(rng, n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = q @ a @ q.T
        if trial % 2:
            # a descriptor pencil: transform the standard pair (I, A) by
            # regular factors so the pencil spectrum stays antistable
            pt = random_regular(rng, n)
            qt = random_regular(rng, n)
            e = pt @ qt
            a = pt @ a @ qt
        else:
            e = np.eye(n)
        b = rng.standard_normal((n, max(1, n // 2)))
        w = b @ b.T
        for side, x in lyapunov_pair(e, a, b).items():
            assert np.linalg.norm(x - x.T) <= 1e-12
            if side == "controllability":
                res = a @ x @ e.T + e @ x @ a.T + w
            else:
                res = a.T @ x @ e + e.T @ x @ a + w
            assert np.linalg.norm(res) <= 1e-10 * (np.linalg.norm(w) + 1.0)
            # antistable Gramians are negative semidefinite
            assert np.max(np.linalg.eigvalsh(x)) <= 1e-10


# ---------------------------------------------------------------------------
# svd


def test_svd_zero_matrix_rank_zero():
    res = svd(np.zeros((3, 2)))
    assert res.numeric_rank == 0


def test_svd_diagonal():
    res = svd(np.diag([2.0, 0.0]))
    assert_allclose(res.singular_values, [2.0, 0.0], atol=1e-14)
    assert res.numeric_rank == 1
    assert_allclose(np.abs(res.u), np.eye(2), atol=1e-14)
    assert_allclose(np.abs(res.v), np.eye(2), atol=1e-14)


def test_svd_reconstruction_property_loop():
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = rng.standard_normal((4, 3))
        res = svd(m)
        sig = np.zeros((4, 3))
        sig[:3, :3] = np.diag(res.singular_values)
        assert np.linalg.norm(m - res.u @ sig @ res.v.T) <= 1e-12 * np.linalg.norm(m)
        assert np.all(np.diff(res.singular_values) <= 0)
        assert_orthogonal(res.u)
        assert_orthogonal(res.v)


# ---------------------------------------------------------------------------
# second-opinion check of pencil eigendata against a plain eigensolver


def test_pencil_eigendata_matches_numpy_on_regular_e():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        e = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        if abs(np.linalg.det(e)) < 0.1:
            continue
        a = rng.standard_normal((n, n))
        form = pencil_eigendata(e, a)
        got = form.alpha / form.beta
        assert_eigen_multisets_close(got, pencil_eigenvalues_np(e, a), tol=1e-7)


@pytest.mark.parametrize("n, u, seed", [(1, 1, 0), (9, 4, 1), (40, 2, 2), (80, 40, 3)])
def test_identity_e_is_factored_by_one_real_schur_form(n, u, seed):
    s = random_unstable_system(n, u, seed)
    form = s._schur
    assert np.array_equal(form.et, np.eye(n))
    assert form.split == n and np.array_equal(form.beta, np.ones(n))
    assert_orthogonal(form.u)
    assert np.array_equal(form.v, form.u.T)
    assert fro(form.u @ s.a @ form.v - form.at) <= 32 * n * EPS * fro(s.a)
    # quasi-triangular, with exact zeros below the subdiagonal
    assert not np.tril(form.at, -2).any()
    assert not (form.at.diagonal(-1)[1:] * form.at.diagonal(-1)[:-1]).any()
    assert_eigen_multisets_close(form.alpha, np.linalg.eigvals(s.a), tol=1e-8)


@pytest.mark.parametrize(
    "n, u, seed, factor", [(12, 3, 1, None), (20, 10, 2, None), (30, 2, 3, 1.01), (16, 8, 4, 1.01)]
)
def test_identity_e_and_qz_route_agree(monkeypatch, n, u, seed, factor):
    # (W, W A, W B, C) with orthogonal W realizes the same transfer, and
    # QZ factors it once _KAPPA = 0 closes the sorted real Schur route
    s = random_unstable_system(n, u, seed, m=2, p=2)
    r = solve_apinf(s, gamma_factor=factor)
    monkeypatch.setattr(kernels, "_KAPPA", 0.0)
    w = random_orthogonal(np.random.default_rng(seed + 100), n)
    s_qz = DescriptorSystem(w, w @ s.a, w @ s.b, s.c, s.d)
    assert not np.array_equal(s_qz._schur.et, np.eye(n))
    assert_eigen_multisets_close(
        pencil_spectrum(s).finite_eigenvalues, pencil_spectrum(s_qz).finite_eigenvalues, tol=1e-10
    )
    r_qz = solve_apinf(s_qz, gamma_factor=factor)
    assert r.sigma1 == pytest.approx(r_qz.sigma1, rel=1e-12)
    assert r.system.n == r_qz.system.n
    omegas = np.geomspace(1e-2, 1e2, 41)
    g, g_qz = frequency_response(r.system, omegas), frequency_response(r_qz.system, omegas)
    assert np.abs(g - g_qz).max() <= 1e-12 * np.abs(g).max()


def test_identity_e_with_a_huge_a_keeps_the_staircase_decision():
    # The E floor is 32 n eps (||E||_F + ||A||_F). With ||A||_F near 5e14 it
    # exceeds 1, every singular value of I counts as zero, the rows of A
    # dominate, and the staircase reads all four eigenvalues as infinite.
    a = 1e14 * np.random.default_rng(4).standard_normal((4, 4))
    floor = lambda a: 32 * 4 * EPS * (2.0 + fro(a))  # noqa: E731
    assert floor(a) > 1.0 > floor(a / 100.0)
    form = pencil_eigendata(np.eye(4), a)
    assert form.split == 0 and not form.beta.any()
    w = random_orthogonal(np.random.default_rng(5), 4)
    assert pencil_eigendata(w, w @ a).split == 0
    # with the floor below 1 the real Schur route runs: all four are finite
    form = pencil_eigendata(np.eye(4), a / 100.0)
    assert form.split == 4 and np.array_equal(form.et, np.eye(4))


def test_failed_real_schur_raises_convergence_failure(monkeypatch):
    gees = scipy.linalg.lapack.dgees

    def no_convergence(*args, **kwargs):
        *out, _ = gees(*args, **kwargs)
        return (*out, 3)

    monkeypatch.setattr(scipy.linalg.lapack, "dgees", no_convergence)
    with pytest.raises(ConvergenceFailure, match="gees info 3"):
        DescriptorSystem(np.eye(3), np.diag([1.0, -2.0, 3.0]), np.ones((3, 1)), np.ones((1, 3)))


# ---------------------------------------------------------------------------
# The sorted real Schur route: cond(E) <= _KAPPA

SORTED = settings(max_examples=24, deadline=None, derandomize=True, database=None)


@st.composite
def well_conditioned_systems(draw):
    """(E, E A, E B, C, D) with cond(E) <= _KAPPA, from a random standard model;
    cond(E) stays 0.1% clear of _KAPPA, which the computed singular values
    could otherwise cross by roundoff."""
    n = draw(st.sampled_from([1, 2, 7, 30]))
    m, p = draw(st.sampled_from([(1, 1), (2, 3)]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    g = random_unstable_system(n, draw(st.integers(0, n)), rng, m, p)
    e = random_conditioned(rng, n, draw(st.floats(1.0, 0.999 * kernels._KAPPA)))
    return e, e @ g.a, e @ g.b, g.c, g.d


@SORTED
@given(data=well_conditioned_systems())
def test_sorted_route_keeps_the_stored_form_contract(data):
    s = DescriptorSystem(*data)
    f, n = s._schur, s.n
    eye = np.eye(n)
    assert np.linalg.norm(f.u @ f.u.T - eye) <= 1e-13
    assert np.linalg.norm(f.v.T @ f.v - eye) <= 1e-13
    assert np.linalg.norm(f.u @ s.e @ f.v - f.et) <= 1e-13 * np.linalg.norm(s.e)
    assert np.linalg.norm(f.u @ s.a @ f.v - f.at) <= 1e-13 * np.linalg.norm(s.a)
    # T upper triangular and S quasi-triangular, with exact zeros below
    assert not np.tril(f.et, -1).any()
    assert not np.tril(f.at, -2).any()
    sub = f.at.diagonal(-1) != 0.0
    assert not (sub[1:] & sub[:-1]).any()
    # T's diagonal is nonnegative and its 2x2 blocks are diagonal
    assert (f.et.diagonal() >= 0.0).all()
    assert not f.et.diagonal(1)[sub].any()
    assert f.split == n and np.array_equal(f.beta, f.et.diagonal())
    # the antistable pairs lead, so the additive split reorders nothing
    lam = f.alpha / f.beta
    anti = lam.real > 0.0
    assert anti[: np.count_nonzero(anti)].all()
    assert_eigen_multisets_close(lam, pencil_eigenvalues_np(s.e, s.a), tol=1e-8)


@SORTED
@given(data=well_conditioned_systems(), factor=st.sampled_from([None, 1.01]))
def test_sorted_route_and_qz_agree(data, factor):
    s = DescriptorSystem(*data)
    r, h2 = solve_apinf(s, gamma_factor=factor), solve_ap2(s)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_KAPPA", 0.0)
        s_qz = DescriptorSystem(*data)
        r_qz, h2_qz = solve_apinf(s_qz, gamma_factor=factor), solve_ap2(s_qz)
    assert r.sigma1 == pytest.approx(r_qz.sigma1, rel=1e-12, abs=0.0)
    for w in (0.0, 0.1, 1.0, 10.0):
        for got, want in ((r.system, r_qz.system), (h2.system, h2_qz.system)):
            g, g_qz = eval_transfer_np(got, 1j * w), eval_transfer_np(want, 1j * w)
            assert np.abs(g - g_qz).max() <= 1e-11 * (1.0 + np.abs(g_qz).max())


def test_sorted_route_pairs_scale_with_the_pencil():
    # beta is T's diagonal, so the noise-floor regularity test of the split
    # sees pairs at the scale of (E, A): a pencil scaled by 1e14 still splits
    s = random_unstable_system(8, 3, seed=4, m=2, p=2, descriptor=True)
    big = DescriptorSystem(1e14 * s.e, 1e14 * s.a, s.b, s.c, s.d)
    assert np.array_equal(big._schur.beta, big._schur.et.diagonal())
    assert_eigen_multisets_close(
        pencil_spectrum(big).finite_eigenvalues, pencil_spectrum(s).finite_eigenvalues, tol=1e-12
    )
    assert additive_decompose(big).s_minus.n == 3


@pytest.mark.parametrize("seed", range(4))
def test_sorted_forms_that_lose_their_order_split_through_tgsen(monkeypatch, seed):
    # the mirror of a sorted form leads with its stable pairs, and a direct
    # sum puts the first system's stable pairs ahead of the second's
    # antistable ones: both reorder, and still split exactly
    s1 = random_unstable_system(12, 5, seed, m=2, p=2, descriptor=True)
    s2 = random_unstable_system(9, 4, seed + 100, m=2, p=2, descriptor=True)
    calls = []
    tgsen = scipy.linalg.lapack.dtgsen

    def counted(*args, **kwargs):
        calls.append(args[0].size)
        return tgsen(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dtgsen", counted)
    additive_decompose(s1)
    assert calls == []
    for s in (systems._mirror(s1), direct_sum(s1, s2)):
        calls.clear()
        dec = additive_decompose(s)
        assert calls == [s.n]
        for w in (0.0, 0.3, 1.0, 3.0, 10.0):
            g = eval_transfer_np(s, 1j * w)
            parts = eval_transfer_np(dec.s_plus, 1j * w) + eval_transfer_np(dec.s_minus, 1j * w)
            assert np.linalg.norm(g - parts) <= 1e-13 * np.linalg.norm(g)


def gees_returning(info_of_n, monkeypatch):
    gees = scipy.linalg.lapack.dgees

    def patched(*args, **kwargs):
        *out, info = gees(*args, **kwargs)
        return (*out, info_of_n(np.shape(args[1])[0]) if kwargs.get("sort_t") else info)

    monkeypatch.setattr(scipy.linalg.lapack, "dgees", patched)


def test_failed_sorted_reorder_raises_convergence_failure(monkeypatch):
    s = random_unstable_system(10, 4, seed=8, descriptor=True)
    gees_returning(lambda n: n + 1, monkeypatch)
    with pytest.raises(ConvergenceFailure, match="reordering the real Schur form failed"):
        DescriptorSystem(s.e, s.a, s.b, s.c)


def test_sorted_route_accepts_an_eigenvalue_moved_across_the_axis(monkeypatch):
    # gees info n + 2: the reordered form is valid, only a sorted eigenvalue
    # changed sides; the split reads the order from the stored eigenvalues
    s = random_unstable_system(10, 4, seed=8, descriptor=True)
    gees_returning(lambda n: n + 2, monkeypatch)
    t = DescriptorSystem(s.e, s.a, s.b, s.c)
    for a, b in zip((t._schur.at, t._schur.et, t._schur.u), (s._schur.at, s._schur.et, s._schur.u)):
        assert np.array_equal(a, b)
    assert additive_decompose(t).s_minus.n == 4


@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_staircase_pencils_are_factored_by_one_qz(monkeypatch, index):
    e, a = staircase_pencil(index, np.random.default_rng(60 + index))
    sizes = []
    qz = kernels._qz

    def counted(a, e):
        sizes.append(a.shape[0])
        return qz(a, e)

    monkeypatch.setattr(kernels, "_qz", counted)
    pencil_eigendata(e, a)
    assert sizes == [5]


def test_regular_e_is_one_qz_of_the_pencil():
    # with cond(E) = 100 > _KAPPA the staircase's rank test finds nothing to
    # deflate, and the form is the QZ of (A, E) itself: no copy of E or A,
    # no identity factors
    rng = np.random.default_rng(59)
    for n in (2, 7, 30):
        e, a = random_conditioned(rng, n, 100.0), rng.standard_normal((n, n))
        form = pencil_eigendata(e, a)
        at, et, alpha, beta, q, z = kernels._qz(a, e)
        assert form.split == n
        for got, want in zip(
            (form.at, form.et, form.alpha, form.beta, form.u, form.v), (at, et, alpha, beta, q.T, z)
        ):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def staircase_pencil(index, rng, n_finite=5):
    """(E, A) with ``n_finite`` finite eigenvalues and one infinite Jordan chain
    of length ``index`` (two chains of length 1 for index 1), mixed by random
    regular factors; index 0 is a regular E with cond(E) > _KAPPA, which the
    staircase serves too."""
    e_inf = np.zeros((2, 2)) if index == 1 else np.eye(index, k=1)
    k = e_inf.shape[0]
    e_fin = np.diag(np.geomspace(1.0, 1e-3, n_finite)) if index == 0 else np.eye(n_finite)
    e0 = scipy.linalg.block_diag(e_fin, e_inf)
    a0 = scipy.linalg.block_diag(rng.standard_normal((n_finite, n_finite)), np.eye(k))
    p, q = random_regular(rng, n_finite + k), random_regular(rng, n_finite + k)
    return p @ e0 @ q, p @ a0 @ q


# np.linalg.svd calls allowed: a rank test per block and a full SVD per step
SVD_CALL_BOUND = {0: 1, 1: 3, 2: 5, 3: 7}


@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_staircase_runs_one_full_svd_per_step(monkeypatch, index):
    e, a = staircase_pencil(index, np.random.default_rng(60 + index))
    calls = []
    svd_np = np.linalg.svd

    def counting(m, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd_np(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    form = pencil_eigendata(e, a)
    assert np.linalg.cond(e) > kernels._KAPPA
    assert form.split == 5 and not form.beta[5:].any()
    # one rank test per block, singular vectors only for a rank-deficient one
    assert calls.count(True) == index
    assert len(calls) <= SVD_CALL_BOUND[index]


def test_pencil_eigendata_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pencil_eigendata(np.eye(2), np.eye(3))
