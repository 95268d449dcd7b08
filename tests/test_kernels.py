"""Factorization and matrix-equation kernels: hand cases plus seeded property loops."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from stablekit import (
    ConvergenceFailure,
    DimensionMismatch,
    EigenvalueSelector,
    NonSymmetricInput,
    NoUniqueSolution,
    SingularPencil,
    SpectrumViolation,
    additive_decompose,
    all_finite,
    antistable_finite,
    pencil_eigendata,
    qz_ordered,
    solve_generalized_lyapunov,
    solve_generalized_sylvester,
    random_unstable_system,
    stable_or_infinite,
    svd,
)
from stablekit.util import EPS

from oracles import (
    assert_eigen_multisets_close,
    pencil_eigenvalues_np,
    random_antistable_tri,
    random_regular,
)

ORTH_BOUND = lambda n: 64.0 * max(n, 1) * EPS  # noqa: E731


def assert_orthogonal(x):
    n = x.shape[0]
    if n == 0:
        return
    assert np.linalg.norm(x.T @ x - np.eye(n)) <= ORTH_BOUND(n)


# ---------------------------------------------------------------------------
# qz_ordered


def test_qz_diagonal_already_ordered():
    e = np.eye(2)
    a = np.diag([-1.0, 2.0])
    res = qz_ordered(e, a, stable_or_infinite())
    assert res.split == 1
    # leading pair encodes eigenvalue -1, trailing encodes 2
    assert_allclose(res.at[0, 0] / res.et[0, 0], -1.0, atol=1e-12)
    assert_allclose(res.at[1, 1] / res.et[1, 1], 2.0, atol=1e-12)


def test_qz_infinite_eigenvalue_selected_leading():
    # det(lambda*E - A) = -(lambda - 1): spectrum {1, infinity}
    e = np.diag([1.0, 0.0])
    a = np.eye(2)
    res = qz_ordered(e, a, stable_or_infinite())
    assert res.split == 1
    # leading diagonal of Et is (numerically) zero: the infinite eigenvalue
    assert abs(res.et[0, 0]) <= 1e-12
    assert_allclose(res.at[1, 1] / res.et[1, 1], 1.0, atol=1e-12)


def test_qz_upper_triangular_mixed():
    e = np.eye(2)
    a = np.array([[-1.0, 3.0], [0.0, 2.0]])
    res = qz_ordered(e, a, stable_or_infinite())
    assert res.split == 1
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
        selector = stable_or_infinite() if trial % 2 else antistable_finite()
        res = qz_ordered(e, a, selector)
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
        # split: leading block spectrum inside the selected set
        k = res.split
        if 0 < k:
            ql = pencil_eigendata(res.et[:k, :k], res.at[:k, :k])
            al, bl = ql.alpha, ql.beta
            inf_l = np.abs(bl) <= thresh
            lead = al[~inf_l] / bl[~inf_l]
            assert np.all(selector.finite(lead))
            if np.any(inf_l):
                assert selector.include_infinite
        if k < n:
            qt = pencil_eigendata(res.et[k:, k:], res.at[k:, k:])
            at, bt = qt.alpha, qt.beta
            inf_t = np.abs(bt) <= thresh
            trail = at[~inf_t] / bt[~inf_t]
            assert not np.any(selector.finite(trail))
            if np.any(inf_t):
                assert not selector.include_infinite


def test_qz_rejects_singular_pencil():
    e = np.diag([1.0, 0.0])
    a = np.diag([1.0, 0.0])  # det(sE - A) == 0 identically
    with pytest.raises(SingularPencil):
        qz_ordered(e, a, stable_or_infinite())


def test_qz_rejects_dimension_mismatch():
    with pytest.raises((SingularPencil, DimensionMismatch)):
        qz_ordered(np.eye(2), np.eye(3), stable_or_infinite())


def test_failed_reorder_raises_convergence_failure(monkeypatch, tmp_path, capsys):
    from stablekit.cli import main
    from stablekit.dsysio import save_dsys

    s = random_unstable_system(8, 3, seed=5, m=2, p=2)
    path = tmp_path / "s.dsys"
    save_dsys(path, s)
    tgsen = scipy.linalg.lapack.dtgsen

    def ill_conditioned_swap(*args, **kwargs):
        *out, _ = tgsen(*args, **kwargs)
        return (*out, 1)

    monkeypatch.setattr(scipy.linalg.lapack, "dtgsen", ill_conditioned_swap)
    with pytest.raises(ConvergenceFailure):
        qz_ordered(s.e, s.a, stable_or_infinite())
    with pytest.raises(ConvergenceFailure):
        additive_decompose(s)
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
        r, l = solve_generalized_sylvester(a1, a3, e1, e3, a2, e2)
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


def split_blocks(e, a, selector):
    oq = qz_ordered(e, a, selector)
    k = oq.split
    et, at = oq.et, oq.at
    return at[:k, :k], at[k:, k:], et[:k, :k], et[k:, k:], at[:k, k:], et[:k, k:]


def test_sylvester_on_qz_blocks_factors_nothing(monkeypatch):
    s = random_unstable_system(60, 30, seed=41, m=2, p=2, descriptor=True)
    blocks = split_blocks(s.e, s.a, stable_or_infinite())
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
    blocks = split_blocks(u @ e0 @ v, u @ a0 @ v, all_finite())
    e3 = blocks[3]
    assert e3.shape == (2, 2)
    assert not np.tril(e3, -1).any()
    assert np.min(np.abs(np.diag(e3))) <= 1e-12
    sizes = count_qz_calls(monkeypatch)
    r, l = solve_generalized_sylvester(*blocks)
    assert sizes == []
    assert_sylvester_residuals(*blocks, r, l)


def test_sylvester_general_descriptor_blocks_are_reduced(monkeypatch):
    rng = np.random.default_rng(47)
    k, p = 7, 5
    e1 = random_regular(rng, k)
    e3 = random_regular(rng, p)
    q1, _ = np.linalg.qr(rng.standard_normal((k, k)))
    q3, _ = np.linalg.qr(rng.standard_normal((p, p)))
    a1 = e1 @ q1 @ random_antistable_tri(rng, k, -3.0, -0.5) @ q1.T
    a3 = e3 @ q3 @ random_antistable_tri(rng, p, 0.5, 3.0) @ q3.T
    assert np.tril(e1, -1).any() and np.tril(e3, -1).any()
    a2 = rng.standard_normal((k, p))
    e2 = rng.standard_normal((k, p))
    sizes = count_qz_calls(monkeypatch)
    r, l = solve_generalized_sylvester(a1, a3, e1, e3, a2, e2)
    assert sizes == [k, p]
    assert_sylvester_residuals(a1, a3, e1, e3, a2, e2, r, l)


def test_sylvester_memory_stays_small():
    # dense k = l = 60 blocks: QZ blocks of a seeded pencil, mixed by random
    # orthogonal factors so that both reductions run
    s = random_unstable_system(120, 60, seed=53, m=2, p=2, descriptor=True)
    a1, a3, e1, e3, a2, e2 = split_blocks(s.e, s.a, stable_or_infinite())
    rng = np.random.default_rng(53)
    u1, v1, u3, v3 = (random_regular(rng, 60, spread=(1.0, 1.0)) for _ in range(4))
    a1, e1 = u1 @ a1 @ v1, u1 @ e1 @ v1
    a3, e3 = u3 @ a3 @ v3, u3 @ e3 @ v3
    a2, e2 = u1 @ a2 @ v3, u1 @ e2 @ v3
    tracemalloc.start()
    try:
        r, l = solve_generalized_sylvester(a1, a3, e1, e3, a2, e2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    assert_sylvester_residuals(a1, a3, e1, e3, a2, e2, r, l)


# ---------------------------------------------------------------------------
# solve_generalized_lyapunov


def test_lyapunov_scalar_closed_form():
    one = np.array([[1.0]])
    x = solve_generalized_lyapunov(one, one, one, "controllability")
    assert_allclose(x, [[-0.5]], atol=1e-14)


def test_lyapunov_zero_forcing():
    e = np.eye(2)
    a = np.diag([1.0, 2.0])
    x = solve_generalized_lyapunov(e, a, np.zeros((2, 2)), "controllability")
    assert_allclose(x, 0.0, atol=1e-14)


def test_lyapunov_hand_verified_two_state():
    e = np.eye(2)
    a = np.array([[1.0, 0.5], [-0.5, 0.0]])
    w = np.diag([2.0, 0.0])
    x = solve_generalized_lyapunov(e, a, w, "controllability")
    # A(-I) + (-I)A^T + diag(2, 0) = 0 holds by hand
    assert_allclose(x, -np.eye(2), atol=1e-12)


def test_lyapunov_rejects_nonsymmetric_forcing():
    with pytest.raises(NonSymmetricInput):
        solve_generalized_lyapunov(
            np.eye(2), np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [0.0, 0.0]]), "controllability"
        )


def test_lyapunov_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_generalized_lyapunov(np.eye(2), np.eye(3), np.eye(2), "controllability")


def test_lyapunov_rejects_stable_spectrum():
    one = np.array([[1.0]])
    with pytest.raises(SpectrumViolation):
        solve_generalized_lyapunov(one, -one, one, "controllability")


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
        for side in ("controllability", "observability"):
            x = solve_generalized_lyapunov(e, a, w, side)
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


def test_pencil_eigendata_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pencil_eigendata(np.eye(2), np.eye(3))


def test_selector_factories():
    sel = stable_or_infinite()
    assert sel.include_infinite
    assert np.array_equal(
        sel.finite(np.array([-1.0 + 0j, 1.0 + 0j])), np.array([True, False])
    )
    sel = antistable_finite()
    assert not sel.include_infinite
    assert np.array_equal(
        sel.finite(np.array([-1.0 + 0j, 1.0 + 0j])), np.array([False, True])
    )
    custom = EigenvalueSelector(lambda lam: np.abs(lam) < 2.0, include_infinite=False)
    assert np.array_equal(
        custom.finite(np.array([1.0 + 0j, 3.0 + 0j])), np.array([True, False])
    )
