"""Stable L2/L-infinity approximation: gamma systems, branches, oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import stablekit.approximation as approximation
from stablekit import (
    AxisEigenvalue,
    Branch,
    DescriptorSystem,
    GammaSystem,
    GammaTooSmall,
    NotMinimal,
    StabilityClass,
    construct_gamma_system,
    direct_sum,
    glover_oracle,
    gramians,
    hankel_sigma_max,
    linf_error,
    pencil_spectrum,
    reduce_singular_svd,
    response_at_infinity,
    rse_transform,
    solve_ap2,
    solve_apinf,
    svd,
    transfer_eval,
)
from stablekit.synth import random_antistable_system, random_orthogonal, random_unstable_system

from oracles import eval_transfer_np, quad_l2_diff, random_regular


def scalar_system(e, a, b, c, d=0.0):
    return DescriptorSystem([[e]], [[a]], [[b]], [[c]], [[d]])


NEHARI = scalar_system(1.0, 1.0, 1.0, 1.0)

# SISO system with Gramians -I2 and sigma_1 = 1 of multiplicity 2; its
# optimal construction produces a singular pencil
ROTATE2 = DescriptorSystem(
    np.eye(2),
    np.array([[1.0, 0.5], [-0.5, 0.0]]),
    np.array([[np.sqrt(2.0)], [0.0]]),
    np.array([[np.sqrt(2.0), 0.0]]),
)


def gamma_system_of(s: DescriptorSystem, gamma: float) -> GammaSystem:
    return construct_gamma_system(s, gramians(s), gamma)


def axis_points(rng=None, count=10):
    if rng is None:
        return 1j * np.concatenate([[0.0], np.geomspace(1e-2, 1e2, count - 1)])
    return 1j * rng.uniform(0.0, 50.0, size=count)


def assert_same_transfer(s1, s2, points, rtol=1e-9):
    for z in points:
        g1 = eval_transfer_np(s1, z)
        g2 = eval_transfer_np(s2, z)
        assert np.linalg.norm(g1 - g2) <= rtol * (1.0 + np.linalg.norm(g1))


# ---------------------------------------------------------------------------
# solve_ap2


def test_ap2_stable_input_unchanged():
    s = random_unstable_system(4, 0, seed=3, m=2, p=2)
    res = solve_ap2(s)
    assert res.diagnostics["error_l2"] == 0.0
    assert res.system.n == 4
    assert_same_transfer(s, res.system, axis_points())


def test_ap2_fully_antistable_scalar():
    res = solve_ap2(NEHARI)
    assert res.system.n == 0
    assert_allclose(transfer_eval(res.system, 1.0j), [[0.0]], atol=1e-15)
    assert res.diagnostics["error_l2"] == pytest.approx(np.sqrt(0.5), abs=1e-12)
    # independent quadrature of the dropped antistable transfer
    assert quad_l2_diff(NEHARI) == pytest.approx(res.diagnostics["error_l2"], rel=1e-6)


def test_ap2_two_state_split():
    s = DescriptorSystem(np.eye(2), np.diag([-1.0, 2.0]), [[1.0], [1.0]], [[1.0, 1.0]])
    res = solve_ap2(s)
    assert res.system.n == 1
    # surviving stable half is 1/(s+1)
    ref = scalar_system(1.0, -1.0, 1.0, 1.0)
    assert_same_transfer(res.system, ref, axis_points())
    assert res.diagnostics["error_l2"] == pytest.approx(0.5, abs=1e-12)


def test_ap2_order_drops_by_antistable_count():
    rng = np.random.default_rng(89)
    for _ in range(4):
        n = int(rng.integers(2, 8))
        u = int(rng.integers(1, n + 1))
        s = random_unstable_system(n, u, seed=rng)
        res = solve_ap2(s)
        assert res.system.n == n - u < n


def test_ap2_error_is_quadrature_distance_and_optimal():
    rng = np.random.default_rng(97)
    s = random_unstable_system(5, 2, seed=rng)
    res = solve_ap2(s)
    err = res.diagnostics["error_l2"]
    # reported error equals the actual L2 distance to the approximant
    assert quad_l2_diff(s, res.system) == pytest.approx(err, rel=1e-5)
    # no stable competitor does better (orthogonality of the two halves)
    for k in range(3):
        comp = random_unstable_system(int(rng.integers(1, 5)), 0, seed=rng)
        dist = quad_l2_diff(s, comp)
        assert dist >= err - 1e-4


# ---------------------------------------------------------------------------
# construct_gamma_system


def test_gamma_scalar_at_optimal_level():
    gs = gamma_system_of(NEHARI, 0.5)
    assert_allclose(gs.r_g, [[0.0]], atol=1e-14)
    assert_allclose(gs.e_g, [[0.0]], atol=1e-14)
    assert_allclose(gs.a_g, [[0.5]], atol=1e-14)
    assert_allclose(gs.b_g, [[-0.5]], atol=1e-14)
    assert_allclose(gs.c_g, [[-0.5]], atol=1e-14)
    assert gs.regular.is_regular
    # constant transfer -1/2 (E = 0 with invertible A)
    sys_g = DescriptorSystem(gs.e_g, gs.a_g, gs.b_g, gs.c_g)
    for z in axis_points():
        assert_allclose(eval_transfer_np(sys_g, z), [[-0.5]], atol=1e-13)


def test_gamma_scalar_suboptimal_level():
    gs = gamma_system_of(NEHARI, 1.0)
    assert_allclose(gs.e_g, [[-0.75]], atol=1e-14)
    assert_allclose(gs.a_g, [[1.25]], atol=1e-14)
    assert_allclose(gs.b_g, [[-0.5]], atol=1e-14)
    assert_allclose(gs.c_g, [[-0.5]], atol=1e-14)
    sys_g = DescriptorSystem(gs.e_g, gs.a_g, gs.b_g, gs.c_g)
    rep = pencil_spectrum(sys_g)
    assert_allclose(rep.finite_eigenvalues, [-5.0 / 3.0], atol=1e-12)
    for z in axis_points():
        assert_allclose(eval_transfer_np(sys_g, z), [[-1.0 / (3.0 * z + 5.0)]], atol=1e-13)


def test_gamma_rotate2_singular_pencil():
    gs = gamma_system_of(ROTATE2, 1.0)
    assert_allclose(gs.r_g, np.zeros((2, 2)), atol=1e-13)
    assert_allclose(gs.e_g, np.zeros((2, 2)), atol=1e-13)
    assert_allclose(gs.a_g, np.diag([2.0, 0.0]), atol=1e-13)
    assert_allclose(gs.b_g, -np.asarray(ROTATE2.b), atol=1e-13)
    assert_allclose(gs.c_g, -np.asarray(ROTATE2.c), atol=1e-13)
    assert not gs.regular.is_regular
    assert gs.regular.rank == 1


def test_gamma_rejects_small_gamma():
    with pytest.raises(GammaTooSmall):
        gamma_system_of(NEHARI, 0.45)


def test_gamma_strictly_above_sigma1_is_regular():
    rng = np.random.default_rng(101)
    for _ in range(6):
        n = int(rng.integers(1, 7))
        s = random_antistable_system(n, seed=rng, m=2, p=2)
        gr = gramians(s)
        sigma1 = hankel_sigma_max(s, gr).sigma1
        for factor in (1.001, 1.1, 2.0):
            gs = construct_gamma_system(s, gr, factor * sigma1)
            assert gs.regular.is_regular
            sys_g = DescriptorSystem(gs.e_g, gs.a_g, gs.b_g, gs.c_g)
            rep = pencil_spectrum(sys_g)
            assert rep.stability_class in (
                StabilityClass.STABLE,
                StabilityClass.AXIS_FREE,
            )
            assert np.all(rep.finite_eigenvalues.real < 0)


def test_gamma_matrix_identities_standard_form():
    # with E = I the A matrix satisfies three equivalent closed forms
    rng = np.random.default_rng(103)
    for _ in range(8):
        n = int(rng.integers(1, 8))
        s = random_antistable_system(n, seed=rng, m=2, p=2)
        gr = gramians(s)
        sigma1 = hankel_sigma_max(s, gr).sigma1
        for factor in (1.0, 1.3):
            gamma = factor * sigma1
            gs = construct_gamma_system(s, gr, gamma)
            a = np.asarray(s.a)
            alt1 = -gs.r_g @ a.T - gs.b_g @ np.asarray(s.b).T
            alt2 = gamma**2 * a.T + gr.xo @ a @ gr.xc
            scale = max(1.0, np.linalg.norm(gs.a_g))
            assert np.linalg.norm(gs.a_g - alt1) <= 1e-11 * scale
            assert np.linalg.norm(gs.a_g - alt2) <= 1e-11 * scale


def test_gamma_covariance_under_equivalence():
    # the construction commutes with restricted system equivalence:
    # transforming the source by (P, Q) transforms the result by (Q^T, P^T)
    rng = np.random.default_rng(107)
    s = random_antistable_system(4, seed=rng, m=2, p=2)
    gr = gramians(s)
    sigma1 = hankel_sigma_max(s, gr).sigma1
    for gamma in (sigma1, 1.5 * sigma1):
        gs = construct_gamma_system(s, gr, gamma)
        for _ in range(6):
            p = random_regular(rng, 4)
            q = random_regular(rng, 4)
            st = rse_transform(p, s, q)
            gst = construct_gamma_system(st, gramians(st), gamma)
            for got, ref in (
                (gst.e_g, q.T @ gs.e_g @ p.T),
                (gst.a_g, q.T @ gs.a_g @ p.T),
                (gst.b_g, q.T @ gs.b_g),
                (gst.c_g, gs.c_g @ p.T),
            ):
                assert np.linalg.norm(got - ref) <= 1e-9 * (
                    1.0 + np.linalg.norm(ref)
                )


# ---------------------------------------------------------------------------
# regularity verdict


def test_regularity_verdicts():
    assert gamma_system_of(NEHARI, 0.5).regular.is_regular
    v = gamma_system_of(ROTATE2, 1.0).regular
    assert not v.is_regular
    assert v.rank == 1
    # above sigma_1 = 1 the gamma-system A matrix has full rank
    v = gamma_system_of(ROTATE2, 2.0).regular
    assert v.is_regular and v.rank == 2


# ---------------------------------------------------------------------------
# singular-branch reductions


def test_reduce_svd_rotate2():
    gs = gamma_system_of(ROTATE2, 1.0)
    red = reduce_singular_svd(gs)
    assert red.n == 1
    assert_allclose(red.e, [[0.0]], atol=1e-13)
    assert abs(red.a[0, 0]) == pytest.approx(2.0, abs=1e-12)
    for z in axis_points():
        assert_allclose(eval_transfer_np(red, z), [[-1.0]], atol=1e-12)


def test_reduce_guard_on_cleanly_regular():
    gs = gamma_system_of(NEHARI, 1.0)
    with pytest.raises(ValueError):
        reduce_singular_svd(gs)


def test_reduce_rank_zero_returns_feedthrough():
    # unobservable antistable dynamics: sigma_1 = 0, the whole matrix drops
    s = scalar_system(1.0, 1.0, 1.0, 0.0, d=0.7)
    gs = gamma_system_of(s, 0.0)
    red = reduce_singular_svd(gs)
    assert red.n == 0
    assert_allclose(transfer_eval(red, 2.0j), [[0.7]], atol=1e-15)
    # uncontrollable variant
    s = scalar_system(1.0, 1.0, 0.0, 1.0, d=-0.3)
    red = reduce_singular_svd(gamma_system_of(s, 0.0))
    assert red.n == 0
    assert_allclose(transfer_eval(red, 2.0j), [[-0.3]], atol=1e-15)


def assert_optimal_reduction(s, red, sigma1, multiplicity):
    """``red`` approximates the antistable ``s`` within exactly sigma_1.

    Its finite poles number n - multiplicity, all stable; the sampled error
    reaches sigma_1 and does not exceed it.
    """
    rep = pencil_spectrum(red)
    assert rep.finite_eigenvalues.size == s.n - multiplicity
    assert rep.stability_class is StabilityClass.STABLE
    grid = linf_error(s, red)
    assert sigma1 * (1.0 - 1e-8) <= grid.max_value <= sigma1 * (1.0 + 1e-8)


def test_reduce_svd_rotate2_meets_sigma1():
    gs = gamma_system_of(ROTATE2, 1.0)
    red = reduce_singular_svd(gs)
    assert red.n == gs.regular.rank == 1
    assert_optimal_reduction(ROTATE2, red, 1.0, 2)


def test_reduce_svd_handles_descriptor_source():
    rng = np.random.default_rng(109)
    w = random_regular(rng, 2)
    sd = rse_transform(w, ROTATE2, np.eye(2))
    gs = gamma_system_of(sd, 1.0)
    # the descriptor source reduces to the standard-form result through the
    # transfer function
    red = reduce_singular_svd(gs)
    for z in axis_points():
        assert_allclose(eval_transfer_np(red, z), [[-1.0]], atol=1e-9)


def mixed_singular_instance(rng):
    """Orthogonal state mix of ROTATE2 plus a smaller-sigma block.

    The extra block enters through its own input/output port, which keeps
    the Gramians block-diagonal, so the Hankel values stay {1, 1, 0.15625}
    and the optimal-level pencil is singular.
    """
    a = np.zeros((3, 3))
    a[:2, :2] = ROTATE2.a
    a[2, 2] = 0.8
    b = np.zeros((3, 2))
    b[:2, :1] = ROTATE2.b
    b[2, 1] = 0.5
    c = np.zeros((2, 3))
    c[:1, :2] = ROTATE2.c
    c[1, 2] = 0.5
    t = random_orthogonal(rng, 3)
    return DescriptorSystem(np.eye(3), t @ a @ t.T, t @ b, c @ t.T)


def test_reduce_svd_on_random_singular_instances():
    rng = np.random.default_rng(113)
    for _ in range(6):
        s = mixed_singular_instance(rng)
        gr = gramians(s)
        hank = hankel_sigma_max(s, gr)
        assert hank.sigma1 == pytest.approx(1.0, rel=1e-10)
        assert hank.multiplicity_estimate == 2
        gs = construct_gamma_system(s, gr, hank.sigma1)
        assert not gs.regular.is_regular
        red = reduce_singular_svd(gs)
        assert red.n == gs.regular.rank
        assert_optimal_reduction(s, red, hank.sigma1, hank.multiplicity_estimate)


# ---------------------------------------------------------------------------
# glover_oracle


def test_glover_scalar():
    g = glover_oracle(NEHARI)
    assert g.n == 0
    assert_allclose(g.d, [[-0.5]], atol=1e-12)


def test_glover_rotate2():
    g = glover_oracle(ROTATE2)
    assert g.n == 0
    assert_allclose(g.d, [[-1.0]], atol=1e-12)


def test_glover_matches_balance_free_route():
    rng = np.random.default_rng(127)
    hits = 0
    while hits < 4:
        s = random_antistable_system(4, seed=rng, m=2, p=2)
        gr = gramians(s)
        hank = hankel_sigma_max(s, gr)
        if hank.multiplicity_estimate != 1:
            continue
        hits += 1
        g_ref = glover_oracle(s)
        res = solve_apinf(s)
        # the explicit construction drops the sigma_1 group; the balance-free
        # realization keeps order n but must realize the same transfer
        assert g_ref.n == 3
        assert res.system.n <= 4
        for z in axis_points(rng):
            a = eval_transfer_np(g_ref, z)
            b = eval_transfer_np(res.system, z)
            assert np.linalg.norm(a - b) <= 1e-7 * (1.0 + np.linalg.norm(a))


def test_glover_rejects_nonminimal():
    s = DescriptorSystem(np.eye(2), np.diag([1.0, 2.0]), [[1.0], [0.0]], [[1.0, 1.0]])
    with pytest.raises(NotMinimal):
        glover_oracle(s)


# ---------------------------------------------------------------------------
# solve_apinf


def test_apinf_scalar_optimal():
    res = solve_apinf(NEHARI)
    assert res.sigma1 == pytest.approx(0.5, abs=1e-13)
    assert res.gamma_used == pytest.approx(0.5, abs=1e-13)
    assert res.branch is Branch.REGULAR
    for z in axis_points():
        assert_allclose(eval_transfer_np(res.system, z), [[-0.5]], atol=1e-12)
    # the error system is all-pass of modulus exactly sigma_1
    grid = linf_error(NEHARI, res.system)
    assert grid.max_value == pytest.approx(0.5, abs=1e-9)
    assert grid.values.min() == pytest.approx(0.5, abs=1e-9)


def test_apinf_scalar_suboptimal():
    res = solve_apinf(NEHARI, gamma_factor=2.0)
    assert res.gamma_used == pytest.approx(1.0, abs=1e-13)
    assert res.branch is Branch.REGULAR
    for z in axis_points():
        assert_allclose(
            eval_transfer_np(res.system, z), [[-1.0 / (3.0 * z + 5.0)]], atol=1e-12
        )
    # pointwise error at omega = 0: |-1 + 1/5| = 4/5, within the gamma level
    diff0 = abs(eval_transfer_np(NEHARI, 0.0)[0, 0] - eval_transfer_np(res.system, 0.0)[0, 0])
    assert diff0 == pytest.approx(0.8, abs=1e-12)
    grid = linf_error(NEHARI, res.system)
    assert res.sigma1 - 1e-9 <= grid.max_value <= res.gamma_used + 1e-9


def test_apinf_mixed_system_keeps_stable_part():
    stable = scalar_system(1.0, -1.0, 1.0, 1.0)
    s = direct_sum(stable, NEHARI)
    res = solve_apinf(s)
    # output realizes 1/(s+1) - 1/2
    for z in axis_points():
        want = 1.0 / (z + 1.0) - 0.5
        assert_allclose(eval_transfer_np(res.system, z), [[want]], atol=1e-11)
    grid = linf_error(s, res.system)
    assert grid.max_value == pytest.approx(0.5, abs=1e-8)


def test_apinf_stable_input_early_return():
    s = random_unstable_system(3, 0, seed=11)
    res = solve_apinf(s)
    assert res.sigma1 == 0.0
    assert res.branch is Branch.REGULAR
    assert_same_transfer(s, res.system, axis_points())


def test_apinf_rejects_axis_eigenvalue():
    s = scalar_system(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(AxisEigenvalue):
        solve_apinf(s)


def test_apinf_validates_gamma_factor():
    with pytest.raises(ValueError):
        solve_apinf(NEHARI, gamma_factor=1.0)
    with pytest.raises(ValueError):
        solve_apinf(NEHARI, gamma_factor=0.5)


def test_apinf_rotate2_takes_singular_branch():
    res = solve_apinf(ROTATE2)
    assert res.branch is Branch.SINGULAR_SVD
    assert res.system.n == 1
    for z in axis_points():
        assert_allclose(eval_transfer_np(res.system, z), [[-1.0]], atol=1e-10)
    grid = linf_error(ROTATE2, res.system)
    assert grid.max_value == pytest.approx(1.0, abs=1e-8)
    assert grid.values.min() == pytest.approx(1.0, abs=1e-8)


def test_apinf_singular_branch_factors_a_gamma_once(monkeypatch):
    shapes = []

    def counted(m, tol=None):
        shapes.append(np.shape(m))
        return svd(m, tol)

    monkeypatch.setattr(approximation, "svd", counted)
    res = solve_apinf(ROTATE2)
    assert res.branch is Branch.SINGULAR_SVD
    assert shapes == [(2, 2)]


def test_apinf_descriptor_singular_instance_takes_svd_branch():
    rng = np.random.default_rng(131)
    w = random_regular(rng, 3)
    s = rse_transform(w, mixed_singular_instance(rng), np.eye(3))
    res = solve_apinf(s)
    assert res.branch is Branch.SINGULAR_SVD
    grid = linf_error(s, res.system)
    assert grid.max_value == pytest.approx(1.0, rel=1e-7)


def test_apinf_error_bracket_random():
    rng = np.random.default_rng(137)
    for _ in range(3):
        n = int(rng.integers(2, 7))
        u = int(rng.integers(1, n + 1))
        s = random_unstable_system(n, u, seed=rng, m=2, p=2)
        for factor in (None, 2.0):
            res = solve_apinf(s, gamma_factor=factor)
            assert res.system.n <= n
            assert (
                pencil_spectrum(res.system).stability_class is StabilityClass.STABLE
            )
            grid = linf_error(s, res.system)
            lo = res.sigma1 * (1.0 - 1e-6)
            hi = res.gamma_used * (1.0 + 1e-6) + 1e-12
            assert lo <= grid.max_value <= hi


def test_apinf_suboptimal_preserves_feedthrough():
    rng = np.random.default_rng(139)
    base = random_unstable_system(5, 2, seed=rng, m=2, p=2)
    d = rng.standard_normal((2, 2))
    s = DescriptorSystem(base.e, base.a, base.b, base.c, d)
    res = solve_apinf(s, gamma_factor=1.001)
    vinf = response_at_infinity(res.system)
    assert vinf is not None
    assert_allclose(vinf, d, atol=1e-9)
