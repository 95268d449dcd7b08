"""Infinite eigenvalues decided by rank: seeded benchmark models and stress cases.

The library decides which eigenvalues are infinite once, when a system is
constructed, by rank decisions on E. These tests replay the benchmark's
index-2 models and two index-1 cases through that decision, and drive the
boundaries the decision has to survive: a nilpotent part of index 3, an E
with condition number 1e10, and an eigenvalue a few tolerances from the
imaginary axis, and a sigma_1 group of two Hankel values split by a small
delta. Each case must meet the invariants below or raise a typed
``StablekitError``.
"""

import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from stablekit import (
    AxisEigenvalue,
    DescriptorSystem,
    SingularPencil,
    StabilityClass,
    StablekitError,
    additive_decompose,
    linf_error,
    linf_of,
    pencil_spectrum,
    solve_ap2,
    solve_apinf,
    weierstrass_split,
)
import stablekit.kernels as kernels
from stablekit.cli import main
from stablekit.util import TOL

from oracles import (
    eval_transfer_np,
    hankel_multiplicity,
    hankel_values_standard,
    perfbench_modules,
    random_antistable_tri,
    random_regular,
)

models, gate = perfbench_modules()

# Deterministic examples, and no example database written to the tree.
STRESS = settings(max_examples=12, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)
OMEGAS = (0.0, 0.3, 1.0, 3.0, 10.0)


def index2_model(seed):
    """The seeded index-2 benchmark model; odd seeds carry ROTATE2."""
    rng = np.random.default_rng([seed, 7])
    return models.descriptor_model(rng, with_rotate2=seed % 2 == 1, nil_index=2)


def system_of(m):
    return DescriptorSystem(m.e, m.a, m.b, m.c, m.d)


def assert_invariants(s, hsv, rtol=1e-7, check_order=True):
    """The north-star invariants on ``s``, whose antistable part has the
    Hankel values ``hsv`` (descending, from the dense oracle).

    G = G_plus + G_minus against dense solves; the optimal approximant is
    stable with a margin and, when ``check_order``, has n - multiplicity
    states on the antistable side, the multiplicity read from ``hsv``;
    sigma_1 agrees with ``hsv[0]``; the sampled L-infinity error lies in
    [sigma_1, gamma]. ``rtol`` bounds the transfer and sigma_1 errors, and
    the bracket's slack when it exceeds 1e-6.
    """
    dec = additive_decompose(s)
    for w in OMEGAS:
        g = eval_transfer_np(s, 1j * w)
        parts = eval_transfer_np(dec.s_plus, 1j * w) + eval_transfer_np(dec.s_minus, 1j * w)
        assert np.linalg.norm(g - parts) <= rtol * (1.0 + np.linalg.norm(g))
    r = solve_apinf(s)
    assert r.sigma1 == pytest.approx(hsv[0], rel=rtol)
    rep = pencil_spectrum(r.system)
    assert rep.stability_class is StabilityClass.STABLE and rep.margin > TOL
    if check_order:
        assert r.system.n == dec.s_plus.n + dec.s_minus.n - hankel_multiplicity(hsv)
    grid = linf_error(s, r.system)
    slack = max(rtol, 1e-6)
    assert r.sigma1 * (1.0 - slack) <= grid.max_value <= r.gamma_used * (1.0 + slack)
    assert_brackets(linf_of(r.error_system), grid.max_value, slack)


def assert_brackets(cert, sampled, slack=1e-6):
    """The certified bracket of the error system holds the full models' sampled error."""
    assert cert.max_value <= cert.upper
    assert cert.max_value * (1.0 - slack) <= sampled <= cert.upper * (1.0 + slack)


def mixed_system(rng, e_inf, a_inf, n_stable=4, n_anti=3, ports=2):
    """Stable and antistable standard blocks plus the pencil block (E_inf, A_inf),
    mixed by random orthogonal factors.

    Returns the system, the antistable standard triple (A, B, C) and the
    input and output matrices of the (E_inf, A_inf) block, all before mixing.
    """
    a_s = -random_antistable_tri(rng, n_stable)
    a_u = random_antistable_tri(rng, n_anti)
    k = e_inf.shape[0]
    n = n_stable + n_anti + k
    b = rng.standard_normal((n, ports))
    c = rng.standard_normal((ports, n))
    e0 = scipy.linalg.block_diag(np.eye(n_stable + n_anti), e_inf)
    a0 = scipy.linalg.block_diag(a_s, a_u, a_inf)
    p = random_regular(rng, n, spread=(1.0, 1.0))
    q = random_regular(rng, n, spread=(1.0, 1.0))
    s = DescriptorSystem(p @ e0 @ q, p @ a0 @ q, p @ b, c @ q)
    anti = slice(n_stable, n_stable + n_anti)
    return s, (a_u, b[anti], c[:, anti]), (b[n - k :], c[:, n - k :])


# ---------------------------------------------------------------------------
# Benchmark models


def test_seeded_index2_models_read_two_infinite_eigenvalues():
    # QZ of the whole pencil returned the Jordan pair of seeds 6, 57, 188,
    # 227, 267, 286 and 295 as a finite pair, which a beta threshold read
    # as finite; the rank decisions read every one as infinite.
    misread = [seed for seed in range(300) if pencil_spectrum(system_of(index2_model(seed))).n_infinite != 2]
    assert misread == []


@pytest.mark.parametrize("seed", [6, 57, 188, 227, 267, 286, 295])
def test_formerly_misread_index2_models_pass_the_gate(seed):
    m = index2_model(seed)
    s = system_of(m)
    verdict = gate.Verdict(m)
    r = solve_apinf(s)
    grid = linf_error(s, r.system)
    out = r.system
    approx = (out.e, out.a, out.b, out.c, out.d)
    gate.check_hinf(verdict, m, approx, r.sigma1, {"linf_error": grid.max_value})
    h2 = solve_ap2(s)
    out = h2.system
    gate.check_h2(verdict, m, (out.e, out.a, out.b, out.c, out.d), h2.diagnostics["error_l2"])
    assert verdict.failures == []


@pytest.mark.parametrize("seed, index", [(1203, 33), (1301, 65)])
def test_index1_cli_cases_report_sigma1(seed, index, tmp_path, capsys):
    # Two index-1 benchmark cases whose top Hankel values lie within 4e-3 of
    # each other. A spurious infinite pair in the approximant once made the
    # reported error inf and 0.2500016.
    m = models.descriptor_model(models.case_rng(seed, 2, index), with_rotate2=False, nil_index=1)
    src, out = tmp_path / "g.dsys", tmp_path / "ghat.dsys"
    src.write_text(models.format_dsys(m))
    for argv in (
        ["approx", str(src), "--norm", "hinf", "-o", str(out)],
        ["verify", str(src), str(out), "--norm", "hinf"],
    ):
        capsys.readouterr()
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["error_linf"] == pytest.approx(m.sigma1, rel=1e-6)
    assert report["approximant"]["order"] == m.n - 1


# ---------------------------------------------------------------------------
# Stress cases


@STRESS
@given(seed=SEEDS)
def test_nilpotent_index3_meets_the_invariants(seed):
    rng = np.random.default_rng(seed)
    shift = np.diag([1.0, 1.0], 1)
    s, anti, (b_inf, c_inf) = mixed_system(rng, shift, np.eye(3))
    assert pencil_spectrum(s).n_infinite == 3
    # C (s N - I)^{-1} B = -sum_i s^i C N^i B
    ref = np.stack([-(c_inf @ np.linalg.matrix_power(shift, i) @ b_inf) for i in range(3)])
    coeffs = weierstrass_split(s).coefficients
    assert coeffs.shape == ref.shape
    assert_allclose(coeffs, ref, rtol=0.0, atol=1e-9 * (1.0 + np.abs(ref).max()))
    assert_invariants(s, hankel_values_standard(*anti))


def huge_eigenvalue_system(rng, n=8):
    """P diag(sv) Q, P diag(a) Q with sv from 1 down to 1e-10; returns the
    system, sv, a and the unmixed B and C."""
    sv = np.logspace(0, -10, n)
    a = rng.uniform(0.5, 3.0, n) * np.where(rng.random(n) < 0.5, -1.0, 1.0)
    a[0], a[-1] = abs(a[0]), -abs(a[-1])
    b = rng.standard_normal((n, 2))
    c = rng.standard_normal((2, n))
    p = random_regular(rng, n, spread=(1.0, 1.0))
    q = random_regular(rng, n, spread=(1.0, 1.0))
    return DescriptorSystem(p @ np.diag(sv) @ q, p @ np.diag(a) @ q, p @ b, c @ q), sv, a, b, c


def row_scaled_system(rng, n_s=4, n_u=3):
    """(W, W A0, W B0, C0) with cond(W) = 1e10 and (A0, B0, C0) standard with
    n_s stable and n_u antistable eigenvalues; returns the system, or None when
    it is read as singular, and (A0, B0, C0)."""
    a0 = scipy.linalg.block_diag(-random_antistable_tri(rng, n_s), random_antistable_tri(rng, n_u))
    b0 = rng.standard_normal((n_s + n_u, 2))
    c0 = rng.standard_normal((2, n_s + n_u))
    u = random_regular(rng, n_s + n_u, spread=(1.0, 1.0))
    v = random_regular(rng, n_s + n_u, spread=(1.0, 1.0))
    w = (u * np.logspace(0, -10, n_s + n_u)) @ v
    try:
        return DescriptorSystem(w, w @ a0, w @ b0, c0), (a0, b0, c0)
    except SingularPencil:
        return None, (a0, b0, c0)


@STRESS
@given(seed=SEEDS)
def test_huge_eigenvalue_with_cond_e_1e10_meets_the_invariants(seed):
    # E = P diag(sv) Q with sv from 1 down to 1e-10 and A = P diag(a) Q: the
    # pencil eigenvalues a_i / sv_i reach 1e10. The last one lies at the
    # rank floor and is read as infinite; it is stable, so that reading
    # moves only the stable part, by s * 1e-10 relative.
    s, sv, a, b, c = huge_eigenvalue_system(np.random.default_rng(seed))
    assert np.linalg.cond(s.e) == pytest.approx(1e10, rel=1e-3)
    assert pencil_spectrum(s).n_infinite == 1
    anti = a > 0
    hsv = hankel_values_standard(
        np.diag(a[anti] / sv[anti]), b[anti] / sv[anti, None], c[:, anti]
    )
    assert_invariants(s, hsv)


@STRESS
@given(seed=SEEDS)
def test_row_scaled_pencil_with_cond_e_1e10_is_read_or_rejected(seed):
    # (W, W A0, W B0, C0) has the transfer and the eigenvalues of the
    # standard system (A0, B0, C0), but with cond(W) = 1e10 one of its rows
    # is 1e-10 of the others in E and in A alike: no infinite eigenvalue,
    # and within tol of a singular pencil. Either reading is allowed; a
    # wrong one is not. Backward errors grow by cond(W), so the transfer and
    # sigma_1 are compared at 1e-5.
    n_s = 4
    s, (a0, b0, c0) = row_scaled_system(np.random.default_rng(seed), n_s)
    if s is None:
        return
    hsv = hankel_values_standard(a0[n_s:, n_s:], b0[n_s:], c0[:, n_s:])
    assert pencil_spectrum(s).n_infinite == 0
    assert_invariants(s, hsv, rtol=1e-5)


@pytest.mark.parametrize("seed", range(6))
def test_ill_conditioned_e_is_factored_by_qz(monkeypatch, seed):
    # cond(E) = 1e10 is far above kernels._KAPPA: both families keep the
    # staircase and one QZ of the finite block, not the sorted real Schur form
    sizes = []
    qz = kernels._qz

    def counted(a, e):
        sizes.append(a.shape[0])
        return qz(a, e)

    monkeypatch.setattr(kernels, "_qz", counted)
    huge_eigenvalue_system(np.random.default_rng(seed))
    assert sizes == [7]
    sizes.clear()
    # a pencil read as singular is rejected by the staircase, before any QZ
    s, _ = row_scaled_system(np.random.default_rng(seed))
    assert sizes == ([] if s is None else [7])


@pytest.mark.parametrize("c", [0.5, 2.0, 1e3, 1e4, 1e6])
def test_eigenvalue_c_tol_from_the_axis(c):
    # an antistable pair lam with Re lam = c * tol * (1 + |lam|), to well
    # below tol: inside the axis band for c < 1, outside it otherwise. Its
    # Hankel value grows like 1 / Re lam; from c = 1e4 on the solve must
    # complete, and below that it may raise a typed error. The pair's two
    # Hankel values lie 3e-10 apart relative at c = 2, and further apart
    # above, so sigma_1 is simple at every c.
    rng = np.random.default_rng(71)
    im = 2.0
    re = c * TOL * (1.0 + im)
    a_near = np.array([[re, im], [-im, re]])
    s, (a_u, b_u, c_u), (b_near, c_near) = mixed_system(rng, np.eye(2), a_near)
    if c < 1.0:
        with pytest.raises(AxisEigenvalue):
            additive_decompose(s)
        return
    try:
        dec = additive_decompose(s)
        r = solve_apinf(s)
    except StablekitError:
        assert c < 1e4
        return
    # away from omega = im, where the response peaks at about 1 / Re lam and
    # any evaluation loses that many digits
    for w in (0.0, 0.3, 1.0, 10.0):
        g = eval_transfer_np(s, 1j * w)
        parts = eval_transfer_np(dec.s_plus, 1j * w) + eval_transfer_np(dec.s_minus, 1j * w)
        assert np.linalg.norm(g - parts) <= 1e-6 * (1.0 + np.linalg.norm(g))
    assert pencil_spectrum(r.system).stability_class is StabilityClass.STABLE
    hsv = hankel_values_standard(
        scipy.linalg.block_diag(a_u, a_near), np.vstack([b_u, b_near]), np.hstack([c_u, c_near])
    )
    assert r.system.n == s.n - hankel_multiplicity(hsv)
    grid = linf_error(s, r.system)
    assert r.sigma1 * (1.0 - 1e-6) <= grid.max_value <= r.gamma_used * (1.0 + 1e-6)
    assert_brackets(linf_of(r.error_system), grid.max_value)


SPLITS = (0.0, 1e-14, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-3)


def split_group(ports, delta):
    """An antistable pair whose Hankel values split from {1, 1} by about delta.

    SISO: ROTATE2 (Gramians -I, one 2 x 2 Jordan block at 1/2) with
    A[1, 1] += delta. Two ports: 1/(s - 1) on each, scaled to the Hankel
    values 1 and 1 + delta.
    """
    if ports == 1:
        a = np.array([[1.0, 0.5], [-0.5, delta]])
        return a, np.array([[np.sqrt(2.0)], [0.0]]), np.array([[np.sqrt(2.0), 0.0]])
    g = np.diag(np.sqrt(2.0 * np.array([1.0, 1.0 + delta])))
    return np.eye(2), g, g


@pytest.mark.parametrize("ports", [1, 2])
@pytest.mark.parametrize("delta", SPLITS)
@STRESS
@given(seed=SEEDS)
def test_split_sigma1_group_meets_the_invariants_or_raises(ports, delta, seed):
    # The optimal approximant sheds both states of an exact pair and one of
    # a pair split by 1e-9 or more; in between, either count is a correct
    # reading, so the order is not checked there.
    rng = np.random.default_rng(seed)
    n_s = 4
    a_u, b_u, c_u = split_group(ports, delta)
    a0 = scipy.linalg.block_diag(-random_antistable_tri(rng, n_s), a_u)
    b0 = np.vstack([rng.standard_normal((n_s, ports)), b_u])
    c0 = np.hstack([rng.standard_normal((ports, n_s)), c_u])
    p = random_regular(rng, n_s + 2, spread=(1.0, 1.0))
    q = random_regular(rng, n_s + 2, spread=(1.0, 1.0))
    s = DescriptorSystem(p @ q, p @ a0 @ q, p @ b0, c0 @ q)
    hsv = hankel_values_standard(a_u, b_u, c_u)
    exact_or_split = delta == 0.0 or delta >= 1e-9
    if exact_or_split:
        assert hankel_multiplicity(hsv) == (2 if delta == 0.0 else 1)
    try:
        assert_invariants(s, hsv, check_order=exact_or_split)
    except StablekitError:
        pass
