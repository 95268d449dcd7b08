"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each test function carries its criterion number; ``pytest -v`` therefore
prints one PASS/FAIL line per criterion.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stablekit import (
    Branch,
    DescriptorSystem,
    NotMinimal,
    StabilityClass,
    additive_decompose,
    construct_gamma_system,
    gramians,
    hankel_sigma_max,
    linf_error,
    load_dsys,
    pencil_spectrum,
    reduce_singular_svd,
    response_at_infinity,
    rse_transform,
    solve_ap2,
    solve_apinf,
)
from stablekit.kernels import solve_generalized_lyapunov, solve_generalized_sylvester
from stablekit.synth import random_antistable_system, random_unstable_system

from oracles import (
    eval_transfer_np,
    quad_l2_diff,
    random_antistable_tri,
    random_regular,
)

NEHARI_TEXT = "DSYS 1 1 1\nE\n1.0\nA\n1.0\nB\n1.0\nC\n1.0\nD\n0.0\n"

ROTATE2 = DescriptorSystem(
    np.eye(2),
    np.array([[1.0, 0.5], [-0.5, 0.0]]),
    np.array([[np.sqrt(2.0)], [0.0]]),
    np.array([[np.sqrt(2.0), 0.0]]),
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "stablekit.cli", *map(str, args)],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_criterion_1_scalar_nehari_cli(tmp_path):
    src = tmp_path / "nehari.dsys"
    src.write_text(NEHARI_TEXT)
    out = tmp_path / "approx.dsys"
    proc = run_cli("approx", src, "--norm", "hinf", "-o", out)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["wall_time_s"] < 1.0

    approx = load_dsys(out)
    for w in (0.0, 0.3, 1.0, 7.0, 300.0):
        assert_allclose(eval_transfer_np(approx, 1j * w), [[-0.5]], atol=1e-10)

    vproc = run_cli("verify", src, out, "--norm", "hinf")
    assert vproc.returncode == 0, vproc.stderr
    vreport = json.loads(vproc.stdout)
    assert vreport["error_linf"] == pytest.approx(0.5, abs=1e-8)
    assert vreport["profile_max"] - vreport["profile_min"] <= 1e-8


def test_criterion_2_singular_branch():
    res = solve_apinf(ROTATE2)
    assert res.branch is Branch.SINGULAR_SVD
    assert res.system.n == 1
    for w in np.concatenate([[0.0], np.geomspace(1e-2, 1e3, 9)]):
        assert_allclose(eval_transfer_np(res.system, 1j * w), [[-1.0]], atol=1e-6)
    grid = linf_error(ROTATE2, res.system)
    assert grid.max_value == pytest.approx(1.0, abs=1e-6)
    assert grid.values.min() == pytest.approx(1.0, abs=1e-6)  # all-pass

    # the reduction on its own: n - multiplicity = 0 finite poles, stable,
    # and the sampled error to the input reaches sigma_1 = 1 without exceeding it
    gs = construct_gamma_system(ROTATE2, gramians(ROTATE2), 1.0)
    red = reduce_singular_svd(gs)
    rep = pencil_spectrum(red)
    assert rep.finite_eigenvalues.size == 0
    assert rep.stability_class is StabilityClass.STABLE
    grid = linf_error(ROTATE2, red)
    assert 1.0 - 1e-8 <= grid.max_value <= 1.0 + 1e-8


def test_criterion_3_error_bracket_50_seeds():
    t0 = time.perf_counter()
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 11))
        s = random_antistable_system(n, seed=rng, m=2, p=2)
        sigma1 = hankel_sigma_max(s, gramians(s)).sigma1
        for factor in (None, 1.001, 2.0):
            res = solve_apinf(s, gamma_factor=factor)
            gamma = res.gamma_used
            grid = linf_error(s, res.system)
            assert grid.max_value >= sigma1 - 1e-6 * sigma1
            assert grid.max_value <= gamma + 1e-6 * sigma1
    assert time.perf_counter() - t0 < 30.0


def test_criterion_4_oracle_equivalence_25_systems():
    from stablekit import glover_oracle

    points = 1j * np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 99)])
    collected = 0
    seed = 0
    while collected < 25:
        seed += 1
        assert seed < 400, "could not assemble 25 distinct-Hankel-value systems"
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(2, 7))
        s = random_antistable_system(n, seed=rng, m=2, p=2)
        hank = hankel_sigma_max(s, gramians(s))
        sig = np.sqrt(hank.spectrum)
        if np.min(np.diff(-sig)) / sig[0] < 1e-3:  # need well-separated values
            continue
        try:
            g_ref = glover_oracle(s)
        except NotMinimal:
            continue
        collected += 1
        res = solve_apinf(s)
        scale = max(
            np.linalg.norm(eval_transfer_np(g_ref, z), 2) for z in points
        )
        for z in points:
            diff = np.linalg.norm(
                eval_transfer_np(g_ref, z) - eval_transfer_np(res.system, z), 2
            )
            assert diff <= 1e-7 * max(scale, 1.0)


def test_criterion_5_rh2_optimality():
    rng = np.random.default_rng(3000)
    for _ in range(6):
        n = int(rng.integers(2, 9))
        u = int(rng.integers(1, n))
        s = random_unstable_system(n, u, seed=rng, m=2, p=2)
        res = solve_ap2(s)
        err = res.diagnostics["error_l2"]
        # trace formula against direct quadrature of the error transfer
        assert quad_l2_diff(s, res.system) == pytest.approx(err, rel=1e-5)

    # no stable competitor beats the reported optimum (squared, orthogonality)
    s = random_unstable_system(6, 3, seed=3100, m=2, p=2)
    err = solve_ap2(s).diagnostics["error_l2"]
    comp_rng = np.random.default_rng(3200)
    for _ in range(10):
        k = int(comp_rng.integers(1, 7))
        comp = random_unstable_system(k, 0, seed=comp_rng, m=2, p=2)
        assert quad_l2_diff(s, comp) ** 2 >= err**2 - 1e-4


def test_criterion_6_solver_residuals_100_instances():
    rng = np.random.default_rng(4000)
    # 50 generalized Lyapunov instances, orders up to 50
    for k in range(50):
        n = int(rng.integers(1, 51))
        a = random_antistable_tri(rng, n, 0.5, 3.0)
        pt = random_regular(rng, n)
        qt = random_regular(rng, n)
        e = pt @ qt
        a = pt @ a @ qt
        b = rng.standard_normal((n, max(1, n // 3)))
        w = b @ b.T
        side = "controllability" if k % 2 == 0 else "observability"
        x = solve_generalized_lyapunov(e, a, w, side, None)
        if side == "controllability":
            res = a @ x @ e.T + e @ x @ a.T + w
        else:
            res = a.T @ x @ e + e.T @ x @ a + w
        scale = 2.0 * np.linalg.norm(a) * np.linalg.norm(x) * np.linalg.norm(e)
        assert np.linalg.norm(res) <= 1e-10 * max(scale, np.linalg.norm(w), 1.0)

    # 50 coupled generalized Sylvester instances
    for _ in range(50):
        m = int(rng.integers(1, 21))
        p = int(rng.integers(1, 21))
        a1 = random_antistable_tri(rng, m, -3.0, -0.5)
        a3 = random_antistable_tri(rng, p, 0.5, 3.0)
        e1 = np.eye(m) + 0.1 * np.triu(rng.standard_normal((m, m)), 1)
        e3 = np.eye(p) + 0.1 * np.triu(rng.standard_normal((p, p)), 1)
        a2 = rng.standard_normal((m, p))
        e2 = rng.standard_normal((m, p))
        r, l = solve_generalized_sylvester(a1, a3, e1, e3, a2, e2)
        res_a = a1 @ r - l @ a3 + a2
        res_e = e1 @ r - l @ e3 + e2
        scale_a = (
            np.linalg.norm(a1) * np.linalg.norm(r)
            + np.linalg.norm(l) * np.linalg.norm(a3)
            + np.linalg.norm(a2)
        )
        scale_e = (
            np.linalg.norm(e1) * np.linalg.norm(r)
            + np.linalg.norm(l) * np.linalg.norm(e3)
            + np.linalg.norm(e2)
        )
        assert np.linalg.norm(res_a) <= 1e-10 * max(scale_a, 1.0)
        assert np.linalg.norm(res_e) <= 1e-10 * max(scale_e, 1.0)


def test_criterion_7_decomposition_additivity_and_margins():
    rng = np.random.default_rng(5000)
    omegas = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 63)])
    for trial in range(10):
        n = int(rng.integers(2, 9))
        u = int(rng.integers(1, n))
        s = random_unstable_system(
            n, u, seed=rng, m=2, p=2, descriptor=bool(trial % 2)
        )
        dec = additive_decompose(s)
        for w in omegas:
            g = eval_transfer_np(s, 1j * w)
            gsum = eval_transfer_np(dec.s_plus, 1j * w) + eval_transfer_np(
                dec.s_minus, 1j * w
            )
            assert np.linalg.norm(g - gsum) <= 1e-8 * (1.0 + np.linalg.norm(g))
        rp = pencil_spectrum(dec.s_plus)
        rm = pencil_spectrum(dec.s_minus)
        assert rp.stability_class is StabilityClass.STABLE
        assert np.all(rp.finite_eigenvalues.real < 0.0)
        assert rm.stability_class is StabilityClass.ANTISTABLE
        assert np.all(rm.finite_eigenvalues.real > 0.0)
        assert not rm.has_infinite
        assert rp.margin > 1e-10
        assert rm.margin > 1e-10


def test_criterion_8_large_suboptimal_cli_run(tmp_path):
    model = tmp_path / "model.dsys"
    out = tmp_path / "approx.dsys"
    gproc = run_cli("generate", "-n", 48, "-u", 2, "--seed", 1, "-o", model)
    assert gproc.returncode == 0, gproc.stderr
    assert json.loads(gproc.stdout)["output"]["num_unstable_poles"] == 2

    proc = run_cli(
        "approx", model, "--norm", "hinf", "--gamma-factor", 1.001, "-o", out
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["input"]["num_unstable_poles"] == 2
    assert report["output"]["order"] <= 48
    assert report["wall_time_s"] < 10.0

    original = load_dsys(model)
    approx = load_dsys(out)
    rep = pencil_spectrum(approx)
    assert rep.stability_class is StabilityClass.STABLE
    assert int((rep.finite_eigenvalues.real > 0.0).sum()) == 0
    vinf_in = response_at_infinity(original)
    vinf_out = response_at_infinity(approx)
    assert vinf_in is not None and vinf_out is not None
    assert np.linalg.norm(vinf_out - vinf_in) <= 1e-9


def test_criterion_9_covariance_identities():
    rng = np.random.default_rng(6000)
    bases = [
        random_antistable_system(3, seed=rng, m=2, p=2),
        rse_transform(
            random_regular(rng, 4),
            random_antistable_system(4, seed=rng),
            random_regular(rng, 4),
        ),
        random_antistable_system(6, seed=rng, m=3, p=2),
    ]
    for s in bases:
        n = s.n
        gr = gramians(s)
        sigma1 = hankel_sigma_max(s, gr).sigma1
        gs = construct_gamma_system(s, gr, 1.5 * sigma1)
        for _ in range(20):
            p = random_regular(rng, n)
            q = random_regular(rng, n)
            st = rse_transform(p, s, q)
            grt = gramians(st)
            # Gramian covariance under restricted system equivalence
            for got, ref in (
                (q @ grt.xc @ q.T, gr.xc),
                (p.T @ grt.xo @ p, gr.xo),
            ):
                assert np.linalg.norm(got - ref) <= 1e-9 * (
                    1.0 + np.linalg.norm(ref)
                )
            # gamma-system covariance: (P, Q) on the source becomes
            # (Q^T, P^T) on the constructed matrices
            gst = construct_gamma_system(st, grt, 1.5 * sigma1)
            for got, ref in (
                (gst.e_g, q.T @ gs.e_g @ p.T),
                (gst.a_g, q.T @ gs.a_g @ p.T),
                (gst.b_g, q.T @ gs.b_g),
                (gst.c_g, gs.c_g @ p.T),
            ):
                assert np.linalg.norm(got - ref) <= 1e-9 * (
                    1.0 + np.linalg.norm(ref)
                )
