"""Gramians, Hankel data, L2/L-infinity norms, and balancing."""

import importlib
import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import stablekit.systems as systems
from stablekit import (
    DescriptorSystem,
    GramianPair,
    NegativeSpectrum,
    NonFiniteSample,
    NonzeroFeedthrough,
    SpectrumViolation,
    additive_decompose,
    direct_sum,
    empty_system,
    frequency_response,
    gramians,
    h2_norm_antistable,
    hankel_sigma_max,
    linf_error,
    linf_of,
    negate_output,
    pencil_spectrum,
    random_orthogonal,
    rl2_norm,
    rse_transform,
    save_dsys,
    solve_apinf,
    weierstrass_split,
)
from stablekit.cli import main
from stablekit.synth import random_unstable_system

from oracles import (
    NotMinimal,
    NotStandardForm,
    balanced_realization,
    bumped_descriptor_system,
    eval_transfer_np,
    gramians_kron,
    linf_error_sequential,
    quad_l2_diff,
    random_antistable_system,
    random_antistable_tri,
    random_regular,
)

# the package root's ``gramians`` is the function, not the module
gramians_module = importlib.import_module("stablekit.gramians")


def scalar_system(e, a, b, c, d=0.0):
    return DescriptorSystem([[e]], [[a]], [[b]], [[c]], [[d]])


NEHARI = scalar_system(1.0, 1.0, 1.0, 1.0)

# SISO system with Xc = Xo = -I (check: A + A^T = B B^T = C^T C = diag(2, 0))
ROTATE2 = DescriptorSystem(
    np.eye(2),
    np.array([[1.0, 0.5], [-0.5, 0.0]]),
    np.array([[np.sqrt(2.0)], [0.0]]),
    np.array([[np.sqrt(2.0), 0.0]]),
)


def strictly_proper(s: DescriptorSystem) -> DescriptorSystem:
    return DescriptorSystem(s.e, s.a, s.b, s.c, np.zeros((s.p, s.m)))


# ---------------------------------------------------------------------------
# gramians


def test_gramians_scalar_value():
    gr = gramians(NEHARI)
    assert_allclose(gr.xc, [[-0.5]], atol=1e-14)
    assert_allclose(gr.xo, [[-0.5]], atol=1e-14)
    assert gr.residual_c <= 1e-13 and gr.residual_o <= 1e-13


def test_gramians_two_state_identity():
    gr = gramians(ROTATE2)
    assert_allclose(gr.xc, -np.eye(2), atol=1e-13)
    assert_allclose(gr.xo, -np.eye(2), atol=1e-13)


def test_gramians_zero_input_map():
    s = DescriptorSystem(np.eye(2), np.diag([1.0, 2.0]), np.zeros((2, 1)), np.ones((1, 2)))
    gr = gramians(s)
    assert_allclose(gr.xc, np.zeros((2, 2)), atol=1e-15)


def test_gramians_reject_non_antistable():
    with pytest.raises(SpectrumViolation):
        gramians(scalar_system(1.0, -1.0, 1.0, 1.0))
    with pytest.raises(SpectrumViolation):
        gramians(
            DescriptorSystem(np.eye(2), np.diag([-1.0, 2.0]), np.ones((2, 1)), np.ones((1, 2)))
        )


def test_gramians_properties_random():
    rng = np.random.default_rng(61)
    for trial in range(10):
        n = int(rng.integers(1, 7))
        s = random_antistable_system(n, seed=rng, m=2, p=2)
        if trial % 3 == 0:
            # genuine descriptor pencil with the same transfer function
            w = random_regular(rng, n)
            s = rse_transform(w, s, np.eye(n))
        gr = gramians(s)
        scale_c = max(1.0, np.linalg.norm(s.b) ** 2)
        scale_o = max(1.0, np.linalg.norm(s.c) ** 2)
        assert gr.residual_c <= 1e-10 * scale_c
        assert gr.residual_o <= 1e-10 * scale_o
        # symmetric, negative semidefinite
        assert_allclose(gr.xc, gr.xc.T, atol=1e-11)
        assert_allclose(gr.xo, gr.xo.T, atol=1e-11)
        assert np.linalg.eigvalsh(gr.xc).max() <= 1e-10 * max(1.0, np.abs(gr.xc).max())
        assert np.linalg.eigvalsh(gr.xo).max() <= 1e-10 * max(1.0, np.abs(gr.xo).max())
        # independent residual recomputation
        res_c = np.linalg.norm(s.a @ gr.xc @ s.e.T + s.e @ gr.xc @ s.a.T + s.b @ s.b.T)
        assert res_c <= 1e-10 * scale_c


def assert_gramians_match_kron(s):
    gr = gramians(s)
    xc, xo = gramians_kron(s)
    assert np.linalg.norm(gr.xc - xc) <= 1e-10 * np.linalg.norm(xc)
    assert np.linalg.norm(gr.xo - xo) <= 1e-10 * np.linalg.norm(xo)
    assert gr.residual_c <= 1e-10 * max(1.0, np.linalg.norm(s.b) ** 2)
    assert gr.residual_o <= 1e-10 * max(1.0, np.linalg.norm(s.c) ** 2)


@pytest.mark.parametrize("seed", [5, 7])
def test_gramians_on_every_construction_path(seed):
    rng = np.random.default_rng(seed)
    standard = random_antistable_system(5, seed=rng, m=2, p=2)
    w, v = random_regular(rng, 6), random_regular(rng, 6)
    descriptor = rse_transform(w, random_antistable_system(6, seed=rng, m=2, p=2), v)
    bumped = bumped_descriptor_system(seed, n=10, n_unstable=4)
    dec = additive_decompose(bumped)
    paths = {
        "public constructor, E = I": standard,
        "public constructor, descriptor E": descriptor,
        "additive_decompose block": dec.s_minus,
        "antistable early return": additive_decompose(descriptor).s_minus,
        "negate_output": negate_output(descriptor),
        "direct_sum": direct_sum(standard, descriptor),
        "mirrored part of rl2_norm": additive_decompose(systems._mirror(dec.s_plus)).s_minus,
    }
    for s in paths.values():
        assert np.diagonal(s._schur.at, -1).any()  # 2x2 bumps in the form
        assert 0 < s.n <= 12
        assert_gramians_match_kron(s)
    for name in ("public constructor, E = I", "public constructor, descriptor E"):
        f = paths[name]._schur
        assert not np.allclose(f.u, np.eye(f.u.shape[0]))
        assert not np.allclose(f.v, np.eye(f.v.shape[0]))
    for name in ("additive_decompose block", "mirrored part of rl2_norm"):
        f = paths[name]._schur
        assert np.array_equal(f.u, np.eye(f.u.shape[0]))
        assert np.array_equal(f.v, np.eye(f.v.shape[0]))


# general LU, nonsymmetric eigensolvers, Schur/QZ, and a dense Lyapunov solver
FACTORIZATIONS = {
    scipy.linalg: (
        "solve", "lu_factor", "inv", "eig", "eigvals", "schur", "qz", "ordqz",
        "solve_continuous_lyapunov",
    ),
    np.linalg: ("solve", "inv", "eig", "eigvals"),
}


def test_gramians_run_no_factorization(monkeypatch):
    s = rse_transform(
        random_regular(np.random.default_rng(3), 8),
        random_antistable_system(8, seed=4, m=2, p=2),
        np.eye(8),
    )
    calls = []
    for module, names in FACTORIZATIONS.items():
        for name in names:

            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    gr = gramians(s)
    assert calls == []
    assert gr.residual_c <= 1e-10 * max(1.0, np.linalg.norm(s.b) ** 2)
    DescriptorSystem(s.e, s.a, s.b, s.c)
    assert calls  # the public constructor's QZ is seen


def test_gramians_failed_trsyl_raises_spectrum_violation(monkeypatch):
    def failing(a, b, c, **kwargs):
        return np.zeros_like(c), 1.0, 1

    monkeypatch.setattr(scipy.linalg.lapack, "dtrsyl", failing)
    with pytest.raises(SpectrumViolation, match="trsyl info 1"):
        gramians(ROTATE2)


# ---------------------------------------------------------------------------
# hankel_sigma_max


def test_hankel_scalar():
    hd = hankel_sigma_max(NEHARI, gramians(NEHARI))
    assert hd.sigma1 == pytest.approx(0.5, abs=1e-13)
    assert_allclose(hd.spectrum, [0.25], atol=1e-13)


def test_hankel_double_singular_value():
    hd = hankel_sigma_max(ROTATE2, gramians(ROTATE2))
    assert hd.sigma1 == pytest.approx(1.0, abs=1e-12)
    assert_allclose(hd.spectrum, [1.0, 1.0], atol=1e-12)


def test_hankel_zero_for_uncontrollable_direction():
    s = DescriptorSystem(np.eye(2), np.diag([1.0, 2.0]), np.zeros((2, 1)), np.ones((1, 2)))
    hd = hankel_sigma_max(s, gramians(s))
    assert hd.sigma1 == 0.0


def test_hankel_rejects_an_indefinite_controllability_gramian():
    # Xc Xo = I here, so a nonsymmetric eigensolve of the product reads
    # sigma_1 = 1; an indefinite -Xc means the Gramians are wrong instead.
    s = DescriptorSystem(np.eye(2), np.diag([1.0, 2.0]), np.ones((2, 1)), np.ones((1, 2)))
    gr = GramianPair(xc=np.diag([-1.0, 1.0]), xo=np.diag([-1.0, 1.0]), residual_c=0.0, residual_o=0.0)
    with pytest.raises(NegativeSpectrum, match="indefinite"):
        hankel_sigma_max(s, gr)


def test_hankel_invariant_under_system_equivalence():
    rng = np.random.default_rng(67)
    s = random_antistable_system(5, seed=rng, m=2, p=3)
    ref = hankel_sigma_max(s, gramians(s)).sigma1
    for _ in range(8):
        p = random_regular(rng, 5)
        q = random_regular(rng, 5)
        t = rse_transform(p, s, q)
        got = hankel_sigma_max(t, gramians(t)).sigma1
        assert abs(got - ref) <= 1e-9 * ref


# ---------------------------------------------------------------------------
# L2 norms


def test_h2_scalar_values():
    # 1/(s-1) has the same L2 norm as its stable mirror 1/(s+1): sqrt(1/2)
    assert h2_norm_antistable(NEHARI, gramians(NEHARI)) == pytest.approx(
        np.sqrt(0.5), abs=1e-13
    )
    # 2/(s-1): (1/2pi) * integral of 4/(1+w^2) = 2
    s = scalar_system(1.0, 1.0, 2.0, 1.0)
    assert h2_norm_antistable(s, gramians(s)) == pytest.approx(np.sqrt(2.0), abs=1e-13)
    # identity Gramians reduce the trace formula to trace(C C^T) = 2
    assert h2_norm_antistable(ROTATE2, gramians(ROTATE2)) == pytest.approx(
        np.sqrt(2.0), abs=1e-13
    )


def test_h2_zero_input_map():
    s = DescriptorSystem(np.eye(2), np.diag([1.0, 2.0]), np.zeros((2, 1)), np.ones((1, 2)))
    assert h2_norm_antistable(s, gramians(s)) == 0.0


def test_h2_rejects_feedthrough():
    s = scalar_system(1.0, 1.0, 1.0, 1.0, d=1.0)
    with pytest.raises(NonzeroFeedthrough):
        h2_norm_antistable(s, gramians(s))


def test_h2_matches_quadrature():
    rng = np.random.default_rng(71)
    for _ in range(5):
        n = int(rng.integers(1, 7))
        s = random_antistable_system(n, seed=rng, m=2, p=2)
        got = h2_norm_antistable(s, gramians(s))
        ref = quad_l2_diff(s)
        assert got == pytest.approx(ref, rel=1e-5)


def test_rl2_mixed_system_matches_quadrature():
    rng = np.random.default_rng(73)
    for _ in range(4):
        n = int(rng.integers(2, 7))
        u = int(rng.integers(1, n))
        s = strictly_proper(random_unstable_system(n, u, seed=rng, m=2, p=2))
        got = rl2_norm(s)
        ref = quad_l2_diff(s)
        assert got == pytest.approx(ref, rel=1e-5)


def test_rl2_stable_system_matches_quadrature():
    s = strictly_proper(random_unstable_system(4, 0, seed=19))
    assert rl2_norm(s) == pytest.approx(quad_l2_diff(s), rel=1e-6)


def _counted(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_rl2_infinite_for_feedthrough(monkeypatch):
    splits = _counted(monkeypatch, gramians_module, "additive_decompose")
    s = scalar_system(1.0, 1.0, 1.0, 1.0, d=0.25)
    assert rl2_norm(s) == np.inf
    assert splits == []


def test_rl2_infinite_for_polynomial_part(monkeypatch):
    # transfer grows like s: not square integrable, decided before any
    # additive split
    splits = _counted(monkeypatch, gramians_module, "additive_decompose")
    s_imp = DescriptorSystem(
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.eye(2),
        np.array([[0.0], [1.0]]),
        np.array([[1.0, 0.0]]),
    )
    assert rl2_norm(s_imp) == np.inf
    assert splits == []


def test_rl2_splits_at_infinity_once_and_the_finite_part_once(monkeypatch):
    # a stable and an antistable block plus an index-2 nilpotent pair that the
    # output does not see, mixed by orthogonal factors: infinite eigenvalues,
    # yet G is strictly proper and its L2 norm finite
    rng = np.random.default_rng(83)
    a_f = scipy.linalg.block_diag(
        random_antistable_tri(rng, 3, -3.0, -0.5), random_antistable_tri(rng, 2, 0.5, 3.0)
    )
    e0 = scipy.linalg.block_diag(np.eye(5), [[0.0, 1.0], [0.0, 0.0]])
    a0 = scipy.linalg.block_diag(a_f, np.eye(2))
    b0 = rng.standard_normal((7, 2))
    c0 = np.hstack([rng.standard_normal((2, 5)), np.zeros((2, 2))])
    u, v = random_orthogonal(rng, 7), random_orthogonal(rng, 7)
    s = DescriptorSystem(u @ e0 @ v, u @ a0 @ v, u @ b0, c0 @ v)
    assert pencil_spectrum(s).n_infinite == 2
    assert weierstrass_split(s).coefficients.shape[0] == 1

    # the route that splits the whole system additively, infinite pairs and all
    dec = additive_decompose(s)
    flip = additive_decompose(systems._mirror(dec.s_plus)).s_minus
    ref = np.sqrt(sum(h2_norm_antistable(x, gramians(x)) ** 2 for x in (dec.s_minus, flip)))

    sylvester = _counted(monkeypatch, systems, "solve_generalized_sylvester")
    got = rl2_norm(s)
    # one Weierstrass split, one additive split of the finite part; the mirror
    # of its stable half is antistable and needs no solve
    assert len(sylvester) == 2
    assert got == pytest.approx(ref, rel=1e-12)
    assert got == pytest.approx(quad_l2_diff(s), rel=1e-5)


# ---------------------------------------------------------------------------
# L-infinity sampling


def test_linf_lowpass_peaks_at_origin():
    s = scalar_system(1.0, -1.0, 1.0, 1.0)  # 1/(s+1)
    grid = linf_of(s)
    assert grid.max_value == pytest.approx(1.0, abs=1e-10)
    assert grid.argmax_omega == 0.0


def test_linf_constant_feedthrough():
    s = DescriptorSystem(np.eye(1), [[-1.0]], [[0.0]], [[1.0]], [[3.0]])
    grid = linf_of(s)
    assert grid.max_value == pytest.approx(3.0, abs=1e-12)


def test_linf_allpass_profile_flat():
    # 1/(s-1) + 1/2 = (s+1) / (2(s-1)): modulus 1/2 at every frequency
    s = scalar_system(1.0, 1.0, 1.0, 1.0, d=0.5)
    grid = linf_of(s)
    assert grid.max_value == pytest.approx(0.5, abs=1e-12)
    assert grid.values.max() - grid.values.min() <= 1e-12


def test_linf_error_of_identical_systems_is_zero():
    s = random_unstable_system(4, 2, seed=23)
    grid = linf_error(s, s)
    assert grid.max_value == 0.0


def test_linf_stable_under_grid_refinement(monkeypatch):
    s = random_unstable_system(6, 3, seed=29, m=2, p=2)
    zero = empty_system(s.m, s.p)
    monkeypatch.setattr(gramians_module, "_SEED_POINTS", 256)
    coarse = linf_error(s, zero)
    monkeypatch.setattr(gramians_module, "_SEED_POINTS", 2048)
    fine = linf_error(s, zero)
    assert fine.max_value >= coarse.max_value - 1e-12
    assert fine.max_value - coarse.max_value <= 1e-6 * (1.0 + coarse.max_value)


def test_linf_value_at_infinity_participates():
    # strictly proper part is tiny; feedthrough dominates at infinity
    s = scalar_system(1.0, -1.0, 1e-3, 1.0, d=2.0)
    grid = linf_of(s)
    assert grid.max_value == pytest.approx(2.0 + 1e-3, rel=1e-6)


def test_linf_axis_pole_raises():
    # 1/s: the seed grid's first point, omega = 0, sits exactly on the pole
    with pytest.raises(NonFiniteSample):
        linf_of(scalar_system(1.0, 0.0, 1.0, 1.0))


def test_linf_matches_dense_scan_oracle():
    rng = np.random.default_rng(79)
    for _ in range(4):
        n = int(rng.integers(2, 6))
        s = random_unstable_system(n, int(rng.integers(0, n)), seed=rng, m=2, p=2)
        grid = linf_of(s)
        omegas = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 20001)])
        dense = max(
            np.linalg.norm(eval_transfer_np(s, 1j * w), 2) for w in omegas
        )
        # the refined search must beat (or equal) a blind dense scan
        assert grid.max_value >= dense - 1e-7 * (1.0 + dense)


def _rotation_blocks():
    # SISO blocks [[-z, w0], [-w0, -z]] with B = [0, g]^T and C = [1, 0]; the
    # last is a resonance of relative damping 1e-9 at omega = 1021.7, whose
    # peak of width 1e-6 no sampled grid meets
    blocks = ((1.0, 0.5, 1.0), (10.0, 5.0, 10.0), (100.0, 50.0, 100.0),
              (1e4, 5e3, 1e4), (1021.7, 1e-6, 1e-5))
    a = scipy.linalg.block_diag(*[[[-z, w0], [-w0, -z]] for w0, z, _ in blocks])
    b = np.vstack([[[0.0], [g]] for _, _, g in blocks])
    c = np.tile([[1.0, 0.0]], len(blocks))
    return DescriptorSystem(np.eye(10), a, b, c)


def test_linf_of_certifies_a_peak_the_sampled_grid_misses():
    s = _rotation_blocks()
    # the sampler reads 3.2298 at omega = 0.503, and a 200,001-point scan of
    # [1021.6, 1021.8] reads 5.1285
    assert linf_error(s, empty_system(1, 1)).max_value < 3.3
    grid = linf_of(s)
    assert grid.max_value >= 5.1285
    assert grid.max_value <= grid.upper <= grid.max_value * (1.0 + 1e-10)
    assert grid.margin > 0.0
    # the peak, by zooming a 201-point scan in on it from the resonance's width
    w, half = grid.argmax_omega, 1e-6
    for _ in range(5):
        ws = np.linspace(w - half, w + half, 201)
        vals = [np.linalg.norm(eval_transfer_np(s, 1j * x), 2) for x in ws]
        w, half, peak = ws[int(np.argmax(vals))], half / 20.0, max(vals)
    assert peak <= grid.upper
    assert grid.max_value == pytest.approx(peak, rel=1e-10)


def _index1_system(rng, n, m, p):
    # finite blocks of both signs plus a 2 x 2 index-1 block (E = 0, A = I),
    # mixed by orthogonal factors: a constant added to the feedthrough
    a_f = random_unstable_system(n, int(rng.integers(0, n + 1)), seed=rng).a
    e0 = scipy.linalg.block_diag(np.eye(n), np.zeros((2, 2)))
    a0 = scipy.linalg.block_diag(a_f, np.eye(2))
    u, v = random_orthogonal(rng, n + 2), random_orthogonal(rng, n + 2)
    b, c = rng.standard_normal((n + 2, m)), rng.standard_normal((p, n + 2))
    return DescriptorSystem(u @ e0 @ v, u @ a0 @ v, u @ b, c @ v, rng.standard_normal((p, m)))


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["stable", "antistable", "mixed", "index-1"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    m=st.integers(1, 2),
    p=st.integers(1, 2),
)
def test_linf_of_upper_bounds_every_sample(kind, seed, n, m, p):
    rng = np.random.default_rng(seed)
    if kind == "index-1":
        s = _index1_system(rng, n, m, p)
    else:
        unstable = {"stable": 0, "antistable": n, "mixed": int(rng.integers(1, n + 1))}[kind]
        s = random_unstable_system(n, unstable, seed=rng, m=m, p=p, descriptor=n % 2 == 1)
    grid = linf_of(s)
    assert grid.max_value <= grid.upper < math.inf
    assert grid.margin > 0.0
    omegas = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 20000)])
    x = np.linalg.solve(1j * omegas[:, None, None] * s.e - s.a, s.b[None])
    dense = np.linalg.norm(s.c @ x + s.d, 2, axis=(1, 2)).max()
    sampled = linf_error(s, empty_system(m, p)).max_value
    assert max(dense, sampled) <= grid.upper * (1.0 + 1e-12)
    # the best sample is the norm to within the level test's gap
    assert grid.max_value >= max(dense, sampled) * (1.0 - 1e-10)


def _resonant_two_port(seed):
    # a lightly damped stable pair at omega = 1 and an antistable one at 8:
    # two interior peaks, none at the grid ends
    rng = np.random.default_rng(seed)
    a = scipy.linalg.block_diag([[-0.05, 1.0], [-1.0, -0.05]], [[0.05, 8.0], [-8.0, 0.05]])
    return DescriptorSystem(np.eye(4), a, rng.standard_normal((4, 2)), rng.standard_normal((2, 4)))


def _assert_same_grid(got, want):
    assert got.omegas.tobytes() == want.omegas.tobytes()
    assert got.values.tobytes() == want.values.tobytes()
    assert repr(got.max_value) == repr(want.max_value)
    assert repr(got.argmax_omega) == repr(want.argmax_omega)


def _lockstep_cases():
    lowpass = scalar_system(1.0, -1.0, 1.0, 1.0)
    highpass = scalar_system(1.0, -1.0, 1.0, -1.0, d=1.0)  # s / (s + 1)
    s = random_unstable_system(8, 3, seed=11, m=2, p=2)
    r = solve_apinf(s)
    improper = bumped_descriptor_system(9, n=12, n_unstable=4)
    return {
        # one peak, at grid index 0 (omega = 0)
        "lowpass": (lowpass, empty_system(1, 1)),
        # flat to roundoff: 300 local maxima, picked by their last bits
        "allpass-flat": (scalar_system(1.0, 1.0, 1.0, 1.0, d=0.5), empty_system(1, 1)),
        # exactly constant: every point is a peak, so the top three brackets
        # (indices 0, 1 and 2) overlap
        "feedthrough": (
            DescriptorSystem(np.eye(1), [[-1.0]], [[0.0]], [[1.0]], [[3.0]]),
            empty_system(1, 1),
        ),
        # rising profile: its one peak is the last grid point, index k - 1
        "highpass": (highpass, empty_system(1, 1)),
        "two-peaks": (_resonant_two_port(1), empty_system(2, 2)),
        "2x2-error-full": (s, r.system),
        "2x2-error-system": (r.error_system, empty_system(2, 2)),
        "improper": (improper, solve_apinf(improper).system),
    }


@pytest.mark.parametrize("name", list(_lockstep_cases()))
def test_lockstep_refinement_matches_the_sequential_search_bitwise(name):
    s1, s2 = _lockstep_cases()[name]
    _assert_same_grid(linf_error(s1, s2), linf_error_sequential(s1, s2))


def test_lockstep_peak_positions_are_covered():
    # the cases above hold a top peak at index 0, one at k - 1, and fewer
    # than three local maxima; check those profiles really are so shaped
    cases = _lockstep_cases()
    omegas = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 512)])
    for name, index in (("lowpass", 0), ("highpass", -1)):
        vals = np.linalg.norm(frequency_response(cases[name][0], omegas), 2, axis=(1, 2))
        assert int(np.argmax(vals)) == index % omegas.size
    vals = np.linalg.norm(frequency_response(cases["two-peaks"][0], omegas), 2, axis=(1, 2))
    inner = (vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])
    assert 1 <= np.count_nonzero(inner) < 3 and vals[0] < vals[1] and vals[-1] < vals[-2]


def test_linf_of_batches_its_refinement(monkeypatch):
    response = gramians_module.frequency_response
    orders = []

    def counted(system, omegas):
        orders.append(system.n)
        return response(system, omegas)

    monkeypatch.setattr(gramians_module, "frequency_response", counted)
    grid = linf_error(_resonant_two_port(1), empty_system(2, 2))
    # one seed-grid call plus one per lockstep round (35 here); refining the
    # two peaks one after the other, and sampling the order-0 side as well,
    # takes 146
    assert len(orders) <= 40
    assert min(orders) > 0
    assert grid.omegas.size > 513


def test_linf_error_on_an_improper_model_is_sigma1(tmp_path, capsys):
    # a stable block, ROTATE2 (sigma_1 = 1) and a nilpotent Jordan pair whose
    # s-linear term makes G improper, mixed by orthogonal factors
    rng = np.random.default_rng(5)
    a_s = np.triu(rng.standard_normal((4, 4)), 1) - np.diag(rng.uniform(0.5, 3.0, 4))
    e0 = scipy.linalg.block_diag(np.eye(4), ROTATE2.e, [[0.0, 1.0], [0.0, 0.0]])
    a0 = scipy.linalg.block_diag(a_s, ROTATE2.a, np.eye(2))
    b0 = np.vstack([rng.standard_normal((4, 1)), ROTATE2.b, rng.standard_normal((2, 1))])
    c0 = np.hstack([rng.standard_normal((1, 4)), ROTATE2.c, rng.standard_normal((1, 2))])
    u, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    v, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    s = DescriptorSystem(u @ e0 @ v, u @ a0 @ v, u @ b0, c0 @ v)
    assert weierstrass_split(s).coefficients.shape[0] == 2
    res = solve_apinf(s)
    assert res.sigma1 == pytest.approx(1.0, rel=1e-12)
    bracket = (res.sigma1 * (1.0 - 1e-8), res.sigma1 * (1.0 + 1e-8))

    assert bracket[0] <= linf_error(s, res.system).max_value <= bracket[1]
    src, out = tmp_path / "s.dsys", tmp_path / "approx.dsys"
    save_dsys(src, s)
    save_dsys(out, res.system)
    capsys.readouterr()
    assert main(["verify", str(src), str(out), "--norm", "hinf"]) == 0
    assert bracket[0] <= json.loads(capsys.readouterr().out)["error_linf"] <= bracket[1]


# ---------------------------------------------------------------------------
# balanced_realization


def test_balanced_scalar():
    bal = balanced_realization(NEHARI)
    assert bal.r == 1
    assert bal.h == pytest.approx(0.5, abs=1e-13)
    assert bal.sigma_c.shape == (0, 0)
    gr = gramians(bal.system)
    assert_allclose(gr.xc, [[-0.5]], atol=1e-12)
    assert_allclose(gr.xo, [[-0.5]], atol=1e-12)


def test_balanced_two_state_full_multiplicity():
    bal = balanced_realization(ROTATE2)
    assert bal.r == 2
    assert bal.h == pytest.approx(1.0, abs=1e-12)


def test_balanced_random_structure():
    rng = np.random.default_rng(83)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        s = random_antistable_system(n, seed=rng, m=2, p=2)
        bal = balanced_realization(s)
        n_lead = n - bal.r
        lead = -np.diag(bal.sigma_c)
        # leading block: descending and strictly below the top group
        assert np.all(np.diff(lead) <= 1e-12) if n_lead > 1 else True
        assert np.all(lead <= bal.h * (1.0 + 1e-10))
        full = np.concatenate([lead, np.full(bal.r, bal.h)])
        gr = gramians(bal.system)
        assert_allclose(gr.xc, -np.diag(full), atol=1e-8 * max(1.0, bal.h))
        assert_allclose(gr.xo, -np.diag(full), atol=1e-8 * max(1.0, bal.h))
        # coordinate maps are a matched inverse pair
        assert_allclose(bal.t @ bal.t_inv, np.eye(n), atol=1e-9)
        # transfer function is preserved
        for w in rng.uniform(0.0, 10.0, size=8):
            g0 = eval_transfer_np(s, 1j * w)
            g1 = eval_transfer_np(bal.system, 1j * w)
            assert np.linalg.norm(g1 - g0) <= 1e-9 * (1.0 + np.linalg.norm(g0))
        # sigma1 agrees with the Hankel computation on the original
        hd = hankel_sigma_max(s, gramians(s))
        assert bal.h == pytest.approx(hd.sigma1, rel=1e-10)


def test_balanced_rejects_nonminimal():
    s = DescriptorSystem(
        np.eye(2), np.diag([1.0, 2.0]), [[1.0], [0.0]], [[1.0, 1.0]]
    )
    with pytest.raises(NotMinimal):
        balanced_realization(s)


def test_balanced_rejects_descriptor_form():
    s = DescriptorSystem(2.0 * np.eye(1), [[1.0]], [[1.0]], [[1.0]])
    with pytest.raises(NotStandardForm):
        balanced_realization(s)


def test_balanced_rejects_stable_input():
    with pytest.raises(SpectrumViolation):
        balanced_realization(scalar_system(1.0, -1.0, 1.0, 1.0))
