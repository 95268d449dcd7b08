"""Descriptor-system model, spectra, transfer evaluation, and decomposition."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import stablekit.systems as systems
from stablekit import (
    AtPole,
    AxisEigenvalue,
    DescriptorSystem,
    DimensionMismatch,
    SingularPencil,
    SingularTransform,
    StabilityClass,
    additive_decompose,
    direct_sum,
    empty_system,
    frequency_response,
    gramians,
    linf_error,
    negate_output,
    pencil_spectrum,
    rl2_norm,
    rse_transform,
    solve_ap2,
    solve_apinf,
    weierstrass_split,
)
from stablekit.synth import random_unstable_system
from stablekit.util import as_matrix

from oracles import (
    assert_eigen_multisets_close,
    bumped_descriptor_system,
    eval_transfer_np,
    random_antistable_system,
    random_regular,
    random_unstable_system_by_parts,
    response_at_infinity,
    transfer_eval,
)


def scalar_system(e, a, b, c, d=0.0):
    return DescriptorSystem([[e]], [[a]], [[b]], [[c]], [[d]])


NEHARI = scalar_system(1.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# construction


def test_construction_validates_shapes():
    with pytest.raises(DimensionMismatch):
        DescriptorSystem(np.eye(2), np.eye(3), np.ones((2, 1)), np.ones((1, 2)))
    with pytest.raises(DimensionMismatch):
        DescriptorSystem(np.eye(2), np.eye(2), np.ones((3, 1)), np.ones((1, 2)))
    with pytest.raises(DimensionMismatch):
        DescriptorSystem(np.eye(2), np.eye(2), np.ones((2, 1)), np.ones((1, 3)))
    with pytest.raises(DimensionMismatch):
        DescriptorSystem(
            np.eye(2), np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.ones((2, 2))
        )


def test_construction_rejects_nonfinite_entries():
    with pytest.raises(ValueError):
        DescriptorSystem([[np.nan]], [[1.0]], [[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        DescriptorSystem([[1.0]], [[np.inf]], [[1.0]], [[1.0]])


def test_construction_rejects_complex_entries():
    # no ComplexWarning either: a complex array is not cast to its real part
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="A contains complex"):
            DescriptorSystem(np.eye(1), np.array([[1.0 + 2.0j]]), [[1.0]], [[1.0]])
    with pytest.raises(ValueError, match="B contains complex"):
        DescriptorSystem([[1.0]], [[1.0]], [[1j]], [[1.0]])


def test_real_input_converts_bit_identically():
    x = np.random.default_rng(17).standard_normal((3, 4))
    for src in (x, x.tolist(), x.astype(np.float32), np.arange(12).reshape(3, 4), 2.5):
        m = as_matrix(src, "X")
        assert m.dtype == np.float64 and m.flags.c_contiguous
        assert np.array_equal(m, np.array(src, dtype=np.float64, ndmin=2))


def test_construction_rejects_singular_pencil():
    with pytest.raises(SingularPencil):
        DescriptorSystem(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), np.ones((2, 1)), np.ones((1, 2)))


def test_construction_default_feedthrough_and_empty(monkeypatch):
    s = scalar_system(1.0, 1.0, 1.0, 1.0)
    assert_allclose(s.d, [[0.0]])
    # an empty pencil is regular by construction: no factorization runs
    monkeypatch.setattr(systems, "pencil_eigendata", None)
    s0 = empty_system(2, 3, np.ones((3, 2)))
    assert s0.n == 0 and s0.m == 2 and s0.p == 3
    assert_allclose(transfer_eval(s0, 1.0j), np.ones((3, 2)), atol=1e-15)
    assert empty_system(2, 3).d.shape == (3, 2)
    with pytest.raises(DimensionMismatch):
        empty_system(2, 3, np.ones((2, 3)))
    with pytest.raises(ValueError):
        empty_system(1, 1, [[1j]])


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "n, u", [(n, u) for n in (0, 1, 3, 12, 40, 80) for u in sorted({0, min(n, 1), n // 2})]
)
def test_generator_matches_the_construction_by_parts(n, u):
    for (m, p), descriptor in itertools.product(((1, 1), (2, 3)), (False, True)):
        seed = 1000 * n + 10 * u + m
        s = random_unstable_system(n, u, seed, m=m, p=p, descriptor=descriptor)
        ref = random_unstable_system_by_parts(n, u, seed, m=m, p=p, descriptor=descriptor)
        for name in ("e", "a", "b", "c", "d"):
            assert_bitwise(getattr(s, name), getattr(ref, name))
        assert s._schur.split == ref._schur.split
        for name in ("u", "v", "et", "at", "alpha", "beta"):
            assert_bitwise(getattr(s._schur, name), getattr(ref._schur, name))


@pytest.mark.parametrize("descriptor", [False, True])
def test_generator_factors_each_model_once(monkeypatch, descriptor):
    calls = []
    eigendata = systems.pencil_eigendata

    def counting(e, a):
        calls.append(e.shape[0])
        return eigendata(e, a)

    monkeypatch.setattr(systems, "pencil_eigendata", counting)
    random_unstable_system(12, 5, seed=3, m=2, p=2, descriptor=descriptor)
    assert calls == [12]


def test_system_arrays_immutable():
    s = scalar_system(1.0, 1.0, 1.0, 1.0)
    with pytest.raises((ValueError, RuntimeError)):
        s.a[0, 0] = 5.0


# ---------------------------------------------------------------------------
# pencil_spectrum


def test_spectrum_mixed_diagonal():
    s = DescriptorSystem(np.eye(2), np.diag([1.0, -2.0]), np.ones((2, 1)), np.ones((1, 2)))
    rep = pencil_spectrum(s)
    assert_eigen_multisets_close(rep.finite_eigenvalues, [1.0, -2.0], tol=1e-10)
    assert not rep.has_infinite
    assert rep.stability_class is StabilityClass.AXIS_FREE
    assert rep.margin == pytest.approx(1.0, abs=1e-10)


def test_spectrum_with_infinite_eigenvalue():
    s = DescriptorSystem(np.diag([1.0, 0.0]), np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
    rep = pencil_spectrum(s)
    assert_eigen_multisets_close(rep.finite_eigenvalues, [1.0], tol=1e-10)
    assert rep.has_infinite and rep.n_infinite == 1


def test_spectrum_pure_infinite_is_stable():
    s = DescriptorSystem([[0.0]], [[2.0]], [[1.0]], [[1.0]])
    rep = pencil_spectrum(s)
    assert rep.finite_eigenvalues.size == 0
    assert rep.has_infinite
    assert rep.stability_class is StabilityClass.STABLE


def test_spectrum_noise_scale_e_counts_as_infinite():
    # an E block at machine-noise scale must classify as singular-E rather
    # than producing a huge finite eigenvalue
    s = DescriptorSystem([[1e-16]], [[2.0]], [[1.0]], [[1.0]])
    rep = pencil_spectrum(s)
    assert rep.has_infinite
    assert rep.stability_class is StabilityClass.STABLE


def test_spectrum_axis_eigenvalue_class():
    s = scalar_system(1.0, 0.0, 1.0, 1.0)
    rep = pencil_spectrum(s)
    assert rep.stability_class is StabilityClass.AXIS_EIGENVALUE


def test_spectrum_stable_and_antistable_classes():
    s = DescriptorSystem(np.eye(2), np.diag([-1.0, -3.0]), np.ones((2, 1)), np.ones((1, 2)))
    assert pencil_spectrum(s).stability_class is StabilityClass.STABLE
    s = DescriptorSystem(np.eye(2), np.diag([1.0, 3.0]), np.ones((2, 1)), np.ones((1, 2)))
    assert pencil_spectrum(s).stability_class is StabilityClass.ANTISTABLE
    # infinite eigenvalues disqualify the antistable class (E must be regular)
    s = DescriptorSystem(np.diag([1.0, 0.0]), np.diag([1.0, 1.0]), np.ones((2, 1)), np.ones((1, 2)))
    assert pencil_spectrum(s).stability_class is not StabilityClass.ANTISTABLE


# ---------------------------------------------------------------------------
# transfer_eval / frequency_response


def test_transfer_scalar_at_origin():
    assert_allclose(transfer_eval(NEHARI, 0.0), [[-1.0]], atol=1e-14)


def test_transfer_zero_b_returns_feedthrough():
    s = DescriptorSystem(np.eye(2), np.diag([1.0, -2.0]), np.zeros((2, 1)), np.ones((1, 2)), [[3.0]])
    for z in (0.0, 1.0j, 2.0 + 3.0j):
        assert_allclose(transfer_eval(s, z), [[3.0]], atol=1e-14)


def test_transfer_zero_e_is_constant():
    s = scalar_system(0.0, 0.5, -0.5, -0.5)
    for z in (0.0, 1.0j, 10.0j, 5.0 - 2.0j):
        assert_allclose(transfer_eval(s, z), [[-0.5]], atol=1e-14)


def test_transfer_at_pole_raises():
    with pytest.raises(AtPole):
        transfer_eval(NEHARI, 1.0)


def test_frequency_response_matches_pointwise_eval():
    rng = np.random.default_rng(5)
    s = random_unstable_system(5, 2, seed=rng)
    omegas = np.array([0.0, 0.1, 1.0, 10.0])
    resp = frequency_response(s, omegas)
    for k, w in enumerate(omegas):
        assert_allclose(resp[k], eval_transfer_np(s, 1j * w), atol=1e-12)


def test_frequency_response_blocks_match_one_stacked_solve():
    s = random_unstable_system(40, 4, seed=41, m=2, p=3)
    step = systems._RESPONSE_BLOCK_BYTES // (16 * s.n * s.n)
    omegas = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 7 * step // 2)])
    assert omegas.size > 3 * step
    pencils = 1j * omegas[:, None, None] * s.e - s.a
    rhs = np.broadcast_to(s.b.astype(complex), (omegas.size, s.n, s.m))
    stacked = s.c @ np.linalg.solve(pencils, rhs) + s.d
    assert np.array_equal(frequency_response(s, omegas), stacked)


@pytest.mark.parametrize("m, k", [(2, 1), (2, 5), (3, 1), (3, 4)])
def test_frequency_response_reads_b_as_a_matrix_under_numpy1_rules(monkeypatch, m, k):
    # NumPy 1.x solve reads b as a stack of vectors when b.ndim == a.ndim - 1;
    # a 2-D B against 3-D pencils would then fail (m != n) or be solved row
    # by row (m == n) instead of as one right-hand-side matrix
    solve = np.linalg.solve

    def solve_numpy1(a, b):
        if b.ndim == a.ndim - 1:
            return solve(a, b[..., None])[..., 0]
        return solve(a, b)

    s = random_unstable_system(3, 1, seed=19, m=m, p=2)
    omegas = np.linspace(0.5, 2.0, k)
    want = frequency_response(s, omegas)
    monkeypatch.setattr(systems.np.linalg, "solve", solve_numpy1)
    assert np.array_equal(frequency_response(s, omegas), want)
    for w, g in zip(omegas, want):
        assert_allclose(g, eval_transfer_np(s, 1j * w), atol=1e-12)


def test_frequency_response_memory_does_not_grow_with_the_grid():
    s = random_unstable_system(80, 4, seed=43)
    omegas = np.geomspace(1e-3, 1e3, 513)
    tracemalloc.start()
    try:
        frequency_response(s, omegas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one stack of all 513 pencils alone would be 52 MB
    assert peak <= 8 * 2**20


def test_frequency_response_builds_each_block_in_place():
    # one complex pencil buffer for every block: allocating one per block
    # held two at once, and building i omega E - A from complex temporaries
    # held three
    s = random_unstable_system(60, 10, seed=47, m=2, p=2, descriptor=True)
    omegas = np.geomspace(1e-3, 1e3, 2000)
    frequency_response(s, omegas[:3])
    tracemalloc.start()
    try:
        out = frequency_response(s, omegas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * systems._RESPONSE_BLOCK_BYTES + out.nbytes


# ---------------------------------------------------------------------------
# direct_sum


def test_direct_sum_identity_element():
    s = random_unstable_system(3, 1, seed=2)
    total = direct_sum(s, empty_system(s.m, s.p))
    for w in (0.0, 0.7, 3.0):
        assert_allclose(
            eval_transfer_np(total, 1j * w), eval_transfer_np(s, 1j * w), atol=1e-13
        )


def test_direct_sum_partial_fractions_value():
    s1 = scalar_system(1.0, -1.0, 1.0, 1.0)
    s2 = scalar_system(1.0, 2.0, 1.0, 1.0)
    total = direct_sum(s1, s2)
    # 1/(s+1) + 1/(s-2) at s=0: 1 - 1/2 = 1/2
    assert_allclose(transfer_eval(total, 0.0), [[0.5]], atol=1e-14)


def test_direct_sum_additivity_property():
    rng = np.random.default_rng(37)
    for _ in range(5):
        s1 = random_unstable_system(int(rng.integers(1, 5)), 0, seed=rng, m=2, p=2)
        s2 = random_unstable_system(int(rng.integers(1, 5)), 1, seed=rng, m=2, p=2)
        total = direct_sum(s1, s2)
        for w in rng.uniform(0.0, 20.0, size=10):
            lhs = transfer_eval(total, 1j * w)
            rhs = transfer_eval(s1, 1j * w) + transfer_eval(s2, 1j * w)
            assert_allclose(lhs, rhs, atol=1e-11)


def test_direct_sum_rejects_mismatched_ports():
    s1 = random_unstable_system(2, 0, seed=1, m=1, p=1)
    s2 = random_unstable_system(2, 0, seed=2, m=2, p=1)
    with pytest.raises(DimensionMismatch):
        direct_sum(s1, s2)


# ---------------------------------------------------------------------------
# rse_transform


def test_rse_identity():
    s = random_unstable_system(3, 1, seed=4)
    t = rse_transform(np.eye(3), s, np.eye(3))
    assert_allclose(t.a, s.a, atol=1e-15)
    assert_allclose(t.e, s.e, atol=1e-15)


def test_rse_scalar_scaling():
    t = rse_transform([[2.0]], NEHARI, [[2.0]])
    assert_allclose(t.e, [[4.0]])
    assert_allclose(t.a, [[4.0]])
    assert_allclose(t.b, [[2.0]])
    assert_allclose(t.c, [[2.0]])
    assert_allclose(transfer_eval(t, 2.0), transfer_eval(NEHARI, 2.0), atol=1e-14)


def test_rse_preserves_transfer_and_spectrum():
    rng = np.random.default_rng(41)
    for _ in range(5):
        n = int(rng.integers(1, 6))
        s = random_unstable_system(n, min(1, n), seed=rng)
        p = random_regular(rng, n)
        q = random_regular(rng, n)
        t = rse_transform(p, s, q)
        for w in rng.uniform(0.0, 10.0, size=10):
            g0 = eval_transfer_np(s, 1j * w)
            g1 = eval_transfer_np(t, 1j * w)
            assert np.linalg.norm(g1 - g0) <= 1e-9 * (1.0 + np.linalg.norm(g0))
        assert_eigen_multisets_close(
            pencil_spectrum(t).finite_eigenvalues,
            pencil_spectrum(s).finite_eigenvalues,
            tol=1e-8,
        )


def test_rse_rejects_singular_transform():
    s = random_unstable_system(2, 1, seed=9)
    with pytest.raises(SingularTransform):
        rse_transform(np.diag([1.0, 0.0]), s, np.eye(2))


# ---------------------------------------------------------------------------
# weierstrass_split


def test_weierstrass_standard_form_has_no_nilpotent_part():
    s = random_unstable_system(4, 2, seed=6)
    ws = weierstrass_split(s)
    assert ws.finite is s
    assert ws.coefficients.shape == (1, 1, 1)
    assert_allclose(ws.coefficients[0], s.d, atol=0.0)


def test_weierstrass_pure_polynomial_transfer():
    s = DescriptorSystem(np.diag([1.0, 0.0]), np.eye(2), [[0.0], [1.0]], [[0.0, 1.0]])
    ws = weierstrass_split(s)
    for z in (0.0, 1.0j, 3.0 - 1.0j):
        assert_allclose(transfer_eval(s, z), [[-1.0]], atol=1e-12)
        # the finite part carries the constant T_0 = D - C_inf S_inf^{-1} B_inf
        assert_allclose(transfer_eval(ws.finite, z), [[-1.0]], atol=1e-12)
    assert_allclose(ws.coefficients, [[[-1.0]]], atol=1e-12)
    assert ws.finite.n == 1


def test_weierstrass_reconstruction_property():
    rng = np.random.default_rng(43)
    for trial in range(6):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        s = random_unstable_system(n, 1, seed=rng, descriptor=False)
        # make a descriptor variant with n - k infinite eigenvalues
        u = random_regular(rng, n)
        v = random_regular(rng, n)
        e = u @ np.diag([1.0] * k + [0.0] * (n - k)) @ v
        a = u @ np.block(
            [
                [s.a[:k, :k], np.zeros((k, n - k))],
                [np.zeros((n - k, k)), np.eye(n - k)],
            ]
        ) @ v
        sd = DescriptorSystem(e, a, rng.standard_normal((n, 1)), rng.standard_normal((1, n)))
        ws = weierstrass_split(sd)
        # index 1: the infinite part contributes a constant only
        assert ws.coefficients.shape[0] == 1
        # finite spectrum carried by the finite part, whose E is regular
        fin = pencil_spectrum(ws.finite)
        assert fin.n_infinite == 0 and ws.finite.n == k
        assert_eigen_multisets_close(
            fin.finite_eigenvalues, pencil_spectrum(sd).finite_eigenvalues, tol=1e-7
        )
        # transfer reconstruction at random points
        for _ in range(10):
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if np.min(np.abs(fin.finite_eigenvalues - z)) < 0.2:
                continue
            val = eval_transfer_np(ws.finite, z)
            for i in range(1, ws.coefficients.shape[0]):
                val = val + z**i * ws.coefficients[i]
            ref = eval_transfer_np(sd, z)
            assert np.linalg.norm(val - ref) <= 1e-9 * (1.0 + np.linalg.norm(ref))


# ---------------------------------------------------------------------------
# response_at_infinity


def test_response_at_infinity_proper_and_improper():
    s = random_unstable_system(3, 1, seed=12)
    assert_allclose(response_at_infinity(s), s.d, atol=1e-12)
    # differentiator-like system: improper, no finite value at infinity
    s_imp = DescriptorSystem(
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.eye(2),
        np.array([[0.0], [1.0]]),
        np.array([[1.0, 0.0]]),
    )
    assert response_at_infinity(s_imp) is None


# ---------------------------------------------------------------------------
# additive_decompose


def test_decompose_block_diagonal_exact():
    s = DescriptorSystem(np.eye(2), np.diag([-1.0, 2.0]), [[1.0], [1.0]], [[1.0, 1.0]])
    dec = additive_decompose(s)
    assert dec.s_plus.n == 1 and dec.s_minus.n == 1
    assert pencil_spectrum(dec.s_plus).stability_class is StabilityClass.STABLE
    assert pencil_spectrum(dec.s_minus).stability_class is StabilityClass.ANTISTABLE
    assert_eigen_multisets_close(pencil_spectrum(dec.s_plus).finite_eigenvalues, [-1.0])
    assert_eigen_multisets_close(pencil_spectrum(dec.s_minus).finite_eigenvalues, [2.0])


def test_decompose_coupled_triangular():
    s = DescriptorSystem(np.eye(2), np.array([[-1.0, 3.0], [0.0, 2.0]]), [[1.0], [1.0]], [[1.0, 1.0]])
    dec = additive_decompose(s)
    omegas = np.geomspace(1e-3, 1e3, 25)
    for w in np.concatenate([[0.0], omegas]):
        g = eval_transfer_np(s, 1j * w)
        gp = eval_transfer_np(dec.s_plus, 1j * w)
        gm = eval_transfer_np(dec.s_minus, 1j * w)
        assert np.linalg.norm(g - gp - gm) <= 1e-9 * (1.0 + np.linalg.norm(g))


def test_decompose_antistable_input_degenerates():
    s = random_antistable_system(3, seed=8)
    dec = additive_decompose(s)
    assert dec.s_plus.n == 0
    assert dec.s_minus.n == 3
    assert_allclose(dec.s_plus.d, s.d, atol=1e-15)


def test_decompose_stable_input_degenerates():
    s = random_unstable_system(3, 0, seed=8)
    dec = additive_decompose(s)
    assert dec.s_minus.n == 0
    assert dec.s_plus.n == 3


def test_decompose_rejects_axis_eigenvalue():
    s = scalar_system(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(AxisEigenvalue) as exc_info:
        additive_decompose(s)
    assert abs(exc_info.value.eigenvalue) <= 1e-10


def test_decompose_properties_on_random_systems():
    rng = np.random.default_rng(47)
    for trial in range(8):
        n = int(rng.integers(2, 8))
        u = int(rng.integers(1, n))
        s = random_unstable_system(n, u, seed=rng, descriptor=bool(trial % 2))
        dec = additive_decompose(s)
        # feedthrough assignment and order conservation
        assert dec.s_plus.n + dec.s_minus.n == n
        assert_allclose(dec.s_minus.d, 0.0, atol=1e-15)
        assert_allclose(dec.s_plus.d, s.d, atol=1e-15)
        # spectra per the split, with margins
        rp = pencil_spectrum(dec.s_plus)
        rm = pencil_spectrum(dec.s_minus)
        assert rp.stability_class is StabilityClass.STABLE
        assert rm.stability_class is StabilityClass.ANTISTABLE
        assert rm.n_infinite == 0
        assert rp.margin > 1e-10 and rm.margin > 1e-10
        # eigenvalue multiset preserved across the split
        merged = np.concatenate(
            [rp.finite_eigenvalues, rm.finite_eigenvalues]
        )
        assert_eigen_multisets_close(
            merged, pencil_spectrum(s).finite_eigenvalues, tol=1e-7
        )
        # eigendata kept by construction agrees with a fresh factorization
        for t in (
            dec.s_plus,
            dec.s_minus,
            direct_sum(dec.s_plus, dec.s_minus),
            negate_output(s),
        ):
            kept = pencil_spectrum(t)
            fresh = pencil_spectrum(DescriptorSystem(t.e, t.a, t.b, t.c, t.d))
            assert kept.stability_class is fresh.stability_class
            assert kept.n_infinite == fresh.n_infinite
            assert_eigen_multisets_close(
                kept.finite_eigenvalues, fresh.finite_eigenvalues, tol=1e-10
            )
        # transfer additivity on a 64-point grid
        omegas = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 63)])
        for w in omegas:
            g = eval_transfer_np(s, 1j * w)
            gsum = eval_transfer_np(dec.s_plus, 1j * w) + eval_transfer_np(
                dec.s_minus, 1j * w
            )
            assert np.linalg.norm(g - gsum) <= 1e-8 * (1.0 + np.linalg.norm(g))


def count_qz(monkeypatch):
    """Record the order of every QZ that SciPy runs, ordered or not."""
    sizes = []
    for name in ("qz", "ordqz"):

        def counted(a, b, *args, _fn=getattr(scipy.linalg, name), **kwargs):
            sizes.append(np.shape(a)[0])
            return _fn(a, b, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, name, counted)
    return sizes


def test_solve_factors_no_full_size_pencil_after_construction(monkeypatch):
    s = random_unstable_system(40, 2, seed=29, m=2, p=2)
    sizes = count_qz(monkeypatch)
    pencil_spectrum(s)
    assert sizes == []
    solve_apinf(s)
    assert sizes.count(s.n) == 0
    assert sizes  # the approximant's public construction still runs its QZ


def test_error_norms_factor_nothing_after_solve(monkeypatch):
    s = bumped_descriptor_system(11)
    assert pencil_spectrum(s).n_infinite == 2
    r = solve_apinf(s)
    h2 = solve_ap2(s)
    sizes = count_qz(monkeypatch)
    grid = linf_error(s, r.system)
    # the CLI's error system, once for each approximant
    rl2_norm(direct_sum(s, negate_output(r.system)))
    err_h2 = rl2_norm(direct_sum(s, negate_output(h2.system)))
    assert sizes == []
    assert grid.max_value >= r.sigma1 * (1.0 - 1e-8)
    assert err_h2 == pytest.approx(h2.diagnostics["error_l2"], rel=1e-8)


def assert_schur_form(s):
    """The stored form of ``s`` is a real generalized Schur form of (E, A),
    laid out [finite | infinite]."""
    f = s._schur
    n = s.n
    k = f.split
    assert 0 <= k <= n
    assert f.u.shape == f.v.shape == f.et.shape == f.at.shape == (n, n)
    assert f.alpha.shape == f.beta.shape == (n,)
    if n == 0:
        return
    assert np.linalg.norm(f.u @ s.e @ f.v - f.et) <= 1e-12 * np.linalg.norm(s.e)
    assert np.linalg.norm(f.u @ s.a @ f.v - f.at) <= 1e-12 * np.linalg.norm(s.a)
    for x in (f.u, f.v):
        assert np.linalg.norm(x.T @ x - np.eye(n)) <= 1e-12
    # T upper triangular; S quasi-triangular with isolated 2x2 bumps
    assert not np.tril(f.et, -1).any()
    assert not np.tril(f.at, -2).any()
    sub = np.diagonal(f.at, -1) != 0.0
    assert not (sub[1:] & sub[:-1]).any()
    # the infinite pairs trail every finite one: beta exactly 0, T strictly
    # and S upper triangular there, and nothing else has beta 0
    assert f.beta[:k].all() and not f.beta[k:].any()
    assert not np.tril(f.et[k:, k:]).any()
    assert not sub[k - 1 if k else 0 :].any()
    assert pencil_spectrum(s).n_infinite == n - k
    j = 0
    while j < n:
        if j + 1 < n and sub[j]:
            lam = scipy.linalg.eigvals(f.at[j : j + 2, j : j + 2], f.et[j : j + 2, j : j + 2])
            assert_eigen_multisets_close(f.alpha[j : j + 2] / f.beta[j : j + 2], lam, tol=1e-10)
            j += 2
        else:
            assert f.alpha[j] == f.at[j, j] and f.beta[j] == f.et[j, j]
            j += 1


@pytest.mark.parametrize("seed", [3, 7])
def test_stored_schur_form_on_every_construction_path(seed):
    s = bumped_descriptor_system(seed)
    assert np.diagonal(s._schur.at, -1).any()
    assert pencil_spectrum(s).n_infinite == 2
    dec = additive_decompose(s)
    anti = random_antistable_system(5, seed=seed, m=2, p=2)
    r = solve_apinf(s)
    paths = {
        "public constructor": s,
        "stable block": dec.s_plus,
        "antistable block": dec.s_minus,
        "direct sum": direct_sum(dec.s_plus, dec.s_minus),
        "error system": direct_sum(s, negate_output(s)),
        "Weierstrass finite part": weierstrass_split(s).finite,
        "approximant": r.system,
        "approximant error system": r.error_system,
        "negate_output": negate_output(s),
        "antistable early return": additive_decompose(anti).s_minus,
        "mirror": systems._mirror(s),
        "empty_system": empty_system(2, 2),
        "n = 0": DescriptorSystem(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0))),
    }
    for t in paths.values():
        assert_schur_form(t)
    assert dec.s_plus.n == 8 and dec.s_minus.n == 6


ANTISTABLE = lambda lam, infinite: ~infinite & (lam.real > 0.0)  # noqa: E731
FINITE = lambda lam, infinite: ~infinite  # noqa: E731


@pytest.mark.parametrize("seed", [3, 7])
def test_block_split_reorders_the_stored_form(seed):
    s = bumped_descriptor_system(seed)
    dec = additive_decompose(s)
    ws = weierstrass_split(s)
    for lead, size in ((ANTISTABLE, dec.s_minus.n), (FINITE, ws.finite.n)):
        mask = lead(*systems._classify(s._schur))
        oq, p_mat, q_mat = systems._block_split(s, mask)
        assert_schur_form(systems._known_spectrum(s.e, s.a, s.b, s.c, s.d, oq))
        # the picked pairs lead the reordered diagonal, and the public
        # splits take their blocks from it
        picked = lead(*systems._classify(oq))
        k = int(np.count_nonzero(mask))
        assert picked[:k].all() and not picked[k:].any()
        assert k == size
        for m in (p_mat @ s.e @ q_mat, p_mat @ s.a @ q_mat):
            assert np.linalg.norm(m[:k, k:]) <= 1e-10 * np.linalg.norm(m)


def test_index2_pair_is_infinite_before_any_swap():
    # QZ of the whole pencil returns this model's index-2 pair with |beta|
    # near sqrt(eps); the rank decisions at construction read it as infinite
    # instead, so it joins the stable part and the antistable part is exact.
    s = bumped_descriptor_system(9, n=10, n_unstable=4)
    assert pencil_spectrum(s).n_infinite == 2
    dec = additive_decompose(s)
    assert (dec.s_plus.n, dec.s_minus.n) == (8, 4)
    assert pencil_spectrum(dec.s_plus).n_infinite == 2


def test_one_classifier_decides_every_split(monkeypatch):
    # eigenvalues -1, -2, 3 and 5, mixed by orthogonal factors
    rng = np.random.default_rng(61)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    a0 = np.triu(rng.standard_normal((4, 4)), 1) + np.diag([-1.0, -2.0, 3.0, 5.0])
    s = DescriptorSystem(u @ v, u @ a0 @ v, rng.standard_normal((4, 2)), rng.standard_normal((2, 4)))

    def counts():
        rep = pencil_spectrum(s)
        return rep.n_infinite, additive_decompose(s).s_plus.n, weierstrass_split(s).finite.n

    assert counts() == (0, 2, 4)
    classify = systems._classify

    def mirror_five(form):
        lam, infinite = classify(form)
        return np.where(np.abs(lam - 5.0) <= 1e-8, -5.0, lam), infinite

    # reading the pole at 5 as -5 moves it into the stable part and out of
    # the antistable one, all at once
    monkeypatch.setattr(systems, "_classify", mirror_five)
    assert counts() == (0, 3, 4)
    assert_eigen_multisets_close(pencil_spectrum(s).finite_eigenvalues, [-5.0, -2.0, -1.0, 3.0])
    dec = additive_decompose(s)
    for w in (0.0, 0.7, 4.0):
        g = eval_transfer_np(s, 1j * w)
        gsum = eval_transfer_np(dec.s_plus, 1j * w) + eval_transfer_np(dec.s_minus, 1j * w)
        assert np.linalg.norm(g - gsum) <= 1e-8 * (1.0 + np.linalg.norm(g))


def test_decompose_routes_infinite_eigenvalues_to_stable_part():
    # explicit descriptor: one antistable finite eigenvalue, one infinite
    s = DescriptorSystem(
        np.diag([1.0, 0.0]), np.diag([2.0, 1.0]), [[1.0], [1.0]], [[1.0, 1.0]]
    )
    dec = additive_decompose(s)
    assert pencil_spectrum(dec.s_plus).has_infinite
    assert not pencil_spectrum(dec.s_minus).has_infinite
    assert_eigen_multisets_close(
        pencil_spectrum(dec.s_minus).finite_eigenvalues, [2.0], tol=1e-9
    )


# ---------------------------------------------------------------------------
# Gramian covariance under restricted system equivalence


def test_gramian_covariance_under_rse():
    rng = np.random.default_rng(53)
    s = random_antistable_system(4, seed=rng)
    gr = gramians(s)
    for _ in range(10):
        p = random_regular(rng, 4)
        q = random_regular(rng, 4)
        t = rse_transform(p, s, q)
        grt = gramians(t)
        lhs_c = gr.xc
        rhs_c = q @ grt.xc @ q.T
        assert np.linalg.norm(lhs_c - rhs_c) <= 1e-9 * (1.0 + np.linalg.norm(lhs_c))
        lhs_o = gr.xo
        rhs_o = p.T @ grt.xo @ p
        assert np.linalg.norm(lhs_o - rhs_o) <= 1e-9 * (1.0 + np.linalg.norm(lhs_o))
