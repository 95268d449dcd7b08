"""Correctness gate that does not trust the code under test.

Every check here uses plain NumPy/SciPy on the matrices the library
returned, against reference values from ``models``:

* stability: every finite eigenvalue of ``scipy.linalg.eigvals(A, E)`` has
  a negative real part;
* the L-infinity error bracket: the error norm lies in
  [sigma_1 (1 - 1e-6), gamma (1 + 1e-6)], both for direct dense solves on
  a fixed log grid of moderate frequencies and for the value the library
  reports;
* for the L2 approximant: G - G_hat equals the antistable part on the grid,
  and the reported L2 error equals that part's L2 norm.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from models import Model, l2_norm_antistable

BRACKET_RTOL = 1e-6

# Moderate frequencies only: far from omega = 0 and infinity the improper
# (polynomial) parts of the descriptor models dominate and cancel in G - G_hat.
GRID = np.geomspace(1e-2, 1e2, 41)

# |lambda| beyond this multiple of the input's pole scale counts as infinite.
# An optimal approximant can carry a non-dynamic mode, and the descriptor
# models carry nilpotent blocks: QZ returns their eigenvalues as alpha / beta
# with beta at rounding level, or near sqrt(eps) (|lambda| ~ 1e8) for an
# index-2 Jordan pair.
INFINITE_FACTOR = 1e6


def response(e, a, b, c, d, omegas=GRID) -> np.ndarray:
    """G(i w) = C (i w E - A)^{-1} B + D, one dense solve per frequency."""
    out = np.empty((len(omegas), c.shape[0], b.shape[1]), dtype=complex)
    for k, w in enumerate(omegas):
        out[k] = c @ np.linalg.solve(1j * w * e - a, b) + d
    return out


def max_sv(g: np.ndarray) -> np.ndarray:
    return np.linalg.svd(g, compute_uv=False)[:, 0]


def is_stable(e, a, scale: float) -> bool:
    if e.shape[0] == 0:
        return True
    lam = scipy.linalg.eigvals(a, e)
    finite = lam[np.isfinite(lam) & (np.abs(lam) <= INFINITE_FACTOR * scale)]
    return bool((finite.real < 0.0).all())


def in_bracket(value: float, m: Model) -> bool:
    lo = m.sigma1 * (1.0 - BRACKET_RTOL)
    hi = m.gamma * (1.0 + BRACKET_RTOL)
    return math.isfinite(value) and lo <= value <= hi


class Verdict:
    """Outcome of one case.

    ``failures`` lists every check that failed. ``gap`` is the largest
    relative distance from the reference sigma_1 of any quantity theory pins
    to it (see ``check_hinf``).

    A failure is ``unexpected`` unless the model is improper (an index-2
    infinite block), where the library is known to fail: the L-infinity
    error it reports is far above gamma (or inf) although direct sampling
    gives sigma_1, and QZ can return the index-2 pair with |beta| near
    sqrt(eps), above the library's infinite-eigenvalue threshold, so it
    reads as a huge finite pole (approx then raises, or the L2 approximant
    keeps the wrong part). Those failures are counted, not fatal.
    """

    def __init__(self, m: Model):
        self.failures: list[str] = []
        self.gap = 0.0
        self.tolerated = m.improper

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def unexpected(self) -> bool:
        return bool(self.failures) and not self.tolerated

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


def check_hinf(
    v: Verdict,
    m: Model,
    approx: tuple[np.ndarray, ...],
    sigma1_reported: float,
    reported: dict[str, float],
) -> None:
    """Gate one L-infinity approximant and the error values reported for it.

    The accuracy gap covers the reported sigma_1 and, at the optimal level
    (where the error is sigma_1 times an all-pass), every error value.
    """
    e, a, b, c, d = approx
    if not is_stable(e, a, m.pole_scale):
        v.fail("hinf_approximant_unstable")
        return
    direct = max_sv(response(m.e, m.a, m.b, m.c, m.d) - response(e, a, b, c, d))
    if not in_bracket(float(direct.max()), m):
        v.fail("hinf_direct_error_outside_bracket")
    for label, value in reported.items():
        if not in_bracket(value, m):
            v.fail(f"{label}_outside_bracket")
    pinned = [sigma1_reported]
    if m.gamma_factor is None:
        pinned += [float(direct.min()), float(direct.max()), *reported.values()]
    v.gap = max(abs(x - m.sigma1) / m.sigma1 for x in pinned)


def check_h2(v: Verdict, m: Model, approx: tuple[np.ndarray, ...], error_l2: float) -> None:
    """Gate one L2 approximant: it must drop exactly the antistable part."""
    e, a, b, c, d = approx
    if not is_stable(e, a, m.pole_scale):
        v.fail("h2_approximant_unstable")
        return
    a_u, b_u, c_u = m.anti
    dropped = response(m.e, m.a, m.b, m.c, m.d) - response(e, a, b, c, d)
    anti = response(np.eye(a_u.shape[0]), a_u, b_u, c_u, np.zeros_like(m.d))
    if np.abs(dropped - anti).max() > BRACKET_RTOL * np.abs(anti).max():
        v.fail("h2_direct_difference_not_antistable_part")
    ref = l2_norm_antistable(a_u, b_u, c_u)
    if not (math.isfinite(error_l2) and abs(error_l2 - ref) <= BRACKET_RTOL * ref):
        v.fail("h2_reported_error_l2_mismatch")


def accuracy_digits(gaps: list[float]) -> float:
    """min over passing cases of -log10(relative gap); gaps at 0 read as 16."""
    if not gaps:
        return 0.0
    return min(-math.log10(max(g, 1e-16)) for g in gaps)
