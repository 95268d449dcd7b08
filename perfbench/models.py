"""Seeded input models for the benchmark workloads, with reference values.

Every model is built from plain NumPy/SciPy primitives from a seed and an
index, so the same seed gives the same inputs on every commit. The library
under test receives only the matrices (or a DSYS file written from them);
nothing here calls into ``stablekit``, so a later change to the library
cannot alter a workload.

Each model carries the reference values the correctness gate needs, taken
from the blocks before they are mixed: sigma_1, the largest Hankel singular
value of the antistable part, and for the descriptor models the antistable
part itself (for the L2 check).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

# SISO antistable block from the library's tests: Gramians -I, Hankel
# singular values {1, 1}, so sigma_1 = 1 has multiplicity 2 and the optimal
# gamma system is singular (the ``singular-svd`` branch for descriptor E).
ROTATE2_A = np.array([[1.0, 0.5], [-0.5, 0.0]])
ROTATE2_B = np.array([[np.sqrt(2.0)], [0.0]])
ROTATE2_C = np.array([[np.sqrt(2.0), 0.0]])

# sigma_1 of the random antistable block of a descriptor-cli model. It stays
# below ROTATE2's sigma_1 = 1, so on models that carry ROTATE2 the top Hankel
# value keeps multiplicity exactly 2.
DESCRIPTOR_ANTI_SIGMA = 0.25


@dataclass(frozen=True)
class Model:
    """One input model (E, A, B, C, D) plus what the gate checks it against.

    ``anti`` is the antistable part as a standard-form triple (A, B, C):
    the transfer the L2 approximant must drop, exactly. ``pole_scale`` is
    the largest finite pole magnitude by construction, at least 1.
    ``improper`` marks a model with an index-2 infinite block.
    """

    e: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    sigma1: float
    gamma_factor: float | None
    anti: tuple[np.ndarray, np.ndarray, np.ndarray]
    pole_scale: float
    improper: bool = False

    @property
    def n(self) -> int:
        return self.e.shape[0]

    @property
    def gamma(self) -> float:
        return self.sigma1 if self.gamma_factor is None else self.gamma_factor * self.sigma1


def case_rng(seed: int, workload_id: int, index: int) -> np.random.Generator:
    """Independent stream per (seed, workload, case index)."""
    return np.random.default_rng([seed, workload_id, index])


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def spectrum_block(rng: np.random.Generator, k: int, lo: float, hi: float) -> np.ndarray:
    """Block-diagonal real matrix with eigenvalue real parts in [lo, hi].

    Mixes 1x1 real eigenvalues and 2x2 complex-pair blocks with imaginary
    parts in [0.1, 5], as the library's synthetic generator does.
    """
    blocks = []
    left = k
    while left > 0:
        if left >= 2 and rng.random() < 0.5:
            re = rng.uniform(lo, hi)
            im = rng.uniform(0.1, 5.0)
            blocks.append(np.array([[re, im], [-im, re]]))
            left -= 2
        else:
            blocks.append(np.array([[rng.uniform(lo, hi)]]))
            left -= 1
    return scipy.linalg.block_diag(*blocks) if blocks else np.zeros((0, 0))


def spectral_radius(*blocks: np.ndarray) -> float:
    return max([1.0] + [float(np.abs(np.linalg.eigvals(b)).max()) for b in blocks if b.size])


def hankel_values(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Hankel singular values of a standard antistable triple, descending.

    Computed through the stable mirror (-A, B, -C), whose Gramians solve the
    ordinary Lyapunov equations.
    """
    xc = scipy.linalg.solve_continuous_lyapunov(-a, -b @ b.T)
    xo = scipy.linalg.solve_continuous_lyapunov(-a.T, -c.T @ c)
    mu = np.linalg.eigvals(xc @ xo).real
    return np.sqrt(np.sort(np.clip(mu, 0.0, None))[::-1])


def l2_norm_antistable(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """L2 norm of C (sI - A)^{-1} B with A antistable, via the stable mirror."""
    if a.shape[0] == 0:
        return 0.0
    xc = scipy.linalg.solve_continuous_lyapunov(-a, -b @ b.T)
    return float(np.sqrt(max(np.trace(c @ xc @ c.T), 0.0)))


def hinf_model(
    rng: np.random.Generator,
    n: int,
    n_unstable: int,
    ports: int,
    descriptor: bool,
    gamma_factor: float | None,
) -> Model:
    """Spectral construction: stable (+) antistable block, orthogonally mixed.

    With ``descriptor`` the pair is left-multiplied by a random
    well-conditioned W (singular values in [0.6, 1.6]), giving a genuine
    descriptor E with the same spectrum and transfer.
    """
    a_s = spectrum_block(rng, n - n_unstable, -5.0, -0.1)
    a_u = spectrum_block(rng, n_unstable, 0.1, 5.0)
    b_s = rng.standard_normal((n - n_unstable, ports))
    c_s = rng.standard_normal((ports, n - n_unstable))
    b_u = rng.standard_normal((n_unstable, ports))
    c_u = rng.standard_normal((ports, n_unstable))
    t = random_orthogonal(rng, n)
    a = t @ scipy.linalg.block_diag(a_s, a_u) @ t.T
    b = t @ np.vstack([b_s, b_u])
    c = np.hstack([c_s, c_u]) @ t.T
    e = np.eye(n)
    if descriptor:
        w = (random_orthogonal(rng, n) * rng.uniform(0.6, 1.6, size=n)) @ random_orthogonal(rng, n).T
        e, a, b = w, w @ a, w @ b
    return Model(
        e=e,
        a=a,
        b=b,
        c=c,
        d=np.zeros((ports, ports)),
        sigma1=float(hankel_values(a_u, b_u, c_u)[0]),
        gamma_factor=gamma_factor,
        anti=(a_u, b_u, c_u),
        pole_scale=spectral_radius(a_s, a_u),
    )


def descriptor_model(
    rng: np.random.Generator,
    with_rotate2: bool,
    nil_index: int,
    n_stable: int = 46,
    n_anti: int = 10,
) -> Model:
    """Two-port descriptor model: direct sum of four parts, then mixed.

    * a random stable block on both ports;
    * a random antistable block on port 2 only, scaled so its sigma_1 is
      ``DESCRIPTOR_ANTI_SIGMA``;
    * with ``with_rotate2``, ROTATE2 on port 1 (sigma_1 = 1, multiplicity 2);
    * a nilpotent block (E = N, A = I) of index 1 (N = 0) or 2 (one Jordan
      pair), on both ports. Index 2 makes the transfer improper.

    The sum is mixed by random orthogonal P and Q: (P E Q, P A Q, P B, C Q).
    """
    if nil_index not in (1, 2):
        raise ValueError(f"nil_index must be 1 or 2, got {nil_index}")
    ports = 2
    a_s = spectrum_block(rng, n_stable, -5.0, -0.1)
    b_s = rng.standard_normal((n_stable, ports))
    c_s = rng.standard_normal((ports, n_stable))

    a_u = spectrum_block(rng, n_anti, 0.1, 5.0)
    b_u1 = rng.standard_normal((n_anti, 1))
    c_u1 = rng.standard_normal((1, n_anti))
    scale = np.sqrt(DESCRIPTOR_ANTI_SIGMA / hankel_values(a_u, b_u1, c_u1)[0])
    b_u = np.hstack([np.zeros((n_anti, 1)), scale * b_u1])
    c_u = np.vstack([np.zeros((1, n_anti)), scale * c_u1])

    anti_a, anti_b, anti_c = [a_u], [b_u], [c_u]
    if with_rotate2:
        anti_a.append(ROTATE2_A)
        anti_b.append(np.hstack([ROTATE2_B, np.zeros((2, 1))]))
        anti_c.append(np.vstack([ROTATE2_C, np.zeros((1, 2))]))
    a_anti = scipy.linalg.block_diag(*anti_a)
    b_anti = np.vstack(anti_b)
    c_anti = np.hstack(anti_c)

    nil = np.zeros((2, 2))
    if nil_index == 2:
        nil[0, 1] = 1.0
    b_n = rng.standard_normal((2, ports))
    c_n = rng.standard_normal((ports, 2))

    n_slow = n_stable + a_anti.shape[0]
    e = scipy.linalg.block_diag(np.eye(n_slow), nil)
    a = scipy.linalg.block_diag(a_s, a_anti, np.eye(2))
    b = np.vstack([b_s, b_anti, b_n])
    c = np.hstack([c_s, c_anti, c_n])
    n = e.shape[0]
    p_mix = random_orthogonal(rng, n)
    q_mix = random_orthogonal(rng, n)
    sigma1 = 1.0 if with_rotate2 else DESCRIPTOR_ANTI_SIGMA
    return Model(
        e=p_mix @ e @ q_mix,
        a=p_mix @ a @ q_mix,
        b=p_mix @ b,
        c=c @ q_mix,
        d=np.zeros((ports, ports)),
        sigma1=sigma1,
        gamma_factor=None,
        anti=(a_anti, b_anti, c_anti),
        pole_scale=spectral_radius(a_s, a_anti),
        improper=nil_index == 2,
    )


def format_dsys(m: Model) -> str:
    """DSYS text with ``repr`` numbers (shortest round-tripping decimals)."""
    out = [f"DSYS {m.n} {m.b.shape[1]} {m.c.shape[0]}"]
    for label, mat in zip("EABCD", (m.e, m.a, m.b, m.c, m.d)):
        out.append(label)
        if mat.shape[1] > 0:
            out.extend(" ".join(repr(float(x)) for x in row) for row in mat)
    return "\n".join(out) + "\n"


def parse_dsys(text: str) -> tuple[np.ndarray, ...]:
    """Read (E, A, B, C, D) from DSYS text, independently of the library."""
    rows = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    rows = [r for r in rows if r]
    _, n, m, p = rows[0]
    n, m, p = int(n), int(m), int(p)
    shapes = {"E": (n, n), "A": (n, n), "B": (n, m), "C": (p, n), "D": (p, m)}
    pos = 1
    mats = []
    for label in "EABCD":
        if rows[pos] != [label]:
            raise ValueError(f"expected block {label}, found {rows[pos]}")
        pos += 1
        r, k = shapes[label]
        if k == 0:
            mats.append(np.zeros((r, k)))
            continue
        mats.append(np.array(rows[pos : pos + r], dtype=float).reshape(r, k))
        pos += r
    return tuple(mats)
