"""Seeded Gaussian test matrices, the B = I randomized SVD and EVD (the EVD
is a GHEP solver on the pencil (A, I)), and the B-weighted range finder."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import borth
from .operators import ConfigError, LinearMap, SpdOperator

#: Identifier of the pseudo-random stream: one Philox4x64 counter stream per
#: column (key = seed, counter = column << 66), uniforms mapped to normals by
#: the Box-Muller transform.  Fixed so that equal seeds give bitwise-equal
#: matrices, independent of thread count, and so that a matrix can be
#: extended by columns without touching the existing ones.  The uniforms are
#: the same everywhere, but the transform's float64 log, cos and sin are
#: NumPy SIMD kernels chosen by CPU: the bits are promised for one NumPy
#: version and one dispatch target, and differ by a few ulp in a few entries
#: between, for example, AVX-512 and AVX2 machines.
GENERATOR_ID = "philox4x64-boxmuller/v1"

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, stream: int) -> int:
    """Deterministic 64-bit child seed (SplitMix64 finalizer on seed + stream)."""
    x = (int(seed) + (int(stream) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def gaussian_matrix(n: int, r: int, seed: int, first_col: int = 0) -> np.ndarray:
    """An n-by-r block of i.i.d. N(0, 1) entries from the named generator.

    ``first_col`` shifts the column streams: ``gaussian_matrix(n, r, s)`` and
    ``gaussian_matrix(n, q, s, first_col=r)`` side by side equal
    ``gaussian_matrix(n, r + q, s)`` bitwise.
    """
    if n < 1 or r < 1:
        raise ConfigError("gaussian_matrix needs n, r >= 1")
    out = np.empty((n, r))
    half = (n + 1) // 2
    for j in range(r):
        bits = np.random.Philox(key=int(seed) & _MASK64, counter=(first_col + j) << 66)
        gen = np.random.Generator(bits)
        u1 = 1.0 - gen.random(half)  # in (0, 1], keeps log finite
        u2 = gen.random(half)
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])
        out[:, j] = z[:n]
    return out


@dataclass(frozen=True)
class SketchConfig:
    """Sketch size: target rank k, oversampling p (r = k + p columns), seed."""

    k: int
    p: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError("target rank k must be >= 1")
        if self.p < 0:
            raise ConfigError("oversampling p must be >= 0")

    @property
    def r(self) -> int:
        return self.k + self.p


@dataclass
class RangeResult:
    """Output of the B-weighted range finder.

    ``basis`` holds the B-orthonormal Q with cached BQ, ``Ybar = A Omega`` is
    retained for the single-pass solver, and ``Omega`` is the Gaussian test
    matrix.  The sketched range Y = B^{-1} Ybar is not kept: the weighted QR
    factors its own copy, and B.apply_inverse(Ybar) forms it again.
    """

    basis: borth.BOrthoBasis
    Ybar: np.ndarray
    Omega: np.ndarray


#: The weighted QRs that ``randghep qr-bench`` compares, by CSV name, in row
#: order.  The solvers call ``borth.pre_chol_qr_w`` directly.
_QR_ALGORITHMS = {
    "MGS": borth.mgs_w,
    "MGS-R": borth.mgs_w_reorth,
    "PreCholQR": borth.pre_chol_qr_w,
}


def _identity(n: int) -> SpdOperator:
    """B = I as an SpdOperator, for the B = I SVD and EVD."""
    return SpdOperator(n, lambda X: X, lambda X: X)


def randomized_svd(A: LinearMap, cfg: SketchConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-k randomized SVD of A (standard inner product).

    Sketch Y = A*Omega, orthonormalize it by ``borth.pre_chol_qr_w`` under
    W = I, project B = Q^T A, SVD the small matrix, lift the left factor.
    Returns (U, sigma, V) with A ~ U diag(s) V^T: at most k singular
    values, one per kept column of Q.
    """
    m, n = A.dim_out, A.dim_in
    if cfg.r > min(m, n):
        raise ConfigError(f"sketch size k+p={cfg.r} exceeds min(m, n)={min(m, n)}")
    Omega = gaussian_matrix(n, cfg.r, cfg.seed)
    Q = borth.pre_chol_qr_w(A.apply(Omega), _identity(m)).compact().Q
    B_small = A.apply_transpose(Q).T
    Ut, sig, Vt = np.linalg.svd(B_small, full_matrices=False)
    kk = min(cfg.k, sig.size)
    return Q @ Ut[:, :kk], sig[:kk], Vt[:kk].T


def randomized_evd(
    A: LinearMap, cfg: SketchConfig, mode: str = "two_pass"
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-k randomized eigendecomposition of a symmetric A (B = I).

    Runs ``ghep.ghep_two_pass`` or ``ghep.ghep_single_pass`` on the pencil
    (A, I) and returns their (U, eigenvalues): the GHEP solvers reduce to the
    B = I methods of Halko, Martinsson and Tropp when B = I.  Eigenvalues come
    back sorted descending by value (an indefinite A's negative ones last),
    one per kept basis column, so at most k.  A-applies: 6 for the solvers'
    symmetry probe (an asymmetric A raises ConfigError), then 2(k+p) in
    ``two_pass`` or k+p in ``single_pass``.
    """
    from . import ghep

    n = A.dim_in
    if A.dim_out != n:
        raise ConfigError("randomized_evd needs a square operator")
    if mode not in ("two_pass", "single_pass"):
        raise ConfigError(f"unknown mode {mode!r}")
    solve = ghep.ghep_two_pass if mode == "two_pass" else ghep.ghep_single_pass
    sol = solve(A, _identity(n), cfg)
    return sol.U, sol.eigenvalues


def range_finder_b(A: LinearMap, B: SpdOperator, cfg: SketchConfig) -> RangeResult:
    """B-orthonormal basis for the dominant range of C = B^{-1}A.

    Draws Omega, forms Ybar = A*Omega and Y = B^{-1}*Ybar (exactly k+p
    A-applies and k+p B-solves), then factorizes Y with the block weighted QR
    ``borth.pre_chol_qr_w``.  Y is dropped once the QR has copied it; the
    result keeps Ybar and Omega.
    """
    n = B.dim
    if A.dim_in != n or A.dim_out != n:
        raise ConfigError("A and B dimensions do not agree")
    if cfg.r > n:
        raise ConfigError(f"sketch size k+p={cfg.r} exceeds n={n}")
    Omega = gaussian_matrix(n, cfg.r, cfg.seed)
    Ybar = A.apply(Omega)
    basis = borth.pre_chol_qr_w(B.apply_inverse(Ybar), B)
    return RangeResult(basis=basis, Ybar=Ybar, Omega=Omega)
