"""Seeded Gaussian test matrices, the B = I randomized SVD/EVD, and the
B-weighted range finder and Rayleigh-Ritz step shared by all GHEP solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import borth
from .operators import ConfigError, IllConditionedError, LinearMap, SpdOperator

#: Identifier of the pseudo-random stream: one Philox4x64 counter stream per
#: column (key = seed, counter = column << 66), uniforms mapped to normals by
#: the Box-Muller transform.  Fixed so that equal seeds give bitwise-equal
#: matrices on every platform, independent of thread count, and so that a
#: matrix can be extended by columns without touching the existing ones.
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


def _check_order(order: str) -> None:
    """ConfigError unless ``order`` is one that ``ritz`` knows: "value" or "abs"."""
    if order not in ("value", "abs"):
        raise ConfigError(f"unknown order {order!r}; choose 'value' or 'abs'")


_SYMMETRY_PROBES = 3


def _check_symmetry(A: LinearMap, seed: int) -> int:
    """Probe |x^T A y - y^T A x| on a few random pairs; returns applies spent.

    The probe vectors come from their own seed stream, so the sketch drawn
    from ``seed`` afterwards is the one drawn without the probe.
    """
    probes = gaussian_matrix(A.dim_in, 2 * _SYMMETRY_PROBES, derive_seed(seed, 0x51A))
    X, Ynd = probes[:, :_SYMMETRY_PROBES], probes[:, _SYMMETRY_PROBES:]
    AX = A.apply(X)
    AY = A.apply(Ynd)
    for j in range(_SYMMETRY_PROBES):
        lhs = X[:, j] @ AY[:, j]
        rhs = Ynd[:, j] @ AX[:, j]
        scale = abs(lhs) + abs(rhs) + np.linalg.norm(AX[:, j]) * np.linalg.norm(Ynd[:, j])
        if abs(lhs - rhs) > 1e-8 * max(scale, 1e-300):
            raise ConfigError("A failed the symmetry probe; eigensolvers need symmetric A")
    return 2 * _SYMMETRY_PROBES


def randomized_svd(A: LinearMap, cfg: SketchConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-k randomized SVD of A (standard inner product).

    Sketch Y = A*Omega, orthonormalize, project B = Q^T A, SVD the small
    matrix, lift the left factor.  Returns (U, sigma, V) with A ~ U diag(s) V^T.
    """
    m, n = A.dim_out, A.dim_in
    if cfg.r > min(m, n):
        raise ConfigError(f"sketch size k+p={cfg.r} exceeds min(m, n)={min(m, n)}")
    Omega = gaussian_matrix(n, cfg.r, cfg.seed)
    Y = A.apply(Omega)
    Q, _ = np.linalg.qr(Y)
    B_small = A.apply_transpose(Q).T
    Ut, sig, Vt = np.linalg.svd(B_small, full_matrices=False)
    U = Q @ Ut[:, : cfg.k]
    return U, sig[: cfg.k], Vt[: cfg.k].T


def ritz(
    T: np.ndarray, Q: np.ndarray, k: int, order: str = "value"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rayleigh-Ritz step on a projected matrix T = Q^T A Q (or an estimate of it).

    Symmetrizes T, eigendecomposes it, stable-sorts the eigenvalues
    descending (by value, or by magnitude with order="abs"), keeps the top k
    and lifts their eigenvectors by Q.  Returns (U, eigenvalues, all
    eigenvalues in that order).
    """
    T = (T + T.T) / 2.0
    lam, S = np.linalg.eigh(T)
    idx = np.argsort(-np.abs(lam) if order == "abs" else -lam, kind="stable")
    lam, S = lam[idx], S[:, idx]
    kk = min(k, lam.size)
    return Q @ S[:, :kk], lam[:kk], lam


def randomized_evd(
    A: LinearMap, cfg: SketchConfig, mode: str = "two_pass", order: str = "value"
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-k randomized eigendecomposition of a symmetric A (B = I).

    ``two_pass`` forms T = Q^T A Q with a second round of products; the
    ``single_pass`` variant reconstructs T ~ (Q^T Y)(Q^T Omega)^{-1} from the
    sketch alone, trading accuracy for half the A-applies.  Eigenvalues come
    back sorted descending (by value, or by magnitude with order="abs").
    A is probed for symmetry first (``_SYMMETRY_PROBES`` pairs of applies);
    an asymmetric A raises ConfigError.
    """
    n = A.dim_in
    if A.dim_out != n:
        raise ConfigError("randomized_evd needs a square operator")
    if cfg.r > n:
        raise ConfigError(f"sketch size k+p={cfg.r} exceeds n={n}")
    if mode not in ("two_pass", "single_pass"):
        raise ConfigError(f"unknown mode {mode!r}")
    _check_order(order)
    _check_symmetry(A, cfg.seed)
    Omega = gaussian_matrix(n, cfg.r, cfg.seed)
    Y = A.apply(Omega)
    Q, _ = np.linalg.qr(Y)
    if mode == "two_pass":
        T = Q.T @ A.apply(Q)
    else:
        G = Q.T @ Omega
        svals = np.linalg.svd(G, compute_uv=False)
        if svals[-1] <= 1e-12 * svals[0]:
            raise IllConditionedError("Q^T Omega numerically singular; use two_pass")
        T = np.linalg.solve(G.T, (Q.T @ Y).T).T
    return ritz(T, Q, cfg.k, order)[:2]


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
