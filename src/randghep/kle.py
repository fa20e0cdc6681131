"""Karhunen-Loeve experiment harness on a 1D grid.

Matern covariance kernels, the piecewise-linear mass matrix, the discrete
pencil (M Gamma M, M) and truncated-expansion error checks.  The solver path
is matrix-free at any n: on the uniform grid Gamma is symmetric Toeplitz, so
it is applied by circulant embedding with the FFT in O(n log n) per column and
O(n) memory (Dietrich & Newsam 1997), and the mass solves go through a banded
Cholesky so B^{-1}x stays O(n).  The circulant has length N, the smallest
2^a 3^b 5^c >= 2n - 1, with zero padding in the middle of its first column: a
matvec needs only N >= 2n - 1, not a nonnegative spectrum, and a 5-smooth N
keeps the FFT off its slow large-prime path.  Dense copies of the pencil are
built only when an oracle reads them (n <= ORACLE_MAX_N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from . import errors, ghep
from .ghep import _METHODS, solver_method  # noqa: F401  (perfbench/selftest.py reads kle._METHODS)
from .operators import ConfigError, GhepPencil, LinearMap, SpdOperator
from .sketch import SketchConfig

ORACLE_MAX_N = 2000

_MATERN_NUS = (0.5, 1.5, 2.5)


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid with n nodes on [a, b]."""

    a: float = -1.0
    b: float = 1.0
    n: int = 201

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigError("grid needs at least two nodes")
        if not self.b > self.a:
            raise ConfigError("grid needs b > a")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n)


@dataclass(frozen=True)
class MaternConfig:
    """Matern covariance: smoothness nu in {1/2, 3/2, 5/2}, correlation length ell."""

    nu: float = 0.5
    ell: float = 2.0

    def __post_init__(self) -> None:
        if self.nu not in _MATERN_NUS:
            raise ConfigError(f"nu must be one of {_MATERN_NUS}")
        if not self.ell > 0.0:
            raise ConfigError("correlation length must be positive")


def matern_kernel(cfg: MaternConfig, x, y):
    """Matern covariance value(s) at scaled distance d = |x - y| / ell.

    nu = 1/2:  exp(-d)
    nu = 3/2:  (1 + sqrt(3) d) exp(-sqrt(3) d)
    nu = 5/2:  (1 + sqrt(5) d + (5/3) d^2) exp(-sqrt(5) d)

    Each is at most 1; at tiny nonzero d the product rounds up to 1 + eps,
    so the result is clipped at 1.
    """
    d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) / cfg.ell
    if cfg.nu == 0.5:
        out = np.exp(-d)
    elif cfg.nu == 1.5:
        s = math.sqrt(3.0) * d
        out = (1.0 + s) * np.exp(-s)
    else:
        s = math.sqrt(5.0) * d
        out = (1.0 + s + (5.0 / 3.0) * d * d) * np.exp(-s)
    out = np.minimum(out, 1.0)
    return float(out) if out.ndim == 0 else out


def assemble_covariance(grid: Grid1D, cfg: MaternConfig) -> np.ndarray:
    """Nodal covariance matrix Gamma_ij = kappa(x_i, x_j); symmetric, unit diagonal.

    Dense oracle helper; the solvers apply Gamma through ``covariance_apply``.
    """
    if grid.n > 4000:
        raise ConfigError("dense harness caps the grid at 4000 nodes")
    x = grid.nodes()
    G = matern_kernel(cfg, x[:, None], x[None, :])
    G = (G + G.T) / 2.0
    np.fill_diagonal(G, 1.0)
    return G


def _mass_bands(grid: Grid1D) -> tuple[np.ndarray, float]:
    """The mass matrix's diagonal (2h/3, h/3 at the two ends) and off-diagonal h/6."""
    main = np.full(grid.n, 2.0 * grid.h / 3.0)
    main[0] = main[-1] = grid.h / 3.0
    return main, grid.h / 6.0


def assemble_mass_1d(grid: Grid1D) -> np.ndarray:
    """Piecewise-linear mass matrix on the uniform grid (dense tridiagonal).

    Interior rows are (h/6)[1, 4, 1]; the two end rows are (h/6)[2, 1].
    """
    n = grid.n
    main, off = _mass_bands(grid)
    M = np.zeros((n, n))
    np.fill_diagonal(M, main)
    M[np.arange(n - 1), np.arange(1, n)] = off
    M[np.arange(1, n), np.arange(n - 1)] = off
    return M


class MassOperator(SpdOperator):
    """The 1D mass matrix as an SpdOperator: stencil apply, banded Cholesky solve,
    and whitening by the same banded factor."""

    def __init__(self, grid: Grid1D) -> None:
        self._main, self._off = _mass_bands(grid)
        ab = np.zeros((2, grid.n))
        ab[0, 1:] = self._off
        ab[1] = self._main
        self._cb = scipy.linalg.cholesky_banded(ab, lower=False, check_finite=False)
        super().__init__(grid.n, self._stencil, self._solve, self._whiten)

    def _stencil(self, X: np.ndarray) -> np.ndarray:
        out = self._main[:, None] * X
        out[:-1] += self._off * X[1:]
        out[1:] += self._off * X[:-1]
        return out

    def _solve(self, X: np.ndarray) -> np.ndarray:
        return scipy.linalg.cho_solve_banded((self._cb, False), X, check_finite=False)

    def _whiten(self, X: np.ndarray) -> np.ndarray:
        # B = U^T U with the banded upper factor U, so L = U^T and L^{-T} X = U^{-1} X;
        # U's diagonal is positive, so the triangular solve cannot fail
        return scipy.linalg.lapack.dtbtrs(self._cb, X, uplo="U")[0]


def _fast_len(m: int) -> int:
    """Smallest 5-smooth integer 2^a 3^b 5^c that is >= m (m >= 1).

    For each 3^b 5^c below the best length so far, the smallest power of two
    times it that reaches m is a candidate.
    """
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = -(-m // p35)  # ceil(m / p35)
            best = min(best, p35 << (q - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def covariance_apply(grid: Grid1D, cfg: MaternConfig) -> Callable[[np.ndarray], np.ndarray]:
    """Block apply X -> Gamma X by circulant embedding of the Toeplitz Gamma.

    The first column c_j = kappa(x_j - x_0) (c_0 = 1) goes into the symmetric
    circulant with first column [c_0, ..., c_{n-1}, 0, ..., 0, c_{n-1}, ..., c_1]
    of length N = ``_fast_len(2n - 1)``.  That column is even-symmetric, so the
    spectrum is its real FFT.  Gamma X is the top n rows of the circulant
    applied to X padded with zeros to N rows; any N >= 2n - 1 gives that, and
    the spectrum may have negative entries, since nothing is factored or
    sampled from it.  Exact up to FFT roundoff.
    """
    n = grid.n
    col = matern_kernel(cfg, grid.nodes(), grid.a)
    col[0] = 1.0
    size = _fast_len(2 * n - 1)
    first = np.zeros(size)
    first[:n] = col
    first[size - n + 1:] = col[:0:-1]
    spectrum = np.fft.rfft(first).real

    def apply(X: np.ndarray) -> np.ndarray:
        Xf = np.fft.rfft(X, n=size, axis=0)
        Xf *= spectrum[:, None]
        return np.fft.irfft(Xf, n=size, axis=0)[:n]

    return apply


def _check_oracle_size(grid: Grid1D) -> None:
    if grid.n > ORACLE_MAX_N:
        raise ConfigError(f"dense oracle copies are capped at n={ORACLE_MAX_N}")


def kle_pencil(grid: Grid1D, cfg: MaternConfig) -> GhepPencil:
    """The discrete KLE pencil: A = M Gamma M applied factor-by-factor, B = M.

    Gamma is applied matrix-free (``covariance_apply``) and B^{-1} by the
    banded Cholesky of ``MassOperator``; nothing n-by-n is formed unless an
    oracle reads ``dense_a``/``dense_b``.  Every apply of Gamma is an A-apply,
    counted by ``A.matvec_count``.
    """
    gamma = covariance_apply(grid, cfg)
    mass = MassOperator(grid)

    def apply_a(X: np.ndarray) -> np.ndarray:
        return mass._stencil(gamma(mass._stencil(X)))

    def dense_a() -> np.ndarray:
        _check_oracle_size(grid)
        return mass._stencil(mass._stencil(assemble_covariance(grid, cfg)).T)

    def dense_b() -> np.ndarray:
        _check_oracle_size(grid)
        return assemble_mass_1d(grid)

    A = LinearMap(grid.n, grid.n, apply_a, apply_a)
    return GhepPencil(A=A, B=mass, build_dense_a=dense_a, build_dense_b=dense_b)


@dataclass
class KleSolution:
    """Truncated KLE modes: M-orthonormal eigenvectors and their variances."""

    solution: ghep.GhepSolution
    grid: Grid1D
    kernel: MaternConfig
    K: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.solution.eigenvalues

    @property
    def modes(self) -> np.ndarray:
        return self.solution.U


def kle_solve(
    grid: Grid1D,
    cfg: MaternConfig,
    k: int,
    p: int = 5,
    method: str = "two_pass",
    seed: int = 0,
    compare_oracle: bool = False,
) -> KleSolution:
    """Truncated KLE of the Matern field: the top-k modes of (M Gamma M, M).

    With ``compare_oracle`` (and n within oracle scale) the diagnostics gain
    the relative eigenvalue error sum|lam - lam~| / sum|lam| against the dense
    reference.
    """
    pencil = kle_pencil(grid, cfg)
    solve = solver_method(method)
    sol = solve(pencil.A, pencil.B, SketchConfig(k=k, p=p, seed=seed))
    diag = {}
    if compare_oracle:
        ref = errors.dense_ghep_oracle(pencil.dense_a, pencil.dense_b)
        kk = sol.eigenvalues.size
        diag["rel_eigenvalue_error"] = float(
            np.sum(np.abs(ref.lambdas[:kk] - sol.eigenvalues)) / np.sum(np.abs(ref.lambdas[:kk]))
        )
        diag["oracle_lambdas"] = ref.lambdas[:kk]
    return KleSolution(solution=sol, grid=grid, kernel=cfg, K=int(sol.eigenvalues.size), diagnostics=diag)


@dataclass
class TruncationReport:
    """Both sides of the truncated-expansion error identity and its bound.

    ``total_lhs`` is the xi-expectation computed analytically:
    sum_k ||sqrt(lam_k) phi_k - sqrt(lam~_k) phi~_k||_M^2.  Each summand is
    bounded by ``eig_terms[k] + vec_terms[k]`` = |lam_k - lam~_k| +
    lam_k ||phi_k - phi~_k||_M^2 (signs aligned in the M-inner product).
    Two readings of the closed-form bound are reported: the literal
    n*min(2e, 2e/d) + sum(lam) (2e/d)^2 and the per-eigenvalue form summing
    min(2e, 4e^2/d) + lam_k (2e/d)^2.
    """

    lhs_terms: np.ndarray
    eig_terms: np.ndarray
    vec_terms: np.ndarray
    total_lhs: float
    per_term_bound_ok: bool
    bound_literal: float
    bound_per_eigenvalue: float


def kle_truncation_check(
    exact: errors.SpectrumReference,
    approx: KleSolution,
    epsilon: float,
    delta: float,
) -> TruncationReport:
    """Check the truncated-KLE error decomposition against the dense oracle."""
    K = approx.K
    lam_ex = exact.lambdas[:K]
    phi_ex = exact.top_eigenvectors(K)
    lam_ap = approx.eigenvalues
    phi_ap = approx.modes
    M = assemble_mass_1d(approx.grid)

    Mphi_ex = M @ phi_ex
    signs = np.sign(np.sum(Mphi_ex * phi_ap, axis=0))
    signs[signs == 0.0] = 1.0
    phi_ap = phi_ap * signs

    s_ex = np.sqrt(np.maximum(lam_ex, 0.0))
    s_ap = np.sqrt(np.maximum(lam_ap, 0.0))
    D = phi_ex * s_ex - phi_ap * s_ap
    lhs = np.sum(D * (M @ D), axis=0)
    E = phi_ex - phi_ap
    vec_terms = lam_ex * np.sum(E * (M @ E), axis=0)
    eig_terms = np.abs(lam_ex - lam_ap)
    per_term_ok = bool(np.all(lhs <= vec_terms + eig_terms + 1e-12))

    n = float(K)
    lam_sum = float(np.sum(np.maximum(lam_ex, 0.0)))
    if delta > 0.0:
        bound_literal = n * min(2.0 * epsilon, 2.0 * epsilon / delta) + lam_sum * (2.0 * epsilon / delta) ** 2
        bound_per = K * min(2.0 * epsilon, 4.0 * epsilon**2 / delta) + lam_sum * (2.0 * epsilon / delta) ** 2
    else:
        bound_literal = bound_per = math.inf
    return TruncationReport(
        lhs_terms=lhs,
        eig_terms=eig_terms,
        vec_terms=vec_terms,
        total_lhs=float(np.sum(lhs)),
        per_term_bound_ok=per_term_ok,
        bound_literal=float(bound_literal),
        bound_per_eigenvalue=float(bound_per),
    )
