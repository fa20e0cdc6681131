"""Karhunen-Loeve experiment harness on a 1D grid.

Matern covariance kernels, the piecewise-linear mass matrix, the discrete
pencil (M Gamma M, M) and truncated-expansion error checks.  The solver path
is matrix-free at any n: on the uniform grid Gamma is symmetric Toeplitz, so
it is applied by circulant embedding with the FFT in O(n log n) per column and
O(n) memory (Dietrich & Newsam 1997), and the mass solves go through one
tridiagonal LDL^T factorization (LAPACK ``dpttrf``/``dpttrs``), so B^{-1}x
stays O(n).  The circulant has length N, the smallest
2^a 3^b 5^c >= 2n - 1, with zero padding in the middle of its first column: a
matvec needs only N >= 2n - 1, not a nonnegative spectrum, and a 5-smooth N
keeps the FFT off its slow large-prime path.  The dense A is built only when
an oracle reads it (n <= ORACLE_MAX_N); the oracles read B as the mass
operator's own Cholesky factor, densified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from . import errors, ghep
from .ghep import _METHODS  # noqa: F401  (perfbench/selftest.py reads kle._METHODS)
from .operators import ConfigError, GhepPencil, LinearMap, SpdOperator
from .sketch import SketchConfig

ORACLE_MAX_N = 2000

#: The Matern smoothness values with a closed-form kernel; the CLI's --nu choices.
MATERN_NUS = (0.5, 1.5, 2.5)


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
        if self.nu not in MATERN_NUS:
            raise ConfigError(f"nu must be one of {MATERN_NUS}")
        if not self.ell > 0.0:
            raise ConfigError("correlation length must be positive")


def matern_kernel(cfg: MaternConfig, x, y):
    """Matern covariance value(s) at scaled distance d = |x - y| / ell.

    nu = 1/2:  exp(-d)
    nu = 3/2:  (1 + sqrt(3) d) exp(-sqrt(3) d)
    nu = 5/2:  (1 + sqrt(5) d + (5/3) d^2) exp(-sqrt(5) d)

    Each is at most 1; at tiny nonzero d the product rounds up to 1 + eps,
    so the result is clipped at 1.  It runs in place, in the formulas' order.
    """
    d = np.asarray(np.subtract(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
    d = np.divide(np.abs(d, out=d), cfg.ell, out=d)
    if cfg.nu == 0.5:
        out = np.exp(np.negative(d, out=d), out=d)
    else:  # each out= keeps a 0-d d's results arrays, for the in-place steps
        out = np.multiply(math.sqrt(3.0 if cfg.nu == 1.5 else 5.0), d, out=np.empty_like(d))  # s
        if cfg.nu == 2.5:
            quad = np.multiply(5.0 / 3.0, d, out=np.empty_like(d))
            quad *= d
        decay = np.exp(np.negative(out, out=d), out=d)  # d is not read again
        out += 1.0
        if cfg.nu == 2.5:
            out += quad
        out *= decay
    np.minimum(out, 1.0, out=out)
    return float(out) if out.ndim == 0 else out


def assemble_covariance(grid: Grid1D, cfg: MaternConfig) -> np.ndarray:
    """Nodal covariance matrix Gamma_ij = kappa(x_i, x_j); symmetric, unit diagonal.

    Dense oracle helper; the solvers apply Gamma through ``covariance_apply``.
    The kernel's values are exactly symmetric, as |x_i - x_j| = |x_j - x_i|.
    """
    if grid.n > 4000:
        raise ConfigError("dense harness caps the grid at 4000 nodes")
    x = grid.nodes()
    G = matern_kernel(cfg, x[:, None], x[None, :])
    np.fill_diagonal(G, 1.0)
    return G


#: Byte budget of one column panel of the matrix-free applies: the A-apply
#: transforms at most this many bytes of padded N-row FFT input at a time, and
#: the B-stencil at most this many bytes of n-row columns, so their scratch
#: is O(N), not O(N (k+p)).  16 columns at N = 8000.
PANEL_BYTES = 1 << 20

#: Fewest columns in a panel, whatever their length.  The FFT transforms a
#: block's columns in SIMD groups: at N = 2 x 10^6 (1 BLAS thread) 24 columns
#: took 2.57 s one at a time, 2.04 s four at a time and 1.86 s at once.
PANEL_MIN_COLS = 4


def _panel_width(rows: int) -> int:
    """Columns of ``rows`` float64 entries that fit one panel, at least
    PANEL_MIN_COLS."""
    return max(PANEL_MIN_COLS, PANEL_BYTES // (8 * rows))


def _by_panels(fn: Callable, X: np.ndarray, width: int, out: np.ndarray | None = None) -> np.ndarray:
    """A square operator's kernel ``fn(X, out)``, which writes its product
    of X into ``out``, run on one panel of at most ``width`` columns at a time.

    The panels are written into ``out``, by default a new array shaped and
    ordered like X, so a block that fits one panel costs what one kernel
    call costs.  The kernels here transform each column on its own, so the
    result is bitwise the whole-block result, whatever the width.
    """
    out = np.empty_like(X) if out is None else out
    for j in range(0, X.shape[1], width):
        fn(X[:, j : j + width], out[:, j : j + width])
    return out


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
    """The 1D mass matrix as an SpdOperator: stencil apply, tridiagonal solve,
    and whitening by the Cholesky factor of the same factorization.

    B is factored once by LAPACK ``dpttrf`` as B = L D L^T (unit lower
    bidiagonal L) and solved with ``dpttrs``, one O(n) recurrence per column
    with no per-row BLAS calls.  The Cholesky factor U = D^{1/2} L^T
    (B = U^T U, upper bidiagonal) is built from the same (d, e) in LAPACK's
    upper band storage: the whitening is U^{-1} X, and ``dense_factor()`` is
    (U^T densified F-ordered, None): the oracles copy and factor no B.
    B is strictly diagonally dominant, so the factorization cannot fail.
    The apply runs the stencil (``_stencil``, which allocates an output and
    one temporary the size of its operand) over column panels of
    ``_panel_width(n)`` columns, so its scratch beyond the output is one
    panel, not one block.
    """

    def __init__(self, grid: Grid1D) -> None:
        n = grid.n
        main, off = self._main, self._off = _mass_bands(grid)
        d, e, _ = scipy.linalg.lapack.dpttrf(main, np.full(n - 1, off))
        root_d = np.sqrt(d)
        ub = self._ub = np.zeros((2, n))
        ub[0, 1:] = root_d[:-1] * e
        ub[1] = root_d

        # The callables close over the bands and the factor, not over self: an
        # operator that held its own bound methods would be a reference cycle,
        # freed only by a later run of the cyclic garbage collector.
        def stencil(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            out = np.multiply(main[:, None], X, out=out)
            out[:-1] += off * X[1:]
            out[1:] += off * X[:-1]
            return out

        def factor_lt() -> tuple[np.ndarray, None]:
            # L = U^T, filled in place: U's diagonal is row 1 of the banded storage, its superdiagonal row 0
            L, rows = np.zeros((n, n), order="F"), np.arange(n)
            L[rows, rows], L[rows[1:], rows[:-1]] = ub[1], ub[0, 1:]
            return L, None

        width = _panel_width(n)
        self._stencil = stencil
        # B = U^T U with the banded upper factor U, so L = U^T and the whitening
        # L^{-T} X = U^{-1} X; U's diagonal is positive, so that solve cannot fail
        super().__init__(n, lambda X: _by_panels(stencil, X, width),
                         lambda X: scipy.linalg.lapack.dpttrs(d, e, X)[0],
                         lambda X: scipy.linalg.lapack.dtbtrs(ub, X, uplo="U")[0], factor_lt)


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
    tridiagonal LDL^T solve of ``MassOperator``; nothing n-by-n is formed unless an
    oracle reads ``dense_a`` or B's ``dense_factor()``.  Every apply of Gamma
    is an A-apply, counted by ``A.matvec_count``.

    The A-apply runs stencil, circulant and stencil on one column panel at a
    time (``_by_panels``), ``_panel_width(N)`` columns for the circulant
    length N, so its padded FFT buffers hold one ``PANEL_BYTES`` panel, not
    an N x (k+p) block: 16 columns at N = 8000, 4 (``PANEL_MIN_COLS``) at
    n = 10^6.  A block of at most that many columns (a growth round, a
    certificate column) is one panel.  The output is bitwise the whole-block
    product.  ``dense_a`` = M (M Gamma)^T by panels into Gamma's storage.
    """
    gamma = covariance_apply(grid, cfg)
    mass = MassOperator(grid)
    stencil = mass._stencil
    width = _panel_width(_fast_len(2 * grid.n - 1))

    def apply_panel(X: np.ndarray, out: np.ndarray) -> np.ndarray:
        return stencil(gamma(stencil(X)), out=out)

    def apply_a(X: np.ndarray) -> np.ndarray:
        return _by_panels(apply_panel, X, width)

    def dense_a() -> np.ndarray:
        _check_oracle_size(grid)
        G, width = assemble_covariance(grid, cfg), _panel_width(grid.n)
        return _by_panels(stencil, _by_panels(stencil, G, width).T, width, out=G.T)

    A = LinearMap(grid.n, grid.n, apply_a, apply_a)
    return GhepPencil(A=A, B=mass, build_dense_a=dense_a)


@dataclass
class KleSolution:
    """Truncated KLE modes: M-orthonormal eigenvectors and their variances.

    ``solution`` is the GHEP solve of the KLE pencil on ``grid``; ``K`` is
    the number of modes it returned (at most its k), ``modes`` and
    ``eigenvalues`` are its U and eigenvalues.  To compare them with the
    dense oracle, use ``errors.dense_ghep_oracle`` on ``kle_pencil(grid, cfg)``
    and its ``rel_eigenvalue_error``.
    """

    solution: ghep.GhepSolution
    grid: Grid1D
    K: int

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
    seed: int = 0,
) -> KleSolution:
    """Truncated KLE of the Matern field: the top-k modes of (M Gamma M, M),
    by the two-pass solver.  It builds no dense matrix at any n."""
    pencil = kle_pencil(grid, cfg)
    sol = ghep.ghep_two_pass(pencil.A, pencil.B, SketchConfig(k=k, p=p, seed=seed))
    return KleSolution(solution=sol, grid=grid, K=int(sol.eigenvalues.size))


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
