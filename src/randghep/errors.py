"""A-posteriori and a-priori error bounds, eigenpair perturbation bounds, and
dense reference oracles for the B-weighted geometry.

The oracles (B-norm, generalized singular values, exact range error, exact
GHEP) work on one Cholesky factor B = L L^T, the reduction of the
symmetric-definite pencil that LAPACK's sygv uses: the B-norm of M is
||L^T M L^{-T}||_2 and C = B^{-1}A is congruent to L^{-1} A L^{-T}.  No square
root of B is formed, by the oracles or by the solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsyrk, dtrmm, dtrsm

from .borth import BOrthoBasis, pre_chol_qr_w
from .operators import (
    ConfigError,
    LinearMap,
    NotPositiveDefiniteError,
    NumericalError,
    SpdOperator,
    check_symmetric,
)
from .sketch import derive_seed, gaussian_matrix


@dataclass
class ErrorEstimate:
    """Randomized a-posteriori estimate of the range error ||(I - QQ^T B) C||_B.

    Holds with probability at least ``probability_floor`` = 1 - alpha^{-r}.
    """

    e: float
    alpha: float
    r_probes: int
    probability_floor: float
    binv_norm_used: float
    source: str  # "exact_binv_norm" | "crude_lower_bound"


@dataclass
class SpectrumReference:
    """Dense reference data for a pencil (A, B), built by ``dense_ghep_oracle``.

    ``lambdas`` (descending, assignable) and the B-orthonormal
    ``eigenvectors`` are computed on construction.  The rest is computed on
    first read and then cached: ``Ahat`` = L^{-1} A L^{-T}, the congruent
    symmetric matrix that ``range_error`` reuses for every basis;
    ``sigmas_B``, the generalized singular values of C = B^{-1}A, as the
    singular values of L^{-1}A (the same as those of B^{1/2} C); and
    ``binv_norm`` = ||B^{-1}||_2, ``b_norm`` = ||B||_2 and ``kappa_B`` from
    one values-only eigensolve of B.  ``range_error(Q)`` is
    ``range_error_exact(A, B, Q)`` without a second factorization of B, and
    equals it bitwise.
    """

    lambdas: np.ndarray
    eigenvectors: np.ndarray
    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    L: np.ndarray = field(repr=False)  # lower Cholesky factor of B

    @cached_property
    def Ahat(self) -> np.ndarray:
        return _congruent(self.A, self.L)

    def range_error(self, Q: np.ndarray) -> float:
        """Exact f = ||(I - Q Q^T B) C||_B; see ``range_error_exact``."""
        return _range_error(self.Ahat, self.L, _basis(Q, self.L.shape[0]))

    @cached_property
    def sigmas_B(self) -> np.ndarray:
        return scipy.linalg.svdvals(dtrsm(1.0, self.L, self.A, lower=1), overwrite_a=True,
                                    check_finite=False)

    @cached_property
    def _b_extreme_eigenvalues(self) -> tuple[float, float]:
        w = scipy.linalg.eigvalsh(self.B, check_finite=False)
        return float(w[0]), float(w[-1])

    @cached_property
    def binv_norm(self) -> float:
        return 1.0 / self._b_extreme_eigenvalues[0]

    @cached_property
    def b_norm(self) -> float:
        return self._b_extreme_eigenvalues[1]

    @cached_property
    def kappa_B(self) -> float:
        lo, hi = self._b_extreme_eigenvalues
        return hi / lo


class EigenpairBounds(NamedTuple):
    lambda_bound: float
    sine_bound: float
    gap_degenerate: bool


def _finite(M: np.ndarray, name: str) -> np.ndarray:
    """M as a float array, or NumericalError if it has a NaN or Inf entry."""
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise NumericalError(f"{name} has non-finite (NaN or Inf) entries")
    return M


def _cholesky(B: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of a finite symmetric B = L L^T."""
    check_symmetric(B)
    try:
        return scipy.linalg.cholesky(B, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"B is not positive definite: {exc}") from exc


def _dense_pencil(
    A: np.ndarray, B: np.ndarray, name: str = "A"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, L): finite matrices of one shape and the Cholesky factor of B."""
    A = _finite(A, name)
    B = _finite(B, "B")
    if A.shape != B.shape:
        raise ConfigError(f"{name} has shape {A.shape}, B has shape {B.shape}")
    return A, B, _cholesky(B)


def _solve_right_lt(X: np.ndarray, L: np.ndarray) -> np.ndarray:
    """X L^{-T} for lower-triangular L (X is overwritten when it is F-ordered)."""
    return dtrsm(1.0, L, X, side=1, lower=1, trans_a=1, overwrite_b=1)


def _congruent(A: np.ndarray, L: np.ndarray) -> np.ndarray:
    """A^ = L^{-1} A L^{-T}, a new F-ordered array."""
    return _solve_right_lt(dtrsm(1.0, L, A, lower=1), L)


def _basis(Q: np.ndarray, n: int) -> np.ndarray:
    """Q as a finite float array of n rows, or a typed error."""
    Q = _finite(Q, "Q")
    if Q.ndim != 2 or Q.shape[0] != n:
        raise ConfigError("Q rows must match the pencil dimension")
    return Q


def _range_error(Ahat: np.ndarray, L: np.ndarray, Q: np.ndarray) -> float:
    """||(I - W W^T) A^||_2 with W = L^T Q; A^ is left untouched."""
    if Q.shape[1] == 0:
        return _norm2(Ahat.copy(order="F"))
    W = dtrmm(1.0, L, Q, lower=1, trans_a=1)
    G = W @ (W.T @ Ahat)
    return _norm2(np.subtract(Ahat, G, out=G))


def _norm2(M: np.ndarray) -> float:
    """Spectral norm sigma_1(M) as sqrt(lambda_max(M^T M)) (M is overwritten).

    Squaring is safe for the largest singular value only.  The symmetric
    eigensolve is backward stable, so lambda_max comes back with an error of
    at most p(n) eps ||M^T M|| = p(n) eps sigma_1^2, and its square root
    carries a relative error O(eps).  The small singular values would lose
    all digits below eps sigma_1^2, but none is read.  M is first scaled by
    the power of two just above max |M_ij|, which is exact and keeps M^T M
    from overflowing or underflowing; the Gram matrix is one dsyrk, and only
    its top eigenvalue is computed.
    """
    peak = float(np.max(np.abs(M), initial=0.0))
    if peak == 0.0:
        return 0.0
    if not math.isfinite(peak):
        raise NumericalError("the matrix whose norm is taken has non-finite entries")
    e = math.frexp(peak)[1]
    np.ldexp(M, -e, out=M)
    gram = dsyrk(1.0, M, trans=1) if M.flags.f_contiguous else dsyrk(1.0, M.T)
    n = gram.shape[0]
    top = scipy.linalg.eigh(gram, lower=False, eigvals_only=True, overwrite_a=True,
                            check_finite=False, subset_by_index=[n - 1, n - 1])
    return math.ldexp(math.sqrt(max(float(top[0]), 0.0)), e)


def b_norm(M: np.ndarray, B: np.ndarray) -> float:
    """The induced matrix B-norm ||M||_B = ||B^{1/2} M B^{-1/2}||_2 (dense oracle).

    Computed as ||L^T M L^{-T}||_2 with B = L L^T: B^{1/2} = V L^T for an
    orthogonal V, so the two matrices have the same singular values.  That
    matrix is not symmetric; ``_norm2`` takes its largest singular value from
    the top eigenvalue of its Gram matrix.
    """
    M, B, L = _dense_pencil(M, B, "M")
    return _norm2(_solve_right_lt(dtrmm(1.0, L, M, lower=1, trans_a=1), L))


def dense_ghep_oracle(A: np.ndarray, B: np.ndarray) -> SpectrumReference:
    """All eigenpairs of the pencil (A, B) via the Cholesky-congruence reduction.

    Eigenvectors come back B-orthonormal, eigenvalues descending.  The
    Cholesky factor of B is kept for the generalized singular values, which
    the returned reference computes only when they are read.
    """
    A, B, L = _dense_pencil(A, B)
    check_symmetric(A)
    lam, X = scipy.linalg.eigh(A, B, check_finite=False)  # LAPACK reduces via B = L L^T
    return SpectrumReference(lambdas=lam[::-1], eigenvectors=X[:, ::-1], A=A, B=B, L=L)


def range_error_exact(A: np.ndarray, B: np.ndarray, Q: np.ndarray) -> float:
    """Exact f = ||(I - Q Q^T B) C||_B for a dense pencil (oracle scale).

    With B = L L^T, A^ = L^{-1} A L^{-T} and W = L^T Q (one dtrmm), the
    matrix L^T (I - Q Q^T B) C L^{-T} equals (I - W W^T) A^, so f is its
    exact 2-norm, taken by ``_norm2``.  Q need not be B-orthonormal.  Each
    call factors B; ``SpectrumReference.range_error`` reuses the factor and
    A^ of one ``dense_ghep_oracle`` and returns the same bits.
    """
    A, B, L = _dense_pencil(A, B)
    Q = _basis(Q, B.shape[0])
    return _range_error(_congruent(A, L), L, Q)


def binv_norm_crude(Q: np.ndarray) -> float:
    """Crude lower bound on ||B^{-1}||_2 from a B-orthonormal Q: (max_i ||q_i||_2)^2.

    Follows from ||q_i||_2^2 / ||B^{-1}|| <= ||q_i||_B^2 = 1.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.size == 0:
        raise ConfigError("need at least one column")
    return float(np.max(np.sum(Q * Q, axis=0)))


def posterior_estimate(
    A: LinearMap,
    B: SpdOperator,
    basis: BOrthoBasis,
    alpha: float,
    r_probes: int,
    seed: int,
    binv_norm: Optional[float] = None,
) -> ErrorEstimate:
    """Randomized upper estimate of the range error from r fresh Gaussian probes.

    e = alpha * sqrt(2 ||B^{-1}|| / pi) * max_i ||(I - QQ^T B) C w_i||_B, an
    upper bound on ||(I - QQ^T B) C||_B with probability >= 1 - alpha^{-r}.
    The probe B-norms are exact vector norms; B(I-P)Cw is assembled from the
    cached A w and BQ, so the cost is r A-applies plus r B-solves.  When no
    ||B^{-1}|| value is supplied the crude lower bound from Q is used and
    flagged in ``source``.
    """
    if not (math.isfinite(alpha) and alpha > 1.0):
        raise ConfigError(f"alpha must be a finite number above 1, got {alpha}")
    if binv_norm is not None and not (math.isfinite(binv_norm) and binv_norm > 0.0):
        raise ConfigError(f"binv_norm must be a finite positive number, got {binv_norm}")
    if r_probes < 1:
        raise ConfigError("need at least one probe")
    Q, BQ = basis.Q, basis.WQ
    n = Q.shape[0]
    Om = gaussian_matrix(n, r_probes, derive_seed(seed, 0xE57))
    AW = A.apply(Om)
    CW = B.apply_inverse(AW)
    coeff = BQ.T @ CW
    Z = CW - Q @ coeff
    BZ = AW - BQ @ coeff  # B Z without extra B-applies (B*CW = A*Omega)
    norms = np.sqrt(np.maximum(np.sum(Z * BZ, axis=0), 0.0))
    if binv_norm is None:
        binv, source = binv_norm_crude(Q), "crude_lower_bound"
    else:
        binv, source = float(binv_norm), "exact_binv_norm"
    e = float(alpha * math.sqrt(2.0 * binv / math.pi) * norms.max())
    return ErrorEstimate(
        e=e,
        alpha=float(alpha),
        r_probes=int(r_probes),
        probability_floor=1.0 - float(alpha) ** (-r_probes),
        binv_norm_used=binv,
        source=source,
    )


def apriori_bound(sigmas_B: np.ndarray, k: int, p: int, binv_norm: float) -> float:
    """Expected-error bound for the B-weighted range finder.

    sqrt(||B^{-1}||) * [ (1 + sqrt(k/(p-1))) sigma_{B,k+1}
                         + (e sqrt(k+p)/p) (sum_{j>k} sigma_{B,j}^2)^{1/2} ].
    Needs p >= 2 (the p-1 denominator).
    """
    if p < 2:
        raise ConfigError("the expected-error bound needs oversampling p >= 2")
    if k < 1:
        raise ConfigError("k must be >= 1")
    s = np.asarray(sigmas_B, dtype=float)
    tail = s[k:]
    if tail.size == 0:
        return 0.0
    term1 = (1.0 + math.sqrt(k / (p - 1.0))) * tail[0]
    term2 = (math.e * math.sqrt(k + p) / p) * math.sqrt(float(np.sum(tail**2)))
    return float(math.sqrt(binv_norm) * (term1 + term2))


def eigenpair_bounds(epsilon: float, delta: float) -> EigenpairBounds:
    """Eigenvalue and eigenvector-angle bounds from a range error epsilon.

    |lambda - lambda~| <= min(2 eps, 4 eps^2 / delta) and
    sin angle_B <= min(1, 2 eps / delta), with delta the gap from the
    approximate eigenvalue to the rest of the spectrum.  A zero gap
    (clustered spectrum) degrades gracefully: the eigenvalue bound falls back
    to 2 eps, the sine bound saturates at 1, and the result is flagged.
    """
    if epsilon < 0.0:
        raise ConfigError("epsilon must be nonnegative")
    if delta < 0.0:
        raise ConfigError("delta must be nonnegative")
    if delta == 0.0:
        return EigenpairBounds(2.0 * epsilon, 0.0 if epsilon == 0.0 else 1.0, True)
    lam = min(2.0 * epsilon, 4.0 * epsilon**2 / delta)
    sine = min(1.0, 2.0 * epsilon / delta)
    return EigenpairBounds(float(lam), float(sine), False)


def single_pass_bound(
    epsilon: float, kappa_B: float, sigma_max_omega: float, sigma_min_F: float
) -> float:
    """Bound on |eig_j(T) - eig_j(T~)|: 2 eps sqrt(kappa(B)) sigma_max(Omega)^2 / sigma_min(F)^2."""
    if min(epsilon, kappa_B, sigma_max_omega) < 0.0 or sigma_min_F < 0.0:
        raise ConfigError("bound inputs must be nonnegative")
    if sigma_min_F == 0.0:
        return math.inf
    return float(2.0 * epsilon * math.sqrt(kappa_B) * sigma_max_omega**2 / sigma_min_F**2)


def _b_sine_cosine(x: np.ndarray, y: np.ndarray, B: SpdOperator, name: str):
    """(sines, |cosines|) of the B-angles of the column pairs of x and y; see ``b_sine``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim not in (1, 2):
        raise ConfigError(f"{name} needs vectors or blocks of one shape, got {x.shape} and {y.shape}")
    X = x.reshape(x.shape[0], -1)
    Y = y.reshape(X.shape)
    BX = B.apply(X)
    nx2 = np.einsum("ij,ij->j", X, BX)
    if np.any(nx2 <= 0.0) or not np.all(np.any(Y, axis=0)):
        raise ConfigError(f"{name} needs nonzero vectors")
    xy = np.einsum("ij,ij->j", Y, BX)
    R = Y - X * (xy / nx2)
    ny2 = np.einsum("ij,ij->j", Y, B.apply(Y))
    r2 = np.maximum(np.einsum("ij,ij->j", R, B.apply(R)), 0.0)
    sines = np.sqrt(np.divide(r2, ny2, out=np.zeros_like(r2), where=ny2 > 0.0))
    cosines = np.divide(np.abs(xy), np.sqrt(nx2) * np.sqrt(ny2), out=np.zeros_like(r2), where=ny2 > 0.0)
    return sines, cosines


def b_angle(x: np.ndarray, y: np.ndarray, B: SpdOperator) -> float:
    """Principal angle in the B-geometry, in [0, pi/2].

    atan2(sin, |cos|) with the sine of ``b_sine`` and |cos| = |<x,y>_B| /
    (||x||_B ||y||_B).  Its error stays at the roundoff of forming the
    residual, a small multiple of eps, at every angle; arccos of the cosine
    alone is off by up to sqrt(eps) near 0.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    sines, cosines = _b_sine_cosine(x, y, B, "b_angle")
    return float(math.atan2(sines[0], cosines[0]))


def b_sine(x: np.ndarray, y: np.ndarray, B: SpdOperator) -> float | np.ndarray:
    """sin of the B-geometry angle, accurate for nearly parallel vectors.

    Computed from the B-orthogonal residual of y against x, which avoids the
    sqrt(eps) floor that arccos of a near-unit cosine carries.  Vectors x and
    y give a float.  (n, m) blocks give the m sines of the column pairs
    (x_j, y_j) as an array, from three block B-applies of m columns each.
    """
    sines, _ = _b_sine_cosine(x, y, B, "b_sine")
    return float(sines[0]) if np.ndim(x) == 1 else sines


@dataclass
class GrowthResult:
    """Outcome of estimator-driven sketch growth."""

    basis: BOrthoBasis
    n_columns: int
    estimate: ErrorEstimate
    history: list
    converged: bool


def grow_sketch_until(
    A: LinearMap,
    B: SpdOperator,
    k0: int,
    tol: float,
    alpha: float = 2.0,
    r_probes: int = 5,
    seed: int = 0,
    step: int = 10,
    max_cols: Optional[int] = None,
    binv_norm: Optional[float] = None,
) -> GrowthResult:
    """Grow a B-orthonormal sketch until the a-posteriori estimate drops below tol.

    Starts from k0 columns and appends ``step`` fresh Gaussian columns per
    round.  Each round extends the existing factorization with
    ``pre_chol_qr_w(..., basis=)``: the new block is projected against the
    cached (Q, BQ) twice (BCGS2) and factorized with one block B-apply; the
    earlier columns and their matvecs are reused as they are.  Per-column
    generator streams make the grown sketch bitwise identical to a one-shot
    draw.  Probes are fresh each round.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tol must be a finite positive number, got {tol}")
    n = B.dim
    if max_cols is None:
        max_cols = n
    max_cols = min(max_cols, n)
    if k0 < 1 or k0 > max_cols:
        raise ConfigError("k0 out of range")
    history: list = []
    basis: Optional[BOrthoBasis] = None
    ncols = 0
    round_no = 0
    while True:
        new = k0 if ncols == 0 else min(step, max_cols - ncols)
        Om_new = gaussian_matrix(n, new, seed, first_col=ncols)
        Y_new = B.apply_inverse(A.apply(Om_new))
        basis = pre_chol_qr_w(Y_new, B, basis=basis)
        ncols += new
        est = posterior_estimate(
            A, B, basis, alpha, r_probes, derive_seed(seed, 9000 + round_no), binv_norm=binv_norm
        )
        history.append((ncols, est.e))
        round_no += 1
        if est.e <= tol or ncols >= max_cols:
            return GrowthResult(basis, ncols, est, history, est.e <= tol)
