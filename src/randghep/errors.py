"""A-posteriori and a-priori error bounds, eigenpair perturbation bounds, and
dense reference oracles for the B-weighted geometry.

The oracles (B-norm, generalized singular values, exact GHEP) are allowed to
form symmetric square roots of B -- the solvers themselves never are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg

from .borth import BOrthoBasis, pre_chol_qr_w
from .operators import (
    ConfigError,
    LinearMap,
    NotPositiveDefiniteError,
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
    """Dense reference data for a pencil: all eigenvalues, generalized singular
    values of C = B^{-1}A, and the norms of B entering the bounds."""

    lambdas: np.ndarray
    sigmas_B: np.ndarray
    binv_norm: float
    b_norm: float
    kappa_B: float
    eigenvectors: Optional[np.ndarray] = None


class EigenpairBounds(NamedTuple):
    lambda_bound: float
    sine_bound: float
    gap_degenerate: bool


def _spd_eig_sqrt(B: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigen square root of an SPD matrix; returns (B^{1/2}, B^{-1/2}, eigenvalues)."""
    B = np.asarray(B, dtype=float)
    check_symmetric(B)
    w, V = np.linalg.eigh(B)
    if w[0] <= 0.0:
        raise NotPositiveDefiniteError("B has a non-positive eigenvalue")
    sq = np.sqrt(w)
    return (V * sq) @ V.T, (V / sq) @ V.T, w


def b_norm(M: np.ndarray, B: np.ndarray) -> float:
    """The induced matrix B-norm ||M||_B = ||B^{1/2} M B^{-1/2}||_2 (dense oracle)."""
    M = np.asarray(M, dtype=float)
    Bh, Bih, _ = _spd_eig_sqrt(B)
    return float(np.linalg.norm(Bh @ M @ Bih, 2))


def dense_ghep_oracle(A: np.ndarray, B: np.ndarray) -> SpectrumReference:
    """All eigenpairs of the pencil (A, B) via the Cholesky-congruence reduction.

    Eigenvectors come back B-orthonormal, eigenvalues descending.  The
    generalized singular values of C = B^{-1}A (stationary values of
    ||Cx||_B / ||x||_2) are the singular values of B^{1/2} C, computed with the
    eigen square root of B.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    check_symmetric(A)
    Bh, Bih, w = _spd_eig_sqrt(B)
    lam, X = scipy.linalg.eigh(A, B, check_finite=False)  # LAPACK reduces via B = L L^T
    lam, X = lam[::-1], X[:, ::-1]
    C = scipy.linalg.solve(B, A, assume_a="pos", check_finite=False)
    sigmas = np.linalg.svd(Bh @ C, compute_uv=False)
    return SpectrumReference(
        lambdas=lam,
        sigmas_B=sigmas,
        binv_norm=float(1.0 / w[0]),
        b_norm=float(w[-1]),
        kappa_B=float(w[-1] / w[0]),
        eigenvectors=X,
    )


def range_error_exact(A: np.ndarray, B: np.ndarray, Q: np.ndarray) -> float:
    """Exact f = ||(I - Q Q^T B) C||_B for a dense pencil (oracle scale)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != B.shape[0]:
        raise ConfigError("Q rows must match the pencil dimension")
    C = scipy.linalg.solve(B, A, assume_a="pos", check_finite=False)
    if Q.shape[1] == 0:
        resid = C
    else:
        resid = C - Q @ ((B @ Q).T @ C)
    return b_norm(resid, B)


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
    if alpha <= 1.0:
        raise ConfigError("alpha must exceed 1")
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


def b_angle(x: np.ndarray, y: np.ndarray, B: SpdOperator) -> float:
    """Principal angle in the B-geometry: arccos(|<x,y>_B| / (||x||_B ||y||_B))."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    Bx = B.apply(x)
    By = B.apply(y)
    nx = math.sqrt(max(x @ Bx, 0.0))
    ny = math.sqrt(max(y @ By, 0.0))
    if nx == 0.0 or ny == 0.0:
        raise ConfigError("b_angle needs nonzero vectors")
    c = abs(y @ Bx) / (nx * ny)
    return float(math.acos(min(c, 1.0)))


def b_sine(x: np.ndarray, y: np.ndarray, B: SpdOperator) -> float:
    """sin of the B-geometry angle, accurate for nearly parallel vectors.

    Computed from the B-orthogonal residual of y against x, which avoids the
    sqrt(eps) floor that arccos of a near-unit cosine carries.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    Bx = B.apply(x)
    nx2 = float(x @ Bx)
    if nx2 <= 0.0 or not np.any(y):
        raise ConfigError("b_sine needs nonzero vectors")
    resid = y - x * (float(y @ Bx) / nx2)
    ny2 = float(y @ B.apply(y))
    r2 = float(resid @ B.apply(resid))
    return float(math.sqrt(max(r2, 0.0) / ny2)) if ny2 > 0.0 else 0.0


@dataclass
class GrowthResult:
    """Outcome of estimator-driven sketch growth."""

    basis: BOrthoBasis
    Y: np.ndarray
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
    n = B.dim
    if max_cols is None:
        max_cols = n
    max_cols = min(max_cols, n)
    if k0 < 1 or k0 > max_cols:
        raise ConfigError("k0 out of range")
    history: list = []
    basis: Optional[BOrthoBasis] = None
    Y = np.empty((n, 0))
    ncols = 0
    round_no = 0
    while True:
        new = k0 if ncols == 0 else min(step, max_cols - ncols)
        Om_new = gaussian_matrix(n, new, seed, first_col=ncols)
        Y_new = B.apply_inverse(A.apply(Om_new))
        basis = pre_chol_qr_w(Y_new, B, basis=basis)
        Y = np.hstack([Y, Y_new])
        ncols += new
        est = posterior_estimate(
            A, B, basis, alpha, r_probes, derive_seed(seed, 9000 + round_no), binv_norm=binv_norm
        )
        history.append((ncols, est.e))
        round_no += 1
        if est.e <= tol:
            return GrowthResult(basis, Y, ncols, est, history, True)
        if ncols >= max_cols:
            return GrowthResult(basis, Y, ncols, est, history, False)
