"""Randomized generalized SVD under two SPD weights (S, T).

The target decomposition is the weighted one: sigma are the stationary values
of ||A x||_S / ||x||_T, with factors satisfying U^T S U = I and V^T T V = I
and the reconstruction A ~ U Sigma (T V)^T.  The right-hand sketch therefore
ranges over T^{-1} A^T (the stationary vectors solve A^T S A v = sigma^2 T v,
so they live in T^{-1} range(A^T)); the core product is F = Q1^T S A Q2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import ConfigError, LinearMap, SpdOperator
from .borth import pre_chol_qr_w
from .sketch import SketchConfig, derive_seed, gaussian_matrix


@dataclass
class GsvdResult:
    """Weighted SVD triplet: U (m x k, U^T S U = I), V (n x k, V^T T V = I), sigma >= 0 descending."""

    U: np.ndarray
    V: np.ndarray
    sigma: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def randomized_gsvd(A: LinearMap, S: SpdOperator, T: SpdOperator, cfg: SketchConfig) -> GsvdResult:
    """Randomized GSVD of A under the weights (S, T).

    Sketches both sides with independent Gaussian matrices derived from one
    seed: Y1 = A Omega1 is S-orthonormalized and Y2 = T^{-1} A^T Omega2 is
    T-orthonormalized, both by the block QR ``pre_chol_qr_w``, and the small
    core F = Q1^T S A Q2 is decomposed densely.  Columns beyond the requested
    rank are discarded after sorting.
    """
    m, n = A.dim_out, A.dim_in
    if S.dim != m or T.dim != n:
        raise ConfigError("weight dimensions do not match the operator")
    if cfg.r > min(m, n):
        raise ConfigError(f"sketch size k+p={cfg.r} exceeds min(m, n)={min(m, n)}")

    Omega1 = gaussian_matrix(n, cfg.r, derive_seed(cfg.seed, 1))
    Omega2 = gaussian_matrix(m, cfg.r, derive_seed(cfg.seed, 2))
    Y1 = A.apply(Omega1)
    Y2 = T.apply_inverse(A.apply_transpose(Omega2))
    Q1 = pre_chol_qr_w(Y1, S).compact().Q
    Q2 = pre_chol_qr_w(Y2, T).compact().Q

    F = Q1.T @ S.apply(A.apply(Q2))
    Ut, sig, Vt = np.linalg.svd(F)
    kk = min(cfg.k, sig.size)
    U = Q1 @ Ut[:, :kk]
    V = Q2 @ Vt[:kk].T
    diag = {
        "left_rank": int(Q1.shape[1]),
        "right_rank": int(Q2.shape[1]),
    }
    return GsvdResult(U=U, V=V, sigma=sig[:kk], diagnostics=diag)

