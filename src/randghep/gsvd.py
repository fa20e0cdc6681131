"""Randomized generalized SVD under two SPD weights (S, T).

The target decomposition is the weighted one: sigma are the stationary values
of ||A x||_S / ||x||_T, with factors satisfying U^T S U = I and V^T T V = I
and the reconstruction A ~ U Sigma (T V)^T.  At S = T = I (the identity
weight ``sketch._identity``) it is the plain SVD, and the algorithm below is
the randomized SVD of Halko, Martinsson and Tropp (2011, Alg. 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import ConfigError, LinearMap, SpdOperator
from .borth import pre_chol_qr_w
from .sketch import SketchConfig, gaussian_matrix


@dataclass
class GsvdResult:
    """Weighted SVD triplet: U (m x k, U^T S U = I), V (n x k, V^T T V = I), sigma >= 0 descending."""

    U: np.ndarray
    V: np.ndarray
    sigma: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def randomized_gsvd(A: LinearMap, S: SpdOperator, T: SpdOperator, cfg: SketchConfig) -> GsvdResult:
    """Randomized GSVD of A under the weights (S, T), sketched on one side.

    The weighted form of HMT Alg. 5.1, with no square root of S or T:
    Y = A Omega is S-orthonormalized by the block QR ``pre_chol_qr_w`` (in
    place when Y is F-ordered) to Q1 (Q1^T S Q1 = I, with S Q1 cached), so
    A ~ Q1 Q1^T S A.  The right factor comes from
    Z = T^{-1} A^T S Q1 = T^{-1} (Q1^T S A)^T: its T-orthonormal basis V_Z
    (T V_Z cached) and G = V_Z^T T Z, so that Q1^T S A = G^T (T V_Z)^T.  The
    SVD G^T = W Sigma X^T gives U = Q1 W and V = V_Z X.  Omega is drawn from
    ``cfg.seed`` as ``range_finder_b`` draws it.  The cost is r = k + p
    A-applies, then one A^T-apply and one T-solve per kept column of Q1 (at
    most 2r A-type applies); each QR applies its weight once per kept column,
    and the core takes no apply.  At most k singular values are returned,
    one per kept column of the smaller basis.
    """
    m, n = A.dim_out, A.dim_in
    if S.dim != m or T.dim != n:
        raise ConfigError("weight dimensions do not match the operator")
    if cfg.r > min(m, n):
        raise ConfigError(f"sketch size k+p={cfg.r} exceeds min(m, n)={min(m, n)}")

    left = pre_chol_qr_w(A.apply(gaussian_matrix(n, cfg.r, cfg.seed)), S, overwrite_y=True).compact()
    # Z is read again by the core, so its QR works on a copy
    Z = T.apply_inverse(A.apply_transpose(left.WQ))
    right = pre_chol_qr_w(Z, T).compact()
    W, sig, Xt = np.linalg.svd(Z.T @ right.WQ, full_matrices=False)  # G^T = Z^T T V_Z
    kk = min(cfg.k, sig.size)
    diag = {
        "left_rank": int(left.n_kept),
        "right_rank": int(right.n_kept),
    }
    return GsvdResult(U=left.Q @ W[:, :kk], V=right.Q @ Xt[:kk].T, sigma=sig[:kk], diagnostics=diag)
