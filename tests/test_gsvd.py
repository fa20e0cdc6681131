"""Randomized GSVD under SPD weights."""

import numpy as np
import pytest
import scipy.linalg

import randghep as rg
from randghep.operators import ConfigError
from randghep.sketch import SketchConfig, _identity

from conftest import random_spd


def weighted_orthonormal(Bd, r, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((Bd.shape[0], r))
    C = np.linalg.cholesky(X.T @ (Bd @ X))
    return np.linalg.solve(C, X.T).T


def stationary_form_problem(m=30, n=25, r=3, seed=2):
    """A = U0 S0 (T V0)^T with U0^T S U0 = I, V0^T T V0 = I: the exact
    decomposition whose singular values are the stationary values of
    ||Ax||_S / ||x||_T."""
    Sd = random_spd(m, 50.0, seed)
    Td = random_spd(n, 80.0, seed + 1)
    U0 = weighted_orthonormal(Sd, r, seed + 2)
    V0 = weighted_orthonormal(Td, r, seed + 3)
    S0 = np.array([7.0, 3.0, 1.0])
    Ad = (U0 * S0) @ (Td @ V0).T
    return Ad, Sd, Td, S0


class TestRandomizedGsvd:
    def test_identity_weights_match_dense_svd(self):
        # at S = T = I the GSVD is the plain SVD: an exact-rank A is recovered
        rng = np.random.default_rng(4)
        L = rng.standard_normal((18, 3))
        Rm = rng.standard_normal((3, 14))
        Ad = L @ Rm
        res = rg.randomized_gsvd(rg.dense_operator(Ad), _identity(18), _identity(14),
                                 SketchConfig(k=3, p=3, seed=9))
        np.testing.assert_allclose(res.sigma, np.linalg.svd(Ad, compute_uv=False)[:3], rtol=1e-10)
        np.testing.assert_allclose(res.U.T @ res.U, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(res.V.T @ res.V, np.eye(3), atol=1e-12)
        assert np.linalg.norm(Ad - (res.U * res.sigma) @ res.V.T, 2) <= 1e-11 * np.linalg.norm(Ad, 2)

    def test_exact_rank_recovery(self):
        Ad, Sd, Td, S0 = stationary_form_problem()
        res = rg.randomized_gsvd(
            rg.dense_operator(Ad), rg.dense_spd(Sd), rg.dense_spd(Td), SketchConfig(k=3, p=3, seed=5)
        )
        np.testing.assert_allclose(res.sigma, S0, rtol=1e-10)
        assert np.linalg.norm(res.U.T @ (Sd @ res.U) - np.eye(3), 2) <= 1e-10
        assert np.linalg.norm(res.V.T @ (Td @ res.V) - np.eye(3), 2) <= 1e-10

    def test_stationary_value_identity(self):
        Ad, Sd, Td, _ = stationary_form_problem(seed=7)
        res = rg.randomized_gsvd(
            rg.dense_operator(Ad), rg.dense_spd(Sd), rg.dense_spd(Td), SketchConfig(k=3, p=4, seed=3)
        )
        for i in range(3):
            v = res.V[:, i]
            Av = Ad @ v
            quotient = np.sqrt(Av @ (Sd @ Av)) / np.sqrt(v @ (Td @ v))
            assert abs(quotient - res.sigma[i]) <= 1e-8 * max(res.sigma[i], 1.0)

    def test_one_sided_reconstruction_is_the_left_projection(self):
        # with every singular value kept, U Sigma (T V)^T is the S-orthogonal
        # projection Q1 Q1^T S A of A onto the sketched range, to roundoff
        rng = np.random.default_rng(11)
        Ad = rng.standard_normal((16, 12)) * np.logspace(0, -6, 12)
        Sd = random_spd(16, 30.0, 1)
        Td = random_spd(12, 30.0, 2)
        S, T = rg.dense_spd(Sd), rg.dense_spd(Td)
        cfg = SketchConfig(k=10, p=0, seed=6)
        res = rg.randomized_gsvd(rg.dense_operator(Ad), S, T, cfg)
        assert res.sigma.size == 10
        recon = (res.U * res.sigma) @ (Td @ res.V).T
        # rebuild the left basis the factorization used
        Q1 = rg.pre_chol_qr_w(Ad @ rg.gaussian_matrix(12, cfg.r, cfg.seed), S).compact().Q
        eps_s = np.linalg.norm(Ad - Q1 @ (Q1.T @ (Sd @ Ad)), 2)
        assert abs(np.linalg.norm(Ad - recon, 2) - eps_s) <= 1e-12 * np.linalg.norm(Ad, 2)

    def test_counts(self):
        # one side is sketched: r A-applies and r A^T-applies, r T-solves, and
        # each QR applies its weight once per kept column
        rng = np.random.default_rng(2)
        A = rg.dense_operator(rng.standard_normal((30, 20)))
        S, T = rg.dense_spd(random_spd(30, 5.0, 3)), rg.dense_spd(random_spd(20, 5.0, 4))
        res = rg.randomized_gsvd(A, S, T, SketchConfig(k=4, p=3, seed=1))
        assert res.diagnostics == {"left_rank": 7, "right_rank": 7}
        assert (A.matvec_count, S.matvec_count, S.solve_count) == (14, 7, 0)
        assert (T.matvec_count, T.solve_count) == (7, 7)

    def test_oversized_sketch_rejected(self):
        with pytest.raises(ConfigError):
            rg.randomized_gsvd(
                rg.dense_operator(np.eye(5)),
                rg.dense_spd(np.eye(5)),
                rg.dense_spd(np.eye(5)),
                SketchConfig(k=5, p=2, seed=0),
            )



def decaying_problem(d: float, m: int = 300, n: int = 250):
    """A = U0 diag(d^j) V0^T (orthonormal U0, V0) with weights S, T of
    condition number 10, and the top singular values of the dense weighted
    SVD, those of Ls^T A Lt^{-T} for S = Ls Ls^T and T = Lt Lt^T."""
    rng = np.random.default_rng(3)
    U0, _ = np.linalg.qr(rng.standard_normal((m, n)))
    V0, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Ad = (U0 * d ** np.arange(n)) @ V0.T
    Sd, Td = random_spd(m, 10.0, 4), random_spd(n, 10.0, 5)
    Ls, Lt = np.linalg.cholesky(Sd), np.linalg.cholesky(Td)
    sigma = np.linalg.svd(scipy.linalg.solve_triangular(Lt, (Ls.T @ Ad).T, lower=True).T, compute_uv=False)
    return Ad, Sd, Td, sigma


#: The median over seeds 0-19 of the worst top-10 relative sigma error of the
#: two-sided sketch that this one-sided GSVD replaced (Y1 = A Omega1,
#: Y2 = T^{-1} A^T Omega2, core Q1^T S A Q2; 3(k+p) A-type applies), measured
#: on ``decaying_problem(d)`` with k = p = 10.  The one-sided medians were
#: 1.2e-7, 4.8e-3 and 0.135 at the same setup, with 2(k+p) applies.
TWO_SIDED_MEDIANS = {0.5: 3.98e-7, 0.8: 1.07e-2, 0.95: 0.277}


@pytest.mark.parametrize("d", sorted(TWO_SIDED_MEDIANS))
def test_one_sided_median_error_below_two_sided(d):
    Ad, Sd, Td, sigma = decaying_problem(d)
    A, S, T = rg.dense_operator(Ad), rg.dense_spd(Sd), rg.dense_spd(Td)
    errors = [np.max(np.abs(rg.randomized_gsvd(A, S, T, SketchConfig(k=10, p=10, seed=seed)).sigma
                            - sigma[:10]) / sigma[:10])
              for seed in range(20)]
    assert np.median(errors) < TWO_SIDED_MEDIANS[d]
