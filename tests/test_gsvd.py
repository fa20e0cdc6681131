"""Randomized GSVD under SPD weights."""

import numpy as np
import pytest

import randghep as rg
from randghep.operators import ConfigError
from randghep.sketch import SketchConfig

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
    def test_identity_weights_match_randomized_svd(self):
        rng = np.random.default_rng(4)
        L = rng.standard_normal((18, 3))
        Rm = rng.standard_normal((3, 14))
        Ad = L @ Rm
        A = rg.dense_operator(Ad)
        eye_s = rg.dense_spd(np.eye(18))
        eye_t = rg.dense_spd(np.eye(14))
        res = rg.randomized_gsvd(A, eye_s, eye_t, SketchConfig(k=3, p=3, seed=9))
        _, sig, _ = rg.randomized_svd(A, SketchConfig(k=3, p=3, seed=9))
        np.testing.assert_allclose(res.sigma, sig, rtol=1e-10, atol=1e-12)

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

    def test_two_sided_projection_bound(self):
        # measured reconstruction error against the measured one-sided errors
        rng = np.random.default_rng(11)
        Ad = rng.standard_normal((16, 12)) * np.logspace(0, -6, 12)
        Sd = random_spd(16, 30.0, 1)
        Td = random_spd(12, 30.0, 2)
        S, T = rg.dense_spd(Sd), rg.dense_spd(Td)
        cfg = SketchConfig(k=6, p=4, seed=6)
        res = rg.randomized_gsvd(rg.dense_operator(Ad), S, T, cfg)
        recon = (res.U * res.sigma) @ (Td @ res.V).T
        # rebuild the projectors the factorization used
        Om1 = rg.gaussian_matrix(12, cfg.r, rg.derive_seed(cfg.seed, 1))
        Om2 = rg.gaussian_matrix(16, cfg.r, rg.derive_seed(cfg.seed, 2))
        Q1 = rg.pre_chol_qr_w(Ad @ Om1, S).Q
        Q2 = rg.pre_chol_qr_w(T.apply_inverse(Ad.T @ Om2), T).Q
        eps_s = np.linalg.norm(Ad - Q1 @ (Q1.T @ (Sd @ Ad)), 2)
        eps_t = np.linalg.norm(Ad - (Ad @ (Td @ Q2)) @ Q2.T, 2)
        p_s_norm = np.linalg.norm(Q1 @ (Q1.T @ Sd), 2)
        assert np.linalg.norm(Ad - recon, 2) <= eps_s + eps_t * p_s_norm + 1e-8

    def test_oversized_sketch_rejected(self):
        with pytest.raises(ConfigError):
            rg.randomized_gsvd(
                rg.dense_operator(np.eye(5)),
                rg.dense_spd(np.eye(5)),
                rg.dense_spd(np.eye(5)),
                SketchConfig(k=5, p=2, seed=0),
            )

