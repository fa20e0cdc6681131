"""Randomized GSVD under SPD weights and the matrix-pair bridge."""

import numpy as np
import pytest
import scipy.linalg

import randghep as rg
from randghep import gsvd
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


def pair_values_dense_oracle(A, B):
    """Independent reference: sqrt of eig(A^T A, B^T B), descending."""
    w = scipy.linalg.eigh(A.T @ A, B.T @ B, eigvals_only=True)
    return np.sqrt(np.maximum(w[::-1], 0.0))


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
        recon = gsvd.reconstruct(res, T)
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


class TestPairValues:
    def test_identity_b_gives_plain_singular_values(self):
        rng = np.random.default_rng(3)
        Ad = rng.standard_normal((10, 6))
        sig = rg.gsvd_pair_values(Ad, np.eye(6), SketchConfig(k=6, p=0, seed=2))
        ref = np.linalg.svd(Ad, compute_uv=False)
        np.testing.assert_allclose(sig, ref, rtol=1e-9)

    def test_diagonal_example(self):
        # stationary values of ||x|| / ||Bx||: direct computation gives 1/2, 1/4
        sig = rg.gsvd_pair_values(np.eye(2), np.diag([2.0, 4.0]), SketchConfig(k=2, p=0, seed=1))
        ref = pair_values_dense_oracle(np.eye(2), np.diag([2.0, 4.0]))
        np.testing.assert_allclose(ref, [0.5, 0.25], atol=1e-14)
        np.testing.assert_allclose(sig, [0.5, 0.25], rtol=1e-10)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(8)
        Ad = rng.standard_normal((8, 5))
        Bd = rng.standard_normal((7, 5)) + np.vstack([np.eye(5) * 3, np.zeros((2, 5))])
        cfg = SketchConfig(k=5, p=0, seed=4)
        s1 = rg.gsvd_pair_values(Ad, Bd, cfg)
        s3 = rg.gsvd_pair_values(3.0 * Ad, Bd, cfg)
        np.testing.assert_allclose(s3, 3.0 * s1, rtol=1e-10)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(15)
        Ad = rng.standard_normal((9, 6))
        Bd = rng.standard_normal((8, 6)) + np.vstack([2 * np.eye(6), np.zeros((2, 6))])
        sig = rg.gsvd_pair_values(Ad, Bd, SketchConfig(k=6, p=0, seed=5))
        ref = pair_values_dense_oracle(Ad, Bd)
        np.testing.assert_allclose(sig, ref, rtol=1e-8)

    def test_caller_matrix_stays_writeable(self):
        # the operator wraps a private copy, so the caller's A is not frozen
        Ad = np.random.default_rng(4).standard_normal((7, 5))
        rg.gsvd_pair_values(Ad, np.eye(5), SketchConfig(k=3, p=1, seed=2))
        assert Ad.flags.writeable

    def test_rank_deficient_b_rejected(self):
        Bd = np.ones((4, 3))
        with pytest.raises(ConfigError):
            rg.gsvd_pair_values(np.eye(3), Bd, SketchConfig(k=2, p=0, seed=1))
