"""Error estimators, closed-form bounds, and the dense B-geometry oracles."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import randghep as rg
from randghep import errors
from randghep.operators import ConfigError, NotPositiveDefiniteError, NumericalError
from randghep.sketch import SketchConfig, range_finder_b

from conftest import make_kle_pencil, random_spd


class TestDenseGhepOracle:
    def test_identity_b(self):
        ref = errors.dense_ghep_oracle(np.diag([3.0, 1.0]), np.eye(2))
        np.testing.assert_allclose(ref.lambdas, [3.0, 1.0])
        np.testing.assert_allclose(ref.sigmas_B, [3.0, 1.0])

    def test_proportional_pencil(self):
        D = np.diag([4.0, 1.0])
        ref = errors.dense_ghep_oracle(D, D)
        np.testing.assert_allclose(ref.lambdas, [1.0, 1.0])

    def test_residuals_on_random_pencil(self):
        rng = np.random.default_rng(5)
        n = 30
        Ad = rng.standard_normal((n, n))
        Ad = (Ad + Ad.T) / 2.0
        Bd = random_spd(n, 100.0, 3)
        ref = errors.dense_ghep_oracle(Ad, Bd)
        X = ref.eigenvectors
        resid = Ad @ X - (Bd @ X) * ref.lambdas
        assert np.abs(resid).max() <= 1e-9
        assert np.linalg.norm(X.T @ (Bd @ X) - np.eye(n), 2) <= 1e-10

    def test_b_not_spd_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            errors.dense_ghep_oracle(np.eye(2), np.diag([1.0, -2.0]))

    def test_sigma_b_dominated_by_scaled_singular_values(self):
        rng = np.random.default_rng(9)
        n = 20
        Ad = rng.standard_normal((n, n))
        Ad = (Ad + Ad.T) / 2.0
        Bd = random_spd(n, 40.0, 7)
        ref = errors.dense_ghep_oracle(Ad, Bd)
        C = np.linalg.solve(Bd, Ad)
        s = np.linalg.svd(C, compute_uv=False)
        assert np.all(ref.sigmas_B <= math.sqrt(ref.b_norm) * s + 1e-12)


def eig_sqrt(Bd):
    """(B^{1/2}, B^{-1/2}, eigenvalues) from a symmetric eigensolve: the
    reference formulas the Cholesky-based oracles replace."""
    w, V = np.linalg.eigh(Bd)
    sq = np.sqrt(w)
    return (V * sq) @ V.T, (V / sq) @ V.T, w


def range_error_eig_sqrt(Ad, Bd, Q):
    """||B^{1/2} (I - Q Q^T B) C B^{-1/2}||_2 with C = B^{-1}A, via the eigen square root."""
    C = np.linalg.solve(Bd, Ad)
    Bh, Bih, _ = eig_sqrt(Bd)
    return np.linalg.norm(Bh @ (C - Q @ ((Bd @ Q).T @ C)) @ Bih, 2)


class TestCholeskyOracleAgainstEigenSquareRoot:
    """The oracles on B = L L^T agree with the eigen-square-root formulas."""

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_reference_fields(self, nu):
        pencil = make_kle_pencil(nu)
        Ad, Bd = pencil.dense_a, pencil.dense_b
        ref = errors.dense_ghep_oracle(Ad, Bd)
        Bh, _, w = eig_sqrt(Bd)
        sigmas = np.linalg.svd(Bh @ np.linalg.solve(Bd, Ad), compute_uv=False)
        assert np.max(np.abs(ref.sigmas_B - sigmas)) <= 1e-13 * sigmas[0]
        assert ref.binv_norm == pytest.approx(1.0 / w[0], rel=1e-13)
        assert ref.b_norm == pytest.approx(w[-1], rel=1e-13)
        assert ref.kappa_B == pytest.approx(w[-1] / w[0], rel=1e-13)

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_range_error_and_b_norm(self, nu):
        pencil = make_kle_pencil(nu)
        Ad, Bd = pencil.dense_a, pencil.dense_b
        sigma1 = errors.dense_ghep_oracle(Ad, Bd).sigmas_B[0]
        C = np.linalg.solve(Bd, Ad)
        Bh, Bih, _ = eig_sqrt(Bd)
        rng = np.random.default_rng(17)
        for k in (5, 20, 40, 80):
            Q = range_finder_b(pencil.A, pencil.B, SketchConfig(k=k, p=5, seed=k)).basis.Q
            f = errors.range_error_exact(Ad, Bd, Q)
            assert abs(f - range_error_eig_sqrt(Ad, Bd, Q)) <= 1e-14 * sigma1
            resid = C - Q @ ((Bd @ Q).T @ C)
            assert abs(errors.b_norm(resid, Bd) - np.linalg.norm(Bh @ resid @ Bih, 2)) <= 1e-14 * sigma1
            # Q^T B Q = G^T G with singular values of G in [0.5, 1.5]: not B-orthonormal
            U, _ = np.linalg.qr(rng.standard_normal((Q.shape[1], Q.shape[1])))
            Qg = Q @ (np.linspace(0.5, 1.5, Q.shape[1])[:, None] * U)
            assert np.linalg.norm(Qg.T @ Bd @ Qg - np.eye(Q.shape[1]), 2) >= 0.5
            fg = errors.range_error_exact(Ad, Bd, Qg)
            assert abs(fg - range_error_eig_sqrt(Ad, Bd, Qg)) <= 1e-14 * sigma1


class TestOracleLaziness:
    def test_eigenpairs_do_not_compute_the_rest(self):
        pencil = make_kle_pencil(1.5, n=41)
        ref = errors.dense_ghep_oracle(pencil.dense_a, pencil.dense_b)
        assert ref.lambdas.shape == (41,) and ref.eigenvectors.shape == (41, 41)
        lazy = ("sigmas_B", "binv_norm", "b_norm", "kappa_B")
        assert not any(name in vars(ref) for name in lazy)
        assert ref.kappa_B == pytest.approx(ref.b_norm * ref.binv_norm)
        assert "sigmas_B" not in vars(ref)
        assert ref.sigmas_B[0] > 0.0
        assert all(name in vars(ref) for name in lazy)

    def test_lambdas_assignable(self):
        ref = errors.dense_ghep_oracle(np.diag([3.0, 1.0]), np.eye(2))
        ref.lambdas = np.array([2.0, 1.0])
        np.testing.assert_array_equal(ref.lambdas, [2.0, 1.0])


class TestOracleTypedFailures:
    def test_dense_ghep_oracle(self):
        A = np.eye(3)
        A[0, 1] = A[1, 0] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            errors.dense_ghep_oracle(A, np.eye(3))
        with pytest.raises(NumericalError, match="non-finite"):
            errors.dense_ghep_oracle(np.eye(3), np.diag([1.0, np.inf, 1.0]))
        with pytest.raises(NotPositiveDefiniteError):
            errors.dense_ghep_oracle(np.eye(3), np.diag([1.0, 0.0, 1.0]))

    def test_range_error_exact(self):
        Q = np.ones((3, 1))
        Q[2, 0] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            errors.range_error_exact(np.eye(3), np.eye(3), Q)
        with pytest.raises(NumericalError, match="non-finite"):
            errors.range_error_exact(np.full((3, 3), np.nan), np.eye(3), np.ones((3, 1)))
        with pytest.raises(NotPositiveDefiniteError):
            errors.range_error_exact(np.eye(3), np.diag([1.0, -1.0, 1.0]), np.ones((3, 1)))

    def test_reference_range_error(self):
        ref = errors.dense_ghep_oracle(np.eye(3), np.eye(3))
        Q = np.ones((3, 1))
        Q[2, 0] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            ref.range_error(Q)
        with pytest.raises(ConfigError):
            ref.range_error(np.ones((2, 1)))

    def test_b_norm(self):
        with pytest.raises(NumericalError, match="non-finite"):
            errors.b_norm(np.diag([1.0, -np.inf]), np.eye(2))
        with pytest.raises(NumericalError, match="non-finite"):
            errors.b_norm(np.eye(2), np.diag([np.nan, 1.0]))
        with pytest.raises(NotPositiveDefiniteError):
            errors.b_norm(np.eye(2), np.diag([1.0, -2.0]))
        with pytest.raises(ConfigError):
            errors.b_norm(np.eye(3), np.eye(2))


class TestBNorm:
    def test_identity_weight(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((8, 8))
        assert errors.b_norm(M, np.eye(8)) == pytest.approx(np.linalg.norm(M, 2))

    def test_identity_matrix(self):
        Bd = random_spd(10, 25.0, 4)
        assert errors.b_norm(np.eye(10), Bd) == pytest.approx(1.0, abs=1e-12)

    def test_kappa_sandwich(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            n = 12
            M = rng.standard_normal((n, n))
            Bd = random_spd(n, 10.0 ** rng.uniform(0.5, 4.0), trial)
            w = np.linalg.eigvalsh(Bd)
            kappa = w[-1] / w[0]
            m2 = np.linalg.norm(M, 2)
            mb = errors.b_norm(M, Bd)
            assert m2 / math.sqrt(kappa) <= mb * (1 + 1e-10)
            assert mb <= math.sqrt(kappa) * m2 * (1 + 1e-10)

    def test_two_square_root_routes_agree(self):
        # eigen square root vs. Cholesky congruence give the same norm
        rng = np.random.default_rng(12)
        M = rng.standard_normal((15, 15))
        Bd = random_spd(15, 1000.0, 2)
        L = np.linalg.cholesky(Bd)
        via_chol = np.linalg.norm(L.T @ M @ np.linalg.inv(L).T, 2)
        assert errors.b_norm(M, Bd) == pytest.approx(via_chol, rel=1e-10)

    def test_vector_norm_sandwich(self):
        rng = np.random.default_rng(31)
        for trial in range(100):
            n = 9
            Bd = random_spd(n, 10.0 ** rng.uniform(0, 3), 100 + trial)
            x = rng.standard_normal(n)
            w = np.linalg.eigvalsh(Bd)
            xb2 = x @ (Bd @ x)
            x22 = x @ x
            assert x22 / (1.0 / w[0]) <= xb2 * (1 + 1e-10)
            assert xb2 <= x22 * w[-1] * (1 + 1e-10)


class TestRangeErrorExact:
    def test_full_basis_gives_zero(self):
        pencil = make_kle_pencil(0.5, n=41)
        ref = errors.dense_ghep_oracle(pencil.dense_a, pencil.dense_b)
        f = errors.range_error_exact(pencil.dense_a, pencil.dense_b, ref.eigenvectors)
        assert f <= 1e-10 * ref.sigmas_B[0]

    def test_empty_basis_gives_full_norm(self):
        pencil = make_kle_pencil(0.5, n=41)
        C = np.linalg.solve(pencil.dense_b, pencil.dense_a)
        f = errors.range_error_exact(pencil.dense_a, pencil.dense_b, np.zeros((41, 0)))
        assert f == pytest.approx(errors.b_norm(C, pencil.dense_b), rel=1e-12)

    def test_tracks_theory_scale(self, kle_oracle):
        # f_k should sit within a factor 10 of sqrt(||B^-1||) * sigma_{B,k+1}
        pencil = make_kle_pencil(2.5)
        ref = kle_oracle(2.5)
        res = range_finder_b(pencil.A, pencil.B, SketchConfig(k=20, p=5, seed=3))
        f = errors.range_error_exact(pencil.dense_a, pencil.dense_b, res.basis.Q)
        guide = math.sqrt(ref.binv_norm) * ref.sigmas_B[20]
        assert guide / 10.0 <= f <= 10.0 * guide


class TestCachedRangeError:
    """SpectrumReference.range_error: the cached A^ and factor of one oracle."""

    def test_bitwise_equal_to_range_error_exact(self, kle_oracle):
        pencil = make_kle_pencil(2.5)
        ref = kle_oracle(2.5)
        rng = np.random.default_rng(4)
        for k in (0, 5, 40):
            Q = range_finder_b(pencil.A, pencil.B, SketchConfig(k=max(k, 1), p=5, seed=k)).basis.Q[:, :k]
            for basis in (Q, Q @ rng.uniform(0.5, 1.5, (k, k))):
                assert ref.range_error(basis) == errors.range_error_exact(pencil.dense_a, pencil.dense_b, basis)

    def test_ahat_is_cached_and_left_untouched(self):
        pencil = make_kle_pencil(1.5, n=41)
        ref = errors.dense_ghep_oracle(pencil.dense_a, pencil.dense_b)
        assert "Ahat" not in vars(ref)
        L = np.linalg.cholesky(pencil.dense_b)
        np.testing.assert_allclose(L @ ref.Ahat @ L.T, pencil.dense_a, rtol=0, atol=1e-12 * ref.lambdas[0])
        before = ref.Ahat.copy()
        Q = range_finder_b(pencil.A, pencil.B, SketchConfig(k=5, p=2, seed=1)).basis.Q
        ref.range_error(Q)
        ref.range_error(Q[:, :0])
        assert vars(ref)["Ahat"] is ref.Ahat
        np.testing.assert_array_equal(ref.Ahat, before)


class TestNorm2:
    """_norm2 = sqrt(lambda_max(M^T M)) against the SVD's sigma_1."""

    @staticmethod
    def _check(M):
        expected = scipy.linalg.svdvals(M)[0]
        for layout in (np.asfortranarray(M), np.ascontiguousarray(M)):
            assert abs(errors._norm2(layout.copy(order="K")) - expected) <= 1e-14 * expected

    def test_kle_range_residual(self, kle_oracle):
        pencil = make_kle_pencil(2.5)
        ref = kle_oracle(2.5)
        Q = range_finder_b(pencil.A, pencil.B, SketchConfig(k=100, p=5, seed=0)).basis.Q
        W = ref.L.T @ Q
        G = ref.Ahat - W @ (W.T @ ref.Ahat)  # f = ||G||_2
        assert scipy.linalg.svdvals(G)[0] <= 1e-8 * ref.lambdas[0]
        self._check(G)

    def test_non_symmetric_b_norm_matrix(self):
        rng = np.random.default_rng(21)
        M = rng.standard_normal((30, 30))
        L = np.linalg.cholesky(random_spd(30, 1e4, 5))
        self._check(L.T @ M @ np.linalg.inv(L).T)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_no_overflow_or_underflow(self, scale):
        rng = np.random.default_rng(8)
        self._check(scale * rng.standard_normal((20, 20)))

    def test_one_by_one(self):
        assert errors._norm2(np.array([[-3.5]])) == 3.5
        self._check(np.array([[1e-300]]))

    def test_zero_matrix(self):
        assert errors._norm2(np.zeros((6, 6))) == 0.0

    def test_non_finite_raises(self):
        with pytest.raises(NumericalError, match="non-finite"):
            errors._norm2(np.array([[1.0, np.inf], [0.0, 1.0]]))


class TestPosteriorEstimate:
    def test_full_range_gives_zero(self):
        pencil = make_kle_pencil(0.5, n=41)
        res = range_finder_b(pencil.A, pencil.B, SketchConfig(k=30, p=11, seed=2))
        est = errors.posterior_estimate(pencil.A, pencil.B, res.basis, 2.0, 5, seed=7)
        C = np.linalg.solve(pencil.dense_b, pencil.dense_a)
        scale = errors.b_norm(C, pencil.dense_b)
        assert est.e <= 1e-10 * scale

    def test_alpha_homogeneity(self):
        pencil = make_kle_pencil(1.5)
        res = range_finder_b(pencil.A, pencil.B, SketchConfig(k=10, p=5, seed=2))
        e1 = errors.posterior_estimate(pencil.A, pencil.B, res.basis, 2.0, 5, seed=3).e
        e2 = errors.posterior_estimate(pencil.A, pencil.B, res.basis, 4.0, 5, seed=3).e
        assert e2 == pytest.approx(2.0 * e1, rel=1e-14)

    def test_crude_source_flagged(self):
        pencil = make_kle_pencil(1.5)
        res = range_finder_b(pencil.A, pencil.B, SketchConfig(k=8, p=4, seed=2))
        est = errors.posterior_estimate(pencil.A, pencil.B, res.basis, 2.0, 5, seed=1)
        assert est.source == "crude_lower_bound"
        est2 = errors.posterior_estimate(pencil.A, pencil.B, res.basis, 2.0, 5, seed=1, binv_norm=400.0)
        assert est2.source == "exact_binv_norm"
        assert est2.probability_floor == pytest.approx(1.0 - 2.0**-5)

    def test_estimate_dominates_exact_error(self, kle_oracle):
        pencil = make_kle_pencil(1.5)
        ref = kle_oracle(1.5)
        res = range_finder_b(pencil.A, pencil.B, SketchConfig(k=20, p=5, seed=5))
        f = errors.range_error_exact(pencil.dense_a, pencil.dense_b, res.basis.Q)
        hits = 0
        trials = 40
        for t in range(trials):
            est = errors.posterior_estimate(
                pencil.A, pencil.B, res.basis, 2.0, 5, seed=100 + t, binv_norm=ref.binv_norm
            )
            hits += est.e >= f
        assert hits / trials >= 1.0 - 2.0**-5 - 0.05

    def test_bad_alpha(self):
        pencil = make_kle_pencil(0.5, n=41)
        res = range_finder_b(pencil.A, pencil.B, SketchConfig(k=5, p=2, seed=2))
        with pytest.raises(ConfigError):
            errors.posterior_estimate(pencil.A, pencil.B, res.basis, 1.0, 5, seed=1)

    @pytest.mark.parametrize("alpha, binv_norm", [
        (np.nan, None), (np.inf, None), (2.0, -1.0), (2.0, 0.0), (2.0, np.nan), (2.0, np.inf),
    ])
    def test_bad_alpha_or_binv_norm_typed(self, alpha, binv_norm):
        pencil = make_kle_pencil(0.5, n=41)
        res = range_finder_b(pencil.A, pencil.B, SketchConfig(k=5, p=2, seed=2))
        applies = pencil.A.matvec_count
        with pytest.raises(ConfigError):
            errors.posterior_estimate(pencil.A, pencil.B, res.basis, alpha, 5, seed=1,
                                      binv_norm=binv_norm)
        assert pencil.A.matvec_count == applies


class TestBinvCrude:
    def test_identity(self):
        Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((10, 4)))
        assert errors.binv_norm_crude(Q) == pytest.approx(1.0)

    def test_diagonal_example(self):
        # B = diag(1/4, 1): the B-normalized first coordinate has 2-norm 2,
        # so the bound hits ||B^-1|| = 4 exactly
        Q = np.array([[2.0], [0.0]])
        assert errors.binv_norm_crude(Q) == pytest.approx(4.0)

    def test_is_lower_bound(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            Bd = random_spd(12, 10.0 ** rng.uniform(0.5, 3.5), 50 + trial)
            B = rg.dense_spd(Bd)
            res = range_finder_b(
                rg.dense_operator(Bd), B, SketchConfig(k=4, p=2, seed=trial)
            )
            exact = 1.0 / np.linalg.eigvalsh(Bd)[0]
            assert errors.binv_norm_crude(res.basis.Q) <= exact + 1e-12


class TestAprioriBound:
    def test_exact_rank_tail_gives_zero(self):
        assert errors.apriori_bound(np.array([3.0, 1.0, 0.0, 0.0]), 2, 5, 1.0) == 0.0

    def test_hand_evaluated_case(self):
        # k=1, p=2, sigma = (1, 0.1, 0), binv = 1:
        # (1 + sqrt(1/1)) * 0.1 + (e*sqrt(3)/2) * 0.1
        expect = 2.0 * 0.1 + (math.e * math.sqrt(3.0) / 2.0) * 0.1
        got = errors.apriori_bound(np.array([1.0, 0.1, 0.0]), 1, 2, 1.0)
        assert got == pytest.approx(expect, rel=1e-14)

    def test_p_too_small(self):
        with pytest.raises(ConfigError):
            errors.apriori_bound(np.array([1.0, 0.1]), 1, 1, 1.0)

    def test_nan_free_on_short_spectra(self):
        assert errors.apriori_bound(np.array([1.0]), 3, 5, 2.0) == 0.0


class TestEigenpairBounds:
    def test_zero_error(self):
        assert errors.eigenpair_bounds(0.0, 1.0) == (0.0, 0.0, False)

    def test_direct_formula(self):
        b = errors.eigenpair_bounds(0.1, 1.0)
        assert b.lambda_bound == pytest.approx(0.04)
        assert b.sine_bound == pytest.approx(0.2)

    def test_degenerate_gap(self):
        b = errors.eigenpair_bounds(0.1, 0.0)
        assert b.gap_degenerate
        assert b.lambda_bound == pytest.approx(0.2)
        assert b.sine_bound == 1.0

    def test_sine_capped(self):
        assert errors.eigenpair_bounds(10.0, 1.0).sine_bound == 1.0

    @given(eps=st.floats(0, 1e3), delta=st.floats(1e-12, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_bounds_nonnegative(self, eps, delta):
        b = errors.eigenpair_bounds(eps, delta)
        assert b.lambda_bound >= 0.0
        assert 0.0 <= b.sine_bound <= 1.0


class TestSinglePassBound:
    def test_zero_epsilon(self):
        assert errors.single_pass_bound(0.0, 1.0, 3.0, 1.0) == 0.0

    def test_direct_formula(self):
        assert errors.single_pass_bound(0.01, 4.0, 3.0, 1.0) == pytest.approx(0.36)

    def test_singular_f_flagged_infinite(self):
        assert errors.single_pass_bound(0.1, 2.0, 1.0, 0.0) == math.inf


class TestBAngle:
    def test_colinear(self):
        B = rg.dense_spd(np.eye(3))
        x = np.array([1.0, 2.0, 0.0])
        assert errors.b_angle(x, 2.0 * x, B) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_identity_weight(self):
        B = rg.dense_spd(np.eye(2))
        assert errors.b_angle(np.array([1.0, 0.0]), np.array([0.0, 1.0]), B) == pytest.approx(
            math.pi / 2
        )

    def test_hand_computed_weighted_case(self):
        # B = diag(1, 4), x = (1, 1), y = (1, -1): cos = |1 - 4| / 5 = 0.6
        B = rg.dense_spd(np.diag([1.0, 4.0]))
        ang = errors.b_angle(np.array([1.0, 1.0]), np.array([1.0, -1.0]), B)
        assert ang == pytest.approx(math.acos(0.6), rel=1e-12)

    def test_zero_vector_rejected(self):
        B = rg.dense_spd(np.eye(2))
        with pytest.raises(ConfigError):
            errors.b_angle(np.zeros(2), np.ones(2), B)

    @pytest.mark.parametrize("t, rtol", [(9.4e-10, 1e-7), (9.4e-13, 1e-4)])
    def test_small_angle_on_kle_mass_matrix(self, t, rtol):
        # arccos of a cosine this close to 1 reads 0 or an angle off by ~sqrt(eps)
        pencil = make_kle_pencil(1.5, ell=0.5, n=201)
        Bd = pencil.dense_b
        rng = np.random.default_rng(8)
        x, z = rng.standard_normal((2, 201))
        for _ in range(2):
            z -= x * ((z @ Bd @ x) / (x @ Bd @ x))
        z *= math.sqrt((x @ Bd @ x) / (z @ Bd @ z))
        y = x + t * z
        # reference: the angle of the stored x and y in extended precision
        X, Y, L = x.astype(np.longdouble), y.astype(np.longdouble), Bd.astype(np.longdouble)
        R = Y - X * ((Y @ L @ X) / (X @ L @ X))
        ref = float(np.arctan2(np.sqrt((R @ L @ R) / (Y @ L @ Y)),
                               abs(Y @ L @ X) / np.sqrt((X @ L @ X) * (Y @ L @ Y))))
        assert ref == pytest.approx(t, rel=1e-5, abs=0.0)
        assert errors.b_angle(x, y, pencil.B) == pytest.approx(ref, rel=rtol, abs=0.0)


class TestBSine:
    def test_block_equals_columns_with_three_block_applies(self):
        n, m = 30, 7
        Bd = random_spd(n, 50.0, 21)
        widths = []

        def apply(X):
            widths.append(X.shape[1])
            return Bd @ X

        B = rg.SpdOperator(n, apply, lambda X: np.linalg.solve(Bd, X))
        rng = np.random.default_rng(4)
        X = rng.standard_normal((n, m))
        Y = X + 10.0 ** -np.arange(m) * rng.standard_normal((n, m))  # down to nearly parallel
        sines = errors.b_sine(X, Y, B)
        assert widths == [m, m, m] and B.matvec_count == 3 * m
        assert isinstance(sines, np.ndarray) and sines.shape == (m,)
        for j in range(m):
            s = errors.b_sine(X[:, j], Y[:, j], B)
            assert isinstance(s, float)
            assert abs(s - sines[j]) <= 1e-15

    def test_hand_computed_weighted_case(self):
        # B = diag(1, 4), x = (1, 1), y = (1, -1): cos = 0.6, sin = 0.8
        B = rg.dense_spd(np.diag([1.0, 4.0]))
        assert errors.b_sine(np.array([1.0, 1.0]), np.array([1.0, -1.0]), B) == pytest.approx(0.8)

    def test_zero_column_rejected(self):
        B = rg.dense_spd(np.eye(3))
        Y = np.ones((3, 2))
        Y[:, 1] = 0.0
        with pytest.raises(ConfigError):
            errors.b_sine(np.ones((3, 2)), Y, B)
        with pytest.raises(ConfigError):
            errors.b_sine(np.ones((3, 2)), np.ones((3, 3)), B)


class TestGrowth:
    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
    def test_bad_tolerance_typed(self, tol):
        pencil = make_kle_pencil(2.5, n=41)
        with pytest.raises(ConfigError):
            errors.grow_sketch_until(pencil.A, pencil.B, k0=5, tol=tol, seed=3)
        assert pencil.A.matvec_count == 0

    def test_no_growth_when_tolerance_loose(self):
        pencil = make_kle_pencil(2.5)
        out = errors.grow_sketch_until(pencil.A, pencil.B, k0=10, tol=1e9, seed=3)
        assert out.converged and out.n_columns == 10
        assert len(out.history) == 1

    def test_growth_monotone_bookkeeping(self):
        pencil = make_kle_pencil(1.5)
        out = errors.grow_sketch_until(pencil.A, pencil.B, k0=5, tol=1e-6, seed=3, step=10)
        cols = [c for c, _ in out.history]
        assert cols == sorted(cols)
        assert out.basis.Q.shape[1] == out.n_columns
        # the grown basis factors the same column streams as a one-shot draw
        Om = rg.gaussian_matrix(pencil.B.dim, out.n_columns, 3)
        Y = pencil.B.apply_inverse(pencil.A.apply(Om))
        assert np.linalg.norm(out.basis.Q @ out.basis.R - Y) <= 1e-12 * np.linalg.norm(Y)

    def test_growth_terminates_near_oracle_rank(self, kle_oracle):
        # termination within 10 columns of the smallest basis the oracle needs
        pencil = make_kle_pencil(2.5)
        ref = kle_oracle(2.5)
        tol = 1e-4
        out = errors.grow_sketch_until(
            pencil.A, pencil.B, k0=5, tol=tol, seed=11, step=10, binv_norm=ref.binv_norm
        )
        assert out.converged
        ks = np.arange(1, 60)
        fs = []
        for k in ks:
            res = range_finder_b(pencil.A, pencil.B, SketchConfig(k=int(k), p=0, seed=11))
            fs.append(errors.range_error_exact(pencil.dense_a, pencil.dense_b, res.basis.Q))
        smallest = int(ks[np.argmax(np.array(fs) <= tol)])
        assert out.n_columns <= smallest + 10
