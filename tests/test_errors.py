"""Error estimators, closed-form bounds, and the dense B-geometry oracles."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

import randghep as rg
from randghep import errors, kle
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

    @pytest.mark.parametrize("pencil", ["kle-0.5", "kle-1.5", "kle-2.5", "matern-2d"])
    def test_eigenvalues_match_generalized_eigh(self, pencil):
        # the tridiagonal reduction of L^-1 A L^-T against LAPACK's sygvd on (A, B)
        if pencil == "matern-2d":
            Ad, Bd = matern_pencil_2d(16)
        else:
            kp = make_kle_pencil(float(pencil[4:]))
            Ad, Bd = kp.dense_a, kp.dense_b
        ref = errors.dense_ghep_oracle(Ad, Bd)
        expected = scipy.linalg.eigh(Ad, Bd, eigvals_only=True)[::-1]
        assert np.max(np.abs(ref.lambdas - expected)) <= 1e-14 * abs(expected[0])

    def test_sparse_mass_pencil(self):
        # n = 144 spans two of _congruent's mirror blocks; dsygst's A^ is
        # mirrored into an exactly symmetric array
        Ad, Bs = jittered_matern_pencil_2d(12, seed=3)
        Bd = Bs.toarray()
        ref = errors.dense_ghep_oracle(Ad, Bd)
        expected = scipy.linalg.eigh(Ad, Bd, eigvals_only=True)[::-1]
        assert np.max(np.abs(ref.lambdas - expected)) <= 1e-14 * abs(expected[0])
        assert ref.Ahat.flags.f_contiguous
        np.testing.assert_array_equal(ref.Ahat, ref.Ahat.T)

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


def matern_pencil_2d(m, nu=1.5, ell=0.5):
    """(M Gamma M, M) of a 2D Matern field on the m-by-m grid of [-1, 1]^2, with
    M the bilinear mass matrix (the Kronecker square of the 1D one)."""
    grid = kle.Grid1D(n=m)
    M1 = kle.assemble_mass_1d(grid)
    M = np.kron(M1, M1)
    x = np.linspace(grid.a, grid.b, m)
    pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    A = M @ kle.matern_kernel(kle.MaternConfig(nu=nu, ell=ell), dist, 0.0) @ M
    return (A + A.T) / 2.0, M


def jittered_matern_pencil_2d(m, seed, nu=1.5, ell=0.5):
    """(B Gamma B, B) of a 2D Matern field on an m-by-m grid of [-1, 1]^2 whose
    interior nodes are moved at random by up to 0.2 grid widths, with B the
    sparse P1 mass matrix of two triangles per cell (A dense, B CSR)."""
    h = 2.0 / (m - 1)
    x = np.linspace(-1.0, 1.0, m)
    pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)
    rng = np.random.default_rng(seed)
    pts[1:-1, 1:-1] += rng.uniform(-0.2 * h, 0.2 * h, size=(m - 2, m - 2, 2))
    pts = pts.reshape(-1, 2)
    idx = np.arange(m * m).reshape(m, m)
    corner = [idx[:-1, :-1], idx[1:, :-1], idx[:-1, 1:], idx[1:, 1:]]
    tris = np.concatenate([np.stack([corner[0], corner[1], corner[3]], -1).reshape(-1, 3),
                           np.stack([corner[0], corner[3], corner[2]], -1).reshape(-1, 3)])
    e1, e2 = pts[tris[:, 1]] - pts[tris[:, 0]], pts[tris[:, 2]] - pts[tris[:, 0]]
    area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    rows, cols = np.repeat(tris, 3, axis=1).ravel(), np.tile(tris, 3).ravel()
    vals = (area[:, None] * local.ravel()).ravel()
    B = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(m * m, m * m))
    dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    A = B @ (B @ kle.matern_kernel(kle.MaternConfig(nu=nu, ell=ell), dist, 0.0)).T
    return (A + A.T) / 2.0, B


def pencil_with_spectrum(w, seed):
    """(A, B) with B SPD (condition 100) and pencil eigenvalues w: A = L Q diag(w) Q^T L^T."""
    n = len(w)
    Bd = random_spd(n, 100.0, seed)
    L = np.linalg.cholesky(Bd)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    A = L @ ((Q * w) @ Q.T) @ L.T
    return (A + A.T) / 2.0, Bd


class TestTopEigenvectors:
    """top_eigenvectors(m): B-orthonormal, small residual, largest first, cached."""

    @staticmethod
    def _check(Ad, Bd, m):
        ref = errors.dense_ghep_oracle(Ad, Bd)
        X = ref.top_eigenvectors(m)
        assert X.shape == (Ad.shape[0], m)
        assert np.linalg.norm(X.T @ Bd @ X - np.eye(m), 2) <= 1e-13
        resid = Ad @ X - (Bd @ X) * ref.lambdas[:m]
        assert np.linalg.norm(resid, 2) <= 1e-13 * np.linalg.norm(Ad, 2)

    @pytest.mark.parametrize("m", [1, 10, 30, 31, 100, 200])
    def test_repeated_eigenvalue(self, m):
        # lambda = 5 thirty times; m = 30 and 31 cut at the edge of the repeat
        w = np.r_[np.full(30, 5.0), np.linspace(0.0, 1.0, 170)]
        self._check(*pencil_with_spectrum(w, 3), m)

    @pytest.mark.parametrize("m", [1, 10, 60, 100, 200])
    def test_clustered_eigenvalues(self, m):
        # sixty eigenvalues within 6e-12 of 1
        w = np.r_[1.0 + 1e-13 * np.arange(60), np.linspace(0.0, 0.5, 140)]
        self._check(*pencil_with_spectrum(w, 4), m)

    @pytest.mark.parametrize("m", [1, 20, 201])
    def test_kle_pencil(self, m):
        pencil = make_kle_pencil(2.5)
        self._check(pencil.dense_a, pencil.dense_b, m)

    def test_one_by_one(self):
        self._check(np.array([[3.0]]), np.array([[2.0]]), 1)
        ref = errors.dense_ghep_oracle(np.array([[3.0]]), np.array([[4.0]]))
        assert ref.lambdas[0] == 0.75
        np.testing.assert_array_equal(ref.top_eigenvectors(1), [[0.5]])

    @pytest.mark.parametrize("m", [1, 2])
    def test_two_by_two(self, m):
        self._check(np.array([[2.0, 1.0], [1.0, 3.0]]), random_spd(2, 10.0, 2), m)
        self._check(np.eye(2), np.eye(2), m)

    def test_widest_block_is_cached(self):
        pencil = make_kle_pencil(1.5, n=41)
        ref = errors.dense_ghep_oracle(pencil.dense_a, pencil.dense_b)
        X5 = ref.top_eigenvectors(5)
        X3 = ref.top_eigenvectors(3)
        assert np.shares_memory(X3, X5)
        np.testing.assert_array_equal(X3, X5[:, :3])
        X = ref.eigenvectors
        assert X.shape == (41, 41) and np.shares_memory(ref.top_eigenvectors(5), X)
        assert ref.top_eigenvectors(0).shape == (41, 0)

    @pytest.mark.parametrize("m", [-1, 42])
    def test_out_of_range(self, m):
        pencil = make_kle_pencil(1.5, n=41)
        with pytest.raises(ConfigError):
            errors.dense_ghep_oracle(pencil.dense_a, pencil.dense_b).top_eigenvectors(m)


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

    def test_no_eigenvector_block_until_read(self):
        pencil = make_kle_pencil(1.5, n=41)
        ref = errors.dense_ghep_oracle(pencil.dense_a, pencil.dense_b)
        Q = range_finder_b(pencil.A, pencil.B, SketchConfig(k=5, p=2, seed=1)).basis.Q
        ref.range_error(Q)
        assert ref.lambdas.shape == (41,) and ref.sigmas_B.shape == (41,) and ref.kappa_B > 1.0
        assert ref._vectors is None
        assert ref.top_eigenvectors(4).shape == (41, 4)
        assert ref._vectors.shape == (41, 4)

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

    def test_operator_factor_gives_the_same_bits(self):
        # the dense_spd operator's Cholesky factor, handed to the oracle, is the
        # factor the oracle would make: every output is bitwise the same
        pencil = make_kle_pencil(1.5, n=61)
        Ad, Bd = pencil.dense_a, np.array(pencil.dense_b)
        B = rg.dense_spd(Bd)
        own = errors.dense_ghep_oracle(Ad, Bd)
        shared = errors.dense_ghep_oracle(Ad, Bd, B.cholesky_factor)
        assert shared.L is B.cholesky_factor
        np.testing.assert_array_equal(own.lambdas, shared.lambdas)
        np.testing.assert_array_equal(own.top_eigenvectors(4), shared.top_eigenvectors(4))
        Q = range_finder_b(pencil.A, B, SketchConfig(k=6, p=2, seed=1)).basis.Q
        assert shared.range_error(Q) == own.range_error(Q) == errors.range_error_exact(Ad, Bd, Q)
        assert errors.range_error_exact(Ad, Bd, Q, B.cholesky_factor) == errors.range_error_exact(Ad, Bd, Q)

    def test_ahat_is_cached_and_left_untouched(self):
        # A^ is built on construction; reading eigenvectors and range errors leaves it as it was
        pencil = make_kle_pencil(1.5, n=41)
        ref = errors.dense_ghep_oracle(pencil.dense_a, pencil.dense_b)
        Ahat = vars(ref)["Ahat"]
        L = np.linalg.cholesky(pencil.dense_b)
        np.testing.assert_allclose(L @ Ahat @ L.T, pencil.dense_a, rtol=0, atol=1e-12 * ref.lambdas[0])
        before = Ahat.copy()
        Q = range_finder_b(pencil.A, pencil.B, SketchConfig(k=5, p=2, seed=1)).basis.Q
        ref.top_eigenvectors(3)
        ref.eigenvectors
        ref.range_error(Q)
        ref.range_error(Q[:, :0])
        assert ref.Ahat is Ahat
        np.testing.assert_array_equal(Ahat, before)


def _sigma1_30_digits(M):
    """sigma_1(M) from the smaller Gram matrix, eigensolved with 30 digits."""
    X = M if M.shape[0] >= M.shape[1] else M.T
    with mpmath.workdps(30):
        X = mpmath.matrix(X.tolist())
        return float(mpmath.sqrt(max(mpmath.eigsy(X.T * X, eigvals_only=True))))


class TestNorm2:
    """_norm2 = sqrt(lambda_max(M^T M)) against the SVD's sigma_1."""

    @staticmethod
    def _check(M):
        expected = scipy.linalg.svdvals(M)[0]
        for layout in (np.asfortranarray(M), np.ascontiguousarray(M)):
            assert abs(errors._norm2(layout.copy(order="K")) - expected) <= 1e-14 * expected

    @staticmethod
    def _kle_range_residual(kle_oracle):
        pencil = make_kle_pencil(2.5)
        ref = kle_oracle(2.5)
        Q = range_finder_b(pencil.A, pencil.B, SketchConfig(k=100, p=5, seed=0)).basis.Q
        W = ref.L.T @ Q
        G = ref.Ahat - W @ (W.T @ ref.Ahat)  # f = ||G||_2
        assert scipy.linalg.svdvals(G)[0] <= 1e-8 * ref.lambdas[0]
        return G

    @staticmethod
    def _spy_branches(monkeypatch):
        """Record what _norm2's Lanczos run and certificate return, and count
        its dense eigensolves."""
        seen = {"lanczos": [], "certified": [], "eigh": 0}
        lanczos, certify, eigh = errors._lanczos_top, errors._certify_top, scipy.linalg.eigh

        def lanczos_spy(G):
            seen["lanczos"].append(lanczos(G))
            return seen["lanczos"][-1]

        def certify_spy(G, theta):
            seen["certified"].append(certify(G, theta))
            return seen["certified"][-1]

        def eigh_spy(*args, **kwargs):
            seen["eigh"] += 1
            return eigh(*args, **kwargs)

        monkeypatch.setattr(errors, "_lanczos_top", lanczos_spy)
        monkeypatch.setattr(errors, "_certify_top", certify_spy)
        monkeypatch.setattr(scipy.linalg, "eigh", eigh_spy)
        return seen

    @staticmethod
    def _with_gram_spectrum(lams, seed, hide_top):
        """A square M whose Gram matrix M^T M has eigenvalues ``lams`` (first
        the largest) and random eigenvectors; with ``hide_top`` the top one is
        orthogonal to _norm2's fixed Lanczos start."""
        n = len(lams)
        start = errors.gaussian_matrix(n, 1, errors._NORM_START)[:, 0]
        X = np.random.default_rng(seed).standard_normal((n, n))
        if hide_top:
            X[:, 0] -= start * (start @ X[:, 0]) / (start @ start)
        V, _ = np.linalg.qr(X)
        return np.sqrt(np.asarray(lams))[:, None] * V.T

    def test_kle_range_residual(self, kle_oracle):
        self._check(self._kle_range_residual(kle_oracle))

    def test_kle_range_residual_needs_no_dense_eigensolve(self, kle_oracle, monkeypatch):
        G = self._kle_range_residual(kle_oracle)
        expected = scipy.linalg.svdvals(G)[0]

        def no_eigh(*args, **kwargs):
            raise AssertionError("_norm2 fell back to a dense eigensolve")

        monkeypatch.setattr(scipy.linalg, "eigh", no_eigh)
        for layout in (np.asfortranarray(G), np.ascontiguousarray(G)):
            assert abs(errors._norm2(layout.copy(order="K")) - expected) <= 1e-14 * expected

    def test_certificate_failure_falls_back(self, monkeypatch):
        # lambda_1 = 1 + 1e-9 is invisible from the start, so Lanczos settles
        # on the well-separated lambda_2 = 1, and (1 + tau) I - G is indefinite
        lams = np.concatenate([[1.0 + 1e-9, 1.0], np.geomspace(0.5, 1e-3, 58)])
        M = self._with_gram_spectrum(lams, seed=2, hide_top=True)
        expected = scipy.linalg.svdvals(M)[0]
        seen = self._spy_branches(monkeypatch)
        got = errors._norm2(M.copy())
        e = math.frexp(np.abs(M).max())[1]  # _norm2 works on M / 2^e
        assert abs(math.ldexp(seen["lanczos"][0], 2 * e) - 1.0) <= 1e-13
        assert seen["certified"] == [False]
        assert seen["eigh"] == 1
        assert abs(got - expected) <= 1e-14 * expected
        assert got > math.sqrt(1.0 + 0.5e-9)  # lambda_1, not lambda_2

    def test_step_cap_falls_back(self, monkeypatch):
        # 300 evenly spaced eigenvalues: the top one is not resolved to the
        # stopping residual within the step cap, and no certificate is tried
        M = self._with_gram_spectrum(np.linspace(1.0, 0.01, 300), seed=4, hide_top=False)
        expected = scipy.linalg.svdvals(M)[0]
        seen = self._spy_branches(monkeypatch)
        got = errors._norm2(np.asfortranarray(M))
        assert seen == {"lanczos": [None], "certified": [], "eigh": 1}
        assert abs(got - expected) <= 1e-14 * expected

    @example(rows=3, cols=3, top=3, gap=1e-14, order="F", seed=3)
    @given(rows=st.integers(1, 80), cols=st.integers(1, 80), top=st.integers(1, 4),
           gap=st.sampled_from([0.0, 1e-15, 1e-14, 3e-14, 1e-13, 1e-10, 1e-6, 1e-2]),
           order=st.sampled_from(["F", "C"]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_svd_on_clustered_spectra(self, rows, cols, top, gap, order, seed):
        # the top singular values 1, 1 - gap, ..., the rest uniform in [0, 0.9].
        # A certified Ritz value is sigma_1^2 to a relative tau, so sigma_1 to
        # tau / 2, plus rounding: of the Gram matrix and its factorization on
        # one side and of the SVD on the other, each of order n eps.  Inside
        # a cluster 1e-14 wide, Lanczos can stop on a Ritz value that only
        # this allowance separates from sigma_1.
        rng = np.random.default_rng(seed)
        r = min(rows, cols)
        s = np.sort(rng.uniform(0.0, 0.9, r))[::-1]
        head = min(top, r)
        s[:head] = 1.0 - gap * np.arange(head)
        U, _ = np.linalg.qr(rng.standard_normal((rows, r)))
        V, _ = np.linalg.qr(rng.standard_normal((cols, r)))
        M = np.array((U * s) @ V.T, order=order)
        M0 = M.copy()
        expected = scipy.linalg.svdvals(M)[0]
        allowance = errors._NORM_SLACK / 2.0 + 2.0 * max(rows, cols) * np.finfo(float).eps
        got = errors._norm2(M)
        if abs(got - expected) > allowance * expected:
            # LAPACK's sigma_1 can itself be off by tens of eps on such
            # clusters (the pinned example: 1 - 7.4e-15 against sigma_1 =
            # 1 + 2.2e-16, 34 eps); judge by a 30-digit reference
            expected = _sigma1_30_digits(M0)
        assert abs(got - expected) <= allowance * expected

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
        est = errors.posterior_estimate(pencil.A, pencil.B, res.basis, 2.0, 5, seed=7, binv_norm=1.0)
        C = np.linalg.solve(pencil.dense_b, pencil.dense_a)
        scale = errors.b_norm(C, pencil.dense_b)
        assert est.e <= 1e-10 * scale

    def test_alpha_homogeneity(self):
        pencil = make_kle_pencil(1.5)
        res = range_finder_b(pencil.A, pencil.B, SketchConfig(k=10, p=5, seed=2))
        e1 = errors.posterior_estimate(pencil.A, pencil.B, res.basis, 2.0, 5, seed=3, binv_norm=1.0).e
        e2 = errors.posterior_estimate(pencil.A, pencil.B, res.basis, 4.0, 5, seed=3, binv_norm=1.0).e
        assert e2 == pytest.approx(2.0 * e1, rel=1e-14)

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
            errors.posterior_estimate(pencil.A, pencil.B, res.basis, 1.0, 5, seed=1, binv_norm=1.0)

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
        with pytest.raises(ConfigError):
            errors.b_sine(np.zeros(3), np.ones(3), B)

    @pytest.mark.parametrize("x, y", [(0, 1), (1, 0)], ids=["y_indefinite", "x_indefinite"])
    def test_non_positive_b_norm_is_numerical(self, x, y):
        # an "SPD" operator that applies diag(1, -1, 1): e_2 has B-norm^2 -1
        d = np.array([1.0, -1.0, 1.0])
        B = rg.SpdOperator(3, lambda X: d[:, None] * X, lambda X: X / d[:, None])
        E = np.eye(3)
        with pytest.raises(NumericalError):
            errors.b_sine(E[:, x], E[:, y], B)

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
        # reference: the sine of the stored x and y in extended precision
        X, Y, L = x.astype(np.longdouble), y.astype(np.longdouble), Bd.astype(np.longdouble)
        R = Y - X * ((Y @ L @ X) / (X @ L @ X))
        ref = float(np.sqrt((R @ L @ R) / (Y @ L @ Y)))
        assert ref == pytest.approx(t, rel=1e-5, abs=0.0)
        assert errors.b_sine(x, y, pencil.B) == pytest.approx(ref, rel=rtol, abs=0.0)


class TestGrowth:
    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
    def test_bad_tolerance_typed(self, tol):
        pencil = make_kle_pencil(2.5, n=41)
        with pytest.raises(ConfigError):
            errors.grow_sketch_until(pencil.A, pencil.B, k0=5, tol=tol, seed=3)
        assert pencil.A.matvec_count == 0

    # alpha^-r underflows: to zero (1e300^-2), or to the least subnormal
    # number (4e161^-2), whose second check budget underflows to zero
    @pytest.mark.parametrize("bad", [{"alpha": np.nan}, {"alpha": 1.0}, {"r_probes": 0},
                                     {"alpha": 1e300, "r_probes": 2}, {"alpha": 4e161, "r_probes": 2}])
    def test_bad_estimator_argument_typed_before_any_apply(self, bad):
        pencil = make_kle_pencil(2.5, n=41)
        with pytest.raises(ConfigError):
            errors.grow_sketch_until(pencil.A, pencil.B, k0=5, tol=1e-3, seed=3, **bad)
        assert pencil.A.matvec_count == 0 and pencil.B.solve_count == 0

    @pytest.mark.parametrize("r", [5, 15])
    def test_probes_are_the_next_block(self, r):
        # every stream column is applied once, including the ones a round's
        # probes read beyond its appended block: the probes cost one block;
        # the certificate checks add their own applies, and nothing else runs
        pencil = make_kle_pencil(1.5)
        out = errors.grow_sketch_until(pencil.A, pencil.B, k0=5, tol=1e-6, seed=3, r_probes=r)
        assert out.converged and len(out.history) > 2
        checks = [h for h in out.history if h.certified is not None]
        assert len(checks) >= 2 and out.history[0].certified is not None
        cert = out.certificate
        assert cert["a_applies"] == 2 * errors.LANCZOS_STEPS * len(checks)
        assert pencil.A.matvec_count == out.n_columns + max(10, r) + cert["a_applies"]
        assert pencil.B.solve_count == out.n_columns + max(10, r) + cert["b_solves"]
        # one B-apply per QR'd column, one per check
        assert pencil.B.matvec_count == out.n_columns + cert["b_applies"]

    def test_early_ended_certificate_books_its_counters(self):
        # A = v v^T has rank one, so a 2-column sketch leaves C P C at
        # roundoff and the check's Krylov space is invariant after 2 steps
        n = 30
        v = np.random.default_rng(6).standard_normal(n)
        A = rg.dense_operator(np.outer(v, v))
        B = rg.dense_spd(random_spd(n, 10.0, 2))
        out = errors.grow_sketch_until(A, B, k0=2, tol=None, seed=3, max_cols=2)
        assert len(out.history) == 1 and out.history[0].certified == out.estimate.e
        assert out.certificate == {"a_applies": 4, "b_solves": 4, "b_applies": 1}
        # the sketch and its probes, one B-apply per kept column (the QR drops
        # the dependent one), then the check
        assert out.basis.n_kept == 1
        assert A.matvec_count == 2 + 5 + out.certificate["a_applies"]
        assert B.solve_count == 2 + 5 + out.certificate["b_solves"]
        assert B.matvec_count == 1 + out.certificate["b_applies"]

    def test_no_target_stops_at_max_cols(self):
        pencil = make_kle_pencil(1.5)
        out = errors.grow_sketch_until(pencil.A, pencil.B, k0=12, tol=None, seed=3, max_cols=12)
        assert not out.converged and out.n_columns == 12 and len(out.history) == 1
        # the sketch, the probes, and the one check that every run ends on
        assert out.history[0].certified == out.estimate.e
        assert pencil.A.matvec_count == 12 + 5 + 2 * errors.LANCZOS_STEPS

    @pytest.mark.parametrize("k0, max_cols, tol", [(5, None, 1e-5), (40, 40, None)],
                             ids=["grown", "single_round"])
    def test_grown_estimate_covers_exact_error(self, kle_oracle, k0, max_cols, tol):
        # the stated floor of a run holds over all of its checks: e is the
        # certificate of the last round, grown or not
        pencil = make_kle_pencil(1.5)
        ref = kle_oracle(1.5)
        trials = 200
        hits = 0
        for seed in range(1, trials + 1):
            out = errors.grow_sketch_until(pencil.A, pencil.B, k0=k0, tol=tol, seed=seed,
                                           max_cols=max_cols)
            assert out.converged is (tol is not None)
            assert out.history[-1].certified == out.estimate.e
            hits += out.estimate.e >= ref.range_error(out.basis.Q)
        assert out.estimate.source == "lanczos_certificate"
        assert out.estimate.probability_floor == 1.0 - 2.0**-5
        assert hits / trials >= 1.0 - 2.0**-5 - 0.05

    def test_checks_start_from_whitened_draws_of_their_own_stream(self, monkeypatch):
        pencil = make_kle_pencil(1.5)
        starts = []
        whiten = pencil.B.whiten
        monkeypatch.setattr(pencil.B, "whiten", lambda g: starts.append(g.copy()) or whiten(g))
        out = errors.grow_sketch_until(pencil.A, pencil.B, k0=5, tol=1e-5, seed=3)
        checks = sum(h.certified is not None for h in out.history)
        assert checks >= 2 and len(starts) == checks
        # check c whitens column c - 1 of a stream independent of the sketch's
        G = rg.gaussian_matrix(pencil.B.dim, checks, errors.derive_seed(3, errors._START_STREAM))
        np.testing.assert_array_equal(np.column_stack(starts), G)

    def test_check_budgets_sum_below_delta(self):
        delta = 2.0**-5
        budgets = [errors.check_budget(c, delta) for c in range(1, 100_001)]
        assert budgets == sorted(budgets, reverse=True)
        assert math.fsum(budgets) <= delta
        assert errors.check_budget(1, delta) == 6.0 * delta / math.pi**2

    def test_certificate_without_whitening_is_a_heuristic(self, kle_oracle):
        pencil = make_kle_pencil(1.5)
        M = pencil.B
        B = rg.SpdOperator(M.dim, M.apply, M.apply_inverse)  # no whitening hook
        out = errors.grow_sketch_until(pencil.A, B, k0=5, tol=1e-5, seed=3)
        assert out.converged
        assert out.estimate.source == "heuristic" and out.estimate.probability_floor is None
        assert out.estimate.e >= kle_oracle(1.5).range_error(out.basis.Q)

    def test_certificate_survives_operators_that_return_their_input(self):
        # B = I served by functions that return their argument: the Lanczos
        # vectors must not be overwritten through those aliases (the copies
        # differ in memory order, so the two runs agree to roundoff only)
        rng = np.random.default_rng(0)
        U, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        Ad = (U * 0.7 ** np.arange(60)) @ U.T
        runs = []
        for identity in (lambda X: X, lambda X: X.copy()):
            B = rg.SpdOperator(60, identity, identity, identity)
            out = errors.grow_sketch_until(rg.dense_operator(Ad.copy()), B, k0=3, tol=1e-3, seed=4)
            assert out.converged
            assert out.estimate.e >= errors.range_error_exact(Ad, np.eye(60), out.basis.Q)
            runs.append((out.n_columns, out.estimate.e))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == pytest.approx(runs[1][1], rel=1e-9)

    def test_no_growth_when_tolerance_loose(self):
        pencil = make_kle_pencil(2.5)
        out = errors.grow_sketch_until(pencil.A, pencil.B, k0=10, tol=1e9, seed=3)
        assert out.converged and out.n_columns == 10
        assert len(out.history) == 1

    def test_growth_monotone_bookkeeping(self):
        pencil = make_kle_pencil(1.5)
        out = errors.grow_sketch_until(pencil.A, pencil.B, k0=5, tol=1e-6, seed=3)
        cols = [h.columns for h in out.history]
        assert cols == sorted(cols)
        assert out.basis.Q.shape[1] == out.n_columns
        # the grown basis factors the same column streams as a one-shot draw
        Om = rg.gaussian_matrix(pencil.B.dim, out.n_columns, 3)
        Y = pencil.B.apply_inverse(pencil.A.apply(Om))
        assert np.linalg.norm(out.basis.Q @ out.basis.R - Y) <= 1e-12 * np.linalg.norm(Y)

    def test_growth_terminates_near_oracle_rank(self):
        # termination within 10 columns of the smallest basis the oracle needs
        pencil = make_kle_pencil(2.5)
        tol = 1e-4
        out = errors.grow_sketch_until(pencil.A, pencil.B, k0=5, tol=tol, seed=11)
        assert out.converged
        ks = np.arange(1, 60)
        fs = []
        for k in ks:
            res = range_finder_b(pencil.A, pencil.B, SketchConfig(k=int(k), p=0, seed=11))
            fs.append(errors.range_error_exact(pencil.dense_a, pencil.dense_b, res.basis.Q))
        smallest = int(ks[np.argmax(np.array(fs) <= tol)])
        assert out.n_columns <= smallest + 10
