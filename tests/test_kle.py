"""Matern kernels, assembly, the KLE pencil, and truncated-expansion checks."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import randghep as rg
from randghep import borth, errors, kle
from randghep.operators import ConfigError
from randghep.sketch import SketchConfig

from conftest import make_kle_pencil, rel_eig_error


class TestMaternKernel:
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_unit_at_zero_distance(self, nu):
        cfg = kle.MaternConfig(nu=nu, ell=0.7)
        assert kle.matern_kernel(cfg, 0.3, 0.3) == 1.0

    def test_exponential_at_one_length(self):
        cfg = kle.MaternConfig(nu=0.5, ell=0.25)
        assert kle.matern_kernel(cfg, 0.0, 0.25) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_high_precision_reference_nu_5_2(self):
        # independent evaluation of (1 + sqrt5 + 5/3) exp(-sqrt5) at d = 1
        with mpmath.workdps(40):
            s5 = mpmath.sqrt(5)
            expect = float((1 + s5 + mpmath.mpf(5) / 3) * mpmath.exp(-s5))
        cfg = kle.MaternConfig(nu=2.5, ell=1.0)
        assert kle.matern_kernel(cfg, 0.0, 1.0) == pytest.approx(expect, rel=1e-15)

    @given(
        x=st.floats(-5, 5),
        y=st.floats(-5, 5),
        nu=st.sampled_from([0.5, 1.5, 2.5]),
        ell=st.floats(0.01, 10),
    )
    @example(x=0.0, y=5.960464477539063e-08, nu=2.5, ell=6.40625)  # rounded to 1 + eps
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, x, y, nu, ell):
        cfg = kle.MaternConfig(nu=nu, ell=ell)
        v = kle.matern_kernel(cfg, x, y)
        assert v == kle.matern_kernel(cfg, y, x)
        assert 0.0 <= v <= 1.0
        if abs(x - y) / ell < 250.0:  # exp underflows to 0 far beyond this
            assert v > 0.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            kle.MaternConfig(nu=2.0, ell=1.0)
        with pytest.raises(ConfigError):
            kle.MaternConfig(nu=0.5, ell=0.0)


class TestAssembly:
    def test_single_node_covariance(self):
        G = kle.assemble_covariance(kle.Grid1D(0.0, 1.0, 2), kle.MaternConfig(0.5, 1.0))
        assert G.shape == (2, 2)
        np.testing.assert_allclose(np.diag(G), 1.0)

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_covariance_psd(self, nu):
        G = kle.assemble_covariance(kle.Grid1D(n=201), kle.MaternConfig(nu, 2.0))
        assert np.abs(G - G.T).max() <= 1e-15
        assert np.linalg.eigvalsh(G)[0] >= -1e-10

    def test_mass_two_nodes(self):
        M = kle.assemble_mass_1d(kle.Grid1D(0.0, 1.0, 2))
        np.testing.assert_allclose(M, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]])

    def test_mass_partition_of_unity(self):
        grid = kle.Grid1D(-1.0, 1.0, 57)
        M = kle.assemble_mass_1d(grid)
        assert M.sum() == pytest.approx(2.0, rel=1e-12)
        h = grid.h
        rowsums = M.sum(axis=1)
        np.testing.assert_allclose(rowsums[1:-1], h, rtol=1e-12)
        np.testing.assert_allclose(rowsums[[0, -1]], h / 2, rtol=1e-12)

    def test_mass_spd_and_well_conditioned(self):
        M = kle.assemble_mass_1d(kle.Grid1D(n=201))
        w = np.linalg.eigvalsh(M)
        assert w[0] > 0.0
        assert w[-1] / w[0] <= 10.0

    @pytest.mark.parametrize("n", [2, 3, 201])
    def test_mass_dense_and_operator_share_one_definition(self, n):
        # bands 2h/3 (h/3 at the two ends) and h/6, bitwise, in the dense
        # matrix and in the operator's stencil
        grid = kle.Grid1D(n=n)
        h = grid.h
        main = np.full(n, 2.0 * h / 3.0)
        main[0] = main[-1] = h / 3.0
        off = np.full(n - 1, h / 6.0)
        M = kle.assemble_mass_1d(grid)
        assert np.array_equal(M, np.diag(main) + np.diag(off, 1) + np.diag(off, -1))
        assert np.array_equal(kle.MassOperator(grid).apply(np.eye(n)), M)

    def test_mass_operator_matches_dense(self):
        grid = kle.Grid1D(n=63)
        op = kle.MassOperator(grid)
        M = kle.assemble_mass_1d(grid)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((63, 5))
        np.testing.assert_allclose(op.apply(X), M @ X, rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(M @ op.apply_inverse(X), X, rtol=1e-11, atol=1e-13)

    def test_mass_operator_whitens_by_its_banded_factor(self):
        grid = kle.Grid1D(n=63)
        op = kle.MassOperator(grid)
        M = kle.assemble_mass_1d(grid)
        X = np.random.default_rng(5).standard_normal((63, 4))
        W = op.whiten(X)
        np.testing.assert_allclose(W.T @ M @ W, X.T @ X, rtol=1e-12, atol=1e-12)
        assert op.matvec_count == 0 and op.solve_count == 0


def _smallest_5_smooth_at_least(m):
    k = m
    while True:
        rest = k
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return k
        k += 1


class TestFastLen:
    def test_matches_brute_force(self):
        assert [kle._fast_len(m) for m in range(1, 20001)] == \
            [_smallest_5_smooth_at_least(m) for m in range(1, 20001)]


class TestCovarianceApply:
    # 2n - 1 is 5-smooth (no zero padding) for n = 2, 3, 8, 13; 2n - 2 has a
    # large prime factor for n = 2000 (3998 = 2 * 1999)
    @pytest.mark.parametrize("n", [2, 3, 8, 13, 201, 1001, 2000])
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_matches_dense_covariance(self, nu, n):
        # n = 2 is the edge case: the circulant embedding has length 3
        grid = kle.Grid1D(n=n)
        cfg = kle.MaternConfig(nu, 0.5)
        X = np.random.default_rng(n).standard_normal((n, 7))
        ref = kle.assemble_covariance(grid, cfg) @ X
        got = kle.covariance_apply(grid, cfg)(X)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [2, 8, 201, 2000])
    def test_transforms_at_fast_length(self, n, monkeypatch):
        lengths = []
        rfft = np.fft.rfft

        def recording_rfft(a, n=None, axis=-1, **kwargs):
            lengths.append(np.shape(a)[axis] if n is None else n)
            return rfft(a, n=n, axis=axis, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recording_rfft)
        apply = kle.covariance_apply(kle.Grid1D(n=n), kle.MaternConfig(0.5, 0.5))
        apply(np.ones((n, 3)))
        assert lengths == [kle._fast_len(2 * n - 1)] * 2


class TestLazyDenseCopies:
    def test_dense_a_matches_m_gamma_m(self):
        grid = kle.Grid1D(n=301)
        cfg = kle.MaternConfig(1.5, 0.5)
        pencil = kle.kle_pencil(grid, cfg)
        M = kle.assemble_mass_1d(grid)
        ref = M @ kle.assemble_covariance(grid, cfg) @ M
        assert np.linalg.norm(pencil.dense_a - ref) <= 1e-13 * np.linalg.norm(ref)
        np.testing.assert_array_equal(pencil.dense_b, M)
        assert pencil.dense_a is pencil.dense_a

    def test_solve_without_oracle_assembles_nothing_dense(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("dense assembly on the solver path")

        monkeypatch.setattr(kle, "assemble_covariance", boom)
        monkeypatch.setattr(kle, "assemble_mass_1d", boom)
        for method in ("two_pass", "single_pass", "nystrom"):
            sol = kle.kle_solve(kle.Grid1D(n=301), kle.MaternConfig(2.5, 0.5), k=10, p=5,
                                method=method, seed=4)
            assert sol.K == 10

    def test_oracle_comparison_computes_no_eigenvectors(self, monkeypatch):
        refs, tridiagonal_solves = [], []
        oracle, eigh_tridiagonal = errors.dense_ghep_oracle, scipy.linalg.eigh_tridiagonal
        monkeypatch.setattr(errors, "dense_ghep_oracle", lambda A, B: refs.append(oracle(A, B)) or refs[-1])
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal",
                            lambda *a, **kw: tridiagonal_solves.append(a) or eigh_tridiagonal(*a, **kw))
        sol = kle.kle_solve(kle.Grid1D(n=301), kle.MaternConfig(2.5, 0.5), k=10, p=5, seed=4,
                            compare_oracle=True)
        assert sol.diagnostics["rel_eigenvalue_error"] < 1e-4
        assert len(refs) == 1 and refs[0]._vectors is None
        assert tridiagonal_solves == []

    def test_oracle_copies_capped(self):
        pencil = kle.kle_pencil(kle.Grid1D(n=kle.ORACLE_MAX_N + 1), kle.MaternConfig(0.5, 0.5))
        with pytest.raises(ConfigError):
            pencil.dense_a
        with pytest.raises(ConfigError):
            pencil.dense_b


class TestKlePencil:
    def test_c_self_adjoint_in_mass_inner_product(self):
        pencil = make_kle_pencil(1.5, n=101)
        rng = np.random.default_rng(7)
        Md = pencil.dense_b
        for _ in range(3):
            x, y = rng.standard_normal(101), rng.standard_normal(101)
            Cx = pencil.B.apply_inverse(pencil.A.apply(x))
            Cy = pencil.B.apply_inverse(pencil.A.apply(y))
            lhs = y @ (Md @ Cx)
            rhs = Cy @ (Md @ x)
            assert abs(lhs - rhs) <= 1e-10 * np.sqrt(x @ (Md @ x)) * np.sqrt(y @ (Md @ y))

    def test_pencil_spectrum_equals_gamma_m_spectrum(self):
        # the pencil (M Gamma M, M) and the plain operator Gamma M share eigenvalues
        grid = kle.Grid1D(n=101)
        cfg = kle.MaternConfig(nu=1.5, ell=2.0)
        pencil = kle.kle_pencil(grid, cfg)
        ref = errors.dense_ghep_oracle(pencil.dense_a, pencil.dense_b)
        G = kle.assemble_covariance(grid, cfg)
        M = kle.assemble_mass_1d(grid)
        w = np.sort(np.real(scipy.linalg.eig(G @ M, right=False)))[::-1]
        np.testing.assert_allclose(ref.lambdas, w, rtol=1e-8, atol=1e-10)


class TestKleSolve:
    def test_smooth_kernel_small_error(self):
        grid = kle.Grid1D(n=201)
        sol = kle.kle_solve(grid, kle.MaternConfig(2.5, 2.0), k=20, p=5, seed=1, compare_oracle=True)
        assert sol.diagnostics["rel_eigenvalue_error"] <= 1e-4
        M = kle.assemble_mass_1d(grid)
        assert np.linalg.norm(sol.modes.T @ (M @ sol.modes) - np.eye(sol.K), 2) <= 1e-10

    @pytest.mark.parametrize("method", ["two_pass", "single_pass", "nystrom"])
    def test_counts_equal_the_cost_table(self, method, monkeypatch):
        # the default block QR makes no re-orthogonalization applies, so the
        # counters' deltas are exactly the algorithm's cost table
        k, p = 100, 10
        r = k + p
        qr_deltas = []
        block_qr = borth.pre_chol_qr_w
        gamma_cols = []
        covariance_apply = kle.covariance_apply

        def recording_qr(Y, W, basis=None):
            before = W.matvec_count
            out = block_qr(Y, W, basis)
            qr_deltas.append(W.matvec_count - before)
            return out

        def counting_covariance_apply(grid, cfg):
            gamma = covariance_apply(grid, cfg)

            def apply(X):
                gamma_cols.append(X.shape[1])
                return gamma(X)

            return apply

        monkeypatch.setattr(borth, "pre_chol_qr_w", recording_qr)
        monkeypatch.setattr(kle, "covariance_apply", counting_covariance_apply)
        sol = kle.kle_solve(kle.Grid1D(n=1001), kle.MaternConfig(nu=2.5, ell=0.5), k=k, p=p,
                            method=method, seed=1).solution
        expected = {
            "two_pass": {"a_applies": 2 * r, "b_applies": r, "b_solves": r},
            "single_pass": {"a_applies": r, "b_applies": r, "b_solves": r},
            "nystrom": {"a_applies": 2 * r, "b_applies": r, "b_solves": 2 * r},
        }[method]
        assert sol.counts == expected
        # every column of Gamma the solve applied is an A-apply some counter saw
        assert sum(gamma_cols) == sol.counts["a_applies"] + sol.diagnostics["symmetry_probe_applies"]
        assert sol.diagnostics["reorth_b_applies"] == 0
        assert sol.diagnostics.get("reorth_b_solves", 0) == 0
        assert [d - sol.basis.n_reorth_applies for d in qr_deltas] == [r]

    def test_error_ordering_in_smoothness(self, kle_oracle):
        wins = 0
        trials = 25
        for seed in range(trials):
            errs = []
            for nu in (2.5, 1.5, 0.5):
                pencil = make_kle_pencil(nu)
                sol = rg.ghep_two_pass(pencil.A, pencil.B, SketchConfig(k=20, p=5, seed=seed))
                errs.append(rel_eig_error(sol.eigenvalues, kle_oracle(nu).lambdas))
            wins += errs[0] <= errs[1] <= errs[2]
        assert wins >= 0.8 * trials

    def test_tiny_correlation_length_degrades(self):
        grid = kle.Grid1D(n=501)
        k = 80
        errs = {}
        for ell in (0.01, 1.0):
            sol = kle.kle_solve(grid, kle.MaternConfig(2.5, ell), k=k, p=5, seed=2, compare_oracle=True)
            errs[ell] = sol.diagnostics["rel_eigenvalue_error"]
        assert errs[0.01] >= 10.0 * errs[1.0]

    def test_eigenvalues_nonnegative_and_sorted(self):
        sol = kle.kle_solve(kle.Grid1D(n=101), kle.MaternConfig(0.5, 2.0), k=15, p=5, seed=3)
        assert np.all(sol.eigenvalues >= -1e-10)
        assert np.all(np.diff(sol.eigenvalues) <= 0.0)


class TestKleRealize:
    def _solution(self, n=51, k=12):
        return kle.kle_solve(kle.Grid1D(n=n), kle.MaternConfig(1.5, 0.5), k=k, p=5, seed=9)

    def test_monte_carlo_covariance(self):
        # CLT check of the sampled nodal covariance against Phi Lambda Phi^T
        sol = self._solution(n=51, k=20)
        target = (sol.modes * sol.eigenvalues) @ sol.modes.T
        n_samples = 2000
        xi = rg.gaussian_matrix(sol.K, n_samples, seed=31)
        fields = sol.modes @ (np.sqrt(np.maximum(sol.eigenvalues, 0.0))[:, None] * xi)
        sample_cov = fields @ fields.T / n_samples
        assert np.abs(sample_cov - target).max() <= 5.0 / math.sqrt(n_samples)


class TestTruncationCheck:
    def _setup(self, n=201, k=25, nu=1.5, ell=2.0, seed=3):
        grid = kle.Grid1D(n=n)
        cfg = kle.MaternConfig(nu, ell)
        pencil = kle.kle_pencil(grid, cfg)
        ref = errors.dense_ghep_oracle(pencil.dense_a, pencil.dense_b)
        sol = kle.kle_solve(grid, cfg, k=k, p=5, seed=seed)
        eps = errors.range_error_exact(pencil.dense_a, pencil.dense_b, sol.solution.basis.Q)
        gaps = [
            np.min(np.abs(np.delete(ref.lambdas, i) - sol.eigenvalues[i])) for i in range(k)
        ]
        return ref, sol, eps, float(min(gaps))

    def test_exact_equals_approx_gives_zero(self):
        ref, sol, _, _ = self._setup()
        k = sol.K
        exact_as_solution = kle.KleSolution(
            solution=rg.GhepSolution(
                U=ref.eigenvectors[:, :k],
                eigenvalues=ref.lambdas[:k],
                method="oracle",
                counts={},
                seed=0,
                k=k,
                p=0,
            ),
            grid=sol.grid,
            kernel=sol.kernel,
            K=k,
        )
        rep = kle.kle_truncation_check(ref, exact_as_solution, epsilon=0.0, delta=1.0)
        assert rep.total_lhs <= 1e-20
        assert np.all(rep.eig_terms == 0.0)

    def test_per_term_inequality(self):
        ref, sol, eps, delta = self._setup()
        rep = kle.kle_truncation_check(ref, sol, eps, delta)
        assert rep.per_term_bound_ok
        assert rep.total_lhs == pytest.approx(float(np.sum(rep.lhs_terms)))
        assert rep.total_lhs <= rep.bound_per_eigenvalue
        assert rep.total_lhs <= rep.bound_literal

    def test_both_error_sources_same_scale(self):
        # eigenvalue and eigenvector contributions should be comparable overall
        ref, sol, eps, delta = self._setup(n=501, k=40, nu=1.5, ell=0.4)
        rep = kle.kle_truncation_check(ref, sol, eps, delta)
        a = float(np.sum(rep.eig_terms))
        b = float(np.sum(rep.vec_terms))
        assert max(a, b) <= 1e4 * min(a, b)


class TestGridValidation:
    def test_bad_grids(self):
        with pytest.raises(ConfigError):
            kle.Grid1D(n=1)
        with pytest.raises(ConfigError):
            kle.Grid1D(a=1.0, b=0.0, n=5)

    def test_nodes_uniform(self):
        g = kle.Grid1D(-1.0, 1.0, 5)
        np.testing.assert_allclose(np.diff(g.nodes()), g.h)
