"""Operator contracts, dense and sparse backends, Matrix Market interchange."""

import concurrent.futures
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

import randghep as rg
from randghep.operators import (
    ConfigError,
    MatrixFormatError,
    NotPositiveDefiniteError,
    NumericalError,
    UnsupportedFieldError,
    check_symmetric,
    read_matrix_market,
)


class TestMatrixMarket:
    def test_array_file_readback(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n2\n5\n")
        M = rg.load_matrix_market(path)
        np.testing.assert_array_equal(M, [[1.0, 2.0], [2.0, 5.0]])

    def test_coordinate_sparse_fill(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3\n")
        np.testing.assert_array_equal(rg.load_matrix_market(path), [[3.0, 0.0], [0.0, 0.0]])

    def test_symmetric_storage_expands(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1\n2 1 7\n"
        )
        np.testing.assert_array_equal(rg.load_matrix_market(path), [[1.0, 7.0], [7.0, 0.0]])

    def test_roundtrip_exact(self, tmp_path):
        # write-then-read oracle: the array format must preserve float64,
        # over 60 decades of exponents
        rng = np.random.default_rng(42)
        M = rng.standard_normal((40, 25)) * 10.0 ** rng.uniform(-30.0, 30.0, (40, 25))
        path = tmp_path / "m.mtx"
        rg.save_matrix_market(path, M)
        np.testing.assert_array_equal(rg.load_matrix_market(path), M)

    def test_parse_failure_reports_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\nfoo\n2\n5\n")
        with pytest.raises(MatrixFormatError, match="line 4"):
            rg.load_matrix_market(path)

    def test_empty_coordinate_file_rejected(self, tmp_path):
        # array files with a zero dimension are checked through the CLI in a
        # child process: before the header check, scipy's reader crashed on them
        path = tmp_path / "e.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
        with pytest.raises(MatrixFormatError, match="empty"):
            rg.load_matrix_market(path)

    def test_complex_field_rejected(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix array complex general\n1 1\n1 2\n")
        with pytest.raises(UnsupportedFieldError):
            rg.load_matrix_market(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Inf"])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "nf.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 1 {bad}\n")
        with pytest.raises(MatrixFormatError, match="non-finite"):
            rg.load_matrix_market(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            rg.load_matrix_market(tmp_path / "nope.mtx")

    def test_read_keeps_the_file_storage(self, tmp_path):
        coo, arr = tmp_path / "c.mtx", tmp_path / "a.mtx"
        coo.write_text("%%MatrixMarket matrix coordinate integer symmetric\n3 3 2\n1 1 4\n3 1 2\n")
        arr.write_text("%%MatrixMarket matrix array real general\n1 2\n1\n2\n")
        M = read_matrix_market(coo)
        assert scipy.sparse.issparse(M) and M.format == "csr" and M.dtype == np.float64
        np.testing.assert_array_equal(M.toarray(), rg.load_matrix_market(coo))
        assert M.nnz == 3
        A = read_matrix_market(arr)
        assert isinstance(A, np.ndarray) and A.dtype == np.float64
        np.testing.assert_array_equal(A, [[1.0, 2.0]])

    @pytest.mark.parametrize("body, match", [
        ("coordinate real general\n2 2 2\n1 1 1\n2 1 nan\n", "non-finite"),
        ("coordinate real general\n2 2 2\n1 1 1\n2 1 foo\n", "line 4"),
        ("coordinate real general\n0 0 0\n", "empty"),
        ("coordinate complex general\n1 1 1\n1 1 1 2\n", "complex"),
        ("coordinate pattern general\n1 1 1\n1 1\n", "pattern"),
        # duplicate entries are summed before the check
        ("coordinate real general\n1 1 2\n1 1 1e308\n1 1 1e308\n", "non-finite"),
    ], ids=["nan", "parse", "empty", "complex", "pattern", "overflowing-duplicates"])
    def test_sparse_read_validates_as_the_dense_load(self, tmp_path, body, match):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix " + body)
        for read in (read_matrix_market, rg.load_matrix_market):
            with pytest.raises(MatrixFormatError, match=match):
                read(path)


class TestDenseSpd:
    def test_identity(self):
        B = rg.dense_spd(np.eye(3))
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(B.apply_inverse(x), x)

    def test_diagonal_solve(self):
        B = rg.dense_spd(np.diag([2.0, 4.0]))
        np.testing.assert_allclose(B.apply_inverse(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_residual_oracle(self):
        rng = np.random.default_rng(7)
        G = rng.standard_normal((20, 20))
        M = G.T @ G + np.eye(20)
        B = rg.dense_spd(M)
        x = rng.standard_normal(20)
        r = M @ B.apply_inverse(x) - x
        assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(x)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            rg.dense_spd(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite(self, bad):
        with pytest.raises(NumericalError):
            rg.dense_spd(np.array([[1.0, 0.0], [0.0, bad]]))

    def test_not_symmetric(self):
        with pytest.raises(ConfigError):
            rg.dense_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_empty_matrix(self):
        with pytest.raises(ConfigError):
            rg.dense_spd(np.zeros((0, 0)))

    def test_positive_quadratic_form(self):
        rng = np.random.default_rng(1)
        B = rg.dense_spd(np.diag([0.5, 1.0, 9.0]))
        for _ in range(5):
            x = rng.standard_normal(3)
            assert x @ B.apply(x) > 0.0

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(3)
        G = rng.standard_normal((15, 15))
        B = rg.dense_spd(G @ G.T + 15 * np.eye(15))
        X = rng.standard_normal((15, 4))
        np.testing.assert_allclose(B.apply(B.apply_inverse(X)), X, rtol=1e-10, atol=1e-12)

    def test_whitening_by_the_solve_factor(self):
        # X = L^{-T} G gives X^T B X = G^T G; the hook moves no counter, and
        # its factor is the read-only cholesky_factor the oracle reuses
        rng = np.random.default_rng(4)
        G = rng.standard_normal((15, 15))
        M = G @ G.T + 15 * np.eye(15)
        B = rg.dense_spd(M)
        X = rng.standard_normal((15, 3))
        W = B.whiten(X)
        assert B.has_whitening
        np.testing.assert_allclose(W.T @ M @ W, X.T @ X, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(B.cholesky_factor.T @ W, X, rtol=1e-12, atol=1e-12)
        assert B.whiten(X[:, 0]).shape == (15,)
        assert B.matvec_count == 0 and B.solve_count == 0
        assert not B.cholesky_factor.flags.writeable


def _sparse_spd_matrix(n, seed):
    """A random sparse symmetric matrix made SPD by strict diagonal dominance (CSR)."""
    R = scipy.sparse.random(n, n, density=0.05, random_state=np.random.default_rng(seed), format="csr")
    S = R + R.T
    return (S + scipy.sparse.diags(np.asarray(abs(S).sum(axis=1)).ravel() + 1.0)).tocsr()


class TestSparseSpd:
    """The SuperLU LDL^T backend serves the contract that dense_spd serves."""

    def test_agrees_with_dense_spd(self):
        M = _sparse_spd_matrix(120, 1)
        sparse, dense = rg.sparse_spd(M), rg.dense_spd(M.toarray())
        X = np.random.default_rng(2).standard_normal((120, 7))
        for op in ("apply", "apply_inverse"):
            for Y in (X, X[:, 3]):
                got, want = getattr(sparse, op)(Y), getattr(dense, op)(Y)
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        assert sparse.matvec_count == dense.matvec_count == 8
        assert sparse.solve_count == dense.solve_count == 8
        assert sparse.cholesky_factor is None

    def test_whitening_inverts_a_factor(self):
        # G = F^{-T} for B = F F^T, so G^T B G = I; the hook moves no counter
        M = _sparse_spd_matrix(150, 3)
        B = rg.sparse_spd(M)
        G = B.whiten(np.eye(150))
        assert B.has_whitening
        assert np.linalg.norm(G.T @ (M @ G) - np.eye(150), 2) <= 1e-13
        assert B.whiten(np.ones(150)).shape == (150,)
        assert B.matvec_count == 0 and B.solve_count == 0

    def test_concurrent_solves_and_counts_are_exact(self):
        # one SuperLU factor serves every thread: each solve returns the bits
        # of a solve made alone, and the counter loses no column
        B = rg.sparse_spd(_sparse_spd_matrix(200, 6))
        X = np.random.default_rng(7).standard_normal((200, 16))
        alone = [B.apply_inverse(X[:, j]) for j in range(16)]
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda j: B.apply_inverse(X[:, j % 16]), range(320)))
        assert all(np.array_equal(y, alone[j % 16]) for j, y in enumerate(got))
        assert B.solve_count == 16 + 320

    def test_keeps_a_copy_of_its_own(self):
        M = _sparse_spd_matrix(40, 4)
        B = rg.sparse_spd(M)
        x = np.ones(40)
        y = B.apply(x)
        M.data[:] = 0.0
        np.testing.assert_array_equal(B.apply(x), y)

    @pytest.mark.parametrize("dense, error, match", [
        ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], NotPositiveDefiniteError, "singular"),
        ([[0.0, 1.0], [1.0, 0.0]], NotPositiveDefiniteError, "off-diagonal pivot"),
        # the ordering can put a zero diagonal entry last, where fill makes its pivot negative
        ([[2.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]], NotPositiveDefiniteError, "not positive definite"),
        ([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]], NotPositiveDefiniteError, "pivot"),
        ([[2.0, 1.0], [1.0, 0.5]], NotPositiveDefiniteError, "not positive definite"),
        ([[2.0, 1.0], [0.0, 2.0]], ConfigError, "not symmetric"),
        ([[2.0, np.nan], [np.nan, 2.0]], NumericalError, "non-finite"),
        ([[2.0, 0.0], [0.0, np.inf]], NumericalError, "non-finite"),
        (np.zeros((0, 0)), ConfigError, "nonempty"),
        (np.ones((2, 3)), ConfigError, "square"),
    ], ids=["singular", "zero-diagonal", "zero-diagonal-filled", "negative-pivot", "semidefinite",
            "asymmetric", "nan", "inf", "empty", "non-square"])
    def test_typed_errors(self, dense, error, match):
        with pytest.raises(error, match=match):
            rg.sparse_spd(scipy.sparse.csr_matrix(np.array(dense)))

    def test_asymmetry_within_tolerance_passes(self):
        M = scipy.sparse.csr_matrix(np.array([[2.0, 1.0], [1.0 + 1e-15, 2.0]]))
        np.testing.assert_allclose(rg.sparse_spd(M).apply_inverse(np.array([3.0, 3.0])), [1.0, 1.0])

    @pytest.mark.parametrize("size", [0.0, 5e-14, 2e-13])
    def test_symmetry_verdict_matches_dense(self, size):
        M = _sparse_spd_matrix(90, 5).tolil()
        M[10, 70] += size * abs(M).max()
        M = M.tocsr()
        if _nxn_symmetry_verdict(M.toarray()):
            check_symmetric(M)
        else:
            with pytest.raises(ConfigError, match="not symmetric"):
                check_symmetric(M)


def _held_bytes(wrap, M):
    """(operator, bytes that wrapping M allocated and the operator still holds)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        op = wrap(M)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return op, held


def _nxn_symmetry_verdict(M, tol=1e-13):
    """The n-by-n formula check_symmetric replaces: True when M passes."""
    scale = np.abs(M).max()
    return bool(scale == 0.0 or not np.abs(M - M.T).max() > tol * scale)


class TestCheckSymmetric:
    """The blockwise comparison decides as the n-by-n formula does, with one block of memory."""

    def test_peak_memory_is_a_block(self):
        G = np.random.default_rng(4).standard_normal((1024, 1024))
        M = G + G.T
        tracemalloc.start()
        try:
            check_symmetric(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * M.nbytes

    @pytest.mark.parametrize("n", [1, 2, 65, 257, 1024])
    @pytest.mark.parametrize("size", [0.0, 5e-14, 2e-13])
    def test_verdict_matches_nxn_formula(self, n, size):
        # one off-symmetric pair, at the corners, inside, and across a block
        # edge (rows 63 | 64 at n = 1024, row 254 | 255 at n = 257)
        G = np.random.default_rng(n).standard_normal((n, n))
        pairs = {(0, n - 1), (n - 1, 0), (n // 2, n // 3), (n - 1, n // 2), (63, 64), (64, 63), (254, 255)}
        for i, j in (pair for pair in pairs if max(pair) < n):
            M = G + G.T
            M[i, j] += size * np.abs(M).max()
            if _nxn_symmetry_verdict(M):
                check_symmetric(M)
            else:
                with pytest.raises(ConfigError, match="not symmetric"):
                    check_symmetric(M)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_decide_as_before(self, bad):
        G = np.random.default_rng(1).standard_normal((300, 300))
        for sym in (True, False):
            M = G + G.T
            M[250, 3] = bad
            if sym:
                M[3, 250] = bad
            M[5, 7] += 1.0  # asymmetric in another block
            with np.errstate(invalid="ignore"):  # inf - inf
                assert _nxn_symmetry_verdict(M)  # a NaN in M or in M - M^T, or an inf scale, passes
                check_symmetric(M)

    def test_zero_and_empty(self):
        check_symmetric(np.zeros((5, 5)))
        with pytest.raises(ConfigError, match="nonempty"):
            check_symmetric(np.zeros((0, 0)))
        with pytest.raises(ConfigError, match="square"):
            check_symmetric(np.zeros((2, 3)))


class TestDenseBackendsWrapInPlace:
    """A float64 matrix is wrapped, not copied, and frozen so the operator stays immutable."""

    def test_dense_operator_adopts_and_freezes(self):
        M = np.random.default_rng(2).standard_normal((300, 200))
        A, held = _held_bytes(rg.dense_operator, M)
        assert not M.flags.writeable
        assert held < M.nbytes / 2
        X = np.ones((200, 2))
        np.testing.assert_array_equal(A.apply(X), M @ X)

    def test_dense_spd_allocates_only_the_factor(self):
        G = np.random.default_rng(3).standard_normal((300, 300))
        M = G @ G.T + 300 * np.eye(300)
        B, held = _held_bytes(rg.dense_spd, M)
        assert not M.flags.writeable
        assert held < 1.5 * M.nbytes  # the Cholesky factor, but no copy of M
        x = np.ones(300)
        np.testing.assert_allclose(M @ B.apply_inverse(x), x, rtol=1e-12)

    def test_other_dtypes_are_converted(self):
        M = np.eye(3, dtype=int)
        A = rg.dense_operator(M)
        assert M.flags.writeable
        np.testing.assert_array_equal(A.apply(np.ones(3)), np.ones(3))


class TestLinearMap:
    def test_linearity_on_random_probes(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((8, 6))
        A = rg.dense_operator(M)
        X, Y = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        lhs = A.apply(2.5 * X - 0.5 * Y)
        rhs = 2.5 * A.apply(X) - 0.5 * A.apply(Y)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)

    def test_counter_counts_columns(self):
        A = rg.dense_operator(np.eye(5))
        assert A.matvec_count == 0
        A.apply(np.ones((5, 3)))
        assert A.matvec_count == 3
        A.apply(np.ones(5))
        assert A.matvec_count == 4
        A.apply_transpose(np.ones((5, 2)))
        assert A.matvec_count == 6

    def test_solve_counter(self):
        B = rg.dense_spd(np.eye(4))
        B.apply_inverse(np.ones((4, 7)))
        assert B.solve_count == 7
        assert B.matvec_count == 0

    def test_no_whitening_hook(self):
        B = rg.SpdOperator(3, lambda X: X, lambda X: X)
        assert not B.has_whitening and B.cholesky_factor is None
        with pytest.raises(ConfigError, match="whitening"):
            B.whiten(np.ones(3))

    def test_inverse_view_routes_counters(self):
        B = rg.dense_spd(np.diag([2.0, 3.0]))
        W = B.inverse_view()
        np.testing.assert_allclose(W.apply(np.array([2.0, 3.0])), [1.0, 1.0])
        assert B.solve_count == 1 and B.matvec_count == 0
        W.apply_inverse(np.ones(2))
        assert B.matvec_count == 1

    def test_inverse_view_has_no_whitening_hook(self):
        W = rg.dense_spd(np.eye(3)).inverse_view()
        assert not W.has_whitening
        with pytest.raises(ConfigError, match="whitening"):
            W.whiten(np.ones(3))

    def test_shape_validation(self):
        A = rg.dense_operator(np.eye(4))
        with pytest.raises(ConfigError):
            A.apply(np.ones(3))

    def test_transpose_unavailable(self):
        A = rg.LinearMap(3, 3, lambda X: X)
        with pytest.raises(ConfigError):
            A.apply_transpose(np.ones(3))

    def test_transpose_shape_validation(self):
        A = rg.LinearMap(3, 2, lambda X: np.ones((3, X.shape[1])), lambda X: X)
        with pytest.raises(NumericalError):
            A.apply_transpose(np.ones(3))
        assert A.matvec_count == 0

    @staticmethod
    def _nan_at(X):
        out = np.array(X, dtype=float)
        out[0, -1] = np.nan
        return out

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_apply_raises(self, bad):
        A = rg.LinearMap(3, 3, lambda X: np.full(X.shape, bad))
        with pytest.raises(NumericalError):
            A.apply(np.ones((3, 2)))
        assert A.matvec_count == 0

    def test_non_finite_apply_transpose_raises(self):
        A = rg.LinearMap(3, 3, lambda X: X, self._nan_at)
        with pytest.raises(NumericalError):
            A.apply_transpose(np.ones((3, 2)))
        assert A.matvec_count == 0

    def test_non_finite_apply_inverse_raises(self):
        B = rg.SpdOperator(3, lambda X: X, self._nan_at)
        with pytest.raises(NumericalError):
            B.apply_inverse(np.ones(3))
        assert B.solve_count == 0

    def test_apply_inverse_shape_validation(self):
        B = rg.SpdOperator(3, lambda X: X, lambda X: X[:2])
        with pytest.raises(NumericalError):
            B.apply_inverse(np.ones((3, 2)))
        assert B.solve_count == 0

    def test_concurrent_counting_is_exact(self):
        A = rg.dense_operator(np.eye(16))
        X = np.ones((16, 3))
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: A.apply(X), range(80)))
        assert A.matvec_count == 240
