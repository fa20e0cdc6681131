"""Operator contracts, dense backends, Matrix Market / CSV interchange."""

import concurrent.futures
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randghep as rg
from randghep.operators import (
    ConfigError,
    MatrixFormatError,
    NotPositiveDefiniteError,
    NumericalError,
    PoleError,
    UnsupportedFieldError,
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


class TestCsvVectors:
    def test_roundtrip(self, tmp_path):
        v = np.array([1.0, -2.5e-17, 3.25e9, 0.1])
        path = tmp_path / "v.csv"
        rg.save_vector_csv(path, v)
        np.testing.assert_array_equal(rg.load_vector_csv(path), v)

    def test_scientific_notation_accepted(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.5e-3\n\n2E+2\n")
        np.testing.assert_array_equal(rg.load_vector_csv(path), [1.5e-3, 200.0])

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.0\nabc\n")
        with pytest.raises(MatrixFormatError, match="line 2"):
            rg.load_vector_csv(path)


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

    def test_inverse_view_routes_counters(self):
        B = rg.dense_spd(np.diag([2.0, 3.0]))
        W = B.inverse_view()
        np.testing.assert_allclose(W.apply(np.array([2.0, 3.0])), [1.0, 1.0])
        assert B.solve_count == 1 and B.matvec_count == 0
        W.apply_inverse(np.ones(2))
        assert B.matvec_count == 1

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

    def test_c_operator_self_adjoint_in_b(self):
        rng = np.random.default_rng(23)
        n = 25
        G = rng.standard_normal((n, n))
        Bd = G @ G.T + n * np.eye(n)
        Ad = rng.standard_normal((n, n))
        Ad = (Ad + Ad.T) / 2.0
        B = rg.dense_spd(Bd)
        C = rg.c_operator(rg.dense_operator(Ad), B)
        for _ in range(3):
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            lhs = y @ (Bd @ C.apply(x))
            rhs = C.apply(y) @ (Bd @ x)
            nx = np.sqrt(x @ (Bd @ x))
            ny = np.sqrt(y @ (Bd @ y))
            assert abs(lhs - rhs) <= 1e-10 * nx * ny


class TestSpectralTransform:
    def test_alpha_zero_is_scaling(self):
        assert rg.spectral_transform(0.5, 0.0, 2.0) == pytest.approx(1.0)

    def test_direct_substitution(self):
        assert rg.spectral_transform(0.5, 1.0, 1.0) == pytest.approx(1.0)

    def test_forward_map_roundtrip(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 100:
            lam, alpha, beta = rng.uniform(-5, 5, size=3)
            denom = alpha * lam + beta
            if abs(denom) < 1e-3:
                continue
            theta = lam / denom
            if abs(1.0 - theta * alpha) < 1e-6:
                continue
            rec = rg.spectral_transform(theta, alpha, beta)
            assert abs(rec - lam) <= 1e-12 * max(1.0, abs(lam))
            checked += 1

    def test_pole(self):
        with pytest.raises(PoleError):
            rg.spectral_transform(0.5, 2.0, 1.0)

    @given(
        lam=st.floats(-100, 100),
        alpha=st.floats(-3, 3),
        beta=st.floats(-3, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, lam, alpha, beta):
        denom = alpha * lam + beta
        if abs(denom) < 1e-2 or abs(lam) > 1e6:
            return
        theta = lam / denom
        if abs(1.0 - theta * alpha) < 1e-4:
            return
        assert rg.spectral_transform(theta, alpha, beta) == pytest.approx(lam, rel=1e-9, abs=1e-9)
