"""Weighted QR factorizations: correctness, rank handling, Table-style metrics."""

import hashlib
import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest
import scipy.linalg

import randghep as rg
from randghep import borth, ghep
from randghep.operators import ConfigError, IllConditionedError, NumericalError
from randghep.sketch import SketchConfig, gaussian_matrix

from conftest import exact_rank_pencil, make_kle_mass, make_kle_pencil


def _kle_sketch(nu, cols=100, seed=7):
    pencil = make_kle_pencil(nu)
    Omega = gaussian_matrix(201, cols, seed)
    Y = pencil.B.apply_inverse(pencil.A.apply(Omega))
    return Y, pencil.B


class TestMgsW:
    def test_orthonormal_input_is_fixed_point(self):
        rng = np.random.default_rng(0)
        Q0, _ = np.linalg.qr(rng.standard_normal((12, 5)))
        basis = rg.mgs_w(Q0, rg.dense_spd(np.eye(12)))
        assert np.abs(basis.Q - Q0).max() <= 1e-14
        assert np.abs(basis.R - np.eye(5)).max() <= 1e-14

    def test_scalar_weight(self):
        basis = rg.mgs_w(np.array([[1.0]]), rg.dense_spd(np.array([[4.0]])))
        np.testing.assert_allclose(basis.Q, [[0.5]])
        np.testing.assert_allclose(basis.R, [[2.0]])
        np.testing.assert_allclose(basis.WQ, [[2.0]])

    def test_orthogonality_degrades_on_smooth_kernel(self):
        # single-sweep MGS loses B-orthogonality when the sketch columns are
        # nearly dependent (fast singular-value decay)
        Y, B = _kle_sketch(2.5)
        basis = rg.mgs_w(Y, B)
        m = rg.qr_metrics(Y, basis, B)
        assert m[1] >= 1e-6
        assert m[0] <= 1e-13 * np.linalg.norm(Y, 2)

    def test_one_w_apply_per_column(self):
        Yb = np.random.default_rng(5).standard_normal((30, 6))
        B = rg.dense_spd(np.eye(30))
        rg.mgs_w(Yb, B)
        assert B.matvec_count == 6


class TestMgsWReorth:
    def test_identity_weight_reaches_machine_orthogonality(self):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((50, 10))
        basis = rg.mgs_w_reorth(Y, rg.dense_spd(np.eye(50)))
        assert np.linalg.norm(basis.Q.T @ basis.Q - np.eye(10), 2) <= 1e-14

    def test_duplicate_column_flagged(self):
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((20, 5))
        Y[:, 2] = Y[:, 0]
        basis = rg.mgs_w_reorth(Y, rg.dense_spd(np.eye(20)))
        assert not basis.rank_flags[2]
        assert basis.R[2, 2] == 0.0
        assert np.all(basis.Q[:, 2] == 0.0)
        keep = basis.rank_flags
        G = basis.Q[:, keep].T @ basis.Q[:, keep]
        assert np.linalg.norm(G - np.eye(4), 2) <= 1e-13

    def test_kle_smooth_kernel_orthogonality(self):
        Y, B = _kle_sketch(2.5)
        basis = rg.mgs_w_reorth(Y, B)
        m = rg.qr_metrics(Y, basis, B)
        assert m[1] <= 1e-13

    def test_reconstruction_despite_reorth(self):
        Y, B = _kle_sketch(1.5)
        basis = rg.mgs_w_reorth(Y, B)
        m = rg.qr_metrics(Y, basis, B)
        assert m[0] <= 1e-13 * np.linalg.norm(Y, 2)


@pytest.mark.parametrize("alg", [rg.mgs_w, rg.mgs_w_reorth])
def test_mgs_applies_w_to_one_column_per_column_and_sweep(alg):
    # one single-column W-apply per column, plus one per extra sweep: the
    # column-at-a-time B-solves of Nystrom's second QR rest on this
    Y, _ = _kle_sketch(2.5)
    W = CallCountingSpd(make_kle_mass())
    basis = alg(Y, W)
    assert (basis.n_reorth_applies > 0) == (alg is rg.mgs_w_reorth)
    assert W.calls == [1] * (Y.shape[1] + basis.n_reorth_applies)
    assert W.matvec_count == len(W.calls)


@pytest.mark.parametrize("alg", [rg.mgs_w, rg.mgs_w_reorth])
def test_mgs_operator_returning_its_input(alg):
    # an identity weight that hands back its argument gives the bits of a
    # dense identity: the in-place updates of the working column must not
    # reach the weight's output
    Y = np.random.default_rng(0).standard_normal((50, 8))
    aliasing = alg(Y, rg.SpdOperator(50, lambda X: X, lambda X: X))
    dense = alg(Y, rg.dense_spd(np.eye(50)))
    for name in ("Q", "WQ", "R", "rank_flags"):
        assert np.array_equal(getattr(aliasing, name), getattr(dense, name)), name
    assert np.linalg.norm(aliasing.Q.T @ aliasing.Q - np.eye(8), 2) <= 1e-14
    assert np.linalg.norm(aliasing.Q @ aliasing.R - Y, 2) <= 1e-14 * np.linalg.norm(Y, 2)


# (nu, algorithm) -> n_reorth_applies of the n = 201 KLE sketches with
# kappa(Y) >= 1e9; every column is kept
HARD_SKETCH_REORTH = {(1.5, "mgs_w"): 0, (1.5, "mgs_w_reorth"): 98,
                      (2.5, "mgs_w"): 0, (2.5, "mgs_w_reorth"): 99}


@pytest.mark.parametrize("nu, name", sorted(HARD_SKETCH_REORTH))
def test_mgs_rank_decisions_on_ill_conditioned_sketches(nu, name):
    Y, B = _kle_sketch(nu)
    kappa = np.linalg.cond(Y)
    assert kappa >= 1e9
    basis = getattr(rg, name)(Y, B)
    assert basis.rank_flags.all()
    assert basis.n_reorth_applies == HARD_SKETCH_REORTH[nu, name]
    m = rg.qr_metrics(Y, basis, B)
    y_scale = np.linalg.norm(Y, 2)
    assert m[0] <= 1e-13 * y_scale
    if name == "mgs_w_reorth":
        assert m[1] <= 1e-13 and m[2] <= 1e-13 * y_scale
    else:
        assert m[1] >= 1e-9
    # ||Y R^{-1} - Q|| is a forward error: of order eps kappa(Y)
    assert m[3] <= 100 * borth.EPS * kappa


class TestCholQr:
    def test_single_column(self):
        basis = rg.chol_qr_w(np.array([[3.0], [4.0]]), rg.dense_spd(np.eye(2)))
        np.testing.assert_allclose(basis.R, [[5.0]])
        np.testing.assert_allclose(basis.Q, [[0.6], [0.8]])

    def test_residual_oracle_random_weight(self):
        rng = np.random.default_rng(21)
        Y = rng.standard_normal((30, 5))
        G = rng.standard_normal((30, 30))
        W = rg.dense_spd(G @ G.T + 30 * np.eye(30))
        basis = rg.chol_qr_w(Y, W)
        assert np.linalg.norm(basis.Q @ basis.R - Y, 2) <= 1e-13 * np.linalg.norm(Y, 2)

    def test_breakdown_on_squared_conditioning(self):
        # condition number ~1e9 squares to ~1e18 in the Gram matrix
        rng = np.random.default_rng(2)
        U, _ = np.linalg.qr(rng.standard_normal((30, 5)))
        V, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        Y = (U * np.logspace(0, -9, 5)) @ V.T
        with pytest.raises(IllConditionedError):
            rg.chol_qr_w(Y, rg.dense_spd(np.eye(30)))


class TestPreCholQr:
    def test_identity_weight_matches_plain_qr(self):
        rng = np.random.default_rng(31)
        Y = rng.standard_normal((25, 6))
        basis = rg.pre_chol_qr_w(Y, rg.dense_spd(np.eye(25)))
        Qref, _ = np.linalg.qr(Y)
        signs = np.sign(np.sum(Qref * basis.Q, axis=0))
        assert np.abs(basis.Q - Qref * signs).max() <= 1e-12

    def test_kle_smooth_kernel_orthogonality(self):
        Y, B = _kle_sketch(2.5)
        basis = rg.pre_chol_qr_w(Y, B)
        m = rg.qr_metrics(Y, basis, B)
        assert m[1] <= 1e-13
        # fourth metric blows up when R is nearly singular, and that is fine
        assert m[3] > 1e-6

    def test_diag_of_r_nonnegative(self):
        rng = np.random.default_rng(17)
        Y = rng.standard_normal((20, 6))
        basis = rg.pre_chol_qr_w(Y, rg.dense_spd(np.diag(np.linspace(1, 3, 20))))
        assert np.all(np.diag(basis.R) >= 0.0)


class CallCountingSpd(rg.SpdOperator):
    """A dense SPD weight that also records the column count of every apply call."""

    def __init__(self, M):
        self.calls = []
        inner = rg.dense_spd(M)
        super().__init__(M.shape[0], self._record(inner), inner.apply_inverse)

    def _record(self, inner):
        def apply(X):
            self.calls.append(X.shape[1])
            return inner.apply(X)

        return apply


def _random_weight(n, seed):
    G = np.random.default_rng(seed).standard_normal((n, n))
    return G @ G.T + n * np.eye(n)


class TestPreCholQrBlockPath:
    def test_one_block_w_apply_no_reorth(self):
        Y = np.random.default_rng(4).standard_normal((50, 8))
        W = CallCountingSpd(_random_weight(50, 4))
        basis = rg.pre_chol_qr_w(Y, W)
        assert W.calls == [8]
        assert W.matvec_count - basis.n_reorth_applies == 8 and basis.n_reorth_applies == 0

    def test_input_left_untouched(self):
        Y = np.random.default_rng(6).standard_normal((30, 5))
        Y0 = Y.copy()
        rg.pre_chol_qr_w(Y, rg.dense_spd(_random_weight(30, 6)))
        assert np.array_equal(Y, Y0)

    def test_operator_returning_its_input(self):
        # an identity weight that hands back its argument must not alias Q and WQ
        Y = np.random.default_rng(9).standard_normal((20, 4))
        W = rg.SpdOperator(20, lambda X: X, lambda X: X)
        basis = rg.pre_chol_qr_w(Y, W)
        assert np.linalg.norm(basis.Q.T @ basis.Q - np.eye(4), 2) <= 1e-14
        assert np.array_equal(basis.Q, basis.WQ)

    def test_append_matches_one_shot(self):
        rng = np.random.default_rng(19)
        n = 60
        Y1, Y2 = rng.standard_normal((n, 7)), rng.standard_normal((n, 5))
        Y = np.hstack([Y1, Y2])
        Wd = _random_weight(n, 19)
        W = CallCountingSpd(Wd)
        ext = rg.pre_chol_qr_w(Y2, W, basis=rg.pre_chol_qr_w(Y1, W))
        assert W.calls == [7, 5]
        assert W.matvec_count - ext.n_reorth_applies == 12 and ext.n_reorth_applies == 0
        full = rg.pre_chol_qr_w(Y, rg.dense_spd(Wd))
        assert np.linalg.norm(ext.R - full.R, 2) <= 1e-12 * np.linalg.norm(full.R, 2)
        assert np.linalg.norm(ext.Q.T @ (Wd @ ext.Q) - np.eye(12), 2) <= 1e-13
        assert np.linalg.norm(ext.Q @ ext.R - Y, 2) <= 1e-13 * np.linalg.norm(Y, 2)
        assert np.abs(np.tril(ext.R, -1)).max() == 0.0

    @staticmethod
    def _check_dependent(basis, Y, W, flagged):
        assert np.flatnonzero(~basis.rank_flags).tolist() == flagged
        for j in flagged:
            assert basis.R[j, j] == 0.0
            assert not basis.R[j].any()
            assert not basis.Q[:, j].any() and not basis.WQ[:, j].any()
        keep = basis.rank_flags
        Qk = basis.Q[:, keep]
        assert np.linalg.norm(Qk.T @ W.apply(Qk) - np.eye(keep.sum()), 2) <= 1e-13
        assert np.linalg.norm(basis.Q @ basis.R - Y, 2) <= 1e-13 * np.linalg.norm(Y, 2)
        assert np.abs(np.tril(basis.R, -1)).max() == 0.0

    def test_dependent_column_in_first_block(self):
        # the duplicate sits before independent columns, which must still be
        # factorized exactly
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((20, 6))
        Y[:, 2] = Y[:, 0]
        W = rg.dense_spd(np.diag(np.linspace(1.0, 3.0, 20)))
        basis = rg.pre_chol_qr_w(Y, W)
        assert W.matvec_count - basis.n_reorth_applies == 5
        self._check_dependent(basis, Y, W, [2])

    def test_dependent_columns_in_appended_block(self):
        rng = np.random.default_rng(12)
        Y1 = rng.standard_normal((30, 5))
        Y2 = rng.standard_normal((30, 4))
        Y2[:, 0] = Y1 @ rng.standard_normal(5)  # inside the existing basis
        Y2[:, 3] = Y2[:, 1] - 2.0 * Y2[:, 2]  # inside the new block
        W = rg.dense_spd(_random_weight(30, 12))
        basis = rg.pre_chol_qr_w(Y2, W, basis=rg.pre_chol_qr_w(Y1, W))
        assert W.matvec_count - basis.n_reorth_applies == 7
        self._check_dependent(basis, np.hstack([Y1, Y2]), W, [5, 8])

    def test_all_zero_block_applies_no_weight(self):
        W = CallCountingSpd(np.eye(5))
        basis = rg.pre_chol_qr_w(np.zeros((5, 2)), W)
        assert not basis.rank_flags.any() and not basis.R.any() and not basis.Q.any()
        assert W.calls == [] and W.matvec_count - basis.n_reorth_applies == 0

    @staticmethod
    def _near_duplicate(gap):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((25, 4))
        Y[:, 1] = Y[:, 0] + gap * np.linalg.norm(Y[:, 0]) * Y[:, 2] / np.linalg.norm(Y[:, 2])
        return rg.pre_chol_qr_w(Y, rg.dense_spd(np.eye(25)))

    def test_near_duplicate_is_kept(self):
        # 1e-11 relative independence is above the RANK_TOL eps threshold
        assert self._near_duplicate(1e-11).rank_flags.all()

    def test_near_duplicate_at_roundoff_is_flagged(self):
        # 1e-14 relative independence (45 eps) is below it
        assert self._near_duplicate(1e-14).rank_flags.tolist() == [True, False, True, True]

    def test_kle_smooth_kernel_w_orthogonality(self):
        # nu = 2.5: the sketch is numerically ill-conditioned, yet the block
        # path keeps Q^T B Q = I to 1e-13 from one block B-apply
        Y, B = _kle_sketch(2.5)
        assert np.linalg.cond(Y) >= 1e9
        calls_before = B.matvec_count
        basis = rg.pre_chol_qr_w(Y, B)
        assert basis.rank_flags.all()
        assert B.matvec_count - calls_before - basis.n_reorth_applies == basis.n_kept
        m = rg.qr_metrics(Y, basis, B)
        assert m[1] <= 1e-13
        assert m[0] <= 1e-13 * np.linalg.norm(Y, 2)

    def test_grown_kle_basis_stays_w_orthonormal(self):
        Y, B = _kle_sketch(2.5)
        basis = None
        for lo in range(0, 100, 20):
            basis = rg.pre_chol_qr_w(Y[:, lo:lo + 20], B, basis=basis)
        m = rg.qr_metrics(Y, basis, B)
        assert m[1] <= 1e-13
        assert m[0] <= 1e-13 * np.linalg.norm(Y, 2)

    def test_non_finite_input_raises(self):
        Y = np.ones((5, 2))
        Y[3, 1] = np.nan
        with pytest.raises(NumericalError):
            rg.pre_chol_qr_w(Y, rg.dense_spd(np.eye(5)))

    def test_non_finite_weight_output_raises(self):
        W = rg.SpdOperator(6, lambda X: np.full_like(X, np.nan), lambda X: X)
        with pytest.raises(NumericalError):
            rg.pre_chol_qr_w(np.random.default_rng(1).standard_normal((6, 3)), W)

    def test_breakdown_on_singular_weight(self):
        # W = diag(1, ..., 1e-18) on unit columns: the Gram matrix is
        # diag(1, 1e-2, 1e-16, 1e-18) and its pivots fall to roundoff level
        W = rg.SpdOperator(10, lambda X: np.logspace(0, -18, 10)[:, None] * X, lambda X: X)
        with pytest.raises(IllConditionedError, match=r"kappa\(W\) near 1/eps"):
            rg.pre_chol_qr_w(np.eye(10)[:, [0, 1, 8, 9]], W)

    def test_basis_row_mismatch_rejected(self):
        W = rg.dense_spd(np.eye(6))
        basis = rg.pre_chol_qr_w(np.eye(6)[:, :2], W)
        with pytest.raises(ConfigError):
            rg.pre_chol_qr_w(np.ones((5, 1)), rg.dense_spd(np.eye(5)), basis=basis)


#: (n, s) -> SHA-256 of the row indices (int32, little-endian) and of the
#: sign bits of ``borth.sparse_sign_embedding(n, s)``, column after column.
EMBEDDING_PINS = {
    (1000, 220): ("11c937ef061179c0c7dc27556185dc8db97425fda2da37057c0749d01b70eefd",
                  "4bf9d8c09f66123dadf690fbee76ff6b9b563ba734e72c84014b582a1c3e1e7c"),
    (301, 20): ("16d766b2d2325e1cbc54b854137b72eb2689bd56b4b4c056c892795ae0390f1e",
                "303da42ac17c8bec59a00da7147d2640caacb801d199dfa010bc87cbed1f8e30"),
}


#: b_kappa -> the seeds of ``test_kept_count_is_the_rank_of_exact_rank_sketches``
#: whose roundoff column passes RANK_TOL eps of the block and is kept: the
#: block-relative rule's floor, measured at b_kappa = 100.
EXACT_RANK_FLOOR = {100.0: {144, 276, 299}}


def _copied(basis):
    """``basis`` with its arrays copied and no column store."""
    return borth.BOrthoBasis(basis.Q.copy(), basis.WQ.copy(), basis.R.copy(), basis.rank_flags.copy(),
                             basis.n_reorth_applies)


def _same(a, b):
    return (np.array_equal(a.Q, b.Q) and np.array_equal(a.WQ, b.WQ) and np.array_equal(a.R, b.R)
            and np.array_equal(a.rank_flags, b.rank_flags))


class TestAppendInPlace:
    """An append writes its block into the column store of the basis it
    extends only when that basis owns every used column of the store."""

    @staticmethod
    def _blocks(n=40, sizes=(6, 3, 3, 2), seed=21):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal((n, m)) for m in sizes], rg.dense_spd(_random_weight(n, seed))

    def test_append_leaves_the_extended_basis_unchanged(self):
        (Y0, Y1, Y2, _), W = self._blocks()
        parent = rg.pre_chol_qr_w(Y1, W, basis=rg.pre_chol_qr_w(Y0, W))
        before = _copied(parent)
        child = rg.pre_chol_qr_w(Y2, W, basis=parent)
        assert child._store is parent._store  # written in place
        assert _same(parent, before)
        assert np.array_equal(child.Q[:, :9], before.Q) and np.array_equal(child.R[:9, :9], before.R)

    def test_two_appends_to_one_parent_equal_appends_to_copies(self):
        (Y0, Y1, Y2, Y3), W = self._blocks()
        parent = rg.pre_chol_qr_w(Y1, W, basis=rg.pre_chol_qr_w(Y0, W))
        first = rg.pre_chol_qr_w(Y2, W, basis=parent)
        second = rg.pre_chol_qr_w(Y3, W, basis=parent)
        assert second._store is not first._store
        assert _same(first, rg.pre_chol_qr_w(Y2, W, basis=_copied(parent)))
        assert _same(second, rg.pre_chol_qr_w(Y3, W, basis=_copied(parent)))

    def test_append_to_a_compacted_basis(self):
        (Y0, Y1, Y2, _), W = self._blocks()
        Y1[:, 2] = Y0[:, 1]  # dependent on the first block
        parent = rg.pre_chol_qr_w(Y1, W, basis=rg.pre_chol_qr_w(Y0, W))
        assert parent.n_kept == 8
        before = _copied(parent)
        grown = rg.pre_chol_qr_w(Y2, W, basis=parent.compact())
        assert _same(grown, rg.pre_chol_qr_w(Y2, W, basis=_copied(parent.compact())))
        assert _same(rg.pre_chol_qr_w(Y2, W, basis=parent), rg.pre_chol_qr_w(Y2, W, basis=before))
        assert _same(parent, before)

    def test_concurrent_appends_to_one_basis(self, monkeypatch):
        # more threads than cores append to one parent at once: at most one
        # may write into its store, and every result equals the append to a
        # fresh copy.  Reading the store's column count sleeps before it
        # returns, which widens the window between a claim's check and its
        # update.
        def slow_used(store):
            used = store.__dict__["_used"]
            time.sleep(1e-3)
            return used

        monkeypatch.setattr(borth._ColumnStore, "used",
                            property(slow_used, lambda store, v: store.__dict__.__setitem__("_used", v)),
                            raising=False)
        (Y0, Y1, _, _), W = self._blocks()
        blocks = [np.random.default_rng(s).standard_normal((40, 2)) for s in range(8)]
        parent = rg.pre_chol_qr_w(Y1, W, basis=rg.pre_chol_qr_w(Y0, W))
        want = [rg.pre_chol_qr_w(Y, W, basis=_copied(parent)) for Y in blocks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                parent = rg.pre_chol_qr_w(Y1, W, basis=rg.pre_chol_qr_w(Y0, W))
                got = [None] * len(blocks)
                start = threading.Barrier(len(blocks))

                def work(i):
                    start.wait(timeout=30.0)
                    got[i] = rg.pre_chol_qr_w(blocks[i], W, basis=parent)

                threads = [threading.Thread(target=work, args=(i,)) for i in range(len(blocks))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
                assert not any(t.is_alive() for t in threads)
                assert sum(b._store is parent._store for b in got) <= 1
                assert all(_same(b, w) for b, w in zip(got, want))
        finally:
            sys.setswitchinterval(interval)

    def test_store_doubles_over_a_growth_run(self, monkeypatch):
        grown = []

        def recording(Y, W, basis=None, overwrite_y=False):
            out = borth.pre_chol_qr_w(Y, W, basis=basis, overwrite_y=overwrite_y)
            grown.append(out)
            return out

        monkeypatch.setattr(rg.errors, "pre_chol_qr_w", recording)
        pencil = make_kle_pencil(0.5, 0.5, 300)
        k0 = 5
        res = rg.grow_sketch_until(pencil.A, pencil.B, k0=k0, tol=1e-3, seed=1)
        final = max(b.Q.shape[1] for b in grown)
        assert final >= 100
        stores = {id(b._store): b._store for b in grown}
        assert len(stores) <= math.ceil(math.log2(final / k0)) + 1
        for b in grown:
            used = b.Q.shape[1]
            assert b._store.Q.shape[1] <= 2 * used
            assert np.shares_memory(b.Q, b._store.Q) and np.shares_memory(b.WQ, b._store.WQ)
        assert res.basis.Q.flags.f_contiguous


class TestOverwriteY:
    """``overwrite_y=True`` gives the default's bits, and the default leaves Y
    as it was."""

    @staticmethod
    def _bits(basis):
        return [a.tobytes() for a in (basis.Q, basis.WQ, basis.R, basis.rank_flags)]

    @pytest.mark.parametrize("dependent", [False, True])
    def test_pre_chol_qr_w(self, dependent):
        Y, B = _kle_sketch(1.5, cols=40)
        if dependent:
            Y[:, 7] = Y[:, 3]  # a dropped column takes the reorder path
        Y = np.asfortranarray(Y)
        kept = Y.copy()
        ref = borth.pre_chol_qr_w(Y, B)
        assert np.array_equal(Y, kept)
        got = borth.pre_chol_qr_w(Y, B, overwrite_y=True)
        assert self._bits(got) == self._bits(ref)
        assert ref.n_kept == 40 - dependent

    def test_pre_chol_qr_w_append(self):
        Y, B = _kle_sketch(0.5, cols=30)
        base = borth.pre_chol_qr_w(Y[:, :20], B)
        block = np.asfortranarray(Y[:, 20:])
        kept = block.copy()
        ref = borth.pre_chol_qr_w(block, B, basis=base)
        assert np.array_equal(block, kept)
        got = borth.pre_chol_qr_w(block, B, basis=base, overwrite_y=True)
        assert self._bits(got) == self._bits(ref)

    def test_mgs_w_reorth(self):
        Y, B = _kle_sketch(2.5, cols=30)
        Y = np.asfortranarray(Y)
        kept = Y.copy()
        ref = borth.mgs_w_reorth(Y, B)
        assert np.array_equal(Y, kept)
        got = borth.mgs_w_reorth(Y, B, overwrite_y=True)
        assert self._bits(got) == self._bits(ref)
        assert got.n_reorth_applies == ref.n_reorth_applies

    @pytest.mark.parametrize("layout", ["C", "read-only"])
    def test_other_y_is_copied(self, layout):
        # the work array needs a writeable Y in the factorization's order
        Y, B = _kle_sketch(1.5, cols=20)
        Y = np.ascontiguousarray(Y) if layout == "C" else np.asfortranarray(Y)
        Y.setflags(write=layout == "C")
        kept = Y.copy()
        for qr in (borth.pre_chol_qr_w, borth.mgs_w_reorth):
            assert self._bits(qr(Y, B, overwrite_y=True)) == self._bits(qr(kept, B))
            assert np.array_equal(Y, kept)


class TestSketchPreconditioning:
    @pytest.mark.parametrize("n, s", sorted(EMBEDDING_PINS))
    def test_embedding_is_pinned(self, n, s):
        S = borth.sparse_sign_embedding(n, s)
        nnz = min(borth.EMBED_NNZ, s)
        assert S.shape == (s, n) and S.nnz == nnz * n
        assert np.array_equal(S.indptr, np.arange(0, nnz * n + 1, nnz))
        rows = S.indices.reshape(n, nnz)
        assert all(len(set(col)) == nnz for col in rows.tolist())
        assert np.array_equal(np.abs(S.data), np.full(nnz * n, 1.0 / np.sqrt(nnz)))
        got = (hashlib.sha256(S.indices.astype("<i4").tobytes()).hexdigest(),
               hashlib.sha256(np.signbit(S.data).tobytes()).hexdigest())
        assert got == EMBEDDING_PINS[n, s]

    def test_no_n_row_array_is_factored(self, monkeypatch):
        n, m = 400, 30
        shapes = []
        qr = scipy.linalg.qr

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "qr", spy)
        rng = np.random.default_rng(2)
        W = rg.dense_spd(_random_weight(n, 2))
        basis = rg.pre_chol_qr_w(rng.standard_normal((n, m)), W)
        rg.pre_chol_qr_w(rng.standard_normal((n, m)), W, basis=basis)
        assert shapes == [(2 * m, m)] * 2

    @staticmethod
    def _exact_rank_sketch(seed, b_kappa):
        rank = 3 + seed % 3
        Ad, Bd, _ = exact_rank_pencil(40, np.geomspace(10.0, 1.0, rank), b_kappa=b_kappa, seed=seed)
        B = rg.dense_spd(Bd)
        Y = B.apply_inverse(rg.dense_operator(Ad).apply(gaussian_matrix(40, 8, seed)))
        return rg.pre_chol_qr_w(Y, B).n_kept, rank

    @pytest.mark.parametrize("b_kappa", [10.0, 100.0])
    def test_kept_count_is_the_rank_of_exact_rank_sketches(self, b_kappa):
        # roundoff of Y = B^{-1} A Omega grows with kappa(B): at b_kappa = 10
        # it stays below 220 eps of the block on these 300 sketches, at 100
        # it passes RANK_TOL eps on the seeds of EXACT_RANK_FLOOR
        for seed in sorted(set(range(300)) - EXACT_RANK_FLOOR.get(b_kappa, set())):
            n_kept, rank = self._exact_rank_sketch(seed, b_kappa)
            assert n_kept == rank, seed

    @pytest.mark.xfail(strict=True, reason="the rank rule keeps a roundoff column (ROADMAP item 4)")
    @pytest.mark.parametrize("b_kappa, seed", [(k, s) for k, seeds in EXACT_RANK_FLOOR.items()
                                               for s in sorted(seeds)])
    def test_exact_rank_sketch_past_the_rule_s_floor(self, b_kappa, seed):
        n_kept, rank = self._exact_rank_sketch(seed, b_kappa)
        assert n_kept == rank

    @pytest.mark.parametrize("kappa", [1e10, 1e12, 1e14, 3e14])
    def test_sketch_aligned_with_extreme_eigenvectors_of_w(self, kappa):
        # Z R_s^{-1} is well conditioned, so the Gram matrix has kappa ~ kappa(W)
        # and Q^T W Q = I holds to eps kappa(W), without a breakdown
        n, m = 120, 12
        for seed in range(5):
            rng = np.random.default_rng(seed)
            V, _ = np.linalg.qr(rng.standard_normal((n, n)))
            Wd = (V * np.geomspace(1.0, 1.0 / kappa, n)) @ V.T
            Wd = (Wd + Wd.T) / 2.0
            Y = V[:, np.r_[0:m // 2, n - m // 2:n]] @ rng.standard_normal((m, m))
            basis = rg.pre_chol_qr_w(Y, rg.dense_spd(Wd))
            assert basis.rank_flags.all()
            assert np.linalg.norm(basis.Q.T @ Wd @ basis.Q - np.eye(m), 2) <= borth.EPS * kappa


class TestRankRuleScale:
    """The rank rule's scale, the largest column norm of Y, is read the
    same when the column sums of squares overflow (Y ~ 2**800) or vanish
    (Y ~ 2**-800), so scaling the pencil by a power of two moves nothing."""

    @pytest.mark.parametrize("k", [500, -500, -800])
    @pytest.mark.parametrize("scaled", ["A", "B"])
    @pytest.mark.parametrize("method", ["two_pass", "single_pass", "nystrom"])
    def test_flags_and_eigenvalues_under_power_of_two_scaling(self, method, scaled, k):
        Ad, Bd, _ = exact_rank_pencil(50, [10.0, 5.0, 1.0], b_kappa=10, seed=1)
        runs = []
        for e in (0, k):
            A = rg.dense_operator(np.ldexp(Ad, e if scaled == "A" else 0))
            B = rg.dense_spd(np.ldexp(Bd, e if scaled == "B" else 0))
            Y = B.apply_inverse(A.apply(gaussian_matrix(50, 7, 1000)))
            sol = ghep.solver_method(method)(A, B, SketchConfig(k=3, p=4, seed=1000))
            # the pencil's eigenvalues scale by 2**e (A) or 2**-e (B)
            lam = np.ldexp(sol.eigenvalues, -e if scaled == "A" else e)
            runs.append((rg.pre_chol_qr_w(Y, B).rank_flags, sol.diagnostics["effective_rank"], lam))
        (flags, rank, lam), (flags_k, rank_k, lam_k) = runs
        assert flags.sum() == rank == 3
        assert np.array_equal(flags_k, flags) and rank_k == rank
        np.testing.assert_allclose(lam_k, lam, rtol=1e-14)

    @pytest.mark.parametrize("append", [False, True])
    def test_subnormal_block(self, append):
        # at 2**-1040 every entry is subnormal, and RANK_TOL eps max ||y_j|| is
        # too: the block is factored scaled into the normal range
        rng = np.random.default_rng(5)
        Y, W = rng.standard_normal((200, 12)), rg.dense_spd(make_kle_mass(200))
        basis = rg.pre_chol_qr_w(rng.standard_normal((200, 8)), W) if append else None
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ref, tiny = (rg.pre_chol_qr_w(np.ldexp(Y, e), W, basis=basis) for e in (0, -1040))
        assert tiny.rank_flags.all()
        assert np.max(np.abs(tiny.Q - ref.Q)) <= 1e-8
        # the block's columns of R, its coefficients on the basis included
        R, R_ref = np.ldexp(tiny.R[:, -12:], 1040), ref.R[:, -12:]
        np.testing.assert_allclose(R, R_ref, rtol=0, atol=1e-8 * np.abs(R_ref).max())

    @pytest.mark.parametrize("e", [-1060, -990, 0, 511, 1000])
    def test_largest_column_norm(self, e):
        Y = np.ldexp(np.array([[3.0, 0.0], [4.0, 1.0]]), e)
        assert borth._largest_column_norm(Y) == math.ldexp(5.0, e)
        assert borth._largest_column_norm(np.zeros((3, 2))) == 0.0


class TestQrMetrics:
    def test_exact_inputs_give_zero(self):
        eye = np.eye(4)
        basis = borth.BOrthoBasis(eye, eye, eye, np.ones(4, dtype=bool))
        assert rg.qr_metrics(eye, basis, rg.dense_spd(eye)) == (0.0, 0.0, 0.0, 0.0)

    def test_singular_r_gives_inf(self):
        eye = np.eye(3)
        R = np.diag([1.0, 0.0, 1.0])
        basis = borth.BOrthoBasis(eye, eye, R, np.array([True, False, True]))
        assert rg.qr_metrics(eye, basis, rg.dense_spd(eye))[3] == np.inf

    def test_dropped_column_is_not_lost_orthogonality(self):
        # the basis's column 1 is dropped: Q^T W Q - I is read over columns 0 and 2
        D = np.diag([1.0, 0.0, 1.0])
        basis = borth.BOrthoBasis(D, D, D, np.array([True, False, True]))
        assert rg.qr_metrics(D, basis, rg.dense_spd(np.eye(3))) == (0.0, 0.0, 0.0, np.inf)

    def test_mgs_vs_reorth_gap_six_orders(self):
        Y, B = _kle_sketch(2.5)
        m_plain = rg.qr_metrics(Y, rg.mgs_w(Y, B), B)
        m_reorth = rg.qr_metrics(Y, rg.mgs_w_reorth(Y, B), B)
        assert m_plain[1] >= 1e6 * m_reorth[1]

    def test_deterministic(self):
        Y, B = _kle_sketch(1.5, cols=40, seed=3)
        m1 = rg.qr_metrics(Y, rg.mgs_w_reorth(Y, B), B)
        m2 = rg.qr_metrics(Y, rg.mgs_w_reorth(Y, B), B)
        assert m1 == m2


@pytest.mark.parametrize("alg", [rg.mgs_w, rg.mgs_w_reorth, rg.chol_qr_w, rg.pre_chol_qr_w])
def test_full_rank_invariants(alg):
    rng = np.random.default_rng(77)
    n, r = 60, 12
    Y = rng.standard_normal((n, r))
    G = rng.standard_normal((n, n))
    W = rg.dense_spd(G @ G.T + n * np.eye(n))
    basis = alg(Y, W)
    assert np.all(basis.rank_flags)
    assert np.linalg.norm(basis.Q @ basis.R - Y, 2) <= 1e-12 * np.linalg.norm(Y, 2)
    assert np.all(np.diag(basis.R) >= 0.0)
    assert np.abs(np.tril(basis.R, -1)).max() == 0.0
    # cached product is the real thing
    Wd = G @ G.T + n * np.eye(n)
    assert (
        np.linalg.norm(basis.WQ - Wd @ basis.Q, 2)
        <= 1e-12 * np.linalg.norm(Wd, 2) * np.linalg.norm(basis.Q, 2)
    )


@pytest.mark.parametrize("alg", [rg.mgs_w_reorth, rg.pre_chol_qr_w])
def test_orthogonality_holds_up_to_cond_1e8(alg):
    # stable algorithms keep Q^T W Q = I through condition number 1e8
    rng = np.random.default_rng(55)
    n, r = 80, 10
    U, _ = np.linalg.qr(rng.standard_normal((n, r)))
    V, _ = np.linalg.qr(rng.standard_normal((r, r)))
    Y = (U * np.logspace(0, -8, r)) @ V.T
    W = rg.dense_spd(np.diag(np.linspace(0.5, 2.0, n)))
    basis = alg(Y, W)
    m = rg.qr_metrics(Y, basis, W)
    assert m[1] <= 1e-12


def test_more_columns_than_rows_rejected():
    with pytest.raises(ConfigError):
        rg.mgs_w(np.ones((3, 4)), rg.dense_spd(np.eye(3)))


class TestCompact:
    def test_full_rank_basis_is_returned_as_is(self):
        rng = np.random.default_rng(4)
        basis = rg.pre_chol_qr_w(rng.standard_normal((20, 5)), rg.dense_spd(np.eye(20)))
        assert basis.rank_flags.all()
        assert basis.compact() is basis

    def test_dependent_columns_dropped(self):
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((20, 5))
        Y[:, 2] = Y[:, 0]
        basis = rg.mgs_w_reorth(Y, rg.dense_spd(np.eye(20)))
        small = basis.compact()
        assert small is not basis
        keep = [0, 1, 3, 4]
        assert small.rank_flags.all() and small.rank_flags.size == 4
        assert np.array_equal(small.Q, basis.Q[:, keep])
        assert np.array_equal(small.WQ, basis.WQ[:, keep])
        assert np.array_equal(small.R, basis.R[np.ix_(keep, keep)])
        assert small.n_reorth_applies == basis.n_reorth_applies
