"""QR factorizations in a weighted inner product <x, y>_W = y^T W x.

``pre_chol_qr_w`` (PreCholQR: randomized Cholesky QR, a sparse sign
sketch S Y of 2m rows whose small QR preconditions Y, then CholeskyQR2 in
the W-inner product, with an in-place BCGS2 append) is the one block path:
the range finder, the GSVD and sketch growth all call it, it factors no
n-row array, and it touches W only through one block apply per call.  A
growing basis keeps its columns in a store with spare capacity, so an
append writes only the new block.  Its rank rule is
block-relative: a column is dependent when its sketched R_jj falls to
RANK_TOL eps of the block's largest column, a norm read without overflow or
underflow (``_largest_column_norm``), so the rule does not move when the
block is scaled by a power of two.  Plain modified
Gram-Schmidt (``mgs_w``), MGS with Rutishauser-style re-orthogonalization
(``mgs_w_reorth``) and plain CholQR (``chol_qr_w``) are reference
algorithms for the QR-quality comparison (``randghep qr-bench``); MGS-R
also serves Nystrom's second, B^{-1}-weighted QR.  The MGS variants keep
the per-column rule tt <= 10 eps t, which keeps roundoff columns of
rank-deficient input.  The MGS core applies W to one column at a time, keeps
each column contiguous (as a row of its work array) and projects with
in-place BLAS-1 updates.  All return the factor Q,
the cached product W*Q, and the upper-triangular R.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.blas import daxpy, ddot, dgemm, dtrsm

from .operators import ConfigError, IllConditionedError, NumericalError, SpdOperator

EPS = np.finfo(float).eps  # unit roundoff of double precision, ~2.22e-16
_TINY = np.finfo(float).tiny  # the smallest normal double, ~2.23e-308

MAX_REORTH_SWEEPS = 5


class _ColumnStore:
    """F-ordered n x capacity arrays that hold the Q and W*Q columns of a
    growing basis.  The leading ``used`` columns belong to the newest basis
    appended into them; ``claim`` takes the next ones under a lock, so two
    appends to one basis never write the same columns."""

    def __init__(self, Q: np.ndarray, WQ: np.ndarray, capacity: int, used: int) -> None:
        n, r0 = Q.shape
        self.Q = np.empty((n, capacity), order="F")
        self.WQ = np.empty((n, capacity), order="F")
        self.Q[:, :r0], self.WQ[:, :r0] = Q, WQ
        self.used = used
        self._lock = threading.Lock()

    def claim(self, r0: int, r: int) -> bool:
        """Take columns r0:r when exactly the first r0 are used and r fit."""
        with self._lock:
            if self.used != r0 or r > self.Q.shape[1]:
                return False
            self.used = r
            return True


@dataclass
class BOrthoBasis:
    """Weighted-orthonormal factorization Y = Q R with Q^T W Q = I.

    ``rank_flags[j]`` is False where column j was declared numerically
    dependent: that column of Q/WQ is zeroed and R[j, j] = 0.  Columns are
    zeroed in place rather than removed so indexing is preserved; use
    ``compact()`` to drop them.

    ``n_reorth_applies`` counts the extra columns that MGS-R's
    re-orthogonalization sweeps apply W to, beyond the one apply per column
    (MGS) or per kept column (PreCholQR) of the factorization proper.  The
    block path makes no such sweeps, so its bases keep that count at the
    value of the basis they extend (0 for a fresh one).

    A basis built by an append (``pre_chol_qr_w(..., basis=)``) reads its Q
    and WQ as views of the leading columns of a ``_ColumnStore`` with spare
    columns, which later appends fill in place; Q and WQ must be treated as
    read-only, since the bases grown from one another share that memory.
    """

    Q: np.ndarray
    WQ: np.ndarray
    R: np.ndarray
    rank_flags: np.ndarray
    n_reorth_applies: int = 0
    _store: _ColumnStore | None = field(default=None, repr=False)

    @property
    def n_kept(self) -> int:
        return int(self.rank_flags.sum())

    def compact(self) -> "BOrthoBasis":
        """Drop rank-deficient columns (the QR identity no longer applies).

        Returns ``self`` when every column is kept, else a new basis.
        """
        if self.rank_flags.all():
            return self
        keep = np.flatnonzero(self.rank_flags)
        return BOrthoBasis(
            Q=self.Q[:, keep],
            WQ=self.WQ[:, keep],
            R=self.R[np.ix_(keep, keep)],
            rank_flags=np.ones(keep.size, dtype=bool),
            n_reorth_applies=self.n_reorth_applies,
        )

    def _append(self, Q: np.ndarray, WQ: np.ndarray, coef: np.ndarray, R: np.ndarray,
                flags: np.ndarray) -> "BOrthoBasis":
        """This basis extended by the block (Q, WQ, R), whose coefficients on
        this basis are ``coef``.

        The block goes into this basis's store when the basis owns every used
        column of it and a free column is left for each new one.  Otherwise
        the columns are copied into a new store, of the old capacity when that
        holds them and of twice it (at most n) when not, so n columns cost
        O(log n) copies and a store never has more than twice the columns its
        newest basis uses.  The columns of this basis are never written.
        """
        n, r0 = self.Q.shape
        r = r0 + Q.shape[1]
        store = self._store
        if store is None or not store.claim(r0, r):
            capacity = r0 if store is None else store.Q.shape[1]
            store = _ColumnStore(self.Q, self.WQ, capacity if r <= capacity else min(n, max(2 * capacity, r)), r)
        store.Q[:, r0:r], store.WQ[:, r0:r] = Q, WQ
        R_all = np.zeros((r, r))
        R_all[:r0, :r0] = self.R
        R_all[:r0, r0:] = coef
        R_all[r0:, r0:] = R
        return BOrthoBasis(store.Q[:, :r], store.WQ[:, :r], R_all, np.concatenate([self.rank_flags, flags]),
                           self.n_reorth_applies, store)


def _check_input(Y: np.ndarray, W: SpdOperator) -> np.ndarray:
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ConfigError("Y must be a 2-D block of columns")
    n, r = Y.shape
    if r > n:
        raise ConfigError(f"more columns ({r}) than rows ({n})")
    if W.dim != n:
        raise ConfigError(f"weight operator dimension {W.dim} does not match rows {n}")
    if not np.isfinite(Y).all():
        raise NumericalError("Y has non-finite (NaN or Inf) entries")
    return Y


def _work_array(Y: np.ndarray, order: str, overwrite: bool) -> np.ndarray:
    """Y itself when ``overwrite`` and it is a writeable array in ``order``
    ("C" or "F"), else a copy of Y in that order: the array a factorization
    overwrites."""
    if overwrite and Y.flags.writeable and Y.flags[order + "_CONTIGUOUS"]:
        return Y
    return np.array(Y, order=order)


def _mgs(Y: np.ndarray, W: SpdOperator, reorth: bool, overwrite_y: bool) -> BOrthoBasis:
    """Shared MGS core.

    Column j of Q and of W*Q is kept as row j of a C-ordered r x n work
    array, so every vector the sweeps touch is contiguous, and the
    projections are in-place BLAS-1 calls (``ddot``, ``daxpy``) that
    allocate nothing.  Q and WQ come back as the transposes of those arrays.
    Each W-apply's output is copied into its row, for that layout.  The Q
    array is a copy of Y, or, with ``overwrite_y`` and an F-ordered Y
    (whose transpose is that layout), Y's own memory.

    The W-image of the working column is tracked through the first sweep's
    projection updates (W(q - s*q_i) = Wq - s*Wq_i), so that sweep costs one
    W-apply per column; every extra re-orthogonalization sweep recomputes
    the image fresh, which is what restores orthogonality for collapsing
    columns and what makes re-orthogonalization cost extra W-applies.
    """
    Qt = _work_array(_check_input(Y, W).T, "C", overwrite_y)
    WQt = np.empty_like(Qt)
    Q_rows, WQ_rows = list(Qt), list(WQt)
    r = Qt.shape[0]
    R = np.zeros((r, r))
    flags = np.ones(r, dtype=bool)
    reorth_applies = 0

    for k in range(r):
        q, qhat = Q_rows[k], WQ_rows[k]
        qhat[:] = W.apply(q)
        t = math.sqrt(max(ddot(qhat, q), 0.0))
        tt = t
        sweeps = 0
        collapsing = t == 0.0
        while t > 0.0:
            sweeps += 1
            coef = []
            for q_i, wq_i in zip(Q_rows[:k], WQ_rows[:k]):
                s = ddot(wq_i, q)
                coef.append(s)
                daxpy(q_i, q, a=-s)
                if sweeps == 1:
                    daxpy(wq_i, qhat, a=-s)
            R[:k, k] += coef
            if sweeps > 1:
                qhat[:] = W.apply(q)
                reorth_applies += 1
            tt = math.sqrt(max(ddot(qhat, q), 0.0))
            if tt <= 10.0 * EPS * t:
                tt = 0.0
                collapsing = False
                break
            collapsing = tt < t / 10.0
            if reorth and collapsing and sweeps < MAX_REORTH_SWEEPS:
                t = tt
                continue
            break

        if tt == 0.0 or (reorth and collapsing):
            # Dependent column: zero it, keep the index.
            R[k, k] = 0.0
            flags[k] = False
            q[:] = 0.0
            qhat[:] = 0.0
        else:
            R[k, k] = tt
            q /= tt
            qhat /= tt

    return BOrthoBasis(Qt.T, WQt.T, R, flags, reorth_applies)


def mgs_w(Y: np.ndarray, W: SpdOperator) -> BOrthoBasis:
    """Modified Gram-Schmidt with W-inner products, single sweep per column.

    Cheap baseline: one W-apply per column, but Q loses W-orthogonality on
    ill-conditioned input.
    """
    return _mgs(Y, W, reorth=False, overwrite_y=False)


def mgs_w_reorth(Y: np.ndarray, W: SpdOperator, overwrite_y: bool = False) -> BOrthoBasis:
    """MGS with Rutishauser re-orthogonalization (MGS-R).

    A column is re-projected against its predecessors while its W-norm keeps
    collapsing (new norm tt < t/10 but tt > 10*eps*t); a column whose norm
    falls to 10*eps of its running reference is declared dependent and zeroed.
    R accumulates the coefficients of every sweep, so ||QR - Y|| stays at
    machine precision even for numerically rank-deficient input.  The sweep
    loop is capped at MAX_REORTH_SWEEPS; a column still collapsing at the cap
    is flagged dependent.

    With ``overwrite_y`` (scipy's ``overwrite_a`` idiom) a writeable
    F-ordered Y is factored in place: its memory becomes the returned Q, so
    the caller must not read Y again.  Other Y are copied, as by default.
    The result's bits do not depend on the flag.
    """
    return _mgs(Y, W, reorth=True, overwrite_y=overwrite_y)


def chol_qr_w(Y: np.ndarray, W: SpdOperator) -> BOrthoBasis:
    """CholQR with W-inner products: Z = WY, C = Y^T Z, R = chol(C), Q = Y R^{-1}.

    Fast and cache-friendly but squares the condition number through the Gram
    matrix; Cholesky breakdown raises IllConditionedError pointing at
    pre_chol_qr_w / mgs_w_reorth.
    """
    Y = _check_input(Y, W)
    Z = W.apply(Y)
    R = _gram_cholesky(Y, Z, "input too ill-conditioned for CholQR; use pre_chol_qr_w or mgs_w_reorth")
    Q = _solve_right(np.array(Y, order="F"), R)
    WQ = _solve_right(Z, R)
    flags = np.ones(Y.shape[1], dtype=bool)
    return BOrthoBasis(Q, WQ, R, flags)


def _solve_right(X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """X := X R^{-1} in place for upper-triangular R (X in either memory order)."""
    if X.flags.f_contiguous:
        return dtrsm(1.0, R, X, side=1, lower=0, overwrite_b=1)
    # A C-ordered X is the F-ordered X^T: solve R^T X^T = X^T from the left.
    return dtrsm(1.0, R, X.T, side=0, lower=0, trans_a=1, overwrite_b=1).T


def _gram_cholesky(Q: np.ndarray, WQ: np.ndarray, advice: str) -> np.ndarray:
    """Upper Cholesky factor of the Gram matrix Q^T (WQ).

    Raises IllConditionedError, with ``advice`` appended, when the
    factorization fails or its pivots fall to roundoff level.
    """
    C = Q.T @ WQ
    C = (C + C.T) / 2.0
    try:
        R = scipy.linalg.cholesky(C, lower=False, check_finite=False)
    except scipy.linalg.LinAlgError:
        raise IllConditionedError(f"Gram matrix Cholesky factorization failed ({advice})") from None
    d = np.diag(R)
    # pivots at roundoff level are breakdown even if LAPACK kept them positive
    if d.size and (d.min() / d.max()) ** 2 <= 10.0 * EPS:
        raise IllConditionedError(f"Gram matrix pivots fell to roundoff level ({advice})")
    return R


def _project_out(Z: np.ndarray, basis: BOrthoBasis) -> tuple[np.ndarray, np.ndarray]:
    """BCGS2: W-project the F-ordered Z against the cached basis twice.

    Uses the cached (Q, WQ) only, so no W-applies.  Each pass is two
    ``dgemm`` calls, the second of which updates Z in place
    (Z := Z - Q coef), so no n-row temporary is formed.  Returns the
    projected Z and the summed coefficients Q^T W Z of both passes.
    """
    coef = dgemm(1.0, basis.WQ, Z, trans_a=1)
    Z = dgemm(-1.0, basis.Q, coef, beta=1.0, c=Z, overwrite_c=1)
    second = dgemm(1.0, basis.WQ, Z, trans_a=1)
    Z = dgemm(-1.0, basis.Q, second, beta=1.0, c=Z, overwrite_c=1)
    coef += second
    return Z, coef


#: Nonzeros per column of the sparse sign embedding (at most its row count).
EMBED_NNZ = 8

#: Philox key of the embedding's raw bits: one fixed stream, so the
#: embedding is a function of (n, s) alone.
_EMBED_KEY = 0x5E5

#: c of the rank rule |R_s[j, j]| <= c eps max_i ||y_i||_2, set from the
#: measured gap.  The roundoff columns of rank-3 to rank-5 sketches
#: B^{-1} A Omega (n = 40, 8 columns, kappa(B) = 10) reach 220 eps; that
#: roundoff grows with kappa(B), and at kappa(B) = 100 it passes 1000 eps in
#: 3 of 300.  The smallest real column of a kappa(Y) >= 1e9 KLE sketch
#: (n = 201, 100 columns) sits at >= 2100 eps over 100 embeddings, those of
#: the benchmark's sketches at >= 3e6 eps.
RANK_TOL = 1000.0


@functools.lru_cache(maxsize=8)
def sparse_sign_embedding(n: int, s: int) -> scipy.sparse.csc_matrix:
    """The s x n sparse sign embedding S of ``pre_chol_qr_w`` (s < n).

    Column j holds min(EMBED_NNZ, s) entries +-1/sqrt(nnz) in distinct rows
    (Martinsson & Tropp 2020, Sec. 9).  The rows come from Floyd's
    sampling algorithm, one raw 64-bit Philox draw per entry: step i picks
    t uniform in [0, s - nnz + i] from the draw's top 32 bits by a
    multiply-shift and takes s - nnz + i instead when t is already in the
    column; the draw's lowest bit is the entry's sign.  Only integer
    arithmetic touches the bits, so S is the same on every CPU.  It is
    built once per (n, s) and shared: callers must not modify it.  It
    stores 12 nnz n bytes (float64 values, int32 row indices).
    """
    nnz = min(EMBED_NNZ, s)
    bits = np.random.Philox(key=_EMBED_KEY).random_raw(nnz * n).reshape(nnz, n)
    rows = np.empty((n, nnz), dtype=np.int32)
    for i, top in enumerate(range(s - nnz, s)):
        t = (((bits[i] >> np.uint64(32)) * np.uint64(top + 1)) >> np.uint64(32)).astype(np.int32)
        rows[:, i] = np.where((rows[:, :i] == t[:, None]).any(axis=1), top, t)
    values = np.where((bits.T & np.uint64(1)) == 1, -1.0, 1.0) / math.sqrt(nnz)
    indptr = np.arange(0, nnz * n + 1, nnz, dtype=np.int32)
    return scipy.sparse.csc_matrix((values.ravel(), rows.ravel(), indptr), shape=(s, n))


def _sketch(X: np.ndarray) -> np.ndarray:
    """S X for the 2m x n embedding of an n x m block X (X itself when 2m >= n
    or m = 0)."""
    n, m = X.shape
    return X if 2 * m >= n or m == 0 else sparse_sign_embedding(n, 2 * m) @ X


def _largest_column_norm(Y: np.ndarray) -> float:
    """max_j ||y_j||_2 (0 for an empty Y).  When the largest column sum of
    squares is not a normal number (column norms above ~1e154 or below
    ~1e-154), it is taken again on Y scaled by the power of two just above
    max |y_ij|, as ``errors._norm2`` scales: exact, and no extra pass in the
    normal range."""
    sq = np.einsum("ij,ij->j", Y, Y).max(initial=0.0)
    if _TINY <= sq < math.inf:
        return math.sqrt(sq)
    e = math.frexp(max(Y.max(initial=0.0), -Y.min(initial=0.0)))[1]
    Ys = np.ldexp(Y, -e)
    return math.ldexp(math.sqrt(np.einsum("ij,ij->j", Ys, Ys).max(initial=0.0)), e)


def pre_chol_qr_w(Y: np.ndarray, W: SpdOperator, basis: BOrthoBasis | None = None,
                  overwrite_y: bool = False) -> BOrthoBasis:
    """Sketch-preconditioned CholQR2: the block weighted QR used by every solver.

    Y is copied once into a Fortran-ordered work array Z that later steps
    overwrite.  With ``overwrite_y`` (scipy's ``overwrite_a`` idiom) a
    writeable F-ordered Y is that work array itself, so the call allocates
    no copy of Y, and Y's memory ends up holding Q (or scratch, after a
    dropped column): the caller must not read Y again.  The range finder and
    the growth loop pass it for the B^{-1} A Omega block they have just
    formed.  The result's bits do not depend on the flag.

    With ``basis`` given, the new columns are first projected against it twice (BCGS2, using the cached W*Q: no W-applies, with Z
    updated in place by ``dgemm``) and the basis is extended; its columns
    are left untouched.  The extended basis's Q and WQ are views of a column
    store with spare capacity that doubles when full (``BOrthoBasis``), so a
    growth round writes only its new block when it extends the newest basis
    of that store, and copies the old columns into a new store otherwise.

    Randomized Cholesky QR (Balabanov 2022; Higgins et al. 2023): the
    s x n sparse sign embedding S (s = 2m, ``sparse_sign_embedding``; S = I
    when s >= n) preserves the norms of range(Z) to a small factor, so the
    Householder QR S Z = Q_s R_s of the small s x m sketch, signs fixed so
    diag(R_s) >= 0, gives a preconditioner: Z R_s^{-1}, one in-place
    ``dtrsm``, has kappa of a few (5.9 on the benchmark's kle-4000 sketch,
    kappa(Y) = 1.5e10), and the Gram matrix of the CholQR passes has
    kappa <= kappa(Z R_s^{-1})^2 kappa(W).  No n-row array is factored.

    Rank rule: column j is dependent when
    |R_s[j, j]| <= RANK_TOL eps max_i ||y_i||_2, relative to the largest
    column of Y before the projection (block-relative, as LAPACK's xGELSY;
    a per-column rule does not survive the embedding's distortion of each
    |R_jj|, while the block's scale moves by that distortion at most).  The
    scale is read off Y itself, not its sketch, so an append sketches only
    the projected block, and ``_largest_column_norm`` reads it at any scale.
    Dependent columns are moved behind the kept ones and
    the small QR is redone, so a dependent column never lends its roundoff
    direction to a later column; their Q/WQ columns are zeroed and
    R[j, j] = 0.

    W is applied once, to all kept columns in one block call.  Two CholQR
    passes follow on the tracked image, with each Gram formed from the
    current Q and W*Q (no second W-apply), and the triangular solves run in
    place.  R = R2 R1 R_s.  A Cholesky breakdown (kappa(W) near 1/eps)
    raises IllConditionedError.
    """
    Y = _check_input(Y, W)
    n, m = Y.shape
    r0 = 0
    if basis is not None:
        r0 = basis.Q.shape[1]
        if basis.Q.shape[0] != n:
            raise ConfigError(f"basis has {basis.Q.shape[0]} rows, Y has {n}")
        if r0 + m > n:
            raise ConfigError(f"more columns ({r0 + m}) than rows ({n})")
    threshold = RANK_TOL * EPS * _largest_column_norm(Y)
    Z = _work_array(Y, "F", overwrite_y)
    if basis is not None:
        Z, coef = _project_out(Z, basis)
    SY = _sketch(Z)
    dependent = np.zeros(m, dtype=bool)
    order = np.arange(m)
    while True:
        Rs = scipy.linalg.qr(SY[:, order], mode="r", check_finite=False)[0][:m]
        Rs *= np.where(np.diag(Rs) < 0.0, -1.0, 1.0)[:, None]
        n_kept = m - int(dependent.sum())
        small = np.diag(Rs)[:n_kept] <= threshold
        dependent[order[:n_kept][small]] = True
        new_order = np.concatenate([np.flatnonzero(~dependent), np.flatnonzero(dependent)])
        if np.array_equal(new_order, order):
            break
        order = new_order

    n_kept = m - int(dependent.sum())
    R = Rs[:n_kept]
    Q = Z if n_kept == m else Z[:, order[:n_kept]]
    WQ = np.zeros((n, 0))
    if n_kept:
        Q = _solve_right(Q, R[:, :n_kept])
        WQ = W.apply(Q)
        for _ in range(2):
            Rc = _gram_cholesky(Q, WQ, "the weight operator has kappa(W) near 1/eps")
            Q = _solve_right(Q, Rc)
            WQ = _solve_right(WQ, Rc)
            R = Rc @ R

    if n_kept < m:
        kept = order[:n_kept]
        Q_new = np.zeros((n, m), order="F")
        WQ_new = np.zeros((n, m), order="F")
        Q_new[:, kept] = Q
        WQ_new[:, kept] = WQ
        R_new = np.zeros((m, m))
        R_new[np.ix_(kept, order)] = R
        # a dependent column's weights on later kept columns are roundoff
        Q, WQ, R = Q_new, WQ_new, np.triu(R_new)
    if basis is None:
        return BOrthoBasis(Q, WQ, R, ~dependent)
    return basis._append(Q, WQ, coef, R, ~dependent)


def qr_metrics(Y: np.ndarray, basis: BOrthoBasis, W: SpdOperator) -> tuple[float, float, float, float]:
    """The four factorization-quality spectral norms.

    Returns (||QR - Y||, ||Q^T W Q - I||, ||Q^T W Y - R||, ||Y R^{-1} - Q||).
    W is re-applied fresh so the check is independent of the cached WQ.  The
    second metric is taken over the kept columns (``rank_flags``), the basis
    that ``compact()`` hands on, so a dropped column's zeros do not read as
    lost orthogonality.  The fourth metric is +inf when R is exactly
    singular, as it is after a dropped column.
    """
    Y = np.asarray(Y, dtype=float)
    Q, R = basis.Q, basis.R
    if Q.shape != Y.shape or R.shape != (Y.shape[1], Y.shape[1]):
        raise ConfigError("basis shapes do not match Y")
    WQ = W.apply(Q)
    WY = W.apply(Y)
    kept = basis.rank_flags
    Qk, WQk = (Q, WQ) if kept.all() else (Q[:, kept], WQ[:, kept])
    m1 = np.linalg.norm(Q @ R - Y, 2)
    m2 = np.linalg.norm(Qk.T @ WQk - np.eye(Qk.shape[1]), 2)
    m3 = np.linalg.norm(Q.T @ WY - R, 2)
    if np.any(np.diag(R) == 0.0):
        m4 = np.inf
    else:
        Xr = scipy.linalg.solve_triangular(R, Y.T, trans="T", lower=False, check_finite=False).T
        m4 = np.linalg.norm(Xr - Q, 2)
    return float(m1), float(m2), float(m3), float(m4)
