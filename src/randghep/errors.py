"""A-posteriori and a-priori error bounds, eigenpair perturbation bounds, and
dense reference oracles for the B-weighted geometry.

The oracles (B-norm, generalized singular values, exact range error, exact
GHEP) work on one factor B = F F^T, the reduction of the symmetric-definite
pencil that LAPACK's sygv uses: the B-norm of M is ||F^T M F^{-T}||_2 and
C = B^{-1}A is congruent to F^{-1} A F^{-T}, which LAPACK's dsygst forms in
n^3 flops.  The oracles take B as the ``SpdOperator`` that the solvers
take, and F = P^T L is the factor it already holds, a dense
lower-triangular L under a symmetric ordering P
(``SpdOperator.dense_factor``), so B is never factored again and a sparse
B is never densified.  No square root of B is formed, by the oracles or by
the solvers.  The exact GHEP reduces F^{-1} A F^{-T} to tridiagonal form
once: every eigenvalue comes from that reduction, and eigenvectors are
computed, by inverse iteration on those eigenvalues, only for the top m
that a caller reads.  A spectral norm (B-norm, exact range error) is the
square root of the top eigenvalue of a Gram matrix, taken by Lanczos and
certified to be the top one by a single Cholesky factorization, so it is
exact to a relative 5e-15 plus rounding; a dense eigensolve takes over
when the certificate fails.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.linalg.blas import dgemm, dsymv, dsyrk, dtrmm, dtrsm

from .borth import EPS, BOrthoBasis, pre_chol_qr_w
from .operators import (
    ConfigError,
    LinearMap,
    NumericalError,
    SpdOperator,
    check_symmetric,
)
from .sketch import SketchConfig, derive_seed, gaussian_matrix, range_finder_b


@dataclass
class ErrorEstimate:
    """Randomized a-posteriori estimate e of the range error f = ||(I - QQ^T B) C||_B.

    ``source`` says what e is.  "lanczos_certificate" is the Lanczos bound
    that ends every ``grow_sketch_until`` run: e >= f with probability at
    least ``probability_floor`` = 1 - alpha^{-r} over all the checks of the
    run.  "heuristic" is the same Lanczos value from a start that B could not
    whiten; it carries no floor (``probability_floor`` is None).
    "exact_binv_norm" is the probe estimate of ``posterior_estimate``, scaled
    by the caller's ||B^{-1}||: with the exact value, e >= f with
    probability at least 1 - alpha^{-r}.
    """

    e: float
    alpha: float
    r_probes: int
    probability_floor: Optional[float]
    source: str  # "lanczos_certificate" | "heuristic" | "exact_binv_norm"


@dataclass
class SpectrumReference:
    """Dense reference data for a pencil (A, B), built by ``dense_ghep_oracle``.

    On construction: ``L`` and ``order``, the factor B = F F^T with
    F = P^T L (B[order][:, order] = L L^T; ``order`` is None for P = I); the
    one reduction of A^ = F^{-1} A F^{-T} to tridiagonal form, in A^'s own
    storage, from which ``_ahat`` rebuilds A^ bitwise (A is not held);
    and ``lambdas``, every eigenvalue of the pencil (descending,
    assignable).  ``top_eigenvectors(m)`` computes B-orthonormal
    eigenvectors from the same reduction and eigenvalues only when they are
    read, and only the top m; ``eigenvectors`` is all n of them.  The rest
    is computed on first read and then cached: ``sigmas_B``, the generalized
    singular values of C = B^{-1}A; and ``binv_norm`` = ||B^{-1}||_2 and
    ``kappa_B`` = ||B||_2 ||B^{-1}||_2 from one values-only eigensolve of
    L L^T, which is B under the ordering.  ``range_error(Q)`` is
    ``range_error_exact(A, B, Q)`` on the same factor and A^, bitwise.
    """

    lambdas: np.ndarray
    L: np.ndarray = field(repr=False)  # lower-triangular, B[order][:, order] = L L^T
    order: Optional[np.ndarray] = field(repr=False)
    # dsytrd's lower-storage reduction Q^T A^ Q = T in A^'s F-ordered array: Q's Householder
    # vectors below the subdiagonal, A^'s diagonal and strict upper triangle above it; and
    # (T's diagonal and off-diagonal, the reflectors' scalars, every eigenvalue of T ascending)
    _reduced: np.ndarray = field(repr=False)
    _tri: tuple = field(repr=False)
    _vectors: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def _ahat(self) -> np.ndarray:
        """A^, rebuilt bitwise from the reduced array into a new F-ordered one."""
        Ahat = self._reduced.copy(order="F")
        _mirror_lower(Ahat.T)  # the strict upper triangle, mirrored down
        return Ahat

    def top_eigenvectors(self, m: int) -> np.ndarray:
        """The B-orthonormal eigenvectors of the m largest eigenvalues, an n-by-m block.

        Column j belongs to the j-th largest eigenvalue.  The top m
        eigenvectors Z of T come from inverse iteration on the top m of the
        eigenvalues that the oracle already took from T
        (``_top_tridiagonal_vectors``; all n from divide and conquer when
        m = n).  X = F^{-T} Q Z is one dormqr on rows 1..n-1 (row 0 of Q is
        e_0^T), one dtrsm and, under an ordering, one scatter of the rows.
        The widest block computed so far is cached, and a narrower read is a
        view of it.
        """
        n = self.L.shape[0]
        if not 0 <= m <= n:
            raise ConfigError(f"need 0 <= m <= {n} eigenvectors, got {m}")
        if m == 0:
            return np.empty((n, 0))
        if self._vectors is None or self._vectors.shape[1] < m:
            d, e, tau, values = self._tri
            Z = _top_tridiagonal_vectors(d, e, values, m)
            if n > 1:
                reflectors = np.asfortranarray(self._reduced[1:, : n - 1])
                lwork = lapack.dormqr("L", "N", reflectors, tau, Z[1:], lwork=-1)[1][0]
                Z[1:] = lapack.dormqr("L", "N", reflectors, tau, Z[1:], lwork=max(1, int(lwork)))[0]
            X = dtrsm(1.0, self.L, Z, lower=1, trans_a=1, overwrite_b=1)
            if self.order is not None:  # X = P^T (L^{-T} Q Z): row order[i] of X is row i
                X, rows = np.empty_like(X), X
                X[self.order] = rows
            self._vectors = X
        return self._vectors[:, :m]

    @property
    def eigenvectors(self) -> np.ndarray:
        """All n B-orthonormal eigenvectors, in the order of ``lambdas``."""
        return self.top_eigenvectors(self.L.shape[0])

    def range_error(self, Q: np.ndarray) -> float:
        """Exact f = ||(I - Q Q^T B) C||_B; see ``range_error_exact``."""
        return _range_error(self._ahat(), self.L, self.order, _basis(Q, self.L.shape[0]))

    def rel_eigenvalue_error(self, approx: np.ndarray) -> float:
        """sum|lam_i - approx_i| / sum|lam_i| over the top ``approx.size`` eigenvalues."""
        exact = self.lambdas[:approx.size]
        return float(np.sum(np.abs(exact - approx)) / np.sum(np.abs(exact)))

    @cached_property
    def sigmas_B(self) -> np.ndarray:
        """sigma(F^{-1}A) = sigma(B^{1/2} C), as sigma(A^ L^T): A^ L^T = L^{-1} P A P^T."""
        AhatLt = dtrmm(1.0, self.L, self._ahat(), side=1, lower=1, trans_a=1, overwrite_b=1)
        return scipy.linalg.svdvals(AhatLt, overwrite_a=True, check_finite=False)

    @cached_property
    def _b_extreme_eigenvalues(self) -> tuple[float, float]:
        # L L^T is B under the ordering: the same eigenvalues
        w = scipy.linalg.eigvalsh(dsyrk(1.0, self.L, lower=1), check_finite=False)
        return float(w[0]), float(w[-1])

    @cached_property
    def binv_norm(self) -> float:
        return 1.0 / self._b_extreme_eigenvalues[0]

    @cached_property
    def kappa_B(self) -> float:
        lo, hi = self._b_extreme_eigenvalues
        return hi / lo


class EigenpairBounds(NamedTuple):
    """``eigenpair_bounds``'s bound on |lambda - lambda~| and on the B-angle's sine."""

    lambda_bound: float
    sine_bound: float


def _finite(M: np.ndarray, name: str) -> np.ndarray:
    """M as a float array, or NumericalError if it has a NaN or Inf entry."""
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise NumericalError(f"{name} has non-finite (NaN or Inf) entries")
    return M


def _dense_pencil(A: np.ndarray, B: SpdOperator, name: str = "A") -> tuple:
    """(A, L, order): a finite A and the factor of B with B[order][:, order] = L L^T.

    B is an ``SpdOperator``; its ``dense_factor()`` is read once, after the
    shapes are checked.  ConfigError when B is not an SpdOperator, when the
    shapes differ, or when B holds no factor.
    """
    if not isinstance(B, SpdOperator):
        raise ConfigError(f"B must be an SpdOperator, got {type(B).__name__}")
    A = _finite(A, name)
    if A.shape != (B.dim, B.dim):
        raise ConfigError(f"{name} has shape {A.shape}, B has shape {(B.dim, B.dim)}")
    factor = B.dense_factor()
    if factor is None:
        raise ConfigError("B holds no dense factor for the dense oracles (SpdOperator.dense_factor)")
    return (A, *factor)


#: Rows that ``_mirror_lower`` mirrors per block.
_MIRROR_BLOCK = 128


def _mirror_lower(X: np.ndarray) -> None:
    """Mirror X's strict lower triangle onto its upper one in place, by blocks
    of rows, with no n-by-n temporary (on X.T: the upper triangle down)."""
    n = X.shape[0]
    for r0 in range(0, n, _MIRROR_BLOCK):
        r1 = min(r0 + _MIRROR_BLOCK, n)
        diag = X[r0:r1, r0:r1]
        upper = np.triu_indices(r1 - r0, 1)
        diag[upper] = diag.T[upper]
        X[r0:r1, r1:] = X[r1:, r0:r1].T


def _congruent(A: np.ndarray, L: np.ndarray, order: Optional[np.ndarray]) -> np.ndarray:
    """A^ = L^{-1} P A P^T L^{-T}, a new F-ordered symmetric array.

    LAPACK's dsygst (itype 1) forms the lower triangle of A^ from the lower
    triangles of P A P^T and L on one F-ordered copy of P A P^T, in n^3 flops
    against the 2n^3 of two triangular solves.  The upper triangle is then
    mirrored from the lower one in place (``_mirror_lower``), so A^ is
    exactly symmetric.
    """
    if order is None:
        PA = np.array(A, order="F")
    else:  # one gather of A[order][:, order]; A is symmetric, so its F-ordered transpose is it
        PA = A[np.ix_(order, order)].T
    # info reports only an illegal argument
    Ahat = lapack.dsygst(PA, L, itype=1, lower=1, overwrite_a=1)[0]
    _mirror_lower(Ahat)
    return Ahat


def _basis(Q: np.ndarray, n: int) -> np.ndarray:
    """Q as a finite float array of n rows, or a typed error."""
    Q = _finite(Q, "Q")
    if Q.ndim != 2 or Q.shape[0] != n:
        raise ConfigError("Q rows must match the pencil dimension")
    return Q


def _range_error(Ahat: np.ndarray, L: np.ndarray, order: Optional[np.ndarray], Q: np.ndarray) -> float:
    """||(I - W W^T) A^||_2 with W = F^T Q = L^T Q[order]; the F-ordered A^ is overwritten.

    The residual is formed in A^'s storage: one dgemm (beta = 1) updates A^
    in place by W (W^T A^), and ``_norm2`` then overwrites it.
    """
    if Q.shape[1]:
        W = dtrmm(1.0, L, Q if order is None else Q[order], lower=1, trans_a=1)
        Ahat = dgemm(-1.0, W, dgemm(1.0, W, Ahat, trans_a=1), beta=1.0, c=Ahat, overwrite_c=1)
    return _norm2(Ahat)


#: Lanczos steps that ``_norm2`` takes before it falls back to a full eigensolve.
_NORM_STEPS = 64

#: ``_norm2`` stops Lanczos once the top Ritz pair's residual |beta_j s_j| is
#: at most this multiple of its Ritz value.
_NORM_RESIDUAL = 1e-14

#: Relative slack tau of the certificate (1 + tau) theta I - G > 0.
_NORM_SLACK = 1e-14

#: Stream tag of the fixed Lanczos start of ``_norm2``.
_NORM_START = 0x4E02


def _gram(M: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """The upper triangle of M^T M, one dsyrk (into ``out`` when it is given)."""
    into = {} if out is None else {"c": out, "overwrite_c": 1}
    return dsyrk(1.0, M, trans=1, **into) if M.flags.f_contiguous else dsyrk(1.0, M.T, **into)


def _lanczos_top(G: np.ndarray) -> Optional[float]:
    """The top Ritz value theta of G (upper triangle read), or None at the step cap.

    Lanczos with full re-orthogonalization (each new vector is projected
    off all earlier ones twice), one dsymv per step, from the fixed start
    ``gaussian_matrix(n, 1, _NORM_START)``.  It stops when the top Ritz
    pair of the tridiagonal T_j has residual |beta_j s_j| <= _NORM_RESIDUAL
    theta, or when the Krylov space is invariant.  A Ritz value never
    exceeds lambda_max, but a small residual shows only that *some*
    eigenvalue lies near theta; ``_certify_top`` shows it is the largest.
    """
    n = G.shape[0]
    steps = min(n, _NORM_STEPS)
    V = np.empty((steps, n))  # Lanczos vectors as contiguous rows
    alpha, beta = np.empty(steps), np.empty(steps)
    v = gaussian_matrix(n, 1, _NORM_START)[:, 0]
    V[0] = v / np.linalg.norm(v)
    for j in range(steps):
        w = dsymv(1.0, G, V[j])
        alpha[j] = V[j] @ w
        for _ in range(2):
            w -= V[: j + 1].T @ (V[: j + 1] @ w)
        beta[j] = np.linalg.norm(w)
        ritz, S = scipy.linalg.eigh_tridiagonal(alpha[: j + 1], beta[:j], select="i",
                                                select_range=(j, j), check_finite=False)
        theta = float(ritz[0])
        if abs(beta[j] * S[j, 0]) <= _NORM_RESIDUAL * theta or beta[j] == 0.0:
            return theta
        if j + 1 < steps:
            V[j + 1] = w / beta[j]
    return None


def _certify_top(G: np.ndarray, theta: float) -> bool:
    """True when (1 + tau) theta I - G is positive definite (G is overwritten).

    One dpotrf in G's own storage (upper triangle).  Its success shows
    lambda_max(G) <= (1 + tau) theta, tau = _NORM_SLACK, up to the rounding
    of the factorization.
    """
    np.negative(G, out=G)
    G[np.diag_indices(G.shape[0])] += (1.0 + _NORM_SLACK) * theta
    return lapack.dpotrf(G, lower=0, clean=0, overwrite_a=1)[1] == 0


def _norm2(M: np.ndarray) -> float:
    """Spectral norm sigma_1(M) as sqrt(lambda_max(M^T M)) (M is overwritten).

    Squaring is safe for the largest singular value only: an error of
    eps ||M^T M|| = eps sigma_1^2 in lambda_max is a relative error O(eps)
    in its square root, and the small singular values, which would lose all
    digits below eps sigma_1^2, are not read.  M is first scaled by the
    power of two just above max |M_ij| = max(max M, -min M) (two reductions,
    no |M| temporary), which is exact and keeps M^T M from overflowing or
    underflowing; the Gram matrix G is one dsyrk.

    lambda_max(G) is the top Ritz value theta of a few Lanczos steps
    (``_lanczos_top``), certified by one Cholesky factorization of
    (1 + tau) theta I - G (``_certify_top``): every Ritz value is at most
    lambda_max, and the factorization shows lambda_max <= (1 + tau) theta.
    So theta is lambda_max to a relative error of tau = 1e-14, and sigma_1
    to tau / 2, up to the rounding of the dsyrk and of the factorization, a
    few n eps, the size of a dense eigensolver's backward error bound.  If
    the factorization fails, or Lanczos reaches its step cap, G is formed
    again and its top eigenvalue taken by a dense eigensolve.
    """
    peak = float(max(M.max(), -M.min()))  # NaN when M has one: both reductions carry it
    if peak == 0.0:
        return 0.0
    if not math.isfinite(peak):
        raise NumericalError("the matrix whose norm is taken has non-finite entries")
    e = math.frexp(peak)[1]
    np.ldexp(M, -e, out=M)
    gram = _gram(M, None)
    theta = _lanczos_top(gram)
    if theta is not None and _certify_top(gram, theta):
        return math.ldexp(math.sqrt(theta), e)
    if theta is not None:  # the certificate overwrote the Gram matrix
        gram = _gram(M, gram)
    n = gram.shape[0]
    top = scipy.linalg.eigh(gram, lower=False, eigvals_only=True, overwrite_a=True,
                            check_finite=False, subset_by_index=[n - 1, n - 1])
    return math.ldexp(math.sqrt(max(float(top[0]), 0.0)), e)


def b_norm(M: np.ndarray, B: SpdOperator) -> float:
    """The induced matrix B-norm ||M||_B = ||B^{1/2} M B^{-1/2}||_2 (dense oracle).

    Computed as ||F^T M F^{-T}||_2 = ||L^T M[order][:, order] L^{-T}||_2 with
    B's factor B = F F^T, F = P^T L (``SpdOperator.dense_factor``):
    B^{1/2} = V F^T for an orthogonal V, so the two matrices have the same
    singular values.  That matrix is not symmetric; ``_norm2`` takes its
    largest singular value from the top eigenvalue of its Gram matrix.
    """
    M, L, order = _dense_pencil(M, B, "M")
    PM = M if order is None else M[np.ix_(order, order)]
    LtM = dtrmm(1.0, L, PM, lower=1, trans_a=1)
    return _norm2(dtrsm(1.0, L, LtM, side=1, lower=1, trans_a=1, overwrite_b=1))  # L^T M L^{-T}


def dense_ghep_oracle(A: np.ndarray, B: SpdOperator) -> SpectrumReference:
    """Every eigenvalue of the pencil (A, B) from one congruence reduction.

    B is the ``SpdOperator`` the solvers take, and its ``dense_factor()``
    (L, order) is read once: B = F F^T with F = P^T L, so B is not factored
    again.  For ``dense_spd`` L is its Cholesky factor; for ``sparse_spd``
    it is the LDL^T factor under its fill-reducing ordering, so no dense
    copy of B is made.  ConfigError when B holds no factor or A's shape is
    not B's.  A^ = F^{-1} A F^{-T} is formed once and reduced to tridiagonal
    T once, by dsytrd in A^'s own array, which keeps A^'s strict upper
    triangle; A^'s diagonal is put back, and A is not kept.  All n
    eigenvalues, descending, come from T at O(n^2) cost.
    Eigenvectors come back B-orthonormal from the same reduction and those
    eigenvalues, and only for the top m that a caller reads
    (``SpectrumReference.top_eigenvectors``).  The generalized singular
    values and the extreme eigenvalues of B are computed only when they are
    read.
    """
    A, L, order = _dense_pencil(A, B, "A")
    check_symmetric(A)
    Ahat = _congruent(A, L, order)
    diagonal = Ahat.diagonal().copy()
    lwork = int(lapack.dsytrd_lwork(Ahat.shape[0], lower=1)[0])
    reduced, d, e, tau, _ = lapack.dsytrd(Ahat, lower=1, lwork=lwork, overwrite_a=1)
    np.fill_diagonal(reduced, diagonal)  # over T's, which d holds; dormqr does not read it
    lam = scipy.linalg.eigvalsh_tridiagonal(d, e, check_finite=False)
    return SpectrumReference(lambdas=lam[::-1], L=L, order=order, _reduced=reduced, _tri=(d, e, tau, lam))


def _top_tridiagonal_vectors(d: np.ndarray, e: np.ndarray, values: np.ndarray, m: int) -> np.ndarray:
    """Orthonormal eigenvectors of T = tridiag(e, d, e) for its m largest eigenvalues.

    An F-ordered n-by-m block, largest first.  ``values`` are all n
    eigenvalues of T, ascending.  For m < n, LAPACK's dstein runs inverse
    iteration on the top m of them, with no bisection to find them again.
    dstein works block by block where T splits: the split points are
    dstebz's (e_j^2 < |d_j d_{j+1}| ulp^2 + the safe minimum), and each
    value goes to the block whose own eigenvalues, pooled and sorted, hold
    the eigenvalue of the same rank.  All
    n (m = n, which covers n = 1, where dstein takes no empty e) come from
    divide and conquer.
    """
    n = d.size
    if m == n:
        return np.asfortranarray(scipy.linalg.eigh_tridiagonal(d, e, check_finite=False)[1][:, ::-1])
    w = values[n - m:]
    fp = np.finfo(float)
    split = np.abs(d[:-1] * d[1:]) * fp.eps**2 + fp.tiny > e * e  # dstebz's test
    ends = np.r_[np.flatnonzero(split) + 1, n]  # the last row of each block, 1-based
    if ends.size == 1:
        block = np.ones(m, dtype=np.int32)
    else:
        starts = np.r_[0, ends[:-1]]
        own = np.concatenate([scipy.linalg.eigvalsh_tridiagonal(d[s:t], e[s : t - 1], check_finite=False)
                              for s, t in zip(starts, ends)])
        owner = np.repeat(np.arange(1, ends.size + 1, dtype=np.int32), ends - starts)
        block = owner[np.argsort(own, kind="stable")][n - m:]
    grouped = np.lexsort((w, block))  # dstein wants the values by block, ascending within each
    iblock, isplit = np.zeros(n, dtype=np.int32), np.zeros(n, dtype=np.int32)
    iblock[:m], isplit[: ends.size] = block[grouped], ends
    Z, info = lapack.dstein(d, e, w[grouped], iblock, isplit)
    if info != 0:
        raise NumericalError(f"inverse iteration (dstein) did not converge: info = {info}")
    X = np.empty((n, m), order="F")
    X[:, m - 1 - grouped] = Z
    return X


def range_error_exact(A: np.ndarray, B: SpdOperator, Q: np.ndarray) -> float:
    """Exact f = ||(I - Q Q^T B) C||_B for a dense A (oracle scale).

    With B's factor B = F F^T (``SpdOperator.dense_factor``, read once, as
    for ``dense_ghep_oracle``), A^ = F^{-1} A F^{-T} and W = F^T Q (one
    dtrmm), the matrix F^T (I - Q Q^T B) C F^{-T} equals (I - W W^T) A^, so
    f is its exact 2-norm, taken by ``_norm2``.  Q need not be
    B-orthonormal; the residual overwrites A^.  ``SpectrumReference.range_error``
    rebuilds A^ from one ``dense_ghep_oracle`` and returns the same bits.
    """
    A, L, order = _dense_pencil(A, B, "A")
    Q = _basis(Q, A.shape[0])
    return _range_error(_congruent(A, L, order), L, order, Q)


def _check_estimator(alpha: float, r_probes: int) -> float:
    """The failure probability delta = alpha^{-r} of an estimate, or ConfigError."""
    if not (math.isfinite(alpha) and alpha > 1.0):
        raise ConfigError(f"alpha must be a finite number above 1, got {alpha}")
    if r_probes < 1:
        raise ConfigError("need at least one probe")
    # check c of a run takes the log of its share 6 delta / (pi^2 c^2); a delta
    # in the normal range keeps that share above zero for c up to ~7e7 checks
    delta = float(alpha) ** (-r_probes)
    if not delta >= sys.float_info.min:
        raise ConfigError(f"the failure probability alpha^-r = {alpha}^-{r_probes} underflows")
    return delta


def posterior_estimate(
    A: LinearMap,
    B: SpdOperator,
    basis: BOrthoBasis,
    alpha: float,
    r_probes: int,
    seed: int,
    binv_norm: float,
) -> ErrorEstimate:
    """Randomized upper estimate of the range error from r Gaussian probes.

    e = alpha * sqrt(2 ||B^{-1}|| / pi) * max_i ||(I - QQ^T B) C w_i||_B, an
    upper bound on ||(I - QQ^T B) C||_B with probability >= 1 - alpha^{-r}
    when ``binv_norm`` is ||B^{-1}||_2 or more (Halko, Martinsson and Tropp
    2011, Lemma 4.1, in the B-inner product).  The probes are drawn from
    their own stream, ``derive_seed(seed, 0xE57)``.  The probe B-norms are
    exact vector norms; B(I-P)Cw is assembled from the cached A w and BQ, so
    the cost is r A-applies plus r B-solves.  ``grow_sketch_until`` needs no
    ||B^{-1}||: its e is a Lanczos certificate.
    """
    delta = _check_estimator(alpha, r_probes)
    if not (math.isfinite(binv_norm) and binv_norm > 0.0):
        raise ConfigError(f"binv_norm must be a finite positive number, got {binv_norm}")
    AW = A.apply(gaussian_matrix(basis.Q.shape[0], r_probes, derive_seed(seed, 0xE57)))
    CW = B.apply_inverse(AW)
    coeff = basis.WQ.T @ CW
    Z = CW - basis.Q @ coeff
    BZ = AW - basis.WQ @ coeff  # B Z without extra B-applies (B*CW = A*W)
    norm = float(np.sqrt(np.maximum(np.sum(Z * BZ, axis=0), 0.0)).max())
    return ErrorEstimate(e=float(alpha * math.sqrt(2.0 * binv_norm / math.pi) * norm),
                         alpha=float(alpha), r_probes=r_probes,
                         probability_floor=1.0 - delta, source="exact_binv_norm")


#: Lanczos steps of one certificate check in ``grow_sketch_until``.
LANCZOS_STEPS = 16

#: Stream tag of the certificate's random starts, one column per check.
_START_STREAM = 0x1A2C


def check_budget(check: int, delta: float) -> float:
    """The failure probability that check number ``check`` (1, 2, ...) spends.

    delta_c = 6 delta / (pi^2 c^2): over any number of checks the budgets sum
    to less than delta, since sum 1/c^2 = pi^2 / 6.
    """
    return 6.0 * delta / (math.pi**2 * check**2)


def _lanczos_slack(n: int, steps: int, delta: float) -> float:
    """The eps with 1.648 sqrt(n) exp(-sqrt(eps) (2 steps - 1)) = delta.

    Kuczynski and Wozniakowski (1992) bound k Lanczos steps on a symmetric
    positive semidefinite n-by-n matrix from a start uniform on the unit
    sphere: P(xi_k < (1 - eps) lambda_1) <= 1.648 sqrt(n) exp(-sqrt(eps)(2k - 1)).
    An eps >= 1 bounds nothing, so ``grow_sketch_until`` rejects an alpha and
    r whose last possible check would need one.
    """
    root = math.log(1.648 * math.sqrt(n) / delta) / (2 * steps - 1)
    return root * root


def _certify(A: LinearMap, B: SpdOperator, basis: BOrthoBasis, seed: int, check: int,
             delta: float) -> float:
    """Check number ``check``: a bound e on f that fails with probability <= its budget.

    e comes from the largest Ritz value xi of M = C P C, P = I - Q Q^T B,
    which is B-self-adjoint and positive semidefinite with top eigenvalue
    f^2.  The start is column check - 1 of the stream ``derive_seed(seed,
    _START_STREAM)``, independent of the sketch.  With B's whitening hook,
    x = L^{-T} g for B = L L^T, so L^T x is uniform on the unit sphere after
    B-normalization, and Lanczos on M in the B-inner product is Lanczos on
    the symmetric L^T M L^{-T} from that start.  Kuczynski and Wozniakowski
    then give e = sqrt(xi / (1 - eps)) >= f with probability at least
    1 - ``check_budget(check, delta)``.  Without the hook the start is g.

    Each step applies M once: C v, its projection with the cached (Q, BQ),
    then A and B^{-1} again; the A-image of P C v is the B-image of M v, so
    the B-inner products need no B-apply.  Each new Lanczos vector is
    B-orthogonalized against all earlier ones twice (CGS2).  An invariant
    Krylov space ends the steps early.  A check costs at most
    2 LANCZOS_STEPS A-applies, 2 LANCZOS_STEPS - 1 B-solves and the
    B-normalization's one B-apply; the operators' counters say what it spent.
    """
    n = B.dim
    g = gaussian_matrix(n, 1, derive_seed(seed, _START_STREAM), first_col=check - 1)[:, 0]
    x = B.whiten(g) if B.has_whitening else g
    Bx = B.apply(x)
    norm = math.sqrt(float(x @ Bx))
    Q, BQ = basis.Q, basis.WQ
    V, BV, BMV = (np.empty((n, LANCZOS_STEPS), order="F") for _ in range(3))
    V[:, 0], BV[:, 0] = x / norm, Bx / norm
    m = LANCZOS_STEPS
    for j in range(LANCZOS_STEPS):
        y = B.apply_inverse(A.apply(V[:, j]))
        BMV[:, j] = A.apply(y - Q @ (BQ.T @ y))
        if j + 1 == LANCZOS_STEPS:
            break
        w, Bw = B.apply_inverse(BMV[:, j]), BMV[:, j]
        scale = math.sqrt(max(float(w @ Bw), 0.0))
        for _ in range(2):
            c = V[:, : j + 1].T @ Bw
            w = w - V[:, : j + 1] @ c
            Bw = Bw - BV[:, : j + 1] @ c
        beta = math.sqrt(max(float(w @ Bw), 0.0))
        if beta <= EPS * scale:
            m = j + 1
            break
        V[:, j + 1], BV[:, j + 1] = w / beta, Bw / beta
    H = V[:, :m].T @ BMV[:, :m]
    xi = max(float(scipy.linalg.eigvalsh((H + H.T) / 2.0, check_finite=False)[-1]), 0.0)
    # LANCZOS_STEPS even after an early end: an invariant Krylov space has the
    # Ritz values of every longer run
    eps = _lanczos_slack(n, LANCZOS_STEPS, check_budget(check, delta))
    return math.sqrt(xi / (1.0 - eps))


def apriori_bound(sigmas_B: np.ndarray, k: int, p: int, binv_norm: float) -> float:
    """Expected-error bound for the B-weighted range finder.

    sqrt(||B^{-1}||) * [ (1 + sqrt(k/(p-1))) sigma_{B,k+1}
                         + (e sqrt(k+p)/p) (sum_{j>k} sigma_{B,j}^2)^{1/2} ].
    Needs p >= 2 (the p-1 denominator).
    """
    if p < 2:
        raise ConfigError("the expected-error bound needs oversampling p >= 2")
    if k < 1:
        raise ConfigError("k must be >= 1")
    s = np.asarray(sigmas_B, dtype=float)
    tail = s[k:]
    if tail.size == 0:
        return 0.0
    term1 = (1.0 + math.sqrt(k / (p - 1.0))) * tail[0]
    term2 = (math.e * math.sqrt(k + p) / p) * math.sqrt(float(np.sum(tail**2)))
    return float(math.sqrt(binv_norm) * (term1 + term2))


def eigenpair_bounds(epsilon: float, delta: float) -> EigenpairBounds:
    """Eigenvalue and eigenvector-angle bounds from a range error epsilon.

    |lambda - lambda~| <= min(2 eps, 4 eps^2 / delta) and
    sin angle_B <= min(1, 2 eps / delta), with delta the gap from the
    approximate eigenvalue to the rest of the spectrum.  A zero gap
    (clustered spectrum) degrades gracefully: the eigenvalue bound falls back
    to 2 eps and the sine bound saturates at 1 (0 when eps = 0).
    """
    if epsilon < 0.0:
        raise ConfigError("epsilon must be nonnegative")
    if delta < 0.0:
        raise ConfigError("delta must be nonnegative")
    if delta == 0.0:
        return EigenpairBounds(2.0 * epsilon, 0.0 if epsilon == 0.0 else 1.0)
    lam = min(2.0 * epsilon, 4.0 * epsilon**2 / delta)
    sine = min(1.0, 2.0 * epsilon / delta)
    return EigenpairBounds(float(lam), float(sine))


def single_pass_bound(
    epsilon: float, kappa_B: float, sigma_max_omega: float, sigma_min_F: float
) -> float:
    """Bound on |eig_j(T) - eig_j(T~)|: 2 eps sqrt(kappa(B)) sigma_max(Omega)^2 / sigma_min(F)^2."""
    if min(epsilon, kappa_B, sigma_max_omega) < 0.0 or sigma_min_F < 0.0:
        raise ConfigError("bound inputs must be nonnegative")
    if sigma_min_F == 0.0:
        return math.inf
    return float(2.0 * epsilon * math.sqrt(kappa_B) * sigma_max_omega**2 / sigma_min_F**2)


def b_sine(x: np.ndarray, y: np.ndarray, B: SpdOperator) -> float | np.ndarray:
    """sin of the B-geometry angle, accurate for nearly parallel vectors.

    Computed from the B-orthogonal residual of y against x, which avoids the
    sqrt(eps) floor that arccos of a near-unit cosine carries.  Vectors x and
    y give a float.  (n, m) blocks give the m sines of the column pairs
    (x_j, y_j) as an array, from three block B-applies of m columns each.
    A zero column is a ConfigError; a column whose B-norm^2 is not positive
    (B not positive definite in floating point) is a NumericalError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim not in (1, 2):
        raise ConfigError(f"b_sine needs vectors or blocks of one shape, got {x.shape} and {y.shape}")
    X = x.reshape(x.shape[0], -1)
    Y = y.reshape(X.shape)
    if not (np.any(X, axis=0).all() and np.any(Y, axis=0).all()):
        raise ConfigError("b_sine needs nonzero vectors")
    BX = B.apply(X)
    nx2 = np.einsum("ij,ij->j", X, BX)
    ny2 = np.einsum("ij,ij->j", Y, B.apply(Y))
    if not ((nx2 > 0.0).all() and (ny2 > 0.0).all()):
        raise NumericalError("b_sine met a nonzero vector whose B-norm^2 is not positive: "
                             "B is not positive definite in floating point")
    R = Y - X * (np.einsum("ij,ij->j", Y, BX) / nx2)
    r2 = np.maximum(np.einsum("ij,ij->j", R, B.apply(R)), 0.0)
    sines = np.sqrt(r2 / ny2)
    return float(sines[0]) if x.ndim == 1 else sines


class GrowthRound(NamedTuple):
    """One round of ``grow_sketch_until``.

    ``estimate`` is the round's trigger value, max_i ||(I - QQ^T B) C w_i||_B
    over its probes, the first min(r, new) of the ``new`` columns it appends,
    with no ||B^{-1}|| or alpha factor: it only decides when a check runs.  A
    round that appends nothing (at max_cols) has no probes, and its
    ``estimate`` is None.  A round that ran a certificate check has its bound
    in ``certified``; otherwise ``certified`` is None.
    """

    columns: int
    estimate: Optional[float]
    certified: Optional[float]


@dataclass
class GrowthResult:
    """Outcome of estimator-driven sketch growth; ``history`` has one GrowthRound per round.

    ``certificate`` holds the "a_applies", "b_solves" and "b_applies" of all
    certificate checks: the operators' counter deltas across each check.
    """

    basis: BOrthoBasis
    n_columns: int
    estimate: ErrorEstimate
    history: list[GrowthRound]
    converged: bool
    certificate: dict


#: Columns that ``grow_sketch_until`` appends per round.
GROWTH_STEP = 10


def grow_sketch_until(
    A: LinearMap,
    B: SpdOperator,
    k0: int,
    tol: Optional[float],
    alpha: float = 2.0,
    r_probes: int = 5,
    seed: int = 0,
    max_cols: Optional[int] = None,
) -> GrowthResult:
    """Grow a B-orthonormal sketch until a certified bound on its range error meets tol.

    The sketch is one stream, ``gaussian_matrix(n, ., seed)``, read left to
    right (Halko, Martinsson and Tropp 2011, Alg. 4.2): k0 columns, factored
    by ``range_finder_b`` with p = 0, then per round one block of the next
    new = min(GROWTH_STEP, max_cols - ncols) columns W, applied once (A, then
    B^{-1}) and appended in place by ``pre_chol_qr_w(..., basis=,
    overwrite_y=True)``, since the loop owns the block it factors.  The block's
    first min(r_probes, new) columns are the round's probes.  The appended Q
    is B-orthonormal, so the B-norm of (I - QQ^T B) C w_i is the 2-norm of
    the new rows of w_i's column of R, and their largest is the round's
    trigger value e_free, with no product beyond the QR's own.  The basis
    factors ``gaussian_matrix(n, N, seed)`` at N columns.

    Every run ends on a certificate check (``_certify``): LANCZOS_STEPS
    Lanczos steps on C P C from a whitened random start, a bound on f with no
    ||B^{-1}|| factor.  A check certifies the basis from before the round's
    append; one that meets tol discards the round's block.  Check c spends
    ``check_budget(c, delta)`` of delta = alpha^{-r}, so e >= f at the stop
    with probability >= 1 - alpha^{-r} over all checks.  A check runs at the
    first round, where it calibrates rho = e_cert / e_free, at every later
    round with rho e_free <= tol (a check that fails calibrates rho again),
    and at max_cols, where nothing is appended and nothing is probed.  So a
    run with max_cols == k0 is one round and one check, and applies no
    column beyond its k0.  With tol=None only the first round and max_cols
    check.  Without B's whitening hook the checks run from an unwhitened
    start and the result says ``source: "heuristic"`` with no floor.  An
    alpha^{-r} so small that the Lanczos slack of the run's last possible
    check, number ceil((max_cols - k0) / GROWTH_STEP) + 1, reaches 1 is a
    ConfigError before any apply: that check could bound nothing.
    """
    if tol is not None and not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tol must be a finite positive number, got {tol}")
    delta = _check_estimator(alpha, r_probes)
    n = B.dim
    if A.dim_in != n or A.dim_out != n:
        raise ConfigError("A and B dimensions do not agree")
    max_cols = n if max_cols is None else min(max_cols, n)
    if k0 < 1 or k0 > max_cols:
        raise ConfigError("k0 out of range")
    # the slack grows with the check number; the last possible check has the largest
    last_check = -(-(max_cols - k0) // GROWTH_STEP) + 1
    if _lanczos_slack(n, LANCZOS_STEPS, check_budget(last_check, delta)) >= 1.0:
        raise ConfigError(f"alpha^-r = {alpha}^-{r_probes} is too small for a {LANCZOS_STEPS}-step "
                          f"certificate to bound anything at n = {n}: lower r or alpha")
    history: list = []
    certificate = dict.fromkeys(("a_applies", "b_solves", "b_applies"), 0)
    basis = range_finder_b(A, B, SketchConfig(k=k0, p=0, seed=seed)).basis
    ncols, checks, rho = k0, 0, None
    while True:
        new = min(GROWTH_STEP, max_cols - ncols)
        grown = e_free = None
        if new:
            CW = B.apply_inverse(A.apply(gaussian_matrix(n, new, seed, first_col=ncols)))
            grown = pre_chol_qr_w(CW, B, basis=basis, overwrite_y=True)
            probes = grown.R[ncols:, ncols : ncols + min(r_probes, new)]
            e_free = float(np.linalg.norm(probes, axis=0).max())
        if grown is None or rho is None or (tol is not None and rho * e_free <= tol):
            checks += 1
            before = A.matvec_count, B.solve_count, B.matvec_count
            e = _certify(A, B, basis, seed, checks, delta)
            for key, c0, c1 in zip(certificate, before, (A.matvec_count, B.solve_count, B.matvec_count)):
                certificate[key] += c1 - c0
            history.append(GrowthRound(ncols, e_free, e))
            converged = tol is not None and e <= tol
            if converged or grown is None:
                est = ErrorEstimate(e=e, alpha=float(alpha), r_probes=r_probes,
                                    probability_floor=1.0 - delta if B.has_whitening else None,
                                    source="lanczos_certificate" if B.has_whitening else "heuristic")
                return GrowthResult(basis, ncols, est, history, converged, certificate)
            rho = e / e_free if e_free > 0.0 else 1.0
        else:
            history.append(GrowthRound(ncols, e_free, None))
        basis, ncols = grown, ncols + new
