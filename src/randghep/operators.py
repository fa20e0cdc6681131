"""Matrix-free linear-operator contracts, dense and sparse backends, and matrix interchange I/O.

The solvers in this package only ever touch an operator through block
products ``A @ X``, ``B @ X`` and solves ``B^{-1} @ X``.  Square roots of B
are never requested by any algorithm; each SPD backend factorizes B once
purely to serve the solve contract: the dense one by Cholesky, the sparse
one by a SuperLU LDL^T with a symmetric ordering.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse


class ConfigError(ValueError):
    """Invalid shapes, ranks or parameters.  Mapped to CLI exit code 2."""


class NumericalError(RuntimeError):
    """Numerical failure during a computation.  Mapped to CLI exit code 3."""


class MatrixFormatError(ValueError):
    """Unreadable or malformed Matrix Market input."""


class UnsupportedFieldError(MatrixFormatError):
    """Matrix Market field this library does not support (complex/pattern)."""


class NotPositiveDefiniteError(NumericalError):
    """A matrix required to be SPD has a non-positive pivot."""


class IllConditionedError(NumericalError):
    """Input too ill-conditioned for the requested algorithm."""


class _Counter:
    """Thread-safe additive counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def add(self, m: int) -> None:
        with self._lock:
            self._value += m

    @property
    def value(self) -> int:
        return self._value


def _product(fn, X, dim_in: int, dim_out: int, counter: Optional[_Counter], what: str):
    """fn(X) for a vector or a ``(dim_in, m)`` block X, checked; ``counter`` (if any) moves by m.

    Any other X is a ConfigError.  An output that is not ``(dim_out, m)`` or
    has a NaN or Inf entry is a NumericalError and moves no counter.  This
    is the only code that moves an operator's counters.
    """
    X = np.asarray(X, dtype=float)
    vec = X.ndim == 1
    if X.ndim not in (1, 2) or X.shape[0] != dim_in:
        raise ConfigError(f"operand has shape {X.shape}, expected ({dim_in},) or ({dim_in}, m)")
    Xb = X[:, None] if vec else X
    shape = (dim_out, Xb.shape[1])
    out = np.asarray(fn(Xb), dtype=float)
    if out.shape != shape:
        raise NumericalError(f"{what} produced shape {out.shape}, expected {shape}")
    if not np.isfinite(out).all():
        raise NumericalError(f"{what} produced non-finite (NaN or Inf) values")
    if counter is not None:
        counter.add(shape[1])
    return out[:, 0] if vec else out


class LinearMap:
    """A linear operator applied to blocks of column vectors.

    ``apply`` maps a ``(dim_in, m)`` block to a ``(dim_out, m)`` block and
    increments the matvec counter by exactly ``m``.  It, ``apply_transpose``
    and ``SpdOperator.apply_inverse``/``whiten`` run one checked product
    (``_product``): an output of the wrong shape or with a NaN or Inf entry
    raises NumericalError and is not counted.  One-dimensional inputs are
    treated as single columns and returned one-dimensional.  The counters
    are the only record of apply counts: callers read ``matvec_count`` and
    ``solve_count`` before and after.

    Operators are immutable after construction and safe for concurrent
    read-only use; the counters use locked increments.  The dense backends
    keep the matrix they wrap without copying it and mark it read-only, so
    the operator stays immutable although the caller still holds the array;
    the sparse backend keeps a copy of its own.
    """

    def __init__(
        self,
        dim_out: int,
        dim_in: int,
        apply: Callable[[np.ndarray], np.ndarray],
        apply_transpose: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        if dim_out < 1 or dim_in < 1:
            raise ConfigError("operator dimensions must be positive")
        self.dim_out = int(dim_out)
        self.dim_in = int(dim_in)
        self._apply = apply
        self._apply_t = apply_transpose
        self._matvecs = _Counter()

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim_out, self.dim_in)

    @property
    def matvec_count(self) -> int:
        return self._matvecs.value

    def apply(self, X) -> np.ndarray:
        return _product(self._apply, X, self.dim_in, self.dim_out, self._matvecs, "apply")

    def apply_transpose(self, X) -> np.ndarray:
        if self._apply_t is None:
            raise ConfigError("operator does not expose transpose application")
        return _product(self._apply_t, X, self.dim_out, self.dim_in, self._matvecs, "apply_transpose")


class SpdOperator(LinearMap):
    """Symmetric-positive-definite operator: ``apply`` (Bx) plus ``apply_inverse`` (B^{-1}x).

    Symmetry makes transpose application identical to ``apply``.

    ``whiten``, when given, applies F^{-T} for some factor B = F F^T (the
    Cholesky factor of ``dense_spd``, P^T L D^{1/2} of ``sparse_spd``).  It
    serves the error estimator only (``errors.grow_sketch_until`` draws its
    certificate's random starts with it) and is outside the Bx/B^{-1}x
    model the solvers use, so it moves no counter.  ``apply_inverse``
    moves the solve counter, as ``apply`` moves the matvec counter.  ``cholesky_factor`` is
    the dense lower Cholesky factor of B when the backend holds one
    (``dense_spd``), for the dense oracle to reuse; otherwise None, as for
    ``sparse_spd``, and the oracle factors a dense copy of B itself.
    """

    cholesky_factor: Optional[np.ndarray] = None

    def __init__(
        self,
        dim: int,
        apply: Callable[[np.ndarray], np.ndarray],
        apply_inverse: Callable[[np.ndarray], np.ndarray],
        whiten: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        super().__init__(dim, dim, apply, apply_transpose=apply)
        self._apply_inv = apply_inverse
        self._whiten = whiten
        self._solves = _Counter()

    @property
    def dim(self) -> int:
        return self.dim_in

    @property
    def solve_count(self) -> int:
        return self._solves.value

    def apply_inverse(self, X) -> np.ndarray:
        return _product(self._apply_inv, X, self.dim, self.dim, self._solves, "apply_inverse")

    @property
    def has_whitening(self) -> bool:
        return self._whiten is not None

    def whiten(self, X) -> np.ndarray:
        """F^{-T} X for the factor B = F F^T of the whitening hook (no counter moves).

        Raises ConfigError when the operator has no hook.
        """
        if self._whiten is None:
            raise ConfigError("operator has no whitening hook")
        return _product(self._whiten, X, self.dim, self.dim, None, "whiten")

    def inverse_view(self) -> "SpdOperator":
        """View of B^{-1} as an SpdOperator.

        Applying the view counts into this operator's solve counter (and its
        ``apply_inverse`` into the matvec counter), so cost accounting stays
        attached to the original B.
        """
        view = SpdOperator.__new__(SpdOperator)
        LinearMap.__init__(view, self.dim, self.dim, self._apply_inv, self._apply_inv)
        view._apply_inv = self._apply
        view._whiten = None
        view._matvecs = self._solves
        view._solves = self._matvecs
        return view


@dataclass
class GhepPencil:
    """The pair (A, B) that every GHEP solver consumes.

    The solvers touch the pencil only through ``A.apply``, ``B.apply`` and
    ``B.apply_inverse``, so the operators' counters see every product.
    ``dense_a``/``dense_b`` are the dense matrices for oracle-scale checks.
    They are lazy: ``build_dense_a``/``build_dense_b`` run the first time the
    attribute is read, and only oracle code reads it.  Without a builder the
    attribute is None.  A matrix-free pencil (the KLE pencil) and a sparse
    B (``sparse_spd``) build them on demand; a pencil over dense operators
    returns the very arrays the operators wrap, so each matrix is held once.
    """

    A: LinearMap
    B: SpdOperator
    build_dense_a: Optional[Callable[[], np.ndarray]] = field(default=None, repr=False)
    build_dense_b: Optional[Callable[[], np.ndarray]] = field(default=None, repr=False)

    @cached_property
    def dense_a(self) -> Optional[np.ndarray]:
        return None if self.build_dense_a is None else self.build_dense_a()

    @cached_property
    def dense_b(self) -> Optional[np.ndarray]:
        return None if self.build_dense_b is None else self.build_dense_b()


#: Entries per block of ``check_symmetric``'s row-against-column comparison.
_SYMMETRY_BLOCK = 1 << 16


def check_symmetric(M) -> None:
    """Validate the symmetric-storage invariant ||M - M^T||_max <= 1e-13 ||M||_max.

    M is a dense array or a scipy sparse matrix.  Raises ConfigError if M is
    not square, is empty or is not symmetric.  Row blocks of a dense M are
    compared with column blocks, so the only temporary is one block of
    ``_SYMMETRY_BLOCK`` entries, not an n-by-n difference; a sparse M is
    compared as the sparse M - M^T.  A NaN in M, or in M - M^T, passes the
    check, as it would in the n-by-n formula; callers test finiteness first.
    """
    sparse = scipy.sparse.issparse(M)
    if not sparse:
        M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        raise ConfigError(f"expected a nonempty matrix, got shape {M.shape}")
    scale = np.maximum(M.max(), -M.min())
    if scale == 0.0:
        return
    if sparse:
        worst = abs(M - M.T).max()
    else:
        n = M.shape[0]
        rows = max(1, _SYMMETRY_BLOCK // n)
        blocks = []
        for i in range(0, n, rows):
            diff = np.subtract(M[i : i + rows], M[:, i : i + rows].T)
            blocks.append(np.abs(diff, out=diff).max())
        worst = np.max(blocks)
    if worst > 1e-13 * scale:
        raise ConfigError("matrix is not symmetric to within tolerance")


def dense_operator(M: np.ndarray) -> LinearMap:
    """Wrap a dense matrix as a LinearMap with transpose application.

    A float64 M is wrapped in place, not copied, and marked read-only: the
    caller keeps reading the same array but can no longer write to it.  Other
    dtypes are converted to a new float64 array.  Pass a copy to keep the
    original writeable.
    """
    M = np.asarray(M, dtype=float)
    M.setflags(write=False)
    return LinearMap(M.shape[0], M.shape[1], lambda X: M @ X, lambda X: M.T @ X)


def cholesky_lower(M: np.ndarray, name: str) -> np.ndarray:
    """The lower Cholesky factor L of a dense SPD matrix M = L L^T.

    Raises NumericalError if M has a NaN or Inf entry, ConfigError if M is
    empty or not symmetric, and NotPositiveDefiniteError if the factorization
    meets a non-positive pivot; ``name`` names M in the messages.
    """
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise NumericalError(f"{name} has non-finite (NaN or Inf) entries")
    check_symmetric(M)
    try:
        return scipy.linalg.cholesky(M, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{name} is not positive definite: {exc}") from exc


def _check_conditioning(rcond: float) -> None:
    """IllConditionedError when an SPD matrix is singular to working precision.

    ``rcond`` estimates 1 / (||M||_1 ||M^{-1}||_1).  Below machine epsilon a
    change of M at the size of its own rounding can make it singular, so no
    digit of M^{-1}x is determined; LAPACK's expert drivers (xPOSVX) call
    such a matrix singular to working precision.
    """
    if not rcond >= np.finfo(float).eps:
        raise IllConditionedError(
            f"matrix is singular to working precision (reciprocal condition estimate {rcond:.1e})")


def dense_spd(M: np.ndarray) -> SpdOperator:
    """SPD operator backed by a dense matrix; B^{-1}x served by a one-time Cholesky.

    Like ``dense_operator`` it wraps a float64 M in place and marks it
    read-only; the Cholesky factor L is the only new n-by-n array.  M is
    validated and factored by ``cholesky_lower``, and its typed errors pass
    through.  L also serves the whitening hook (L^{-T}x) and is the
    operator's ``cholesky_factor``, read-only.  LAPACK's dpocon estimates
    the condition of M from L, and an M singular to working precision
    raises IllConditionedError (``_check_conditioning``).
    """
    M = np.asarray(M, dtype=float)
    L = cholesky_lower(M, "matrix")
    # ||M||_1 = ||M^T||_1 for a symmetric M; dlange reads an F-ordered view without a copy
    anorm = scipy.linalg.lapack.dlange("1", M.T if M.flags.c_contiguous else M)
    _check_conditioning(scipy.linalg.lapack.dpocon(L, anorm, uplo="L")[0])
    M.setflags(write=False)
    L.setflags(write=False)
    op = SpdOperator(
        M.shape[0],
        lambda X: M @ X,
        lambda X: scipy.linalg.cho_solve((L, True), X, check_finite=False),
        lambda X: scipy.linalg.solve_triangular(L, X, trans="T", lower=True, check_finite=False),
    )
    op.cholesky_factor = L
    return op


def sparse_spd(M) -> SpdOperator:
    """SPD operator backed by a scipy sparse matrix; B^{-1}x served by one sparse LDL^T.

    M is copied to CSR, which serves Bx as a sparse product.  SuperLU
    factors P M P^T = L D L^T once, with a symmetric fill-reducing ordering
    and diagonal pivots only; ``lu.solve`` serves B^{-1}x.  With
    F = P^T L D^{1/2}, M = F F^T, and the whitening hook applies
    F^{-T} = P^T L^{-T} D^{-1/2}.  ``cholesky_factor`` stays None.

    Raises NumericalError if M has a NaN or Inf entry, ConfigError if M is
    empty, not square or not symmetric (``check_symmetric``), and
    NotPositiveDefiniteError if M is singular, needs an off-diagonal pivot
    (a zero on the diagonal) or has a pivot D_jj <= 0.  ||M^{-1}||_1 is
    estimated from the factor (Higham's one-norm estimator, one column, so
    no random draw), and an M singular to working precision raises
    IllConditionedError (``_check_conditioning``).
    """
    # imported here: the ~15 ms import is paid only by a sparse B
    import scipy.sparse.linalg

    M = scipy.sparse.csr_matrix(M, dtype=float, copy=True)
    if not np.isfinite(M.data).all():
        raise NumericalError("matrix has non-finite (NaN or Inf) entries")
    check_symmetric(M)
    try:
        lu = scipy.sparse.linalg.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                      options={"SymmetricMode": True})
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NotPositiveDefiniteError("matrix is not positive definite: it needs an off-diagonal pivot")
    d = lu.U.diagonal()
    if not (d > 0.0).all():
        raise NotPositiveDefiniteError("matrix is not positive definite: a pivot of its LDL^T is not positive")
    inverse = scipy.sparse.linalg.LinearOperator(M.shape, matvec=lu.solve, rmatvec=lu.solve, dtype=float)
    norm1 = abs(M).sum(axis=0).max()
    _check_conditioning(1.0 / (norm1 * scipy.sparse.linalg.onenormest(inverse, t=1)))
    Lt = lu.L.T  # CSR, as the triangular solve wants it
    root_d = np.sqrt(d)[:, None]
    order = lu.perm_c

    def whiten(X: np.ndarray) -> np.ndarray:
        Z = scipy.sparse.linalg.spsolve_triangular(Lt, X / root_d, lower=False, unit_diagonal=True)
        return Z[order]

    return SpdOperator(M.shape[0], lambda X: M @ X, lu.solve, whiten)


# ---------------------------------------------------------------------------
# Matrix Market interchange
# ---------------------------------------------------------------------------


def _locate_bad_line(path) -> int:
    """Best-effort scan for the first malformed body line (1-based, 0 if unknown)."""
    try:
        with open(path, "rt") as fh:
            header = fh.readline()
            if not header.startswith("%%MatrixMarket"):
                return 1
            lineno = 1
            for line in fh:
                lineno += 1
                if line.startswith("%") or not line.strip():
                    continue
                try:
                    [float(t) for t in line.split()]
                except ValueError:
                    return lineno
            return 0
    except OSError:
        return 0


def load_matrix_market(path) -> np.ndarray:
    """Read a real Matrix Market file (array or coordinate) into a dense matrix.

    Validation is ``read_matrix_market``'s.  The result is a new float64
    array that the caller owns: ``dense_operator`` and ``dense_spd`` can
    wrap it without a copy.
    """
    M = read_matrix_market(path)
    return M.toarray() if scipy.sparse.issparse(M) else M


def read_matrix_market(path):
    """Read a real Matrix Market file in its own storage: coordinate storage
    as a float64 sparse CSR matrix, array storage as a float64 array.

    Symmetric/skew storage is expanded to full.  Complex and pattern fields
    raise UnsupportedFieldError; a zero row or column count in the header,
    parse failures and NaN or Inf values raise MatrixFormatError, with a line
    number when one can be determined.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    try:
        info = scipy.io.mminfo(path)
    except Exception as exc:
        raise MatrixFormatError(f"{path}: not a valid Matrix Market header: {exc}") from exc
    rows, cols, fld = info[0], info[1], info[4]
    if rows == 0 or cols == 0:
        raise MatrixFormatError(f"{path}: empty matrix ({rows} x {cols}) in the header")
    if fld == "complex":
        raise UnsupportedFieldError(f"{path}: complex field is not supported (real matrices only)")
    if fld == "pattern":
        raise UnsupportedFieldError(f"{path}: pattern field is not supported (no values)")
    try:
        M = scipy.io.mmread(path)
    except Exception as exc:
        lineno = _locate_bad_line(path)
        where = f" at line {lineno}" if lineno else ""
        raise MatrixFormatError(f"{path}: parse failure{where}: {exc}") from exc
    if scipy.sparse.issparse(M):
        M = scipy.sparse.csr_matrix(M, dtype=float)  # sums duplicate entries
        values = M.data
    else:
        M = values = np.asarray(M, dtype=float)
    if not np.isfinite(values).all():
        raise MatrixFormatError(f"{path}: non-finite (NaN or Inf) value")
    return M


def save_matrix_market(path, M: np.ndarray) -> None:
    """Write a dense matrix as a Matrix Market array file (round-trips float64).

    Each entry is written as the shortest decimal string that reads back as
    the same float64.
    """
    scipy.io.mmwrite(path, np.asarray(M, dtype=float))
