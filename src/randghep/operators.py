"""Matrix-free linear-operator contracts, dense backends, and matrix interchange I/O.

The solvers in this package only ever touch an operator through block
products ``A @ X``, ``B @ X`` and solves ``B^{-1} @ X``.  Square roots of B
are never requested by any algorithm; the dense backend factorizes B once
(Cholesky) purely to serve the solve contract.
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


class PoleError(NumericalError):
    """Spectral transform hit 1 - theta*alpha = 0 (eigenvalue at infinity)."""


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


def _as_block(X, dim: int):
    """Promote a vector to a one-column block.  Returns (block, was_vector)."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        if X.shape[0] != dim:
            raise ConfigError(f"operand has length {X.shape[0]}, expected {dim}")
        return X[:, None], True
    if X.ndim != 2 or X.shape[0] != dim:
        raise ConfigError(f"operand has shape {X.shape}, expected ({dim}, m)")
    return X, False


def _checked_output(out, shape: tuple[int, int], what: str) -> np.ndarray:
    """An operator's output as a float array, or NumericalError if it has the
    wrong shape or a NaN or Inf entry."""
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        raise NumericalError(f"{what} produced shape {out.shape}, expected {shape}")
    if not np.isfinite(out).all():
        raise NumericalError(f"{what} produced non-finite (NaN or Inf) values")
    return out


class LinearMap:
    """A linear operator applied to blocks of column vectors.

    ``apply`` maps a ``(dim_in, m)`` block to a ``(dim_out, m)`` block and
    increments the matvec counter by exactly ``m``.  An output of the wrong
    shape or with a NaN or Inf entry raises NumericalError and is not
    counted; the same holds for ``apply_transpose`` and
    ``SpdOperator.apply_inverse``.  One-dimensional inputs
    are treated as single columns and returned one-dimensional.

    Operators are immutable after construction and safe for concurrent
    read-only use; the counters use locked increments.  The dense backends
    keep the matrix they wrap without copying it and mark it read-only, so
    the operator stays immutable although the caller still holds the array.
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
        Xb, vec = _as_block(X, self.dim_in)
        out = _checked_output(self._apply(Xb), (self.dim_out, Xb.shape[1]), "apply")
        self._matvecs.add(Xb.shape[1])
        return out[:, 0] if vec else out

    def apply_transpose(self, X) -> np.ndarray:
        if self._apply_t is None:
            raise ConfigError("operator does not expose transpose application")
        Xb, vec = _as_block(X, self.dim_out)
        out = _checked_output(self._apply_t(Xb), (self.dim_in, Xb.shape[1]), "apply_transpose")
        self._matvecs.add(Xb.shape[1])
        return out[:, 0] if vec else out


class SpdOperator(LinearMap):
    """Symmetric-positive-definite operator: ``apply`` (Bx) plus ``apply_inverse`` (B^{-1}x).

    Symmetry makes transpose application identical to ``apply``.
    """

    def __init__(
        self,
        dim: int,
        apply: Callable[[np.ndarray], np.ndarray],
        apply_inverse: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        super().__init__(dim, dim, apply, apply_transpose=apply)
        self._apply_inv = apply_inverse
        self._solves = _Counter()

    @property
    def dim(self) -> int:
        return self.dim_in

    @property
    def solve_count(self) -> int:
        return self._solves.value

    def apply_inverse(self, X) -> np.ndarray:
        Xb, vec = _as_block(X, self.dim_in)
        out = _checked_output(self._apply_inv(Xb), (self.dim_in, Xb.shape[1]), "apply_inverse")
        self._solves.add(Xb.shape[1])
        return out[:, 0] if vec else out

    def inverse_view(self) -> "SpdOperator":
        """View of B^{-1} as an SpdOperator.

        Applying the view counts into this operator's solve counter (and its
        ``apply_inverse`` into the matvec counter), so cost accounting stays
        attached to the original B.
        """
        view = SpdOperator.__new__(SpdOperator)
        LinearMap.__init__(view, self.dim, self.dim, self._apply_inv, self._apply_inv)
        view._apply_inv = self._apply
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
    attribute is None.  A matrix-free pencil (the KLE pencil) builds them on
    demand; a pencil over dense operators returns the very arrays the
    operators wrap, so each matrix is held once.
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


def check_symmetric(M: np.ndarray, tol: float = 1e-13) -> None:
    """Validate the symmetric-storage invariant ||M - M^T||_max <= tol*||M||_max.

    Raises ConfigError if M is not square, is empty or is not symmetric.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {M.shape}")
    if M.size == 0:
        raise ConfigError(f"expected a nonempty matrix, got shape {M.shape}")
    scale = np.abs(M).max()
    if scale == 0.0:
        return
    if np.abs(M - M.T).max() > tol * scale:
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


def dense_spd(M: np.ndarray) -> SpdOperator:
    """SPD operator backed by a dense matrix; B^{-1}x served by a one-time Cholesky.

    Like ``dense_operator`` it wraps a float64 M in place and marks it
    read-only; the Cholesky factor is the only new n-by-n array.  Raises
    NumericalError if M has a NaN or Inf entry, NotPositiveDefiniteError if
    the factorization meets a non-positive pivot, ConfigError if M is empty
    or not symmetric.
    """
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise NumericalError("matrix has non-finite entries")
    check_symmetric(M)
    try:
        factor = scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc
    M.setflags(write=False)
    return SpdOperator(
        M.shape[0],
        lambda X: M @ X,
        lambda X: scipy.linalg.cho_solve(factor, X, check_finite=False),
    )


def c_operator(A: LinearMap, B: SpdOperator) -> LinearMap:
    """The composition C = B^{-1}A.  Applies count into both A and B-solve counters.

    C is self-adjoint with respect to the B-inner product even though it is
    not symmetric in the ordinary sense.
    """
    if A.dim_out != B.dim:
        raise ConfigError("A and B dimensions do not agree")
    return LinearMap(B.dim, A.dim_in, lambda X: B.apply_inverse(A.apply(X)))


def spectral_transform(theta: float, alpha: float, beta: float) -> float:
    """Recover lambda from theta = lambda / (alpha*lambda + beta).

    Used with indefinite B when some combination alpha*A + beta*B is positive
    definite; the transformed problem shares eigenvectors with the original.
    """
    denom = 1.0 - theta * alpha
    if denom == 0.0:
        raise PoleError("1 - theta*alpha = 0: eigenvalue at infinity")
    return theta * beta / denom


# ---------------------------------------------------------------------------
# Matrix Market and CSV interchange
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

    Symmetric/skew storage is expanded to full.  Complex and pattern fields
    raise UnsupportedFieldError; a zero row or column count in the header,
    parse failures and NaN or Inf values raise MatrixFormatError, with a line
    number when one can be determined.  The result is a new float64 array
    that the caller owns: ``dense_operator`` and ``dense_spd`` can wrap it
    without a copy.
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
        M = M.toarray()
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise MatrixFormatError(f"{path}: non-finite (NaN or Inf) value")
    return M


def save_matrix_market(path, M: np.ndarray, comment: str = "") -> None:
    """Write a dense matrix as a Matrix Market array file (round-trips float64).

    Each entry is written as the shortest decimal string that reads back as
    the same float64.
    """
    scipy.io.mmwrite(path, np.asarray(M, dtype=float), comment=comment)


def load_vector_csv(path) -> np.ndarray:
    """Read a vector stored one value per line ('.' decimal, scientific ok)."""
    values = []
    with open(path, "rt") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError as exc:
                raise MatrixFormatError(f"{path}: bad value at line {lineno}: {text!r}") from exc
    return np.array(values, dtype=float)


def save_vector_csv(path, v: np.ndarray) -> None:
    v = np.asarray(v, dtype=float).ravel()
    with open(path, "wt") as fh:
        for x in v:
            fh.write(f"{x:.17g}\n")
