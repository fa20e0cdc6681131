"""Seeded Gaussian test matrices, the identity weight and the B-weighted range
finder.  The B = I EVD is any GHEP solver on the pencil (A, I), and the plain
SVD is ``gsvd.randomized_gsvd`` with S = T = I."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import borth
from .operators import ConfigError, LinearMap, SpdOperator

#: Identifier of the pseudo-random stream: one Philox4x64 counter stream per
#: column (key = seed, counter = column << 66), uniforms mapped to normals by
#: the Box-Muller transform.  Fixed so that equal seeds give bitwise-equal
#: matrices, independent of thread count, and so that a matrix can be
#: extended by columns without touching the existing ones.  The uniforms are
#: the same everywhere, but the transform's float64 log, cos and sin are
#: NumPy SIMD kernels chosen by CPU: the bits are promised for one NumPy
#: version and one dispatch target, and differ by a few ulp in a few entries
#: between, for example, AVX-512 and AVX2 machines.  Matrices are stored
#: column-major (each column one contiguous stream); the values, and so the
#: bytes of a C-ordered copy, do not depend on that.
GENERATOR_ID = "philox4x64-boxmuller/v1"

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, stream: int) -> int:
    """Deterministic 64-bit child seed (SplitMix64 finalizer on seed + stream)."""
    x = (int(seed) + (int(stream) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def gaussian_matrix(n: int, r: int, seed: int, first_col: int = 0) -> np.ndarray:
    """An n-by-r block of i.i.d. N(0, 1) entries from the named generator.

    ``first_col`` shifts the column streams: ``gaussian_matrix(n, r, s)`` and
    ``gaussian_matrix(n, q, s, first_col=r)`` side by side equal
    ``gaussian_matrix(n, r + q, s)`` bitwise.  The block is Fortran-ordered,
    so the column-wise operators it is handed to read contiguous columns.
    """
    if n < 1 or r < 1:
        raise ConfigError("gaussian_matrix needs n, r >= 1")
    out = np.empty((n, r), order="F")
    half = (n + 1) // 2
    # one bit generator per call, moved to each column's stream by its state:
    # a Philox constructor draws OS entropy for a seed that the key leaves unused
    bits = np.random.Philox(key=int(seed) & _MASK64)
    gen = np.random.Generator(bits)
    state = bits.state  # an empty buffer: the next draw starts at the counter
    counter = state["state"]["counter"]  # the 256-bit counter as 4 words, low first
    for j in range(r):
        c = (first_col + j) << 66
        counter[:] = [(c >> shift) & _MASK64 for shift in (0, 64, 128, 192)]
        bits.state = state
        u1 = 1.0 - gen.random(half)  # in (0, 1], keeps log finite
        u2 = gen.random(half)
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])
        out[:, j] = z[:n]
    return out


@dataclass(frozen=True)
class SketchConfig:
    """Sketch size: target rank k, oversampling p (r = k + p columns), seed."""

    k: int
    p: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError("target rank k must be >= 1")
        if self.p < 0:
            raise ConfigError("oversampling p must be >= 0")

    @property
    def r(self) -> int:
        return self.k + self.p


@dataclass
class RangeResult:
    """Output of the B-weighted range finder.

    ``basis`` holds the B-orthonormal Q with cached BQ, ``Ybar = A Omega`` is
    retained for the single-pass solver, and ``Omega`` is the Gaussian test
    matrix.  The sketched range Y = B^{-1} Ybar is not kept: the weighted QR
    factors it in place, and B.apply_inverse(Ybar) forms it again.  The
    solvers drop ``Omega`` and ``Ybar`` (``ghep._solve``): two-pass and
    Nystrom right after the QR, single-pass once its small matrices are
    formed, so each is one n x (k+p) block held no longer than it is read.
    """

    basis: borth.BOrthoBasis
    Ybar: np.ndarray
    Omega: np.ndarray


#: The weighted QRs that ``randghep qr-bench`` compares, by CSV name, in row
#: order.  The solvers call ``borth.pre_chol_qr_w`` directly.
_QR_ALGORITHMS = {
    "MGS": borth.mgs_w,
    "MGS-R": borth.mgs_w_reorth,
    "PreCholQR": borth.pre_chol_qr_w,
}


def _identity(n: int) -> SpdOperator:
    """B = I as an SpdOperator: the weights of the plain SVD, and the B of the
    EVD's pencil (A, I).  Its whitening hook is the identity too, and its
    ``dense_factor()`` a new F-ordered identity with no ordering, so the
    estimator's certificate and the dense oracles take it as they take any B."""
    return SpdOperator(n, lambda X: X, lambda X: X, lambda X: X, lambda: (np.eye(n, order="F"), None))


def range_finder_b(A: LinearMap, B: SpdOperator, cfg: SketchConfig) -> RangeResult:
    """B-orthonormal basis for the dominant range of C = B^{-1}A.

    Draws Omega, forms Ybar = A*Omega and Y = B^{-1}*Ybar (exactly k+p
    A-applies and k+p B-solves), then factorizes Y with the block weighted QR
    ``borth.pre_chol_qr_w``, in place (``overwrite_y``): Y is this function's
    own block, so its memory becomes Q.  The result keeps Ybar and Omega.
    """
    n = B.dim
    if A.dim_in != n or A.dim_out != n:
        raise ConfigError("A and B dimensions do not agree")
    if cfg.r > n:
        raise ConfigError(f"sketch size k+p={cfg.r} exceeds n={n}")
    Omega = gaussian_matrix(n, cfg.r, cfg.seed)
    Ybar = A.apply(Omega)
    basis = borth.pre_chol_qr_w(B.apply_inverse(Ybar), B, overwrite_y=True)
    return RangeResult(basis=basis, Ybar=Ybar, Omega=Omega)
