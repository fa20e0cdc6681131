"""Shared fixtures: KLE pencils, dense oracles, exact-rank pencil builders,
a writer of file pencils in the benchmark's storage, and a tracemalloc
probe of what a block of code allocates.

The suite runs with one BLAS thread unless the caller sets
``RANDGHEP_THREADS`` (or a BLAS thread variable) itself: ``randghep`` is
imported before numpy so that its thread cap applies.  The tests' matrices
are small, and extra BLAS threads only make them slower.
"""

from __future__ import annotations

import contextlib
import os
import tracemalloc
from types import SimpleNamespace

os.environ.setdefault("RANDGHEP_THREADS", "1")

import randghep  # noqa: E402,F401  (applies the thread cap before numpy loads BLAS)
import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.io  # noqa: E402
import scipy.sparse  # noqa: E402

from randghep import errors, kle, save_matrix_market  # noqa: E402


@contextlib.contextmanager
def traced_memory():
    """tracemalloc over a ``with`` block.  On exit the yielded namespace has
    ``held``, the bytes the block allocated and still holds, and ``peak``, the
    most it held at once, both counted from the block's start.  Memory
    allocated before the block is not traced, so freeing it counts nothing."""
    usage = SimpleNamespace(held=0, peak=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        yield usage
        now, peak = tracemalloc.get_traced_memory()
        usage.held, usage.peak = now - before, peak - before
    finally:
        tracemalloc.stop()


def make_kle_pencil(nu: float, ell: float = 2.0, n: int = 201):
    """Fresh pencil (fresh counters) for the standard [-1, 1] KLE setup."""
    grid = kle.Grid1D(a=-1.0, b=1.0, n=n)
    return kle.kle_pencil(grid, kle.MaternConfig(nu=nu, ell=ell))


def make_kle_mass(n: int = 201) -> np.ndarray:
    """The dense mass matrix B of ``make_kle_pencil(nu, ell, n)``, whose
    ``B`` is the matrix-free ``kle.MassOperator``."""
    return kle.assemble_mass_1d(kle.Grid1D(a=-1.0, b=1.0, n=n))


def kle_rel_error(grid, cfg, eigenvalues) -> float:
    """The relative l1 error of KLE eigenvalues on ``grid`` against the dense
    oracle of ``kle_pencil(grid, cfg)``, as ``randghep kle`` reports it."""
    pencil = kle.kle_pencil(grid, cfg)
    return errors.dense_ghep_oracle(pencil.dense_a, pencil.B).rel_eigenvalue_error(eigenvalues)


def polished_eigenvalues(ref: errors.SpectrumReference, Ad: np.ndarray, Bd: np.ndarray) -> np.ndarray:
    """The oracle's eigenvalues as long-double Rayleigh quotients of its eigenvectors.

    The dense eigensolver's eigenvalues carry rounding of a few ulp of the
    largest eigenvalue: on the nu = 2.5 pencil, lambda_1 = 1.79 is off by
    1.0e-15 with one BLAS thread and 1.5e-15 with two, as large as the 1e-15
    roundoff allowance of criterion 06.  A Rayleigh quotient is second-order
    accurate in its vector's error, so evaluated in extended precision it
    gives the reference eigenvalues of the dense pencil to about one ulp.
    """
    X = ref.eigenvectors.astype(np.longdouble)
    num = np.einsum("ij,ij->j", X, Ad.astype(np.longdouble) @ X)
    den = np.einsum("ij,ij->j", X, Bd.astype(np.longdouble) @ X)
    return (num / den).astype(float)


@pytest.fixture(scope="session")
def kle_oracle():
    """Memoized dense reference spectra keyed by (nu, ell, n), eigenvalues polished."""
    cache: dict = {}

    def get(nu: float, ell: float = 2.0, n: int = 201) -> errors.SpectrumReference:
        key = (nu, ell, n)
        if key not in cache:
            pencil = make_kle_pencil(nu, ell, n)
            ref = errors.dense_ghep_oracle(pencil.dense_a, pencil.B)
            ref.lambdas = polished_eigenvalues(ref, pencil.dense_a, make_kle_mass(n))
            cache[key] = ref
        return cache[key]

    return get


def random_spd(n: int, kappa: float, seed: int) -> np.ndarray:
    """SPD matrix with prescribed condition number and random eigenbasis."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.geomspace(1.0, 1.0 / kappa, n)
    return (Q * w) @ Q.T


def b_orthonormal_columns(Bd: np.ndarray, r: int, seed: int) -> np.ndarray:
    """Random U0 with U0^T B U0 = I."""
    rng = np.random.default_rng(seed)
    U0 = rng.standard_normal((Bd.shape[0], r))
    C = np.linalg.cholesky(U0.T @ (Bd @ U0))
    return np.linalg.solve(C, U0.T).T


def exact_rank_pencil(n: int, lams, b_kappa: float, seed: int):
    """Pencil with known spectrum: A = (B U0) diag(lams) (B U0)^T, U0^T B U0 = I.

    The nonzero pencil eigenvalues are exactly ``lams`` with eigenvectors U0.
    Returns (A_dense, B_dense, U0).
    """
    lams = np.asarray(lams, dtype=float)
    Bd = random_spd(n, b_kappa, seed)
    U0 = b_orthonormal_columns(Bd, lams.size, seed + 1)
    BU = Bd @ U0
    Ad = (BU * lams) @ BU.T
    Ad = (Ad + Ad.T) / 2.0
    return Ad, Bd, U0


def rel_eig_error(approx: np.ndarray, exact: np.ndarray) -> float:
    k = approx.size
    return float(np.sum(np.abs(exact[:k] - approx)) / np.sum(np.abs(exact[:k])))


def write_coordinate_pencil(directory, Ad: np.ndarray, Bd) -> tuple[str, str]:
    """Write the pencil as the benchmark's solve workload does: A as a dense
    array file, B in symmetric coordinate storage.  Unlike the benchmark, every
    entry keeps its full float64 precision.  Returns the paths (a.mtx, b.mtx).
    """
    a_path, b_path = directory / "a.mtx", directory / "b.mtx"
    save_matrix_market(a_path, Ad)
    scipy.io.mmwrite(b_path, scipy.sparse.coo_matrix(Bd), symmetry="symmetric")
    return str(a_path), str(b_path)
