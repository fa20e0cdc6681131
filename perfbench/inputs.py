"""Seeded inputs of the benchmark workloads, built with numpy and scipy only.

The reference values computed here never go through randghep, so a defect in
the library cannot hide itself by corrupting its own reference.
"""

from __future__ import annotations

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse


def matern(nu: float, d: np.ndarray) -> np.ndarray:
    """Matern covariance at scaled distance d, for nu in {1/2, 3/2, 5/2}."""
    if nu == 0.5:
        return np.exp(-d)
    if nu == 1.5:
        s = np.sqrt(3.0) * d
        return (1.0 + s) * np.exp(-s)
    s = np.sqrt(5.0) * d
    return (1.0 + s + (5.0 / 3.0) * d * d) * np.exp(-s)


def jittered_grid(m: int, seed: int, jitter: float = 0.2) -> np.ndarray:
    """Nodes of an m-by-m grid on [-1, 1]^2, interior nodes moved by up to
    ``jitter`` grid widths in each coordinate; shape (m*m, 2), row-major."""
    h = 2.0 / (m - 1)
    x, y = np.meshgrid(np.linspace(-1.0, 1.0, m), np.linspace(-1.0, 1.0, m), indexing="ij")
    pts = np.stack([x.ravel(), y.ravel()], axis=1)
    shift = np.random.default_rng(seed).uniform(-jitter * h, jitter * h, size=pts.shape)
    ij = np.stack(np.meshgrid(np.arange(m), np.arange(m), indexing="ij"), axis=-1).reshape(-1, 2)
    interior = np.all((ij > 0) & (ij < m - 1), axis=1)
    pts[interior] += shift[interior]
    return pts


def mass_2d(pts: np.ndarray, m: int) -> scipy.sparse.csr_matrix:
    """P1 mass matrix of the grid split into two triangles per cell."""
    idx = np.arange(m * m).reshape(m, m)
    a, b = idx[:-1, :-1].ravel(), idx[1:, :-1].ravel()
    c, d = idx[:-1, 1:].ravel(), idx[1:, 1:].ravel()
    tris = np.concatenate([np.stack([a, b, d], 1), np.stack([a, d, c], 1)])
    p0, p1, p2 = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
    e1, e2 = p1 - p0, p2 - p0
    area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    vals = (area[:, None] * local.ravel()[None, :]).ravel()
    n = m * m
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def matern_pencil_2d(m: int, seed: int, nu: float = 1.5, ell: float = 0.5):
    """The pencil (B Gamma B, B) of a 2D Matern field on a jittered m-by-m grid.

    Returns (A dense, B sparse).  A is symmetrized after the products so it
    passes a strict symmetry check.
    """
    pts = jittered_grid(m, seed)
    B = mass_2d(pts, m)
    dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    gamma = matern(nu, dist / ell)
    BG = np.asarray(B @ gamma)
    A = np.asarray(B @ BG.T)
    return (A + A.T) / 2.0, B


def write_pencil(directory, A: np.ndarray, B) -> tuple[str, str]:
    """Write A as a dense array file and B in symmetric coordinate storage."""
    a_path, b_path = str(directory / "A.mtx"), str(directory / "B.mtx")
    scipy.io.mmwrite(a_path, A, precision=16)
    scipy.io.mmwrite(b_path, B.tocoo(), symmetry="symmetric", precision=16)
    return a_path, b_path


def top_eigenvalues(A: np.ndarray, B: np.ndarray, k: int) -> np.ndarray:
    """The k largest eigenvalues of A x = lambda B x, descending (dense LAPACK)."""
    n = A.shape[0]
    lam = scipy.linalg.eigh(A, B, eigvals_only=True, subset_by_index=[n - k, n - 1])
    return lam[::-1].copy()


def kle_pencil_1d(n: int, nu: float, ell: float):
    """The dense 1D KLE pencil (M Gamma M, M) on n uniform nodes of [-1, 1]."""
    x = np.linspace(-1.0, 1.0, n)
    h = 2.0 / (n - 1)
    gamma = matern(nu, np.abs(x[:, None] - x[None, :]) / ell)
    main = np.full(n, 2.0 * h / 3.0)
    main[0] = main[-1] = h / 3.0
    M = np.diag(main) + np.diag(np.full(n - 1, h / 6.0), 1) + np.diag(np.full(n - 1, h / 6.0), -1)
    A = M @ gamma @ M
    return (A + A.T) / 2.0, M
