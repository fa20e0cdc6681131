"""Randomized solvers for A x = lambda B x: two-pass, single-pass, and Nystrom.

The three solvers are one skeleton plus a per-method projection.  They touch
the pencil only through A.apply, B.apply and B.apply_inverse, so the
operators' counters see every product.  The skeleton validates the pencil,
probes A for symmetry, runs the B-weighted range finder (Y = B^{-1} A Omega,
then Q with Q^T B Q = I), compacts the basis and assembles the diagnostics
and the matvec accounting split by operator.  The projection forms and
solves the method's small problem.  All three return B-orthonormal
eigenvectors (U^T B U = I) with the low-rank form A ~ (BU) Lambda (BU)^T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpstrf

from . import borth
from .operators import ConfigError, IllConditionedError, LinearMap, NumericalError, SpdOperator
from .sketch import SketchConfig, _check_order, _check_symmetry, range_finder_b, ritz


@dataclass
class GhepSolution:
    """Approximate dominant eigenpairs of a pencil (A, B).

    ``eigenvalues`` is length k, sorted descending; ``counts`` holds the
    A-applies, B-applies and B-solves the solve consumed after its symmetry
    probe (the probe's A-applies are excluded and reported as
    ``diagnostics["symmetry_probe_applies"]``).  The range finder's block QR
    makes no re-orthogonalization applies, so ``diagnostics["reorth_b_applies"]``
    is 0.  Nystrom's second QR (MGS-R in the B^{-1}-inner product) adds
    ``diagnostics["reorth_b_solves"]`` B-solves, which ``counts`` includes.
    """

    U: np.ndarray
    eigenvalues: np.ndarray
    method: str
    counts: dict
    seed: int
    k: int
    p: int
    diagnostics: dict = field(default_factory=dict)
    basis: Optional[borth.BOrthoBasis] = None

    def report_dict(self) -> dict:
        """JSON-serializable summary (drops the dense factors)."""
        return {
            "method": self.method,
            "k": self.k,
            "p": self.p,
            "seed": self.seed,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "counts": {key: int(v) for key, v in self.counts.items()},
            "diagnostics": {
                key: v for key, v in self.diagnostics.items() if not isinstance(v, np.ndarray)
            },
        }


def _solve(method: str, project, A: LinearMap, B: SpdOperator, cfg: SketchConfig,
           order: str) -> GhepSolution:
    """The skeleton of the three solvers: validate, probe, range finder, projection.

    ``project(A, B, cfg, rng, basis, order)`` solves the method's small
    projected problem on the compacted basis and returns (U, eigenvalues,
    all projected eigenvalues, method diagnostics).  The dimension, sketch
    and order checks come before the symmetry probe, so a rejected pencil
    spends no A-applies; ``counts`` starts after the probe.
    """
    if A.dim_in != B.dim or A.dim_out != B.dim:
        raise ConfigError("A and B dimensions do not agree")
    if cfg.r > B.dim:
        raise ConfigError(f"sketch size k+p={cfg.r} exceeds n={B.dim}")
    _check_order(order)
    probe = _check_symmetry(A, cfg.seed)
    a0, b0, s0 = A.matvec_count, B.matvec_count, B.solve_count
    rng = range_finder_b(A, B, cfg)
    basis = rng.basis.compact()
    U, lam, lam_all, method_diag = project(A, B, cfg, rng, basis, order)
    counts = {
        "a_applies": A.matvec_count - a0,
        "b_applies": B.matvec_count - b0,
        "b_solves": B.solve_count - s0,
    }
    diag = {
        "effective_rank": int(basis.n_kept),
        "reorth_b_applies": int(basis.n_reorth_applies),
        "symmetry_probe_applies": probe,
        "projected_eigenvalues_full": [float(v) for v in np.sort(lam_all)[::-1]],
        **method_diag,
    }
    return GhepSolution(U, lam, method, counts, cfg.seed, cfg.k, cfg.p, diag, basis)


def _project_two_pass(A, B, cfg, rng, basis, order):
    Q = basis.Q
    return (*ritz(Q.T @ A.apply(Q), Q, cfg.k, order), {})


def _project_single_pass(A, B, cfg, rng, basis, order):
    F = basis.WQ.T @ rng.Omega  # Q^T B Omega, no extra B-applies
    fvals = np.linalg.svd(F, compute_uv=False)
    if fvals[-1] <= 1e-10 * fvals[0]:
        raise IllConditionedError(
            "F = Q^T B Omega is numerically singular (sigma_min/sigma_max <= 1e-10); "
            "use the two-pass solver"
        )
    G = rng.Omega.T @ rng.Ybar
    if F.shape[0] == F.shape[1]:
        T = np.linalg.solve(F.T, G)
        T = np.linalg.solve(F.T, T.T).T
    else:
        Fp = np.linalg.pinv(F)
        T = Fp.T @ G @ Fp
    diag = {
        "sigma_min_F": float(fvals[-1]),
        "sigma_max_omega": float(np.linalg.svd(rng.Omega, compute_uv=False)[0]),
    }
    return (*ritz(T, basis.Q, cfg.k, order), diag)


def _psd_half_factor(T: np.ndarray, r: int) -> tuple[np.ndarray, bool, int]:
    """Cholesky half of T, falling back to pivoted Cholesky on the positive part.

    Returns (H, fallback_used, dropped) with T ~ H H^T restricted to pivots
    above 1e-12 * trace(T) / r.
    """
    try:
        L = scipy.linalg.cholesky(T, lower=True, check_finite=False)
        return L, False, 0
    except scipy.linalg.LinAlgError:
        pass
    tol = 1e-12 * max(np.trace(T), 0.0) / max(r, 1)
    c, piv, rank, info = dpstrf(T, lower=1, tol=tol)
    if info < 0:
        raise NumericalError(f"pivoted Cholesky failed with info={info}")
    rank = int(rank)
    if rank == 0:
        raise NumericalError("projected matrix Q^T A Q has no positive part; Nystrom needs A PSD on range(Q)")
    perm = np.asarray(piv, dtype=int) - 1
    L = np.tril(c)[:, :rank]
    H = np.zeros((T.shape[0], rank))
    H[perm, :] = L  # T ~ H H^T since P^T T P = L L^T
    return H, True, T.shape[0] - rank


def _project_nystrom(A, B, cfg, rng, basis, order):
    Q = basis.Q
    AQ = A.apply(Q)
    T = Q.T @ AQ
    T = (T + T.T) / 2.0
    H, fallback, dropped = _psd_half_factor(T, cfg.r)
    if H.shape[0] == H.shape[1]:
        M = scipy.linalg.solve_triangular(H, AQ.T, lower=True, check_finite=False).T
    else:
        # Pseudo-inverse route on the positive part: M = AQ * H (H^T H)^{-1}.
        gram = H.T @ H
        M = np.linalg.solve(gram, (AQ @ H).T).T
    mbasis = borth.mgs_w_reorth(M, B.inverse_view()).compact()
    UM, sig, _ = np.linalg.svd(mbasis.R)
    lam_all = sig**2
    kk = min(cfg.k, lam_all.size)
    U = mbasis.WQ @ UM[:, :kk]  # WQ = B^{-1} Q_M satisfies (B^{-1}Q_M)^T B (B^{-1}Q_M) = I
    diag = {
        "cholesky_fallback": bool(fallback),
        "dropped_dimensions": int(dropped),
        "reorth_b_solves": int(mbasis.n_reorth_applies),
    }
    return U, lam_all[:kk], lam_all, diag


def ghep_two_pass(
    A: LinearMap,
    B: SpdOperator,
    cfg: SketchConfig,
    order: str = "value",
) -> GhepSolution:
    """Two-pass solver: T = Q^T A Q from a second round of A-applies.

    Costs 2(k+p) A-applies, (k+p) B-applies and (k+p) B-solves (no
    re-orthogonalization).  T is symmetrized before the dense eigensolve;
    the top k of the k+p computed modes are kept.
    """
    return _solve("two_pass", _project_two_pass, A, B, cfg, order)


def ghep_single_pass(
    A: LinearMap,
    B: SpdOperator,
    cfg: SketchConfig,
    order: str = "value",
) -> GhepSolution:
    """Single-pass solver: T ~ (Omega^T B Q)^{-1} (Omega^T Ybar) (Q^T B Omega)^{-1}.

    Reuses Ybar = A*Omega so only (k+p) A-applies are spent, with (k+p)
    B-applies and (k+p) B-solves; F = Q^T B Omega comes from the cached BQ at
    O((k+p)^3) extra flops.  Reports sigma_min(F) and sigma_max(Omega) so the
    two-pass/single-pass eigenvalue gap bound can be evaluated.
    """
    return _solve("single_pass", _project_single_pass, A, B, cfg, order)


def ghep_nystrom(
    A: LinearMap,
    B: SpdOperator,
    cfg: SketchConfig,
    order: str = "value",
) -> GhepSolution:
    """Nystrom solver: A ~ (AQ)(Q^T A Q)^{-1}(AQ)^T, re-expressed as (BU) Lambda (BU)^T.

    Factorizes T = L L^T, forms M = A Q L^{-T}, B^{-1}-orthonormalizes M
    (yielding the companion Qhat with Qhat^T B Qhat = I), and squares the
    singular values of the small R factor.  One implicit power-iteration step
    over the two-pass solver, at the price of a second round of B-solves:
    2(k+p) A-applies, (k+p) B-applies, 2(k+p) B-solves.  The eigenvalues are
    squares, so ``order`` does not change their order.
    """
    return _solve("nystrom", _project_nystrom, A, B, cfg, order)


_METHODS = {
    "two_pass": ghep_two_pass,
    "single_pass": ghep_single_pass,
    "nystrom": ghep_nystrom,
}

#: The CLI's ``--method`` choices: the solver names with "-" for "_".
METHOD_CHOICES = [name.replace("_", "-") for name in _METHODS]


def solver_method(name: str):
    """The solver for a method name, given with "_" or "-" ("two-pass" or "two_pass")."""
    key = name.lower().replace("-", "_")
    try:
        return _METHODS[key]
    except KeyError:
        raise ConfigError(f"unknown method {name!r}; choose from {sorted(_METHODS)}")


def low_rank_apply(sol: GhepSolution, B: SpdOperator, X) -> np.ndarray:
    """Apply the decomposition (BU) Lambda (BU)^T to a block.

    Two B-applies plus small dense products; never forms the n-by-n matrix.
    """
    Xb = np.asarray(X, dtype=float)
    vec = Xb.ndim == 1
    if vec:
        Xb = Xb[:, None]
    if Xb.shape[0] != sol.U.shape[0]:
        raise ConfigError("block dimension does not match the solution")
    BX = B.apply(Xb)
    Z = sol.eigenvalues[:, None] * (sol.U.T @ BX)
    out = B.apply(sol.U @ Z)
    return out[:, 0] if vec else out
