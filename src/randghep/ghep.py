"""Randomized solvers for A x = lambda B x: two-pass, single-pass, and Nystrom.

The three solvers are one skeleton plus a per-method projection.  They touch
the pencil only through A.apply, B.apply and B.apply_inverse, so the
operators' counters see every product.  The skeleton validates the pencil,
probes A for symmetry, runs the B-weighted range finder (Y = B^{-1} A Omega,
then Q with Q^T B Q = I), compacts the basis and assembles the diagnostics
and the matvec accounting split by operator.  The projection forms the
method's small problem and takes its rank decision and its solve from one
decomposition (single-pass: an SVD of F = Q^T B Omega; Nystrom: an
eigendecomposition of Q^T A Q).  All three return B-orthonormal
eigenvectors (U^T B U = I) with the low-rank form A ~ (BU) Lambda (BU)^T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import borth
from .operators import ConfigError, IllConditionedError, LinearMap, NumericalError, SpdOperator
from .sketch import SketchConfig, derive_seed, gaussian_matrix, range_finder_b


@dataclass
class GhepSolution:
    """Approximate dominant eigenpairs of a pencil (A, B).

    ``eigenvalues`` has at most k entries, sorted descending; ``counts`` holds the
    A-applies, B-applies and B-solves the solve consumed after its symmetry
    probe (the probe's A-applies are excluded and reported as
    ``diagnostics["symmetry_probe_applies"]``).  The range finder's block QR
    makes no re-orthogonalization applies, so ``diagnostics["reorth_b_applies"]``
    is 0.  It applies B to the kept basis columns only, and the projections'
    second-round applies run on those columns too, so a rank-deficient
    sketch of ``diagnostics["effective_rank"]`` r' < k + p columns costs r'
    B-applies and r' second-round A-applies (or B-solves) in place of k + p.
    Nystrom's second QR (MGS-R in the B^{-1}-inner product) solves with B
    one column at a time: one B-solve per column of M (per kept
    eigenvalue of Q^T A Q), plus ``diagnostics["reorth_b_solves"]`` for its
    re-orthogonalization sweeps, all of which ``counts`` includes.
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


_SYMMETRY_PROBES = 3
_TINY = np.finfo(float).tiny  # the smallest normal double


def _check_symmetry(A: LinearMap, seed: int) -> None:
    """Probe |x^T A y - y^T A x| on a few random pairs (2 _SYMMETRY_PROBES A-applies).

    The probe vectors come from their own seed stream, so the sketch drawn
    from ``seed`` afterwards is the one drawn without the probe.
    """
    probes = gaussian_matrix(A.dim_in, 2 * _SYMMETRY_PROBES, derive_seed(seed, 0x51A))
    X, Ynd = probes[:, :_SYMMETRY_PROBES], probes[:, _SYMMETRY_PROBES:]
    AX = A.apply(X)
    AY = A.apply(Ynd)
    for j in range(_SYMMETRY_PROBES):
        if _probe_fails(X[:, j], Ynd[:, j], AX[:, j], AY[:, j]):
            raise ConfigError("A failed the symmetry probe; eigensolvers need symmetric A")


def _probe_fails(x: np.ndarray, y: np.ndarray, ax: np.ndarray, ay: np.ndarray) -> bool:
    """|x^T Ay - y^T Ax| > 1e-8 (|x^T Ay| + |y^T Ax| + ||Ax|| ||y||).

    The test is homogeneous in A.  So when a dot or ||Ax||^2 leaves the
    normal range (Ax above ~1e154 or below ~1e-154), it is taken again on
    Ax and Ay scaled by the power of two just above their largest entry, as
    ``borth._largest_column_norm`` scales: exact, and no extra pass in the
    normal range.
    """
    with np.errstate(over="ignore", under="ignore"):
        lhs, rhs, ax2 = x @ ay, y @ ax, ax @ ax
        if not (math.isfinite(lhs) and math.isfinite(rhs) and _TINY <= ax2 < math.inf):
            e = math.frexp(max(ax.max(), -ax.min(), ay.max(), -ay.min()))[1]
            ax, ay = np.ldexp(ax, -e), np.ldexp(ay, -e)
            lhs, rhs, ax2 = x @ ay, y @ ax, ax @ ax
    scale = abs(lhs) + abs(rhs) + math.sqrt(ax2) * np.linalg.norm(y)
    return abs(lhs - rhs) > 1e-8 * max(scale, 1e-300)


def ritz(T: np.ndarray, Q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rayleigh-Ritz step on a projected matrix T = Q^T A Q (or an estimate of it).

    Symmetrizes T, eigendecomposes it, stable-sorts the eigenvalues
    descending by value (an indefinite A's negative eigenvalues come last),
    keeps the top k and lifts their eigenvectors by Q.  Returns (U,
    eigenvalues, all eigenvalues in that order).
    """
    T = (T + T.T) / 2.0
    lam, S = np.linalg.eigh(T)
    idx = np.argsort(-lam, kind="stable")
    lam, S = lam[idx], S[:, idx]
    kk = min(k, lam.size)
    return Q @ S[:, :kk], lam[:kk], lam


def _solve(method: str, project, A: LinearMap, B: SpdOperator, cfg: SketchConfig,
           reads_sketch: bool = False) -> GhepSolution:
    """The skeleton of the three solvers: validate, probe, range finder, projection.

    ``project(A, B, cfg, rng, basis)`` solves the method's small projected
    problem on the compacted basis and returns (U, eigenvalues sorted
    descending by value, all projected eigenvalues, method diagnostics).
    The dimension and sketch checks come before the symmetry probe, so a
    rejected pencil spends no A-applies; ``counts`` starts after the probe.

    Memory: the range finder factors B^{-1} A Omega in place, and only a
    projection that ``reads_sketch`` (single-pass) is handed the range
    result with Omega and Ybar; the others get ``rng`` None, so both blocks
    are freed after the QR.  Single-pass takes them off the result and
    frees them before it lifts U, and Nystrom factors M in place of AQ.  A
    matrix-free KLE solve holds at most five n x (k+p) blocks at once
    (``tests/test_kle.py::TestSolveMemory``).
    """
    if A.dim_in != B.dim or A.dim_out != B.dim:
        raise ConfigError("A and B dimensions do not agree")
    if cfg.r > B.dim:
        raise ConfigError(f"sketch size k+p={cfg.r} exceeds n={B.dim}")
    before_probe = A.matvec_count
    _check_symmetry(A, cfg.seed)
    a0, b0, s0 = A.matvec_count, B.matvec_count, B.solve_count
    rng = range_finder_b(A, B, cfg)
    basis = rng.basis.compact()
    if not reads_sketch:
        rng = None
    U, lam, lam_all, method_diag = project(A, B, cfg, rng, basis)
    counts = {
        "a_applies": A.matvec_count - a0,
        "b_applies": B.matvec_count - b0,
        "b_solves": B.solve_count - s0,
    }
    diag = {
        "effective_rank": int(basis.n_kept),
        "reorth_b_applies": int(basis.n_reorth_applies),
        "symmetry_probe_applies": a0 - before_probe,
        "projected_eigenvalues_full": [float(v) for v in np.sort(lam_all)[::-1]],
        **method_diag,
    }
    return GhepSolution(U, lam, method, counts, cfg.seed, cfg.k, cfg.p, diag, basis)


def _project_two_pass(A, B, cfg, rng, basis):
    Q = basis.Q
    return (*ritz(Q.T @ A.apply(Q), Q, cfg.k), {})


def _project_single_pass(A, B, cfg, rng, basis):
    # the range result lets go of the sketch, so that it is freed before U is lifted
    Omega, Ybar = rng.Omega, rng.Ybar
    rng.Omega = rng.Ybar = None
    F = basis.WQ.T @ Omega  # Q^T B Omega, no extra B-applies
    W, fvals, Zt = np.linalg.svd(F, full_matrices=False)
    if not fvals.size or fvals[-1] <= 1e-10 * fvals[0]:  # an empty F: no column kept
        raise IllConditionedError(
            "F = Q^T B Omega is numerically singular (sigma_min/sigma_max <= 1e-10); "
            "use the two-pass solver"
        )
    OtY = Omega.T @ Ybar
    diag = {
        "sigma_min_F": float(fvals[-1]),
        # squaring is safe for the largest singular value (see errors._norm2)
        "sigma_max_omega": float(np.sqrt(np.linalg.eigvalsh(Omega.T @ Omega)[-1])),
    }
    del Omega, Ybar
    # T = F^{+T} (Omega^T Ybar) F^+ with F^+ = Z Sigma^{-1} W^T
    WS = W / fvals
    T = WS @ (Zt @ OtY @ Zt.T) @ WS.T
    return (*ritz(T, basis.Q, cfg.k), diag)


def _project_nystrom(A, B, cfg, rng, basis):
    Q = basis.Q
    AQ = A.apply(Q)
    T = Q.T @ AQ
    theta, V = np.linalg.eigh((T + T.T) / 2.0)
    # keep the positive part above the relative tolerance, largest first
    keep = np.flatnonzero(theta > 1e-12 * max(np.trace(T), 0.0) / cfg.r)[::-1]
    if keep.size == 0:
        raise NumericalError("projected matrix Q^T A Q has no positive part; Nystrom needs A PSD on range(Q)")
    M = AQ @ (V[:, keep] / np.sqrt(theta[keep]))  # A ~ M M^T
    # AQ is read no more: its leading columns take a copy of M, F-ordered, the
    # layout in which MGS factors its operand in place
    Y = AQ[:, : keep.size]
    Y[...] = M
    del AQ, M
    mbasis = borth.mgs_w_reorth(Y, B.inverse_view(), overwrite_y=True).compact()
    diag = {
        "dropped_dimensions": int(theta.size - keep.size),
        "reorth_b_solves": int(mbasis.n_reorth_applies),
    }
    # only B^{-1} Q_M and R are read from here on: Q_M is freed before U is lifted
    WQ, R = mbasis.WQ, mbasis.R
    del Y, mbasis
    UM, sig, _ = np.linalg.svd(R)
    lam_all = sig**2
    kk = min(cfg.k, lam_all.size)
    U = WQ @ UM[:, :kk]  # WQ = B^{-1} Q_M satisfies (B^{-1}Q_M)^T B (B^{-1}Q_M) = I
    return U, lam_all[:kk], lam_all, diag


def ghep_two_pass(A: LinearMap, B: SpdOperator, cfg: SketchConfig) -> GhepSolution:
    """Two-pass solver: T = Q^T A Q from a second round of A-applies.

    Costs 2(k+p) A-applies, (k+p) B-applies and (k+p) B-solves (no
    re-orthogonalization); after a rank-deficient sketch the B-applies and
    the second round of A-applies run on the kept columns only.  T is
    symmetrized before the dense eigensolve; the top k of the k+p computed
    modes are kept.
    """
    return _solve("two_pass", _project_two_pass, A, B, cfg)


def ghep_single_pass(A: LinearMap, B: SpdOperator, cfg: SketchConfig) -> GhepSolution:
    """Single-pass solver: T ~ (Omega^T B Q)^+ (Omega^T Ybar) (Q^T B Omega)^+.

    Reuses Ybar = A*Omega so only (k+p) A-applies are spent, with (k+p)
    B-applies (one per kept basis column) and (k+p) B-solves; F = Q^T B Omega
    comes from the cached BQ at O((k+p)^3) extra flops.  One SVD of F gives
    the conditioning check and F^+, square or wide.  Reports sigma_min(F) and sigma_max(Omega), the
    latter as sqrt(lambda_max(Omega^T Omega)), so the two-pass/single-pass
    eigenvalue gap bound can be evaluated.
    """
    return _solve("single_pass", _project_single_pass, A, B, cfg, reads_sketch=True)


def ghep_nystrom(A: LinearMap, B: SpdOperator, cfg: SketchConfig) -> GhepSolution:
    """Nystrom solver: A ~ (AQ)(Q^T A Q)^+(AQ)^T, re-expressed as (BU) Lambda (BU)^T.

    Eigendecomposes T = Q^T A Q = V diag(theta) V^T, keeps the theta above
    1e-12 trace(T)/(k+p) (``dropped_dimensions`` counts the rest), forms
    M = A Q V+ theta+^{-1/2}, B^{-1}-orthonormalizes M by MGS-R
    (``borth.mgs_w_reorth``: contiguous columns, in-place BLAS-1
    projections, one single-column B-solve per column and per extra sweep;
    M is copied into AQ's storage and factored there),
    yielding the companion Qhat with Qhat^T B Qhat = I, and squares the
    singular values of the small R factor.  One implicit power-iteration step
    over the two-pass solver, at the price of a second round of B-solves:
    2(k+p) A-applies, (k+p) B-applies, 2(k+p) B-solves, less one B-solve per
    dropped theta; after a rank-deficient sketch the B-applies and the
    second round of A-applies and B-solves run on the kept columns only.
    The eigenvalues are squared singular values, sorted descending.
    """
    return _solve("nystrom", _project_nystrom, A, B, cfg)


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

