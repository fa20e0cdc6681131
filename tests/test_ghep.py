"""The three randomized GHEP solvers and their accounting."""

import numpy as np
import pytest
import scipy.sparse

import randghep as rg
from randghep import borth, errors, ghep, sketch
from randghep.operators import ConfigError, IllConditionedError, NumericalError
from randghep.sketch import SketchConfig

from conftest import exact_rank_pencil, make_kle_mass, make_kle_pencil, random_spd, rel_eig_error

SOLVERS = [rg.ghep_two_pass, rg.ghep_single_pass, rg.ghep_nystrom]


def test_a_equals_b_gives_unit_spectrum():
    Bd = random_spd(20, 50.0, seed=3)
    sol = rg.ghep_two_pass(
        rg.dense_operator(Bd), rg.dense_spd(Bd), SketchConfig(k=3, p=4, seed=8)
    )
    np.testing.assert_allclose(sol.eigenvalues, np.ones(3), atol=1e-12)
    BU = Bd @ sol.U
    np.testing.assert_allclose(sol.U.T @ BU, np.eye(3), atol=1e-10)


@pytest.mark.parametrize("solver", SOLVERS)
def test_exact_rank_recovery(solver):
    lams = np.array([10.0, 5.0, 1.0])
    Ad, Bd, _ = exact_rank_pencil(40, lams, b_kappa=100.0, seed=5)
    sol = solver(rg.dense_operator(Ad), rg.dense_spd(Bd), SketchConfig(k=3, p=4, seed=17))
    tol = 1e-8 if solver is rg.ghep_single_pass else 1e-10
    assert np.abs(sol.eigenvalues - lams).max() <= tol * lams.max()
    assert np.linalg.norm(sol.U.T @ (Bd @ sol.U) - np.eye(3), 2) <= 1e-10


@pytest.mark.parametrize("solver", SOLVERS)
def test_b_orthonormality_and_sorting(solver):
    pencil = make_kle_pencil(1.5)
    sol = solver(pencil.A, pencil.B, SketchConfig(k=12, p=5, seed=3))
    assert np.all(np.diff(sol.eigenvalues) <= 0.0)
    G = sol.U.T @ (make_kle_mass() @ sol.U)
    assert np.linalg.norm(G - np.eye(sol.eigenvalues.size), 2) <= 1e-10


@pytest.mark.parametrize("solver", SOLVERS)
def test_seed_determinism(solver):
    pencil1 = make_kle_pencil(0.5)
    pencil2 = make_kle_pencil(0.5)
    s1 = solver(pencil1.A, pencil1.B, SketchConfig(k=6, p=3, seed=44))
    s2 = solver(pencil2.A, pencil2.B, SketchConfig(k=6, p=3, seed=44))
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.U, s2.U)
    assert s1.counts == s2.counts


def test_two_pass_beats_single_pass_per_seed(kle_oracle):
    # paired seeds on the rough kernel at a deep truncation
    pencil = make_kle_pencil(0.5)
    ref = kle_oracle(0.5)
    k, trials = 80, 25
    tp_wins = ny_wins = 0
    for seed in range(trials):
        cfg = SketchConfig(k=k, p=5, seed=seed)
        e_tp = rel_eig_error(rg.ghep_two_pass(pencil.A, pencil.B, cfg).eigenvalues, ref.lambdas)
        e_sp = rel_eig_error(rg.ghep_single_pass(pencil.A, pencil.B, cfg).eigenvalues, ref.lambdas)
        e_ny = rel_eig_error(rg.ghep_nystrom(pencil.A, pencil.B, cfg).eigenvalues, ref.lambdas)
        tp_wins += e_tp <= e_sp
        ny_wins += e_ny <= e_tp
    assert tp_wins >= 0.8 * trials
    assert ny_wins >= 0.7 * trials


@pytest.mark.parametrize("mode", ["two_pass", "single_pass"])
def test_solver_reduces_to_randomized_evd_at_b_identity(mode):
    rng = np.random.default_rng(2)
    d = np.concatenate([[6.0, 3.0, 2.0], 0.5 * np.geomspace(1, 1e-3, 17)])
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    Ad = (Q * d) @ Q.T
    cfg = SketchConfig(k=4, p=3, seed=7)
    solve = ghep.solver_method(mode)
    sol = solve(rg.dense_operator(Ad), rg.dense_spd(np.eye(20)), cfg)
    plain = solve(rg.dense_operator(Ad), sketch._identity(20), cfg)
    U_plain, lam_plain = plain.U, plain.eigenvalues
    np.testing.assert_allclose(sol.eigenvalues, lam_plain, rtol=1e-9, atol=1e-10)
    # a caller's own identity operator gives the same bits
    eye = rg.SpdOperator(20, lambda X: X, lambda X: X)
    exact = solve(rg.dense_operator(Ad), eye, cfg)
    np.testing.assert_array_equal(U_plain, exact.U)
    np.testing.assert_array_equal(lam_plain, exact.eigenvalues)


@pytest.mark.parametrize("mode", ["two_pass", "single_pass"])
def test_randomized_evd_keeps_one_eigenvalue_per_kept_column(mode):
    # rank 2 with k + p = 6: the zero-range columns of the sketch are dropped
    A = rg.dense_operator(np.diag([4.0, 2.0] + [0.0] * 8))
    sol = ghep.solver_method(mode)(A, sketch._identity(10), SketchConfig(k=3, p=3, seed=5))
    U, lam = sol.U, sol.eigenvalues
    assert lam.shape == (2,) and U.shape == (10, 2)
    np.testing.assert_allclose(lam, [4.0, 2.0], rtol=1e-12)


def test_single_pass_reports_conditioning():
    pencil = make_kle_pencil(1.5)
    sol = rg.ghep_single_pass(pencil.A, pencil.B, SketchConfig(k=10, p=5, seed=5))
    assert sol.diagnostics["sigma_min_F"] > 0.0
    assert sol.diagnostics["sigma_max_omega"] > 0.0
    assert len(sol.diagnostics["projected_eigenvalues_full"]) == 15


def test_single_pass_ill_conditioned_sketch_raises(monkeypatch):
    # near-duplicate sketch columns make F = Q^T B Omega numerically singular;
    # at 1e-11 the weighted QR keeps the column (it would flag one at 1e-14),
    # so the sigma_min(F) guard is what raises
    pencil = make_kle_pencil(0.5)
    real_gaussian = sketch.gaussian_matrix

    def doctored(n, r, seed, first_col=0):
        Om = real_gaussian(n, r, seed, first_col)
        if r > 2:
            Om[:, 1] = Om[:, 0] + 1e-11 * Om[:, 2]
        return Om

    # the range finder draws its sketch through sketch.gaussian_matrix
    monkeypatch.setattr("randghep.sketch.gaussian_matrix", doctored)
    with pytest.raises(IllConditionedError, match="F = Q\\^T B Omega"):
        rg.ghep_single_pass(pencil.A, pencil.B, SketchConfig(k=4, p=2, seed=3))


@pytest.mark.parametrize("backend", [rg.dense_spd, lambda M: rg.sparse_spd(scipy.sparse.csr_matrix(M))])
def test_single_pass_keeping_no_column_raises(backend):
    # the range finder keeps no column of a zero A's sketch: single-pass calls
    # the empty F = Q^T B Omega singular, two-pass returns no eigenvalue and
    # Nystrom finds no positive part
    A, B = rg.dense_operator(np.zeros((4, 4))), backend(3.0 * np.eye(4))
    cfg = SketchConfig(k=1, p=1, seed=2)
    singular = "F = Q\\^T B Omega is numerically singular"
    with pytest.raises(IllConditionedError, match=singular):
        rg.ghep_single_pass(A, B, cfg)
    with pytest.raises(IllConditionedError, match=singular):
        rg.ghep_single_pass(A, sketch._identity(4), cfg)
    sol = rg.ghep_two_pass(A, B, cfg)
    assert sol.eigenvalues.size == 0 and sol.diagnostics["effective_rank"] == 0
    with pytest.raises(NumericalError, match="no positive part") as info:
        rg.ghep_nystrom(A, B, cfg)
    assert type(info.value) is NumericalError


@pytest.mark.parametrize("solver", SOLVERS)
def test_non_finite_b_solve_raises(solver):
    # a B-solve that returns NaN ends the solve with a typed error
    pencil = make_kle_pencil(1.5)
    bad_b = rg.SpdOperator(pencil.B.dim, pencil.B.apply, lambda X: np.full(X.shape, np.nan))
    with pytest.raises(NumericalError):
        solver(pencil.A, bad_b, SketchConfig(k=5, p=2, seed=1))


def test_two_pass_sandwich_bound():
    # symmetric projection error is at most twice the one-sided range error
    pencil = make_kle_pencil(1.5)
    sol = rg.ghep_two_pass(pencil.A, pencil.B, SketchConfig(k=15, p=5, seed=11))
    Ad, Bd = pencil.dense_a, make_kle_mass()
    Q = sol.basis.Q
    C = np.linalg.solve(Bd, Ad)
    P = Q @ (Q.T @ Bd)
    one_sided = errors.b_norm(C - P @ C, pencil.B)
    sandwich = errors.b_norm(C - P @ C @ P, pencil.B)
    assert sandwich <= 2.0 * one_sided + 1e-10
    assert abs(one_sided - errors.range_error_exact(Ad, pencil.B, Q)) <= 1e-12


def test_eigenvalues_stay_in_perturbed_hull():
    pencil = make_kle_pencil(0.5)
    ref = errors.dense_ghep_oracle(pencil.dense_a, pencil.B)
    for solver in SOLVERS:
        sol = solver(pencil.A, pencil.B, SketchConfig(k=10, p=5, seed=2))
        eps = errors.range_error_exact(pencil.dense_a, pencil.B, sol.basis.Q)
        lo, hi = ref.lambdas[-1] - 2 * eps, ref.lambdas[0] + 2 * eps
        assert np.all(sol.eigenvalues >= lo - 1e-12)
        assert np.all(sol.eigenvalues <= hi + 1e-12)


def test_nystrom_nonnegative_and_fallback():
    # a small negative eigenvalue of Q^T A Q falls below the positive-part
    # tolerance; Nystrom drops that direction and keeps the rest accurate
    lams = np.array([10.0, 5.0, -1e-8])
    Ad, Bd, _ = exact_rank_pencil(36, lams, b_kappa=10.0, seed=9)
    sol = rg.ghep_nystrom(rg.dense_operator(Ad), rg.dense_spd(Bd), SketchConfig(k=3, p=3, seed=4))
    assert np.all(sol.eigenvalues >= -1e-12)
    assert sol.diagnostics["dropped_dimensions"] >= 1
    assert np.abs(sol.eigenvalues[:2] - [10.0, 5.0]).max() <= 1e-6


def _exact_rank_case():
    Ad, Bd, _ = exact_rank_pencil(40, [10.0, 5.0, 1.0], b_kappa=100.0, seed=5)
    return rg.dense_operator(Ad), rg.dense_spd(Bd), SketchConfig(k=3, p=4, seed=17)


def _kle_case():
    pencil = make_kle_pencil(2.5, ell=0.5)
    return pencil.A, pencil.B, SketchConfig(k=20, p=5, seed=7)


@pytest.mark.parametrize("case", [_exact_rank_case, _kle_case])
def test_nystrom_second_qr_solves_one_column_at_a_time(case, monkeypatch):
    # the range finder makes one block B-solve; the second QR makes one
    # single-column B-solve per column of M (the kept basis columns less the
    # eigenvalues of Q^T A Q it dropped) and one per re-orthogonalization
    # sweep.  On both pencils the second QR keeps every column of M without
    # a sweep.
    A, inner, cfg = case()
    cols, bases = [], []
    factor = borth.mgs_w_reorth

    def solve(X):
        cols.append(X.shape[1])
        return inner.apply_inverse(X)

    def mgs_w_reorth(M, W, overwrite_y=False):
        bases.append(factor(M, W, overwrite_y=overwrite_y))
        return bases[-1]

    monkeypatch.setattr(borth, "mgs_w_reorth", mgs_w_reorth)
    sol = rg.ghep_nystrom(A, rg.SpdOperator(inner.dim, inner.apply, solve), cfg)
    d = sol.diagnostics
    m_cols = sol.basis.n_kept - d["dropped_dimensions"]
    [basis] = bases
    assert basis.rank_flags.tolist() == [True] * m_cols
    assert basis.n_reorth_applies == d["reorth_b_solves"] == 0
    assert cols == [cfg.r] + [1] * (m_cols + d["reorth_b_solves"])
    assert sol.counts["b_solves"] == cfg.r + m_cols + d["reorth_b_solves"]
    if m_cols == cfg.r:
        assert sol.counts["b_solves"] == 2 * cfg.r + d["reorth_b_solves"]


def test_nystrom_with_b_returning_its_input():
    # B = I served by an operator that returns its argument gives the
    # eigenvalues of a dense identity B to roundoff.  Had the second QR
    # updated the operator's output in place along with its input, it would
    # subtract every projection twice (1.0002, 0.505, 0.261, 0.142, ...)
    n = 200
    A = rg.dense_operator(np.diag(2.0 ** -np.arange(n)))
    cfg = SketchConfig(k=5, p=5, seed=3)
    aliasing = rg.ghep_nystrom(A, rg.SpdOperator(n, lambda X: X, lambda X: X), cfg)
    dense = rg.ghep_nystrom(A, rg.dense_spd(np.eye(n)), cfg)
    np.testing.assert_allclose(aliasing.eigenvalues, dense.eigenvalues, rtol=1e-13)
    np.testing.assert_allclose(aliasing.eigenvalues[:4], 2.0 ** -np.arange(4), rtol=1e-6)


def test_nonsymmetric_a_rejected():
    rng = np.random.default_rng(6)
    Ad = rng.standard_normal((15, 15))
    with pytest.raises(ConfigError):
        rg.ghep_two_pass(rg.dense_operator(Ad), rg.dense_spd(np.eye(15)), SketchConfig(k=2, p=2, seed=1))


@pytest.mark.parametrize("scale", [520, -520])
def test_symmetry_probe_at_extreme_scales(scale):
    # Ax passes ~1e154 (or falls below ~1e-154), where ||Ax||^2 leaves the
    # normal range: the probe still rejects an asymmetric A, and passes a
    # symmetric one without a RuntimeWarning (the suite makes warnings errors)
    G = np.random.default_rng(6).standard_normal((30, 30))
    cfg = SketchConfig(k=3, p=2, seed=1)
    with pytest.raises(ConfigError, match="symmetry"):
        rg.ghep_two_pass(rg.dense_operator(np.ldexp(G, scale)), sketch._identity(30), cfg)
    sym = rg.ghep_two_pass(rg.dense_operator(np.ldexp(G + G.T, scale)), sketch._identity(30), cfg)
    plain = rg.ghep_two_pass(rg.dense_operator(G + G.T), sketch._identity(30), cfg)
    np.testing.assert_allclose(np.ldexp(sym.eigenvalues, -scale), plain.eigenvalues, rtol=1e-13)


def test_oversized_sketch_rejected():
    # an oversized sketch and a mismatched pencil are rejected before the
    # symmetry probe, so they spend no A-applies
    for solver in SOLVERS:
        for n_a, n_b, cfg in [(5, 5, SketchConfig(k=4, p=2, seed=1)),
                              (6, 5, SketchConfig(k=2, p=1, seed=1))]:
            A = rg.dense_operator(np.eye(n_a))
            with pytest.raises(ConfigError):
                solver(A, rg.dense_spd(np.eye(n_b)), cfg)
            assert A.matvec_count == 0


def test_report_dict_schema():
    pencil = make_kle_pencil(0.5)
    sol = rg.ghep_nystrom(pencil.A, pencil.B, SketchConfig(k=5, p=3, seed=1))
    rep = sol.report_dict()
    assert set(rep) == {"method", "k", "p", "seed", "eigenvalues", "counts", "diagnostics"}
    assert rep["counts"] == {"a_applies": 16, "b_applies": 8 + sol.diagnostics["reorth_b_applies"],
                             "b_solves": 16 + sol.diagnostics["reorth_b_solves"]}
    import json

    json.dumps(rep)  # must be serializable
