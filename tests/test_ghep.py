"""The three randomized GHEP solvers and their accounting."""

import numpy as np
import pytest

import randghep as rg
from randghep import errors, sketch
from randghep.operators import ConfigError, IllConditionedError, NumericalError
from randghep.sketch import SketchConfig

from conftest import exact_rank_pencil, make_kle_pencil, random_spd, rel_eig_error

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
    G = sol.U.T @ (pencil.dense_b @ sol.U)
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


def test_single_pass_reduces_to_plain_single_pass_at_b_identity():
    rng = np.random.default_rng(2)
    d = np.concatenate([[6.0, 3.0, 2.0], 0.5 * np.geomspace(1, 1e-3, 17)])
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    Ad = (Q * d) @ Q.T
    cfg = SketchConfig(k=4, p=3, seed=7)
    sol = rg.ghep_single_pass(rg.dense_operator(Ad), rg.dense_spd(np.eye(20)), cfg)
    _, lam_plain = sketch.randomized_evd(rg.dense_operator(Ad), cfg, mode="single_pass")
    np.testing.assert_allclose(sol.eigenvalues, lam_plain, rtol=1e-9, atol=1e-10)


def test_single_pass_reports_conditioning():
    pencil = make_kle_pencil(1.5)
    sol = rg.ghep_single_pass(pencil.A, pencil.B, SketchConfig(k=10, p=5, seed=5))
    assert sol.diagnostics["sigma_min_F"] > 0.0
    assert sol.diagnostics["sigma_max_omega"] > 0.0
    assert len(sol.diagnostics["projected_eigenvalues_full"]) == 15


def test_single_pass_ill_conditioned_sketch_raises(monkeypatch):
    # near-duplicate sketch columns make F = Q^T B Omega numerically singular
    pencil = make_kle_pencil(0.5)
    real_gaussian = sketch.gaussian_matrix

    def doctored(n, r, seed, first_col=0):
        Om = real_gaussian(n, r, seed, first_col)
        if r > 2:
            Om[:, 1] = Om[:, 0] + 1e-14 * Om[:, 2]
        return Om

    # the symmetry probe and the range finder both draw through sketch
    monkeypatch.setattr("randghep.sketch.gaussian_matrix", doctored)
    with pytest.raises(IllConditionedError):
        rg.ghep_single_pass(pencil.A, pencil.B, SketchConfig(k=4, p=2, seed=3))


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
    Ad, Bd = pencil.dense_a, pencil.dense_b
    Q = sol.basis.Q
    C = np.linalg.solve(Bd, Ad)
    P = Q @ (Q.T @ Bd)
    one_sided = errors.b_norm(C - P @ C, Bd)
    sandwich = errors.b_norm(C - P @ C @ P, Bd)
    assert sandwich <= 2.0 * one_sided + 1e-10
    assert abs(one_sided - errors.range_error_exact(Ad, Bd, Q)) <= 1e-12


def test_eigenvalues_stay_in_perturbed_hull():
    pencil = make_kle_pencil(0.5)
    ref = errors.dense_ghep_oracle(pencil.dense_a, pencil.dense_b)
    for solver in SOLVERS:
        sol = solver(pencil.A, pencil.B, SketchConfig(k=10, p=5, seed=2))
        eps = errors.range_error_exact(pencil.dense_a, pencil.dense_b, sol.basis.Q)
        lo, hi = ref.lambdas[-1] - 2 * eps, ref.lambdas[0] + 2 * eps
        assert np.all(sol.eigenvalues >= lo - 1e-12)
        assert np.all(sol.eigenvalues <= hi + 1e-12)


def test_nystrom_nonnegative_and_fallback():
    # a small negative eigenvalue breaks the plain Cholesky; the pivoted
    # fallback drops that direction and keeps the positive part accurate
    lams = np.array([10.0, 5.0, -1e-8])
    Ad, Bd, _ = exact_rank_pencil(36, lams, b_kappa=10.0, seed=9)
    sol = rg.ghep_nystrom(rg.dense_operator(Ad), rg.dense_spd(Bd), SketchConfig(k=3, p=3, seed=4))
    assert np.all(sol.eigenvalues >= -1e-12)
    assert sol.diagnostics["cholesky_fallback"]
    assert sol.diagnostics["dropped_dimensions"] >= 1
    assert np.abs(sol.eigenvalues[:2] - [10.0, 5.0]).max() <= 1e-6


def test_nonsymmetric_a_rejected():
    rng = np.random.default_rng(6)
    Ad = rng.standard_normal((15, 15))
    with pytest.raises(ConfigError):
        rg.ghep_two_pass(rg.dense_operator(Ad), rg.dense_spd(np.eye(15)), SketchConfig(k=2, p=2, seed=1))


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


class TestLowRankApply:
    def _solution(self):
        lams = np.array([10.0, 5.0, 1.0])
        Ad, Bd, _ = exact_rank_pencil(30, lams, b_kappa=20.0, seed=13)
        B = rg.dense_spd(Bd)
        sol = rg.ghep_two_pass(rg.dense_operator(Ad), B, SketchConfig(k=3, p=4, seed=2))
        return sol, B, Ad, Bd

    def test_on_eigenvectors(self):
        sol, B, _, Bd = self._solution()
        out = rg.low_rank_apply(sol, B, sol.U)
        expect = (Bd @ sol.U) * sol.eigenvalues
        np.testing.assert_allclose(out, expect, rtol=1e-9, atol=1e-10)

    def test_matches_operator_on_exact_rank(self):
        sol, B, Ad, _ = self._solution()
        rng = np.random.default_rng(3)
        x = rng.standard_normal(30)
        lhs = rg.low_rank_apply(sol, B, x)
        rhs = Ad @ x
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_zero_block(self):
        sol, B, _, _ = self._solution()
        out = rg.low_rank_apply(sol, B, np.zeros((30, 2)))
        assert np.all(out == 0.0)


def test_report_dict_schema():
    pencil = make_kle_pencil(0.5)
    sol = rg.ghep_nystrom(pencil.A, pencil.B, SketchConfig(k=5, p=3, seed=1))
    rep = sol.report_dict()
    assert set(rep) == {"method", "k", "p", "seed", "eigenvalues", "counts", "diagnostics"}
    assert rep["counts"] == {"a_applies": 16, "b_applies": 8 + sol.diagnostics["reorth_b_applies"],
                             "b_solves": 16 + sol.diagnostics["reorth_b_solves"]}
    import json

    json.dumps(rep)  # must be serializable
