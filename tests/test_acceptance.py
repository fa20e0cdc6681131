"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math

import numpy as np
import pytest

import randghep as rg
from randghep import borth, errors, kle
from randghep.sketch import SketchConfig, gaussian_matrix, range_finder_b

from conftest import exact_rank_pencil, make_kle_pencil, rel_eig_error

NUS = (0.5, 1.5, 2.5)

SOLVERS = {
    "two_pass": rg.ghep_two_pass,
    "single_pass": rg.ghep_single_pass,
    "nystrom": rg.ghep_nystrom,
}


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}  {label}  {detail}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_01_weighted_qr_quality():
    """QR quality table at n=201, ell=2, 100 sketch columns, all kernels."""
    ok = True
    details = []
    for nu in NUS:
        pencil = make_kle_pencil(nu)
        Omega = gaussian_matrix(201, 100, seed=101)
        Y = pencil.B.apply_inverse(pencil.A.apply(Omega))
        y_scale = np.linalg.norm(Y, 2)
        metrics = {}
        for name, alg in (("mgs", borth.mgs_w), ("mgs_r", borth.mgs_w_reorth),
                          ("precholqr", borth.pre_chol_qr_w)):
            metrics[name] = rg.qr_metrics(Y, alg(Y, pencil.B), pencil.B)
        ok &= all(metrics[name][0] <= 1e-13 * y_scale for name in metrics)
        ok &= metrics["mgs_r"][1] <= 1e-12
        ok &= metrics["precholqr"][1] <= 1e-12
        if nu == 2.5:
            ratio = metrics["mgs"][1] / metrics["mgs_r"][1]
            ok &= ratio >= 1e6
            details.append(f"mgs/mgs_r orthogonality gap at nu=2.5: {ratio:.1e}")
    _verdict(1, "weighted QR factorization quality", bool(ok), "; ".join(details))


def test_criterion_02_exact_rank_recovery():
    """All three solvers recover a rank-3 constructed pencil to 1e-10."""
    lams = np.array([10.0, 5.0, 1.0])
    worst_eig, worst_orth = 0.0, 0.0
    for b_seed, kappa in ((1, 10.0), (2, 1e2), (3, 1e4)):
        Ad, Bd, _ = exact_rank_pencil(50, lams, b_kappa=kappa, seed=b_seed)
        for seed in range(10):
            for name, solver in SOLVERS.items():
                sol = solver(rg.dense_operator(Ad), rg.dense_spd(Bd),
                             SketchConfig(k=3, p=4, seed=1000 + seed))
                worst_eig = max(worst_eig, float(np.abs(sol.eigenvalues - lams).max() / lams.max()))
                orth = np.linalg.norm(sol.U.T @ (Bd @ sol.U) - np.eye(3), 2)
                worst_orth = max(worst_orth, float(orth))
    ok = worst_eig <= 1e-10 and worst_orth <= 1e-10
    _verdict(2, "exact-rank recovery across solvers/seeds/weights", ok,
             f"worst rel eig err {worst_eig:.2e}, worst orth {worst_orth:.2e}")


def test_criterion_03_oracle_equivalence(kle_oracle):
    """Two-pass vs dense oracle on the smoothest kernel: <=1e-4 for >=23/25 seeds."""
    pencil = make_kle_pencil(2.5)
    ref = kle_oracle(2.5)
    hits = 0
    worst = 0.0
    for seed in range(25):
        sol = rg.ghep_two_pass(pencil.A, pencil.B, SketchConfig(k=20, p=5, seed=seed))
        err = rel_eig_error(sol.eigenvalues, ref.lambdas)
        worst = max(worst, err)
        hits += err <= 1e-4
    _verdict(3, "two-pass eigenvalues match the dense oracle", hits >= 23,
             f"{hits}/25 seeds within 1e-4 (worst {worst:.2e})")


def test_criterion_04_estimator_coverage(kle_oracle):
    """Randomized range-error estimate covers the exact error often enough."""
    pencil = make_kle_pencil(1.5)
    ref = kle_oracle(1.5)
    res = range_finder_b(pencil.A, pencil.B, SketchConfig(k=40, p=5, seed=7))
    f = errors.range_error_exact(pencil.dense_a, pencil.B, res.basis.Q)
    trials = 200
    hits = 0
    for t in range(trials):
        est = errors.posterior_estimate(pencil.A, pencil.B, res.basis, alpha=2.0,
                                        r_probes=5, seed=5000 + t, binv_norm=ref.binv_norm)
        hits += est.e >= f
    frac = hits / trials
    floor = 1.0 - 2.0**-5 - 0.05
    _verdict(4, "a-posteriori estimator coverage", frac >= floor,
             f"coverage {frac:.4f} vs floor {floor:.4f}")


def test_criterion_05_expected_error_bound(kle_oracle):
    """50-seed mean range error sits below the closed-form expectation bound."""
    pencil = make_kle_pencil(2.5)
    ref = kle_oracle(2.5)
    ok = True
    details = []
    for k in (20, 40, 60, 80):
        fs = []
        for seed in range(50):
            res = range_finder_b(pencil.A, pencil.B, SketchConfig(k=k, p=5, seed=seed))
            fs.append(ref.range_error(res.basis.Q))
        mean_f = float(np.mean(fs))
        bound = errors.apriori_bound(ref.sigmas_B, k, 5, ref.binv_norm)
        ok &= mean_f <= bound
        details.append(f"k={k}: mean {mean_f:.2e} <= bound {bound:.2e}")
    _verdict(5, "expected-error bound dominates the sample mean", bool(ok), "; ".join(details))


def test_criterion_06_eigenpair_bounds(kle_oracle):
    """Per-pair eigenvalue/angle bounds hold with the exact range error."""
    pencil = make_kle_pencil(2.5)
    ref = kle_oracle(2.5)
    sol = rg.ghep_two_pass(pencil.A, pencil.B, SketchConfig(k=20, p=5, seed=3))
    eps = errors.range_error_exact(pencil.dense_a, pencil.B, sol.basis.Q)
    ok = True
    worst_margin = 0.0
    for i, lam in enumerate(sol.eigenvalues):
        delta = float(np.min(np.abs(np.delete(ref.lambdas, i) - lam)))
        bounds = errors.eigenpair_bounds(eps, delta)
        lam_err = abs(float(lam) - float(ref.lambdas[i]))
        sine = errors.b_sine(ref.eigenvectors[:, i], sol.U[:, i], pencil.B)
        ok &= lam_err <= bounds.lambda_bound + 1e-15
        ok &= sine <= bounds.sine_bound + 1e-12
        if bounds.lambda_bound > 0:
            worst_margin = max(worst_margin, lam_err / bounds.lambda_bound)
    _verdict(6, "eigenpair perturbation bounds", bool(ok),
             f"eps {eps:.2e}, worst eig-bound usage {worst_margin:.2f}")


def test_criterion_07_single_pass_degradation(kle_oracle):
    """Single-pass projected eigenvalues stay within the conditioning bound."""
    ok = True
    details = []
    for nu in (1.5, 2.5):
        pencil = make_kle_pencil(nu)
        ref = kle_oracle(nu)
        worst_ratio = 0.0
        for seed in range(25):
            sol = rg.ghep_single_pass(pencil.A, pencil.B, SketchConfig(k=40, p=5, seed=seed))
            Q = sol.basis.Q
            eps = errors.range_error_exact(pencil.dense_a, pencil.B, Q)
            T = Q.T @ (pencil.dense_a @ Q)
            mu = np.sort(np.linalg.eigvalsh((T + T.T) / 2.0))[::-1]
            theta = np.asarray(sol.diagnostics["projected_eigenvalues_full"])
            gap = float(np.abs(mu - theta).max())
            bound = errors.single_pass_bound(eps, ref.kappa_B,
                                             sol.diagnostics["sigma_max_omega"],
                                             sol.diagnostics["sigma_min_F"])
            ok &= gap <= bound
            if bound > 0:
                worst_ratio = max(worst_ratio, gap / bound)
        details.append(f"nu={nu}: worst gap/bound {worst_ratio:.2e}")
    _verdict(7, "single-pass eigenvalue degradation bound", bool(ok), "; ".join(details))


def test_criterion_08_method_ordering(kle_oracle):
    """Median errors: nystrom <= two-pass <= single-pass; decreasing in nu."""
    k, p, trials = 55, 5, 25
    medians = {}
    for nu in NUS:
        pencil = make_kle_pencil(nu)
        ref = kle_oracle(nu)
        errs = {name: [] for name in SOLVERS}
        for seed in range(trials):
            for name, solver in SOLVERS.items():
                sol = solver(pencil.A, pencil.B, SketchConfig(k=k, p=p, seed=seed))
                errs[name].append(rel_eig_error(sol.eigenvalues, ref.lambdas))
        medians[nu] = {name: float(np.median(v)) for name, v in errs.items()}
    ok = all(
        medians[nu]["nystrom"] <= medians[nu]["two_pass"] <= medians[nu]["single_pass"]
        for nu in NUS
    )
    for name in SOLVERS:
        ok &= medians[2.5][name] <= medians[1.5][name] <= medians[0.5][name]
    detail = "; ".join(
        f"nu={nu}: ny {medians[nu]['nystrom']:.1e} <= tp {medians[nu]['two_pass']:.1e}"
        f" <= sp {medians[nu]['single_pass']:.1e}" for nu in NUS
    )
    _verdict(8, "method accuracy ordering", bool(ok), detail)


def test_criterion_09_oversampling_monotonicity(kle_oracle):
    """Mean two-pass error is nonincreasing in p (one <=5% inversion allowed)."""
    ps = (0, 2, 5, 10, 20)
    ok = True
    details = []
    for nu in NUS:
        pencil = make_kle_pencil(nu)
        ref = kle_oracle(nu)
        means = []
        for p in ps:
            errs = [
                rel_eig_error(
                    rg.ghep_two_pass(pencil.A, pencil.B, SketchConfig(k=20, p=p, seed=seed)).eigenvalues,
                    ref.lambdas,
                )
                for seed in range(50)
            ]
            means.append(float(np.mean(errs)))
        inversions = [means[i + 1] / means[i] for i in range(len(ps) - 1) if means[i + 1] > means[i]]
        ok &= len(inversions) <= 1 and all(r <= 1.05 for r in inversions)
        details.append(f"nu={nu}: means {['%.1e' % m for m in means]}")
    _verdict(9, "oversampling monotonicity", bool(ok), "; ".join(details))


def test_criterion_10_gsvd():
    """GSVD: exact-rank recovery, weighted orthogonality, stationary values."""
    from test_gsvd import stationary_form_problem

    Ad, Sd, Td, S0 = stationary_form_problem(m=40, n=32, r=3, seed=12)
    res = rg.randomized_gsvd(rg.dense_operator(Ad), rg.dense_spd(Sd), rg.dense_spd(Td),
                             SketchConfig(k=3, p=3, seed=21))
    sig_err = float(np.abs(res.sigma - S0).max() / S0.max())
    orth_u = float(np.linalg.norm(res.U.T @ (Sd @ res.U) - np.eye(3), 2))
    orth_v = float(np.linalg.norm(res.V.T @ (Td @ res.V) - np.eye(3), 2))
    stat_err = 0.0
    for i in range(3):
        v = res.V[:, i]
        Av = Ad @ v
        q = math.sqrt(Av @ (Sd @ Av)) / math.sqrt(v @ (Td @ v))
        stat_err = max(stat_err, abs(q - res.sigma[i]) / max(res.sigma[i], 1.0))
    ok = sig_err <= 1e-10 and orth_u <= 1e-10 and orth_v <= 1e-10 and stat_err <= 1e-8
    _verdict(10, "randomized GSVD on an exact-rank problem", ok,
             f"sigma err {sig_err:.1e}, orth ({orth_u:.1e}, {orth_v:.1e}), stationary {stat_err:.1e}")


def test_criterion_11_truncation_identity():
    """Per-term truncated-expansion inequality and the analytic total."""
    grid = kle.Grid1D(n=501)
    cfgk = kle.MaternConfig(nu=1.5, ell=0.4)
    pencil = kle.kle_pencil(grid, cfgk)
    ref = errors.dense_ghep_oracle(pencil.dense_a, pencil.B)
    sol = kle.kle_solve(grid, cfgk, k=80, p=5, seed=6)
    eps = errors.range_error_exact(pencil.dense_a, pencil.B, sol.solution.basis.Q)
    gaps = [float(np.min(np.abs(np.delete(ref.lambdas, i) - sol.eigenvalues[i])))
            for i in range(sol.K)]
    rep = kle.kle_truncation_check(ref, sol, eps, min(gaps))
    total_matches = rep.total_lhs == pytest.approx(float(np.sum(rep.lhs_terms)), rel=1e-15)
    ok = rep.per_term_bound_ok and total_matches
    _verdict(11, "truncated-expansion error decomposition", bool(ok),
             f"total lhs {rep.total_lhs:.2e}, eig sum {np.sum(rep.eig_terms):.2e}, "
             f"vec sum {np.sum(rep.vec_terms):.2e}")


def test_criterion_12_matvec_accounting():
    """Reported matvec counts hit the cost table exactly (no re-orth run)."""
    rng = np.random.default_rng(3)
    n, k, p = 80, 8, 4
    r = k + p
    G = rng.standard_normal((n, n))
    Bd = G @ G.T + n * np.eye(n)
    H = rng.standard_normal((n, n))
    Ad = H @ H.T + 0.5 * n * np.eye(n)  # SPD with mild decay: no re-orth, clean Cholesky
    expected = {
        "two_pass": {"a_applies": 2 * r, "b_applies": r, "b_solves": r},
        "single_pass": {"a_applies": r, "b_applies": r, "b_solves": r},
        "nystrom": {"a_applies": 2 * r, "b_applies": r, "b_solves": 2 * r},
    }
    ok = True
    details = []
    for name, solver in SOLVERS.items():
        sol = solver(rg.dense_operator(Ad), rg.dense_spd(Bd), SketchConfig(k=k, p=p, seed=2))
        reorth = sol.diagnostics["reorth_b_applies"] + sol.diagnostics.get("reorth_b_solves", 0)
        ok &= reorth == 0
        ok &= sol.counts == expected[name]
        details.append(f"{name}: {sol.counts}")
    _verdict(12, "matvec accounting matches the cost table", bool(ok), "; ".join(details))
