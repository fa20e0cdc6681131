"""CLI contracts: exit codes, file outputs, reproducibility."""

import argparse
import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import randghep as rg
from randghep.cli import _load_pencil, main


def _write_eye(path, n=5):
    rg.save_matrix_market(path, np.eye(n))
    return str(path)


def _read_report(outdir):
    return json.loads((outdir / "report.json").read_text())


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _child_env(env):
    """``env`` with randghep's source on PYTHONPATH and every warning an error,
    as the suite's own filterwarnings setting makes it in this process."""
    src = str(Path(rg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error"
    return env


def _run_cli(argv):
    """``randghep <argv>`` in a fresh interpreter, for exit codes that argparse
    sets and for inputs that could kill the interpreter."""
    env = _child_env(dict(os.environ))  # conftest has set RANDGHEP_THREADS
    return subprocess.run([sys.executable, "-m", "randghep.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


class TestSolve:
    def test_identity_pencil(self, tmp_path):
        eye = _write_eye(tmp_path / "eye.mtx")
        out = tmp_path / "run"
        code = main(["solve", "--A", eye, "--B", eye, "--k", "2", "--p", "2",
                     "--seed", "3", "--save-modes", "--out", str(out)])
        assert code == 0
        rep = _read_report(out)
        np.testing.assert_allclose(rep["eigenvalues"], [1.0, 1.0], atol=1e-12)
        rows = _read_csv(out / "spectrum.csv")
        assert [r["index"] for r in rows] == ["0", "1"]
        assert rg.load_matrix_market(out / "modes.mtx").shape == (5, 2)

    def test_oracle_columns_and_bounds(self, tmp_path):
        rng = np.random.default_rng(7)
        G = rng.standard_normal((12, 12))
        Bd = G @ G.T + 12 * np.eye(12)
        U0 = rng.standard_normal((12, 3))
        C = np.linalg.cholesky(U0.T @ (Bd @ U0))
        U0 = np.linalg.solve(C, U0.T).T
        BU = Bd @ U0
        Ad = (BU * np.array([9.0, 4.0, 1.0])) @ BU.T
        a_path = tmp_path / "a.mtx"
        b_path = tmp_path / "b.mtx"
        rg.save_matrix_market(a_path, Ad)
        rg.save_matrix_market(b_path, Bd)
        out = tmp_path / "run"
        code = main(["solve", "--A", str(a_path), "--B", str(b_path), "--k", "3",
                     "--p", "4", "--seed", "5", "--oracle", "--out", str(out)])
        assert code == 0
        rows = _read_csv(out / "spectrum.csv")
        assert all(float(r["abs_err"]) <= 1e-10 for r in rows)
        assert all(r["lambda_bound_ok"] == "True" for r in rows)
        assert all(r["sine_bound_ok"] == "True" for r in rows)

    @pytest.mark.parametrize("method", ["two-pass", "nystrom", "single-pass"])
    def test_oracle_column_is_the_dense_eigensolve(self, tmp_path, method):
        grid = rg.Grid1D(a=-1.0, b=1.0, n=101)
        pencil = rg.kle_pencil(grid, rg.MaternConfig(nu=1.5, ell=0.5))
        a_path, b_path = tmp_path / "a.mtx", tmp_path / "b.mtx"
        rg.save_matrix_market(a_path, pencil.dense_a)
        rg.save_matrix_market(b_path, pencil.dense_b)
        out = tmp_path / "run"
        code = main(["solve", "--A", str(a_path), "--B", str(b_path), "--k", "10", "--p", "5",
                     "--method", method, "--seed", "2", "--oracle", "--out", str(out)])
        assert code == 0
        rows = _read_csv(out / "spectrum.csv")
        lam = scipy.linalg.eigh(rg.load_matrix_market(a_path), rg.load_matrix_market(b_path))[0][::-1]
        assert [float(r["lambda_oracle"]) for r in rows] == list(lam[: len(rows)])
        rep = _read_report(out)
        if method == "single-pass":
            assert rep["bound_flags"] == "not applicable: single-pass T is not a Rayleigh quotient"
            assert all(r["lambda_bound_ok"] == "" and r["sine_bound_ok"] == "" for r in rows)
        else:
            assert "bound_flags" not in rep
            assert all(r["lambda_bound_ok"] == "True" for r in rows)
            assert all(r["sine_bound_ok"] == "True" for r in rows)

    def test_oracle_factors_b_once(self, tmp_path, monkeypatch):
        from randghep import errors

        grid = rg.Grid1D(a=-1.0, b=1.0, n=61)
        pencil = rg.kle_pencil(grid, rg.MaternConfig(nu=1.5, ell=0.5))
        a_path, b_path = tmp_path / "a.mtx", tmp_path / "b.mtx"
        rg.save_matrix_market(a_path, pencil.dense_a)
        rg.save_matrix_market(b_path, pencil.dense_b)
        calls = []
        cholesky = errors._cholesky
        monkeypatch.setattr(errors, "_cholesky", lambda B: calls.append(B.shape) or cholesky(B))
        code = main(["solve", "--A", str(a_path), "--B", str(b_path), "--k", "8", "--p", "4",
                     "--seed", "6", "--oracle", "--out", str(tmp_path / "run")])
        assert code == 0
        assert calls == [(61, 61)]
        assert _read_report(tmp_path / "run")["range_error_exact"] > 0.0

    def test_methods_differ_only_in_reported_fields(self, tmp_path):
        eye = _write_eye(tmp_path / "eye.mtx", 8)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["solve", "--A", eye, "--B", eye, "--k", "2", "--p", "2", "--seed", "9",
              "--method", "two-pass", "--out", str(out1)])
        main(["solve", "--A", eye, "--B", eye, "--k", "2", "--p", "2", "--seed", "9",
              "--method", "single-pass", "--out", str(out2)])
        r1, r2 = _read_report(out1), _read_report(out2)
        assert r1["method"] == "two_pass" and r2["method"] == "single_pass"
        assert r1["seed"] == r2["seed"]
        assert r1["counts"]["a_applies"] == 2 * r2["counts"]["a_applies"]

    def test_bitwise_reproducibility(self, tmp_path):
        eye = _write_eye(tmp_path / "eye.mtx", 9)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            main(["solve", "--A", eye, "--B", eye, "--k", "3", "--p", "2",
                  "--seed", "7", "--out", str(out)])
        r1, r2 = _read_report(out1), _read_report(out2)
        r1.pop("wall_time_s"), r2.pop("wall_time_s")
        assert r1 == r2
        assert (out1 / "spectrum.csv").read_text() == (out2 / "spectrum.csv").read_text()

    def test_exit_2_on_bad_config(self, tmp_path):
        eye = _write_eye(tmp_path / "eye.mtx", 4)
        # sketch larger than the matrix
        assert main(["solve", "--A", eye, "--B", eye, "--k", "4", "--p", "4",
                     "--out", str(tmp_path / "x")]) == 2

    def test_exit_2_on_missing_file(self, tmp_path):
        assert main(["solve", "--A", str(tmp_path / "none.mtx"), "--B",
                     str(tmp_path / "none.mtx"), "--k", "2", "--out", str(tmp_path)]) == 2

    def test_exit_3_on_indefinite_b(self, tmp_path):
        a_path = tmp_path / "a.mtx"
        b_path = tmp_path / "b.mtx"
        rg.save_matrix_market(a_path, np.eye(4))
        rg.save_matrix_market(b_path, np.diag([1.0, 1.0, 1.0, -1.0]))
        assert main(["solve", "--A", str(a_path), "--B", str(b_path), "--k", "2",
                     "--p", "1", "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("which", ["A", "B"])
    def test_non_finite_input_is_typed_failure(self, tmp_path, which, bad):
        body = {"A": "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 1\n2 2 1\n3 3 1\n"}
        body["B"] = body["A"]
        body[which] = f"%%MatrixMarket matrix array real general\n3 3\n1\n0\n0\n0\n{bad}\n0\n0\n0\n1\n"
        paths = {}
        for name, text in body.items():
            paths[name] = tmp_path / f"{name}.mtx"
            paths[name].write_text(text)
        code = main(["solve", "--A", str(paths["A"]), "--B", str(paths["B"]), "--k", "1",
                     "--p", "1", "--out", str(tmp_path / "x")])
        assert code in (2, 3)

    def test_escaping_linalg_error_exits_3(self, tmp_path, monkeypatch):
        import randghep.sketch

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(randghep.sketch, "randomized_svd", fail)
        eye = _write_eye(tmp_path / "eye.mtx", 6)
        assert main(["svd", "--A", eye, "--k", "2", "--out", str(tmp_path / "x")]) == 3

    def test_load_pencil_holds_each_matrix_once(self, tmp_path):
        rng = np.random.default_rng(4)
        G = rng.standard_normal((200, 200))
        Bd = G @ G.T + 200 * np.eye(200)
        Ad = (G + G.T) / 2.0
        args = argparse.Namespace(A=str(tmp_path / "a.mtx"), B=str(tmp_path / "b.mtx"))
        rg.save_matrix_market(args.A, Ad)
        rg.save_matrix_market(args.B, Bd)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pencil = _load_pencil(args)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert isinstance(pencil, rg.GhepPencil)
        # the oracle's matrices are the ones the operators froze when they wrapped them
        assert not pencil.dense_a.flags.writeable and not pencil.dense_b.flags.writeable
        np.testing.assert_array_equal(pencil.dense_a, Ad)
        np.testing.assert_array_equal(pencil.dense_b, Bd)
        assert held < 3.5 * Ad.nbytes  # A, B and the Cholesky factor of B

    def test_seed_zero_draws_from_entropy(self, tmp_path):
        eye = _write_eye(tmp_path / "eye.mtx", 6)
        out = tmp_path / "run"
        code = main(["solve", "--A", eye, "--B", eye, "--k", "2", "--p", "2",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        rep = _read_report(out)
        assert rep["seed_derived_from_entropy"] is True
        assert rep["seed"] != 0


class TestRemovedQrFlag:
    """The solvers have one weighted QR, so ``--qr`` is rejected, not ignored."""

    @pytest.mark.parametrize("argv", [
        ["solve", "--A", "{eye}", "--B", "{eye}", "--k", "2", "--p", "2", "--qr", "mgs-r"],
        ["kle", "--nu", "2.5", "--n", "41", "--k", "5", "--qr", "mgs"],
    ], ids=["solve", "kle"])
    def test_qr_flag_exits_2(self, tmp_path, argv):
        eye = _write_eye(tmp_path / "eye.mtx")
        out = tmp_path / "run"
        proc = _run_cli([arg.format(eye=eye) for arg in argv] + ["--out", str(out)])
        assert proc.returncode == 2
        assert "--qr" in proc.stderr
        assert not (out / "report.json").exists()


class TestEmptyMatrixFile:
    """A zero dimension in a .mtx header is a typed error (exit 2).

    Run in a child process: before the header check scipy's reader died on
    an array-format file like this with SIGFPE, which would take the test
    runner with it.
    """

    @pytest.mark.parametrize("argv, header", [
        (["solve", "--A", "{empty}", "--B", "{eye}", "--k", "1", "--p", "1"], "array real general\n0 0"),
        (["solve", "--A", "{eye}", "--B", "{empty}", "--k", "1", "--p", "1"], "array real general\n0 3"),
        (["solve", "--A", "{eye}", "--B", "{empty}", "--k", "1", "--p", "1"],
         "coordinate real general\n0 0 0"),
        (["svd", "--A", "{empty}", "--k", "1", "--p", "1"], "array real general\n0 3"),
        (["gsvd", "--A", "{empty}", "--S", "{eye}", "--T", "{eye}", "--k", "1", "--p", "1"],
         "array real general\n0 0"),
        (["estimate", "--A", "{empty}", "--B", "{eye}", "--k", "1"], "array real general\n0 0"),
    ], ids=["solve-A", "solve-B", "solve-B-coordinate", "svd", "gsvd", "estimate"])
    def test_exits_2_without_report(self, tmp_path, argv, header):
        eye = _write_eye(tmp_path / "eye.mtx", 3)
        empty = tmp_path / "empty.mtx"
        empty.write_text(f"%%MatrixMarket matrix {header}\n")
        out = tmp_path / "run"
        proc = _run_cli([arg.format(eye=eye, empty=empty) for arg in argv] + ["--out", str(out)])
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert "empty matrix" in proc.stderr
        assert not (out / "report.json").exists()


class TestQrBench:
    def test_table_layout_and_quality(self, tmp_path, capsys):
        out = tmp_path / "qb"
        code = main(["qr-bench", "--seed", "2", "--out", str(out)])
        assert code == 0
        rows = _read_csv(out / "qr_bench.csv")
        assert len(rows) == 9
        assert {r["alg"] for r in rows} == {"MGS", "MGS-R", "PreCholQR"}
        by = {(r["alg"], r["kernel"]): r for r in rows}
        # reconstruction at machine precision for every algorithm and kernel
        assert all(float(r["m1"]) <= 1e-13 for r in rows)
        # re-orthogonalized MGS stays orthogonal on the roughest kernel
        assert float(by[("MGS-R", "0.5")]["m2"]) <= 1e-13
        # plain MGS degrades visibly on the smoothest kernel
        assert float(by[("MGS", "2.5")]["m2"]) >= 1e-8

    def test_single_kernel_selection(self, tmp_path):
        out = tmp_path / "qb"
        code = main(["qr-bench", "--nu", "1.5", "--n", "101", "--cols", "30",
                     "--seed", "4", "--out", str(out)])
        assert code == 0
        rows = _read_csv(out / "qr_bench.csv")
        assert len(rows) == 3
        assert {r["kernel"] for r in rows} == {"1.5"}


class TestKle:
    def test_outputs(self, tmp_path):
        out = tmp_path / "kle"
        code = main(["kle", "--nu", "2.5", "--n", "101", "--k", "10", "--p", "5",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        rep = _read_report(out)
        assert rep["rel_eigenvalue_error"] <= 1e-4
        rows = _read_csv(out / "spectrum.csv")
        assert len(rows) == 10
        assert float(rows[0]["abs_err"]) >= 0.0
        modes = rg.load_matrix_market(out / "modes.mtx")
        assert modes.shape == (101, 10)

    def test_modes_file_is_the_solve_bit_for_bit(self, tmp_path):
        out = tmp_path / "kle"
        code = main(["kle", "--nu", "1.5", "--ell", "0.5", "--n", "301", "--k", "12", "--p", "5",
                     "--seed", "9", "--out", str(out)])
        assert code == 0
        sol = rg.kle_solve(rg.Grid1D(a=-1.0, b=1.0, n=301), rg.MaternConfig(nu=1.5, ell=0.5),
                           k=12, p=5, seed=9)
        np.testing.assert_array_equal(rg.load_matrix_market(out / "modes.mtx"), sol.modes)

    def test_beyond_dense_scale(self, tmp_path):
        out = tmp_path / "kle"
        code = main(["kle", "--nu", "2.5", "--ell", "0.5", "--n", "20000", "--k", "10",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        rep = _read_report(out)
        assert "rel_eigenvalue_error" not in rep
        assert len(_read_csv(out / "spectrum.csv")) == 10

    def test_method_flag(self, tmp_path):
        out = tmp_path / "kle"
        code = main(["kle", "--nu", "0.5", "--n", "81", "--k", "6", "--method", "nystrom",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        assert _read_report(out)["method"] == "nystrom"


class TestEstimate:
    def test_loose_tolerance_no_growth(self, tmp_path):
        out = tmp_path / "est"
        code = main(["estimate", "--nu", "2.5", "--n", "101", "--k", "8",
                     "--tol", "1e9", "--grow", "--seed", "4", "--out", str(out)])
        assert code == 0
        rep = _read_report(out)
        assert rep["converged"] is True
        assert rep["sketch_columns"] == 8
        assert len(rep["trajectory"]) == 1

    def test_crude_source_reported(self, tmp_path):
        out = tmp_path / "est"
        code = main(["estimate", "--nu", "1.5", "--n", "101", "--k", "10",
                     "--seed", "4", "--out", str(out)])
        assert code == 0
        rep = _read_report(out)
        assert rep["binv_source"] == "crude_lower_bound"
        assert rep["probability_floor"] == pytest.approx(1 - 2.0**-5)

    def test_growth_trajectory_and_oracle(self, tmp_path):
        out = tmp_path / "est"
        code = main(["estimate", "--nu", "2.5", "--n", "201", "--k", "5", "--tol", "1e-4",
                     "--grow", "--oracle", "--seed", "11", "--out", str(out)])
        assert code == 0
        rep = _read_report(out)
        assert rep["converged"] is True
        cols = [t["columns"] for t in rep["trajectory"]]
        assert cols == sorted(cols)
        assert rep["range_error_exact"] <= rep["e"]

    def test_tolerance_without_growth_reports_convergence(self, tmp_path):
        out = tmp_path / "est"
        code = main(["estimate", "--nu", "2.5", "--n", "101", "--k", "8",
                     "--tol", "1e9", "--seed", "4", "--out", str(out)])
        assert code == 0
        rep = _read_report(out)
        assert rep["converged"] is True
        assert "sketch_columns" not in rep and "trajectory" not in rep

    def test_growth_needs_tolerance(self, tmp_path):
        out = tmp_path / "est"
        code = main(["estimate", "--nu", "2.5", "--n", "101", "--k", "8", "--grow",
                     "--seed", "4", "--out", str(out)])
        assert code == 2
        assert not (out / "report.json").exists()

    def test_requires_some_pencil(self, tmp_path):
        assert main(["estimate", "--k", "5", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("extra", [
        ["--alpha", "nan"],
        ["--binv", "-3"],
        ["--binv", "nan"],
        ["--binv", "0"],
        ["--grow", "--tol", "nan"],
        ["--grow", "--tol", "-1"],
    ])
    def test_bad_estimator_input_exits_2(self, tmp_path, extra):
        out = tmp_path / "est"
        code = main(["estimate", "--nu", "2.5", "--n", "101", "--k", "5", "--seed", "4",
                     "--out", str(out), *extra])
        assert code == 2
        assert not (out / "report.json").exists()

    def test_file_pencil_route(self, tmp_path):
        rng = np.random.default_rng(9)
        G = rng.standard_normal((20, 20))
        Bd = G @ G.T + 20 * np.eye(20)
        Ad = rng.standard_normal((20, 20))
        Ad = (Ad + Ad.T) / 2.0
        rg.save_matrix_market(tmp_path / "a.mtx", Ad)
        rg.save_matrix_market(tmp_path / "b.mtx", Bd)
        out = tmp_path / "est"
        code = main(["estimate", "--A", str(tmp_path / "a.mtx"), "--B", str(tmp_path / "b.mtx"),
                     "--k", "6", "--oracle", "--seed", "3", "--out", str(out)])
        assert code == 0
        rep = _read_report(out)
        assert np.isfinite(rep["e"]) and rep["e"] >= 0.0
        assert np.isfinite(rep["range_error_exact"])
        assert rep["config"]["A"].endswith("a.mtx")


class TestGsvdCommand:
    def test_json_output(self, tmp_path):
        rng = np.random.default_rng(5)
        Ad = rng.standard_normal((10, 8))
        Sd = np.eye(10)
        Td = np.diag(rng.uniform(1, 3, 8))
        for name, M in (("a", Ad), ("s", Sd), ("t", Td)):
            rg.save_matrix_market(tmp_path / f"{name}.mtx", M)
        out = tmp_path / "g"
        code = main(["gsvd", "--A", str(tmp_path / "a.mtx"), "--S", str(tmp_path / "s.mtx"),
                     "--T", str(tmp_path / "t.mtx"), "--k", "4", "--p", "4",
                     "--seed", "6", "--out", str(out)])
        assert code == 0
        rep = _read_report(out)
        assert len(rep["singular_values"]) == 4
        assert rep["orthogonality_residual_U"] <= 1e-10
        assert rep["orthogonality_residual_V"] <= 1e-10


class TestSvdCommand:
    def test_singular_values(self, tmp_path):
        Ad = np.diag([5.0, 3.0, 1.0, 0.0, 0.0])
        rg.save_matrix_market(tmp_path / "a.mtx", Ad)
        out = tmp_path / "s"
        code = main(["svd", "--A", str(tmp_path / "a.mtx"), "--k", "3", "--p", "2",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        np.testing.assert_allclose(_read_report(out)["singular_values"], [5, 3, 1], atol=1e-11)

    @pytest.mark.parametrize("mode", ["evd-two-pass", "evd-single-pass"])
    def test_evd_rejects_asymmetric_matrix(self, tmp_path, mode):
        rg.save_matrix_market(tmp_path / "a.mtx", np.random.default_rng(3).standard_normal((30, 30)))
        out = tmp_path / "s"
        code = main(["svd", "--A", str(tmp_path / "a.mtx"), "--k", "3", "--p", "2",
                     "--mode", mode, "--seed", "2", "--out", str(out)])
        assert code == 2
        assert not (out / "report.json").exists()

    def test_evd_modes(self, tmp_path):
        Ad = np.diag([4.0, 2.0, 1.0, 0.0, 0.0, 0.0])
        rg.save_matrix_market(tmp_path / "a.mtx", Ad)
        out = tmp_path / "s"
        code = main(["svd", "--A", str(tmp_path / "a.mtx"), "--k", "3", "--p", "3",
                     "--mode", "evd-two-pass", "--seed", "2", "--out", str(out)])
        assert code == 0
        np.testing.assert_allclose(_read_report(out)["eigenvalues"], [4, 2, 1], atol=1e-11)


class TestThreadCap:
    """RANDGHEP_THREADS reaches the BLAS variables when randghep is imported first."""

    THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

    def _import_randghep(self, **env_vars):
        env = {k: v for k, v in os.environ.items() if k not in self.THREAD_VARS}
        env.update(env_vars)
        env = _child_env(env)
        code = "import os; import randghep; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_cap_applied_on_import(self):
        assert self._import_randghep(RANDGHEP_THREADS="1") == "1"

    def test_explicit_blas_setting_kept(self):
        assert self._import_randghep(RANDGHEP_THREADS="1", OPENBLAS_NUM_THREADS="2") == "2"
