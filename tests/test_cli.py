"""CLI contracts: exit codes, file outputs, reproducibility."""

import argparse
import csv
import errno
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from conftest import (kle_rel_error, make_kle_mass, make_kle_pencil, random_spd, traced_memory,
                      write_coordinate_pencil)
from hypothesis import given, settings
from hypothesis import strategies as st

import randghep as rg
from randghep.cli import _parser, _pencil, build_parser, main
from randghep.ghep import METHOD_CHOICES


def _write_eye(path, n=5):
    rg.save_matrix_market(path, np.eye(n))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}, which is not JSON")


def _read_report(outdir):
    """report.json, parsed strictly: NaN and Infinity are not JSON."""
    return json.loads((outdir / "report.json").read_text(), parse_constant=_reject_constant)


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


def _write_kle_pencil(tmp_path, n):
    """A.mtx and B.mtx of a KLE pencil on n nodes; returns their paths."""
    pencil = make_kle_pencil(1.5, 0.5, n)
    a_path, b_path = tmp_path / "a.mtx", tmp_path / "b.mtx"
    rg.save_matrix_market(a_path, pencil.dense_a)
    rg.save_matrix_market(b_path, make_kle_mass(n))
    return str(a_path), str(b_path)


def _spy_factorizations(monkeypatch):
    """Record the shapes of the factorizations of B that the library makes.

    Spies on scipy itself: the Cholesky calls of operators.dense_spd, which
    factors every dense SPD matrix (a dense B-operator and the oracle share
    one factor), the SuperLU calls of operators.sparse_spd, which
    factors a sparse B-operator, and any eigh given a second matrix (which
    would factor B again inside LAPACK).  Returns the three lists
    (choleskys, generalized, sparse).
    """
    cholesky, eigh, splu = scipy.linalg.cholesky, scipy.linalg.eigh, scipy.sparse.linalg.splu
    choleskys, generalized, sparse = [], [], []

    def cholesky_spy(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "randghep.operators":
            choleskys.append(a.shape)
        return cholesky(a, *args, **kwargs)

    def eigh_spy(a, *args, **kwargs):
        if args or kwargs.get("b") is not None:
            generalized.append(a.shape)
        return eigh(a, *args, **kwargs)

    def splu_spy(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "randghep.operators":
            sparse.append(a.shape)
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky", cholesky_spy)
    monkeypatch.setattr(scipy.linalg, "eigh", eigh_spy)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu_spy)
    return choleskys, generalized, sparse


def _write_coordinate_kle_pencil(tmp_path, n):
    """The pencil of ``_write_kle_pencil`` with B in symmetric coordinate storage."""
    pencil = make_kle_pencil(1.5, 0.5, n)
    return write_coordinate_pencil(tmp_path, pencil.dense_a, make_kle_mass(n))


def _write_mtx(path, M, storage):
    """Write M in ``storage``: "array", or "coordinate" in general storage, so
    that asymmetric and non-finite entries are written as they are.  An int M
    stands for an empty matrix (a zero dimension in the header)."""
    if isinstance(M, int):
        size = "0 0" if storage == "array" else "0 0 0"
        path.write_text(f"%%MatrixMarket matrix {storage} real general\n{size}\n")
    elif storage == "array":
        rg.save_matrix_market(path, M)
    else:
        scipy.io.mmwrite(path, scipy.sparse.coo_matrix(M), symmetry="general")
    return str(path)


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

    @pytest.mark.parametrize("argv", [["solve", "--A", "{A}", "--B", "{B}", "--method", "single-pass"],
                                      ["solve", "--A", "{A}", "--method", "single-pass"]])
    def test_single_pass_on_zero_a_exits_3(self, tmp_path, argv):
        # the range finder keeps no column of a zero A's sketch, and the
        # single-pass solver calls the empty F = Q^T B Omega singular
        a_path, b_path = write_coordinate_pencil(tmp_path, np.zeros((4, 4)), 3.0 * np.eye(4))
        out = tmp_path / "run"
        proc = _run_cli([arg.format(A=a_path, B=b_path) for arg in argv]
                        + ["--k", "1", "--p", "0", "--seed", "7", "--out", str(out)])
        assert proc.returncode == 3
        assert proc.stderr == ("randghep: numerical failure: F = Q^T B Omega is numerically singular "
                               "(sigma_min/sigma_max <= 1e-10); use the two-pass solver\n")
        assert not (out / "report.json").exists()

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
        rg.save_matrix_market(b_path, rg.assemble_mass_1d(grid))
        out = tmp_path / "run"
        code = main(["solve", "--A", str(a_path), "--B", str(b_path), "--k", "10", "--p", "5",
                     "--method", method, "--seed", "2", "--oracle", "--out", str(out)])
        assert code == 0
        rows = _read_csv(out / "spectrum.csv")
        lam = rg.dense_ghep_oracle(rg.load_matrix_market(a_path), rg.dense_spd(rg.load_matrix_market(b_path))).lambdas
        assert [float(r["lambda_oracle"]) for r in rows] == list(lam[: len(rows)])
        rep = _read_report(out)
        if method == "single-pass":
            assert rep["bound_flags"] == "not applicable: single-pass T is not a Rayleigh quotient"
            assert all(r["lambda_bound_ok"] == "" and r["sine_bound_ok"] == "" for r in rows)
        else:
            assert "bound_flags" not in rep
            assert all(r["lambda_bound_ok"] == "True" for r in rows)
            assert all(r["sine_bound_ok"] == "True" for r in rows)

    @pytest.mark.parametrize("storage", ["array", "coordinate"])
    @pytest.mark.parametrize("method", ["two-pass", "nystrom"])
    def test_one_by_one_pencil_with_oracle(self, tmp_path, method, storage):
        # the gap to an empty rest of the spectrum is +inf, which gives zero
        # bounds: both flags True
        a_path = _write_mtx(tmp_path / "a.mtx", np.array([[3.0]]), "array")
        b_path = _write_mtx(tmp_path / "b.mtx", np.array([[2.0]]), storage)
        out = tmp_path / "run"
        assert main(["solve", "--A", a_path, "--B", b_path, "--k", "1", "--p", "0", "--method", method,
                     "--oracle", "--seed", "3", "--out", str(out)]) == 0
        (row,) = _read_csv(out / "spectrum.csv")
        assert float(row["lambda_oracle"]) == pytest.approx(1.5, rel=1e-15)
        assert row["lambda_bound_ok"] == "True" and row["sine_bound_ok"] == "True"

    def test_oracle_factors_b_once(self, tmp_path, monkeypatch):
        a_path, b_path = _write_kle_pencil(tmp_path, 61)
        choleskys, generalized, sparse = _spy_factorizations(monkeypatch)
        code = main(["solve", "--A", a_path, "--B", b_path, "--k", "8", "--p", "4",
                     "--seed", "6", "--oracle", "--out", str(tmp_path / "run")])
        assert code == 0
        assert choleskys == [(61, 61)]
        assert generalized == [] and sparse == []
        assert _read_report(tmp_path / "run")["range_error_exact"] > 0.0
        assert all(r["sine_bound_ok"] == "True" for r in _read_csv(tmp_path / "run" / "spectrum.csv"))

    def test_oracle_factors_coordinate_b_once_each_way(self, tmp_path, monkeypatch):
        # a coordinate B: one sparse factorization serves the operator, and the
        # oracle reuses its factor; no dense Cholesky runs
        a_path, b_path = _write_coordinate_kle_pencil(tmp_path, 61)
        choleskys, generalized, sparse = _spy_factorizations(monkeypatch)
        code = main(["solve", "--A", a_path, "--B", b_path, "--k", "8", "--p", "4",
                     "--seed", "6", "--oracle", "--out", str(tmp_path / "run")])
        assert code == 0
        assert sparse == [(61, 61)] and choleskys == []
        assert generalized == []

    @pytest.mark.parametrize("method", ["two-pass", "nystrom"])
    def test_coordinate_b_matches_array_b(self, tmp_path, method):
        # the same B read sparse or dense: equal counts, eigenvalues and oracle
        # columns equal up to roundoff (the oracle uses each backend's own
        # exact factorization of B), every bound flag True
        a_path, b_path = _write_coordinate_kle_pencil(tmp_path, 101)
        array_b = tmp_path / "b_array.mtx"
        rg.save_matrix_market(array_b, rg.load_matrix_market(b_path).toarray())
        reps, rows = [], []
        for name, path in (("coordinate", b_path), ("array", str(array_b))):
            out = tmp_path / name
            assert main(["solve", "--A", a_path, "--B", path, "--k", "10", "--p", "5",
                         "--method", method, "--seed", "2", "--oracle", "--out", str(out)]) == 0
            reps.append(_read_report(out))
            rows.append(_read_csv(out / "spectrum.csv"))
        assert reps[0]["counts"] == reps[1]["counts"]
        lam, ref = np.array(reps[0]["eigenvalues"]), np.array(reps[1]["eigenvalues"])
        assert np.sum(np.abs(lam - ref)) <= 1e-13 * np.sum(np.abs(ref))
        Ad, Bd = rg.load_matrix_market(a_path), rg.load_matrix_market(b_path).toarray()
        expected = scipy.linalg.eigh(Ad, Bd, eigvals_only=True)[::-1][:len(rows[0])]
        oracles = [np.array([float(r["lambda_oracle"]) for r in table]) for table in rows]
        assert np.max(np.abs(oracles[0] - oracles[1])) <= 1e-14 * oracles[1][0]
        for column in oracles:
            assert np.max(np.abs(column - expected)) <= 1e-14 * expected[0]
        for table in rows:
            assert all(r["lambda_bound_ok"] == "True" and r["sine_bound_ok"] == "True" for r in table)

    @pytest.mark.parametrize("defect, code", [
        ("singular", 3), ("zero_diagonal", 3), ("indefinite", 3), ("asymmetric", 2), ("nan", 2),
        ("empty", 2), ("non_square", 2),
    ])
    def test_coordinate_b_errors_are_typed(self, tmp_path, defect, code):
        Bd = np.diag([4.0, 4.0, 4.0, 4.0]) + np.diag([1.0, 1.0, 1.0], 1) + np.diag([1.0, 1.0, 1.0], -1)
        if defect == "singular":
            Bd[2, :] = Bd[:, 2] = 0.0
        elif defect == "zero_diagonal":
            Bd = np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
        elif defect == "indefinite":
            Bd[1, 1] = -4.0
        elif defect == "asymmetric":
            Bd[0, 3] = 1e-6
        elif defect == "nan":
            Bd[1, 2] = np.nan
        elif defect == "empty":
            Bd = 0
        elif defect == "non_square":
            Bd = np.ones((4, 5))
        a_path = _write_eye(tmp_path / "a.mtx", 4)
        b_path = _write_mtx(tmp_path / "b.mtx", Bd, "coordinate")
        out = tmp_path / "run"
        assert main(["solve", "--A", a_path, "--B", b_path, "--k", "1", "--p", "1",
                     "--out", str(out)]) == code
        assert not (out / "report.json").exists()

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
        import randghep.gsvd

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(randghep.gsvd, "randomized_gsvd", fail)
        eye = _write_eye(tmp_path / "eye.mtx", 6)
        assert main(["gsvd", "--A", eye, "--k", "2", "--out", str(tmp_path / "x")]) == 3

    def test_load_pencil_holds_each_matrix_once(self, tmp_path):
        rng = np.random.default_rng(4)
        G = rng.standard_normal((200, 200))
        Bd = G @ G.T + 200 * np.eye(200)
        Ad = (G + G.T) / 2.0
        args = argparse.Namespace(A=str(tmp_path / "a.mtx"), B=str(tmp_path / "b.mtx"),
                                  nu=None, ell=None, n=None)
        rg.save_matrix_market(args.A, Ad)
        rg.save_matrix_market(args.B, Bd)
        with traced_memory() as usage:
            pencil, config = _pencil(args)
        assert isinstance(pencil, rg.GhepPencil)
        assert config == {"A": args.A, "B": args.B}
        # the oracle's A is the one the operator froze when it wrapped it; the
        # oracles read B's factor, which the B-operator holds: the same array on every read
        assert not pencil.dense_a.flags.writeable
        np.testing.assert_array_equal(pencil.dense_a, Ad)
        L, order = pencil.B.dense_factor()
        assert order is None and pencil.B.dense_factor()[0] is L
        assert usage.held < 3.5 * Ad.nbytes  # A, B and the Cholesky factor of B

    def test_load_pencil_keeps_coordinate_b_sparse(self, tmp_path):
        n = 200
        rng = np.random.default_rng(4)
        G = rng.standard_normal((n, n))
        Bd = 4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
        args = argparse.Namespace(**dict(zip("AB", write_coordinate_pencil(tmp_path, (G + G.T) / 2.0, Bd))),
                                  nu=None, ell=None, n=None)
        with traced_memory() as usage:
            pencil, _ = _pencil(args)
        # A and the sparse B with its factors: no second n-by-n array, and no
        # dense B (the oracles read B's factor instead, densified when they read it)
        assert usage.held < 1.5 * G.nbytes
        assert pencil.B.has_whitening
        assert pencil.B.dense_factor()[1] is not None

    def test_sparse_linalg_is_imported_only_for_a_sparse_b(self, tmp_path):
        # the import costs ~15 ms, which kle and a dense file pencil do not pay
        eye = _write_eye(tmp_path / "eye.mtx", 6)
        sparse_eye = _write_mtx(tmp_path / "sparse_eye.mtx", np.eye(6), "coordinate")
        code = (
            "import sys\n"
            "from randghep.cli import main\n"
            "def run(*argv):\n"
            "    assert main([*argv, '--out', sys.argv[1]]) == 0\n"
            "    return 'scipy.sparse.linalg' in sys.modules\n"
            "print(run('kle', '--nu', '1.5', '--n', '41', '--k', '3'),\n"
            "      run('solve', '--A', sys.argv[2], '--B', sys.argv[2], '--k', '2', '--p', '1'),\n"
            "      run('solve', '--A', sys.argv[2], '--B', sys.argv[3], '--k', '2', '--p', '1'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "run"), eye, sparse_eye],
                              env=_child_env(dict(os.environ)), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-1] == "False False True"

    def test_seed_zero_draws_from_entropy(self, tmp_path):
        eye = _write_eye(tmp_path / "eye.mtx", 6)
        out = tmp_path / "run"
        code = main(["solve", "--A", eye, "--B", eye, "--k", "2", "--p", "2",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        rep = _read_report(out)
        assert rep["seed_derived_from_entropy"] is True
        assert rep["seed"] != 0


def _malformed_pencil(defect, which, n, i, j, seed):
    """A (name -> matrix) pencil with one defect; an int entry stands for an
    empty matrix (a zero dimension in the header)."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    mats = {"A": (G + G.T) / 2.0, "B": G @ G.T + n * np.eye(n)}
    i, j = i % n, (i + 1 + j % (n - 1)) % n  # i != j
    if defect in ("nan", "inf", "-inf"):
        mats[which][i, j] = float(defect)
    elif defect == "asymmetric":
        mats[which][i, j] += 1.0 + abs(mats[which][i, j])
    elif defect == "indefinite_b":
        mats["B"][i, i] = -mats["B"][i, i]
    elif defect == "singular_b":
        mats["B"][i, :] = 0.0
        mats["B"][:, i] = 0.0
    elif defect == "empty":
        mats[which] = 0
    elif defect == "mismatched":
        # A not square, or B square but one row larger than A
        mats[which] = rng.standard_normal((n, n + 1)) if which == "A" else np.eye(n + 1)
    return mats


class TestMalformedPencil:
    """Property: a malformed pencil ends ``solve`` with exit 2 or 3, no traceback and no report."""

    @given(
        defect=st.sampled_from(["nan", "inf", "-inf", "asymmetric", "indefinite_b",
                                "singular_b", "empty", "mismatched"]),
        which=st.sampled_from(["A", "B"]),
        n=st.integers(3, 7),
        i=st.integers(0, 6),
        j=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(METHOD_CHOICES),
    )
    @settings(max_examples=30, deadline=None)
    def test_exits_2_or_3_without_report(self, defect, which, n, i, j, seed, method):
        mats = _malformed_pencil(defect, which, n, i, j, seed)
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, M in mats.items():
                paths[name] = Path(tmp) / f"{name}.mtx"
                if isinstance(M, int):
                    paths[name].write_text("%%MatrixMarket matrix array real general\n0 0\n")
                else:
                    rg.save_matrix_market(paths[name], M)
            out = Path(tmp) / "run"
            code = main(["solve", "--A", str(paths["A"]), "--B", str(paths["B"]), "--k", "1",
                         "--p", "1", "--method", method, "--seed", "3", "--out", str(out)])
            assert code in (2, 3)
            assert not (out / "report.json").exists()


_PENCIL_DEFECTS = ["nan", "inf", "-inf", "asymmetric", "indefinite_b", "singular_b", "empty", "mismatched"]


def _exits_2_or_3_without_report(argv, mats, storage):
    """Write each (name -> matrix) file in its storage, run ``argv`` on them
    ("{name}" stands for a file's path) and check the typed exit."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: _write_mtx(Path(tmp) / f"{name}.mtx", M, storage[name]) for name, M in mats.items()}
        out = Path(tmp) / "run"
        code = main([arg.format(**paths) for arg in argv] + ["--seed", "3", "--out", str(out)])
        assert code in (2, 3)
        assert not (out / "report.json").exists()


class TestMalformedCoordinatePencil:
    """``TestMalformedPencil`` with both files in general coordinate storage:
    a sparse B takes the SuperLU path, whose every failure is typed too."""

    @given(
        defect=st.sampled_from(_PENCIL_DEFECTS),
        which=st.sampled_from(["A", "B"]),
        n=st.integers(3, 7),
        i=st.integers(0, 6),
        j=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(METHOD_CHOICES),
    )
    @settings(max_examples=30, deadline=None)
    def test_exits_2_or_3_without_report(self, defect, which, n, i, j, seed, method):
        _exits_2_or_3_without_report(
            ["solve", "--A", "{A}", "--B", "{B}", "--k", "1", "--p", "1", "--method", method],
            _malformed_pencil(defect, which, n, i, j, seed), {"A": "coordinate", "B": "coordinate"})


_STORAGE = st.sampled_from(["array", "coordinate"])


class TestMalformedFiles:
    """Property: a malformed file ends ``estimate`` and ``gsvd``, and ``gsvd``
    and ``solve`` on --A alone, with exit 2 or 3, no traceback and no report,
    in either storage."""

    @given(
        defect=st.sampled_from(_PENCIL_DEFECTS),
        which=st.sampled_from(["A", "B"]),
        n=st.integers(3, 7),
        i=st.integers(0, 6),
        j=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
        storage=st.fixed_dictionaries({"A": _STORAGE, "B": _STORAGE}),
        grow=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_estimate(self, defect, which, n, i, j, seed, storage, grow):
        extra = ["--grow", "--tol", "1e-3"] if grow else []
        _exits_2_or_3_without_report(["estimate", "--A", "{A}", "--B", "{B}", "--k", "1", "--oracle", *extra],
                                     _malformed_pencil(defect, which, n, i, j, seed), storage)

    @given(
        defect=st.sampled_from(["nan", "inf", "-inf", "asymmetric", "indefinite", "singular", "empty",
                                "mismatched"]),
        which=st.sampled_from(["A", "S", "T"]),
        m=st.integers(3, 6),
        n=st.integers(3, 6),
        i=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
        storage=st.fixed_dictionaries({"A": _STORAGE, "S": _STORAGE, "T": _STORAGE}),
    )
    @settings(max_examples=30, deadline=None)
    def test_gsvd(self, defect, which, m, n, i, seed, storage):
        rng = np.random.default_rng(seed)
        G, H = rng.standard_normal((m, m)), rng.standard_normal((n, n))
        mats = {"A": rng.standard_normal((m, n)), "S": G @ G.T + m * np.eye(m), "T": H @ H.T + n * np.eye(n)}
        if defect in ("asymmetric", "indefinite", "singular", "mismatched") and which == "A":
            which = "S"  # A is general: these are defects of a weight
        M = mats[which]
        r, c = i % M.shape[0], (i + 1) % M.shape[1]
        if defect in ("nan", "inf", "-inf"):
            M[r, c] = float(defect)
        elif defect == "asymmetric":
            M[r, c] += 1.0 + abs(M[r, c])
        elif defect == "indefinite":
            M[r, r] = -M[r, r]
        elif defect == "singular":
            M[r, :] = M[:, r] = 0.0
        elif defect == "empty":
            mats[which] = 0
        elif defect == "mismatched":
            mats[which] = np.eye(M.shape[0] + 1)
        _exits_2_or_3_without_report(["gsvd", "--A", "{A}", "--S", "{S}", "--T", "{T}", "--k", "1", "--p", "1"],
                                     mats, storage)

    @given(
        defect=st.sampled_from(["nan", "inf", "-inf", "empty", "asymmetric", "non_square"]),
        command=st.sampled_from([["gsvd"], ["solve", "--method", "two-pass"],
                                 ["solve", "--method", "single-pass"]]),
        n=st.integers(3, 7),
        i=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
        storage=_STORAGE,
    )
    @settings(max_examples=30, deadline=None)
    def test_a_alone(self, defect, command, n, i, seed, storage):
        # the identity weights: gsvd is the plain SVD, solve the B = I EVD
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((n, n))
        A = (G + G.T) / 2.0
        r, c = i % n, (i + 1) % n
        if defect in ("asymmetric", "non_square") and command == ["gsvd"]:
            command = ["solve", "--method", "two-pass"]  # a general A is valid input for the SVD
        if defect in ("nan", "inf", "-inf"):
            A[r, c] = float(defect)
        elif defect == "empty":
            A = 0
        elif defect == "asymmetric":
            A[r, c] += 1.0 + abs(A[r, c])
        elif defect == "non_square":
            A = rng.standard_normal((n, n + 1))
        _exits_2_or_3_without_report([command[0], "--A", "{A}", "--k", "1", "--p", "1", *command[1:]],
                                     {"A": A}, {"A": storage})


_RANK_COMMANDS = [["solve", "--A", "{A}", "--B", "{B}", "--k", "3", "--p", "3", "--method", method, "--oracle"]
                  for method in METHOD_CHOICES]
_RANK_COMMANDS.append(["estimate", "--A", "{A}", "--B", "{B}", "--k", "3", "--grow", "--tol", "1e-3", "--oracle"])


def _run_on_pencil(argv, A, B, storage):
    """Run ``argv`` on A (array storage) and B (in ``storage``) in a fresh
    directory; returns (exit code, parsed report or None, spectrum rows)."""
    with tempfile.TemporaryDirectory() as tmp:
        if storage == "coordinate":
            a_path, b_path = write_coordinate_pencil(Path(tmp), A, B)
        else:
            a_path, b_path = (_write_mtx(Path(tmp) / name, M, "array") for name, M in (("a.mtx", A), ("b.mtx", B)))
        out = Path(tmp) / "run"
        code = main([arg.format(A=a_path, B=b_path) for arg in argv] + ["--seed", "3", "--out", str(out)])
        report = _read_report(out) if (out / "report.json").exists() else None
        rows = _read_csv(out / "spectrum.csv") if (out / "spectrum.csv").exists() else []
        return code, report, rows


class TestNumericallyRankDeficientPencil:
    """Property: numerically rank-deficient input ends ``solve`` (every method,
    ``--oracle``) and ``estimate --grow --oracle`` without a traceback, with B in
    array or coordinate storage.  An A of numerical rank below k + p is valid
    input: exit 0 and finite outputs.  A B of condition number ~1e17 is
    singular to working precision: exit 3 and no report."""

    @given(
        argv=st.sampled_from(_RANK_COMMANDS),
        n=st.integers(8, 24),
        rank=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        storage=_STORAGE,
    )
    @settings(max_examples=40, deadline=None)
    def test_low_numerical_rank_a_exits_0(self, argv, n, rank, seed, storage):
        # rank eigenvalues in [0.1, 1], the rest of either sign at 1e-30..1e-15:
        # numerically PSD, so Nystrom takes it too
        rng = np.random.default_rng(seed)
        tiny = 10.0 ** rng.uniform(-30.0, -15.0, n - rank) * rng.choice([-1.0, 1.0], n - rank)
        lams = np.concatenate([np.geomspace(1.0, 0.1, rank), tiny])
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (Q * lams) @ Q.T
        B = random_spd(n, 10.0 ** rng.uniform(0.0, 3.0), seed % 1000)
        code, report, rows = _run_on_pencil(argv, (A + A.T) / 2.0, (B + B.T) / 2.0, storage)
        assert code == 0
        assert math.isfinite(report["range_error_exact"])
        if argv[0] == "estimate":
            assert math.isfinite(report["e"])
        else:  # a rank decision may report fewer than k eigenvalues
            assert 1 <= len(rows) <= 3
            for row in rows:
                for column in ("lambda_approx", "lambda_oracle", "abs_err"):
                    assert math.isfinite(float(row[column]))

    @given(
        argv=st.sampled_from(_RANK_COMMANDS),
        n=st.integers(8, 24),
        seed=st.integers(0, 2**32 - 1),
        storage=_STORAGE,
    )
    @settings(max_examples=40, deadline=None)
    def test_b_singular_to_working_precision_exits_3(self, argv, n, seed, storage):
        G = np.random.default_rng(seed).standard_normal((n, n))
        B = random_spd(n, 1e17, seed % 1000)
        code, report, _ = _run_on_pencil(argv, G @ G.T, (B + B.T) / 2.0, storage)
        assert code == 3
        assert report is None


_DEGENERATE_A = {
    "zero": np.zeros,
    "identity": lambda shape: np.eye(*shape),
    "minus_identity": lambda shape: -np.eye(*shape),
    "ones": np.ones,
}


def _degenerate_commands(m, n):
    """The commands of ``TestDegenerateInputs`` for an m-by-n A: every sketch
    as wide as the matrix allows, so k + p = min(m, n)."""
    p = str(min(m, n) - 1)
    commands = [["gsvd", "--A", "{A}", "--k", "1", "--p", p]]
    commands += [["solve", "--A", "{A}", "--k", "1", "--p", p, "--method", method]
                 for method in ("two-pass", "single-pass")]
    commands.append(["gsvd", "--A", "{A}", "--S", "{S}", "--T", "{T}", "--k", "1", "--p", p])
    if m == n:
        commands += [["solve", "--A", "{A}", "--B", "{T}", "--k", "1", "--p", p, "--method", method,
                      "--oracle", "--save-modes"] for method in METHOD_CHOICES]
        commands += [["estimate", "--A", "{A}", "--B", "{T}", "--k", "1", "--oracle", *grow]
                     for grow in ([], ["--grow", "--tol", "1e-3"])]
    return commands


class TestDegenerateInputs:
    """A zero, identity, minus-identity or all-ones A, with the weights 2I in
    array or coordinate storage, ends every command with exit 0, 2 or 3 and
    raises nothing: ``solve`` in each method (``--oracle --save-modes``),
    ``estimate`` with and without ``--grow`` (``--oracle``), ``solve`` on
    --A alone (two-pass, single-pass) and ``gsvd`` with and without weights
    at n = 1..4, and those on --A alone and ``gsvd`` at the rectangular
    shapes 1x3, 3x1 and 2x5.  An exit 0 writes a strict-JSON report; 2 and 3
    write none.  The full grid runs in process, in about two seconds."""

    @pytest.mark.parametrize("storage", ["array", "coordinate"])
    @pytest.mark.parametrize("kind", sorted(_DEGENERATE_A))
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (4, 4), (1, 3), (3, 1), (2, 5)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_exits_0_2_or_3(self, tmp_path, shape, kind, storage):
        m, n = shape
        paths = {"A": _write_mtx(tmp_path / "a.mtx", _DEGENERATE_A[kind](shape), "array"),
                 "S": _write_mtx(tmp_path / "s.mtx", 2.0 * np.eye(m), storage),
                 "T": _write_mtx(tmp_path / "t.mtx", 2.0 * np.eye(n), storage)}
        for i, argv in enumerate(_degenerate_commands(m, n)):
            out = tmp_path / f"run{i}"
            code = main([arg.format(**paths) for arg in argv] + ["--seed", "3", "--out", str(out)])
            assert code in (0, 2, 3), argv
            if code == 0:
                _read_report(out)
            else:
                assert not (out / "report.json").exists(), argv


class TestOutOfMemory:
    """An allocation that fails inside a command ends with exit 3 and one
    stderr line, not a traceback, and writes no report."""

    @pytest.mark.parametrize("command", ["solve", "kle"])
    def test_memory_error_exits_3(self, tmp_path, monkeypatch, capsys, command):
        def apply(self, X):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

        monkeypatch.setattr(rg.LinearMap, "apply", apply)
        eye = _write_eye(tmp_path / "eye.mtx")
        argv = {"solve": ["solve", "--A", eye, "--B", eye, "--k", "2", "--p", "2"],
                "kle": ["kle", "--nu", "1.5", "--n", "50", "--k", "3"]}[command]
        out = tmp_path / "run"
        assert main(argv + ["--seed", "3", "--out", str(out)]) == 3
        assert capsys.readouterr().err == ("randghep: out of memory: Unable to allocate 74.5 GiB "
                                           "for an array with shape (100000, 100000)\n")
        assert not (out / "report.json").exists()

    def test_superlu_allocation_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def splu(*args, **kwargs):
            raise RuntimeError("SUPERLU_MALLOC fails for buf in intMalloc()")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
        a_path, b_path = write_coordinate_pencil(tmp_path, np.eye(4), 2.0 * np.eye(4))
        out = tmp_path / "run"
        assert main(["solve", "--A", a_path, "--B", b_path, "--k", "1", "--p", "1",
                     "--seed", "3", "--out", str(out)]) == 3
        assert capsys.readouterr().err == ("randghep: out of memory: SuperLU could not allocate its factor: "
                                           "SUPERLU_MALLOC fails for buf in intMalloc()\n")
        assert not (out / "report.json").exists()

    def test_bare_memory_error_still_names_itself(self, tmp_path, monkeypatch, capsys):
        def apply(self, X):
            raise MemoryError

        monkeypatch.setattr(rg.LinearMap, "apply", apply)
        out = tmp_path / "run"
        assert main(["kle", "--nu", "1.5", "--n", "50", "--k", "3", "--seed", "3", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "randghep: out of memory: an allocation failed\n"


class TestUnwritableOutput:
    """An output path that cannot be written ends with exit 2 and one stderr
    line, not a traceback, and leaves no report: --out names a file, --out
    lies below a file, or a directory sits where report.json goes."""

    @pytest.mark.parametrize("case", ["out-is-file", "out-below-file", "report-is-dir"])
    @pytest.mark.parametrize("command", ["solve", "kle"])
    def test_exits_2(self, tmp_path, capsys, command, case):
        eye = _write_eye(tmp_path / "eye.mtx")
        argv = {"solve": ["solve", "--A", eye, "--B", eye, "--k", "2", "--p", "2"],
                "kle": ["kle", "--nu", "1.5", "--n", "50", "--k", "3"]}[command]
        blocker = tmp_path / "blocker"
        blocker.write_text("a file\n")
        out = {"out-is-file": blocker, "out-below-file": blocker / "sub", "report-is-dir": tmp_path / "run"}[case]
        if case == "report-is-dir":
            (out / "report.json").mkdir(parents=True)
        assert main(argv + ["--seed", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("randghep: [Errno ") and err.count("\n") == 1
        assert not (out / "report.json").is_file()
        assert blocker.read_text() == "a file\n"
        if out.is_dir():
            # no spectrum.csv, modes.mtx or staging directory: only the blocking directory
            assert [path.name for path in out.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("command", ["solve", "kle"])
    def test_failed_write_leaves_no_outputs(self, tmp_path, monkeypatch, capsys, command):
        # modes.mtx is the last file a command writes, after spectrum.csv
        def save(path, M):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        eye = _write_eye(tmp_path / "eye.mtx")
        argv = {"solve": ["solve", "--A", eye, "--B", eye, "--k", "2", "--p", "2", "--save-modes"],
                "kle": ["kle", "--nu", "1.5", "--n", "50", "--k", "3"]}[command]
        monkeypatch.setattr(rg.operators, "save_matrix_market", save)
        out = tmp_path / "run"
        assert main(argv + ["--seed", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("randghep: [Errno 28] No space left on device: ")
        assert list(out.iterdir()) == []


class TestSeedRange:
    """The sketches read a seed modulo 2**64, so a seed outside [0, 2**64)
    exits 2 before any apply instead of drawing another seed's sketch."""

    @pytest.mark.parametrize("seed, code", [(-1, 2), (2**64, 2), (2**64 - 1, 0)])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, monkeypatch, capsys, seed, code):
        applied = []
        apply = rg.LinearMap.apply
        monkeypatch.setattr(rg.LinearMap, "apply", lambda op, X: applied.append(X) or apply(op, X))
        out = tmp_path / "run"
        assert main(["kle", "--nu", "1.5", "--ell", "0.5", "--n", "300", "--k", "5",
                     "--seed", str(seed), "--out", str(out)]) == code
        if code == 2:
            assert capsys.readouterr().err == ("randghep: configuration error: --seed must lie in "
                                               f"[0, 2**64), got {seed}\n")
            assert applied == [] and not out.exists()
        else:
            assert _read_report(out)["seed"] == seed


class TestShortResultWarning:
    """``gsvd`` and ``solve`` say on stderr when they return fewer values than
    --k, with the line ``kle`` prints: every sketch column of a zero A is
    dependent, so these runs exit 0 with empty lists."""

    @pytest.mark.parametrize("command, what", [("gsvd", "singular values"), ("solve", "eigenvalues")])
    def test_a_alone_on_zero_a(self, tmp_path, capsys, command, what):
        a_path = _write_mtx(tmp_path / "a.mtx", np.zeros((4, 4)), "array")
        out = tmp_path / "run"
        assert main([command, "--A", a_path, "--k", "1", "--p", "3",
                     "--seed", "1", "--out", str(out)]) == 0
        rep = _read_report(out)
        assert rep["singular_values" if command == "gsvd" else "eigenvalues"] == []
        assert capsys.readouterr().err == (f"randghep: warning: 0 {what} returned of the 1 asked for (--k); "
                                           "the sketch's effective_rank is 0\n")

    def test_gsvd_on_zero_a(self, tmp_path, capsys):
        paths = [_write_mtx(tmp_path / f"{name}.mtx", M, "array")
                 for name, M in (("a", np.zeros((2, 5))), ("s", 2.0 * np.eye(2)), ("t", 2.0 * np.eye(5)))]
        out = tmp_path / "run"
        assert main(["gsvd", "--A", paths[0], "--S", paths[1], "--T", paths[2], "--k", "1", "--p", "1",
                     "--seed", "1", "--out", str(out)]) == 0
        assert _read_report(out)["singular_values"] == []
        assert capsys.readouterr().err == ("randghep: warning: 0 singular values returned of the 1 asked "
                                           "for (--k); the sketch's effective_rank is 0\n")

    @pytest.mark.parametrize("command", [["gsvd"], ["solve", "--method", "two-pass"],
                                         ["solve", "--method", "single-pass"]], ids=" ".join)
    def test_no_warning_when_k_values_are_returned(self, tmp_path, capsys, command):
        a_path = _write_mtx(tmp_path / "a.mtx", np.diag([4.0, 2.0, 1.0, 0.5, 0.0, 0.0]), "array")
        out = tmp_path / "run"
        assert main([command[0], "--A", a_path, "--k", "3", "--p", "1", *command[1:],
                     "--seed", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""


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
        (["gsvd", "--A", "{empty}", "--k", "1", "--p", "1"], "array real general\n0 3"),
        (["gsvd", "--A", "{empty}", "--S", "{eye}", "--T", "{eye}", "--k", "1", "--p", "1"],
         "array real general\n0 0"),
        (["estimate", "--A", "{empty}", "--B", "{eye}", "--k", "1"], "array real general\n0 0"),
    ], ids=["solve-A", "solve-B", "solve-B-coordinate", "gsvd-A-alone", "gsvd", "estimate"])
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
        # the table goes to stdout too, then the report's path
        assert capsys.readouterr().out == (out / "qr_bench.csv").read_text() + f"{out / 'report.json'}\n"
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

    def test_dropped_columns_are_not_lost_orthogonality(self, tmp_path):
        # PreCholQR keeps 130 of these 160 columns: m2 reads the kept ones,
        # and m4 stays inf for the singular R
        out = tmp_path / "qb"
        assert main(["qr-bench", "--nu", "2.5", "--cols", "160", "--out", str(out)]) == 0
        row = {r["alg"]: r for r in _read_csv(out / "qr_bench.csv")}["PreCholQR"]
        assert float(row["m2"]) <= 1e-13
        assert float(row["m4"]) == np.inf


class TestKleDefaults:
    """A KLE pencil's missing --ell or --n is read from ``MaternConfig.ell``
    and ``Grid1D.n`` when the command runs, by every command that takes one."""

    @pytest.mark.parametrize("argv", [["qr-bench", "--nu", "1.5", "--cols", "10"],
                                      ["kle", "--nu", "1.5", "--k", "5"],
                                      ["estimate", "--nu", "1.5", "--k", "5"]])
    def test_defaults_follow_the_dataclasses(self, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(rg.kle.Grid1D, "n", 57)
        monkeypatch.setattr(rg.kle.MaternConfig, "ell", 0.75)
        out = tmp_path / "run"
        assert main([*argv, "--seed", "3", "--out", str(out)]) == 0
        config = _read_report(out)["config"]
        assert (config["ell"], config["n"]) == (0.75, 57)


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
        # kle is solve's body on the KLE pencil: its modes, eigenvalues and
        # counts are the two-pass solve's, and its rel_eigenvalue_error is the
        # dense oracle's error of kle_solve's eigenvalues
        out = tmp_path / "kle"
        code = main(["kle", "--nu", "1.5", "--ell", "0.5", "--n", "301", "--k", "12", "--p", "5",
                     "--seed", "9", "--out", str(out)])
        assert code == 0
        grid, cfg = rg.Grid1D(a=-1.0, b=1.0, n=301), rg.MaternConfig(nu=1.5, ell=0.5)
        sol = rg.kle_solve(grid, cfg, k=12, p=5, seed=9)
        np.testing.assert_array_equal(rg.load_matrix_market(out / "modes.mtx"), sol.modes)
        pencil = rg.kle_pencil(grid, cfg)
        direct = rg.ghep_two_pass(pencil.A, pencil.B, rg.SketchConfig(k=12, p=5, seed=9))
        rep = _read_report(out)
        assert rep["eigenvalues"] == direct.eigenvalues.tolist()
        assert rep["counts"] == direct.counts
        assert rep["rel_eigenvalue_error"] == kle_rel_error(grid, cfg, sol.eigenvalues)

    def test_beyond_dense_scale(self, tmp_path):
        out = tmp_path / "kle"
        code = main(["kle", "--nu", "2.5", "--ell", "0.5", "--n", "20000", "--k", "10",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        rep = _read_report(out)
        assert "rel_eigenvalue_error" not in rep
        assert len(_read_csv(out / "spectrum.csv")) == 10

    def test_oracle_runs_no_dense_cholesky(self, tmp_path, monkeypatch):
        # the oracle column reads the mass operator's banded factor: B is
        # neither Cholesky-factored densely nor factored inside an eigensolve
        choleskys, generalized, sparse = _spy_factorizations(monkeypatch)
        out = tmp_path / "kle"
        assert main(["kle", "--nu", "1.5", "--n", "400", "--k", "10", "--seed", "3",
                     "--out", str(out)]) == 0
        assert choleskys == [] and generalized == [] and sparse == []
        assert _read_report(out)["rel_eigenvalue_error"] <= 1e-4

    def test_fewer_eigenvalues_than_k_are_reported_on_stderr(self, tmp_path, capsys):
        # the block rank rule keeps 126 of the 160 sketch columns of this
        # smooth kernel; the run still exits 0 with its usual report
        out = tmp_path / "kle"
        code = main(["kle", "--nu", "2.5", "--k", "150", "--p", "10", "--seed", "7", "--out", str(out)])
        assert code == 0
        rep = _read_report(out)
        m = len(_read_csv(out / "spectrum.csv"))
        assert m == len(rep["eigenvalues"]) == rep["diagnostics"]["effective_rank"] < 150
        err = capsys.readouterr().err.splitlines()
        assert err == [f"randghep: warning: {m} eigenvalues returned of the 150 asked for (--k); "
                       f"the sketch's effective_rank is {m}"]

    def test_no_warning_when_k_eigenvalues_are_returned(self, tmp_path, capsys):
        out = tmp_path / "kle"
        assert main(["kle", "--nu", "2.5", "--k", "100", "--p", "10", "--seed", "7", "--out", str(out)]) == 0
        assert len(_read_csv(out / "spectrum.csv")) == 100
        assert capsys.readouterr().err == ""

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
        assert rep["sketch_columns"] == 8 and len(rep["trajectory"]) == 1
        assert rep["source"] == "lanczos_certificate"

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
        # a failure probability alpha^-r that underflows: to zero (1e300^-2),
        # or to the least subnormal number (4e161^-2), whose second check
        # budget underflows to zero
        ["--alpha", "1e300", "--r", "2", "--tol", "1e-3", "--grow"],
        ["--alpha", "1e300", "--r", "2"],
        ["--alpha", "4e161", "--r", "2", "--tol", "1e-3", "--grow"],
        ["--grow", "--tol", "nan"],
        ["--grow", "--tol", "-1"],
        ["--tol", "nan"],
        ["--tol", "-1"],
        ["--tol", "0"],
        # a file that is given but would not be solved is an error, not ignored
        ["--A", "{eye}"],
        ["--B", "{eye}"],
        ["--A", "{eye}", "--B", "{eye}"],
        # a KLE option next to a file pencil ("{files}" stands for --A/--B in
        # place of the --nu/--n pencil)
        ["{files}", "--n", "50"],
        ["{files}", "--ell", "9"],
    ])
    def test_bad_estimator_input_exits_2(self, tmp_path, extra):
        eye = _write_eye(tmp_path / "eye.mtx")
        out = tmp_path / "est"
        pencil = ["--nu", "2.5", "--n", "101"]
        if extra[0] == "{files}":
            pencil, extra = ["--A", eye, "--B", eye], extra[1:]
        code = main(["estimate", *pencil, "--k", "5", "--seed", "4",
                     "--out", str(out), *[arg.format(eye=eye) for arg in extra]])
        assert code == 2
        assert not (out / "report.json").exists()

    def test_probes_beyond_the_certificate_exit_2(self, tmp_path, capsys):
        # at n = 101 and alpha = 2, r = 40 leaves the last possible check a
        # failure budget so small that its Lanczos slack reaches 1; r = 30 does not
        argv = ["estimate", "--nu", "2.5", "--n", "101", "--k", "5", "--alpha", "2",
                "--tol", "1e-3", "--grow"]
        out = tmp_path / "r40"
        assert main([*argv, "--r", "40", "--out", str(out)]) == 2
        assert not (out / "report.json").exists()
        assert "2.0^-40" in capsys.readouterr().err
        out = tmp_path / "r30"
        assert main([*argv, "--r", "30", "--out", str(out)]) == 0
        rep = _read_report(out)
        assert rep["converged"] is True
        assert all(math.isfinite(t["certified"]) for t in rep["trajectory"] if t["certified"] is not None)

    @pytest.mark.parametrize("grow", [[], ["--grow", "--tol", "1e9"]])
    def test_oracle_above_cap_exits_2_before_any_apply(self, tmp_path, monkeypatch, grow):
        applied = []
        apply = rg.LinearMap.apply

        def spy(op, X):
            applied.append(X)
            return apply(op, X)

        monkeypatch.setattr(rg.LinearMap, "apply", spy)
        out = tmp_path / "est"
        code = main(["estimate", "--nu", "1.5", "--n", str(rg.kle.ORACLE_MAX_N + 1), "--k", "5",
                     "--oracle", *grow, "--out", str(out)])
        assert code == 2
        assert not (out / "report.json").exists()
        assert applied == []

    def test_without_growth_is_the_first_round(self, tmp_path):
        # the same loop with and without --grow: at a tolerance met by the
        # first round, the single-round report is the grown run's first round,
        # its certificate e bitwise included; only the trigger differs, since
        # a round that appends nothing draws no probes
        reps = []
        for grow in ([], ["--grow"]):
            out = tmp_path / f"est{len(grow)}"
            assert main(["estimate", "--nu", "1.5", "--n", "101", "--k", "8", "--tol", "1e9",
                         *grow, "--seed", "4", "--out", str(out)]) == 0
            reps.append(_read_report(out))
        single, grown = reps
        assert single["sketch_columns"] == grown["sketch_columns"] == 8
        assert single["e"] == grown["e"] == grown["trajectory"][0]["certified"]
        assert single["trajectory"] == [{**r, "estimate": None} for r in grown["trajectory"]]
        assert grown["trajectory"][0]["estimate"] > 0.0
        assert single["source"] == grown["source"] == "lanczos_certificate"
        assert single["converged"] is grown["converged"] is True
        assert single["probability_floor"] == grown["probability_floor"] == 1.0 - 2.0**-5
        assert single["certificate"] == grown["certificate"]

    def test_grown_file_pencil_is_certified(self, tmp_path):
        # a dense B whitens with its own Cholesky factor: the grown e is a
        # certified bound on the exact range error, and the report splits the
        # operator columns between the sketch and the certificate
        grid = rg.Grid1D(a=-1.0, b=1.0, n=81)
        pencil = rg.kle_pencil(grid, rg.MaternConfig(nu=1.5, ell=0.5))
        rg.save_matrix_market(tmp_path / "a.mtx", pencil.dense_a)
        rg.save_matrix_market(tmp_path / "b.mtx", rg.assemble_mass_1d(grid))
        out = tmp_path / "est"
        code = main(["estimate", "--A", str(tmp_path / "a.mtx"), "--B", str(tmp_path / "b.mtx"),
                     "--k", "5", "--tol", "1e-5", "--grow", "--oracle", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        rep = _read_report(out)
        assert rep["converged"] is True and rep["source"] == "lanczos_certificate"
        assert rep["probability_floor"] == 1.0 - 2.0**-5
        assert rep["range_error_exact"] <= rep["e"] <= 1e-5
        checks = [t for t in rep["trajectory"] if t["certified"] is not None]
        assert checks[0] is rep["trajectory"][0] and checks[-1]["certified"] == rep["e"]
        cert = rep["certificate"]
        assert cert["checks"] == len(checks) and cert["b_applies"] == len(checks)
        assert cert["a_applies"] == 2 * cert["lanczos_steps"] * len(checks)
        # the sketch applied each of its columns once, plus the last round's block
        assert rep["sketch_applies"]["a_applies"] == rep["sketch_columns"] + 10
        assert rep["sketch_applies"]["b_solves"] == rep["sketch_columns"] + 10

    def test_oracle_factors_b_once(self, tmp_path, monkeypatch):
        # the certificate's whitening and the exact range error both use the
        # factor that dense_spd made for the B-operator
        a_path, b_path = _write_kle_pencil(tmp_path, 81)
        choleskys, generalized, sparse = _spy_factorizations(monkeypatch)
        code = main(["estimate", "--A", a_path, "--B", b_path, "--k", "5", "--tol", "1e-5",
                     "--grow", "--oracle", "--seed", "3", "--out", str(tmp_path / "est")])
        assert code == 0
        assert choleskys == [(81, 81)]
        assert generalized == [] and sparse == []
        assert _read_report(tmp_path / "est")["range_error_exact"] > 0.0

    def test_kle_oracle_runs_no_dense_cholesky(self, tmp_path, monkeypatch):
        # the mass operator's banded factor whitens the certificate's starts
        # and serves the exact range error: no dense Cholesky runs
        choleskys, generalized, sparse = _spy_factorizations(monkeypatch)
        out = tmp_path / "est"
        assert main(["estimate", "--nu", "1.5", "--n", "201", "--k", "10", "--oracle",
                     "--seed", "3", "--out", str(out)]) == 0
        assert choleskys == [] and generalized == [] and sparse == []
        rep = _read_report(out)
        assert 0.0 < rep["range_error_exact"] <= rep["e"]

    def test_oracle_factors_coordinate_b_once_each_way(self, tmp_path, monkeypatch):
        # a coordinate B: one sparse factorization serves the operator, the
        # certificate's whitening and the oracle; no dense Cholesky runs
        a_path, b_path = _write_coordinate_kle_pencil(tmp_path, 81)
        choleskys, generalized, sparse = _spy_factorizations(monkeypatch)
        code = main(["estimate", "--A", a_path, "--B", b_path, "--k", "5", "--tol", "1e-5",
                     "--grow", "--oracle", "--seed", "3", "--out", str(tmp_path / "est")])
        assert code == 0
        assert sparse == [(81, 81)] and choleskys == []
        assert generalized == []

    def test_grown_coordinate_pencil_is_certified(self, tmp_path):
        # the sparse backend whitens by its LDL^T factor, so the grown e keeps
        # its proven floor and bounds the exact range error
        a_path, b_path = _write_coordinate_kle_pencil(tmp_path, 81)
        out = tmp_path / "est"
        code = main(["estimate", "--A", a_path, "--B", b_path, "--k", "5", "--tol", "1e-5",
                     "--grow", "--oracle", "--seed", "3", "--out", str(out)])
        assert code == 0
        rep = _read_report(out)
        assert rep["converged"] is True and rep["source"] == "lanczos_certificate"
        assert rep["probability_floor"] == 1.0 - 2.0**-5
        assert rep["range_error_exact"] <= rep["e"] <= 1e-5

    @pytest.mark.parametrize("storage", ["array", "coordinate"])
    def test_asymmetric_file_a_exits_2(self, tmp_path, storage):
        # the certificate assumes a symmetric A, as the solvers' probe does
        A = np.eye(6)
        A[0, 5] = 1.0
        a_path = _write_mtx(tmp_path / "a.mtx", A, storage)
        out = tmp_path / "est"
        code = main(["estimate", "--A", a_path, "--B", _write_eye(tmp_path / "b.mtx", 6), "--k", "2",
                     "--out", str(out)])
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


class TestEstimateSettings:
    """Property: any --alpha in (1, 1e308], --r in 1..64 and --tol, with or
    without --grow, ends ``estimate`` with exit 0 or 2, never a traceback, and
    every report it writes is a certificate with a floor in [0, 1]."""

    @given(
        alpha=st.floats(1.0, 1e308, exclude_min=True),
        r=st.integers(1, 64),
        tol=st.none() | st.floats(0.0, exclude_min=True, allow_infinity=False),
        grow=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_exits_0_or_2(self, alpha, r, tol, grow):
        extra = ([] if tol is None else ["--tol", repr(tol)]) + (["--grow"] if grow else [])
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "est"
            code = main(["estimate", "--nu", "1.5", "--n", "41", "--k", "5", "--alpha", repr(alpha),
                         "--r", str(r), *extra, "--seed", "3", "--out", str(out)])
            assert code in (0, 2)
            assert (out / "report.json").exists() is (code == 0)
            if code == 0:
                rep = _read_report(out)
                assert rep["source"] == "lanczos_certificate"
                assert 0.0 <= rep["probability_floor"] <= 1.0


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


class TestCoordinateA:
    """A coordinate-storage A keeps its storage: its sparse operator gives the
    array file's values, a large sparse A needs no dense copy, and --oracle,
    which densifies it, is capped at ``kle.ORACLE_MAX_N``."""

    @pytest.mark.parametrize("method", METHOD_CHOICES)
    def test_solve_matches_the_array_file(self, tmp_path, method):
        a_path, b_path = _write_coordinate_kle_pencil(tmp_path, 201)
        coo_a = _write_mtx(tmp_path / "a_coo.mtx", rg.load_matrix_market(a_path), "coordinate")
        lams = []
        for path in (a_path, coo_a):
            out = tmp_path / Path(path).stem
            assert main(["solve", "--A", path, "--B", b_path, "--k", "20", "--p", "10", "--method", method,
                         "--seed", "4", "--out", str(out)]) == 0
            lams.append(np.array(_read_report(out)["eigenvalues"]))
        assert lams[0].size == lams[1].size == 20
        assert np.sum(np.abs(lams[1] - lams[0])) <= 1e-14 * np.sum(np.abs(lams[0]))

    def test_gsvd_matches_the_array_file(self, tmp_path):
        rng = np.random.default_rng(8)
        G = rng.standard_normal((70, 50)) * np.geomspace(1.0, 1e-6, 50)
        t_path = _write_mtx(tmp_path / "t.mtx", 4.0 * np.eye(50) + np.eye(50, k=1) + np.eye(50, k=-1),
                            "coordinate")
        sigmas = []
        for storage in ("array", "coordinate"):
            out = tmp_path / storage
            assert main(["gsvd", "--A", _write_mtx(tmp_path / f"a_{storage}.mtx", G, storage), "--T", t_path,
                         "--k", "10", "--p", "5", "--seed", "4", "--out", str(out)]) == 0
            sigmas.append(np.array(_read_report(out)["singular_values"]))
        assert sigmas[0].size == sigmas[1].size == 10
        assert np.max(np.abs(sigmas[1] - sigmas[0])) <= 1e-14 * sigmas[0][0]

    def test_large_diagonal_a_needs_no_dense_copy(self, tmp_path):
        # a dense copy of A would take 80 GB; each command's whole process stays below 1 GB
        n = 100_000
        a_path = _write_mtx(tmp_path / "a.mtx", scipy.sparse.diags(np.geomspace(1.0, 1e-3, n)), "coordinate")
        b_path = _write_mtx(tmp_path / "b.mtx", scipy.sparse.eye(n), "coordinate")
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
            "from randghep.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        for argv in (["solve", "--A", a_path, "--B", b_path, "--k", "5", "--p", "5"],
                     ["estimate", "--A", a_path, "--B", b_path, "--k", "5"],
                     ["gsvd", "--A", a_path, "--S", b_path, "--T", b_path, "--k", "5"]):
            proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(tmp_path / argv[0])],
                                  env=_child_env(dict(os.environ)), capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr[-2000:]
            exit_code, maxrss_kb = map(int, proc.stdout.splitlines()[-1].split())
            assert exit_code == 0, proc.stderr[-2000:]
            assert maxrss_kb <= 1 << 20, argv

    @pytest.mark.parametrize("command", [["solve"], ["estimate"], ["estimate", "--grow", "--tol", "1e9"]])
    def test_oracle_above_cap_exits_2_before_any_apply(self, tmp_path, monkeypatch, command):
        n = rg.kle.ORACLE_MAX_N + 1
        a_path = _write_mtx(tmp_path / "a.mtx", scipy.sparse.eye(n), "coordinate")
        applied = []
        apply = rg.LinearMap.apply

        def spy(op, X):
            applied.append(X)
            return apply(op, X)

        monkeypatch.setattr(rg.LinearMap, "apply", spy)
        out = tmp_path / "run"
        assert main([command[0], "--A", a_path, "--k", "5", "--oracle", *command[1:], "--out", str(out)]) == 2
        assert list(out.iterdir()) == []
        assert applied == []


class TestIdentityWeights:
    """``gsvd`` without --S/--T is the plain SVD, and ``solve`` without --B the
    B = I EVD."""

    def test_singular_values(self, tmp_path):
        Ad = np.diag([5.0, 3.0, 1.0, 0.0, 0.0])
        rg.save_matrix_market(tmp_path / "a.mtx", Ad)
        out = tmp_path / "s"
        code = main(["gsvd", "--A", str(tmp_path / "a.mtx"), "--k", "3", "--p", "2",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        rep = _read_report(out)
        np.testing.assert_allclose(rep["singular_values"], [5, 3, 1], atol=1e-11)
        assert rep["config"]["S"] is None and rep["config"]["T"] is None

    @pytest.mark.parametrize("method", ["two-pass", "single-pass"])
    def test_evd_rejects_asymmetric_matrix(self, tmp_path, method):
        rg.save_matrix_market(tmp_path / "a.mtx", np.random.default_rng(3).standard_normal((30, 30)))
        out = tmp_path / "s"
        code = main(["solve", "--A", str(tmp_path / "a.mtx"), "--k", "3", "--p", "2",
                     "--method", method, "--seed", "2", "--out", str(out)])
        assert code == 2
        assert not (out / "report.json").exists()

    def test_evd_modes(self, tmp_path):
        Ad = np.diag([4.0, 2.0, 1.0, 0.0, 0.0, 0.0])
        rg.save_matrix_market(tmp_path / "a.mtx", Ad)
        out = tmp_path / "s"
        code = main(["solve", "--A", str(tmp_path / "a.mtx"), "--k", "3", "--p", "3",
                     "--method", "two-pass", "--seed", "2", "--out", str(out)])
        assert code == 0
        rep = _read_report(out)
        np.testing.assert_allclose(rep["eigenvalues"], [4, 2, 1], atol=1e-11)
        assert rep["config"]["B"] is None

    @pytest.mark.parametrize("method", METHOD_CHOICES)
    def test_solve_without_b_takes_the_oracle(self, tmp_path, method):
        # the identity's dense factor serves the oracle, so --oracle works on (A, I)
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        lams = 0.2 ** np.arange(40)
        rg.save_matrix_market(tmp_path / "a.mtx", (Q * lams) @ Q.T)
        out = tmp_path / "s"
        assert main(["solve", "--A", str(tmp_path / "a.mtx"), "--k", "4", "--p", "6", "--method", method,
                     "--oracle", "--seed", "3", "--out", str(out)]) == 0
        rows = _read_csv(out / "spectrum.csv")
        np.testing.assert_allclose([float(r["lambda_oracle"]) for r in rows], lams[:4], rtol=1e-12)
        assert all(float(r["abs_err"]) <= 1e-5 for r in rows)
        assert math.isfinite(_read_report(out)["range_error_exact"])

    def test_estimate_without_b_keeps_its_floor(self, tmp_path):
        # the identity whitens, so e is a certified bound with its probability floor
        rng = np.random.default_rng(6)
        Q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        rg.save_matrix_market(tmp_path / "a.mtx", (Q * 0.7 ** np.arange(60)) @ Q.T)
        out = tmp_path / "e"
        assert main(["estimate", "--A", str(tmp_path / "a.mtx"), "--k", "10", "--oracle",
                     "--seed", "3", "--out", str(out)]) == 0
        rep = _read_report(out)
        assert rep["source"] == "lanczos_certificate" and rep["probability_floor"] == 1.0 - 2.0 ** -5
        assert rep["config"]["B"] is None
        assert rep["range_error_exact"] <= rep["e"]

    @pytest.mark.parametrize("argv", [["estimate", "--B", "{eye}", "--k", "2"],
                                      ["solve", "--A", "{rect}", "--k", "2", "--p", "1"],
                                      ["estimate", "--A", "{rect}", "--k", "2"]],
                             ids=["estimate-b-without-a", "solve-rectangular", "estimate-rectangular"])
    def test_exits_2(self, tmp_path, argv):
        paths = {"eye": _write_eye(tmp_path / "eye.mtx"),
                 "rect": _write_mtx(tmp_path / "rect.mtx", np.ones((5, 4)), "array")}
        out = tmp_path / "run"
        assert main([arg.format(**paths) for arg in argv] + ["--seed", "3", "--out", str(out)]) == 2
        assert not (out / "report.json").exists()

    def test_one_weight_given(self, tmp_path):
        # --T alone: S = I on the left, so U is orthonormal in the plain inner product
        rng = np.random.default_rng(7)
        Td = np.diag(rng.uniform(1.0, 3.0, 8))
        paths = [_write_mtx(tmp_path / f"{name}.mtx", M, "array")
                 for name, M in (("a", rng.standard_normal((10, 8))), ("t", Td))]
        out = tmp_path / "g"
        assert main(["gsvd", "--A", paths[0], "--T", paths[1], "--k", "4", "--p", "4",
                     "--seed", "6", "--out", str(out)]) == 0
        rep = _read_report(out)
        assert len(rep["singular_values"]) == 4
        assert rep["orthogonality_residual_U"] <= 1e-10 and rep["orthogonality_residual_V"] <= 1e-10
        assert rep["config"]["S"] is None and rep["config"]["T"] == paths[1]

    @pytest.mark.parametrize("scale", [520, -520])
    def test_symmetry_probe_at_extreme_scales(self, tmp_path, scale):
        # an asymmetric A exits 2 and a symmetric one solves, at a scale where
        # the probe's ||Ax||^2 leaves the normal range
        G = np.random.default_rng(6).standard_normal((30, 30))
        for name, M, code in (("asym", G, 2), ("sym", G + G.T, 0)):
            rg.save_matrix_market(tmp_path / f"{name}.mtx", np.ldexp(M, scale))
            out = tmp_path / name
            assert main(["solve", "--A", str(tmp_path / f"{name}.mtx"), "--k", "3", "--p", "2",
                         "--seed", "1", "--out", str(out)]) == code
            assert (out / "report.json").exists() == (code == 0)


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


class TestParser:
    """``main`` builds its parser once per process and reuses it."""

    def test_built_once(self):
        assert _parser() is _parser()
        assert _parser().format_help() == build_parser().format_help()

    #: Each subcommand's option strings and --p default.  The parser declares
    #: the shared options once; no subcommand gains or loses one.
    OPTIONS = {
        "solve": ({"--A", "--B", "--k", "--p", "--method", "--oracle", "--save-modes"}, 20),
        "kle": ({"--nu", "--ell", "--n", "--k", "--p", "--method"}, 5),
        "gsvd": ({"--A", "--S", "--T", "--k", "--p"}, 10),
        "estimate": ({"--A", "--B", "--nu", "--ell", "--n", "--k", "--alpha", "--r", "--tol", "--grow",
                      "--oracle"}, None),
        "qr-bench": ({"--nu", "--ell", "--n", "--cols"}, None),
    }

    def test_each_command_keeps_its_options(self):
        commands = next(action.choices for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        assert set(commands) == set(self.OPTIONS)
        for name, (options, p_default) in self.OPTIONS.items():
            got = {s for action in commands[name]._actions for s in action.option_strings}
            assert got == options | {"-h", "--help", "--seed", "--out"}, name
            assert commands[name].get_default("p") == p_default, name

    def test_calls_in_one_process_write_what_fresh_processes_write(self, tmp_path):
        eye = _write_eye(tmp_path / "eye.mtx", n=6)
        commands = [["kle", "--nu", "1.5", "--n", "60", "--k", "4"],
                    ["solve", "--A", eye, "--k", "2", "--p", "2", "--method", "single-pass"]]
        for i, argv in enumerate(commands):
            assert main(argv + ["--seed", "5", "--out", str(tmp_path / f"in{i}")]) == 0
        for i, argv in enumerate(commands):
            assert _run_cli(argv + ["--seed", "5", "--out", str(tmp_path / f"fresh{i}")]).returncode == 0
        for i in range(len(commands)):
            written = sorted(path.name for path in (tmp_path / f"in{i}").iterdir())
            assert written == sorted(path.name for path in (tmp_path / f"fresh{i}").iterdir())
            for name in written:
                ours, fresh = ((tmp_path / f"{run}{i}" / name).read_bytes() for run in ("in", "fresh"))
                if name == "report.json":
                    ours, fresh = ({**json.loads(data), "wall_time_s": None} for data in (ours, fresh))
                assert ours == fresh, (commands[i][0], name)
