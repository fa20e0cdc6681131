"""Run a fixed matrix of ``randghep`` commands and record everything they write.

Usage: ``PYTHONPATH=src python tests/cli_snapshot.py OUTDIR``

The script writes its own input files into ``OUTDIR/inputs``: a KLE file
pencil with B in array and in coordinate storage, a GSVD triple and a
symmetric matrix.  It then calls ``randghep.cli.main`` in this process for
each command of ``commands()``, with ``--out OUTDIR/runs/<name>``, and
records under ``OUTDIR/records/<name>`` the command's stdout, its stderr and
its exit code.  ``report.json`` is rewritten without ``wall_time_s``, the
only field that differs between two runs of one tree.  An exception that
escapes ``main`` is recorded by its type as the exit code.

Two trees give the same outputs when ``diff -r`` of their two OUTDIRs is
empty.  Paths are relative to OUTDIR, so the directory name does not show in
stdout.  The suite does not collect this file (its name does not start with
``test_``); run it with one BLAS thread (``RANDGHEP_THREADS=1``, the
default here), so that both trees see the same BLAS.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

os.environ.setdefault("RANDGHEP_THREADS", "1")

import numpy as np  # noqa: E402
import scipy.io  # noqa: E402
import scipy.sparse  # noqa: E402

from randghep import kle, save_matrix_market  # noqa: E402
from randghep.cli import main  # noqa: E402

SEED = "7"
METHODS = ("two-pass", "single-pass", "nystrom")


def write_inputs(directory: Path) -> None:
    """The KLE pencil (nu = 1.5, ell = 0.5, n = 400) as files, with B in
    array and in symmetric coordinate storage, and its A scaled by 2**512; a
    60 x 50 A with SPD weights S (array) and T (coordinate) for ``gsvd``; a
    symmetric 80 x 80 matrix."""
    directory.mkdir(parents=True)
    grid = kle.Grid1D(n=400)
    pencil = kle.kle_pencil(grid, kle.MaternConfig(nu=1.5, ell=0.5))
    M = kle.assemble_mass_1d(grid)
    save_matrix_market(directory / "a.mtx", pencil.dense_a)
    save_matrix_market(directory / "a_2p512.mtx", np.ldexp(pencil.dense_a, 512))
    save_matrix_market(directory / "b.mtx", M)
    scipy.io.mmwrite(directory / "b_coo.mtx", scipy.sparse.coo_matrix(M), symmetry="symmetric")
    rng = np.random.default_rng(11)
    G = rng.standard_normal((60, 50)) * np.geomspace(1.0, 1e-6, 50)
    S = rng.standard_normal((60, 60))
    T = 4.0 * np.eye(50) + np.eye(50, k=1) + np.eye(50, k=-1)
    save_matrix_market(directory / "gsvd_a.mtx", G)
    save_matrix_market(directory / "gsvd_s.mtx", S @ S.T + 60.0 * np.eye(60))
    scipy.io.mmwrite(directory / "gsvd_t.mtx", scipy.sparse.coo_matrix(T), symmetry="symmetric")
    Q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
    save_matrix_market(directory / "sym.mtx", (Q * np.geomspace(1.0, 1e-8, 80)) @ Q.T)


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv without --out) of every command; ``--seed`` is given where
    the command should run at the fixed seed."""
    files = {"array": ["--A", "inputs/a.mtx", "--B", "inputs/b.mtx"],
             "coo": ["--A", "inputs/a.mtx", "--B", "inputs/b_coo.mtx"]}
    cases = []
    for method in METHODS:
        for storage, pencil in files.items():
            cases.append((f"solve-{method}-{storage}",
                          ["solve", *pencil, "--k", "20", "--p", "10", "--method", method,
                           "--oracle", "--save-modes"]))
        for nu, ell, n, k, p in [(1.5, 0.5, 2000, 60, 10), (2.5, 0.5, 4000, 100, 10),
                                 (2.5, 2, 201, 100, 5), (0.5, 0.5, 1001, 30, 10)]:
            cases.append((f"kle-{method}-nu{nu}-ell{ell}-n{n}-k{k}",
                          ["kle", "--nu", str(nu), "--ell", str(ell), "--n", str(n), "--k", str(k),
                           "--p", str(p), "--method", method]))
    cases.append(("kle-short-k150", ["kle", "--nu", "2.5", "--k", "150", "--p", "10"]))
    kle_pencil = ["--nu", "1.5", "--ell", "0.5"]
    cases += [
        ("estimate-kle-n2000", ["estimate", *kle_pencil, "--n", "2000", "--k", "20"]),
        ("estimate-kle-n2000-grow", ["estimate", *kle_pencil, "--n", "2000", "--k", "10",
                                     "--tol", "1e-6", "--grow"]),
        ("estimate-kle-n600-grow-oracle", ["estimate", *kle_pencil, "--n", "600", "--k", "10",
                                           "--tol", "1e-6", "--grow", "--oracle"]),
        ("estimate-kle-defaults", ["estimate", "--nu", "2.5", "--k", "8", "--tol", "1e-3"]),
    ]
    for storage, pencil in files.items():
        cases += [
            (f"estimate-file-{storage}-oracle", ["estimate", *pencil, "--k", "20", "--oracle"]),
            (f"estimate-file-{storage}-grow-oracle", ["estimate", *pencil, "--k", "10", "--tol", "1e-5",
                                                      "--grow", "--oracle"]),
        ]
    cases.append(("gsvd", ["gsvd", "--A", "inputs/gsvd_a.mtx", "--S", "inputs/gsvd_s.mtx",
                           "--T", "inputs/gsvd_t.mtx", "--k", "10", "--p", "5"]))
    # the identity weights: the B = I EVD, the plain SVD and the B = I estimate
    sym = ["--A", "inputs/sym.mtx", "--k", "10"]
    for method in METHODS:
        cases.append((f"solve-sym-{method}", ["solve", *sym, "--p", "5", "--method", method]))
    cases.append(("solve-sym-two-pass-oracle", ["solve", *sym, "--p", "5", "--oracle"]))
    cases.append(("gsvd-sym", ["gsvd", *sym, "--p", "5"]))
    cases.append(("estimate-sym", ["estimate", *sym]))
    cases.append(("solve-rectangular", ["solve", "--A", "inputs/gsvd_a.mtx", "--k", "10"]))
    # a scale at which the sketch's column sums of squares overflow
    cases.append(("solve-two-pass-a-2p512", ["solve", "--A", "inputs/a_2p512.mtx", "--B", "inputs/b.mtx",
                                             "--k", "20", "--p", "10"]))
    cases.append(("qr-bench", ["qr-bench", "--n", "2000", "--cols", "100"]))
    # PreCholQR drops columns of this sketch
    cases.append(("qr-bench-nu2.5-cols160", ["qr-bench", "--nu", "2.5", "--cols", "160"]))
    # the KLE defaults of --ell and --n
    cases += [("qr-bench-defaults", ["qr-bench", "--nu", "1.5", "--cols", "20"]),
              ("kle-defaults", ["kle", "--nu", "0.5", "--k", "20", "--p", "5"])]
    cases = [(name, [*argv, "--seed", SEED]) for name, argv in cases]
    # the pencil errors: every one exits 2 before any apply
    cases += [
        ("error-estimate-no-pencil", ["estimate", "--k", "5"]),
        ("error-estimate-b-without-a", ["estimate", "--B", "inputs/b.mtx", "--k", "5"]),
        ("error-estimate-b-only", ["estimate", "--nu", "1.5", "--B", "inputs/b.mtx", "--k", "5"]),
        ("error-estimate-files-and-n", ["estimate", *files["array"], "--n", "50", "--k", "5"]),
        ("error-estimate-files-and-nu", ["estimate", *files["array"], "--nu", "1.5", "--k", "5"]),
        ("error-estimate-oracle-above-cap", ["estimate", "--nu", "1.5", "--n", "2001", "--k", "5",
                                             "--oracle"]),
        ("error-estimate-grow-without-tol", ["estimate", "--nu", "1.5", "--k", "5", "--grow"]),
        ("error-solve-missing-file", ["solve", "--A", "inputs/none.mtx", "--B", "inputs/b.mtx",
                                      "--k", "5"]),
        ("error-solve-b-without-a", ["solve", "--B", "inputs/b.mtx", "--k", "5"]),
        ("error-solve-kle-option", ["solve", *files["array"], "--nu", "1.5", "--k", "5"]),
        ("error-kle-file-option", ["kle", "--nu", "1.5", "--A", "inputs/a.mtx", "--k", "5"]),
        ("error-kle-no-nu", ["kle", "--k", "5"]),
    ]
    # seeds outside [0, 2**64), and output paths that cannot be written
    kle_small = ["kle", "--nu", "1.5", "--ell", "0.5", "--n", "300", "--k", "5"]
    for seed in ("-1", str(2**64 - 1), str(2**64), str(2**65 - 1)):
        cases.append((f"seed-{seed}", [*kle_small, "--seed", seed]))
    for command, argv in (("kle", kle_small), ("solve", ["solve", *files["array"], "--k", "5"])):
        for case in ("out-is-file", "out-below-file", "report-is-dir"):
            cases.append((f"{case}-{command}", [*argv, "--seed", SEED]))
    return cases


def out_path(name: str) -> Path:
    """The --out of case ``name``, made unwritable where the case asks for it."""
    runs = Path("runs")
    if name.startswith("out-is-file"):
        (runs / name).write_text("a file\n")
        return runs / name
    if name.startswith("out-below-file"):
        (runs / name).write_text("a file\n")
        return runs / name / "sub"
    if name.startswith("report-is-dir"):
        (runs / name / "report.json").mkdir(parents=True)
    return runs / name


def run(name: str, argv: list[str]) -> None:
    out = out_path(name)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse
            code = exc.code
        except Exception as exc:  # noqa: BLE001  (recorded, so that a diff shows it)
            code = f"uncaught {type(exc).__name__}"
    record = Path("records") / name
    record.mkdir(parents=True)
    (record / "argv").write_text(" ".join(argv) + "\n")
    (record / "stdout").write_text(stdout.getvalue())
    (record / "stderr").write_text(stderr.getvalue())
    (record / "exit").write_text(f"{code}\n")
    report = out / "report.json"
    if report.is_file():
        data = json.loads(report.read_text())
        data.pop("wall_time_s", None)
        report.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def snapshot(outdir: Path) -> None:
    outdir.mkdir(parents=True)
    os.chdir(outdir)
    write_inputs(Path("inputs"))
    Path("runs").mkdir()
    for name, argv in commands():
        run(name, argv)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    snapshot(Path(sys.argv[1]).resolve())
