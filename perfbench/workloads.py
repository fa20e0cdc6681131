"""The three benchmark workloads: their inputs, command lines and output checks.

Each workload is one ``randghep`` command run in-process at a fixed size.
``prepare`` is the set-up: it writes the inputs the command reads and loads
or computes the references its outputs are checked against.  ``check``
returns the reason an op's output is wrong, or None, and the op's relative
error against the reference.

``toy=True`` shrinks every size so the whole benchmark runs in seconds; the
self-test and the warm-up op of the set-up use it.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import inputs

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def _read_spectrum(out: Path) -> list[dict]:
    with open(out / "spectrum.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _read_report(out: Path, command: str) -> dict:
    report = json.loads((out / "report.json").read_text())
    if report.get("command") != command:
        raise ValueError(f"report.json names command {report.get('command')!r}")
    return report


def _rel_err(approx: np.ndarray, ref: np.ndarray) -> float:
    return float(np.sum(np.abs(approx - ref)) / np.sum(np.abs(ref)))


def _floats(rows: list[dict], column: str) -> np.ndarray:
    values = np.array([float(r[column]) for r in rows])
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite {column}")
    return values


def _mm_shape(path: Path) -> tuple[int, int]:
    """Rows and columns from a Matrix Market header, without reading the body."""
    with open(path) as fh:
        for line in fh:
            if not line.startswith("%"):
                rows, cols = line.split()[:2]
                return int(rows), int(cols)
    raise ValueError(f"{path.name} has no size line")


def _stored_reference(key: str, nu: float, ell: float, n: int) -> np.ndarray:
    ref = json.loads(REFERENCE_FILE.read_text())[key]
    if (ref["nu"], ref["ell"], ref["n"]) != (nu, ell, n):
        raise ValueError(f"{REFERENCE_FILE.name} holds another {key} pencil; rerun make_reference.py")
    return np.array(ref["eigenvalues"])


class Workload:
    """One benchmark workload; BENCHMARK.json records why each was chosen."""

    name = ""
    #: Methods cycled over the ops; an op of index i runs methods[i % len].
    methods: tuple = (None,)

    def __init__(self, toy: bool = False) -> None:
        self.toy = toy

    def prepare(self, workdir: Path, seed: int) -> None:
        raise NotImplementedError

    def argv(self, method, op_seed: int, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, out: Path) -> tuple[str | None, float | None]:
        try:
            return None, self._check(out)
        except (OSError, KeyError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}", None

    def _check(self, out: Path) -> float:
        raise NotImplementedError


class Kle(Workload):
    """``randghep kle`` at production size, cycling the three methods."""

    name = "kle-4000"
    methods = ("two-pass", "single-pass", "nystrom")
    NU, ELL = 2.5, 0.5

    def __init__(self, toy: bool = False) -> None:
        super().__init__(toy)
        self.n, self.k, self.p = (200, 10, 10) if toy else (4000, 100, 10)
        # Measured sum|lam~ - lam| / sum|lam|: 3e-10 (Nystrom) to 2.4e-8
        # (single-pass) at n=4000, up to 2e-4 (single-pass) at toy size.
        self.tol = 1e-3 if toy else 1e-6

    def prepare(self, workdir: Path, seed: int) -> None:
        if self.toy:
            A, M = inputs.kle_pencil_1d(self.n, self.NU, self.ELL)
            self.ref = inputs.top_eigenvalues(A, M, self.k)
        else:
            self.ref = _stored_reference(self.name, self.NU, self.ELL, self.n)[: self.k]

    def argv(self, method, op_seed: int, out: Path) -> list[str]:
        return ["kle", "--nu", str(self.NU), "--ell", str(self.ELL), "--n", str(self.n),
                "--k", str(self.k), "--p", str(self.p), "--method", method,
                "--seed", str(op_seed), "--out", str(out)]

    def _check(self, out: Path) -> float:
        _read_report(out, "kle")
        rows = _read_spectrum(out)
        if len(rows) != self.k:
            raise ValueError(f"spectrum.csv has {len(rows)} rows, expected {self.k}")
        if _mm_shape(out / "modes.mtx") != (self.n, self.k):
            raise ValueError("modes.mtx has the wrong shape")
        err = _rel_err(_floats(rows, "lambda_approx"), self.ref)
        if not err <= self.tol:
            raise ValueError(f"eigenvalue error {err:.3g} exceeds {self.tol:g}")
        return err


class EstimateGrow(Workload):
    """``randghep estimate --grow``: the MGS-R basis grows by 10 columns a round."""

    name = "estimate-grow"
    NU, ELL = 0.5, 0.5

    def __init__(self, toy: bool = False) -> None:
        super().__init__(toy)
        self.n, self.k, self.tol = (300, 5, 5e-3) if toy else (2000, 20, 5e-4)

    def prepare(self, workdir: Path, seed: int) -> None:
        if self.toy:
            A, M = inputs.kle_pencil_1d(self.n, self.NU, self.ELL)
            self.lambda_max = float(inputs.top_eigenvalues(A, M, 1)[0])
        else:
            self.lambda_max = float(_stored_reference(self.name, self.NU, self.ELL, self.n)[0])

    def argv(self, method, op_seed: int, out: Path) -> list[str]:
        return ["estimate", "--nu", str(self.NU), "--ell", str(self.ELL), "--n", str(self.n),
                "--k", str(self.k), "--tol", repr(self.tol), "--grow",
                "--seed", str(op_seed), "--out", str(out)]

    def _check(self, out: Path) -> float:
        report = _read_report(out, "estimate")
        e = float(report["e"])
        if report["converged"] is not True:
            raise ValueError("sketch growth did not converge")
        if not (math.isfinite(e) and 0.0 < e <= self.tol):
            raise ValueError(f"estimate e={e!r} is not within (0, tol={self.tol:g}]")
        if report["trajectory"][-1]["columns"] != report["sketch_columns"]:
            raise ValueError("trajectory does not end at the reported sketch size")
        # The estimated range error ||(I - QQ^T B) C||_B relative to ||C||_B = lambda_1.
        return e / self.lambda_max


class SolveOracle(Workload):
    """``randghep solve --oracle`` on a seeded 2D Matern pencil read from files."""

    name = "solve-oracle"
    # The lambda/sine bound flags are Rayleigh-Ritz bounds; the single-pass T is
    # not a Rayleigh quotient, and the flags are often False for it by design.
    methods = ("two-pass", "nystrom")
    NU, ELL = 1.5, 0.5

    def __init__(self, toy: bool = False) -> None:
        super().__init__(toy)
        self.m, self.k, self.p = (8, 10, 5) if toy else (32, 100, 10)
        # Measured sum|lam~ - lam| / sum|lam| at n=1024: 3e-4 (Nystrom) to
        # 1.2e-3 (two-pass).
        self.tol = 1e-1 if toy else 1e-2

    def prepare(self, workdir: Path, seed: int) -> None:
        A, B = inputs.matern_pencil_2d(self.m, seed, self.NU, self.ELL)
        self.a_path, self.b_path = inputs.write_pencil(workdir, A, B)
        self.ref = inputs.top_eigenvalues(A, B.toarray(), self.k)

    def argv(self, method, op_seed: int, out: Path) -> list[str]:
        return ["solve", "--A", self.a_path, "--B", self.b_path, "--k", str(self.k),
                "--p", str(self.p), "--method", method, "--oracle",
                "--seed", str(op_seed), "--out", str(out)]

    def _check(self, out: Path) -> float:
        _read_report(out, "solve")
        rows = _read_spectrum(out)
        if len(rows) != self.k:
            raise ValueError(f"spectrum.csv has {len(rows)} rows, expected {self.k}")
        for flag in ("lambda_bound_ok", "sine_bound_ok"):
            bad = [r["index"] for r in rows if r[flag] != "True"]
            if bad:
                raise ValueError(f"{flag} is not True at indices {bad[:5]}")
        oracle = _floats(rows, "lambda_oracle")
        if np.max(np.abs(oracle - self.ref)) > 1e-10 * abs(self.ref[0]):
            raise ValueError("oracle eigenvalues disagree with the set-up reference")
        err = _rel_err(_floats(rows, "lambda_approx"), oracle)
        if not err <= self.tol:
            raise ValueError(f"eigenvalue error {err:.3g} exceeds {self.tol:g}")
        return err


WORKLOADS = {w.name: w for w in (Kle, EstimateGrow, SolveOracle)}
