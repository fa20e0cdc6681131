"""Golden outputs of the three GHEP solvers and the B = I randomized EVD.

``tests/data/ghep_golden.json`` pins, for fixed seeds, every solver on a KLE
pencil (nu = 2.5, ell = 0.5, n = 201, k = 20, p = 5) and on an exact-rank
pencil, and the B = I EVD (the two-pass and single-pass solvers on the KLE
A with B = I) as the ``evd-`` cases.  The solvers' weighted QR is
PreCholQR, the last part of each solver case id.  Counts and the integer,
boolean and string diagnostics must match exactly, eigenvalues to a relative
l1 error of 1e-13, and a case that raised must raise the same exception type.
Only cases whose values agree with one and with two BLAS threads are pinned.

The file records outputs of the code as it was before the solvers shared a
skeleton, less the records and keys of removed features (the fast path, the
constant ``qr_alg``); a refactor that changes any other value must say why.
The exact-rank cases' ``effective_rank``, ``dropped_dimensions`` and
``counts`` follow the rank rule of the sketch-preconditioned QR, which keeps
3 of the 7 columns of that rank-3 sketch.  ``python tests/test_ghep_golden.py``
(with ``src`` on ``PYTHONPATH``) prints the golden JSON of the current code on
stdout, and on stderr one line per case on how it moved from the committed
file: whether the counts and diagnostics are equal, and the largest relative
move of an eigenvalue.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import randghep as rg
from randghep.operators import ConfigError, NumericalError
from randghep.sketch import SketchConfig, _identity

from conftest import exact_rank_pencil, make_kle_pencil

GOLDEN = Path(__file__).parent / "data" / "ghep_golden.json"
EIG_RTOL = 1e-13

SOLVERS = {
    "two_pass": rg.ghep_two_pass,
    "single_pass": rg.ghep_single_pass,
    "nystrom": rg.ghep_nystrom,
}
QR_ALGS = ["precholqr"]


def case_ids() -> list[str]:
    ids = [f"{pencil}-{method}-{qr}" for pencil in ("kle", "exact_rank")
           for method in SOLVERS for qr in QR_ALGS]
    ids += ["evd-two_pass", "evd-single_pass"]
    return ids


def _pencil(name: str):
    if name == "exact_rank":
        Ad, Bd, _ = exact_rank_pencil(40, [10.0, 5.0, 1.0], b_kappa=100.0, seed=5)
        return rg.dense_operator(Ad), rg.dense_spd(Bd), SketchConfig(k=3, p=4, seed=17)
    pencil = make_kle_pencil(2.5, ell=0.5, n=201)
    return pencil.A, pencil.B, SketchConfig(k=20, p=5, seed=7)


def run_case(case_id: str) -> dict:
    """The golden record of one case: what the test compares."""
    try:
        if case_id.startswith("evd-"):
            A, _, cfg = _pencil("kle")
            lam = SOLVERS[case_id[4:]](A, _identity(A.dim_in), cfg).eigenvalues
            return {"eigenvalues": [float(v) for v in lam]}
        pencil, method, _ = case_id.split("-")
        A, B, cfg = _pencil(pencil)
        sol = SOLVERS[method](A, B, cfg)
    except (ConfigError, NumericalError) as exc:
        return {"raises": type(exc).__name__}
    return {
        "eigenvalues": [float(v) for v in sol.eigenvalues],
        "counts": {key: int(v) for key, v in sol.counts.items()},
        "diagnostics": {key: v for key, v in sol.diagnostics.items()
                        if isinstance(v, (bool, int, str))},
    }


GOLDEN_CASES = json.loads(GOLDEN.read_text())["cases"]


def summary(case_id: str, record: dict) -> str:
    """One line on how ``record`` moved from the committed golden: whether
    the counts and diagnostics are equal, and the largest relative move of an
    eigenvalue (with the relative l1 move that the test bounds)."""
    want = GOLDEN_CASES.get(case_id)
    if want is None:
        return f"{case_id}: not in the golden file"
    if "raises" in want or "raises" in record:
        same = record == want
        return f"{case_id}: raises {record.get('raises')}{'' if same else ', CHANGED from ' + str(want)}"
    equal = all(record.get(key) == want.get(key) for key in ("counts", "diagnostics"))
    line = f"{case_id}: counts and diagnostics {'equal' if equal else 'CHANGED'}"
    lam, ref = np.array(record["eigenvalues"]), np.array(want["eigenvalues"])
    if lam.shape != ref.shape:
        return line + f", {lam.size} eigenvalues in place of {ref.size}"
    move = np.abs(lam - ref)
    largest = float(np.max(move / np.abs(ref), initial=0.0)) if np.all(ref) else float(np.max(move, initial=0.0))
    return line + (f", eigenvalues moved <= {largest:.2g} relative "
                   f"(l1 {np.sum(move) / max(np.sum(np.abs(ref)), 1e-300):.2g})")


def test_golden_file_covers_the_grid():
    assert set(GOLDEN_CASES) <= set(case_ids())
    for pencil in ("kle", "exact_rank"):
        pinned = {tuple(cid.split("-")[1:]) for cid in GOLDEN_CASES if cid.startswith(pencil + "-")}
        assert pinned == {(m, q) for m in SOLVERS for q in QR_ALGS}


@pytest.mark.parametrize("case_id", sorted(GOLDEN_CASES))
def test_matches_golden(case_id):
    want = GOLDEN_CASES[case_id]
    got = run_case(case_id)
    if "raises" in want:
        assert got == want
        return
    assert "raises" not in got, got
    assert got.get("counts") == want.get("counts")
    assert got.get("diagnostics") == want.get("diagnostics")
    lam, ref = np.array(got["eigenvalues"]), np.array(want["eigenvalues"])
    assert lam.shape == ref.shape
    assert np.sum(np.abs(lam - ref)) <= EIG_RTOL * np.sum(np.abs(ref))


if __name__ == "__main__":
    # The golden JSON of the current code on stdout, and on stderr one
    # summary line per case against the committed file; see the diff with
    #   PYTHONPATH=src python tests/test_ghep_golden.py | diff tests/data/ghep_golden.json -
    records = {}
    for cid in sorted(case_ids()):
        records[cid] = run_case(cid)
        print(summary(cid, records[cid]), file=sys.stderr)
    print(json.dumps({"cases": records}, indent=1, sort_keys=True))
