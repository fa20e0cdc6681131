"""Golden outputs of the three GHEP solvers and the B = I randomized EVD.

``tests/data/ghep_golden.json`` pins, for fixed seeds, every solver on a KLE
pencil (nu = 2.5, ell = 0.5, n = 201, k = 20, p = 5) and on an exact-rank
pencil, and ``randomized_evd`` in both modes.  The solvers' weighted QR is
PreCholQR, the last part of each solver case id.  Counts and the integer,
boolean and string diagnostics must match exactly, eigenvalues to a relative
l1 error of 1e-13, and a case that raised must raise the same exception type.
Only cases whose values agree with one and with two BLAS threads are pinned.

The file records outputs of the code as it was before the solvers shared a
skeleton, less the records and keys of removed features (the fast path, the
constant ``qr_alg``); a refactor that changes any other value must say why.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import randghep as rg
from randghep.operators import ConfigError, NumericalError
from randghep.sketch import SketchConfig

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
            _, lam = rg.randomized_evd(A, cfg, mode=case_id[4:])
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
