"""Golden outputs of ``errors.grow_sketch_until`` on grown runs that converge.

``tests/data/growth_golden.json`` pins, for fixed seeds, the sketch size, the
number of certificate checks, the A-applies and the B-solves exactly, and
each certified value (every check's bound, and e) to a relative 1e-13.  The
cases are the benchmark's toy estimate-grow pencil (nu = 0.5, ell = 0.5,
n = 300, k0 = 5, tol = 5e-3), two more KLE pencils and a pencil with a dense
B.  B-applies are not pinned: a check that converges discards a block that
the loop has already QR'd, and that block's B-apply is the loop's business.
Only values that agree with one and with two BLAS threads are pinned.

The exact fields were recorded from the loop that drew its probes beside the
basis, and the loop that reads its trigger off the block it appends
reproduces them.  The certified values and e were re-recorded when the
weighted QR became sketch-preconditioned: a check bounds what the sketch's
trailing directions leave of the range, which the QR fixes only to its
roundoff (kappa(Y) reaches 7e7 at the stop), and the bounds moved by up to
1.2e-4 relative, so only bitwise-equal QR output could meet 1e-13.  Each
case also checks that the final e bounds the exact range error of the basis
it returns.  ``python tests/test_growth_golden.py`` (with ``src`` on
``PYTHONPATH``) prints the golden JSON of the current code.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import randghep as rg
from randghep import errors

from conftest import make_kle_pencil, random_spd

GOLDEN = Path(__file__).parent / "data" / "growth_golden.json"
CERT_RTOL = 1e-13

#: case id -> (pencil, grow_sketch_until keywords)
CASES = {
    "kle-nu0.5-toy-seed1": (("kle", 0.5, 0.5, 300), {"k0": 5, "tol": 5e-3, "seed": 1}),
    "kle-nu0.5-toy-seed2": (("kle", 0.5, 0.5, 300), {"k0": 5, "tol": 5e-3, "seed": 2}),
    "kle-nu1.5-seed3": (("kle", 1.5, 2.0, 201), {"k0": 5, "tol": 1e-6, "seed": 3}),
    "kle-nu2.5-seed11": (("kle", 2.5, 2.0, 201), {"k0": 5, "tol": 1e-4, "seed": 11}),
    "dense-b-seed4": (("dense", 80), {"k0": 3, "tol": 1e-5, "seed": 4}),
}


def dense_pencil(n: int):
    """A dense pencil with eigenvalues 0.7^i and a B of condition number 100,
    and its dense A."""
    Bd = random_spd(n, 100.0, 2)
    V, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((n, n)))
    # C = B^{-1} A = V diag(0.7^i) V^T B has those eigenvalues
    A = Bd @ (V * 0.7 ** np.arange(n)) @ V.T @ Bd
    A = (A + A.T) / 2.0
    return rg.dense_operator(A), rg.dense_spd(Bd), A


def grow(case_id: str) -> tuple[dict, float]:
    """The golden record of one case, and the exact range error f of the
    basis that the run returns."""
    spec, kwargs = CASES[case_id]
    if spec[0] == "kle":
        pencil = make_kle_pencil(*spec[1:])
        A, B, Ad = pencil.A, pencil.B, pencil.dense_a  # no counted apply builds dense_a
    else:
        A, B, Ad = dense_pencil(*spec[1:])
    out = errors.grow_sketch_until(A, B, **kwargs)
    record = {
        "converged": out.converged,
        "n_columns": out.n_columns,
        "checks": sum(h.certified is not None for h in out.history),
        "a_applies": A.matvec_count,
        "b_solves": B.solve_count,
        "certified": [[h.columns, h.certified] for h in out.history if h.certified is not None],
        "e": out.estimate.e,
    }
    return record, errors.range_error_exact(Ad, B, out.basis.Q)


def run_case(case_id: str) -> dict:
    """The golden record of one case: what the test compares."""
    return grow(case_id)[0]


GOLDEN_CASES = json.loads(GOLDEN.read_text())["cases"]


def test_golden_file_covers_the_cases():
    assert set(GOLDEN_CASES) == set(CASES)
    assert all(case["converged"] and len(case["certified"]) >= 2 for case in GOLDEN_CASES.values())


@pytest.mark.parametrize("case_id", sorted(GOLDEN_CASES))
def test_matches_golden(case_id):
    want = GOLDEN_CASES[case_id]
    got, f = grow(case_id)
    exact = ("converged", "n_columns", "checks", "a_applies", "b_solves")
    assert {key: got[key] for key in exact} == {key: want[key] for key in exact}
    assert [c for c, _ in got["certified"]] == [c for c, _ in want["certified"]]
    np.testing.assert_allclose([v for _, v in got["certified"]], [v for _, v in want["certified"]],
                               rtol=CERT_RTOL, atol=0.0)
    assert got["e"] == pytest.approx(want["e"], rel=CERT_RTOL, abs=0.0)
    # the certified e bounds the exact range error of the basis it certifies
    assert got["e"] >= f


if __name__ == "__main__":
    # The golden JSON of the current code on stdout; see the diff with
    #   PYTHONPATH=src python tests/test_growth_golden.py | diff tests/data/growth_golden.json -
    print(json.dumps({"cases": {cid: run_case(cid) for cid in sorted(CASES)}}, indent=1, sort_keys=True))
