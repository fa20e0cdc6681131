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
1.2e-4 relative, so only bitwise-equal QR output could meet 1e-13.  They
were re-recorded again when the append's BCGS2 moved to in-place ``dgemm``
updates and the KLE mass solves to a tridiagonal LDL^T (``dpttrs``): both
round differently in the last bits, the exact fields stayed equal, and the
certified values and e moved by at most 8.8e-5 relative (kle-nu2.5-seed11),
with e >= f in every case.  Each case also checks that the final e bounds
the exact range error of the basis it returns.
``python tests/test_growth_golden.py`` (with ``src`` on ``PYTHONPATH``)
prints the golden JSON of the current code on stdout, and on stderr one line
per case on how it moved from the committed file: whether the exact fields
are equal, the largest relative move of the certified values and of e, and
whether e >= f holds.
"""

from __future__ import annotations

import json
import sys
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


GOLDEN_CASES = json.loads(GOLDEN.read_text())["cases"]
EXACT_FIELDS = ("converged", "n_columns", "checks", "a_applies", "b_solves")


def summary(case_id: str, record: dict, f: float) -> str:
    """One line on how ``record`` moved from the committed golden: whether
    the exact fields are equal, the largest relative move of the certified
    values and of e, and whether e >= f still holds."""
    want = GOLDEN_CASES.get(case_id)
    if want is None:
        return f"{case_id}: not in the golden file"
    exact = all(record[key] == want[key] for key in EXACT_FIELDS) and (
        [c for c, _ in record["certified"]] == [c for c, _ in want["certified"]])
    line = f"{case_id}: exact fields {'equal' if exact else 'CHANGED'}"
    if exact:
        moves = [abs(got - old) / abs(old) for (_, got), (_, old) in zip(record["certified"], want["certified"])]
        line += (f", certified values moved <= {max(moves):.2g}, "
                 f"e moved {abs(record['e'] - want['e']) / abs(want['e']):.2g}")
    return line + f", e >= f {'holds' if record['e'] >= f else 'FAILS'}"


def test_golden_file_covers_the_cases():
    assert set(GOLDEN_CASES) == set(CASES)
    assert all(case["converged"] and len(case["certified"]) >= 2 for case in GOLDEN_CASES.values())


@pytest.mark.parametrize("case_id", sorted(GOLDEN_CASES))
def test_matches_golden(case_id):
    want = GOLDEN_CASES[case_id]
    got, f = grow(case_id)
    assert {key: got[key] for key in EXACT_FIELDS} == {key: want[key] for key in EXACT_FIELDS}
    assert [c for c, _ in got["certified"]] == [c for c, _ in want["certified"]]
    np.testing.assert_allclose([v for _, v in got["certified"]], [v for _, v in want["certified"]],
                               rtol=CERT_RTOL, atol=0.0)
    assert got["e"] == pytest.approx(want["e"], rel=CERT_RTOL, abs=0.0)
    # the certified e bounds the exact range error of the basis it certifies
    assert got["e"] >= f


if __name__ == "__main__":
    # The golden JSON of the current code on stdout, and on stderr one
    # summary line per case against the committed file; see the diff with
    #   PYTHONPATH=src python tests/test_growth_golden.py | diff tests/data/growth_golden.json -
    records = {}
    for cid in sorted(CASES):
        records[cid], f = grow(cid)
        print(summary(cid, records[cid], f), file=sys.stderr)
    print(json.dumps({"cases": records}, indent=1, sort_keys=True))
