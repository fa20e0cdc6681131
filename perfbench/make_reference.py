"""Regenerate perfbench/reference.json, the dense-oracle references of the
seed-independent workloads.

    python3 perfbench/make_reference.py

The kle-4000 pencil (nu=2.5, ell=0.5, n=4000) and the estimate-grow pencil
(nu=0.5, ell=0.5, n=2000) do not depend on the workload seed, and a dense
generalized eigensolve at n=4000 takes over ten seconds on one core, too long
for every set-up.  The pencils are assembled with numpy alone (see
inputs.kle_pencil_1d), so the reference does not share code with randghep.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

#: (key, nu, ell, n, number of top eigenvalues kept)
PENCILS = [
    ("kle-4000", 2.5, 0.5, 4000, 100),
    ("estimate-grow", 0.5, 0.5, 2000, 1),
]


def compute(nu: float, ell: float, n: int, k: int) -> list[float]:
    A, M = inputs.kle_pencil_1d(n, nu, ell)
    return [float(v) for v in inputs.top_eigenvalues(A, M, k)]


def main() -> None:
    out = {}
    for key, nu, ell, n, k in PENCILS:
        out[key] = {"nu": nu, "ell": ell, "n": n, "eigenvalues": compute(nu, ell, n, k)}
        print(f"{key}: top {k} eigenvalues of n={n}", file=sys.stderr)
    REFERENCE_FILE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
