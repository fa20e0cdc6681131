#!/usr/bin/env python3
"""Eigenvalue error vs. oversampling for all three solvers and kernels.

Writes one CSV row per (kernel, method, k, p): the mean relative eigenvalue
error over the requested seeds.  Data behind the oversampling plots.
"""

import argparse
import sys

import numpy as np

from randghep import errors, ghep, kle
from randghep.sketch import SketchConfig


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=201)
    ap.add_argument("--ell", type=float, default=2.0)
    ap.add_argument("--ks", type=int, nargs="+", default=[20, 40, 60, 80])
    ap.add_argument("--ps", type=int, nargs="+", default=[0, 2, 5, 10, 20])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    args = ap.parse_args()

    grid = kle.Grid1D(n=args.n)
    lines = ["kernel,method,k,p,mean_rel_error"]
    for nu in (0.5, 1.5, 2.5):
        pencil = kle.kle_pencil(grid, kle.MaternConfig(nu=nu, ell=args.ell))
        ref = errors.dense_ghep_oracle(pencil.dense_a, pencil.B)
        for k in args.ks:
            for p in args.ps:
                for method in ghep.METHOD_CHOICES:
                    errs = []
                    for seed in range(args.seeds):
                        sol = ghep.solver_method(method)(pencil.A, pencil.B, SketchConfig(k=k, p=p, seed=seed))
                        errs.append(ref.rel_eigenvalue_error(sol.eigenvalues))
                    lines.append(f"{nu:g},{sol.method},{k},{p},{np.mean(errs):.6e}")
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
