#!/usr/bin/env python3
"""Accuracy of the truncated expansion as the correlation length shrinks.

Short correlation lengths flatten the eigenvalue decay, which is exactly the
regime where a fixed-size sketch loses accuracy; this prints the relative
eigenvalue error across a sweep of lengths.
"""

import argparse
import sys

from randghep import errors, kle


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nu", type=float, default=2.5, choices=[0.5, 1.5, 2.5])
    ap.add_argument("--n", type=int, default=501)
    ap.add_argument("--k", type=int, default=80)
    ap.add_argument("--p", type=int, default=5)
    ap.add_argument("--ells", type=float, nargs="+", default=[0.01, 0.05, 0.1, 0.4, 1.0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    grid = kle.Grid1D(n=args.n)
    print("ell,rel_error,lambda_max,lambda_k")
    for ell in args.ells:
        cfg = kle.MaternConfig(nu=args.nu, ell=ell)
        lam = kle.kle_solve(grid, cfg, k=args.k, p=args.p, seed=args.seed).eigenvalues
        pencil = kle.kle_pencil(grid, cfg)
        err = errors.dense_ghep_oracle(pencil.dense_a, pencil.B).rel_eigenvalue_error(lam)
        print(f"{ell:g},{err:.6e},{lam[0]:.6e},{lam[-1]:.6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
