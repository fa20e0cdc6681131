#!/usr/bin/env python3
"""Exact range error f_k vs. the randomized estimate e_k vs. the spectral guide.

For each sketch size k the script reports the exact error
f_k = ||(I - Q Q^T B) C||_B, the a-posteriori estimate from r Gaussian
probes, and the guide sqrt(||B^-1||) * sigma_{B,k+1} from the reference
spectrum.
"""

import argparse
import math
import sys

from randghep import errors, kle
from randghep.sketch import SketchConfig, range_finder_b


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nu", type=float, default=2.5, choices=[0.5, 1.5, 2.5])
    ap.add_argument("--ell", type=float, default=2.0)
    ap.add_argument("--n", type=int, default=201)
    ap.add_argument("--p", type=int, default=5)
    ap.add_argument("--alpha", type=float, default=2.0)
    ap.add_argument("--r", type=int, default=5)
    ap.add_argument("--ks", type=int, nargs="+", default=[10, 20, 30, 40, 60, 80])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    grid = kle.Grid1D(n=args.n)
    pencil = kle.kle_pencil(grid, kle.MaternConfig(nu=args.nu, ell=args.ell))
    ref = errors.dense_ghep_oracle(pencil.dense_a, pencil.dense_b)
    print("k,f_exact,estimate,spectral_guide")
    for k in args.ks:
        res = range_finder_b(pencil.A, pencil.B, SketchConfig(k=k, p=args.p, seed=args.seed))
        f = ref.range_error(res.basis.Q)
        est = errors.posterior_estimate(
            pencil.A, pencil.B, res.basis, args.alpha, args.r,
            seed=args.seed + 7000, binv_norm=ref.binv_norm,
        )
        guide = math.sqrt(ref.binv_norm) * ref.sigmas_B[min(k, len(ref.sigmas_B) - 1)]
        print(f"{k},{f:.6e},{est.e:.6e},{guide:.6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
