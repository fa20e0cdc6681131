"""Command-line front end.

Subcommands: solve (generic GHEP from Matrix Market files), kle, gsvd,
estimate, qr-bench, svd.  Reports are JSON, per-index series are CSV,
matrices are Matrix Market.  Exit codes: 0 success, 2 bad configuration,
3 numerical failure (a LinAlgError that escapes a command counts as one).
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
import time
from pathlib import Path


def _resolve_seed(seed: int, report: dict) -> int:
    """Seed 0 means: draw one from entropy and record it."""
    if seed == 0:
        seed = secrets.randbits(63) or 1
        report["seed_derived_from_entropy"] = True
    report["seed"] = seed
    return seed


def _finish_report(report: dict, outdir: Path, t0: float) -> None:
    from . import __version__

    report["wall_time_s"] = time.perf_counter() - t0
    report["library_version"] = __version__
    path = outdir / "report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(str(path))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "wt") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = ["" if v is None else (f"{v:.17g}" if isinstance(v, float) else str(v)) for v in row]
            fh.write(",".join(cells) + "\n")


def _write_spectrum(outdir: Path, lambdas, oracle=None, bound_flags=None) -> None:
    """spectrum.csv: each eigenvalue, its oracle value and their distance.

    The oracle columns stay empty without ``oracle``; ``bound_flags`` adds
    one (lambda_bound_ok, sine_bound_ok) pair per row, and a None flag
    leaves its cell empty.
    """
    header = ["index", "lambda_approx", "lambda_oracle", "abs_err"]
    rows: list[list] = []
    for i, lam in enumerate(lambdas):
        if oracle is None:
            rows.append([i, float(lam), None, None])
        else:
            rows.append([i, float(lam), float(oracle[i]), abs(float(lam) - float(oracle[i]))])
    if bound_flags is not None:
        header += ["lambda_bound_ok", "sine_bound_ok"]
        rows = [row + list(flags) for row, flags in zip(rows, bound_flags)]
    _write_csv(outdir / "spectrum.csv", header, rows)


def _load_pencil(args):
    """The pencil of the files ``--A`` and ``--B``.  Its ``dense_a``/``dense_b``
    are the arrays its operators wrap, so each matrix is held once."""
    from . import operators

    Ad = operators.load_matrix_market(args.A)
    Bd = operators.load_matrix_market(args.B)
    return operators.GhepPencil(operators.dense_operator(Ad), operators.dense_spd(Bd),
                                lambda: Ad, lambda: Bd)


# Each cmd_* fills ``report`` and writes its own files into ``outdir``; main
# resolves the seed, creates ``outdir`` and writes report.json on success.


def cmd_solve(args, report: dict, seed: int, outdir: Path) -> None:
    import numpy as np

    from . import errors, ghep
    from .sketch import SketchConfig

    pencil = _load_pencil(args)
    solve = ghep.solver_method(args.method)
    sol = solve(pencil.A, pencil.B, SketchConfig(k=args.k, p=args.p, seed=seed))
    report.update(sol.report_dict())
    report["config"] = {"A": args.A, "B": args.B, "k": args.k, "p": args.p, "method": args.method}
    oracle = bound_flags = None
    if args.oracle:
        ref = errors.dense_ghep_oracle(pencil.dense_a, pencil.dense_b)
        eps = ref.range_error(sol.basis.Q)
        report["range_error_exact"] = eps
        m = sol.eigenvalues.size
        oracle = ref.lambdas[:m]
        if args.method == "single-pass":
            # the lambda/sine bounds hold for Rayleigh-Ritz pairs only
            report["bound_flags"] = "not applicable: single-pass T is not a Rayleigh quotient"
            bound_flags = [(None, None)] * m
        else:
            sines = errors.b_sine(ref.eigenvectors[:, :m], sol.U[:, :m], pencil.B)
            bound_flags = []
            for i, lam in enumerate(sol.eigenvalues):
                lam_ex = float(oracle[i])
                others = np.delete(ref.lambdas, i)
                delta = float(np.min(np.abs(lam - others)))
                bounds = errors.eigenpair_bounds(eps, delta)
                # roundoff allowance: the booleans compare measured quantities
                lam_slack = 1e-12 * max(1.0, abs(lam_ex))
                bound_flags.append((bool(abs(float(lam) - lam_ex) <= bounds.lambda_bound + lam_slack),
                                    bool(sines[i] <= bounds.sine_bound + 1e-9)))
    _write_spectrum(outdir, sol.eigenvalues, oracle, bound_flags)
    if args.save_modes:
        from .operators import save_matrix_market

        save_matrix_market(outdir / "modes.mtx", sol.U)


def cmd_kle(args, report: dict, seed: int, outdir: Path) -> None:
    from . import kle
    from .operators import save_matrix_market

    grid = kle.Grid1D(a=-1.0, b=1.0, n=args.n)
    cfg = kle.MaternConfig(nu=args.nu, ell=args.ell)
    with_oracle = args.n <= kle.ORACLE_MAX_N
    sol = kle.kle_solve(grid, cfg, k=args.k, p=args.p, method=args.method,
                        seed=seed, compare_oracle=with_oracle)
    report.update(sol.solution.report_dict())
    report["config"] = {"nu": args.nu, "ell": args.ell, "n": args.n, "k": args.k,
                        "p": args.p, "method": args.method}
    if with_oracle:
        report["rel_eigenvalue_error"] = sol.diagnostics["rel_eigenvalue_error"]
    _write_spectrum(outdir, sol.eigenvalues, sol.diagnostics.get("oracle_lambdas"))
    save_matrix_market(outdir / "modes.mtx", sol.modes)


def cmd_gsvd(args, report: dict, seed: int, outdir: Path) -> None:
    import numpy as np

    from . import gsvd, operators
    from .sketch import SketchConfig

    Ad = operators.load_matrix_market(args.A)
    Sd = operators.load_matrix_market(args.S)
    Td = operators.load_matrix_market(args.T)
    S = operators.dense_spd(Sd)
    T = operators.dense_spd(Td)
    res = gsvd.randomized_gsvd(operators.dense_operator(Ad), S, T,
                               SketchConfig(k=args.k, p=args.p, seed=seed))
    k = res.sigma.size
    report["singular_values"] = [float(s) for s in res.sigma]
    report["orthogonality_residual_U"] = float(np.linalg.norm(res.U.T @ (Sd @ res.U) - np.eye(k), 2))
    report["orthogonality_residual_V"] = float(np.linalg.norm(res.V.T @ (Td @ res.V) - np.eye(k), 2))
    report["config"] = {"A": args.A, "S": args.S, "T": args.T, "k": args.k, "p": args.p}


def cmd_estimate(args, report: dict, seed: int, outdir: Path) -> None:
    from . import errors, kle
    from .operators import ConfigError
    from .sketch import SketchConfig, range_finder_b

    if args.A and args.B:
        pencil = _load_pencil(args)
        report["config"] = {"A": args.A, "B": args.B}
    else:
        if args.nu is None:
            raise ConfigError("estimate needs either --A/--B or a --nu/--ell/--n KLE configuration")
        grid = kle.Grid1D(n=args.n)
        pencil = kle.kle_pencil(grid, kle.MaternConfig(nu=args.nu, ell=args.ell))
        report["config"] = {"nu": args.nu, "ell": args.ell, "n": args.n}
    report["config"].update({"k": args.k, "alpha": args.alpha, "r": args.r,
                             "tol": args.tol, "grow": bool(args.grow)})
    if args.grow:
        if args.tol is None:
            raise ConfigError("--grow needs --tol")
        growth = errors.grow_sketch_until(pencil.A, pencil.B, k0=args.k, tol=args.tol,
                                          alpha=args.alpha, r_probes=args.r, seed=seed,
                                          binv_norm=args.binv)
        est = growth.estimate
        report["sketch_columns"] = growth.n_columns
        report["converged"] = growth.converged
        report["trajectory"] = [{"columns": c, "estimate": e} for c, e in growth.history]
        Q = growth.basis.Q
    else:
        rng = range_finder_b(pencil.A, pencil.B, SketchConfig(k=args.k, p=0, seed=seed))
        est = errors.posterior_estimate(pencil.A, pencil.B, rng.basis, args.alpha, args.r,
                                        seed, binv_norm=args.binv)
        Q = rng.basis.Q
        if args.tol is not None:
            report["converged"] = bool(est.e <= args.tol)
    report["e"] = est.e
    report["alpha"] = est.alpha
    report["r"] = est.r_probes
    report["probability_floor"] = est.probability_floor
    report["binv_source"] = est.source
    report["binv_norm_used"] = est.binv_norm_used
    if args.oracle:
        report["range_error_exact"] = errors.range_error_exact(pencil.dense_a, pencil.dense_b, Q)


def cmd_qr_bench(args, report: dict, seed: int, outdir: Path) -> None:
    from . import borth, kle, sketch

    nus = [args.nu] if args.nu is not None else [0.5, 1.5, 2.5]
    rows = []
    for nu in nus:
        grid = kle.Grid1D(n=args.n)
        pencil = kle.kle_pencil(grid, kle.MaternConfig(nu=nu, ell=args.ell))
        Omega = sketch.gaussian_matrix(args.n, args.cols, seed)
        Y = pencil.B.apply_inverse(pencil.A.apply(Omega))
        for name, alg in sketch._QR_ALGORITHMS.items():
            basis = alg(Y, pencil.B)
            m = borth.qr_metrics(Y, basis, pencil.B)
            rows.append([name, f"{nu:g}", m[0], m[1], m[2], m[3]])
    csv_path = outdir / "qr_bench.csv"
    _write_csv(csv_path, ["alg", "kernel", "m1", "m2", "m3", "m4"], rows)
    with open(csv_path) as fh:
        sys.stdout.write(fh.read())
    report["config"] = {"ell": args.ell, "n": args.n, "cols": args.cols, "kernels": nus}
    report["rows"] = [{"alg": r[0], "kernel": r[1], "m1": r[2], "m2": r[3], "m3": r[4], "m4": r[5]}
                      for r in rows]


def cmd_svd(args, report: dict, seed: int, outdir: Path) -> None:
    from . import operators
    from .sketch import SketchConfig, randomized_evd, randomized_svd

    Ad = operators.load_matrix_market(args.A)
    A = operators.dense_operator(Ad)
    cfg = SketchConfig(k=args.k, p=args.p, seed=seed)
    if args.mode == "svd":
        _, sig, _ = randomized_svd(A, cfg)
        report["singular_values"] = [float(s) for s in sig]
    else:
        mode = "two_pass" if args.mode == "evd-two-pass" else "single_pass"
        _, lam = randomized_evd(A, cfg, mode=mode)
        report["eigenvalues"] = [float(v) for v in lam]
    report["config"] = {"A": args.A, "k": args.k, "p": args.p, "mode": args.mode}


def build_parser() -> argparse.ArgumentParser:
    from .ghep import METHOD_CHOICES

    parser = argparse.ArgumentParser(
        prog="randghep",
        description="Randomized matrix-free GHEP/GSVD solvers with error estimators",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seed_default=1):
        p.add_argument("--seed", type=int, default=seed_default,
                       help="RNG seed; 0 draws one from entropy and records it")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("solve", help="solve a GHEP from Matrix Market files")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, default=20)
    p.add_argument("--method", default="two-pass", choices=METHOD_CHOICES)
    p.add_argument("--oracle", action="store_true", help="append dense-oracle comparison columns")
    p.add_argument("--save-modes", action="store_true")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("kle", help="truncated Karhunen-Loeve expansion of a Matern field")
    p.add_argument("--nu", type=float, required=True, choices=[0.5, 1.5, 2.5])
    p.add_argument("--ell", type=float, default=2.0)
    p.add_argument("--n", type=int, default=201)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--method", default="two-pass", choices=METHOD_CHOICES)
    common(p)
    p.set_defaults(func=cmd_kle)

    p = sub.add_parser("gsvd", help="randomized GSVD under SPD weights S and T")
    p.add_argument("--A", required=True)
    p.add_argument("--S", required=True)
    p.add_argument("--T", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_gsvd)

    p = sub.add_parser("estimate", help="a-posteriori range-error estimate, optionally growing the sketch")
    p.add_argument("--A")
    p.add_argument("--B")
    p.add_argument("--nu", type=float, choices=[0.5, 1.5, 2.5])
    p.add_argument("--ell", type=float, default=2.0)
    p.add_argument("--n", type=int, default=201)
    p.add_argument("--k", type=int, required=True, help="initial sketch size")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--r", type=int, default=5, help="number of probes")
    p.add_argument("--tol", type=float)
    p.add_argument("--grow", action="store_true", help="enlarge the sketch until the estimate <= tol")
    p.add_argument("--binv", type=float, help="known value of ||B^-1||_2 (else crude lower bound)")
    p.add_argument("--oracle", action="store_true")
    common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("qr-bench", help="weighted-QR quality metrics on the KLE pencil")
    p.add_argument("--nu", type=float, choices=[0.5, 1.5, 2.5], help="default: all three kernels")
    p.add_argument("--ell", type=float, default=2.0)
    p.add_argument("--n", type=int, default=201)
    p.add_argument("--cols", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_qr_bench)

    p = sub.add_parser("svd", help="randomized SVD / EVD with the standard inner product")
    p.add_argument("--A", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, default=20)
    p.add_argument("--mode", default="svd", choices=["svd", "evd-two-pass", "evd-single-pass"])
    common(p)
    p.set_defaults(func=cmd_svd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from numpy.linalg import LinAlgError

    from .operators import ConfigError, MatrixFormatError, NumericalError

    t0 = time.perf_counter()
    report: dict = {"command": args.subcommand}
    try:
        seed = _resolve_seed(args.seed, report)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        args.func(args, report, seed, outdir)
        _finish_report(report, outdir, t0)
        return 0
    except FileNotFoundError as exc:
        print(f"randghep: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, MatrixFormatError) as exc:
        print(f"randghep: configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, LinAlgError) as exc:
        print(f"randghep: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
