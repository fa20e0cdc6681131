"""Command-line front end.

Subcommands: solve (generic GHEP from Matrix Market files), kle (solve on the
KLE pencil, writing modes.mtx and, up to n = kle.ORACLE_MAX_N, the oracle's
eigenvalues), gsvd, estimate, qr-bench (every kernel without --nu).  A
missing weight is the identity: solve and estimate on --A alone run on the
pencil (A, I), the B = I EVD, and gsvd without --S or --T takes I on that
side, so gsvd --A alone is the plain SVD.  A KLE pencil's missing --ell or
--n takes MaternConfig.ell or Grid1D.n.  Reports are JSON, per-index series
are CSV, matrices are Matrix Market: an array file is dense, a coordinate file
stays sparse, and --oracle densifies a coordinate A up to n = kle.ORACLE_MAX_N.
Seeds lie in [0, 2**64).  Exit codes:
0 success, 2 bad configuration (an unwritable output path counts as one), 3
numerical failure (a LinAlgError that escapes a command counts as one) or
running out of memory.  A failed run leaves no outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import secrets
import shutil
import sys
import tempfile
import time
from pathlib import Path


def _resolve_seed(seed: int, report: dict) -> int:
    """Seed 0 means: draw one from entropy and record it.  The sketches read a
    seed modulo 2**64, so one outside [0, 2**64) is rejected, not aliased."""
    from .operators import ConfigError

    if not 0 <= seed < 2**64:
        raise ConfigError(f"--seed must lie in [0, 2**64), got {seed}")
    if seed == 0:
        seed = secrets.randbits(63) or 1
        report["seed_derived_from_entropy"] = True
    report["seed"] = seed
    return seed


@contextlib.contextmanager
def _staged(outdir: Path):
    """A temporary directory inside ``outdir`` for one run's files.  On success
    each file moves into ``outdir`` with ``os.replace``, report.json last; on
    any failure the directory and every file already moved are deleted."""
    stage = Path(tempfile.mkdtemp(prefix=".randghep-", dir=outdir))
    moved: list[Path] = []
    try:
        yield stage
        for name in sorted(os.listdir(stage), key=lambda name: (name == "report.json", name)):
            try:
                os.replace(stage / name, outdir / name)
            except OSError as exc:  # name the target, as a direct write to it would
                raise OSError(exc.errno, exc.strerror, str(outdir / name)) from None
            moved.append(outdir / name)
    except BaseException:
        for path in moved:
            path.unlink(missing_ok=True)
        raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _csv(header: list[str], rows: list[list]) -> str:
    def cell(v) -> str:
        return "" if v is None else (f"{v:.17g}" if isinstance(v, float) else str(v))
    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


def _write_spectrum(outdir: Path, lambdas, oracle=None, bound_flags=None) -> None:
    """spectrum.csv: each eigenvalue, its oracle value and their distance.

    The oracle columns stay empty without ``oracle``; ``bound_flags`` adds
    one (lambda_bound_ok, sine_bound_ok) pair per row, and a None flag
    leaves its cell empty.
    """
    header = ["index", "lambda_approx", "lambda_oracle", "abs_err"]
    rows = [[i, float(lam), None, None] if oracle is None else
            [i, float(lam), float(oracle[i]), abs(float(lam) - float(oracle[i]))]
            for i, lam in enumerate(lambdas)]
    if bound_flags is not None:
        header += ["lambda_bound_ok", "sine_bound_ok"]
        rows = [row + list(flags) for row, flags in zip(rows, bound_flags)]
    (outdir / "spectrum.csv").write_text(_csv(header, rows))


def _warn_if_short(what: str, returned: int, k: int, rank: int) -> None:
    """One stderr line when a command returned fewer ``what`` than --k: the
    range finder dropped sketch columns as numerically dependent, and kept
    ``rank`` of them."""
    if returned < k:
        print(f"randghep: warning: {returned} {what} returned of the {k} asked for (--k); "
              f"the sketch's effective_rank is {rank}", file=sys.stderr)


def _operator(M, spd: bool = False):
    """The operator, or with ``spd`` the SPD operator, of a matrix that
    ``operators.load_matrix_market`` read, on the file's own storage: dense
    for an array, sparse for a CSR matrix."""
    import scipy.sparse

    from . import operators

    if scipy.sparse.issparse(M):
        return operators.sparse_spd(M) if spd else operators.sparse_operator(M)
    return operators.dense_spd(M) if spd else operators.dense_operator(M)


def _load_spd(path, n: int):
    """The SPD operator of the Matrix Market file ``path`` (``_operator``), or
    the n x n identity (``sketch._identity``) when ``path`` is None."""
    from . import operators
    from .sketch import _identity

    return _identity(n) if path is None else _operator(operators.load_matrix_market(path), spd=True)


def _pencil(args, symmetric_a: bool = False):
    """The pencil of the files --A/--B or of the KLE options --nu/--ell/--n
    (a missing --ell or --n takes ``MaternConfig.ell`` or ``Grid1D.n``), and
    the config entries that name it.  A file pencil without --B is (A, I).  Its
    operators keep each file's storage (``_operator``); ``dense_a`` is the
    array an array A's operator wraps, or a coordinate A densified when read.
    ``symmetric_a`` checks the stored A (``check_symmetric``), as estimate's
    Lanczos certificate assumes.  A mix of sources, none, --B without --A, or
    --oracle above ``kle.ORACLE_MAX_N`` on a KLE pencil or a coordinate A is a
    ConfigError, raised before any apply."""
    import scipy.sparse

    from . import kle, operators
    from .operators import ConfigError

    if args.A is None and args.B is not None:
        raise ConfigError("--B needs --A: a file pencil is --A, with --B or B = I")
    if args.A is not None:
        if args.nu is not None or args.n is not None or args.ell is not None:
            raise ConfigError("give either --A/--B or --nu/--ell/--n, not both")
        M = operators.load_matrix_market(args.A)
        sparse = scipy.sparse.issparse(M)
        if sparse and args.oracle and M.shape[0] > kle.ORACLE_MAX_N:
            raise ConfigError(f"--oracle on a coordinate A needs n <= {kle.ORACLE_MAX_N}, got {M.shape[0]}")
        if args.B is None and M.shape[0] != M.shape[1]:
            raise ConfigError(f"--A without --B needs a square A, got {M.shape[0]} x {M.shape[1]}")
        B = _load_spd(args.B, M.shape[0])
        if symmetric_a:
            operators.check_symmetric(M)
        pencil = operators.GhepPencil(_operator(M), B, M.toarray if sparse else lambda: M)
        return pencil, {"A": args.A, "B": args.B}
    if args.nu is None:
        raise ConfigError("estimate needs either --A/--B or a --nu/--ell/--n KLE configuration")
    n = kle.Grid1D.n if args.n is None else args.n
    ell = kle.MaternConfig.ell if args.ell is None else args.ell
    if args.oracle and n > kle.ORACLE_MAX_N:
        raise ConfigError(f"--oracle needs --n <= {kle.ORACLE_MAX_N}, got {n}")
    pencil = kle.kle_pencil(kle.Grid1D(n=n), kle.MaternConfig(nu=args.nu, ell=ell))
    return pencil, {"nu": args.nu, "ell": ell, "n": n}


# Each cmd_* fills ``report`` and writes its own files into ``outdir``; main
# resolves the seed, stages ``outdir`` and writes report.json on success.


def cmd_solve(args, report: dict, seed: int, outdir: Path) -> None:
    """``solve`` and ``kle``.  Output options: ``oracle`` adds the oracle, its
    range error and the bound flags; n <= ``rel_error_max_n`` the oracle column
    and rel_eigenvalue_error; ``save_modes`` writes modes.mtx.  The pencil,
    and so the dense A, is dropped once the oracle is built."""
    import numpy as np

    from . import errors, ghep, operators
    from .sketch import SketchConfig

    pencil, config = _pencil(args)
    solve = ghep.solver_method(args.method)
    sol = solve(pencil.A, pencil.B, SketchConfig(k=args.k, p=args.p, seed=seed))
    _warn_if_short("eigenvalues", sol.eigenvalues.size, sol.k, sol.diagnostics["effective_rank"])
    report.update(sol.report_dict())
    report["config"] = {**config, "k": args.k, "p": args.p, "method": args.method}
    rel_error = args.rel_error_max_n is not None and pencil.A.dim_in <= args.rel_error_max_n
    m = sol.eigenvalues.size
    oracle = bound_flags = None
    B = pencil.B
    if args.oracle or rel_error:
        # the oracle reads the B-operator's own factor: a coordinate B is not factored again
        ref = errors.dense_ghep_oracle(pencil.dense_a, B)
        oracle = ref.lambdas[:m]
    del pencil
    if rel_error:
        report["rel_eigenvalue_error"] = ref.rel_eigenvalue_error(sol.eigenvalues)
    if args.oracle:
        eps = ref.range_error(sol.basis.Q)
        report["range_error_exact"] = eps
        if args.method == "single-pass":
            # the lambda/sine bounds hold for Rayleigh-Ritz pairs only
            report["bound_flags"] = "not applicable: single-pass T is not a Rayleigh quotient"
            bound_flags = [(None, None)] * m
        else:
            sines = errors.b_sine(ref.top_eigenvectors(m), sol.U[:, :m], B)
            bound_flags = []
            for i, lam in enumerate(sol.eigenvalues):
                lam_ex = float(oracle[i])
                # the gap to the rest of the spectrum; a 1-by-1 pencil has none
                delta = float(np.min(np.abs(lam - np.delete(ref.lambdas, i)), initial=np.inf))
                bounds = errors.eigenpair_bounds(eps, delta)
                # roundoff allowance: the booleans compare measured quantities
                lam_slack = 1e-12 * max(1.0, abs(lam_ex))
                bound_flags.append((bool(abs(float(lam) - lam_ex) <= bounds.lambda_bound + lam_slack),
                                    bool(sines[i] <= bounds.sine_bound + 1e-9)))
    _write_spectrum(outdir, sol.eigenvalues, oracle, bound_flags)
    if args.save_modes:
        operators.save_matrix_market(outdir / "modes.mtx", sol.U)


def cmd_gsvd(args, report: dict, seed: int, outdir: Path) -> None:
    import numpy as np

    from . import gsvd, operators
    from .sketch import SketchConfig

    M = operators.load_matrix_market(args.A)
    S, T = _load_spd(args.S, M.shape[0]), _load_spd(args.T, M.shape[1])
    res = gsvd.randomized_gsvd(_operator(M), S, T, SketchConfig(k=args.k, p=args.p, seed=seed))
    k = res.sigma.size
    # the core has one singular value per kept column of the smaller basis
    _warn_if_short("singular values", k, args.k,
                   min(res.diagnostics["left_rank"], res.diagnostics["right_rank"]))
    report["singular_values"] = [float(s) for s in res.sigma]
    report["orthogonality_residual_U"] = float(np.linalg.norm(res.U.T @ S.apply(res.U) - np.eye(k), 2))
    report["orthogonality_residual_V"] = float(np.linalg.norm(res.V.T @ T.apply(res.V) - np.eye(k), 2))
    report["config"] = {"A": args.A, "S": args.S, "T": args.T, "k": args.k, "p": args.p}


def cmd_estimate(args, report: dict, seed: int, outdir: Path) -> None:
    from . import errors
    from .operators import ConfigError

    if args.grow and args.tol is None:
        raise ConfigError("--grow needs --tol")
    pencil, report["config"] = _pencil(args, symmetric_a=True)
    report["config"].update({"k": args.k, "alpha": args.alpha, "r": args.r,
                             "tol": args.tol, "grow": bool(args.grow)})
    growth = errors.grow_sketch_until(pencil.A, pencil.B, k0=args.k, tol=args.tol,
                                      alpha=args.alpha, r_probes=args.r, seed=seed,
                                      max_cols=None if args.grow else args.k)
    est = growth.estimate
    report["sketch_columns"] = growth.n_columns
    report["trajectory"] = [{"columns": h.columns, "estimate": h.estimate,
                             "certified": h.certified} for h in growth.history]
    cert = growth.certificate
    # the counters are the pencil's own: everything else was the sketch's
    report["certificate"] = {"checks": sum(h.certified is not None for h in growth.history),
                             "lanczos_steps": errors.LANCZOS_STEPS, **cert}
    report["sketch_applies"] = {"a_applies": pencil.A.matvec_count - cert["a_applies"],
                                "b_solves": pencil.B.solve_count - cert["b_solves"],
                                "b_applies": pencil.B.matvec_count - cert["b_applies"]}
    if args.tol is not None:
        report["converged"] = growth.converged
    report.update(e=est.e, alpha=est.alpha, r=est.r_probes, probability_floor=est.probability_floor,
                  source=est.source)
    if args.oracle:
        report["range_error_exact"] = errors.range_error_exact(pencil.dense_a, pencil.B, growth.basis.Q)


def cmd_qr_bench(args, report: dict, seed: int, outdir: Path) -> None:
    """Each weighted QR's four quality metrics on a sketch of the KLE pencil
    of each kernel (``_pencil`` reads it); the CSV goes to qr_bench.csv and
    to stdout."""
    from . import borth, kle, sketch

    nus = [args.nu] if args.nu is not None else list(kle.MATERN_NUS)
    header, rows = ["alg", "kernel", "m1", "m2", "m3", "m4"], []
    for nu in nus:
        pencil, config = _pencil(argparse.Namespace(**vars(args) | {"nu": nu}))
        Omega = sketch.gaussian_matrix(config["n"], args.cols, seed)
        Y = pencil.B.apply_inverse(pencil.A.apply(Omega))
        for name, alg in sketch._QR_ALGORITHMS.items():
            rows.append([name, f"{nu:g}", *borth.qr_metrics(Y, alg(Y, pencil.B), pencil.B)])
    text = _csv(header, rows)
    (outdir / "qr_bench.csv").write_text(text)
    sys.stdout.write(text)
    report["config"] = {"ell": config["ell"], "n": config["n"], "cols": args.cols, "kernels": nus}
    report["rows"] = [dict(zip(header, row)) for row in rows]


def build_parser() -> argparse.ArgumentParser:
    from .ghep import METHOD_CHOICES
    from .kle import MATERN_NUS, ORACLE_MAX_N, Grid1D, MaternConfig

    parser = argparse.ArgumentParser(
        prog="randghep", description="Randomized matrix-free GHEP/GSVD solvers with error estimators")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # apart from common, so a command's own options keep their usage-line place
    def sketch(p, oversampling=None, method=False, k_help=None):
        """--k, and --p (default ``oversampling``) and --method where taken."""
        p.add_argument("--k", type=int, required=True, help=k_help)
        if oversampling is not None:
            p.add_argument("--p", type=int, default=oversampling)
        if method:
            p.add_argument("--method", default="two-pass", choices=METHOD_CHOICES)

    def kle_options(p, nu_required=False, nu_help=None):
        """--nu, --ell and --n: the KLE pencil; ``_pencil`` resolves a missing one."""
        p.add_argument("--nu", type=float, required=nu_required, choices=MATERN_NUS, help=nu_help)
        p.add_argument("--ell", type=float, help=f"KLE correlation length (default {MaternConfig.ell})")
        p.add_argument("--n", type=int, help=f"KLE grid size (default {Grid1D.n})")

    def common(p):
        p.add_argument("--seed", type=int, default=1,
                       help="RNG seed in [0, 2**64); 0 draws one from entropy and records it")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("solve", help="solve a GHEP from Matrix Market files")
    p.add_argument("--A", required=True)
    p.add_argument("--B", help="SPD B (default: the identity, the standard EVD)")
    sketch(p, oversampling=20, method=True)
    p.add_argument("--oracle", action="store_true", help="append dense-oracle comparison columns")
    p.add_argument("--save-modes", action="store_true")
    common(p)
    p.set_defaults(func=cmd_solve, nu=None, ell=None, n=None, rel_error_max_n=None)

    p = sub.add_parser("kle", help="truncated Karhunen-Loeve expansion of a Matern field")
    kle_options(p, nu_required=True)
    sketch(p, oversampling=5, method=True)
    common(p)
    # solve on the KLE pencil: modes.mtx always, and the oracle's eigenvalues
    # where the dense oracle is cheap
    p.set_defaults(func=cmd_solve, A=None, B=None, oracle=False, save_modes=True,
                   rel_error_max_n=ORACLE_MAX_N)

    p = sub.add_parser("gsvd", help="randomized GSVD under SPD weights S and T")
    p.add_argument("--A", required=True)
    p.add_argument("--S", help="SPD left weight (default: the identity)")
    p.add_argument("--T", help="SPD right weight (default: the identity)")
    sketch(p, oversampling=10)
    common(p)
    p.set_defaults(func=cmd_gsvd)

    p = sub.add_parser("estimate", help="certified a-posteriori range-error bound e (a Lanczos "
                                        "certificate), optionally growing the sketch")
    p.add_argument("--A")
    p.add_argument("--B", help="SPD B of the file pencil (default: the identity)")
    kle_options(p)
    sketch(p, k_help="initial sketch size")
    p.add_argument("--alpha", type=float, default=2.0,
                   help="e bounds the range error with probability at least 1 - alpha^-r")
    p.add_argument("--r", type=int, default=5,
                   help="the floor 1 - alpha^-r; a grown round also probes the first min(r, 10) "
                        "columns it appends")
    p.add_argument("--tol", type=float,
                   help="target for e; the report says whether e <= tol (converged)")
    p.add_argument("--grow", action="store_true",
                   help="enlarge the sketch 10 columns a round until e <= tol; without it the "
                        "sketch keeps its --k columns")
    p.add_argument("--oracle", action="store_true")
    common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("qr-bench", help="weighted-QR quality metrics on the KLE pencil")
    kle_options(p, nu_help="default: all three kernels")
    p.add_argument("--cols", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_qr_bench, A=None, B=None, oracle=False)

    return parser


#: The parser that ``main`` uses: built on its first call and shared by every
#: later one (parsing leaves it unchanged), so a process that calls ``main``
#: in a loop builds the subcommands once.
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    from numpy.linalg import LinAlgError

    from . import __version__
    from .operators import ConfigError, MatrixFormatError, NumericalError

    t0 = time.perf_counter()
    report: dict = {"command": args.subcommand}
    try:
        seed = _resolve_seed(args.seed, report)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        with _staged(outdir) as stage:
            args.func(args, report, seed, stage)
            report.update(wall_time_s=time.perf_counter() - t0, library_version=__version__)
            (stage / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(str(outdir / "report.json"))
        return 0
    except OSError as exc:
        # a missing input file, or an output path that cannot be written
        print(f"randghep: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, MatrixFormatError) as exc:
        print(f"randghep: configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, LinAlgError) as exc:
        print(f"randghep: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy's message names the allocation; a bare MemoryError has none
        print(f"randghep: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
