"""The randghep benchmark: three CLI workloads, run in-process.

    python3 perfbench/run.py --workload kle-4000 --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout: it imports randghep from
``src/`` there and exits with code 2 if that is missing.  One process runs
``randghep.cli.main(argv)`` in a closed loop, one op after the other, with
BLAS pinned to one thread, while the next op would end at least half within
``--seconds`` (and for at least one op of every method the workload cycles).
Every op's output is checked.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it, ``info``, records the environment, the error rate, the tail
percentile, the sample count and every op time.

With ``--trace 0`` the metrics are the end-to-end ones (``END_TO_END``):

- ``setup_s``: import (median of three), a toy warm-up op, and the median of
  three preparations of the workload's inputs and references;
- ``op_s.p50`` and ``op_s.tail``: wall time of one ``cli.main`` call, its
  median and the highest percentile with ten ops above it, or the slowest
  op below twenty ops;
- ``ops_per_s``: correct ops per second of the timed loop;
- ``peak_rss_mb``: ``ru_maxrss`` of the process;
- ``rel_err``: geometric mean over methods of the per-method geometric mean
  of each op's sum|lam~ - lam| / sum|lam| against a dense reference; for
  ``estimate-grow``, of the estimate e over lambda_1, the estimated relative
  range error;
- ``success_rate``: correct ops over attempted ops.

With ``--trace 1`` each op runs twice, untraced and then traced, and the
metrics are the per-layer ones (``PER_LAYER``): per-op means of self times
and counts of the spans ``spans.py`` records, and ``trace.overhead_s``, the
median of traced minus untraced op time.  The traced ops repeat a fixed cycle
of three op seeds, so their counts do not depend on how many ops fit in the
time.

Workloads (see workloads.py):

- ``kle-4000``: ``kle --nu 2.5 --ell 0.5 --n 4000 --k 100 --p 10`` cycling
  the three methods.  The pencil build dominates.
- ``estimate-grow``: ``estimate --nu 0.5 --ell 0.5 --n 2000 --k 20 --tol 5e-4
  --grow``.  The growing MGS-R basis dominates.
- ``solve-oracle``: ``solve --k 100 --p 10 --oracle`` on a 2D Matern pencil
  (n = 1024) written in set-up from the workload seed, cycling two-pass and
  Nystrom.  The dense oracles dominate.
"""

from __future__ import annotations

import os
import sys

# Before numpy is first imported: BLAS reads these once, at load time.
PINNED_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RANDGHEP_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = PINNED_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 3
TRACE_CYCLE = 3

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "rel_err": "1",
    "success_rate": "1",
}


def _per_layer() -> dict[str, str]:
    names = ["cli.main.s", "kle.kle_pencil.s", "kle.assemble_covariance.s", "kle.assemble_mass_1d.s"]
    names += [f"operators.{op}.{m}" for op in ("a_apply", "b_apply", "b_solve") for m in ("calls", "cols", "s")]
    names += ["operators.load_matrix_market.s", "operators.save_matrix_market.s", "operators.dense_spd.s"]
    names += ["sketch.gaussian_matrix.calls", "sketch.gaussian_matrix.cols", "sketch.gaussian_matrix.s",
              "sketch.range_finder_b.s"]
    names += ["borth.qr.calls", "borth.qr.s", "borth.qr.b_apply_calls", "borth.qr.reorth_b_applies",
              "borth.qr.kept_ratio", "borth.qr.orth_loss"]
    names += ["ghep.solve.calls", "ghep.solve.s"]
    names += ["errors.posterior_estimate.calls", "errors.posterior_estimate.s",
              "errors.grow_sketch_until.s", "errors.grow_sketch_until.rounds",
              "errors.grow_sketch_until.columns", "errors.grow_sketch_until.probe_applies",
              "errors.dense_ghep_oracle.s", "errors.range_error_exact.s", "errors.b_norm.s",
              "errors.b_sine.calls", "errors.b_sine.s"]
    units = {}
    for name in names:
        measure = name.rsplit(".", 1)[1]
        units[name] = {"s": "s", "kept_ratio": "1", "orth_loss": "1"}.get(measure, "count")
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = _per_layer()


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no library source, failed warm-up)."""


def import_library():
    """Import randghep from the checkout's src/; returns (cli module, seconds)."""
    src = ROOT / "src"
    if not (src / "randghep" / "__init__.py").is_file():
        raise SetupError(f"no randghep source under {src}")
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import randghep
    from randghep import cli

    import spans  # noqa: F401  (benchmark modules: part of the set-up import)
    import workloads  # noqa: F401

    seconds = time.perf_counter() - t0
    if not Path(randghep.__file__).resolve().is_relative_to(src):
        raise SetupError(f"randghep was imported from {randghep.__file__}, not from {src}")
    return cli, seconds


_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t0 = time.perf_counter(); "
    "import numpy, scipy, randghep, randghep.cli, spans, workloads; "
    "print(time.perf_counter() - t0)"
)


def fresh_import_seconds() -> float:
    """The import of ``import_library`` timed again, in a fresh interpreter
    that inherits the pinned thread settings."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"import probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def op_seed(workload_seed: int, index: int) -> int:
    """Non-zero CLI seed of op ``index`` (seed 0 would draw from entropy)."""
    import numpy as np

    state = np.random.SeedSequence([workload_seed, index]).generate_state(1, np.uint64)[0]
    return int(state % (2**62)) + 1


def environment() -> dict:
    import numpy as np
    import scipy

    import randghep
    from randghep.sketch import GENERATOR_ID

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "randghep": randghep.__version__,
        "generator_id": GENERATOR_ID,
    }


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when the checkout is not a git work tree.

    The ceiling keeps git from looking for a repository above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


@dataclass
class OpResult:
    method: str | None
    seconds: float
    failure: str | None
    rel_err: float | None


def run_op(main, workload, method, seed: int, workdir: Path, tracer=None, op_id: int = 0) -> OpResult:
    """One command into a fresh output directory, timed, then checked and removed.

    The op fails when ``main`` raises, returns non-zero, or its output fails
    the workload's check.
    """
    out = Path(tempfile.mkdtemp(dir=workdir, prefix="op-"))
    argv = workload.argv(method, seed, out)
    failure, err = None, None
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = main(argv)
                    seconds = time.perf_counter() - t0
                else:
                    code, seconds = tracer.run_op(op_id, main, argv)
            except Exception as exc:  # any escape from the command is a failed op
                seconds = time.perf_counter() - t0
                failure = f"raised {type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
        if failure is None and code != 0:
            failure = f"exit code {code}"
        if failure is None:
            failure, err = workload.check(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if failure is not None:
        print(f"perfbench: {workload.name} op {op_id} ({method}) failed: {failure}", file=sys.stderr)
    return OpResult(method, seconds, failure, err)


def setup(cli, workload_cls, seed: int, workdir: Path, import_s: float, toy: bool = False):
    """Warm up with a toy op, then prepare the workload SETUP_REPEATS times.

    Returns (workload, setup seconds): the median of SETUP_REPEATS import
    times (this process's and fresh interpreters'), plus the warm-up, plus
    the median preparation time.
    """
    import_s = [import_s] + [fresh_import_seconds() for _ in range(SETUP_REPEATS - 1)]
    t0 = time.perf_counter()
    warmup = workload_cls(toy=True)
    warmup_dir = Path(tempfile.mkdtemp(dir=workdir, prefix="warmup-"))
    warmup.prepare(warmup_dir, seed)
    warm = run_op(cli.main, warmup, warmup.methods[0], op_seed(seed, 0), warmup_dir)
    if warm.failure is not None:
        raise SetupError(f"warm-up op failed: {warm.failure}")
    warm_s = time.perf_counter() - t0
    workload = workload_cls(toy=toy)
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.prepare(workdir, seed)
        prepare_s.append(time.perf_counter() - t0)
    return workload, statistics.median(import_s) + warm_s + statistics.median(prepare_s)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the op-time tail.

    The highest percentile with at least ten samples above it; below twenty
    samples that percentile is under the median, so the tail is the slowest
    op (percentile 100) instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def rel_err(results: list[OpResult]) -> float:
    """Geometric mean over methods of the per-method geometric mean, so that
    the method mix of a run does not move it."""
    by_method: dict = {}
    for r in results:
        if r.failure is None:
            by_method.setdefault(r.method, []).append(r.rel_err)
    return geomean([geomean(v) for v in by_method.values()])


def _fits(t0: float, seconds: float, done: int, ahead: float) -> bool:
    """Whether ``ahead`` more ops, each taking the mean wall time of the
    ``done`` ops so far, end within the window."""
    elapsed = time.perf_counter() - t0
    return elapsed * (1 + ahead / done) <= seconds


def measure(cli, workload, seed: int, seconds: float, workdir: Path):
    """The untraced closed loop; returns (results, end-to-end metric values)."""
    results = []
    t0 = time.perf_counter()
    i = 0
    # Start an op when at least half of it falls within the window.
    while i < len(workload.methods) or _fits(t0, seconds, i, 0.5):
        method = workload.methods[i % len(workload.methods)]
        results.append(run_op(cli.main, workload, method, op_seed(seed, i), workdir, op_id=i))
        i += 1
    wall = time.perf_counter() - t0
    ok = [r for r in results if r.failure is None]
    times = [r.seconds for r in (ok or results)]
    tail_s, tail_pct = tail(times)
    values = {
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "ops_per_s": len(ok) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rel_err": rel_err(results) if ok else 1.0,  # no correct op: 100 %
        "success_rate": len(ok) / len(results),
    }
    info = {"ops": len(results), "error_rate": 1.0 - values["success_rate"], "tail_percentile": tail_pct,
            "tail_samples": len(times), "timed_wall_s": wall, "op_seconds": [r.seconds for r in results]}
    return results, values, info


def measure_traced(cli, workload, seed: int, seconds: float, workdir: Path):
    """Pairs of one untraced and one traced run of the same op, over a fixed
    cycle of TRACE_CYCLE op seeds, ending on a whole cycle."""
    from spans import Tracer

    tracer = Tracer()
    plain, traced = [], []
    t0 = time.perf_counter()
    j = 0
    while j % TRACE_CYCLE or j == 0 or _fits(t0, seconds, j, TRACE_CYCLE):
        slot = j % TRACE_CYCLE
        method = workload.methods[slot % len(workload.methods)]
        s = op_seed(seed, slot)
        plain.append(run_op(cli.main, workload, method, s, workdir, op_id=2 * j))
        tracer.install()
        try:
            traced.append(run_op(cli.main, workload, method, s, workdir, tracer, op_id=2 * j + 1))
        finally:
            tracer.uninstall()
        j += 1
    names = [name for name in PER_LAYER if name != "trace.overhead_s"]
    values = tracer.metrics(names, len(traced))
    values["trace.overhead_s"] = statistics.median(t.seconds - p.seconds for p, t in zip(plain, traced))
    info = {"ops": len(plain) + len(traced), "traced_ops": len(traced)}
    return plain + traced, values, info


def run(workload_name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Set up, measure and check one workload; returns the result object.

    ``toy`` runs the workload at the self-test's toy size.
    """
    cli, import_s = import_library()
    import workloads

    if workload_name not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {workload_name!r}; choose from {sorted(workloads.WORKLOADS)}")
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR, prefix=f"{workload_name}-"))
    try:
        workload, setup_s = setup(cli, workloads.WORKLOADS[workload_name], seed, workdir, import_s, toy)
        if trace:
            results, values, info = measure_traced(cli, workload, seed, seconds, workdir)
            units = PER_LAYER
        else:
            results, values, info = measure(cli, workload, seed, seconds, workdir)
            values["setup_s"] = setup_s
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    failed = sum(r.failure is not None for r in results)
    info.update(workload=workload_name, seed=seed, seconds=seconds, trace=int(trace),
                setup_s=setup_s, environment=environment())
    print(json.dumps({"info": info}))
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # A terminated run still removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
