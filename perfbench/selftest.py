"""Fast self-test of the benchmark at toy sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that every declared metric is emitted for each workload, that
corrupted outputs count as failed ops, that traced self times add up to the
``cli.main`` span and traced columns to the operator counters, that traced
counts repeat for a repeated seed, and that the tracer puts every patched
name back.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

SEED = 5


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _quiet_run(name: str, trace: bool) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run(name, SEED, seconds=0.0, trace=trace, toy=True)


@contextlib.contextmanager
def _toy(name: str):
    """A prepared toy workload and a work directory inside the checkout."""
    import workloads

    run.WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.WORK_DIR, prefix="selftest-"))
    try:
        workload = workloads.WORKLOADS[name](toy=True)
        workload.prepare(workdir, SEED)
        yield workload, workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK_DIR.rmdir()


def _good_output(cli, workload, workdir: Path, method) -> Path:
    out = workdir / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(workload.argv(method, run.op_seed(SEED, 0), out))
    _require(code == 0, f"{workload.name}: exit code {code}")
    failure, _ = workload.check(out)
    _require(failure is None, f"{workload.name}: good output rejected: {failure}")
    return out


def _edit_csv(path: Path, row: int, column: str, edit) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    i = header.index(column)
    cells[i] = edit(cells[i])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edit_report(path: Path, key: str, value) -> None:
    report = json.loads(path.read_text())
    report[key] = value
    path.write_text(json.dumps(report))


def test_benchmark_json_declares_the_emitted_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    _require(declared == run.END_TO_END, f"end_to_end {declared} != {run.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    _require(declared == run.PER_LAYER, "per_layer differs from run.PER_LAYER")
    import workloads

    _require([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS), "workload names differ")


def test_every_metric_is_emitted():
    for name in ("kle-4000", "estimate-grow", "solve-oracle"):
        for trace, declared in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result = _quiet_run(name, trace)
            _require(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{name}: keys {sorted(result)}")
            _require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                     f"{name} trace={trace}: {result['failed']} of {result['attempted']} ops failed")
            metrics = result["metrics"]
            _require(list(metrics) == list(declared), f"{name} trace={trace}: metrics {sorted(metrics)}")
            for metric, entry in metrics.items():
                value = entry["value"]
                _require(entry["unit"] == declared[metric], f"{metric}: unit {entry['unit']}")
                _require(isinstance(value, float) and math.isfinite(value), f"{metric}: value {value!r}")
                if not trace:
                    _require(value > 0.0, f"{name}: end-to-end {metric} reads {value}")


def test_corrupted_outputs_fail():
    cli, _ = run.import_library()
    corruptions = {
        "kle-4000": [("spectrum.csv", "lambda_approx", lambda v: repr(float(v) * 1.1))],
        "solve-oracle": [("spectrum.csv", "lambda_approx", lambda v: repr(float(v) * 2.0)),
                         ("spectrum.csv", "lambda_bound_ok", lambda v: "False"),
                         ("spectrum.csv", "sine_bound_ok", lambda v: "False")],
        "estimate-grow": [("report.json", "converged", False), ("report.json", "e", 1.0)],
    }
    for name, edits in corruptions.items():
        for filename, field, edit in edits:
            with _toy(name) as (workload, workdir):
                method = workload.methods[0]
                out = _good_output(cli, workload, workdir, method)
                if filename == "spectrum.csv":
                    _edit_csv(out / filename, 1, field, edit)
                else:
                    _edit_report(out / filename, field, edit)
                failure, _ = workload.check(out)
                _require(failure is not None, f"{name}: corrupted {field} passed the check")

    def exits_3(argv):
        return 3

    def raises(argv):
        raise RuntimeError("injected")

    for fake, expect in ((exits_3, "exit code 3"), (raises, "raised RuntimeError")):
        with _toy("kle-4000") as (workload, workdir), contextlib.redirect_stderr(io.StringIO()):
            result = run.run_op(fake, workload, workload.methods[0], 1, workdir)
        _require(result.failure is not None and result.failure.startswith(expect),
                 f"fake command counted as {result.failure!r}")


def _traced_counts(name: str, methods=None) -> dict:
    """Run one traced toy op per method; check self times and return the counts."""
    from spans import ROOT_SPAN, Tracer

    cli, _ = run.import_library()
    tracer = Tracer()
    with _toy(name) as (workload, workdir):
        for op_id, method in enumerate(methods or workload.methods):
            tracer.install()
            try:
                result = run.run_op(cli.main, workload, method, run.op_seed(SEED, op_id), workdir,
                                    tracer, op_id)
            finally:
                tracer.uninstall()
            _require(result.failure is None, f"{name}: traced op failed: {result.failure}")
            total, root = tracer.self_time_sum(op_id)
            _require(abs(total - root) <= 1e-9 * max(root, 1.0),
                     f"{name}: self times sum to {total!r}, {ROOT_SPAN} span is {root!r}")
    return {k: v for k, v in tracer.totals.items() if not k.endswith(".s")}


def test_traced_self_times_and_counts():
    for name in ("kle-4000", "estimate-grow", "solve-oracle"):
        first, second = _traced_counts(name), _traced_counts(name)
        _require(first == second, f"{name}: counts differ between equal seeds")
        _require(first.get("operators.a_apply.cols", 0) > 0, f"{name}: no A-applies traced")
    solve = _traced_counts("solve-oracle")
    _require(solve.get("errors.b_sine.calls", 0) > 0, "solve-oracle: b_sine not traced")


def test_nystrom_second_qr_is_a_b_solve():
    # Nystrom's second QR B^{-1}-orthonormalizes through inverse_view, one
    # column at a time: its weight applies are B-solves.  Two-pass makes one
    # block B-solve, in the range finder.
    two_pass = _traced_counts("kle-4000", ["two-pass"])
    nystrom = _traced_counts("kle-4000", ["nystrom"])
    _require(two_pass["operators.b_solve.calls"] == 1, f"two-pass: {two_pass['operators.b_solve.calls']} B-solve calls")
    _require(nystrom["borth.qr.calls"] == 2, f"nystrom: {nystrom['borth.qr.calls']} QR calls")
    r = nystrom["operators.b_apply.cols"] - nystrom["borth.qr.reorth_b_applies"]
    _require(nystrom["operators.b_solve.calls"] >= 1 + r, f"nystrom: {nystrom['operators.b_solve.calls']} B-solve calls")


def test_tracer_restores_every_name():
    import randghep
    from randghep import kle, operators, sketch
    from spans import Tracer

    run.import_library()
    before = (dict(vars(kle)), dict(kle._METHODS), dict(sketch._QR_ALGORITHMS),
              dict(vars(operators.LinearMap)), dict(vars(operators.SpdOperator)), dict(vars(randghep)))
    tracer = Tracer()
    tracer.install()
    _require(kle.kle_pencil is not before[0]["kle_pencil"], "install did not wrap kle.kle_pencil")
    tracer.uninstall()
    after = (dict(vars(kle)), dict(kle._METHODS), dict(sketch._QR_ALGORITHMS),
             dict(vars(operators.LinearMap)), dict(vars(operators.SpdOperator)), dict(vars(randghep)))
    _require(before == after, "uninstall left a patched name behind")


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:
            failed += 1
            print(f"FAIL {name}", flush=True)
            traceback.print_exc()
        else:
            print(f"PASS {name}", flush=True)
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
