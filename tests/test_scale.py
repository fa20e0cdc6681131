"""Scaling a pencil by a power of two scales every output by that power.

The pencil has n = 120: A = Q diag(10 * 0.7^j) Q^T and
B = V diag(geomspace(1, 30)) V^T, with Q and V orthogonal from
``default_rng(3)``, so lambda_1 is about 10 and kappa(B) = 30.  It is written
as (2^s A, 2^t B) by ``save_matrix_market``, which writes each entry
exactly.  Multiplying by 2^s is exact, and for even t so is B's Cholesky
factor.  So each command run on the scaled files owes the unscaled run's
outputs times a power of two.  The pencil's eigenvalues, range errors and
bounds scale by 2^(s - t).  The singular values of A under the weights
(B, B) or (I, I) scale by 2^s.  Every count and flag stays.

- In the band s, t in {0, +-100, +-250} that holds bitwise, but for
  s - t = +-500.  There lambda_1 is about 2^+-503, and LAPACK's dense
  eigensolvers rescale a matrix above ~2^485 (or below ~2^-485) by a factor
  that is no power of two, so the projected eigenvalues move in their last
  bits.  Those two pairs are checked as the extreme scales are.
- At 2^+-520 and 2^+-900, of A or of B, a run either stops with exit 2 or 3
  and writes no report, or it exits 0.  Then each scaled value is within
  1e-13 of the unscaled one's, and under ``--oracle`` e >= f.
- At 2^-1040 of A every entry is subnormal and has lost digits.  Every
  command exits 0, its eigenvalues and singular values are within 1e-6 of
  the unscaled ones, and e >= f.
- No run raises a RuntimeWarning.

MGS and MGS-R, which ``qr-bench`` and Nystrom's second QR run, are checked
on scaled blocks as ``qr-bench`` calls them (``sketch._QR_ALGORITHMS``), and
``posterior_estimate``, which no command runs, by its library call.
"""

import contextlib
import csv
import io
import itertools
import json
import math
import warnings

import numpy as np
import pytest

import randghep as rg
from randghep import errors
from randghep.cli import main
from randghep.sketch import _QR_ALGORITHMS, SketchConfig, gaussian_matrix, range_finder_b

N = 120
BAND = (0, 100, -100, 250, -250)
EXTREME = (520, -520, 900, -900)

#: The output fields that carry the command's scale.
SCALED = {"eigenvalues", "projected_eigenvalues_full", "range_error_exact", "e", "certified",
          "singular_values", "lambda_approx", "lambda_oracle", "abs_err"}


def _exponent(field, scale, t):
    """The power of two by which an output field moves at B 2^t, for a command
    whose values move by 2^scale: 0 for a field that stays."""
    if field == "sigma_min_F":  # ||Q^T B Omega||, and Q^T B goes as B^(1/2)
        return t // 2
    if field == "estimate":  # the growth trigger, the B-norm of a residual C w
        return scale + t // 2
    return scale if field in SCALED else 0


def _pencil():
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.standard_normal((N, N)))[0]
    V = np.linalg.qr(rng.standard_normal((N, N)))[0]
    A = (Q * (10.0 * 0.7 ** np.arange(N))) @ Q.T
    B = (V * np.geomspace(1.0, 30.0, N)) @ V.T
    return (A + A.T) / 2.0, (B + B.T) / 2.0


def _commands(s, t):
    """(name, argv, exponent of its scale) of each command on (2^s A, 2^t B).
    The commands that read A alone run only at t = 0."""
    pencil = ["--A", "a.mtx", "--B", "b.mtx"]
    tol = repr(math.ldexp(1e-3, s - t))
    cases = [(f"solve-{method}", ["solve", *pencil, "--k", "8", "--p", "5", "--method", method, "--oracle"], s - t)
             for method in ("two-pass", "single-pass", "nystrom")]
    cases += [("estimate", ["estimate", *pencil, "--k", "8", "--oracle"], s - t),
              ("estimate-grow", ["estimate", *pencil, "--k", "8", "--tol", tol, "--grow", "--oracle"], s - t),
              ("gsvd", ["gsvd", "--A", "a.mtx", "--S", "b.mtx", "--T", "b.mtx", "--k", "8", "--p", "5"], s)]
    if t == 0:
        cases += [("estimate-a", ["estimate", "--A", "a.mtx", "--k", "8", "--oracle"], s),
                  ("gsvd-a", ["gsvd", "--A", "a.mtx", "--k", "8", "--p", "5"], s)]
    return cases


def _flatten(value, path, out):
    """The leaves of a report as (path, field name, value) triples; a list
    item's field is the list's."""
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{path}.{key}", out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{path}[{i}]", out)
    else:
        out.append((path, path.rsplit(".", 1)[-1].split("[")[0], value))
    return out


def _run(directory, name, argv):
    """(exit code, {path: (field, value)}) of one run: the report, less its
    config and wall time, and spectrum.csv's cells.  No report on a failure."""
    out = directory / name
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        code = main([arg if not arg.endswith(".mtx") else str(directory / arg) for arg in argv]
                    + ["--seed", "7", "--out", str(out)])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in caught]
    if code != 0:
        assert not (out / "report.json").exists()
        return code, None
    report = json.loads((out / "report.json").read_text())
    for key in ("config", "wall_time_s"):
        report.pop(key)
    leaves = _flatten(report, "", [])
    if (out / "spectrum.csv").exists():
        with open(out / "spectrum.csv") as fh:
            for i, row in enumerate(csv.DictReader(fh)):
                leaves += [(f"spectrum[{i}].{k}", k, v if k.endswith("_ok") or not v else float(v))
                           for k, v in row.items() if k != "index"]
    return code, {path: (field, value) for path, field, value in leaves}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """run(s, t) -> {command: (exit code, outputs)}, each scale run once."""
    A, B = _pencil()
    cache = {}

    def run(s, t):
        if (s, t) not in cache:
            directory = tmp_path_factory.mktemp(f"s{s}t{t}")
            rg.save_matrix_market(directory / "a.mtx", np.ldexp(A, s))
            rg.save_matrix_market(directory / "b.mtx", np.ldexp(B, t))
            cache[s, t] = {name: (_run(directory, name, argv), scale) for name, argv, scale in _commands(s, t)}
        return cache[s, t]

    return run


@pytest.mark.parametrize("s, t", [(s, t) for s, t in itertools.product(BAND, BAND)
                                  if (s, t) != (0, 0) and abs(s - t) < 500])
def test_band_scales_bitwise(runs, s, t):
    base = runs(0, 0)
    for name, ((code, outputs), scale) in runs(s, t).items():
        (base_code, base_outputs), _ = base[name]
        assert code == base_code == 0, name
        assert outputs.keys() == base_outputs.keys(), name
        for path, (field, value) in outputs.items():
            expected = base_outputs[path][1]
            if isinstance(expected, float):
                expected = math.ldexp(expected, _exponent(field, scale, t))
            assert value == expected, (name, path)


@pytest.mark.parametrize("s, t", [(s, 0) for s in EXTREME] + [(0, t) for t in EXTREME] + [(250, -250), (-250, 250)])
def test_extreme_scales_exit_or_agree(runs, s, t):
    base = runs(0, 0)
    for name, ((code, outputs), scale) in runs(s, t).items():
        assert code in (0, 2, 3), name
        if code:
            continue
        (_, base_outputs), _ = base[name]
        assert outputs.keys() == base_outputs.keys(), name
        for path, (field, value) in outputs.items():
            expected = base_outputs[path][1]
            exponent = _exponent(field, scale, t)
            # abs_err is a difference of two checked values, with the accuracy of one
            if exponent and field != "abs_err" and expected is not None:
                assert value == pytest.approx(math.ldexp(expected, exponent), rel=1e-13, abs=0.0), (name, path)
            elif field.endswith("_ok"):
                assert value == expected, (name, path)
        if "range_error_exact" in outputs and name.startswith("estimate"):
            assert outputs["e"][1] >= outputs["range_error_exact"][1], name


@pytest.mark.parametrize("s, t", [(s, 0) for s in BAND[1:] + EXTREME] + [(0, t) for t in BAND[1:] + EXTREME]
                         + [(250, -250), (-250, 250)])
@pytest.mark.parametrize("alg", sorted(_QR_ALGORITHMS))
def test_qr_of_a_scaled_block(alg, s, t):
    # Y 2^s in the W 2^t-inner product: R scales by 2^(s + t/2), the flags stay
    _, B = _pencil()
    Y = gaussian_matrix(N, 8, 5) * np.geomspace(1.0, 1e-3, 8)
    base = _QR_ALGORITHMS[alg](Y, rg.dense_spd(B))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaled = _QR_ALGORITHMS[alg](np.ldexp(Y, s), rg.dense_spd(np.ldexp(B, t)))
    assert base.n_kept == 8
    np.testing.assert_array_equal(scaled.rank_flags, base.rank_flags)
    R = np.ldexp(scaled.R, -(s + t // 2))
    if max(abs(s), abs(t)) <= 250:
        np.testing.assert_array_equal(R, base.R)
    else:
        np.testing.assert_allclose(R, base.R, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("s, t", [(250, -250), (520, 0), (-520, 0), (0, 520), (0, -520), (900, 0), (-900, 0)])
def test_posterior_estimate(s, t):
    # with ||B^-1|| scaled as B is, e moves by 2^(s - t)
    A, B = _pencil()
    es = []
    for a, b in ((0, 0), (s, t)):
        Ao, Bo = rg.dense_operator(np.ldexp(A, a)), rg.dense_spd(np.ldexp(B, b))
        basis = range_finder_b(Ao, Bo, SketchConfig(k=8, p=0, seed=7)).basis
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            es.append(errors.posterior_estimate(Ao, Bo, basis, 2.0, 5, seed=7, binv_norm=math.ldexp(1.0, -b)).e)
    assert es[1] == pytest.approx(math.ldexp(es[0], s - t), rel=1e-13, abs=0.0)


def test_eigenpair_bounds_past_the_square_of_the_largest_double():
    # 4 eps (eps / delta): eps^2 = 2^1200 is no double
    assert errors.eigenpair_bounds(2.0**600, 2.0**601) == (2.0**601, 1.0)


def test_subnormal_a(runs):
    # every entry of A 2^-1040 is subnormal and has lost low digits: each
    # command still runs without a warning, its values agree to those digits,
    # and e, itself subnormal, still bounds the range error
    base = runs(0, 0)
    for name, ((code, outputs), scale) in runs(-1040, 0).items():
        assert code == 0, name
        (_, base_outputs), _ = base[name]
        for path, (field, value) in outputs.items():
            expected = base_outputs[path][1]
            if field in ("eigenvalues", "singular_values"):
                assert value == pytest.approx(math.ldexp(expected, scale), rel=1e-6, abs=0.0), (name, path)
        if "range_error_exact" in outputs and name.startswith("estimate"):
            assert outputs["e"][1] >= outputs["range_error_exact"][1], name
