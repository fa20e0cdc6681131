"""Smoke test of the experiment scripts: each runs at a tiny size and prints its CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CASES = [
    (["oversampling_sweep.py", "--n", "41", "--ks", "5", "--ps", "2", "--seeds", "1"],
     "kernel,method,k,p,mean_rel_error"),
    (["estimator_comparison.py", "--n", "41", "--ks", "5", "10"], "k,f_exact,estimate,spectral_guide"),
    (["correlation_length_study.py", "--n", "41", "--k", "5", "--ells", "0.5"],
     "ell,rel_error,lambda_max,lambda_k"),
]


@pytest.mark.parametrize("argv, header", CASES, ids=[argv[0] for argv, _ in CASES])
def test_script_prints_its_csv(argv, header):
    env = dict(os.environ)  # conftest has set RANDGHEP_THREADS
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error"  # as the suite's filterwarnings setting does in-process
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) > 1
