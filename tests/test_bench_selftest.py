"""The benchmark's own self-test, run as part of the test suite.

``perfbench/`` traces the library from outside: it wraps the weighted QRs
under one span name, patches ``SpdOperator.inverse_view`` and expects
Nystrom's second QR to make column-at-a-time B-solves.  A library change
that breaks one of those assumptions fails here instead of only when the
benchmark runs.  This test only reads ``perfbench/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "6 passed, 0 failed" in proc.stdout.splitlines()[-1]
