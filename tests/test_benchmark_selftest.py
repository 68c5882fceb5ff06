"""The benchmark's own self-test, run from the suite so that a refactor which
drops or renames a function the tracer wraps fails here, not only when the
benchmark is next run."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "test_perfbench.py"


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
