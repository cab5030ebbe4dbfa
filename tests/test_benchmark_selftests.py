"""The benchmark's own tests, run from this suite.

``perfbench/tests`` has its own top-level ``conftest.py``, so it cannot share
a pytest session with ``tests/``.  It runs in a subprocess from the
repository root instead, so a change that breaks the tracer's pins (more
than 1000 ``CoeffVec`` constructions per suite pass, the import identities)
fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_tests_pass():
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
                            cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
