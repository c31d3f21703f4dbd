"""The benchmark's own self-test, so that renaming an entry point the
benchmark tracer wraps fails the test suite too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest():
    r = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                       cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stdout + r.stderr
