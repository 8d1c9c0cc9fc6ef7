"""The benchmark's output checks must accept the program's output and
reject corrupted copies of it; ``bench/selftest.py`` shows both."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "bench" / "selftest.py"


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "self-test: all checks behave" in done.stdout.splitlines()
