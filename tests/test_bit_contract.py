"""The bit contract: outputs whose bytes must not move unnoticed.

Each digest is the sha256 of one output, recorded on Linux x86-64 with
the numpy named by ``NUMPY_VERSION``.  A change that moves these bytes
on purpose records the new digests here, from

    QNLSE_SEED=42 qnlse verify | sha256sum
    QNLSE_SEED=42 qnlse verify --format csv | sha256sum

and says which moved, and by how much.

With another numpy the test skips: numpy's ``log``, ``exp`` and complex
arithmetic are not correctly rounded, and may round a last bit
differently from one release to the next.  A digest that differs there
would not show that this program changed, only that the digest needs
recording for that numpy.
"""

import hashlib

import numpy as np
import pytest

from qnlse.cli import main

NUMPY_VERSION = "2.4.6"

VERIFY_DIGESTS = {
    "json": "47cbe941826e494f1f9ca32fe87ecfac90033ce94ccccc600d9b1f84074ab4f0",
    "csv": "e62ef47af4c2250c0d22b2f2072ff80507ccca06f500e198552c20e3215ff5da",
}


@pytest.fixture(autouse=True)
def recorded_numpy():
    if np.__version__ != NUMPY_VERSION:
        pytest.skip(f"digests recorded with numpy {NUMPY_VERSION}, not {np.__version__}")


@pytest.mark.parametrize("fmt", sorted(VERIFY_DIGESTS))
def test_seed_42_verify_report(monkeypatch, tmp_path, fmt):
    monkeypatch.setenv("QNLSE_SEED", "42")
    out = tmp_path / f"verify.{fmt}"
    assert main(["verify", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_DIGESTS[fmt]
