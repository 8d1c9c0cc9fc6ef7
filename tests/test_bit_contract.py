"""The bit contract: outputs whose bytes must not move unnoticed.

Each digest is the sha256 of one output, recorded on Linux x86-64 with
the numpy named by ``NUMPY_VERSION``.  A change that moves these bytes
on purpose records the new digests here, from

    QNLSE_SEED=42 qnlse verify | sha256sum
    QNLSE_SEED=42 qnlse verify --format csv | sha256sum

and, for the marches, from ``march_digests(seed)`` below; and it says
which moved, and by how much.

With another numpy the test skips: numpy's ``log``, ``exp`` and complex
arithmetic are not correctly rounded, and may round a last bit
differently from one release to the next.  A digest that differs there
would not show that this program changed, only that the digest needs
recording for that numpy.
"""

import hashlib
import importlib
from pathlib import Path

import numpy as np
import pytest

from qnlse.cli import main
from qnlse.integrators import GridSpec, manufactured_field, propagate, sample_field
from qnlse.solutions import FreeParticleSpec, SolutionKind

BENCH = Path(__file__).resolve().parents[1] / "bench"

NUMPY_VERSION = "2.4.6"

VERIFY_DIGESTS = {
    "json": "e655f1c18e35bcfd447f7352c6a4b55c77b3078f1f8a471071aab574ba4138aa",
    "csv": "aad260db68a66fa9971453a0624119d6ac3fe67d78e66b662fa241b1ca662ed3",
}

# sha256 of ``Trajectory.values.tobytes()`` for each march of the
# benchmark's ``march_plan(seed)``, in plan order
MARCH_DIGESTS = {
    7: [
        "5440cf3dce866132b2203f670bed0c2427c39f93f518bbbac4ddd8a25a4f5bcc",
        "b9c795ea076ae16d88c500ae8ec7975747a80fd4fa4730336504f3df9f64e69a",
        "69cac8976d47b35c20b3886083f3c96b3d13e7d862b0255a44c899e409f515f6",
        "fde301c9831c768d207fc9586b7b53107037cfc84b6124227e847207a4f37365",
        "c89f81db8fb98d32b522320053cb612d10fed9568a51b1c4a650976dd36e3bed",
        "e625cc5af3c1a97a79d450bbc65f23fc5377c050f02763c4def242d3395dff36",
        "ac014ae5ab177d169056447dca74dc782d28aaeb111d8c63513224f84a324e8c",
        "928e917d31be44daf928a786f3aca15543d856d4b59aa07a40201fdb521fa027",
        "834e51d13c147db779c2d4e8742b28bbe6b39ea3fbeab7b7e0c0c5e7d3e4467e",
        "2494127931eb51dfe2682a2ee0871304c99cc818b00a11adbe368a67441be283",
        "1845b53c63518342341d5240af6290d37075852830a0d6f9179ce0667fc833eb",
        "1845b53c63518342341d5240af6290d37075852830a0d6f9179ce0667fc833eb",
    ],
    11: [
        "47702215bf24320430755286f4c76b483ccea19ecc3d7c2944b2057e81247090",
        "909ca62a81864e793631395c7e4ae8f25bcd76c95975b6f14309c9ca4973fbec",
        "9914cc61f4b8d9503f0d946c9c1d952ee5ee1d04b1d424deea9c801b5c212f08",
        "4ad2387c34f498ff07b3567e1010dc511463a99deae5913bf06d4214766b3aa6",
        "2bdf0d1916df233b958e50f2fb740c40b48bb20b2a9bf2f3d3f6aa44bf5450e8",
        "38e69aa6dfce9b1a22cb03f9c8539f91a7883c736788f24f040ebdb4a922c0bd",
        "5c62ea34a54391c9f6456d2f6ed77e36d0f88e8e786d850476df5401d72478d3",
        "bcc0f0e4874dc87550eb1ea981cc5c40fcd81659d5b9e9637d53fac2993e7a76",
        "6cf7a1e8c2447d887c8618af3a206c99a36ddc43e3603d72d03ccdc77a53050b",
        "06d72ee353bd93eb77ccd3aa8cfb254803ca580f3f83a5639752e2d95c5934a1",
        "e00df51d593eac089d26cbb3048b7ac448d5b208073603ffd7b793f82ab6ae91",
        "e00df51d593eac089d26cbb3048b7ac448d5b208073603ffd7b793f82ab6ae91",
    ],
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


def march_digests(seed: int) -> list:
    """Each march of ``bench/workloads.py::march_plan(seed)``, run as the
    benchmark's march workload runs it, as the sha256 of its frames
    (``bench`` must be on ``sys.path``)."""
    digests = []
    for m in importlib.import_module("workloads").march_plan(seed):
        kind = SolutionKind(m.equation)
        field = manufactured_field(kind, FreeParticleSpec(q=m.q, p=m.p))
        grid = GridSpec(-5.0, 5.0, m.n, m.dt, m.steps)
        frames = propagate(kind, sample_field(field, grid, 0.0), m.q, 0.5, 1.0, boundary=field)
        digests.append(hashlib.sha256(frames.values.tobytes()).hexdigest())
    return digests


@pytest.mark.parametrize("seed", sorted(MARCH_DIGESTS))
def test_march_plan_frames(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(BENCH))
    assert march_digests(seed) == MARCH_DIGESTS[seed]
