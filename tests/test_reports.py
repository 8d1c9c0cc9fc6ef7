"""Frame emission against the generic encoders it replaces: ``csv.writer``
rows of ``repr`` strings, and ``json.dumps(..., sort_keys=True, indent=2)``
of the float-list payload.  Both must produce the same bytes."""

import csv
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qnlse.reports import float_reprs, frame_csv_text, frames_json_text

# finite doubles, with the reprs that differ most between formatters
# (signed zero, subnormals, exponent switch-over, inexact decimals)
doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22, 0.1, 1.5e-7,
                     -2.5e-300, 1e-5, 123456789.0, 1.7976931348623157e308]),
)


@st.composite
def marches(draw):
    n_frames = draw(st.integers(1, 3))
    n = draw(st.integers(3, 7))
    xs = np.array(draw(st.lists(doubles, min_size=n, max_size=n)))
    times = draw(st.lists(doubles, min_size=n_frames, max_size=n_frames))
    re = draw(st.lists(doubles, min_size=n * n_frames, max_size=n * n_frames))
    im = draw(st.lists(doubles, min_size=n * n_frames, max_size=n * n_frames))
    values = np.empty((n_frames, n), dtype=np.complex128)
    values.real = np.reshape(re, (n_frames, n))
    values.imag = np.reshape(im, (n_frames, n))
    return xs, times, values


def csv_writer_frame(xs, t, values) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "t", "re", "im"])
    for x, v in zip(xs, values):
        writer.writerow([repr(float(x)), repr(float(t)),
                         repr(float(v.real)), repr(float(v.imag))])
    return buf.getvalue()


def json_dumps_frames(equation, q, xs, times, values) -> str:
    payload = {
        "equation": equation,
        "q": q,
        "x": [float(x) for x in xs],
        "frames": [
            {"t": t, "re": [float(v.real) for v in row], "im": [float(v.imag) for v in row]}
            for t, row in zip(times, values)
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@settings(deadline=None)
@given(marches(), doubles)
def test_frames_json_text_matches_json_dumps(march, q):
    xs, times, values = march
    assert frames_json_text("nrt", q, xs, times, values) == \
        json_dumps_frames("nrt", q, xs, times, values)


@settings(deadline=None)
@given(marches())
def test_frame_csv_text_matches_csv_writer(march):
    xs, times, values = march
    x_col = float_reprs(xs)
    for t, row in zip(times, values):
        assert frame_csv_text(x_col, t, row) == csv_writer_frame(xs, t, row)


def test_json_with_no_frames_matches_json_dumps():
    xs = np.array([-1.0, 0.0, 1.0])
    values = np.empty((0, 3), dtype=np.complex128)
    assert frames_json_text("new", 1.5, xs, [], values) == \
        json_dumps_frames("new", 1.5, xs, [], values)


def test_numpy_scalar_times_are_written_as_floats():
    xs = np.array([0.0, 0.5, 1.0])
    row = np.array([1 + 2j, -0.0 + 0.1j, 3e-9 - 1e22j])
    t = np.float64(0.25)
    assert frame_csv_text(float_reprs(xs), t, row) == csv_writer_frame(xs, 0.25, row)
    assert frames_json_text("new", 1.5, xs, [t], row[None, :]) == \
        json_dumps_frames("new", 1.5, xs, [0.25], row[None, :])
