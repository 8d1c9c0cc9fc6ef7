"""Frame emission against the generic encoders it replaces: ``csv.writer``
rows of ``repr`` strings, and ``json.dumps(..., sort_keys=True, indent=2)``
of the float-list payload.  Both must produce the same bytes, and
``float_reprs`` must be ``repr`` of every double."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnlse.reports import (
    float_reprs,
    frame_csv_text,
    frame_filename,
    frame_step,
    frames_json_parts,
)

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
def test_frames_json_parts_match_json_dumps(march, q):
    xs, times, values = march
    parts = list(frames_json_parts("nrt", q, xs, zip(times, values)))
    assert len(parts) == len(times) + 2  # the head, one part a frame, the tail
    assert "".join(parts) == json_dumps_frames("nrt", q, xs, times, values)


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
    assert "".join(frames_json_parts("new", 1.5, xs, zip([], values))) == \
        json_dumps_frames("new", 1.5, xs, [], values)


def test_numpy_scalar_times_are_written_as_floats():
    xs = np.array([0.0, 0.5, 1.0])
    row = np.array([1 + 2j, -0.0 + 0.1j, 3e-9 - 1e22j])
    t = np.float64(0.25)
    assert frame_csv_text(float_reprs(xs), t, row) == csv_writer_frame(xs, 0.25, row)
    assert "".join(frames_json_parts("new", 1.5, xs, [(t, row)])) == \
        json_dumps_frames("new", 1.5, xs, [0.25], row[None, :])


# every double: nan and +-inf, and any 64-bit pattern viewed as a float64
any_doubles = st.one_of(
    st.floats(),
    st.integers(-2**63, 2**63 - 1).map(lambda bits: float(np.int64(bits).view(np.float64))),
)


@settings(deadline=None)
@given(st.lists(any_doubles, max_size=40))
@example([1e-4, float(np.nextafter(1e-4, 0)), 1e16, float(np.nextafter(1e16, 0))])
@example([5e-324, -5e-324, -0.0, 0.0, 1.7976931348623157e308, -1.7976931348623157e308])
@example([float("nan"), float("inf"), -float("inf"), 1e-5, 1e22, 9007199254740993.0])
@example([])
def test_float_reprs_is_repr_of_every_double(values):
    a = np.array(values, dtype=np.float64)
    assert float_reprs(a) == list(map(repr, a.tolist()))


def test_float_reprs_is_repr_on_strided_views():
    bits = np.random.default_rng(16).integers(-2**63, 2**63, size=(2, 20_000), dtype=np.int64)
    values = bits.view(np.float64)[:, ::2].ravel().view(np.complex128)
    for part in (values.real, values.imag):
        assert float_reprs(part) == list(map(repr, part.tolist()))


@pytest.mark.parametrize("step", [0, 999_999, 1_000_000])
def test_frame_step_reads_back_the_step_of_frame_filename(step):
    assert frame_step(frame_filename(step)) == step


@pytest.mark.parametrize("name", ["frame_1.csv", "frame_0000001.csv", "frame_000001.CSV",
                                  "frame_+00001.csv", "frame_.csv", "frame_000001.txt",
                                  "notes.csv"])
def test_frame_step_is_none_for_names_frame_filename_does_not_make(name):
    assert frame_step(name) is None
