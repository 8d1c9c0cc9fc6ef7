"""Deterministic CSV / JSON / SVG emission for reports and fields.

Reports are flat key -> value mappings, written either as a single JSON
object or as ``key,value`` CSV rows carrying the same values.  Floats
are written as ``repr`` writes them: the shortest string that
round-trips, at most 17 significant digits, so the two formats parse
back to identical doubles.  Field frames use the ``x,t,re,im`` row
schema, one file per frame; a whole march goes to JSON as ``x`` plus a
list of ``{"im", "re", "t"}`` frames, made frame by frame from the frame
arrays with the bytes of ``json.dumps(..., sort_keys=True, indent=2)``.
Nothing here embeds timestamps: byte-identical reruns are part of the
contract.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from pathlib import Path
from typing import Iterator

import numpy as np


def format_number(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def report_json_text(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_csv_text(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key in sorted(report):
        writer.writerow([key, format_number(report[key])])
    return buf.getvalue()


def parse_report_csv(text: str) -> dict:
    """Inverse of ``report_csv_text`` with numeric values restored."""
    out = {}
    rows = list(csv.reader(io.StringIO(text)))
    for key, raw in rows[1:]:
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        out[key] = value
    return out


# repr writes the doubles of this magnitude range, and zeros, in plain
# notation; orjson writes them the same way
_PLAIN_MIN, _PLAIN_MAX = 1e-4, 1e16


def float_reprs(values) -> list[str]:
    """``repr`` of each double of a one-dimensional real array.

    orjson writes the digits: Ryu (Adams, PLDI 2018) finds the same
    shortest, correctly rounded digits as ``repr``'s dtoa (Gay, 1990),
    and orjson lays them out as ``repr`` does for zeros and for
    ``1e-4 <= |x| < 1e16``.  ``repr`` itself writes the rest: the values
    it puts in exponent notation, and nan and +-inf, which orjson writes
    as ``null``.
    """
    import orjson  # only frame emission needs it

    values = np.ascontiguousarray(values, dtype=np.float64)
    if not values.size:
        return []
    items = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    magnitude = np.abs(values)
    other = ~((magnitude >= _PLAIN_MIN) & (magnitude < _PLAIN_MAX)) & (values != 0)
    for i in np.flatnonzero(other).tolist():
        items[i] = repr(float(values[i]))
    return items


def csv_table_text(columns: dict) -> str:
    """A header of the column names, then one comma-joined row per item
    of the columns, which are iterables of strings."""
    return "\n".join([",".join(columns), *map(",".join, zip(*columns.values()))]) + "\n"


def frame_csv_text(x_col: list[str], t: float, values) -> str:
    """One frame as ``x,t,re,im`` rows.

    ``x_col`` is ``float_reprs`` of the grid, made once for all the frames
    of a run.
    """
    values = np.asarray(values)
    return csv_table_text({"x": x_col, "t": itertools.repeat(repr(float(t))),
                           "re": float_reprs(values.real), "im": float_reprs(values.imag)})


def frames_json_parts(equation: str, q: float, xs, frames) -> Iterator[str]:
    """A march as JSON, in consecutive parts: byte for byte
    ``json.dumps(payload, sort_keys=True, indent=2) + "\n"`` of
    ``{"equation", "q", "x", "frames": [{"t", "re", "im"}, ...]}``, with
    frame k from the k-th ``(t, row)`` pair of ``frames``.

    The head comes first, then one part per frame, made only when it is
    asked for, then the tail, which carries ``q`` and ``x``.
    """
    yield '{\n  "equation": ' + json.dumps(equation) + ',\n  "frames": ['
    sep = "\n"
    for t, row in frames:
        yield "".join((sep, '    {\n      "im": ', _json_floats(row.imag, "        "),
                       ',\n      "re": ', _json_floats(row.real, "        "),
                       ',\n      "t": ', json.dumps(t), "\n    }"))
        sep = ",\n"
    yield "".join(("\n  ]" if sep == ",\n" else "]", ',\n  "q": ', json.dumps(q),
                   ',\n  "x": ', _json_floats(xs, "    "), "\n}\n"))


def _json_floats(values, indent: str) -> str:
    """A real array as an ``indent=2`` JSON list whose items sit at ``indent``."""
    items = float_reprs(values)
    if not items:
        return "[]"
    return f"[\n{indent}" + f",\n{indent}".join(items) + f"\n{indent[:-2]}]"


def frame_filename(step: int) -> str:
    return f"frame_{step:06d}.csv"


def frame_step(name: str) -> int | None:
    """The step whose ``frame_filename`` is ``name``, or None if there is none."""
    step = name.removeprefix("frame_").removesuffix(".csv")
    return int(step) if step.isdecimal() and name == frame_filename(int(step)) else None


# ---------------------------------------------------------------------------
# SVG line plots
# ---------------------------------------------------------------------------

_SVG_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728")
_W, _H = 720, 420
_ML, _MR, _MT, _MB = 60, 20, 30, 40


def _ticks(lo: float, hi: float):
    if hi == lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def svg_line_plot(xs, series, title: str) -> str:
    """Polyline plot of one or more real-valued series against xs, labelled x."""
    xs = [float(x) for x in xs]
    lo_x, hi_x = min(xs), max(xs)
    values = [float(v) for _, ys in series for v in ys]
    lo_y, hi_y = min(values), max(values)
    if not (math.isfinite(lo_y) and math.isfinite(hi_y)):
        raise ValueError("cannot plot non-finite values")
    if hi_y == lo_y:
        hi_y = lo_y + 1.0
        lo_y = lo_y - 1.0
    pad = 0.05 * (hi_y - lo_y)
    lo_y -= pad
    hi_y += pad

    def px(x):
        return _ML + (x - lo_x) / (hi_x - lo_x) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - lo_y) / (hi_y - lo_y) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#444"/>',
    ]
    for tx in _ticks(lo_x, hi_x):
        parts.append(
            f'<text x="{px(tx):.1f}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{tx:.3g}</text>'
        )
    for ty in _ticks(lo_y, hi_y):
        parts.append(
            f'<text x="{_ML - 6}" y="{py(ty):.1f}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{ty:.3g}</text>'
        )
    parts.append(
        f'<text x="{_W / 2:.1f}" y="{_H - 8}" text-anchor="middle" '
        f'font-family="monospace" font-size="11">x</text>'
    )
    for i, (label, ys) in enumerate(series):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        points = " ".join(f"{px(x):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 8}" y="{_MT + 16 + 14 * i}" text-anchor="end" '
            f'font-family="monospace" font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def moduli(values) -> np.ndarray:
    """The moduli of a complex array as the hypot of its parts: bit for bit
    what Python's ``abs`` gives for each complex, which ``np.abs`` is not."""
    return np.hypot(np.real(values), np.imag(values))


def field_svg_text(xs, t: float, values) -> str:
    series = [("Re", np.real(values)), ("Im", np.imag(values)), ("|value|", moduli(values))]
    return svg_line_plot(xs, series, title=f"field at t={t:.6g}")


def write_text(path: Path | str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")
