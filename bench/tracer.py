"""In-process tracing of qnlse's layers, installed from outside the package.

``Tracer.install()`` replaces public functions and methods of the loaded
qnlse modules with timing wrappers: every module attribute (and every
value of a module-level dict, such as ``cli._COMMANDS`` or
``verify._SUITE_FUNCS``) that is the original function is swapped, and
the field and curve classes get wrapped methods.  ``uninstall()`` puts
every original back.  Nothing under ``src/`` changes.

Each wrapped call is a span.  Spans are aggregated by group as they close
(calls, inclusive seconds, self seconds = inclusive minus the traced
spans directly beneath it), because the verify workload opens hundreds of
thousands of them; only the coarse groups (suites, commands, marches,
scans) are also kept as individual spans, to be written out at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

FIELD_METHODS = ("__call__", "log_value", "d_t", "d_x", "d_xx", "deriv")
POINT_RESIDUALS = ("new_nlse_residual", "new_nlse_phi_residual", "nrt_residual",
                   "separated_time_residual", "separated_space_residual")
EMITTERS = ("report_json_text", "report_csv_text", "frame_csv_text",
            "field_svg_text", "svg_line_plot", "write_text")


class Tracer:
    def __init__(self):
        self.groups: dict[str, list] = {}  # group -> [calls, inclusive_s, self_s]
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []  # (name, start_s, end_s, depth), coarse groups only
        self._stack: list[list] = []  # open spans' child-time accumulators
        self._point_depth = 0
        self._undo: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, group: str, *, keep_span=False, after=None,
              point=False, field=False):
        stat = self.groups.setdefault(group, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if field and tracer._point_depth:
                tracer.counters["fields.evals_in_point"] += 1
            if point:
                tracer._point_depth += 1
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                if point:
                    tracer._point_depth -= 1
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children[0]
                if keep_span:
                    tracer.spans.append((group, start, start + elapsed, len(stack)))
                if after is not None:
                    after(args, kwargs, elapsed)

        return traced

    def _patch_function(self, fn, group: str, **opts) -> None:
        wrapper = self._wrap(fn, group, **opts)
        for name, mod in list(sys.modules.items()):
            if not (name == "qnlse" or name.startswith("qnlse.")) or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((setattr, mod, attr, fn))
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is fn:
                            value[key] = wrapper
                            self._undo.append((dict.__setitem__, value, key, fn))

    def _patch_method(self, cls, name: str, group: str, **opts) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self._wrap(original, group, **opts))
        self._undo.append((setattr, cls, name, original))

    # -- hooks --------------------------------------------------------------

    def _kernel_done(self, args, kwargs, elapsed):
        n, n_steps = len(args[0]), int(args[8])
        self.counters["kernels.point_updates"] += (n - 2) * n_steps
        self.counters[f"kernels.point_updates.n{n}"] += (n - 2) * n_steps
        self.counters["kernels.frame_bytes"] += (n_steps + 1) * n * 16
        self.counters[f"kernels.seconds_ns.n{n}"] += int(elapsed * 1e9)

    def _write_done(self, args, kwargs, elapsed):
        text = args[1] if len(args) > 1 else kwargs["text"]
        self.counters["reports.emit.files"] += 1
        self.counters["reports.emit.bytes"] += len(text.encode("utf-8"))

    # -- install ------------------------------------------------------------

    def install(self) -> None:
        from qnlse import _kernels, cli, fields, integrators, qmath, reports, residuals, verify

        for cls in (fields.PowerProductField, fields.ExponentialField,
                    fields.PowerCurve, fields.ExpCurve):
            for name in FIELD_METHODS:
                if name in cls.__dict__:
                    self._patch_method(cls, name, "fields.eval", field=True)
        for name in POINT_RESIDUALS:
            self._patch_function(getattr(residuals, name), "residuals.point", point=True)
        self._patch_function(residuals.scan_residual, "residuals.scan_residual", keep_span=True)
        self._patch_function(residuals.fd_partial, "residuals.fd_partial")
        self._patch_function(qmath.hyp2f1, "qmath.hyp2f1")
        for fn in (integrators.integrate_separated_time, integrators.integrate_separated_space):
            self._patch_function(fn, "integrators.ode", keep_span=True)
        self._patch_function(integrators.rk4_step, "integrators.rk4_step")
        self._patch_function(integrators.propagate, "integrators.propagate", keep_span=True)
        self._patch_function(integrators.sample_field, "integrators.sample_field", keep_span=True)
        self._patch_function(_kernels.propagate_frames, "kernels.propagate_frames",
                             keep_span=True, after=self._kernel_done)
        for name in EMITTERS:
            self._patch_function(getattr(reports, name), "reports.emit",
                                 after=self._write_done if name == "write_text" else None)
        self._patch_function(cli.cmd_propagate, "cli.cmd_propagate", keep_span=True)
        for name, fn in list(verify._SUITE_FUNCS.items()):
            self._patch_function(fn, f"verify.{name}", keep_span=True)

    def uninstall(self) -> None:
        while self._undo:
            setter, target, key, original = self._undo.pop()
            setter(target, key, original)

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates as plain data (what a traced child process hands back)."""
        return {
            "groups": {k: list(v) for k, v in self.groups.items()},
            "counters": dict(self.counters),
            "spans": list(self.spans),
        }


def layer_metrics(snap: dict, suites) -> dict:
    """Per-layer figures of one traced round, from a ``Tracer.snapshot()``."""
    groups, counters = snap["groups"], snap["counters"]

    def calls(g):
        return groups.get(g, [0, 0.0, 0.0])[0]

    def total(g):
        return groups.get(g, [0, 0.0, 0.0])[1]

    def self_s(g):
        return groups.get(g, [0, 0.0, 0.0])[2]

    def rate(n):
        seconds = counters.get(f"kernels.seconds_ns.n{n}", 0) / 1e9
        return counters.get(f"kernels.point_updates.n{n}", 0) / seconds if seconds else 0.0

    out = {f"verify.{name}.s": total(f"verify.{name}") for name in suites}
    point_calls = calls("residuals.point")
    out.update({
        "residuals.scan_residual.self_s": self_s("residuals.scan_residual"),
        "residuals.point.calls": point_calls,
        "residuals.point.self_s": self_s("residuals.point"),
        "residuals.fd_partial.calls": calls("residuals.fd_partial"),
        "fields.eval.calls": calls("fields.eval"),
        "fields.eval.self_s": self_s("fields.eval"),
        "fields.evals_per_point_residual":
            counters.get("fields.evals_in_point", 0) / point_calls if point_calls else 0.0,
        "qmath.hyp2f1.calls": calls("qmath.hyp2f1"),
        "qmath.hyp2f1.self_s": self_s("qmath.hyp2f1"),
        "integrators.ode.rk4_steps": calls("integrators.rk4_step"),
        "integrators.ode.self_s": self_s("integrators.ode") + self_s("integrators.rk4_step"),
        "integrators.propagate.calls": calls("integrators.propagate"),
        "integrators.propagate.self_s": self_s("integrators.propagate"),
        "integrators.sample_field.self_s": self_s("integrators.sample_field"),
        "kernels.propagate_frames.self_s": self_s("kernels.propagate_frames"),
        "kernels.point_updates": counters.get("kernels.point_updates", 0),
        "kernels.updates_per_s.n401": rate(401),
        "kernels.updates_per_s.n1601": rate(1601),
        "kernels.frame_bytes": counters.get("kernels.frame_bytes", 0),
        "reports.emit.calls": counters.get("reports.emit.files", 0),
        "reports.emit.self_s": self_s("reports.emit"),
        "reports.emit.bytes": counters.get("reports.emit.bytes", 0),
        "cli.cmd_propagate.self_s": self_s("cli.cmd_propagate"),
    })
    return out


def merge(snaps) -> dict:
    """Sum the aggregates of several snapshots (one round's child processes)."""
    groups: dict = {}
    counters: Counter = Counter()
    spans: list = []
    for snap in snaps:
        for g, (c, inc, slf) in snap["groups"].items():
            acc = groups.setdefault(g, [0, 0.0, 0.0])
            acc[0] += c
            acc[1] += inc
            acc[2] += slf
        counters.update(snap["counters"])
        spans.extend(snap["spans"])
    return {"groups": groups, "counters": dict(counters), "spans": spans}
