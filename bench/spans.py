"""Spans around the public functions the CLI reaches through module attributes.

Recording: `Tracer.install` replaces each target attribute (for example
`geopump.propagator.p_g_numeric_grid`) with a wrapper that records one span
per call: name, start, end, parent span, op id and the work the call was asked
to do, computed from its arguments. Nothing inside the program changes; the
CLI picks the wrappers up because it looks these functions up on their module
at call time. Spans stay in memory until the run ends.

Analysis: `layer_metrics` turns the spans of one round of operations into the
per-layer figures the benchmark reports. A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

import numpy as np


def _grid_work(k, eps0, a_ph, omega, cfg):
    n = np.broadcast(np.asarray(k), np.asarray(eps0), np.asarray(a_ph)).size
    return {"points": n, "point_steps": n * cfg.steps_per_cycle,
            "point_cycles": n * cfg.n_cycles}


def _evolve_work(p, cfg, initial=None):
    return {"points": 1, "point_steps": cfg.steps_per_cycle,
            "point_cycles": cfg.n_cycles}


def _report_work(p, cfg):
    # one taylor and one exact evolution of the same point
    return {"points": 2, "point_steps": 2 * cfg.steps_per_cycle,
            "point_cycles": 2 * cfg.n_cycles}


def _series_work(theta, phi, n, omega_az=0.0):
    pts = np.broadcast(np.asarray(theta), np.asarray(phi)).size
    return {"points": pts, "point_cycles": pts * n}


# (layer, module, attribute, span name, work counter)
TARGETS = (
    ("cli", "cli", "main", "cli.main", None),
    ("cli", "cli", "resolve_config", "cli.resolve", None),
    ("cli", "cli", "run", "cli.run", None),
    ("cli", "cli", "emit", "cli.emit", None),
    ("propagator", "propagator", "p_g_numeric_grid", "propagator.grid", _grid_work),
    ("propagator", "propagator", "evolve", "propagator.evolve", _evolve_work),
    ("propagator", "propagator", "unitarity_report", "propagator.unitarity_report",
     _report_work),
    ("cyclemap", "cyclemap", "p_series_mean_grid", "cyclemap.series", _series_work),
    ("cyclemap", "cyclemap", "p_g_closed", "cyclemap.closed", None),
    ("bandmodel", "bandmodel", "gap_stats", "bandmodel.gap_stats", None),
    ("ensemble", "ensemble", "ensemble_average", "ensemble.ensemble_average", None),
    ("thermo", "thermo", "temperature_sweep", "thermo.temperature_sweep", None),
    ("thermo", "thermo", "fluence_sweep", "thermo.fluence_sweep", None),
)


class Tracer:
    """Records spans from wrapped module attributes; one op at a time."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, op, work)
        self.op = None
        self._ids = itertools.count()
        self._main_ident = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _call(self, name, fn, work_fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool thread: the main thread is blocked inside the span that
            # submitted the work, so its innermost span is the parent.
            main = self._main_stack
            parent = main[-1] if main else None
        work = None
        if work_fn is not None:
            try:
                work = work_fn(*args, **kwargs)
            except (TypeError, AttributeError, ValueError):
                work = None  # signature changed; the span still times the call
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.op, work))

    def install(self, modules):
        """Wrap every target that exists; return (restore, missing attributes)."""
        saved, missing = [], []
        for _layer, mod_name, attr, name, work_fn in TARGETS:
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue

            def wrapper(*args, _fn=fn, _name=name, _work=work_fn, **kwargs):
                return self._call(_name, _fn, _work, args, kwargs)

            setattr(module, attr, functools.wraps(fn)(wrapper))
            saved.append((module, attr, fn))

        def restore():
            for module, attr, fn in saved:
                setattr(module, attr, fn)

        return restore, missing


def absent_layers(missing):
    """Layers none of whose target functions exist."""
    missing = set(missing)
    layers = {}
    for layer, mod_name, attr, _name, _work in TARGETS:
        layers.setdefault(layer, []).append(f"{mod_name}.{attr}" in missing)
    return sorted(layer for layer, gone in layers.items() if all(gone))


def _union(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _self_times(spans):
    """Self time of every span: duration minus what its children cover."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        if s[4] in by_id:
            children.setdefault(s[4], []).append(s)
    out = {}
    for sid, s in by_id.items():
        lo, hi = s[2], s[3]
        covered = _union([(max(c[2], lo), min(c[3], hi))
                          for c in children.get(sid, []) if c[3] > lo and c[2] < hi])
        out[sid] = (hi - lo) - covered
    return out


# span-name prefix of each group that layer_metrics reports on
GROUPS = {"prop": "propagator.", "series": "cyclemap.series", "closed": "cyclemap.closed",
          "gap": "bandmodel.gap_stats", "ens": "ensemble.", "thermo": "thermo.",
          "resolve": "cli.resolve", "run": "cli.run", "emit": "cli.emit", "main": "cli.main"}
WORK_KEYS = ("points", "point_steps", "point_cycles")


def layer_metrics(spans, n_ops, workers):
    """Per-layer figures for one round: spans of its n_ops operations.

    Times and counts are per operation (round total / n_ops), so they compare
    directly with the end-to-end wall_s. Busy time is the union of a group's
    span intervals within each operation; ratios use round totals.
    """
    selfs = _self_times(spans)
    by_op = {}
    for s in spans:
        by_op.setdefault(s[5], []).append(s)

    tot = {g: dict.fromkeys(("calls", "busy", "dur", "self") + WORK_KEYS, 0.0)
           for g in GROUPS}
    for op_spans in by_op.values():
        for g, prefix in GROUPS.items():
            group = [s for s in op_spans if s[1].startswith(prefix)]
            t = tot[g]
            t["calls"] += len(group)
            t["busy"] += _union([(s[2], s[3]) for s in group])
            t["dur"] += sum(s[3] - s[2] for s in group)
            t["self"] += sum(selfs[s[0]] for s in group)
            for key in WORK_KEYS:
                t[key] += sum((s[6] or {}).get(key, 0) for s in group)

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    prop, series = tot["prop"], tot["series"]
    return {
        "propagator.calls": prop["calls"] / n_ops,
        "propagator.points_per_call": ratio(prop["points"], prop["calls"]),
        "propagator.busy_s": prop["busy"] / n_ops,
        "propagator.point_steps": prop["point_steps"] / n_ops,
        "propagator.point_cycles": prop["point_cycles"] / n_ops,
        "propagator.updates_per_s": ratio(prop["point_steps"] + prop["point_cycles"],
                                          prop["busy"]),
        "propagator.overlap": ratio(prop["dur"], prop["busy"] * workers),
        "cyclemap.series_calls": series["calls"] / n_ops,
        "cyclemap.series_busy_s": series["busy"] / n_ops,
        "cyclemap.point_cycles": series["point_cycles"] / n_ops,
        "cyclemap.updates_per_s": ratio(series["point_cycles"], series["busy"]),
        "cyclemap.closed_calls": tot["closed"]["calls"] / n_ops,
        "cyclemap.closed_busy_s": tot["closed"]["busy"] / n_ops,
        "bandmodel.gap_stats_calls": tot["gap"]["calls"] / n_ops,
        "bandmodel.gap_stats_busy_s": tot["gap"]["busy"] / n_ops,
        "ensemble.busy_s": tot["ens"]["busy"] / n_ops,
        "thermo.busy_s": tot["thermo"]["busy"] / n_ops,
        "cli.resolve_s": tot["resolve"]["dur"] / n_ops,
        "cli.run_self_s": tot["run"]["self"] / n_ops,
        "cli.emit_s": tot["emit"]["dur"] / n_ops,
        "cli.io_s": tot["main"]["self"] / n_ops,
    }


def largest_call(spans, name):
    """Most points handed to one call of the named span (0 if none)."""
    return max((s[6]["points"] for s in spans if s[1] == name and s[6]), default=0)
