"""Batch experiment runner with CSV/JSON emission.

Each named experiment resolves a layered configuration (built-in defaults,
then a JSON config file, then --set overrides). `run` validates it in one pass
before any computation starts: DEFAULTS is the schema, so every leaf must have
its default's type; every experiment's grid must hold no more than
MAX_SWEEP_POINTS points, checked from the axis counts before any axis is
built, which alone bounds a thermo sweep. Then `run` calls the experiment's
one function. It first applies every range rule, the library's own (a
constructor, or a rule function of the module that owns the field), with each
grid axis at its min and at its max, and from the objects those rules built
caps a propagator, cycle-map or ensemble experiment's work at MAX_WORK and its
output rows at MAX_SWEEP_POINTS. Only then does it compute, with those
objects, and return one rectangular result table, held as one float64 array
per column. Execution is serial; the propagator grid kernel names a failing
grid point, and a point run names its drive; `run` reports these, like every
other failure of a checked config's computation, as a ComputeError.
`emit_chunks` serializes a table as CSV or JSON a chunk of rows at a time, so
the whole text is never held at once.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import bandmodel, cyclemap, ensemble, propagator, thermo
from .bandmodel import DriveParams
from .cyclemap import CycleParams
from .propagator import TrotterConfig
from .su2 import InvalidDensityMatrix
from .thermo import ThermalModel
from .units import DEFAULT_OMEGA

QUARTER_PI = math.pi / 4.0
# The most work one run may ask for: propagator point-steps plus point-cycles,
# cycle-map series point-cycles, or ensemble member values. On a 2-vCPU Xeon
# the grid kernel does about 21e6 point-steps per second (under a minute at
# the cap), a point run about 2.6e5 (an hour), and the cycle-map series about
# 1e8 point-cycles (10 s).
MAX_WORK = 1e9
# The most grid points, and the most output rows, any experiment may ask for;
# the only cap on a thermal or fluence sweep, which costs a few array passes
# per point. A row costs 8 B per column until emitted (40 MB for five columns
# at the cap), and the output is formatted _CHUNK_ROWS rows at a time.
MAX_SWEEP_POINTS = 1e6
# Rows per chunk that emit_chunks formats and encodes at once.
_CHUNK_ROWS = 256


class ConfigError(Exception):
    """Invalid or missing configuration field; message names the dotted path."""


class ComputeError(Exception):
    """A module computation failed; message names the offending grid point."""


class IoError(Exception):
    """Reading or writing a data file failed."""


@dataclass(frozen=True)
class ResultTable:
    """A rectangular table of finite numbers: `columns` names, `data` holds one
    float64 array per column, and the first `keys` columns name a row in the
    error that a non-finite value raises."""
    columns: tuple
    data: tuple
    metadata: dict
    keys: int = 0

    def __post_init__(self):
        data = tuple(np.asarray(v, dtype=float) for v in self.data)
        object.__setattr__(self, "data", data)
        if len(data) != len(self.columns) or any(v.shape != (self.n_rows,) for v in data):
            raise ValueError("table is not rectangular")
        bad = [(int(np.argmin(ok)), j) for j, ok in enumerate(map(np.isfinite, data))
               if not ok.all()]
        if bad:
            i, j = min(bad)  # the first in row-major order
            row = f"row {i}"
            if self.keys:
                row += " (%s)" % ", ".join("%s=%.17g" % (name, v[i]) for name, v
                                           in zip(self.columns[:self.keys], data))
            raise ValueError(f"non-finite value {float(data[j][i])} in {row}, "
                             f"column {self.columns[j]!r}")

    @property
    def n_rows(self) -> int:
        return self.data[0].size if self.data else 0

    def column(self, name: str) -> np.ndarray:
        return self.data[self.columns.index(name)]


_TROTTER = asdict(TrotterConfig())
_THERMO = asdict(ThermalModel())
_ENSEMBLE = asdict(ensemble.EnsembleConfig())
_ENSEMBLE.update(_ENSEMBLE.pop("cycle"))  # flat: theta, phi and omega_az

DEFAULTS = {
    "sweep-k": {
        "params": {
            "drive": {"eps0": -0.95, "a_ph": 0.1, "omega": None},
            "trotter": dict(_TROTTER),
        },
        "grid": {"k": {"min": -QUARTER_PI, "max": QUARTER_PI, "count": 401}},
        "output_path": "sweep_k.csv",
    },
    "sweep-eps0": {
        "params": {
            "drive": {"a_ph": 0.1, "omega": None},
            "trotter": dict(_TROTTER),
        },
        "grid": {
            "eps0": {"min": -1.05, "max": -0.75, "count": 121},
            "k": {"min": 0.005, "max": QUARTER_PI, "count": 101},
        },
        "output_path": "sweep_eps0.csv",
    },
    "sweep-amplitude": {
        "params": {
            "drive": {"eps0": -1.0, "omega": None},
            "trotter": dict(_TROTTER),
        },
        "grid": {
            "a_ph": {"values": [0.05, 0.1, 0.2, 0.4]},
            "k": {"min": 0.005, "max": QUARTER_PI, "count": 101},
        },
        "output_path": "sweep_amplitude.csv",
    },
    "initial-states": {
        "params": {
            "drive": {"eps0": -0.95, "a_ph": 0.1, "k": 0.02, "omega": None},
            "trotter": {**_TROTTER, "n_cycles": 200},
            "initial_weights": [[1.0, 0.0], [0.75, 0.25], [0.5, 0.5],
                                [0.25, 0.75], [0.0, 1.0]],
        },
        "grid": {},
        "output_path": "initial_states.csv",
    },
    "ensemble": {
        "params": {
            "ensemble": dict(_ENSEMBLE),
        },
        "grid": {},
        "output_path": "ensemble.csv",
    },
    "verify-cyclemap": {
        "params": {"n_cycles": 100000},
        "grid": {
            "theta": {"min": 0.05, "max": math.pi - 0.05, "count": 50},
            "phi": {"min": 0.05, "max": math.pi - 0.05, "count": 50},
        },
        "output_path": "verify_cyclemap.csv",
    },
    "thermal": {
        "params": {
            "thermo": dict(_THERMO),
            "closable_gap": 0.0,
        },
        "grid": {"T": {"min": 1.0, "max": 300.0, "count": 300}},
        "output_path": "thermal.csv",
    },
    "fluence": {
        "params": {
            "thermo": dict(_THERMO),
            "T": 20.0,
            "delta_nu": 1,
        },
        "grid": {"F": {"min": 40.0, "max": 80.0, "count": 81}},
        "output_path": "fluence.csv",
    },
    "unitarity-report": {
        "params": {
            "drive": {"eps0": -0.95, "a_ph": 0.1, "k": 0.02, "omega": None},
            "n_cycles": 100,
        },
        "grid": {
            "taylor_order": {"values": [1, 2, 4]},
            "steps_per_cycle": {"values": [2000, 20000]},
        },
        "output_path": "unitarity_report.csv",
    },
}


def _merge(base, override, path=""):
    """Deep-merge override into a copy of base; _typed rejects unknown keys.

    A grid axis takes either a `values` list or min/max/count; a layer that
    names one form drops the other form of the layers below it.
    """
    if not isinstance(override, dict):
        raise ConfigError(f"expected a mapping at '{path or '<root>'}', got {type(override).__name__}")
    out = copy.deepcopy(base)
    for key, val in override.items():
        here = f"{path}.{key}" if path else key
        if path.startswith("grid.") and key in ("values", "min", "max", "count"):
            out = {k: v for k, v in out.items()
                   if (k == "values") == (key == "values") or k in override}
        if isinstance(base.get(key), dict):
            out[key] = _merge(base[key], val, here)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _typed(value, default, path=""):
    """A copy of value with the type that its DEFAULTS entry fixes: a float
    default takes a finite number, an int default an integral one, a None
    default a finite number or null, a str default a string, a list default a
    non-empty list of its first element's type, a mapping default its keys
    and no other (the first unknown one, in value's order, is named)."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"field '{path}' must be a mapping, got {value!r}")
        if path.startswith("grid."):  # an axis, in the form it uses
            x = default["values"][0] if "values" in default else default["min"]
            default = ({"values": [x]} if "values" in value
                       else {"min": x, "max": x, "count": 1})
        prefix = f"{path}." if path else ""
        for key in value:
            if key not in default:
                raise ConfigError(f"unknown config field '{prefix}{key}'")
        typed = {}
        for key, sub in default.items():
            if key not in value:
                raise ConfigError(f"field '{prefix}{key}' is missing")
            typed[key] = _typed(value[key], sub, prefix + key)
        return typed
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"field '{path}' must be a non-empty list, got {value!r}")
        return [_typed(v, default[0], f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"field '{path}' must be a string, got {value!r}")
        return value
    if value is None and default is None:
        return None
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):  # also rejects NaN
        raise ConfigError(f"field '{path}' must be a finite number, got {value!r}")
    if isinstance(default, int):
        if value != int(value):
            raise ConfigError(f"field '{path}' must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _points(axis, path):
    """The points of a typed grid axis, as ints for an integer axis, which
    must land on integers."""
    if "values" in axis:
        return np.asarray(axis["values"])
    points = np.linspace(float(axis["min"]), float(axis["max"]), axis["count"])
    if isinstance(axis["min"], int):
        if not np.array_equal(points, np.round(points)):
            raise ConfigError(f"field '{path}' must hold integers, got {points.tolist()}")
        return np.asarray([int(x) for x in points])
    return points


def _checked(where, rule, *args, **fields):
    """rule(*args, **fields); a ValueError or TypeError from it becomes a
    ConfigError that names the config fields `where` they came from."""
    try:
        return rule(*args, **fields)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _at_ends(where, rule, c, **fields):
    """_checked(where, rule, **fields) with the experiment's grid axes all at
    their min, then all at their max, as Python numbers (ints on an integer
    axis; np.asarray, since an int beyond int64 comes back as itself)."""
    for end in (np.min, np.max):
        _checked(where, rule, **fields,
                 **{n: np.asarray(end(x)).item() for n, x in c["grid"].items()})


def _ensemble_config(theta, phi, omega_az, **fields):
    cycle = CycleParams(theta=theta, phi=phi, omega_az=omega_az)
    return ensemble.EnsembleConfig(cycle=cycle, **fields)


def _grid_points(c):
    """The number of points of the built grid, the product of its axis
    lengths."""
    return math.prod(map(len, c["grid"].values()))


def _shown(amount):
    """An estimate as a cap message shows it; an integer can lie beyond the
    float range, which math.log10 takes."""
    if isinstance(amount, int) and amount > sys.float_info.max:
        return f"10^{math.log10(amount):.1f}"
    return f"{amount:.3g}"


def _check_work(where, work, kind="propagator", unit="point-steps plus point-cycles"):
    if work > MAX_WORK:
        raise ConfigError(f"{where}: {kind} work of {_shown(work)} {unit} exceeds the cap of "
                          f"{MAX_WORK:.0e}")


def _check_size(where, size, what):
    """The size cap: no more than MAX_SWEEP_POINTS grid points or output rows."""
    if size > MAX_SWEEP_POINTS:
        raise ConfigError(f"{where}: {_shown(size)} {what} exceed the cap of "
                          f"{MAX_SWEEP_POINTS:.0e}")


def _taylor_step_cost(order):
    """The work cap's cost of one taylor step of `order`, against 1 for an
    exact step: the 1 + order // 2 array passes of its build (_step_coeffs)."""
    return 1 + order // 2


def _trotter(c, states=1) -> TrotterConfig:
    """DriveParams at the ends of the swept drive axes and the TrotterConfig
    under evolve's own rule; then the work cap: every grid point steps one
    cycle, a taylor step costing _taylor_step_cost, and measures `states`
    states."""
    axes = [f"grid.{n}" for n in c["grid"]]
    _at_ends(" and ".join(["params.drive", *axes]), DriveParams, c, **c["params"]["drive"])
    t = _checked("params.trotter", propagator.checked_trotter,
                 _checked("params.trotter", TrotterConfig, **c["params"]["trotter"]))
    cost = _taylor_step_cost(t.taylor_order) if t.mode == "taylor" else 1
    _check_work(" and ".join(["params.trotter", *axes]),
                _grid_points(c) * (t.steps_per_cycle * cost + states * t.n_cycles))
    return t


def _start_states(drive, weights):
    """The (S, 2) start states sqrt(w0) g0 + sqrt(w1) g1 of `weights`, over
    the band basis of `drive` at t = 0; a ValueError names an entry that is
    not two weights >= 0, or a state that fails evolve's own norm test
    (checked_states)."""
    for w in weights:
        if len(w) != 2 or not min(w) >= 0.0:
            raise ValueError(f"entry {w!r} is not two weights >= 0")
    g0, g1 = propagator.band_basis(drive, 0.0, "the start time")
    return propagator.checked_states(
        np.array([math.sqrt(w0) * g0 + math.sqrt(w1) * g1 for w0, w1 in weights]))


def _sweep_k(c):
    trotter = _trotter(c)
    drive, ks = c["params"]["drive"], c["grid"]["k"]
    p_g = propagator.p_g_numeric_grid(ks, drive["eps0"], drive["a_ph"], drive["omega"], trotter)
    stats = bandmodel.gap_stats_grid(ks, drive["eps0"], drive["a_ph"], drive["omega"])
    return (("k", "p_g", "delta_int", "delta_min", "delta_avg"),
            (ks, p_g, stats.delta_int, stats.delta_min, stats.delta_avg), 1)


def _sweep_eps0(c):
    trotter = _trotter(c)
    drive, eps0s, ks = c["params"]["drive"], c["grid"]["eps0"], c["grid"]["k"]
    p_g = propagator.p_g_numeric_grid(ks[None, :], eps0s[:, None], drive["a_ph"],
                                      drive["omega"], trotter)
    p_max = p_g.reshape(len(eps0s), len(ks)).max(axis=1)
    stats = bandmodel.gap_stats_grid(0.0, eps0s, drive["a_ph"], drive["omega"])
    return ("eps0", "p_g_max", "delta_min_k0"), (eps0s, p_max, stats.delta_min), 1


def _sweep_amplitude(c):
    trotter = _trotter(c)
    drive = c["params"]["drive"]
    amesh, kmesh = np.meshgrid(c["grid"]["a_ph"], c["grid"]["k"], indexing="ij")
    p_g = propagator.p_g_numeric_grid(kmesh, drive["eps0"], amesh, drive["omega"], trotter)
    return ("k", "a_ph", "p_g"), (kmesh.ravel(), amesh.ravel(), p_g), 2


def _initial_states(c):
    """_trotter with one state per weight pair and the size cap on the table
    (one row per cycle); then the start states, after the caps because they
    take the band basis at t = 0 (a degenerate one is a compute error), and
    one evolution of their stack."""
    weights = c["params"]["initial_weights"]
    trotter = _trotter(c, states=len(weights))
    _check_size("params.trotter.n_cycles", trotter.n_cycles, "output rows")
    drive = DriveParams(**c["params"]["drive"])
    states = _checked("params.initial_weights", _start_states, drive, weights)
    try:
        p_n = propagator.evolve(drive, trotter, initial=states).p_n
    except propagator.EvolutionError as exc:  # run names the drive
        if not exc.indices:
            raise
        raise type(exc)(f"{exc} at weights {tuple(weights[exc.indices[0]])}",
                        exc.indices) from exc
    columns = ["cycle"] + [f"p_n_w{w_g:g}" for w_g, _ in weights]
    return columns, (np.arange(1.0, p_n.shape[1] + 1.0), *p_n), 1


def _ensemble(c):
    """The EnsembleConfig; then the work cap, n_systems + 1 member values at
    each time of ensemble_average's grid, and the size cap on its one row per
    time."""
    config = _checked("params.ensemble", _ensemble_config, **c["params"]["ensemble"])
    _, n_t = ensemble.time_grid(config.tau_cycle, config.t_max)
    _check_work("params.ensemble.t_max and params.ensemble.n_systems",
                float(n_t) * (config.n_systems + 1), "ensemble", "member values")
    _check_size("params.ensemble.t_max and params.ensemble.tau_cycle", n_t, "output rows")
    trace = ensemble.ensemble_average(config)
    return (("t", "p_ens", "entropy", "p_first"),
            (trace.times, trace.p_ens, trace.entropy, trace.p_first), 1)


def _verify_cyclemap(c):
    _at_ends("grid.theta and grid.phi", CycleParams, c)
    n_cycles = _checked("params.n_cycles", cyclemap.checked_cycles, c["params"]["n_cycles"])
    _check_work("grid.theta, grid.phi and params.n_cycles", _grid_points(c) * n_cycles,
                "cycle-map series", "point-cycles")
    tmesh, pmesh = np.meshgrid(c["grid"]["theta"], c["grid"]["phi"], indexing="ij")
    tflat, pflat = tmesh.ravel(), pmesh.ravel()
    series = cyclemap.p_series_mean_grid(tflat, pflat, n_cycles)
    closed = np.fromiter((cyclemap.p_g_closed(CycleParams(theta=float(th), phi=float(ph)))
                          for th, ph in zip(tflat, pflat)), float, count=tflat.size)
    return (("theta", "phi", "p_closed", "p_series_mean", "abs_diff"),
            (tflat, pflat, closed, series, np.abs(closed - series)), 2)


def _thermal(c):
    model = _checked("params.thermo", ThermalModel, **c["params"]["thermo"])
    _at_ends("grid.T", thermo.checked_temperature, c)
    curve = thermo.temperature_sweep(model, c["grid"]["T"],
                                     closable_gap=c["params"]["closable_gap"])
    return ("T", "q_gp", "q_fgr"), (curve.abscissa, curve.q_gp, curve.q_fgr), 1


def _fluence(c):
    p = c["params"]
    model = _checked("params.thermo", ThermalModel, **p["thermo"])
    T = _checked("params.T", thermo.checked_temperature, p["T"])
    delta_nu = _checked("params.delta_nu", bandmodel.checked_winding_change, p["delta_nu"])
    F = _checked("grid.F", thermo.checked_fluences, c["grid"]["F"])
    curve = thermo.fluence_sweep(model, T, F, delta_nu=delta_nu)
    return ("F", "q_gp", "q_fgr"), (curve.abscissa, curve.q_gp, curve.q_fgr), 1


def _unitarity_report(c):
    """The DriveParams and the taylor TrotterConfig at the ends of the axes;
    then the work cap: each distinct step count folds one exact reference and
    every distinct order, a step of which costs _taylor_step_cost."""
    where = "params.n_cycles, grid.taylor_order and grid.steps_per_cycle"
    n_cycles = c["params"]["n_cycles"]
    drive = _checked("params.drive", DriveParams, **c["params"]["drive"])
    _at_ends(where, TrotterConfig, c, mode="taylor", n_cycles=n_cycles)
    orders = c["grid"]["taylor_order"].tolist()
    steps = c["grid"]["steps_per_cycle"].tolist()
    _check_work(where, (1 + sum(map(_taylor_step_cost, set(orders)))) * sum(set(steps))
                + (len(set(orders)) + 1) * len(set(steps)) * n_cycles)
    report = propagator.unitarity_report(
        drive, TrotterConfig(mode="taylor", n_cycles=n_cycles), orders, steps)
    rows = np.array([(o, n, *report[o, n]) for o in orders for n in steps], dtype=float)
    return ("taylor_order", "steps_per_cycle", "defect_taylor", "max_dev_vs_exact"), rows.T, 2


# Each experiment's one function. It sees the config with its grid axes built,
# each of at most MAX_SWEEP_POINTS points, still before any compute, and first
# applies the library's rules through _checked and _at_ends: the constructors
# of the objects it builds and the checked_* functions of the modules that own
# the fields. Each rule on a swept field is an interval, so checking it at both
# ends of every axis covers the axis (the fluence rule reads the whole axis).
# From what those rules built it checks the work cap and any output rows
# beyond the grid's. Only then does it compute, with those objects, and return
# the column names, one array per column, and how many leading columns name a
# row.
_EXPERIMENTS = {
    "sweep-k": _sweep_k,
    "sweep-eps0": _sweep_eps0,
    "sweep-amplitude": _sweep_amplitude,
    "initial-states": _initial_states,
    "ensemble": _ensemble,
    "verify-cyclemap": _verify_cyclemap,
    "thermal": _thermal,
    "fluence": _fluence,
    "unitarity-report": _unitarity_report,
}


EXPERIMENTS = tuple(_EXPERIMENTS)


def resolve_config(experiment: str, file_config: dict | None = None,
                   overrides: list[str] | None = None) -> dict:
    """Layer defaults <- config file <- --set overrides into one document."""
    if experiment not in DEFAULTS:
        raise ConfigError(f"unknown experiment '{experiment}'")
    base = {"experiment": experiment, **copy.deepcopy(DEFAULTS[experiment])}
    merged = base
    if file_config is not None:
        if not isinstance(file_config, dict):
            raise ConfigError("config file must contain a JSON object")
        merged = _merge(merged, file_config)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got '{item}'")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for part in reversed(key.split(".")):
            value = {part: value}
        merged = _merge(merged, value)
    if merged["experiment"] != experiment:  # before _typed reads the wrong schema
        raise ConfigError(f"config is for experiment {merged['experiment']!r}, "
                          f"but '{experiment}' was requested")
    _typed(merged, base)  # the key set and the types that run checks
    return merged


def run(config: dict) -> ResultTable:
    """Validate a resolved config, dispatch the experiment, return its table.

    Every ConfigError is raised before any computation starts.
    """
    name = config.get("experiment")
    if name not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}")
    cfg = _typed(config, {"experiment": name, **DEFAULTS[name]})
    if not cfg["output_path"]:
        raise ConfigError("field 'output_path' must be a non-empty string")
    for n, axis in cfg["grid"].items():
        if axis.get("count", 1) < 1:
            raise ConfigError(f"field 'grid.{n}.count' must be >= 1, got {axis['count']}")
        lo, hi = float(axis.get("min", 0.0)), float(axis.get("max", 0.0))
        if not math.isfinite(hi - lo):  # np.linspace would make NaN points
            raise ConfigError(f"field 'grid.{n}' spans min={lo!r} to max={hi!r}, "
                              "a width beyond the float range")
    _check_size(" and ".join(f"grid.{n}" for n in cfg["grid"]),
                math.prod(len(a["values"]) if "values" in a else a["count"]
                          for a in cfg["grid"].values()), "grid points")
    cfg["grid"] = {n: _points(axis, f"grid.{n}") for n, axis in cfg["grid"].items()}
    drive = cfg["params"].get("drive")
    if drive is not None and drive["omega"] is None:
        drive["omega"] = DEFAULT_OMEGA
    metadata = copy.deepcopy(config)
    if drive is not None:  # echo the resolved omega
        metadata["params"]["drive"]["omega"] = drive["omega"]
    try:
        columns, data, keys = _EXPERIMENTS[name](cfg)
        return ResultTable(tuple(columns), tuple(data), metadata, keys)
    except (propagator.EvolutionError, InvalidDensityMatrix, ArithmeticError, ValueError,
            MemoryError) as exc:
        # the config passed every range check (a failed one is a ConfigError),
        # so the computation itself failed: e.g. a grid point or a start on a
        # gap closing, a non-finite result, or an array too large to allocate.
        # A grid kernel names its failing point; a point run, whose drive has
        # a fixed k, is named by its drive.
        at = (f"; drive k={drive['k']}, eps0={drive['eps0']}, a_ph={drive['a_ph']}"
              if drive is not None and "k" in drive else "")
        raise ComputeError(f"{name}: {exc}{at}") from exc


def emit_chunks(table: ResultTable, format: str = "csv"):
    """Serialize a table as a sequence of byte chunks: a head, then _CHUNK_ROWS
    rows per chunk. CSV has 17-significant-digit numbers under a header line;
    JSON is the text of json.dumps(doc, sort_keys=True, indent=1) of the doc
    {"metadata", "columns", "rows"}, whose last key, "rows", is streamed."""
    if format == "csv":
        head = ",".join(table.columns) + "\n"
        line, sep, tail = ",".join(["%.17g"] * len(table.columns)) + "\n", "", ""
    elif format == "json":
        doc = json.dumps({"metadata": table.metadata, "columns": list(table.columns),
                          "rows": []}, sort_keys=True, indent=1) + "\n"
        head, tail = ((doc[:-len("[]\n}\n")] + "[\n", "\n ]\n}\n") if table.n_rows
                      else (doc, ""))
        line, sep = "  [\n" + ",\n".join(["   %r"] * len(table.columns)) + "\n  ]", ",\n"
    else:
        raise ConfigError(f"unknown output format '{format}'")
    yield head.encode("utf-8")
    for lo in range(0, table.n_rows, _CHUNK_ROWS):
        rows = zip(*(v[lo:lo + _CHUNK_ROWS].tolist() for v in table.data))
        yield ((sep if lo else "") + sep.join([line % row for row in rows])).encode("utf-8")
    if tail:
        yield tail.encode("utf-8")


def emit(table: ResultTable, format: str = "csv") -> bytes:
    """The whole serialized table: the chunks of emit_chunks, joined."""
    return b"".join(emit_chunks(table, format))


def parse_table(data: bytes, format: str = "csv") -> ResultTable:
    """Inverse of emit, for round-trip checks (CSV carries no metadata)."""
    text = data.decode("utf-8")
    if format == "csv":
        lines = [ln for ln in text.split("\n") if ln]
        doc = {"columns": lines[0].split(","), "metadata": {},
               "rows": [[float(v) for v in ln.split(",")] for ln in lines[1:]]}
    elif format == "json":
        doc = json.loads(text)
    else:
        raise ConfigError(f"unknown output format '{format}'")
    columns = tuple(doc["columns"])
    values = np.array(doc["rows"], dtype=float).reshape(-1, len(columns))
    return ResultTable(columns, tuple(values.T), doc["metadata"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="geopump",
        description="Pumping-model experiment runner; emits CSV or JSON tables.")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config field (dotted path)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", help="output path; '-' writes data to stdout")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; execution is serial")
    args = parser.parse_args(argv)

    try:
        file_config = None
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    file_config = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config '{args.config}': {exc}")
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                raise ConfigError(f"config '{args.config}' is not valid JSON: {exc}")
        config = resolve_config(args.experiment, file_config, args.overrides)
        if args.out is not None:
            config["output_path"] = args.out
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        out = config["output_path"]
        if out == "-" and sys.stdout is None:  # started with fd 1 closed
            raise IoError("cannot write to stdout: it is closed")

        print(f"geopump: running {args.experiment}", file=sys.stderr)
        table = run(config)
        chunks = emit_chunks(table, args.format)

        if out == "-":
            try:
                sys.stdout.buffer.writelines(chunks)
                sys.stdout.buffer.flush()
            except OSError as exc:
                # fd 1 to devnull, so that the interpreter's flush at exit cannot fail again
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                raise IoError(f"cannot write to stdout: {exc}") from exc
        else:
            try:
                with open(out, "wb") as fh:
                    fh.writelines(chunks)
            except OSError as exc:
                raise IoError(f"cannot write '{out}': {exc}") from exc
            print(f"geopump: wrote {table.n_rows} rows to {out}", file=sys.stderr)
        return 0
    except ConfigError as exc:
        print(f"geopump: config error: {exc}", file=sys.stderr)
        return 2
    except ComputeError as exc:
        print(f"geopump: compute error: {exc}", file=sys.stderr)
        return 3
    except IoError as exc:
        print(f"geopump: io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
