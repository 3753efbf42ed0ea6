"""Batch experiment runner with CSV/JSON emission.

Each named experiment resolves a layered configuration (built-in defaults,
then a JSON config file, then --set overrides). `run` validates it in one pass
before any computation starts: DEFAULTS is the schema, so every leaf must have
its default's type, and the library objects the experiment builds are made
with each grid axis at its min and at its max, so their constructors' range
checks cover every point. It then dispatches to the owning module and
serializes one rectangular result table. Execution is serial: each sweep
is one grid-kernel call on its whole flattened grid, and the propagator
kernel bounds its own working memory by walking the grid in blocks. A
propagator failure names the failing grid point; `run` reports it, and every
other failure of a checked config's computation, as a ComputeError.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import bandmodel, cyclemap, ensemble, propagator, thermo
from .bandmodel import DriveParams, GapClosedOnLoop
from .cyclemap import CycleParams
from .propagator import TrotterConfig
from .su2 import DegenerateSpectrum, eigensystem2
from .thermo import ThermalModel
from .units import DEFAULT_OMEGA

QUARTER_PI = math.pi / 4.0


class ConfigError(Exception):
    """Invalid or missing configuration field; message names the dotted path."""


class ComputeError(Exception):
    """A module computation failed; message names the offending grid point."""


class IoError(Exception):
    """Reading or writing a data file failed."""


@dataclass(frozen=True)
class ResultTable:
    columns: tuple
    rows: tuple
    metadata: dict

    def __post_init__(self):
        width = len(self.columns)
        for i, r in enumerate(self.rows):
            if len(r) != width:
                raise ValueError("table is not rectangular")
            for column, v in zip(self.columns, r):
                if not math.isfinite(v):
                    raise ValueError(f"non-finite value {v} in row {i}, column {column!r}")


_TROTTER = {"steps_per_cycle": 20000, "taylor_order": 4, "mode": "exact",
            "n_cycles": 100, "measure_offset": 0.0}

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
            "ensemble": {"n_systems": 60, "dt_mismatch": 0.1, "tau_cycle": 0.83,
                         "t_max": 12.0, "theta": math.pi, "phi": 0.0,
                         "omega_az": 0.0},
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
            "thermo": {"gap0": 40.0, "t_berry": 160.0, "t_lif": 50.0,
                       "mu0": 10.0, "fluence_slope": 0.2},
            "closable_gap": 0.0,
        },
        "grid": {"T": {"min": 1.0, "max": 300.0, "count": 300}},
        "output_path": "thermal.csv",
    },
    "fluence": {
        "params": {
            "thermo": {"gap0": 40.0, "t_berry": 160.0, "t_lif": 50.0,
                       "mu0": 10.0, "fluence_slope": 0.2},
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
    """Deep-merge override into a copy of base; unknown keys are rejected.

    A grid axis takes either a `values` list or min/max/count; a layer that
    names one form drops the other.
    """
    if not isinstance(override, dict):
        raise ConfigError(f"expected a mapping at '{path or '<root>'}', got {type(override).__name__}")
    out = copy.deepcopy(base)
    for key, val in override.items():
        here = f"{path}.{key}" if path else key
        if path.startswith("grid.") and key in ("values", "min", "max", "count"):
            out = {k: v for k, v in out.items() if (k == "values") == (key == "values")}
        elif key not in base:
            raise ConfigError(f"unknown config field '{here}'")
        if isinstance(base.get(key), dict):
            out[key] = _merge(base[key], val, here)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _typed(value, default, path=""):
    """A copy of value with the type that its DEFAULTS entry fixes: a float
    default takes a finite number, an int default an integral one, a None
    default a finite number or null, a str default a string, a list default a
    non-empty list of its first element's type, a mapping default its keys."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"field '{path}' must be a mapping, got {value!r}")
        if path.startswith("grid."):  # an axis, in the form it uses
            x = default["values"][0] if "values" in default else default["min"]
            default = ({"values": [x]} if "values" in value
                       else {"min": x, "max": x, "count": 1})
        typed = {}
        for key, sub in default.items():
            here = f"{path}.{key}" if path else key
            if key not in value:
                raise ConfigError(f"field '{here}' is missing")
            typed[key] = _typed(value[key], sub, here)
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
    """The points of a typed grid axis; an integer axis must land on integers."""
    if "values" in axis:
        return np.asarray(axis["values"], dtype=float)
    if axis["count"] < 1:
        raise ConfigError(f"field '{path}.count' must be >= 1, got {axis['count']}")
    try:
        points = np.linspace(axis["min"], axis["max"], axis["count"])
    except (ValueError, MemoryError) as exc:  # more points than fit in memory
        raise ConfigError(f"field '{path}.count' is too large: {exc}") from exc
    if isinstance(axis["min"], int) and not np.array_equal(points, np.round(points)):
        raise ConfigError(f"field '{path}' must hold integers, got {points.tolist()}")
    return points


def _checked(where, make, **fields):
    """make(**fields); a ValueError or TypeError from it becomes a ConfigError
    that names the config fields `where` they came from."""
    try:
        return make(**fields)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _ends(c, *axes):
    """The named grid axes all at their min, then all at their max."""
    return [{n: float(end(c["grid"][n])) for n in axes} for end in (np.min, np.max)]


def _trotter(**fields):
    """TrotterConfig for evolve and p_g_numeric_grid, which reject taylor order 1."""
    tcfg = TrotterConfig(**fields)
    if tcfg.mode == "taylor" and tcfg.taylor_order < 2:
        raise ValueError("taylor_order must be >= 2 in taylor mode (1 is for unitarity-report)")
    return tcfg


def _ensemble_config(theta, phi, omega_az, **fields):
    cycle = CycleParams(theta=theta, phi=phi, omega_az=omega_az)
    return ensemble.EnsembleConfig(cycle=cycle, **fields)


def _check_propagator(c, *axes):
    """DriveParams at the ends of the swept drive axes, and the TrotterConfig."""
    where = " and ".join(["params.drive", *(f"grid.{n}" for n in axes)])
    for at in _ends(c, *axes):
        _checked(where, DriveParams, **c["params"]["drive"], **at)
    _checked("params.trotter", _trotter, **c["params"]["trotter"])


def _check_initial_states(c):
    _check_propagator(c)
    # w0 + w1 is the start state's norm^2 up to a few ulps of rounding; the
    # margin keeps every pair whose state evolve's NORM_TOL accepts
    tol = propagator.NORM_TOL + 1e-14
    for w in c["params"]["initial_weights"]:
        if len(w) != 2 or min(w) < 0.0 or abs(w[0] + w[1] - 1.0) > tol:
            raise ConfigError(f"params.initial_weights entry {w!r} is not two weights >= 0 "
                              "that sum to 1")


def _check_verify_cyclemap(c):
    for at in _ends(c, "theta", "phi"):
        _checked("grid.theta and grid.phi", CycleParams, **at)
    if c["params"]["n_cycles"] < 1:
        raise ConfigError(f"field 'params.n_cycles' must be >= 1, got {c['params']['n_cycles']}")


def _check_thermal(c):
    _checked("params.thermo", ThermalModel, **c["params"]["thermo"])
    if c["grid"]["T"].min() < 0.0:
        raise ConfigError(f"field 'grid.T' must be >= 0, got {c['grid']['T'].min()}")


def _check_fluence(c):
    p, fs = c["params"], c["grid"]["F"]
    _checked("params.thermo", ThermalModel, **p["thermo"])
    if p["T"] < 0.0:
        raise ConfigError(f"field 'params.T' must be >= 0, got {p['T']}")
    if p["delta_nu"] not in (0, 1):
        raise ConfigError(f"field 'params.delta_nu' must be 0 or 1, got {p['delta_nu']}")
    if fs.min() < 0.0 or fs.max() == 0.0:
        raise ConfigError(f"field 'grid.F' must be >= 0 with a maximum > 0, "
                          f"got [{fs.min()}, {fs.max()}]")


def _check_unitarity_report(c):
    _checked("params.drive", DriveParams, **c["params"]["drive"])
    for at in _ends(c, "taylor_order", "steps_per_cycle"):
        _checked("params.n_cycles, grid.taylor_order and grid.steps_per_cycle",
                 TrotterConfig, mode="taylor", n_cycles=c["params"]["n_cycles"], **at)


def _run_sweep_k(c):
    drive, ks = c["params"]["drive"], c["grid"]["k"]
    p_g = propagator.p_g_numeric_grid(ks, drive["eps0"], drive["a_ph"], drive["omega"],
                                      _trotter(**c["params"]["trotter"]))
    rows = []
    for k, p in zip(ks, p_g):
        stats = bandmodel.gap_stats(DriveParams(k=float(k), **drive))
        rows.append((float(k), float(p), stats.delta_int, stats.delta_min,
                     stats.delta_avg))
    return ("k", "p_g", "delta_int", "delta_min", "delta_avg"), rows


def _run_sweep_eps0(c):
    drive, eps0s, ks = c["params"]["drive"], c["grid"]["eps0"], c["grid"]["k"]
    emesh, kmesh = np.meshgrid(eps0s, ks, indexing="ij")
    p_g = propagator.p_g_numeric_grid(kmesh, emesh, drive["a_ph"], drive["omega"],
                                      _trotter(**c["params"]["trotter"]))
    p_max = p_g.reshape(len(eps0s), len(ks)).max(axis=1)
    rows = []
    for e, p in zip(eps0s, p_max):
        stats = bandmodel.gap_stats(DriveParams(eps0=float(e), k=0.0, **drive))
        rows.append((float(e), float(p), stats.delta_min))
    return ("eps0", "p_g_max", "delta_min_k0"), rows


def _run_sweep_amplitude(c):
    drive = c["params"]["drive"]
    amesh, kmesh = np.meshgrid(c["grid"]["a_ph"], c["grid"]["k"], indexing="ij")
    p_g = propagator.p_g_numeric_grid(kmesh, drive["eps0"], amesh, drive["omega"],
                                      _trotter(**c["params"]["trotter"]))
    rows = [(float(k), float(a), float(p))
            for (a, k, p) in zip(amesh.ravel(), kmesh.ravel(), p_g)]
    return ("k", "a_ph", "p_g"), rows


def _run_initial_states(c):
    p = DriveParams(**c["params"]["drive"])
    tcfg = _trotter(**c["params"]["trotter"])
    try:
        _, _, g0, g1 = eigensystem2(bandmodel.hamiltonian(p, 0.0))
    except DegenerateSpectrum as exc:
        raise ComputeError(f"initial-states: start basis degenerate at k={p.k}, "
                           f"eps0={p.eps0}") from exc
    columns = ["cycle"]
    traces = []
    for w_g, w_e in c["params"]["initial_weights"]:
        psi0 = math.sqrt(w_g) * g0 + math.sqrt(w_e) * g1
        try:
            traces.append(propagator.evolve(p, tcfg, initial=psi0).p_n)
        except propagator.EvolutionError as exc:
            raise ComputeError(f"initial-states: {exc} at weights ({w_g}, {w_e})") from exc
        columns.append(f"p_n_w{w_g:g}")
    rows = [tuple([float(m + 1)] + [float(tr[m]) for tr in traces])
            for m in range(tcfg.n_cycles)]
    return tuple(columns), rows


def _run_ensemble(c):
    trace = ensemble.ensemble_average(_ensemble_config(**c["params"]["ensemble"]))
    rows = [(float(t), float(pe), float(s), float(pf))
            for t, pe, s, pf in zip(trace.times, trace.p_ens,
                                    trace.entropy, trace.p_first)]
    return ("t", "p_ens", "entropy", "p_first"), rows


def _run_verify_cyclemap(c):
    tmesh, pmesh = np.meshgrid(c["grid"]["theta"], c["grid"]["phi"], indexing="ij")
    tflat, pflat = tmesh.ravel(), pmesh.ravel()
    series = cyclemap.p_series_mean_grid(tflat, pflat, c["params"]["n_cycles"])
    rows = []
    for th, ph, s in zip(tflat, pflat, series):
        closed = cyclemap.p_g_closed(CycleParams(theta=float(th), phi=float(ph)))
        rows.append((float(th), float(ph), closed, float(s), abs(closed - float(s))))
    return ("theta", "phi", "p_closed", "p_series_mean", "abs_diff"), rows


def _run_thermal(c):
    curve = thermo.temperature_sweep(ThermalModel(**c["params"]["thermo"]), c["grid"]["T"],
                                     closable_gap=c["params"]["closable_gap"])
    rows = [(float(a), float(g), float(f))
            for a, g, f in zip(curve.abscissa, curve.q_gp, curve.q_fgr)]
    return ("T", "q_gp", "q_fgr"), rows


def _run_fluence(c):
    p = c["params"]
    curve = thermo.fluence_sweep(ThermalModel(**p["thermo"]), p["T"], c["grid"]["F"],
                                 delta_nu=p["delta_nu"])
    rows = [(float(a), float(g), float(f))
            for a, g, f in zip(curve.abscissa, curve.q_gp, curve.q_fgr)]
    return ("F", "q_gp", "q_fgr"), rows


def _run_unitarity_report(c):
    p = DriveParams(**c["params"]["drive"])
    rows = []
    for order in c["grid"]["taylor_order"]:
        for nsteps in c["grid"]["steps_per_cycle"]:
            tcfg = TrotterConfig(steps_per_cycle=int(nsteps), taylor_order=int(order),
                                 mode="taylor", n_cycles=c["params"]["n_cycles"])
            defect, dev = propagator.unitarity_report(p, tcfg)
            rows.append((float(order), float(nsteps), defect, dev))
    return ("taylor_order", "steps_per_cycle", "defect_taylor", "max_dev_vs_exact"), rows


# Each experiment's range checks and runner. The checks see the typed config
# before any compute. Most ranges live in the constructors of the library
# objects an experiment builds; each constraint on a swept field is an
# interval, so building at both ends of every axis covers the whole axis.
_EXPERIMENTS = {
    "sweep-k": (lambda c: _check_propagator(c, "k"), _run_sweep_k),
    "sweep-eps0": (lambda c: _check_propagator(c, "eps0", "k"), _run_sweep_eps0),
    "sweep-amplitude": (lambda c: _check_propagator(c, "a_ph", "k"), _run_sweep_amplitude),
    "initial-states": (_check_initial_states, _run_initial_states),
    "ensemble": (lambda c: _checked("params.ensemble", _ensemble_config,
                                    **c["params"]["ensemble"]), _run_ensemble),
    "verify-cyclemap": (_check_verify_cyclemap, _run_verify_cyclemap),
    "thermal": (_check_thermal, _run_thermal),
    "fluence": (_check_fluence, _run_fluence),
    "unitarity-report": (_check_unitarity_report, _run_unitarity_report),
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
        declared = file_config.get("experiment")
        if declared is not None and declared != experiment:
            raise ConfigError(f"config file is for experiment '{declared}', "
                              f"but '{experiment}' was requested")
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
    return merged


def run(config: dict, workers: int = 1) -> ResultTable:
    """Validate a resolved config, dispatch the experiment, return its table.

    Every ConfigError is raised before any computation starts. Execution is
    serial; `workers` is accepted for compatibility and ignored.
    """
    del workers
    name = config.get("experiment")
    if name not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}")
    cfg = _typed(config, {"experiment": name, **DEFAULTS[name]})
    if not cfg["output_path"]:
        raise ConfigError("field 'output_path' must be a non-empty string")
    cfg["grid"] = {n: _points(axis, f"grid.{n}") for n, axis in cfg["grid"].items()}
    drive = cfg["params"].get("drive")
    if drive is not None and drive["omega"] is None:
        drive["omega"] = DEFAULT_OMEGA
    check, runner = _EXPERIMENTS[name]
    check(cfg)
    metadata = copy.deepcopy(config)
    if drive is not None:  # echo the resolved omega
        metadata["params"]["drive"]["omega"] = drive["omega"]
    try:
        columns, rows = runner(cfg)
        return ResultTable(columns=tuple(columns), rows=tuple(rows), metadata=metadata)
    except (propagator.EvolutionError, GapClosedOnLoop, DegenerateSpectrum,
            ArithmeticError, ValueError, MemoryError) as exc:
        # the config passed every check, so the computation itself failed: e.g.
        # a grid point on a gap closing, a non-finite result, or an array too
        # large to allocate
        raise ComputeError(f"{name}: {exc}") from exc


def emit(table: ResultTable, format: str = "csv") -> bytes:
    """Serialize a table: CSV with 17-significant-digit numbers, or JSON."""
    if format == "csv":
        lines = [",".join(table.columns)]
        for row in table.rows:
            lines.append(",".join("%.17g" % v for v in row))
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "json":
        doc = {"metadata": table.metadata, "columns": list(table.columns),
               "rows": [list(r) for r in table.rows]}
        return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")
    raise ConfigError(f"unknown output format '{format}'")


def parse_table(data: bytes, format: str = "csv") -> ResultTable:
    """Inverse of emit, for round-trip checks (CSV carries no metadata)."""
    text = data.decode("utf-8")
    if format == "csv":
        lines = [ln for ln in text.split("\n") if ln]
        columns = tuple(lines[0].split(","))
        rows = tuple(tuple(float(v) for v in ln.split(",")) for ln in lines[1:])
        return ResultTable(columns=columns, rows=rows, metadata={})
    if format == "json":
        doc = json.loads(text)
        return ResultTable(columns=tuple(doc["columns"]),
                           rows=tuple(tuple(r) for r in doc["rows"]),
                           metadata=doc["metadata"])
    raise ConfigError(f"unknown output format '{format}'")


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

        print(f"geopump: running {args.experiment}", file=sys.stderr)
        table = run(config)
        data = emit(table, args.format)

        out = config["output_path"]
        if out == "-":
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
        else:
            try:
                with open(out, "wb") as fh:
                    fh.write(data)
            except OSError as exc:
                raise IoError(f"cannot write '{out}': {exc}") from exc
            print(f"geopump: wrote {len(table.rows)} rows to {out}", file=sys.stderr)
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
