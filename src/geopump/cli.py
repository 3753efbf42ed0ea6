"""Batch experiment runner with CSV/JSON emission.

Each named experiment resolves a layered configuration (built-in defaults,
then a JSON config file, then --set overrides), validates every field before
any computation starts, dispatches to the owning module, and serializes one
rectangular result table. Grid kernels run serially over CHUNK_POINTS-sized
slices of the flattened grid, which bounds their working memory; the kernels
work point by point, so the chunking never changes the output bytes.
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

# Points per kernel call: large enough that per-call overhead is negligible,
# small enough to bound the kernels' temporaries (peak RSS grows with it).
CHUNK_POINTS = 2048

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
        for r in self.rows:
            if len(r) != width:
                raise ValueError("table is not rectangular")
            for v in r:
                if not math.isfinite(v):
                    raise ValueError(f"non-finite value {v} in results")


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
    """Deep-merge override into a copy of base; unknown keys are rejected."""
    if not isinstance(override, dict):
        raise ConfigError(f"expected a mapping at '{path or '<root>'}', got {type(override).__name__}")
    out = copy.deepcopy(base)
    for key, val in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config field '{here}'")
        if isinstance(base[key], dict):
            out[key] = _merge(base[key], val, here)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _require_number(cfg, path, allow_none=False):
    node = cfg
    for part in path.split("."):
        node = node[part]
    if node is None and allow_none:
        return None
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(f"field '{path}' must be a number, got {node!r}")
    if not math.isfinite(node):
        raise ConfigError(f"field '{path}' must be finite, got {node!r}")
    return float(node)


def _axis(grid, name):
    """Resolve one swept axis to an array, from values or min/max/count."""
    axis = grid[name]
    if not isinstance(axis, dict):
        raise ConfigError(f"grid.{name} must be a mapping")
    if "values" in axis:
        vals = axis["values"]
        if not isinstance(vals, (list, tuple)) or len(vals) == 0:
            raise ConfigError(f"grid.{name}.values must be a non-empty list")
        for v in vals:
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ConfigError(f"grid.{name}.values contains a non-finite entry {v!r}")
        return np.asarray(vals, dtype=float)
    for field in ("min", "max", "count"):
        if field not in axis:
            raise ConfigError(f"grid.{name}.{field} is missing")
    count = axis["count"]
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ConfigError(f"grid.{name}.count must be a positive integer, got {count!r}")
    lo = _require_number({"x": axis["min"]}, "x")
    hi = _require_number({"x": axis["max"]}, "x")
    if count == 1:
        return np.array([lo])
    return np.linspace(lo, hi, count)


def _require_count(cfg, path):
    value = _require_number(cfg, path)
    if not value.is_integer() or value < 1:
        raise ConfigError(f"field '{path}' must be a positive integer, got {value!r}")
    return int(value)


def _drive_params(where, **fields):
    try:
        return DriveParams(**fields)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _drive_dict(cfg):
    drive = cfg["params"]["drive"]
    d = {name: _require_number(cfg, f"params.drive.{name}", allow_none=name == "omega")
         for name in drive}
    if d["omega"] is None:
        d["omega"] = DEFAULT_OMEGA
    drive["omega"] = d["omega"]  # echo the resolved value
    return d


def _trotter_config(cfg):
    t = cfg["params"]["trotter"]
    ints = {name: _require_count(cfg, f"params.trotter.{name}")
            for name in ("steps_per_cycle", "taylor_order", "n_cycles")}
    offset = _require_number(cfg, "params.trotter.measure_offset")
    try:
        tcfg = TrotterConfig(mode=str(t["mode"]), measure_offset=offset, **ints)
    except ValueError as exc:
        raise ConfigError(f"params.trotter: {exc}") from exc
    if tcfg.mode == "taylor" and tcfg.taylor_order < 2:
        raise ConfigError("params.trotter.taylor_order must be >= 2 in taylor mode "
                          "(order 1 is for unitarity-report only)")
    return tcfg


def _chunked(n, fn):
    """Apply fn(lo, hi) over CHUNK_POINTS-sized index ranges, in grid order."""
    return np.concatenate([fn(lo, min(lo + CHUNK_POINTS, n))
                           for lo in range(0, n, CHUNK_POINTS)])


def _pump_grid(ks, eps0s, a_phs, omega, tcfg, label):
    ks, eps0s, a_phs = np.broadcast_arrays(ks, eps0s, a_phs)
    ks = ks.ravel(); eps0s = eps0s.ravel(); a_phs = a_phs.ravel()

    def chunk(lo, hi):
        try:
            return propagator.p_g_numeric_grid(ks[lo:hi], eps0s[lo:hi],
                                               a_phs[lo:hi], omega, tcfg)
        except propagator.EvolutionError as exc:
            i = lo + exc.indices[0]
            raise ComputeError(
                f"{label}: {exc}; first failing grid index {i}: k={float(ks[i])}, "
                f"eps0={float(eps0s[i])}, a_ph={float(a_phs[i])}") from exc

    return _chunked(len(ks), chunk)


def _run_sweep_k(cfg):
    drive = _drive_dict(cfg)
    tcfg = _trotter_config(cfg)
    ks = _axis(cfg["grid"], "k")
    _drive_params("params.drive", k=float(ks[0]), **drive)
    p_g = _pump_grid(ks, drive["eps0"], drive["a_ph"], drive["omega"],
                     tcfg, "sweep-k")
    rows = []
    for k, p in zip(ks, p_g):
        stats = bandmodel.gap_stats(DriveParams(eps0=drive["eps0"], a_ph=drive["a_ph"],
                                                k=float(k), omega=drive["omega"]))
        rows.append((float(k), float(p), stats.delta_int, stats.delta_min,
                     stats.delta_avg))
    return ("k", "p_g", "delta_int", "delta_min", "delta_avg"), rows


def _run_sweep_eps0(cfg):
    drive = _drive_dict(cfg)
    tcfg = _trotter_config(cfg)
    eps0s = _axis(cfg["grid"], "eps0")
    ks = _axis(cfg["grid"], "k")
    _drive_params("params.drive", eps0=float(eps0s[0]), k=float(ks[0]), **drive)
    emesh, kmesh = np.meshgrid(eps0s, ks, indexing="ij")
    p_g = _pump_grid(kmesh.ravel(), emesh.ravel(), drive["a_ph"], drive["omega"],
                     tcfg, "sweep-eps0").reshape(len(eps0s), len(ks))
    p_max = p_g.max(axis=1)
    rows = []
    for e, p in zip(eps0s, p_max):
        stats = bandmodel.gap_stats(DriveParams(eps0=float(e), a_ph=drive["a_ph"],
                                                k=0.0, omega=drive["omega"]))
        rows.append((float(e), float(p), stats.delta_min))
    return ("eps0", "p_g_max", "delta_min_k0"), rows


def _run_sweep_amplitude(cfg):
    drive = _drive_dict(cfg)
    tcfg = _trotter_config(cfg)
    amps = _axis(cfg["grid"], "a_ph")
    ks = _axis(cfg["grid"], "k")
    _drive_params("params.drive/grid.a_ph", a_ph=float(amps.min()), k=float(ks[0]),
                  **drive)
    amesh, kmesh = np.meshgrid(amps, ks, indexing="ij")
    p_g = _pump_grid(kmesh.ravel(), drive["eps0"], amesh.ravel(), drive["omega"],
                     tcfg, "sweep-amplitude")
    rows = [(float(k), float(a), float(p))
            for (a, k, p) in zip(amesh.ravel(), kmesh.ravel(), p_g)]
    return ("k", "a_ph", "p_g"), rows


def _run_initial_states(cfg):
    drive = _drive_dict(cfg)
    tcfg = _trotter_config(cfg)
    weights = cfg["params"]["initial_weights"]
    if not isinstance(weights, (list, tuple)) or len(weights) == 0:
        raise ConfigError("params.initial_weights must be a non-empty list of pairs")
    for w in weights:
        if (not isinstance(w, (list, tuple)) or len(w) != 2
                or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in w)):
            raise ConfigError(f"params.initial_weights entry {w!r} is not a numeric pair")
        if w[0] < 0 or w[1] < 0 or abs(w[0] + w[1] - 1.0) > 1e-9:
            raise ConfigError(f"params.initial_weights entry {w!r} must be >= 0 and sum to 1")
    p = _drive_params("params.drive", **drive)
    try:
        _, _, g0, g1 = eigensystem2(bandmodel.hamiltonian(p, 0.0))
    except DegenerateSpectrum as exc:
        raise ComputeError(f"initial-states: start basis degenerate at k={p.k}, "
                           f"eps0={p.eps0}") from exc
    columns = ["cycle"]
    traces = []
    for w_g, w_e in weights:
        psi0 = math.sqrt(w_g) * g0 + math.sqrt(w_e) * g1
        try:
            traces.append(propagator.evolve(p, tcfg, initial=psi0).p_n)
        except (propagator.DegenerateMeasurementBasis,
                propagator.NonUnitaryEvolution) as exc:
            raise ComputeError(f"initial-states: {exc} at weights ({w_g}, {w_e})") from exc
        columns.append(f"p_n_w{w_g:g}")
    rows = [tuple([float(m + 1)] + [float(tr[m]) for tr in traces])
            for m in range(tcfg.n_cycles)]
    return tuple(columns), rows


def _run_ensemble(cfg):
    e = cfg["params"]["ensemble"]
    n_systems = _require_count(cfg, "params.ensemble.n_systems")
    try:
        cycle = CycleParams(theta=float(e["theta"]), phi=float(e["phi"]),
                            omega_az=float(e["omega_az"]))
        ecfg = ensemble.EnsembleConfig(n_systems=n_systems,
                                       dt_mismatch=float(e["dt_mismatch"]),
                                       tau_cycle=float(e["tau_cycle"]),
                                       t_max=float(e["t_max"]),
                                       cycle=cycle)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"params.ensemble: {exc}") from exc
    trace = ensemble.ensemble_average(ecfg)
    rows = [(float(t), float(pe), float(s), float(pf))
            for t, pe, s, pf in zip(trace.times, trace.p_ens,
                                    trace.entropy, trace.p_first)]
    return ("t", "p_ens", "entropy", "p_first"), rows


def _run_verify_cyclemap(cfg):
    thetas = _axis(cfg["grid"], "theta")
    phis = _axis(cfg["grid"], "phi")
    n = _require_count(cfg, "params.n_cycles")
    tmesh, pmesh = np.meshgrid(thetas, phis, indexing="ij")
    tflat, pflat = tmesh.ravel(), pmesh.ravel()

    series = _chunked(len(tflat), lambda lo, hi: cyclemap.p_series_mean_grid(
        tflat[lo:hi], pflat[lo:hi], n))
    rows = []
    for th, ph, s in zip(tflat, pflat, series):
        closed = cyclemap.p_g_closed(CycleParams(theta=float(th), phi=float(ph)))
        rows.append((float(th), float(ph), closed, float(s), abs(closed - float(s))))
    return ("theta", "phi", "p_closed", "p_series_mean", "abs_diff"), rows


def _thermal_model(cfg):
    m = cfg["params"]["thermo"]
    try:
        return ThermalModel(gap0=float(m["gap0"]), t_berry=float(m["t_berry"]),
                            t_lif=float(m["t_lif"]), mu0=float(m["mu0"]),
                            fluence_slope=float(m["fluence_slope"]))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"params.thermo: {exc}") from exc


def _run_thermal(cfg):
    model = _thermal_model(cfg)
    ts = _axis(cfg["grid"], "T")
    if np.any(ts < 0.0):
        raise ConfigError("grid.T must be >= 0")
    closable = _require_number(cfg, "params.closable_gap")
    curve = thermo.temperature_sweep(model, ts, closable_gap=closable)
    rows = [(float(a), float(g), float(f))
            for a, g, f in zip(curve.abscissa, curve.q_gp, curve.q_fgr)]
    return ("T", "q_gp", "q_fgr"), rows


def _run_fluence(cfg):
    model = _thermal_model(cfg)
    fs = _axis(cfg["grid"], "F")
    T = _require_number(cfg, "params.T")
    if T < 0.0:
        raise ConfigError("params.T must be >= 0")
    dnu = cfg["params"]["delta_nu"]
    if isinstance(dnu, bool) or dnu not in (0, 1):
        raise ConfigError(f"params.delta_nu must be 0 or 1, got {dnu!r}")
    try:
        curve = thermo.fluence_sweep(model, T, fs, delta_nu=dnu)
    except ValueError as exc:
        raise ConfigError(f"grid.F: {exc}") from exc
    rows = [(float(a), float(g), float(f))
            for a, g, f in zip(curve.abscissa, curve.q_gp, curve.q_fgr)]
    return ("F", "q_gp", "q_fgr"), rows


def _run_unitarity_report(cfg):
    drive = _drive_dict(cfg)
    n = _require_count(cfg, "params.n_cycles")
    orders = _axis(cfg["grid"], "taylor_order")
    steps = _axis(cfg["grid"], "steps_per_cycle")
    p = _drive_params("params.drive", **drive)
    for name, axis in (("taylor_order", orders), ("steps_per_cycle", steps)):
        for v in axis:
            if v != int(v):
                raise ConfigError(f"grid.{name} must contain integers, got {v}")
    rows = []
    for order in orders:
        for nsteps in steps:
            try:
                tcfg = TrotterConfig(steps_per_cycle=int(nsteps),
                                     taylor_order=int(order), mode="taylor",
                                     n_cycles=n)
            except ValueError as exc:
                raise ConfigError(f"grid: {exc}") from exc
            try:
                defect, dev = propagator.unitarity_report(p, tcfg)
            except propagator.DegenerateMeasurementBasis as exc:
                raise ComputeError(f"unitarity-report: {exc}") from exc
            rows.append((float(int(order)), float(int(nsteps)), defect, dev))
    return ("taylor_order", "steps_per_cycle", "defect_taylor", "max_dev_vs_exact"), rows


_RUNNERS = {
    "sweep-k": _run_sweep_k,
    "sweep-eps0": _run_sweep_eps0,
    "sweep-amplitude": _run_sweep_amplitude,
    "initial-states": _run_initial_states,
    "ensemble": _run_ensemble,
    "verify-cyclemap": _run_verify_cyclemap,
    "thermal": _run_thermal,
    "fluence": _run_fluence,
    "unitarity-report": _run_unitarity_report,
}

EXPERIMENTS = tuple(_RUNNERS)


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
        patch = {}
        node = patch
        parts = key.split(".")
        for part in parts[:-1]:
            node[part] = {}
            node = node[part]
        node[parts[-1]] = value
        merged = _merge(merged, patch)
    return merged


def run(config: dict, workers: int = 1) -> ResultTable:
    """Validate a resolved config, dispatch the experiment, return its table.

    Execution is serial; `workers` is accepted for compatibility and ignored.
    """
    del workers
    if "experiment" not in config:
        raise ConfigError("field 'experiment' is missing")
    name = config["experiment"]
    if name not in _RUNNERS:
        raise ConfigError(f"unknown experiment '{name}'")
    if not isinstance(config.get("output_path"), str) or not config["output_path"]:
        raise ConfigError("field 'output_path' must be a non-empty string")
    try:
        columns, rows = _RUNNERS[name](config)
    except (GapClosedOnLoop, DegenerateSpectrum) as exc:
        raise ComputeError(f"{name}: {exc}") from exc
    return ResultTable(columns=tuple(columns), rows=tuple(rows),
                       metadata=copy.deepcopy(config))


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
            except json.JSONDecodeError as exc:
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
