"""Seeded workload inputs and the correctness checks on their outputs.

Seed 0 runs the frozen configs exactly, and every output must match its
frozen reference table byte for byte. Any other seed shifts each swept axis
by a seeded fraction of one grid spacing, in [-1/2, 1/2): the point counts,
and so the work, stay the same, and the shifted grids stay clear of gap
closings (the propagator sweeps keep k >= 0.001 where eps0 crosses -1) and
inside the parameters' domains (theta stays within [0, pi]). Axes of integer
method settings (taylor orders, step counts) are not shifted, so an operation
without a swept axis runs its frozen inputs at every seed.

Outputs of shifted inputs are checked across routes instead: for
verify-cyclemap the closed form against the orbit average of its axis, the
series against the closed form and against the scalar series; the scalar
`propagator.p_g_numeric` on sampled grid points for the propagator sweeps,
and a recomputation of sampled or whole sweeps for the rest. These checks
run at every seed, outside the timed region.
"""

from __future__ import annotations

import copy
import math
import random

import numpy as np

# Scalar and batched routes share their algebra; they agree to rounding.
ROUTE_TOL = 1e-12
# Acceptance tolerance of the series-versus-closed-form check (50x50, 1e5 cycles).
CYCLEMAP_TOL = 1e-2
SAMPLED_ROWS = 3


def shifted_config(stem, config, seed):
    """The config of one operation at a seed; seed 0 returns it unchanged."""
    cfg = copy.deepcopy(config)
    if seed == 0:
        return cfg
    for name, axis in sorted(cfg["grid"].items()):
        rng = random.Random(f"geopump-bench:{seed}:{stem}:{name}")
        u = rng.random() - 0.5
        if "values" in axis:
            vals = axis["values"]
            if all(float(v).is_integer() for v in vals):
                continue
            gaps = np.diff(sorted(vals))
            step = float(gaps.min()) / 2.0 if len(gaps) else 0.0
            axis["values"] = [v + u * step for v in vals]
        elif axis["count"] > 1:
            shift = u * (axis["max"] - axis["min"]) / (axis["count"] - 1)
            axis["min"] += shift
            axis["max"] += shift
    return cfg


def parse_csv(data: bytes):
    lines = [ln for ln in data.decode("utf-8").split("\n") if ln]
    return lines[0].split(","), np.array([[float(v) for v in ln.split(",")]
                                          for ln in lines[1:]])


def max_abs_dev(data: bytes, reference: bytes) -> float:
    """Largest absolute difference of any cell from the reference table."""
    cols, rows = parse_csv(data)
    ref_cols, ref_rows = parse_csv(reference)
    if cols != ref_cols or rows.shape != ref_rows.shape:
        return math.inf
    return float(np.max(np.abs(rows - ref_rows))) if rows.size else 0.0


def _axis(grid, name):
    axis = grid[name]
    if "values" in axis:
        return np.asarray(axis["values"], dtype=float)
    if axis["count"] == 1:
        return np.array([float(axis["min"])])
    return np.linspace(axis["min"], axis["max"], axis["count"])


class _Check:
    """Collects failed conditions and the largest deviation seen."""

    def __init__(self):
        self.failures = []
        self.worst = None  # no cross-route comparison made

    def close(self, what, got, want, tol=ROUTE_TOL):
        dev = abs(float(got) - float(want))
        self.worst = dev if self.worst is None else max(self.worst, dev)
        if not dev <= tol:
            self.failures.append(f"{what}: {got!r} vs {want!r} (|diff| {dev:.3g} > {tol:g})")

    def equal_axis(self, what, got, want):
        if len(got) != len(want) or not np.array_equal(got, want):
            self.failures.append(f"{what}: grid coordinates differ from the inputs")


def cross_route(config, data: bytes, rng: random.Random):
    """Check one output against other routes.

    Returns (failures, largest deviation, or None when the experiment has no
    cross-route check).
    """
    from geopump import bandmodel, cyclemap, propagator, thermo
    from geopump.bandmodel import DriveParams
    from geopump.cyclemap import CycleParams
    from geopump.propagator import TrotterConfig
    from geopump.thermo import ThermalModel
    from geopump.units import DEFAULT_OMEGA

    chk = _Check()
    cols, rows = parse_csv(data)
    col = {c: rows[:, i] for i, c in enumerate(cols)} if rows.size else {}
    exp = config["experiment"]
    params, grid = config["params"], config["grid"]
    drive = params.get("drive", {})
    omega = drive.get("omega") or DEFAULT_OMEGA
    tcfg = TrotterConfig(**params["trotter"]) if "trotter" in params else None

    def sample(n):
        return sorted(rng.sample(range(n), min(SAMPLED_ROWS, n)))

    def scalar(eps0, a_ph, k):
        return propagator.p_g_numeric(
            DriveParams(eps0=float(eps0), a_ph=float(a_ph), k=float(k), omega=omega), tcfg)

    if exp == "sweep-eps0":
        eps0s, ks = _axis(grid, "eps0"), _axis(grid, "k")
        chk.equal_axis("eps0", col["eps0"], eps0s)
        for i in sample(len(eps0s)):
            row = propagator.p_g_numeric_grid(ks, eps0s[i], drive["a_ph"], omega, tcfg)
            j = int(np.argmax(row))
            chk.close(f"p_g_max[{i}] vs grid row", col["p_g_max"][i], row[j])
            chk.close(f"p_g_max[{i}] vs scalar at k={ks[j]}", col["p_g_max"][i],
                      scalar(eps0s[i], drive["a_ph"], ks[j]))
            stats = bandmodel.gap_stats(DriveParams(eps0=float(eps0s[i]), a_ph=drive["a_ph"],
                                                    k=0.0, omega=omega))
            chk.close(f"delta_min_k0[{i}]", col["delta_min_k0"][i], stats.delta_min)
    elif exp == "sweep-k":
        ks = _axis(grid, "k")
        chk.equal_axis("k", col["k"], ks)
        for i in sample(len(ks)):
            chk.close(f"p_g[{i}] vs scalar", col["p_g"][i],
                      scalar(drive["eps0"], drive["a_ph"], ks[i]))
            stats = bandmodel.gap_stats(DriveParams(eps0=drive["eps0"], a_ph=drive["a_ph"],
                                                    k=float(ks[i]), omega=omega))
            for name in ("delta_int", "delta_min", "delta_avg"):
                chk.close(f"{name}[{i}]", col[name][i], getattr(stats, name))
    elif exp == "sweep-amplitude":
        amesh, kmesh = np.meshgrid(_axis(grid, "a_ph"), _axis(grid, "k"), indexing="ij")
        chk.equal_axis("a_ph", col["a_ph"], amesh.ravel())
        chk.equal_axis("k", col["k"], kmesh.ravel())
        for i in sample(amesh.size):
            chk.close(f"p_g[{i}] vs scalar", col["p_g"][i],
                      scalar(drive["eps0"], amesh.ravel()[i], kmesh.ravel()[i]))
    elif exp == "verify-cyclemap":
        tmesh, pmesh = np.meshgrid(_axis(grid, "theta"), _axis(grid, "phi"), indexing="ij")
        chk.equal_axis("theta", col["theta"], tmesh.ravel())
        chk.equal_axis("phi", col["phi"], pmesh.ravel())
        for i, (th, ph) in enumerate(zip(tmesh.ravel(), pmesh.ravel())):
            orbit = cyclemap.p_infinity_orbit(
                cyclemap.orbit_axis(CycleParams(theta=float(th), phi=float(ph))))
            chk.close(f"p_closed[{i}] vs orbit average", col["p_closed"][i], orbit)
            chk.close(f"abs_diff[{i}]", col["abs_diff"][i],
                      abs(col["p_closed"][i] - col["p_series_mean"][i]))
        worst = float(np.max(col["abs_diff"]))
        if not worst <= CYCLEMAP_TOL:
            chk.failures.append(f"series vs closed form: max abs_diff {worst:.3g} > {CYCLEMAP_TOL}")
        n = params["n_cycles"]
        for i in sample(tmesh.size):
            series = cyclemap.p_series(CycleParams(theta=float(tmesh.ravel()[i]),
                                                   phi=float(pmesh.ravel()[i])), n)
            chk.close(f"p_series_mean[{i}] vs scalar series", col["p_series_mean"][i],
                      series[-1])
    elif exp in ("thermal", "fluence"):
        model = ThermalModel(**params["thermo"])
        if exp == "thermal":
            xs = _axis(grid, "T")
            curve = thermo.temperature_sweep(model, xs, closable_gap=params["closable_gap"])
            chk.equal_axis("T", col["T"], xs)
        else:
            xs = _axis(grid, "F")
            curve = thermo.fluence_sweep(model, params["T"], xs, delta_nu=params["delta_nu"])
            chk.equal_axis("F", col["F"], xs)
        for i in range(len(xs)):
            chk.close(f"q_gp[{i}]", col["q_gp"][i], curve.q_gp[i])
            chk.close(f"q_fgr[{i}]", col["q_fgr"][i], curve.q_fgr[i])
    # ensemble, initial-states and unitarity-report have no swept axis: their
    # inputs are the frozen ones at every seed and the reference table decides.
    return chk.failures, chk.worst
