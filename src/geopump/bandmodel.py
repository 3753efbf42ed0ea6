"""Driven two-band lattice model.

A single crystal momentum k sees the Bloch field
    d = (0, sin k, -(eps0 + a_ph sin(omega t) + cos k)),
so the instantaneous gap is 2|d|. The effective band offset
eps_eff(t) = eps0 + a_ph sin(omega t) oscillates once per cycle; when it
crosses -1 the k = 0 gap closes and the winding number of the k-loop flips,
which is the in-cycle topological transition the pumping story rides on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .su2 import bloch_matrix
from .units import DEFAULT_OMEGA

GAP_CLOSED_TOL = 1e-9
WINDING_GRID = 4096


class GapClosedOnLoop(Exception):
    """The (d2, d3) loop passes through the origin; winding is undefined."""


@dataclass(frozen=True)
class DriveParams:
    """Band and drive knobs for one momentum.

    eps0   : static band offset, model units
    a_ph   : phonon drive amplitude, model units (>= 0)
    omega  : drive angular frequency, rad per model time unit (> 0, with a
             finite drive period 2 pi / omega)
    k      : crystal momentum in [-pi, pi)
    """

    eps0: float
    a_ph: float
    k: float
    omega: float = DEFAULT_OMEGA

    def __post_init__(self):
        if not self.a_ph >= 0.0:
            raise ValueError(f"a_ph must be >= 0, got {self.a_ph}")
        if not self.omega > 0.0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if not np.isfinite(self.tau_cycle):
            raise ValueError(f"omega = {self.omega} gives a non-finite drive period "
                             "2 pi / omega")
        if not -np.pi <= self.k < np.pi:
            raise ValueError(f"k must lie in [-pi, pi), got {self.k}")

    @property
    def tau_cycle(self) -> float:
        return 2.0 * np.pi / self.omega


@dataclass(frozen=True)
class GapStats:
    delta_int: float
    delta_min: float
    delta_avg: float
    energy_ratio: float


@dataclass(frozen=True)
class TopologicalIndex:
    nu: int
    delta_nu: int


def bloch_vector(p: DriveParams, t) -> np.ndarray:
    """d(t) at a time or an array of times, with shape np.shape(t) + (3,)."""
    d3 = -(p.eps0 + p.a_ph * np.sin(p.omega * t) + np.cos(p.k))
    d = np.zeros(np.shape(d3) + (3,))
    d[..., 1] = np.sin(p.k)
    d[..., 2] = d3
    return d


def hamiltonian(p: DriveParams, t: float) -> np.ndarray:
    return bloch_matrix(bloch_vector(p, t))


def _gap_at_drive(p: DriveParams, s: np.ndarray) -> np.ndarray:
    """Gap 2|d| as a function of the drive value s = sin(omega t)."""
    d2 = np.sin(p.k)
    d3 = -(p.eps0 + p.a_ph * s + np.cos(p.k))
    return 2.0 * np.hypot(d2, d3)


def gap_stats(p: DriveParams, samples_per_cycle: int = 256) -> GapStats:
    """Gap statistics over one drive cycle.

    delta_min uses the dense samples plus the analytic critical drive values
    (the interior extremum of |d3| and the endpoints s = +/-1), so an exact
    in-cycle gap closing yields delta_min = 0 exactly rather than a small
    sampling residue.
    """
    if samples_per_cycle < 16:
        raise ValueError("samples_per_cycle must be >= 16")
    t = np.arange(samples_per_cycle) * (p.tau_cycle / samples_per_cycle)
    s = np.sin(p.omega * t)
    gaps = _gap_at_drive(p, s)
    crit = [-1.0, 1.0]
    if p.a_ph > 0.0:
        with np.errstate(over="ignore"):  # a subnormal a_ph: +/-inf, clipped to +/-1
            s_star = -(p.eps0 + np.cos(p.k)) / p.a_ph
        crit.append(float(np.clip(s_star, -1.0, 1.0)))
    gap_crit = _gap_at_drive(p, np.array(crit))
    delta_int = float(_gap_at_drive(p, np.array([0.0]))[0])
    delta_min = float(min(gaps.min(), gap_crit.min()))
    delta_avg = float(gaps.mean())
    energy_ratio = p.omega / delta_avg if delta_avg > 0.0 else np.inf
    return GapStats(delta_int=delta_int, delta_min=delta_min,
                    delta_avg=delta_avg, energy_ratio=float(energy_ratio))


def winding_number(eps_eff: float) -> int:
    """Winding of the loop (sin k, -(eps_eff + cos k)) around the origin.

    Computed as the accumulated branch-wrapped angle increment over a dense
    k grid, not by testing |eps_eff| against 1.

    Raises GapClosedOnLoop when the loop passes through the origin.
    """
    k = np.arange(WINDING_GRID + 1) * (2.0 * np.pi / WINDING_GRID)
    x = np.sin(k)
    y = -(eps_eff + np.cos(k))
    if float(np.min(np.hypot(x, y))) < GAP_CLOSED_TOL:
        raise GapClosedOnLoop(f"loop through origin at eps_eff = {eps_eff}")
    theta = np.arctan2(y, x)
    dtheta = np.diff(theta)
    dtheta = (dtheta + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(float(dtheta.sum()) / (2.0 * np.pi)))


def tpt_in_cycle(p: DriveParams) -> TopologicalIndex:
    """Detect a winding change between the drive extremes eps0 +/- a_ph.

    nu reports the pristine winding (eps_eff = eps0) when defined, else the
    first well-defined extreme. delta_nu = 1 only when both extremes have
    well-defined windings that differ; a single tangent closing counts as no
    transition. Raises GapClosedOnLoop only if both extremes are closed.
    """
    lo, hi = p.eps0 - p.a_ph, p.eps0 + p.a_ph
    results = []
    closed = 0
    for e in (lo, hi):
        try:
            results.append(winding_number(e))
        except GapClosedOnLoop:
            results.append(None)
            closed += 1
    if closed == 2:
        raise GapClosedOnLoop(f"gap closed at both drive extremes of eps0 = {p.eps0}")
    try:
        nu = winding_number(p.eps0)
    except GapClosedOnLoop:
        nu = next(r for r in results if r is not None)
    w_lo, w_hi = results
    delta = 1 if (w_lo is not None and w_hi is not None and w_lo != w_hi) else 0
    return TopologicalIndex(nu=nu, delta_nu=delta)
