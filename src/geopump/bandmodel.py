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
GAP_SAMPLES = 256  # dense gap samples per drive cycle


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
        drive_period(self.omega)
        if not -np.pi <= self.k < np.pi:
            raise ValueError(f"k must lie in [-pi, pi), got {self.k}")

    @property
    def tau_cycle(self) -> float:
        return 2.0 * np.pi / self.omega


def drive_period(omega: float) -> float:
    """2 pi / omega; a ValueError unless omega > 0 gives a finite, nonzero period."""
    tau = 2.0 * np.pi / float(omega) if omega > 0.0 else 0.0  # float: no overflow warning
    if not 0.0 < tau < np.inf:
        raise ValueError(f"omega = {omega} must be > 0 and give neither a zero nor a "
                         "non-finite drive period 2 pi / omega")
    return tau


def checked_winding_change(delta_nu: int) -> int:
    """delta_nu, a drive cycle's winding change; a ValueError unless it is 0 or 1."""
    if delta_nu not in (0, 1):
        raise ValueError(f"delta_nu must be 0 or 1, got {delta_nu}")
    return delta_nu


@dataclass(frozen=True)
class GapStats:
    """Gap figures of one drive cycle: floats from gap_stats, (n,) arrays
    from gap_stats_grid."""

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


def _gap_at_drive(d2, eps0, a_ph, cos_k, s):
    """Gap 2|d| as a function of the drive value s = sin(omega t)."""
    return 2.0 * np.hypot(d2, -(eps0 + a_ph * s + cos_k))


def gap_stats_grid(k, eps0, a_ph, omega: float = DEFAULT_OMEGA) -> GapStats:
    """gap_stats over flat parameter arrays, as a GapStats of (n,) arrays.

    k, eps0 and a_ph broadcast to a common flat shape; each row equals the
    gap_stats of its own DriveParams bit for bit. The dense samples are
    taken a block of rows at a time, so that each (rows, samples) temporary
    holds about 8192 samples (64 KiB) however long the sweep is.
    """
    tau = drive_period(omega)
    k, eps0, a_ph = (x.ravel() for x in np.broadcast_arrays(
        np.asarray(k, dtype=float), np.asarray(eps0, dtype=float),
        np.asarray(a_ph, dtype=float)))
    d2, cos_k = np.sin(k), np.cos(k)
    t = np.arange(GAP_SAMPLES) * (tau / GAP_SAMPLES)
    s = np.sin(omega * t)
    dense_min = np.empty(k.size)
    delta_avg = np.empty(k.size)
    block = 8192 // GAP_SAMPLES
    # a huge drive overflows a gap or a mean to inf, which a result table rejects
    with np.errstate(over="ignore"):
        for lo in range(0, k.size, block):
            rows = slice(lo, lo + block)
            gaps = _gap_at_drive(d2[rows, None], eps0[rows, None], a_ph[rows, None],
                                 cos_k[rows, None], s)
            dense_min[rows] = gaps.min(axis=1)
            delta_avg[rows] = gaps.mean(axis=1)
        # the least gap over s in [-1, 1], as gap_stats says
        gap_crit = np.where(np.abs(eps0 + cos_k) <= a_ph, 2.0 * np.abs(d2), np.minimum(
            *(_gap_at_drive(d2, eps0, a_ph, cos_k, s) for s in (-1.0, 1.0))))
        delta_int = _gap_at_drive(d2, eps0, a_ph, cos_k, 0.0)
    energy_ratio = np.full(k.size, np.inf)
    np.divide(omega, delta_avg, out=energy_ratio, where=delta_avg > 0.0)
    return GapStats(delta_int=delta_int, delta_min=np.minimum(dense_min, gap_crit),
                    delta_avg=delta_avg, energy_ratio=energy_ratio)


def gap_stats(p: DriveParams) -> GapStats:
    """Gap statistics over one drive cycle: the one-row case of gap_stats_grid.

    delta_min uses the dense samples plus the least gap over the drive values
    s in [-1, 1]: 2 |d2| where |eps0 + cos k| <= a_ph (the drive reaches the
    zero of d3), else the gap at s = +/-1. An in-cycle gap closing thus yields
    delta_min = 0 exactly, at any a_ph, rather than a sampling residue.
    """
    g = gap_stats_grid(p.k, p.eps0, p.a_ph, p.omega)
    return GapStats(*(float(v[0]) for v in (g.delta_int, g.delta_min, g.delta_avg,
                                            g.energy_ratio)))


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
