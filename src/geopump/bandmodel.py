"""Driven two-band lattice model.

A single crystal momentum k sees the Bloch field
    d = (0, sin k, -(eps0 + a_ph sin(omega t) + cos k)),
so the instantaneous gap is 2|d|. The effective band offset
eps_eff(t) = eps0 + a_ph sin(omega t) oscillates once per cycle; when it
crosses -1 the k = 0 gap closes and the winding number of the k-loop flips,
which is the in-cycle topological transition the pumping story rides on.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .su2 import bloch_matrix, gap_closed
from .units import DEFAULT_OMEGA

WINDING_GRID = 4096
GAP_SAMPLES = 256  # dense gap samples per drive cycle


class GapClosedOnLoop(Exception):
    """The (d2, d3) loop passes through the origin; winding is undefined."""


@dataclass(frozen=True)
class DriveParams:
    """Band and drive knobs for one momentum.

    eps0   : static band offset, model units (finite)
    a_ph   : phonon drive amplitude, model units (finite, >= 0)
    omega  : drive angular frequency, rad per model time unit (> 0, with a
             finite drive period 2 pi / omega)
    k      : crystal momentum in [-pi, pi)
    """

    eps0: float
    a_ph: float
    k: float
    omega: float = DEFAULT_OMEGA

    def __post_init__(self):
        checked_drive(self.k, self.eps0, self.a_ph, self.omega)

    @property
    def tau_cycle(self) -> float:
        return drive_period(self.omega)


def checked_drive_amplitude(a_ph):
    """a_ph, one drive amplitude or an array of them; a ValueError names the
    first that is not finite and >= 0."""
    x = np.asarray(a_ph)
    inside = np.isfinite(x) & (x >= 0.0)
    if not inside.all():
        raise ValueError(f"a_ph must be finite and >= 0, got {x.ravel()[np.argmin(inside)]}")
    return a_ph


def checked_band_offset(eps0):
    """eps0, one static band offset or an array of them; a ValueError names
    the first that is not finite."""
    x = np.asarray(eps0)
    inside = np.isfinite(x)
    if not inside.all():
        raise ValueError(f"eps0 must be finite, got {x.ravel()[np.argmin(inside)]}")
    return eps0


def checked_momentum(k):
    """k, one crystal momentum or an array of them; a ValueError names the
    first outside [-pi, pi) (NaN included)."""
    x = np.asarray(k)
    inside = (-np.pi <= x) & (x < np.pi)
    if not inside.all():
        raise ValueError(f"k must lie in [-pi, pi), got {x.ravel()[np.argmin(inside)]}")
    return k


def checked_drive(k, eps0, a_ph, omega: float) -> float:
    """The drive period; DriveParams' rules, in its order, on one drive or on
    arrays of k, eps0 and a_ph, as the grid routes take them."""
    checked_drive_amplitude(a_ph)
    tau = drive_period(omega)
    checked_momentum(k)
    checked_band_offset(eps0)
    return tau


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


def bloch_d3(eps0, a_ph, cos_k, s):
    """d3 at the drive value s = sin(omega t): the one definition that every
    route's gap guards and band states read (the grid fold excepted)."""
    return -(eps0 + a_ph * s + cos_k)


def bloch_vector(p: DriveParams, t) -> np.ndarray:
    """d(t) at a time or an array of times, with shape np.shape(t) + (3,)."""
    d3 = bloch_d3(p.eps0, p.a_ph, np.cos(p.k), np.sin(p.omega * t))
    d = np.zeros(np.shape(d3) + (3,))
    d[..., 1] = np.sin(p.k)
    d[..., 2] = d3
    return d


def hamiltonian(p: DriveParams, t: float) -> np.ndarray:
    return bloch_matrix(bloch_vector(p, t))


def _gap_at_drive(d2, eps0, a_ph, cos_k, s):
    """Gap 2|d| as a function of the drive value s = sin(omega t)."""
    return 2.0 * np.hypot(d2, bloch_d3(eps0, a_ph, cos_k, s))


def gap_stats_grid(k, eps0, a_ph, omega: float = DEFAULT_OMEGA) -> GapStats:
    """gap_stats over flat parameter arrays, as a GapStats of (n,) arrays.

    k, eps0 and a_ph broadcast to a common flat shape; each row equals the
    gap_stats of its own DriveParams bit for bit. The dense samples are
    taken a block of rows at a time, so that each (rows, samples) temporary
    holds about 8192 samples (64 KiB) however long the sweep is.
    """
    k, eps0, a_ph = (np.asarray(x, dtype=float) for x in (k, eps0, a_ph))
    tau = checked_drive(k, eps0, a_ph, omega)
    k, eps0, a_ph = (x.ravel() for x in np.broadcast_arrays(k, eps0, a_ph))
    d2, cos_k = np.sin(k), np.cos(k)
    t = np.arange(GAP_SAMPLES) * (tau / GAP_SAMPLES)
    s = np.sin(omega * t)
    dense_min = np.empty(k.size)
    delta_avg = np.empty(k.size)
    block = 8192 // GAP_SAMPLES
    # a huge drive overflows a gap or a mean to inf, which a result table
    # rejects; omega over a subnormal gap overflows to a closed gap's inf
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

    Raises GapClosedOnLoop when the loop passes through the origin: where
    su2.gap_closed holds at a loop sample, d = (0, x, y); eps_eff takes the
    eps0 rule (checked_band_offset).
    """
    checked_band_offset(eps_eff)
    k = np.arange(WINDING_GRID + 1) * (2.0 * np.pi / WINDING_GRID)
    x = np.sin(k)
    y = bloch_d3(eps_eff, 0.0, np.cos(k), 0.0)  # the undriven field at eps0 = eps_eff
    if gap_closed(np.stack((np.zeros_like(x), x, y), axis=-1)).any():
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
    transition. Raises GapClosedOnLoop only if both extremes are closed. An
    extreme beyond the float range winds as the largest float does.
    """
    eps0, a_ph, big = float(p.eps0), float(p.a_ph), sys.float_info.max
    lo, hi = (min(max(e, -big), big) for e in (eps0 - a_ph, eps0 + a_ph))
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
