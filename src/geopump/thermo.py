"""Finite-temperature weights for the two pumping accounts.

The rate-style account weighs a transition by the occupancy difference
f_v - f_c; the cycle-map account weighs it by the probability that exactly
one of the two levels is occupied, f_v(1 - f_c) + f_c(1 - f_v), times the
pumped fraction of the cycle map's closed form (cyclemap.p_g_closed): one
half for a cycle that crosses a band transition (theta = pi), none for one
that does not (theta = 0).
The two factors respond oppositely when the gap closes (the difference
vanishes, the exactly-one weight stays finite), which is what the
temperature and fluence sweeps are designed to expose.

Band-edge energies, gap, and chemical potential follow a deliberately coarse
linear model in T; the fluence model shifts the chemical potential linearly
and leaves the bands alone. Both sweeps are one array kernel, _sweep; fermi
is the one-point case of its _fermi, which maps math.exp over the array
(np.exp rounds 4.6 % of arguments in [-700, 0] differently).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandmodel import checked_winding_change
from .cyclemap import CycleParams, p_g_closed, theta_from_tpt
from .units import K_BOLTZMANN_MEV_PER_K

# no warnings: an overflow is the T -> 0 or t -> 0 limit, a NaN fails the occupancy check
_LIMITS = np.errstate(over="ignore", divide="ignore", invalid="ignore")
_exp = np.frompyfunc(math.exp, 1, 1)


@dataclass(frozen=True)
class ThermalModel:
    gap0: float = 40.0
    t_berry: float = 160.0
    t_lif: float = 50.0
    mu0: float = 10.0
    fluence_slope: float = 0.2
    kB = K_BOLTZMANN_MEV_PER_K  # a class constant, not a field

    def __post_init__(self):
        if not self.gap0 > 0.0:
            raise ValueError(f"gap0 must be > 0, got {self.gap0}")
        if not self.t_berry > self.t_lif > 0.0:
            raise ValueError("temperatures must satisfy t_berry > t_lif > 0, got "
                             f"t_berry={self.t_berry}, t_lif={self.t_lif}")

    @_LIMITS
    def gap(self, T):
        """Static gap, closing linearly at t_berry: gap0 * max(0, 1 - T/t_berry)."""
        closing = 1.0 - np.divide(T, self.t_berry)
        return self.gap0 * np.where(closing > 0.0, closing, 0.0)[()]

    @_LIMITS
    def mu(self, T):
        """Chemical potential, crossing zero at t_lif: mu0 * (1 - T/t_lif)."""
        return self.mu0 * (1.0 - np.divide(T, self.t_lif))


@dataclass(frozen=True)
class PumpCurve:
    abscissa: np.ndarray
    q_gp: np.ndarray
    q_fgr: np.ndarray

    def __post_init__(self):
        if not (len(self.abscissa) == len(self.q_gp) == len(self.q_fgr)):
            raise ValueError("curve arrays are not aligned")
        if np.any(self.q_gp < -1e-12) or np.any(self.q_gp > 0.5 + 1e-12):
            raise ValueError("q_gp left [0, 1/2]")
        if np.any(np.abs(self.q_fgr) > 1.0 + 1e-12):
            raise ValueError("q_fgr left [-1, 1]")


def checked_temperature(T: float) -> float:
    """T; a ValueError unless T >= 0 (NaN included)."""
    if not T >= 0.0:
        raise ValueError(f"temperature must be >= 0, got {T}")
    return T


def checked_fluences(F_range) -> np.ndarray:
    """F_range as floats; a ValueError unless non-empty, >= 0, with a maximum > 0."""
    F_range = np.asarray(F_range, dtype=float)
    if F_range.size == 0:
        raise ValueError("fluence range is empty")
    if not (np.all(F_range >= 0.0) and F_range.max() > 0.0):
        raise ValueError(f"fluences must be >= 0 with a maximum > 0, "
                         f"got [{F_range.min()}, {F_range.max()}]")
    return F_range


def fermi(E: float, mu: float, T: float) -> float:
    """Fermi-Dirac occupation 1/(1 + exp((E - mu)/kB T)), kB = K_BOLTZMANN_MEV_PER_K.

    T = 0 returns the zero-temperature step, with 1/2 exactly at E = mu.
    """
    return float(_fermi(E, mu, K_BOLTZMANN_MEV_PER_K * checked_temperature(T)))


@_LIMITS
def _fermi(E, mu, kT) -> np.ndarray:
    """fermi per element at kT = kB * T: e/(1 + e) for x = (E - mu)/kT >= 0, else
    1/(1 + e), with e = exp(-|x|); at kT = 0 (T = 0, or a subnormal T whose
    kB * T underflows) x is -inf below mu, 0 at mu and +inf elsewhere."""
    E, mu, kT = (np.asarray(v, dtype=float) for v in (E, mu, kT))
    x = np.where(kT == 0.0, np.where(E < mu, -np.inf, np.where(E == mu, 0.0, np.inf)),
                 (E - mu) / kT)
    e = np.asarray(_exp(-np.abs(x)), dtype=float)
    return np.where(x >= 0.0, e, 1.0) / (1.0 + e)


def _check_occupancy(f_v, f_c):
    """A ValueError naming the first pair, in broadcast order, outside [0, 1]."""
    ok = np.logical_and(np.logical_and(-1e-12 <= f_v, f_v <= 1.0 + 1e-12),
                        np.logical_and(-1e-12 <= f_c, f_c <= 1.0 + 1e-12))
    if not ok.all():
        i = np.argmin(ok)
        v, c = (np.ravel(f) for f in np.broadcast_arrays(f_v, f_c))
        raise ValueError(f"occupancies must lie in [0, 1], got f_v={v[i]}, f_c={c[i]}")


def fgr_factor(f_v, f_c):
    """Occupancy difference f_v - f_c; antisymmetric under band exchange."""
    _check_occupancy(f_v, f_c)
    return f_v - f_c


def geometric_factor(f_v, f_c):
    """Probability that exactly one band is occupied: f_v + f_c - 2 f_v f_c.

    Symmetric under band exchange and confined to [0, 1]; stays positive
    for degenerate part-filled bands where the occupancy difference is zero.
    """
    _check_occupancy(f_v, f_c)
    return f_v + f_c - 2.0 * f_v * f_c


def gp_probability(f_v, f_c, delta_nu: int):
    """Pumped fraction p_g_closed * geometric_factor of the cycle that the
    winding change selects: the crossing cycle's 1/2, or 0."""
    return _pumped(f_v, f_c, checked_winding_change(delta_nu) == 1)


def _pumped(f_v, f_c, gate):
    """gp_probability, with the crossing cycle where the gate (delta_nu == 1,
    per point or for all) is set and the trivial cycle elsewhere."""
    crossing, trivial = (p_g_closed(CycleParams(theta_from_tpt(nu), 0.0)) for nu in (1, 0))
    return np.where(gate, crossing, trivial) * geometric_factor(f_v, f_c)


def _sweep(abscissa, gap, mu, kT, gate, scale=1.0) -> PumpCurve:
    """Both weights at the band edges +-gap/2 over a whole axis: the pumped
    fraction where `gate` is set, and the occupancy difference times `scale`."""
    f_v = _fermi(-0.5 * gap, mu, kT)
    f_c = _fermi(+0.5 * gap, mu, kT)
    return PumpCurve(abscissa=abscissa, q_gp=_pumped(f_v, f_c, gate),
                     q_fgr=fgr_factor(f_v, f_c) * scale)


@_LIMITS
def temperature_sweep(model: ThermalModel, T_range, closable_gap: float = 0.0) -> PumpCurve:
    """Evaluate both weights at the band edges +-gap(T)/2 across T_range.

    The winding change is 1 where the drive can close the static gap,
    gap(T) <= closable_gap, else 0; the default 0.0 keeps the pumped fraction
    confined to the gap-closed phase above t_berry. Pass closable_gap = inf
    to treat the drive as always closing the gap.
    """
    T_range = np.asarray(T_range, dtype=float)
    if T_range.size:  # the rule is an interval, so its lowest T covers the sweep
        checked_temperature(float(T_range.min()))
    gap = model.gap(T_range)
    return _sweep(T_range, gap, model.mu(T_range), model.kB * T_range, gap <= closable_gap)


@_LIMITS
def fluence_sweep(model: ThermalModel, T: float, F_range, delta_nu: int = 1) -> PumpCurve:
    """Shift the chemical potential down linearly with fluence at fixed T.

    mu_eff(F) = mu(T) - fluence_slope * F; the band edges stay at
    +-gap(T)/2. The rate-style weight carries the extra linear fluence
    factor F/F_max (unit matrix element, normalized to 1 at max fluence);
    delta_nu = 1 by default since the sweep models the strongly driven case.
    """
    F_range = checked_fluences(F_range)
    kT = model.kB * checked_temperature(T)
    return _sweep(F_range, model.gap(T), model.mu(T) - model.fluence_slope * F_range, kT,
                  checked_winding_change(delta_nu) == 1, F_range / F_range.max())
