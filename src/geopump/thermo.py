"""Finite-temperature weights for the two pumping accounts.

The rate-style account weighs a transition by the occupancy difference
f_v - f_c; the cycle-map account weighs it by the probability that exactly
one of the two levels is occupied, f_v(1 - f_c) + f_c(1 - f_v), times the
one-half pumped fraction that requires a band crossing during the cycle.
The two factors respond oppositely when the gap closes (the difference
vanishes, the exactly-one weight stays finite), which is what the
temperature and fluence sweeps are designed to expose.

Band-edge energies, gap, and chemical potential follow a deliberately coarse
linear model in T; the fluence model shifts the chemical potential linearly
and leaves the bands alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import K_BOLTZMANN_MEV_PER_K


@dataclass(frozen=True)
class ThermalModel:
    gap0: float = 40.0
    t_berry: float = 160.0
    t_lif: float = 50.0
    mu0: float = 10.0
    fluence_slope: float = 0.2
    kB: float = K_BOLTZMANN_MEV_PER_K

    def __post_init__(self):
        if not self.gap0 > 0.0:
            raise ValueError(f"gap0 must be > 0, got {self.gap0}")
        if not self.t_berry > self.t_lif > 0.0:
            raise ValueError("temperatures must satisfy t_berry > t_lif > 0, got "
                             f"t_berry={self.t_berry}, t_lif={self.t_lif}")
        if not self.kB > 0.0:
            raise ValueError(f"kB must be > 0, got {self.kB}")

    def gap(self, T: float) -> float:
        """Static gap, closing linearly at t_berry: gap0 * max(0, 1 - T/t_berry)."""
        return self.gap0 * max(0.0, 1.0 - T / self.t_berry)

    def mu(self, T: float) -> float:
        """Chemical potential, crossing zero at t_lif: mu0 * (1 - T/t_lif)."""
        return self.mu0 * (1.0 - T / self.t_lif)


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


def fermi(E: float, mu: float, T: float, kB: float = K_BOLTZMANN_MEV_PER_K) -> float:
    """Fermi-Dirac occupation 1/(1 + exp((E - mu)/kB T)).

    T = 0 returns the zero-temperature step, with 1/2 exactly at E = mu.
    """
    if T < 0.0:
        raise ValueError(f"temperature must be >= 0, got {T}")
    kT = kB * T
    if kT == 0.0:  # T = 0, or a subnormal T whose kB * T underflows
        if E < mu:
            return 1.0
        return 0.5 if E == mu else 0.0
    with np.errstate(over="ignore"):  # x = +/-inf is the T -> 0 limit of the occupation
        x = (E - mu) / kT
    if x >= 0.0:
        e = math.exp(-x)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(x))


def _check_occupancy(f_v: float, f_c: float):
    if not (-1e-12 <= f_v <= 1.0 + 1e-12 and -1e-12 <= f_c <= 1.0 + 1e-12):
        raise ValueError(f"occupancies must lie in [0, 1], got f_v={f_v}, f_c={f_c}")


def fgr_factor(f_v: float, f_c: float) -> float:
    """Occupancy difference f_v - f_c; antisymmetric under band exchange."""
    _check_occupancy(f_v, f_c)
    return f_v - f_c


def geometric_factor(f_v: float, f_c: float) -> float:
    """Probability that exactly one band is occupied: f_v + f_c - 2 f_v f_c.

    Symmetric under band exchange and confined to [0, 1]; stays positive
    for degenerate part-filled bands where the occupancy difference is zero.
    """
    _check_occupancy(f_v, f_c)
    return f_v + f_c - 2.0 * f_v * f_c


def gp_probability(f_v: float, f_c: float, delta_nu: int) -> float:
    """Pumped fraction geometric_factor * 1/2, gated by the winding change."""
    if delta_nu not in (0, 1):
        raise ValueError(f"delta_nu must be 0 or 1, got {delta_nu}")
    g = geometric_factor(f_v, f_c)
    return 0.5 * g if delta_nu == 1 else 0.0


def temperature_sweep(model: ThermalModel, T_range, closable_gap: float = 0.0) -> PumpCurve:
    """Evaluate both weights at the band edges +-gap(T)/2 across T_range.

    The winding change is 1 where the drive can close the static gap,
    gap(T) <= closable_gap, else 0; the default 0.0 keeps the pumped fraction
    confined to the gap-closed phase above t_berry. Pass closable_gap = inf
    to treat the drive as always closing the gap.
    """
    T_range = np.asarray(T_range, dtype=float)
    q_gp = np.empty(T_range.shape)
    q_fgr = np.empty(T_range.shape)
    for i, T in enumerate(T_range):
        delta = model.gap(T)
        mu = model.mu(T)
        f_v = fermi(-0.5 * delta, mu, T, model.kB)
        f_c = fermi(+0.5 * delta, mu, T, model.kB)
        dnu = 1 if delta <= closable_gap else 0
        q_gp[i] = gp_probability(f_v, f_c, dnu)
        q_fgr[i] = fgr_factor(f_v, f_c)
    return PumpCurve(abscissa=T_range, q_gp=q_gp, q_fgr=q_fgr)


def fluence_sweep(model: ThermalModel, T: float, F_range, delta_nu: int = 1) -> PumpCurve:
    """Shift the chemical potential down linearly with fluence at fixed T.

    mu_eff(F) = mu(T) - fluence_slope * F; the band edges stay at
    +-gap(T)/2. The rate-style weight carries the extra linear fluence
    factor F/F_max (unit matrix element, normalized to 1 at max fluence);
    delta_nu = 1 by default since the sweep models the strongly driven case.
    """
    F_range = np.asarray(F_range, dtype=float)
    if len(F_range) == 0:
        raise ValueError("fluence range is empty")
    if np.any(F_range < 0.0):
        raise ValueError("fluence values must be >= 0")
    f_max = float(F_range.max())
    if f_max == 0.0:
        raise ValueError("max fluence must be > 0 to normalize the linear factor")
    delta = model.gap(T)
    q_gp = np.empty(F_range.shape)
    q_fgr = np.empty(F_range.shape)
    for i, F in enumerate(F_range):
        mu_eff = model.mu(T) - model.fluence_slope * F
        f_v = fermi(-0.5 * delta, mu_eff, T, model.kB)
        f_c = fermi(+0.5 * delta, mu_eff, T, model.kB)
        q_gp[i] = gp_probability(f_v, f_c, delta_nu)
        q_fgr[i] = fgr_factor(f_v, f_c) * (F / f_max)
    return PumpCurve(abscissa=F_range, q_gp=q_gp, q_fgr=q_fgr)
