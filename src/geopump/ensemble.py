"""Staggered-start ensemble built from the per-cycle map.

Many identical two-level systems run the same pump cycle but join the drive
at different moments, staggered by a fixed mismatch. Each member evolves
unitarily (its own entropy stays zero); averaging the pure-state projectors
over members yields a mixed density matrix whose entropy ramps up to ln 2
while the mean excited population settles at the long-run pumping value.

The single-system probability p1(t) is a staircase: the state only changes
at the instants where the drive amplitude peaks (one quarter period into
each cycle), where one application of the cycle unitary is accrued.

The member-averaged densities of all grid times form one (n_t, 2, 2) stack,
validated and diagonalised in one su2.density_spectra call; the entropy
comes from those eigenvalues. The stack is filled a block of time rows at a
time (about _BLOCK_VALUES member values each), so the working memory is
O(n_t), not O(n_t * n_systems): each block gathers, by transition count,
from tables over the counts of |amp0|^2, |amp1|^2 and conj(amp1) * amp0
(that operand order: NumPy's complex multiply is not bitwise commutative),
and each row is its own mean, so the blocking does not change a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import su2
from .cyclemap import CycleParams, cycle_unitary

GRID_PER_CYCLE = 100
_BLOCK_VALUES = 8192  # member values per block of time rows


@dataclass(frozen=True)
class EnsembleConfig:
    n_systems: int = 60
    dt_mismatch: float = 0.1
    tau_cycle: float = 0.83
    t_max: float = 12.0
    cycle: CycleParams = field(default_factory=lambda: CycleParams(theta=math.pi, phi=0.0))

    def __post_init__(self):
        if self.n_systems < 1:
            raise ValueError(f"n_systems must be >= 1, got {self.n_systems}")
        if not self.dt_mismatch > 0.0:
            raise ValueError(f"dt_mismatch must be > 0, got {self.dt_mismatch}")
        if not self.tau_cycle > 0.0:
            raise ValueError(f"tau_cycle must be > 0, got {self.tau_cycle}")
        if self.dt_mismatch >= self.tau_cycle:
            raise ValueError("dt_mismatch must be smaller than tau_cycle")
        if not self.t_max > 0.0:
            raise ValueError(f"t_max must be > 0, got {self.t_max}")


@dataclass(frozen=True)
class EnsembleTrace:
    times: np.ndarray
    p_ens: np.ndarray
    entropy: np.ndarray
    p_first: np.ndarray

    def __post_init__(self):
        n = len(self.times)
        if not (len(self.p_ens) == len(self.entropy) == len(self.p_first) == n):
            raise ValueError("trace arrays are not aligned")
        if np.any(self.entropy < -1e-12) or np.any(self.entropy > math.log(2.0) + 1e-12):
            raise ValueError("entropy left [0, ln 2]")


def transition_count(t, tau_cycle: float):
    """Number of amplitude maxima (at (m + 1/4) tau) passed by time t, >= 0, per element."""
    with np.errstate(invalid="raise"):  # a t whose count is no int64 raises, not casts
        return np.maximum(np.floor(np.divide(t, tau_cycle) - 0.25).astype(int) + 1, 0)[()]


def p1_staircase(c: CycleParams, tau_cycle: float, t: float) -> float:
    """Single-system excited probability at time t (started at 0).

    Piecewise constant: |<1| U^n |0>|^2 where n counts the drive maxima passed.
    Negative t means the system has not started yet and the value is 0.
    """
    if t < 0.0:
        return 0.0
    n = transition_count(t, tau_cycle)
    u = np.linalg.matrix_power(cycle_unitary(c), n)
    return float(abs(u[1, 0]) ** 2)


def observable_from_density(rho: np.ndarray) -> float:
    """Excited-level population tr(diag(0, 1) rho)."""
    su2.validate_density(rho)
    return float(rho[1, 1].real)


def ensemble_average(cfg: EnsembleConfig) -> EnsembleTrace:
    """Average n_systems staggered copies on a tau_cycle/100 time grid.

    Member j (j = 1 is the earliest) contributes p1(t - j*dt_mismatch); the
    entropy comes from the von Neumann entropy of the member-averaged density
    matrix, built from the same staircase states. A density that fails its
    check raises InvalidDensityMatrix naming its time index and t.
    """
    h = cfg.tau_cycle / GRID_PER_CYCLE
    n_t = int(math.floor(cfg.t_max / h + 1e-9)) + 1
    times = np.arange(n_t) * h

    # transition counts of the undelayed first member, which can be one cycle
    # ahead of every staggered one: counts rise with t and fall with the delay,
    # so its last count is the largest of all members
    first_counts = transition_count(times, cfg.tau_cycle)
    u = cycle_unitary(cfg.cycle)
    n_max = int(first_counts[-1])
    amp0 = np.empty(n_max + 1, dtype=complex)
    amp1 = np.empty(n_max + 1, dtype=complex)
    state = np.array([1.0, 0.0], dtype=complex)
    for m in range(n_max + 1):
        amp0[m], amp1[m] = state
        state = u @ state
    w0, w1, x01 = np.abs(amp0) ** 2, np.abs(amp1) ** 2, np.conj(amp1) * amp0

    delays = np.arange(1, cfg.n_systems + 1) * cfg.dt_mismatch
    rows = max(1, _BLOCK_VALUES // (cfg.n_systems + 1))
    rho = np.empty((n_t, 2, 2), dtype=complex)
    p_ens = np.empty(n_t)
    for lo in range(0, n_t, rows):
        hi = min(lo + rows, n_t)
        elapsed = times[lo:hi, None] - delays[None, :]
        # members not started yet (t < 0) stay in the ground state
        counts = transition_count(elapsed, cfg.tau_cycle)
        rho[lo:hi, 0, 0] = np.mean(w0[counts], axis=1)
        rho[lo:hi, 1, 1] = p_ens[lo:hi] = np.mean(w1[counts], axis=1)
        rho[lo:hi, 0, 1] = np.mean(x01[counts], axis=1)
    rho[:, 1, 0] = np.conj(rho[:, 0, 1])
    try:
        lam = su2.density_spectra(rho)
    except su2.InvalidDensityMatrix as exc:
        raise su2.InvalidDensityMatrix(
            f"ensemble density at time index {exc.index} (t = {float(times[exc.index])!r}): "
            f"{exc}", exc.index) from None
    entropy = su2.spectral_entropy(lam)

    p_first = np.abs(amp1[first_counts]) ** 2
    return EnsembleTrace(times=times, p_ens=p_ens, entropy=entropy, p_first=p_first)
