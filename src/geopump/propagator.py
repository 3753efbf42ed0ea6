"""Trotter time evolution of the driven two-band model.

The drive is exactly periodic, so the ordered product of the per-step
unitaries over one cycle is the same matrix every cycle. evolve() builds that
one-cycle product once and then applies 2x2 powers per cycle, which turns an
O(n_cycles * steps_per_cycle) walk into O(steps_per_cycle + n_cycles).
The steps are built a block of _BLOCK_STEPS at a time: _step_matrix takes a
whole array of Bloch vectors (one step is its size-1 case), and the block is
then folded into the product in step order, one 2x2 matmul per step. Every
matrix element goes through the same IEEE operations as a one-step build, so
the product is bit-identical to a step-by-step loop.
Sweeps over momentum/offset grids use the same algebra on flat component
arrays (p_g_numeric_grid), one vectorized operation per step for the whole
grid; both routes enforce the same guards and are cross-checked in the tests.

Because H^2 = |d|^2 I, every step is ca I - i kappa H with r = |d| dt, and
_step_coeffs alone decides (ca, kappa): the order-m Taylor truncation of
exp(-i H dt) gives truncated cos(r) and dt sin(r)/r series, whose odd/even
order controls how fast the r^(order+1)-scale non-unitarity accumulates;
the exact mode uses cos and dt sinc, bit-identical to su2.exact_step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import su2
from .bandmodel import DriveParams, bloch_vector, hamiltonian
from .su2 import DegenerateSpectrum, eigensystem2

UNITARITY_BUDGET = 0.05
PROBABILITY_TOL = 1e-6

MODES = ("taylor", "exact")

# Steps built per array call in evolve: 128 KiB of complex step matrices.
_BLOCK_STEPS = 2048


class EvolutionError(Exception):
    """An evolution was rejected; `indices` are the failing positions of a
    p_g_numeric_grid call (empty for a single-point evolve)."""

    def __init__(self, message: str, indices=()):
        super().__init__(message)
        self.indices = tuple(int(i) for i in indices)


class DegenerateMeasurementBasis(EvolutionError):
    """Instantaneous gap at the measurement time is below the degeneracy tolerance."""


class NonUnitaryEvolution(EvolutionError):
    """Accumulated truncation defect exceeded the budget, or probabilities left [0, 1]."""


@dataclass(frozen=True)
class TrotterConfig:
    steps_per_cycle: int = 20000
    taylor_order: int = 4
    mode: str = "exact"
    n_cycles: int = 100
    measure_offset: float = 0.0

    def __post_init__(self):
        if self.steps_per_cycle < 100:
            raise ValueError(f"steps_per_cycle must be >= 100, got {self.steps_per_cycle}")
        if self.taylor_order < 1:
            raise ValueError(f"taylor_order must be >= 1, got {self.taylor_order}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n_cycles < 1:
            raise ValueError(f"n_cycles must be >= 1, got {self.n_cycles}")
        if not 0.0 <= self.measure_offset < 1.0:
            raise ValueError(f"measure_offset must lie in [0, 1), got {self.measure_offset}")


@dataclass(frozen=True)
class PumpTrace:
    """Per-cycle excited-band probabilities, their running means, and the
    largest unitarity defect seen at any measurement time."""

    p_j: np.ndarray
    p_n: np.ndarray
    unitarity_defect: float


def _step_coeffs(r, dt: float, mode: str, order: int):
    """(ca, kappa) of the step ca*I - i*kappa*(d . sigma), with r = |d| dt.

    exact: cos(r) and dt sin(r)/r; taylor: their series up to the r^order
    term of exp.
    """
    if mode == "exact":
        return np.cos(r), dt * np.sinc(r / np.pi)  # np.sinc is sin(pi x)/(pi x)
    r2 = r * r
    ca = np.zeros_like(r)
    cb = np.zeros_like(r)
    ta = np.ones_like(r)  # r^(2n) / (2n)!
    tb = np.ones_like(r)  # r^(2n) / (2n+1)!
    for n in range(order // 2 + 1):
        if n > 0:
            ta = ta * r2 / ((2 * n - 1) * (2 * n))
            tb = tb * r2 / ((2 * n) * (2 * n + 1))
        sign = -1.0 if n % 2 else 1.0
        ca = ca + sign * ta
        if 2 * n + 1 <= order:
            cb = cb + sign * tb
    return ca, dt * cb


def _step_matrix(d: np.ndarray, dt: float, mode: str, order: int) -> np.ndarray:
    """Steps under the Bloch vectors d of shape (..., 3), as (..., 2, 2) matrices.

    Every element takes the same IEEE operations whatever the batch shape, so a
    block of steps equals the steps built one at a time bit for bit. |d|^2 is
    a per-vector `@` because d @ d is a BLAS dot whose rounding a plain sum of
    squares does not reproduce.
    """
    d = np.asarray(d, dtype=float)
    r = np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0]) * dt
    ca, kappa = _step_coeffs(r, dt, mode, order)
    ca = np.asarray(ca)[..., None, None]
    kappa = np.asarray(1.0j * kappa)[..., None, None]
    return ca * su2.IDENTITY2 - kappa * su2.bloch_matrix(d)


def trotter_step(p: DriveParams, t_j: float, dt: float, order: int) -> np.ndarray:
    """Truncated Taylor propagator sum_{m<=order} (-i H(t_j) dt)^m / m!.

    order = 1 is allowed so the non-unitary first-order artifact can be
    demonstrated; production evolution requires order >= 2.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return _step_matrix(bloch_vector(p, t_j), dt, "taylor", order)


def _step_grid(p: DriveParams, cfg: TrotterConfig):
    """Step length dt and the measurement offset snapped to a step count."""
    dt = p.tau_cycle / cfg.steps_per_cycle
    return dt, int(round(cfg.measure_offset * cfg.steps_per_cycle))


def _measurement_setup(p: DriveParams, cfg: TrotterConfig):
    """Snapped offset step count and the (fixed) measured excited state."""
    dt, extra = _step_grid(p, cfg)
    t_meas = extra * dt
    try:
        _, _, _, n1 = eigensystem2(hamiltonian(p, t_meas))
    except DegenerateSpectrum as exc:
        raise DegenerateMeasurementBasis(
            f"gap closed at measurement time {t_meas:.6g} (k={p.k}, eps0={p.eps0})"
        ) from exc
    return extra, n1


def _cycle_unitaries(p: DriveParams, cfg: TrotterConfig):
    """The ordered one-cycle step product and its prefix over the first
    `extra` steps (the identity when extra = 0).

    Each block of _BLOCK_STEPS steps is built by one _step_matrix call and
    then folded into the product in order, one 2x2 `@` per step.
    """
    dt, extra = _step_grid(p, cfg)
    u_cycle = su2.IDENTITY2
    u_partial = su2.IDENTITY2
    for lo in range(0, cfg.steps_per_cycle, _BLOCK_STEPS):
        t = (np.arange(lo, min(lo + _BLOCK_STEPS, cfg.steps_per_cycle)) + 0.5) * dt
        steps = _step_matrix(bloch_vector(p, t), dt, cfg.mode, cfg.taylor_order)
        for j, step in enumerate(steps, start=lo):
            u_cycle = step @ u_cycle
            if j + 1 == extra:
                u_partial = u_cycle.copy()
    return u_cycle, u_partial


def _evolve_impl(p: DriveParams, cfg: TrotterConfig, initial, enforce_budget: bool):
    extra, n1 = _measurement_setup(p, cfg)
    if initial is None:
        _, _, g0, _ = eigensystem2(hamiltonian(p, 0.0))
        psi0 = g0
    else:
        psi0 = np.asarray(initial, dtype=complex)
        norm = float(np.sum(np.abs(psi0) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"initial state norm^2 = {norm}, expected 1")

    p_j = np.empty(cfg.n_cycles)
    w = su2.IDENTITY2
    defect = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends as NaN in p_j
        u_cycle, u_partial = _cycle_unitaries(p, cfg)
        for m in range(cfg.n_cycles):
            w = u_cycle @ w
            meas = u_partial @ w if extra else w
            defect = max(defect, su2.unitarity_defect(meas))
            amp = (n1.conj() @ (meas @ psi0))
            p_j[m] = abs(amp) ** 2

    if enforce_budget and cfg.mode == "taylor" and defect > UNITARITY_BUDGET:
        raise NonUnitaryEvolution(
            f"unitarity defect {defect:.3e} exceeds budget {UNITARITY_BUDGET}")
    bad = ~((p_j >= -PROBABILITY_TOL) & (p_j <= 1.0 + PROBABILITY_TOL))
    if enforce_budget and np.any(bad):
        worst = p_j[np.argmax(np.abs(p_j - 0.5))]
        raise NonUnitaryEvolution(f"probability {worst} outside [0, 1] beyond tolerance")
    p_j = np.clip(p_j, 0.0, 1.0)
    p_n = np.cumsum(p_j) / np.arange(1, cfg.n_cycles + 1)
    return PumpTrace(p_j=p_j, p_n=p_n, unitarity_defect=defect)


def evolve(p: DriveParams, cfg: TrotterConfig, initial: np.ndarray | None = None) -> PumpTrace:
    """Evolve one momentum over n_cycles and measure after each cycle.

    The state starts from `initial` (default: instantaneous ground state at
    t = 0) and p_j is the excited-band weight against the instantaneous
    eigenbasis at the measurement times (j + measure_offset) * tau_cycle,
    with the offset snapped to the step grid.

    Raises DegenerateMeasurementBasis when that basis is ill-defined, and, in
    taylor mode, NonUnitaryEvolution when the truncation defect exceeds the
    module budget. taylor mode requires taylor_order >= 2 here.
    """
    if cfg.mode == "taylor" and cfg.taylor_order < 2:
        raise ValueError("taylor mode below second order is only for diagnostics; "
                         "use unitarity_report")
    return _evolve_impl(p, cfg, initial, enforce_budget=True)


def p_g_numeric(p: DriveParams, cfg: TrotterConfig) -> float:
    """Final running mean p_n[n_cycles], the numerical long-run pumping value."""
    return float(evolve(p, cfg).p_n[-1])


def unitarity_report(p: DriveParams, cfg: TrotterConfig):
    """Run taylor and exact modes on identical grids, without the budget gate.

    Returns (defect_taylor, max_dev_vs_exact): the taylor mode's accumulated
    unitarity defect and the largest |p_n| discrepancy between modes.
    """
    trace_t = _evolve_impl(p, replace(cfg, mode="taylor"), None, enforce_budget=False)
    trace_e = _evolve_impl(p, replace(cfg, mode="exact"), None, enforce_budget=False)
    max_dev = float(np.max(np.abs(trace_t.p_n - trace_e.p_n)))
    return float(trace_t.unitarity_defect), max_dev


def p_g_numeric_grid(k: np.ndarray, eps0: np.ndarray, a_ph: np.ndarray,
                     omega: float, cfg: TrotterConfig) -> np.ndarray:
    """Batched p_g_numeric over flat parameter arrays (ground-state start).

    All inputs broadcast to a common flat shape. Each grid point follows the
    identical step algebra as evolve and raises the same exceptions under the
    same guards, with the offending positions in the exception's `indices`.
    """
    k, eps0, a_ph = np.broadcast_arrays(
        np.asarray(k, dtype=float), np.asarray(eps0, dtype=float),
        np.asarray(a_ph, dtype=float))
    k = k.ravel(); eps0 = eps0.ravel(); a_ph = a_ph.ravel()
    if cfg.mode == "taylor" and cfg.taylor_order < 2:
        raise ValueError("taylor mode below second order is only for diagnostics")

    tau = 2.0 * math.pi / omega
    dt = tau / cfg.steps_per_cycle
    extra = int(round(cfg.measure_offset * cfg.steps_per_cycle))
    d2 = np.sin(k)
    c3 = -(eps0 + np.cos(k))  # d3(t) = c3 - a_ph * sin(omega t)

    # measurement-time and start-time bases; both pristine-periodic instants
    s_meas = math.sin(omega * extra * dt)
    for when, d3 in (("measurement time", c3 - a_ph * s_meas), ("the start time", c3)):
        closed = np.nonzero(2.0 * np.hypot(d2, d3) < su2.DEGENERACY_TOL)[0]
        if closed.size:
            raise DegenerateMeasurementBasis(
                f"gap closed at {when} at {closed.size} grid point(s)", closed)

    one = np.ones_like(k, dtype=complex)
    zero = np.zeros_like(k, dtype=complex)
    u00, u01, u10, u11 = one.copy(), zero.copy(), zero.copy(), one.copy()
    q00, q01, q10, q11 = one.copy(), zero.copy(), zero.copy(), one.copy()
    for j in range(cfg.steps_per_cycle):
        s = math.sin(omega * (j + 0.5) * dt)
        d3 = c3 - a_ph * s
        r = np.hypot(d2, d3) * dt
        ca, kappa = _step_coeffs(r, dt, cfg.mode, cfg.taylor_order)
        # step = ca*I - i*kappa*(d2*sigma2 + d3*sigma3)
        s00 = ca - 1.0j * kappa * d3
        s11 = ca + 1.0j * kappa * d3
        off = kappa * d2
        u00, u01, u10, u11 = (s00 * u00 - off * u10, s00 * u01 - off * u11,
                              off * u00 + s11 * u10, off * u01 + s11 * u11)
        if j + 1 == extra:
            q00, q01, q10, q11 = u00.copy(), u01.copy(), u10.copy(), u11.copy()

    # ground state of the pristine H and excited state at the measurement time,
    # phase-fixed the same way as eigensystem2 (largest component real positive)
    g0a, g0b = _eig_components(d2, c3, lower=True)
    m1a, m1b = _eig_components(d2, c3 - a_ph * s_meas, lower=False)

    c0, c1 = g0a.astype(complex), g0b.astype(complex)
    acc = np.zeros_like(k)
    p_max = np.zeros_like(k)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        for _ in range(cfg.n_cycles):
            c0, c1 = u00 * c0 + u01 * c1, u10 * c0 + u11 * c1
            if extra:
                m0 = q00 * c0 + q01 * c1
                m1 = q10 * c0 + q11 * c1
            else:
                m0, m1 = c0, c1
            amp = np.conj(m1a) * m0 + np.conj(m1b) * m1
            p = np.abs(amp) ** 2
            acc += p
            np.maximum(p_max, p, out=p_max)  # propagates NaN
        if cfg.mode == "taylor":
            # Each step is a real multiple of an SU(2) matrix, so M = Q U^m,
            # measured after m cycles, has M^H M = det(M) I and the defect
            # |det Q det(U)^m - 1|, monotone in m: largest at m = 1 or n_cycles.
            det_q = np.abs(q00 * q11 - q01 * q10)
            det_u = np.abs(u00 * u11 - u01 * u10)
            defect = np.maximum(np.abs(det_q * det_u - 1.0),
                                np.abs(det_q * det_u ** cfg.n_cycles - 1.0))
            over = np.nonzero(~(defect <= UNITARITY_BUDGET))[0]
            if over.size:
                raise NonUnitaryEvolution(
                    f"unitarity defect {defect[over[0]]:.3e} exceeds budget "
                    f"{UNITARITY_BUDGET}", over)
    bad = np.nonzero(~(p_max <= 1.0 + PROBABILITY_TOL))[0]
    if bad.size:
        raise NonUnitaryEvolution(
            f"probability {p_max[bad[0]]} outside [0, 1] beyond tolerance", bad)
    return acc / cfg.n_cycles


def _eig_components(d2: np.ndarray, d3: np.ndarray, lower: bool):
    """Eigenvector components of d2*sigma2 + d3*sigma3 for the lower or upper band.

    Closed form: for eigenvalue sign e = -1 or +1, E = e*|d| and the
    (unnormalized) vector is (d3 + E, i*d2) unless that degenerates.
    """
    nd = np.hypot(d2, d3)
    e = -nd if lower else nd
    va = d3 + e
    vb = 1.0j * d2
    # where the representative vector vanishes (d2 = 0, d3 = -E), use (0, 1)
    tiny = np.abs(va) + np.abs(vb) < 1e-14
    va = np.where(tiny, 0.0, va)
    vb = np.where(tiny, 1.0, vb)
    norm = np.sqrt(np.abs(va) ** 2 + np.abs(vb) ** 2)
    va = va / norm
    vb = vb / norm
    # global phase: largest-magnitude component real positive
    big = np.where(np.abs(va) >= np.abs(vb), va, vb)
    phase = np.abs(big) / big
    return va * phase, vb * phase
