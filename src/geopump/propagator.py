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
Sweeps over momentum/offset grids use the same algebra on flat arrays
(p_g_numeric_grid), a few vectorized operations per step for a block of
_BLOCK_POINTS grid points at a time; each point is computed on its own, so
the blocks bound the working memory without changing a result. Every step is
a real multiple of an SU(2) matrix, so the running product has the form
[[a, -conj(b)], [b, conj(a)]] up to a real factor: the grid route steps only
the first column (a, b), rebuilds the matrix once after the loop (_su2), and
runs every per-step and per-cycle operation into buffers allocated once per
block. Both routes enforce the same guards and are cross-checked in the
tests; a grid error's indices count over the whole call.

Because H^2 = |d|^2 I, every step is ca I - i kappa H with r = |d| dt, and
_step_coeffs alone decides (ca, kappa): the order-m Taylor truncation of
exp(-i H dt) gives truncated cos(r) and dt sin(r)/r series, whose odd/even
order controls how fast the r^(order+1)-scale non-unitarity accumulates;
the exact mode uses cos and dt sinc, bit-identical to su2.exact_step and
written out so that it can fill the grid route's buffers.
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
NORM_TOL = 1e-12  # largest |norm^2 - 1| of an initial state

MODES = ("taylor", "exact")

# Steps built per array call in evolve: 128 KiB of complex step matrices.
_BLOCK_STEPS = 2048
# Grid points per block in p_g_numeric_grid, whose buffers take a few hundred
# bytes per point. On a 2-vCPU Xeon, 4096 ran the committed sweep-eps0 about
# 15 % faster but raised its peak RSS by about 0.55 MiB (1.8 %).
_BLOCK_POINTS = 2048


class EvolutionError(Exception):
    """An evolution was rejected; `indices` are the failing positions that a
    p_g_numeric_grid call found (it stops at the first block with one),
    counted over its whole flattened grid (empty for a single-point evolve)."""

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


def _step_coeffs(r, dt: float, mode: str, order: int, out=None):
    """(ca, kappa) of the step ca*I - i*kappa*(d . sigma), with r = |d| dt.

    exact: cos(r) and dt sin(r)/r; taylor: their series up to the r^order
    term of exp. `out` is an optional pair of float arrays shaped like r that
    receives (ca, kappa), so a step loop can reuse its buffers.
    """
    r = np.asarray(r, dtype=float)
    ca, kappa = (np.empty_like(r), np.empty_like(r)) if out is None else out
    if mode == "exact":
        # dt * np.sinc(r / pi) spelled out: sin(y) / y with y = pi * (r / pi),
        # and 1 at y = 0, which is np.sinc's value bit for bit
        y = np.multiply(np.divide(r, np.pi, out=kappa), np.pi, out=kappa)
        np.sin(y, out=ca)
        if y.all():
            np.divide(ca, y, out=kappa)
        else:
            nonzero = y != 0
            np.divide(ca, y, out=kappa, where=nonzero)
            np.copyto(kappa, 1.0, where=~nonzero)
        np.cos(r, out=ca)
    else:
        r2 = r * r
        ta = np.ones_like(r)  # r^(2n) / (2n)!
        tb = np.ones_like(r)  # r^(2n) / (2n+1)!
        ca.fill(1.0)  # the n = 0 terms
        kappa.fill(1.0)
        for n in range(1, order // 2 + 1):
            np.divide(np.multiply(ta, r2, out=ta), (2 * n - 1) * (2 * n), out=ta)
            np.divide(np.multiply(tb, r2, out=tb), (2 * n) * (2 * n + 1), out=tb)
            term = np.subtract if n % 2 else np.add
            term(ca, ta, out=ca)
            if 2 * n + 1 <= order:
                term(kappa, tb, out=kappa)
    return ca, np.multiply(kappa, dt, out=kappa)


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
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"initial state norm^2 = {norm}, expected 1")

    p_j = np.empty(cfg.n_cycles)
    w = su2.IDENTITY2
    defect = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends as NaN in p_j
        u_cycle, u_partial = _cycle_unitaries(p, cfg)
        for m in range(cfg.n_cycles):
            w = u_cycle @ w
            meas = u_partial @ w if extra else w
            defect = np.maximum(defect, su2.unitarity_defect(meas))  # keeps a NaN
            amp = (n1.conj() @ (meas @ psi0))
            p_j[m] = abs(amp) ** 2

    defect = float(defect)
    if enforce_budget and cfg.mode == "taylor" and not defect <= UNITARITY_BUDGET:
        raise NonUnitaryEvolution(
            f"unitarity defect {defect:.3e} exceeds budget {UNITARITY_BUDGET}")
    bad = ~((p_j >= -PROBABILITY_TOL) & (p_j <= 1.0 + PROBABILITY_TOL))
    if enforce_budget and np.any(bad):
        worst = p_j[np.argmax(np.abs(p_j - 0.5))]
        raise NonUnitaryEvolution(f"probability {worst} outside [0, 1] beyond tolerance")
    # an overflowed probability stays NaN instead of passing as a clipped 1
    p_j = np.where(np.isfinite(p_j), np.clip(p_j, 0.0, 1.0), np.nan)
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

    All inputs broadcast to a common flat shape, which is walked in blocks of
    _BLOCK_POINTS points. Each grid point follows the identical step algebra
    as evolve and raises the same exceptions under the same guards. The first
    block with a failing point raises: the exception's `indices` are that
    block's failing positions, counted over the whole call, and its message
    names the first of them.
    """
    k, eps0, a_ph = np.broadcast_arrays(
        np.asarray(k, dtype=float), np.asarray(eps0, dtype=float),
        np.asarray(a_ph, dtype=float))
    k = k.ravel(); eps0 = eps0.ravel(); a_ph = a_ph.ravel()
    if cfg.mode == "taylor" and cfg.taylor_order < 2:
        raise ValueError("taylor mode below second order is only for diagnostics")
    p_g = np.empty(k.size)
    for lo in range(0, k.size, _BLOCK_POINTS):
        block = slice(lo, lo + _BLOCK_POINTS)
        try:
            p_g[block] = _p_g_block(k[block], eps0[block], a_ph[block], omega, cfg)
        except EvolutionError as exc:
            i = lo + exc.indices[0]
            raise type(exc)(
                f"{exc}; first failing grid index {i}: k={float(k[i])}, "
                f"eps0={float(eps0[i])}, a_ph={float(a_ph[i])}",
                [lo + j for j in exc.indices]) from None
    return p_g


def _p_g_block(k, eps0, a_ph, omega: float, cfg: TrotterConfig) -> np.ndarray:
    """p_g_numeric_grid on one block of flat arrays; `indices` count from its start."""
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

    u, q = _grid_columns(d2, c3, a_ph, omega, dt, extra, cfg)
    u = _su2(u)
    if q is not None:
        q = _su2(q)

    # ground state of the pristine H and excited state at the measurement time,
    # phase-fixed the same way as eigensystem2 (largest component real positive)
    c = np.array(_eig_components(d2, c3, lower=True))
    m1 = np.conj(_eig_components(d2, c3 - a_ph * s_meas, lower=False))
    prod = np.empty_like(u)
    m = np.empty_like(c) if extra else None
    amp = np.empty(k.size, dtype=complex)
    p = np.empty(k.size)
    acc = np.zeros(k.size)
    p_max = np.zeros(k.size)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        for _ in range(cfg.n_cycles):
            _apply(u, c, prod, out=c)
            meas = c if q is None else _apply(q, c, prod, out=m)
            np.multiply(m1, meas, out=prod[0])
            np.add(prod[0, 0], prod[0, 1], out=amp)
            np.square(np.abs(amp, out=p), out=p)
            acc += p
            np.maximum(p_max, p, out=p_max)  # propagates NaN
        if cfg.mode == "taylor":
            # Each step is a real multiple of an SU(2) matrix, so M = Q U^m,
            # measured after m cycles, has M^H M = det(M) I and the defect
            # |det Q det(U)^m - 1|, monotone in m: largest at m = 1 or n_cycles.
            det_q = 1.0 if q is None else np.abs(q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0])
            det_u = np.abs(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0])
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


def _grid_columns(d2, c3, a_ph, omega: float, dt: float, extra: int,
                  cfg: TrotterConfig):
    """First columns (u00, u10) of the one-cycle step product and of its prefix
    over `extra` steps, as (2, N) arrays, for d(t) = (0, d2, c3 - a_ph sin(omega t)).
    The prefix is None when extra = 0: it is the identity.
    """
    n = d2.size
    d3, r, ca, kappa = (np.empty(n) for _ in range(4))
    # step = ca*I - i*kappa*(d2*sigma2 + d3*sigma3) = [[s00, -off], [off, s11]]
    # with s00, s11 = ca -/+ i*kappa*d3 and the real off = kappa*d2. The parts
    # are written through real views: they round exactly like the complex
    # expressions, up to the sign of a zero, which no later sum, product or
    # modulus can turn into a nonzero difference.
    step = np.zeros((2, 2, n), dtype=complex)
    s00, s01, s10, s11 = step[0, 0], step[0, 1], step[1, 0], step[1, 1]
    prod = np.empty_like(step)
    u = np.zeros((2, n), dtype=complex)
    u[0] = 1.0
    q = None
    for j in range(cfg.steps_per_cycle):
        s = math.sin(omega * (j + 0.5) * dt)
        np.subtract(c3, np.multiply(a_ph, s, out=d3), out=d3)
        np.multiply(np.hypot(d2, d3, out=r), dt, out=r)
        _step_coeffs(r, dt, cfg.mode, cfg.taylor_order, out=(ca, kappa))
        s00.real = ca
        s11.real = ca
        np.negative(np.multiply(kappa, d3, out=s11.imag), out=s00.imag)
        np.negative(np.multiply(kappa, d2, out=s10.real), out=s01.real)
        _apply(step, u, prod, out=u)
        if j + 1 == extra:
            q = u.copy()
    return u, q


def _su2(col: np.ndarray) -> np.ndarray:
    """The (2, 2, N) matrices [[a, -conj(b)], [b, conj(a)]] with first column (a, b)."""
    a, b = col
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


def _apply(mat: np.ndarray, vec: np.ndarray, prod: np.ndarray, out: np.ndarray):
    """out = mat @ vec per grid point, as (m00*v0 + m01*v1, m10*v0 + m11*v1);
    prod is a (2, 2, N) scratch buffer and out may be vec.

    One multiply per row, not one broadcast multiply: NumPy copies a
    broadcast operand into a temporary buffer when the whole operation fits
    in its 8192-element buffer, which a 2048-point grid does.
    """
    np.multiply(mat[0], vec, out=prod[0])
    np.multiply(mat[1], vec, out=prod[1])
    return np.add(prod[:, 0], prod[:, 1], out=out)


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
