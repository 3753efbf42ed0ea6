"""Trotter time evolution of the driven two-band model.

The drive is exactly periodic, so the ordered product of the per-step
unitaries over one cycle is the same matrix every cycle. evolve() builds that
one-cycle product once and then applies 2x2 powers per cycle, which turns an
O(n_cycles * steps_per_cycle) walk into O(steps_per_cycle + n_cycles).
The product is folded for a stack of C chains at once (_cycle_unitaries):
chains that share the step grid, such as the taylor orders of a unitarity
report and their exact reference, or one chain for evolve. Each block of
_BLOCK_STEPS // C steps takes one bloch_vector call and one _step_matrix call
per chain (one step is _step_matrix's size-1 case), so the step matrices stay
at 128 KiB whatever C is. The block is then folded into the (C, 2, 2) stack
in step order, one stacked matmul per step; NumPy multiplies each 2x2 of a
stack with the same BLAS call as a lone 2x2, and every matrix element goes
through the same IEEE operations as a one-step build, so each chain is
bit-identical to a step-by-step loop of its own.
Sweeps over momentum/offset grids use the same algebra on flat arrays
(p_g_numeric_grid), for a block of at most _BLOCK_POINTS grid points at a
time; each point is computed on its own, so the blocks bound the working
memory without changing a result. Within a block of N points the steps are
built a slab at a time: B = _BLOCK_POINTS // N steps (at least 1, at most
steps_per_cycle) take one pass of vectorized operations over a (B, N) slab,
so a slab holds no more elements than a full block does, and a block of
more than _BLOCK_POINTS // 2 points has B = 1. The s_j = sin(omega t_j) come
from one math.sin pass per call. Every step is a real multiple of an SU(2)
matrix, so the running product has the form [[a, -conj(b)], [b, conj(a)]]
up to a real factor: the grid route folds the slab's steps into only the
first column (a, b), one step at a time and in order, rebuilds the matrix
once after the loop (_su2), and runs every per-step operation into buffers
allocated once per block. The per-cycle measurement then runs half a block
at a time (_measure), into buffers allocated once per half, so that it
holds less memory than the fold. Both routes enforce the same guards and
are cross-checked in the tests; a grid error's indices count over the whole
call.

Because H^2 = |d|^2 I, every step is ca I - i kappa H with r = |d| dt, and
_step_coeffs alone decides (ca, kappa): the order-m Taylor truncation of
exp(-i H dt) gives truncated cos(r) and dt sin(r)/r series, whose odd/even
order controls how fast the r^(order+1)-scale non-unitarity accumulates;
the exact mode uses cos and dt sinc, bit-identical to su2.exact_step and
written out so that it can fill the grid route's buffers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import su2
from .bandmodel import DriveParams, bloch_vector, drive_period, hamiltonian
from .su2 import DegenerateSpectrum, eigensystem2

UNITARITY_BUDGET = 0.05
PROBABILITY_TOL = 1e-6
NORM_TOL = 1e-12  # largest |norm^2 - 1| of an initial state

MODES = ("taylor", "exact")

# Step matrices per block of a stacked fold, over all its chains: 128 KiB.
_BLOCK_STEPS = 2048
# Grid points per block in p_g_numeric_grid, whose fold holds about 200 B per
# point (its measurement, half a block at a time, less). On a 2-vCPU Xeon with
# 2 MiB of L2 per core, 4096 ran the committed sweep-eps0 about 12 % faster
# than 2048, for about 0.35 MiB (1.1 %) more peak RSS; 12288 was slower than
# 4096 and cost about 1.8 MiB more.
_BLOCK_POINTS = 4096


class EvolutionError(Exception):
    """An evolution was rejected; `indices` are the failing positions that a
    p_g_numeric_grid call found (it stops at the first block with one),
    counted over its whole flattened grid, or the start states of an evolve
    stack whose probabilities failed (empty when no position is to blame)."""

    def __init__(self, message: str, indices=()):
        super().__init__(message)
        self.indices = tuple(int(i) for i in indices)


class DegenerateMeasurementBasis(EvolutionError):
    """Instantaneous gap at the measurement time or at the start time is below
    the degeneracy tolerance."""


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
        checked_taylor_order(self.taylor_order)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n_cycles < 1:
            raise ValueError(f"n_cycles must be >= 1, got {self.n_cycles}")
        if not 0.0 <= self.measure_offset < 1.0:
            raise ValueError(f"measure_offset must lie in [0, 1), got {self.measure_offset}")


def checked_taylor_order(order: int) -> int:
    """order, the truncation order of a Taylor step; a ValueError below 1."""
    if order < 1:
        raise ValueError(f"taylor_order must be >= 1, got {order}")
    return order


def checked_trotter(cfg: TrotterConfig) -> TrotterConfig:
    """cfg, for evolve and p_g_numeric_grid; a ValueError in taylor mode below
    second order, which only unitarity_report runs."""
    if cfg.mode == "taylor" and not cfg.taylor_order >= 2:
        raise ValueError(f"taylor_order must be >= 2 to evolve in taylor mode, got "
                         f"{cfg.taylor_order} (first order is for unitarity_report)")
    return cfg


@dataclass(frozen=True)
class PumpTrace:
    """Per-cycle excited-band probabilities, their running means (both with a
    leading state axis for a stack of start states), and the largest
    unitarity defect seen at any measurement time."""

    p_j: np.ndarray
    p_n: np.ndarray
    unitarity_defect: float


def _step_coeffs(r, dt: float, mode: str, order: int, out=None, y_nonzero=False):
    """(ca, kappa) of the step ca*I - i*kappa*(d . sigma), with r = |d| dt.

    exact: cos(r) and dt sin(r)/r; taylor: their series up to the r^order
    term of exp. `out` is an optional pair of float arrays shaped like r that
    receives (ca, kappa), so a step loop can reuse its buffers; ca may be a
    strided view. `y_nonzero` tells the exact mode that no r / pi * pi is
    zero, so it need not test for one.
    """
    r = np.asarray(r, dtype=float)
    ca, kappa = (np.empty_like(r), np.empty_like(r)) if out is None else out
    if mode == "exact":
        # dt * np.sinc(r / pi) spelled out: sin(y) / y with y = pi * (r / pi),
        # and 1 at y = 0, which is np.sinc's value bit for bit
        y = np.multiply(np.divide(r, np.pi, out=kappa), np.pi, out=kappa)
        np.sin(y, out=ca)
        if y_nonzero or y.all():
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
    return _step_matrix(bloch_vector(p, t_j), dt, "taylor", checked_taylor_order(order))


def _step_grid(tau: float, cfg: TrotterConfig):
    """Step length dt over a drive period tau, and the measurement offset
    snapped to a step count."""
    dt = tau / cfg.steps_per_cycle
    return dt, int(round(cfg.measure_offset * cfg.steps_per_cycle))


def band_basis(p: DriveParams, t: float, when: str):
    """The ground and excited states of H(p, t), phase-fixed as eigensystem2
    fixes them; DegenerateMeasurementBasis names the instant `when` where the
    gap is closed, and its caller names the drive."""
    try:
        _, _, n0, n1 = eigensystem2(hamiltonian(p, t))
    except DegenerateSpectrum as exc:
        raise DegenerateMeasurementBasis(f"gap closed at {when}") from exc
    return n0, n1


def _cycle_unitaries(p: DriveParams, cfgs):
    """The ordered one-cycle step products of the chains `cfgs`, which share
    steps_per_cycle and measure_offset, as a (C, 2, 2) stack, and their
    prefixes over the first `extra` steps (identities when extra = 0).

    Each block of _BLOCK_STEPS // C steps takes one bloch_vector call and one
    _step_matrix call per chain, and is then folded into the stack in order,
    one stacked `@` per step.
    """
    dt, extra = _step_grid(p.tau_cycle, cfgs[0])
    u_cycle = np.tile(su2.IDENTITY2, (len(cfgs), 1, 1))
    u_partial = u_cycle.copy()
    block = max(1, _BLOCK_STEPS // len(cfgs))
    for lo in range(0, cfgs[0].steps_per_cycle, block):
        t = (np.arange(lo, min(lo + block, cfgs[0].steps_per_cycle)) + 0.5) * dt
        d = bloch_vector(p, t)
        steps = np.stack([_step_matrix(d, dt, c.mode, c.taylor_order) for c in cfgs], axis=1)
        for j, step in enumerate(steps, start=lo):
            u_cycle = step @ u_cycle
            if j + 1 == extra:
                u_partial = u_cycle.copy()
    return u_cycle, u_partial


def checked_states(initial) -> np.ndarray:
    """`initial`, one state of shape (2,) or a stack (S, 2), as an (S, 2)
    complex array; a ValueError names a state whose norm^2 is off 1 by more
    than NORM_TOL."""
    states = np.asarray(initial, dtype=complex)
    if states.shape[-1:] != (2,) or states.ndim > 2:
        raise ValueError(f"initial state must have shape (2,) or (S, 2), got {states.shape}")
    states = states.reshape(-1, 2)
    norm = np.sum(np.abs(states) ** 2, axis=-1)
    bad = np.nonzero(~(np.abs(norm - 1.0) <= NORM_TOL))[0]
    if bad.size:
        raise ValueError(f"initial state {bad[0]} has norm^2 = {norm[bad[0]]}, expected 1")
    return states


def _evolve_impl(p: DriveParams, cfgs, initial):
    """Raw excited-band probabilities, shaped (C, S, n_cycles), and the worst
    unitarity defect of each chain, for one stacked fold of the chains `cfgs`
    (which also share n_cycles) and every start state in `initial` (None:
    the ground state at t = 0)."""
    dt, extra = _step_grid(p.tau_cycle, cfgs[0])
    n1 = band_basis(p, extra * dt, f"measurement time {extra * dt:.6g}")[1].conj()
    states = checked_states(band_basis(p, 0.0, "the start time")[0]
                            if initial is None else initial)
    amps = np.empty((len(cfgs), len(states), cfgs[0].n_cycles), dtype=complex)
    defects = np.zeros(len(cfgs))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends as NaN in p_j
        u_cycles, u_partials = _cycle_unitaries(p, cfgs)
        w = su2.IDENTITY2
        for m in range(cfgs[0].n_cycles):
            w = u_cycles @ w
            meas = u_partials @ w if extra else w
            defects = np.maximum(defects, su2.unitarity_defect(meas))  # keeps a NaN
            amps[..., m] = (n1 @ (meas[:, None] @ states[:, :, None]))[..., 0]
        # abs of each complex scalar, as an array np.abs rounds some moduli differently
        p_j = np.fromiter((abs(a) ** 2 for a in amps.flat), float, amps.size)
        return p_j.reshape(amps.shape), defects


def _running_mean(p_j: np.ndarray):
    """p_j clipped to [0, 1], and its running mean along the last axis. An
    overflowed probability stays NaN instead of passing as a clipped 1."""
    p_j = np.where(np.isfinite(p_j), np.clip(p_j, 0.0, 1.0), np.nan)
    return p_j, np.cumsum(p_j, axis=-1) / np.arange(1, p_j.shape[-1] + 1)


def evolve(p: DriveParams, cfg: TrotterConfig, initial: np.ndarray | None = None) -> PumpTrace:
    """Evolve one momentum over n_cycles and measure after each cycle.

    The state starts from `initial` (default: instantaneous ground state at
    t = 0) and p_j is the excited-band weight against the instantaneous
    eigenbasis at the measurement times (j + measure_offset) * tau_cycle,
    with the offset snapped to the step grid. An (S, 2) stack of start states
    shares one one-cycle product, and each state is measured as on its own.

    Raises DegenerateMeasurementBasis when that basis, or the default start
    state's at t = 0, is ill-defined, and, in taylor mode, NonUnitaryEvolution
    when the truncation defect exceeds the module budget; NonUnitaryEvolution
    for probabilities outside [0, 1] names the failing states of a stack in
    `indices`. taylor mode requires taylor_order >= 2 here (checked_trotter).
    """
    checked_trotter(cfg)
    stacked = np.ndim(initial) == 2
    p_j, defect = _evolve_impl(p, [cfg], initial)
    if cfg.mode == "taylor":
        _check_defects(defect, named=False)  # the chain's, not a state's
    _check_probabilities(np.max(p_j[0], axis=-1), named=stacked)
    p_j, p_n = _running_mean(p_j[0])
    if not stacked:
        p_j, p_n = p_j[0], p_n[0]
    return PumpTrace(p_j=p_j, p_n=p_n, unitarity_defect=float(defect[0]))


def p_g_numeric(p: DriveParams, cfg: TrotterConfig) -> float:
    """Final running mean p_n[n_cycles], the numerical long-run pumping value."""
    return float(evolve(p, cfg).p_n[-1])


def unitarity_report(p: DriveParams, cfg: TrotterConfig, orders=None, steps=None):
    """Run taylor and exact modes on identical grids, without the budget gate.

    Returns (defect_taylor, max_dev_vs_exact): the taylor mode's accumulated
    unitarity defect and the largest |p_n| discrepancy between modes.

    Given a sequence of `orders` or of `steps` (the other one defaults to
    cfg's), returns a dict that maps every (order, steps) pair of that grid to
    such a result instead. Each step count is one stacked fold of its taylor
    chains and a single exact reference.
    """
    single = orders is None and steps is None
    orders = list(dict.fromkeys([cfg.taylor_order] if orders is None else orders))
    report = {}
    for n in dict.fromkeys([cfg.steps_per_cycle] if steps is None else steps):
        exact = replace(cfg, mode="exact", steps_per_cycle=n)
        chains = [replace(exact, mode="taylor", taylor_order=o) for o in orders]
        p_j, defects = _evolve_impl(p, chains + [exact], None)
        _, p_n = _running_mean(p_j[:, 0])
        for i, o in enumerate(orders):
            report[o, n] = (float(defects[i]), float(np.max(np.abs(p_n[i] - p_n[-1]))))
    return report[cfg.taylor_order, cfg.steps_per_cycle] if single else report


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
    grid = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(eps0, dtype=float),
                               np.asarray(a_ph, dtype=float))
    size = grid[0].size
    # a flat view of a contiguous input; a broadcast one (a scalar a_ph, say) is
    # copied a block at a time through its flat iterator, not whole
    k, eps0, a_ph = (x.ravel() if x.flags.c_contiguous else x.flat for x in grid)
    tau = drive_period(omega)
    checked_trotter(cfg)
    p_g = np.empty(size)
    for lo in range(0, size, _BLOCK_POINTS):
        block = slice(lo, lo + _BLOCK_POINTS)
        try:
            p_g[block] = _p_g_block(k[block], eps0[block], a_ph[block], omega, tau, cfg)
        except EvolutionError as exc:
            i = lo + exc.indices[0]
            raise type(exc)(
                f"{exc}; first failing grid index {i}: k={float(k[i])}, "
                f"eps0={float(eps0[i])}, a_ph={float(a_ph[i])}",
                [lo + j for j in exc.indices]) from None
    return p_g


def _p_g_block(k, eps0, a_ph, omega: float, tau: float, cfg: TrotterConfig) -> np.ndarray:
    """p_g_numeric_grid on one block, tau = 2 pi / omega; `indices` count from its start."""
    dt, extra = _step_grid(tau, cfg)
    d2 = np.sin(k)
    c3 = -(eps0 + np.cos(k))  # d3(t) = c3 - a_ph * sin(omega t)
    s_meas = math.sin(omega * extra * dt)

    # a huge drive overflows to inf or NaN in p_max or the defect, which the
    # checks reject
    with np.errstate(over="ignore", invalid="ignore"):
        # measurement-time and start-time bases; both pristine-periodic instants
        for when, d3 in (("measurement time", c3 - a_ph * s_meas), ("the start time", c3)):
            closed = np.nonzero(2.0 * np.hypot(d2, d3) < su2.DEGENERACY_TOL)[0]
            if closed.size:
                raise DegenerateMeasurementBasis(
                    f"gap closed at {when} at {closed.size} grid point(s)", closed)

        u, q = _grid_columns(d2, c3, a_ph, omega, dt, extra, cfg)
        u = _su2(u)
        if q is not None:
            q = _su2(q)

        # half a block at a time, so that the measurement's buffers stay smaller
        # than the fold's
        acc = np.zeros(k.size)
        p_max = np.zeros(k.size)
        for lo in range(0, k.size, _BLOCK_POINTS // 2):
            part = slice(lo, lo + _BLOCK_POINTS // 2)
            _measure(u[..., part], None if q is None else q[..., part], d2[part], c3[part],
                     c3[part] - a_ph[part] * s_meas, cfg.n_cycles, acc[part], p_max[part])
        if cfg.mode == "taylor":
            # Each step is a real multiple of an SU(2) matrix, so M = Q U^m,
            # measured after m cycles, has M^H M = |det M| I and a defect
            # monotone in m: largest at m = 1 or n_cycles.
            u = np.moveaxis(u, -1, 0)
            q = su2.IDENTITY2 if q is None else np.moveaxis(q, -1, 0)
            _check_defects(np.maximum(su2.unitarity_defect(q @ u), su2.unitarity_defect(
                q @ np.linalg.matrix_power(u, cfg.n_cycles))))
    _check_probabilities(p_max)
    return acc / cfg.n_cycles


def _check_defects(defect, named=True):
    """Both routes' taylor budget: a NonUnitaryEvolution at the first defect
    above UNITARITY_BUDGET or NaN; `indices` name all such if `named`."""
    over = np.nonzero(~(defect <= UNITARITY_BUDGET))[0]
    if over.size:
        raise NonUnitaryEvolution(f"unitarity defect {defect[over[0]]:.3e} exceeds budget "
                                  f"{UNITARITY_BUDGET}", over if named else ())


def _check_probabilities(p_max, named=True):
    """_check_defects for each run's largest probability (never below 0, as
    |amplitude|^2) and the bound 1 + PROBABILITY_TOL."""
    bad = np.nonzero(~(p_max <= 1.0 + PROBABILITY_TOL))[0]
    if bad.size:
        raise NonUnitaryEvolution(f"probability {p_max[bad[0]]} outside [0, 1] beyond "
                                  "tolerance", bad if named else ())


def _grid_columns(d2, c3, a_ph, omega: float, dt: float, extra: int,
                  cfg: TrotterConfig):
    """First columns (u00, u10) of the one-cycle step product and of its prefix
    over `extra` steps, as (2, N) arrays, for d(t) = (0, d2, c3 - a_ph sin(omega t)).
    The prefix is None when extra = 0: it is the identity.

    The steps are built a slab at a time (see the module docstring for its
    size) and folded in order, one _apply per step; the last slab's unused
    rows are built from s = 0 and never applied.
    """
    n = d2.size
    steps = cfg.steps_per_cycle
    b = max(1, min(_BLOCK_POINTS // n, steps))
    # s_j = sin(omega t_j) at the step midpoints, zero-padded to whole slabs
    sines = np.zeros(-(-steps // b) * b)
    sines[:steps] = np.fromiter((math.sin(omega * (j + 0.5) * dt) for j in range(steps)),
                                float, steps)
    # one-step slabs (N > _BLOCK_POINTS / 2) drop the slab axis from the
    # buffers and take s_j as a scalar: NumPy spends more per call on a
    # broadcast operand than on a scalar one
    shape, s_slabs = ((b, n), sines.reshape(-1, b, 1)) if b > 1 else ((n,), sines)
    d3, r, kappa = (np.empty(shape) for _ in range(3))
    # step = ca*I - i*kappa*(d2*sigma2 + d3*sigma3) = [[s00, -off], [off, s11]]
    # with s00, s11 = ca -/+ i*kappa*d3 and the real off = kappa*d2. The parts
    # are written through real views (ca straight into s00's): they round
    # exactly like the complex expressions, up to the sign of a zero, which no
    # later sum, product or modulus can turn into a nonzero difference.
    slab = np.zeros((b, 2, 2, n), dtype=complex)
    s00, s01, s10, s11 = (slab[:, i // 2, i % 2].reshape(shape) for i in range(4))
    s00r, s00i, s01r, s10r, s11r, s11i = (s00.real, s00.imag, s01.real, s10.real,
                                          s11.real, s11.imag)
    slab_steps = list(slab)
    # r = hypot(d2, d3) dt >= |d2| dt up to an ulp of hypot, and r / pi * pi
    # rounds monotonely, so where every |d2| dt is a normal number no step's
    # sinc argument is zero and the exact coefficients skip that test
    y_nonzero = bool(np.min(np.abs(d2)) * dt >= sys.float_info.min)
    prod = np.empty((2, 2, n), dtype=complex)
    u = np.zeros((2, n), dtype=complex)
    u[0] = 1.0
    q = None
    for j in range(steps):
        i = j % b
        if i == 0:
            np.subtract(c3, np.multiply(a_ph, s_slabs[j // b], out=d3), out=d3)
            np.multiply(np.hypot(d2, d3, out=r), dt, out=r)
            _step_coeffs(r, dt, cfg.mode, cfg.taylor_order, out=(s00r, kappa),
                         y_nonzero=y_nonzero)
            np.copyto(s11r, s00r)
            np.negative(np.multiply(kappa, d3, out=s11i), out=s00i)
            np.negative(np.multiply(kappa, d2, out=s10r), out=s01r)
        _apply(slab_steps[i], u, prod, out=u)
        if j + 1 == extra:
            q = u.copy()
    return u, q


def _measure(u, q, d2, c3, d3_meas, n_cycles: int, acc, p_max):
    """Add the excited-band probability after each of n_cycles cycles, from
    the pristine ground state, into acc and keep its running max in p_max,
    which the caller checks (under its np.errstate).

    u and q are the (2, 2, N) cycle product and its prefix (None: the
    identity); the state is measured against the excited state of
    (0, d2, d3_meas). Both states are phase-fixed the same way as
    eigensystem2 (largest component real positive).
    """
    c = np.array(_eig_components(d2, c3, lower=True))
    m1 = np.conj(_eig_components(d2, d3_meas, lower=False))
    prod = np.empty_like(u)
    m = None if q is None else np.empty_like(c)
    amp = np.empty(d2.size, dtype=complex)
    p = np.empty(d2.size)
    for _ in range(n_cycles):
        _apply(u, c, prod, out=c)
        meas = c if q is None else _apply(q, c, prod, out=m)
        np.multiply(m1, meas, out=prod[0])
        np.add(prod[0, 0], prod[0, 1], out=amp)
        np.square(np.abs(amp, out=p), out=p)
        acc += p
        np.maximum(p_max, p, out=p_max)  # propagates NaN


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
