"""Trotter time evolution of the driven two-band model.

The drive is exactly periodic, so the ordered product of the per-step
unitaries over one cycle is the same matrix every cycle. evolve() builds that
one-cycle product once and then applies 2x2 powers per cycle, which turns an
O(n_cycles * steps_per_cycle) walk into O(steps_per_cycle + n_cycles).

Both routes build their steps through one writer, _fill_steps, and differ
only in the fold, in the spelling of d3 (bloch_d3, against the grid fold's
c3 - a_ph s_j) and in the association of the drive samples (omega ((j + 1/2)
dt), against (omega (j + 1/2)) dt). The scalar route folds the product for a
stack of C chains that share the step grid (_cycle_unitaries), such as the
taylor orders of a unitarity report and their exact reference, or one chain
for evolve: each block of _BLOCK_STEPS // C steps fills the (..., 2, 2)
layout (_step_matrix) of one (B, C, 2, 2) buffer, 128 KiB whatever C is, and
is folded in step order, one stacked matmul per step; NumPy multiplies each
2x2 of a stack with the same BLAS call as a lone 2x2, so each chain is
bit-identical to a step-by-step loop of its own.
The grid route (p_g_numeric_grid) walks a flat grid in blocks of at most
_BLOCK_POINTS points; each point is computed on its own, so the blocks bound
the working memory without changing a result. Within a block of N points
the writer fills a (B, 2, 2, N) slab of B = _BLOCK_POINTS // N steps (at
least 1, at most _SLAB_ROWS) at a time, so a slab holds no more elements
than a full block does, a block of more than _BLOCK_POINTS // 2 points has
B = 1, and a few points bind no more than _SLAB_ROWS step appliers. The
s_j = sin(omega t_j) come from one np.sin pass per call. Every step is a
real multiple of an SU(2) matrix, so the running product has the form
[[a, -conj(b)], [b, conj(a)]] up to a real factor: the grid route folds
the slab's steps into only the first column (a, b), one step at a time and
in order, through one su2.stack_applier per slab row bound once per block,
rebuilds the matrix once after the loop (su2), and runs every per-step
operation into buffers allocated once per block.
The per-cycle measurement then runs half a block at a time (_measure), into
buffers allocated once per half, so that it holds less memory than the
fold. Both routes enforce the same guards by the same rules, cross-checked
in the tests: the gap at the start instant, then at the measurement
instant; in taylor mode the defect at the first and the last measurement
(_check_defects); then each run's largest probability. A grid error's
indices count over the whole call.

Because H^2 = |d|^2 I, every step is ca I - i kappa H with r = |d| dt =
hypot(d2, d3) dt, and _step_coeffs alone decides (ca, kappa): the order-m
Taylor truncation of exp(-i H dt) gives truncated cos(r) and dt sin(r)/r
series, whose odd/even order controls how fast the r^(order+1)-scale
non-unitarity accumulates; the exact mode uses cos and dt sinc,
bit-identical to su2.exact_step.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import su2
from .bandmodel import DriveParams, bloch_d3, bloch_vector, checked_drive, hamiltonian
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
# Step rows per slab of the grid fold, each bound to its own su2.stack_applier
# (about 1.35 KiB): below TrotterConfig's 100-step minimum, so no slab is
# longer than a cycle.
_SLAB_ROWS = 64


class EvolutionError(Exception):
    """An evolution was rejected; `indices` are the failing positions that a
    p_g_numeric_grid call found (it stops at the first block with one),
    counted over its whole flattened grid, or the start states of an evolve
    stack whose probabilities failed (empty when no position is to blame)."""

    def __init__(self, message: str, indices=()):
        super().__init__(message)
        self.indices = tuple(int(i) for i in indices)


class DegenerateMeasurementBasis(EvolutionError):
    """Instantaneous gap at the start time or at the measurement time is below
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
    leading state axis for a stack of start states), and the unitarity defect
    of the run: the larger of the defects at the first and the last
    measurement, which in taylor mode bound every cycle's (_check_defects)."""

    p_j: np.ndarray
    p_n: np.ndarray
    unitarity_defect: float


def _step_coeffs(r, dt: float, mode: str, order: int, out, y_nonzero=False):
    """(ca, kappa) of the step ca*I - i*kappa*(d . sigma), with r = |d| dt a
    float array.

    exact: cos(r) and dt sin(r)/r; taylor: their series up to the r^order
    term of exp. `out` is the pair of float arrays shaped like r that
    receives (ca, kappa), so a step loop reuses its buffers; ca may be a
    strided view. `y_nonzero` tells the exact mode that no r / pi * pi is
    zero, so it need not test for one.
    """
    ca, kappa = out
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


def _fill_steps(d2, d3, dt, mode, order, entries, r, kappa, y_nonzero=False):
    """Write the steps ca*I - i*kappa*(d2*sigma2 + d3*sigma3) =
    [[s00, -off], [off, s11]] under (0, d2, d3) into `entries`, the complex
    views (s00, s01, s10, s11) of a zeroed buffer: s00, s11 = ca -/+ i*kappa*d3
    and the real off = kappa*d2, with r = hypot(d2, d3) dt and kappa in float
    buffers of the entries' shape (y_nonzero: _step_coeffs'). The parts are
    written through real views (ca straight into s00's): they round exactly
    like the complex expressions, up to the sign of a zero, which no later
    sum, product or modulus can turn into a nonzero difference. Each element
    takes the same IEEE operations whatever the batch shape or layout.
    """
    s00, s01, s10, s11 = entries
    np.multiply(np.hypot(d2, d3, out=r), dt, out=r)
    _step_coeffs(r, dt, mode, order, (s00.real, kappa), y_nonzero)
    np.copyto(s11.real, s00.real)
    np.negative(np.multiply(kappa, d3, out=s11.imag), out=s00.imag)
    np.negative(np.multiply(kappa, d2, out=s10.real), out=s01.real)


def _step_matrix(d2, d3, dt: float, mode: str, order: int, out=None) -> np.ndarray:
    """The steps under (0, d2, d3), both of one shape, as (..., 2, 2) matrices:
    _fill_steps' layout for the scalar route, written into `out` (zeroed) if
    given."""
    shape = np.shape(d3)
    out = np.zeros(shape + (2, 2), dtype=complex) if out is None else out
    entries = tuple(out[..., i // 2, i % 2] for i in range(4))
    _fill_steps(d2, d3, dt, mode, order, entries, np.empty(shape), np.empty(shape))
    return out


def trotter_step(p: DriveParams, t_j: float, dt: float, order: int) -> np.ndarray:
    """Truncated Taylor propagator sum_{m<=order} (-i H(t_j) dt)^m / m!; order = 1
    is allowed so the non-unitary first-order artifact can be demonstrated,
    but evolution requires order >= 2."""
    return _step_matrix(*bloch_vector(p, t_j)[1:], dt, "taylor", checked_taylor_order(order))


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
    prefixes over the first `extra` steps (identities when extra = 0). Each
    block of steps takes one bloch_vector call (see the module docstring).
    """
    dt, extra = _step_grid(p.tau_cycle, cfgs[0])
    n = cfgs[0].steps_per_cycle
    u_cycle = np.tile(su2.IDENTITY2, (len(cfgs), 1, 1))
    u_partial = u_cycle.copy()
    block = max(1, _BLOCK_STEPS // len(cfgs))
    steps = np.zeros((min(block, n), len(cfgs), 2, 2), dtype=complex)
    for lo in range(0, n, block):
        d = bloch_vector(p, (np.arange(lo, min(lo + block, n)) + 0.5) * dt)
        for i, c in enumerate(cfgs):
            _step_matrix(d[:, 1], d[:, 2], dt, c.mode, c.taylor_order, out=steps[:len(d), i])
        for j, step in enumerate(steps[:len(d)], start=lo):
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
    with np.errstate(over="ignore"):  # an overflow to inf fails the test below
        norm = np.sum(np.abs(states) ** 2, axis=-1)
    bad = np.nonzero(~(np.abs(norm - 1.0) <= NORM_TOL))[0]
    if bad.size:
        raise ValueError(f"initial state {bad[0]} has norm^2 = {norm[bad[0]]}, expected 1")
    return states


def _evolve_impl(p: DriveParams, cfgs, initial):
    """Raw excited-band probabilities, shaped (C, S, n_cycles), and the
    unitarity defect of each chain, read as _check_defects says, for one
    stacked fold of the chains `cfgs` (which also share n_cycles) and every
    start state in `initial` (None: the ground state at t = 0)."""
    dt, extra = _step_grid(p.tau_cycle, cfgs[0])
    states = checked_states(band_basis(p, 0.0, "the start time")[0]
                            if initial is None else initial)
    n1 = band_basis(p, extra * dt, f"measurement time {extra * dt:.6g}")[1].conj()
    amps = np.empty((len(cfgs), len(states), cfgs[0].n_cycles), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends as NaN in p_j
        u_cycles, u_partials = _cycle_unitaries(p, cfgs)
        w = su2.IDENTITY2
        for m in range(cfgs[0].n_cycles):
            w = u_cycles @ w
            meas = u_partials @ w if extra else w
            if m == 0:  # the first measurement's defect; the last one's follows
                defects = su2.unitarity_defect(meas)
            amps[..., m] = (n1 @ (meas[:, None] @ states[:, :, None]))[..., 0]
        defects = np.maximum(defects, su2.unitarity_defect(meas))  # keeps a NaN
        # abs of each complex scalar, as an array np.abs rounds some moduli differently
        p_j = np.fromiter((abs(a) ** 2 for a in amps.flat), float, amps.size)
        return p_j.reshape(amps.shape), defects


def _averaged(p, out=None):
    """Per-cycle probabilities as both routes average them: min(p, 1), and NaN
    where p is not finite, so an overflow does not pass as a clipped 1. p is
    |amplitude|^2, never below 0, so this is np.clip(p, 0, 1) bit for bit."""
    return np.minimum(p, np.where(np.isfinite(p), 1.0, np.nan), out=out)


def _running_mean(p_j: np.ndarray):
    """_averaged(p_j), and its running mean along the last axis."""
    p_j = _averaged(p_j)
    return p_j, np.cumsum(p_j, axis=-1) / np.arange(1, p_j.shape[-1] + 1)


def evolve(p: DriveParams, cfg: TrotterConfig, initial: np.ndarray | None = None) -> PumpTrace:
    """Evolve one momentum over n_cycles and measure after each cycle.

    The state starts from `initial` (default: instantaneous ground state at
    t = 0) and p_j is the excited-band weight against the instantaneous
    eigenbasis at the measurement times (j + measure_offset) * tau_cycle,
    with the offset snapped to the step grid. An (S, 2) stack of start states
    shares one one-cycle product, and each state is measured as on its own.

    Raises DegenerateMeasurementBasis when the default start state's basis at
    t = 0 or, checked next, the measurement basis is ill-defined; in taylor
    mode, NonUnitaryEvolution when the truncation defect exceeds the module
    budget; and NonUnitaryEvolution for probabilities outside [0, 1], whose
    `indices` name the failing states of a stack. taylor mode requires
    taylor_order >= 2 here (checked_trotter).
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

    The inputs pass DriveParams' range rules (checked_drive) and then broadcast
    to a common flat shape, walked in blocks of _BLOCK_POINTS points. Each
    grid point follows evolve's step algebra and raises the same exceptions
    under the same guards. The first block with a failing point raises: the
    exception's `indices` are that block's failing positions, counted over the
    whole call, and its message names the first of them.
    """
    k, eps0, a_ph = (np.asarray(x, dtype=float) for x in (k, eps0, a_ph))
    tau = checked_drive(k, eps0, a_ph, omega)
    grid = np.broadcast_arrays(k, eps0, a_ph)
    size = grid[0].size
    # a flat view of a contiguous input; a broadcast one (a scalar a_ph, say) is
    # copied a block at a time through its flat iterator, not whole
    k, eps0, a_ph = (x.ravel() if x.flags.c_contiguous else x.flat for x in grid)
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
    d2, cos_k = np.sin(k), np.cos(k)

    # a huge drive overflows to inf or NaN in p_max or the defect, which the
    # checks reject
    with np.errstate(over="ignore", invalid="ignore"):
        # d3 at the start and measurement instants, as evolve's bloch_vector
        # takes it there: both pristine-periodic instants
        d3_start = bloch_d3(eps0, a_ph, cos_k, 0.0)
        d3_meas = bloch_d3(eps0, a_ph, cos_k, math.sin(omega * (extra * dt)))
        d = np.zeros((3, k.size))  # d.T holds each point's (0, d2, d3)
        d[1] = d2
        for when, d3 in (("the start time", d3_start), ("measurement time", d3_meas)):
            d[2] = d3
            closed = np.nonzero(su2.gap_closed(d.T))[0]
            if closed.size:
                raise DegenerateMeasurementBasis(
                    f"gap closed at {when} at {closed.size} grid point(s)", closed)

        u, q = _grid_columns(d2, d3_start, a_ph, omega, dt, extra, cfg)
        u, q = su2.from_column(*u), None if q is None else su2.from_column(*q)

        # half a block at a time, so that the measurement's buffers stay smaller
        # than the fold's
        acc = np.zeros(k.size)
        p_max = np.zeros(k.size)
        for lo in range(0, k.size, _BLOCK_POINTS // 2):
            part = slice(lo, lo + _BLOCK_POINTS // 2)
            _measure(u[..., part], None if q is None else q[..., part], d2[part],
                     d3_start[part], d3_meas[part], cfg.n_cycles, acc[part], p_max[part])
        if cfg.mode == "taylor":
            u = np.moveaxis(u, -1, 0)
            q = su2.IDENTITY2 if q is None else np.moveaxis(q, -1, 0)
            _check_defects(np.maximum(su2.unitarity_defect(q @ u), su2.unitarity_defect(
                q @ np.linalg.matrix_power(u, cfg.n_cycles))))
    _check_probabilities(p_max)
    return acc / cfg.n_cycles


def _check_defects(defect, named=True):
    """Both routes' taylor budget: a NonUnitaryEvolution at the first defect
    above UNITARITY_BUDGET or NaN; `indices` name all such if `named`.

    Both routes read a run's defect at its first and its last measurement
    only. Each step is a real multiple of an SU(2) matrix, so M = Q U^m,
    measured after m cycles (Q the prefix up to the measurement offset), is
    one too: M^H M = |det M| I with |det M| = q x^m for real q, x > 0, and the
    defect |q x^m - 1| of that monotone sequence peaks at m = 1 or m = n_cycles.
    """
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
    over `extra` steps, as (2, N) arrays, for d(t) = (0, d2, c3 - a_ph sin(omega t))
    with c3 the start-time d3. The prefix is None when extra = 0: the identity.

    The fold's c3 - a_ph * s_j is the one spelling of d3 outside bloch_d3:
    bloch_d3's association moves sweep_k, sweep_amplitude and sweep_eps0 cells
    by up to 1.35e-13, so it waits for a change that regenerates out/ and
    bench/reference/ together.

    _fill_steps writes a slab of steps at a time (see the module docstring),
    which is folded in order, one call per step of the su2.stack_applier
    bound to its slab row once per block (_fill_steps writes the slab in
    place, so each applier sees every slab); the last slab's unused rows are
    built from s = 0 and never applied.
    """
    n = d2.size
    steps = cfg.steps_per_cycle
    b = max(1, min(_BLOCK_POINTS // n, _SLAB_ROWS))
    # s_j = sin(omega t_j) at the step midpoints, zero-padded to whole slabs
    sines = np.zeros(-(-steps // b) * b)
    sines[:steps] = np.sin(omega * (np.arange(steps) + 0.5) * dt)
    s_slabs = sines.reshape(-1, b, 1)
    d3, r, kappa = (np.empty((b, n)) for _ in range(3))
    slab = np.zeros((b, 2, 2, n), dtype=complex)
    entries = tuple(slab[:, i // 2, i % 2] for i in range(4))
    # r = hypot(d2, d3) dt >= |d2| dt up to an ulp of hypot, and r / pi * pi
    # rounds monotonely, so where every |d2| dt is a normal number no step's
    # sinc argument is zero and the exact coefficients skip that test
    y_nonzero = bool(np.min(np.abs(d2)) * dt >= sys.float_info.min)
    prod = np.empty((2, 2, n), dtype=complex)
    apply_step = [su2.stack_applier(step, prod) for step in slab]
    u = np.zeros((2, n), dtype=complex)
    u[0] = 1.0
    q = None
    for j in range(steps):
        i = j % b
        if i == 0:
            np.subtract(c3, np.multiply(a_ph, s_slabs[j // b], out=d3), out=d3)
            _fill_steps(d2, d3, dt, cfg.mode, cfg.taylor_order, entries, r, kappa, y_nonzero)
        apply_step[i](u, u)
        if j + 1 == extra:
            q = u.copy()
    return u, q


def _measure(u, q, d2, d3_start, d3_meas, n_cycles: int, acc, p_max):
    """Add the excited-band probability after each of n_cycles cycles, from
    the pristine ground state, into acc as _averaged takes it, and keep its
    raw running max in p_max, which the caller checks (under its np.errstate).

    u and q are the (2, 2, N) cycle product and its prefix (None: the
    identity); the state starts in the ground state of (0, d2, d3_start) and
    is measured against the excited state of (0, d2, d3_meas): both are
    su2.planar_band_state's, whose phase is su2.fix_phase's, as eigensystem2's.
    """
    c = np.array(su2.planar_band_state(d2, d3_start, lower=True))
    m1 = np.conj(su2.planar_band_state(d2, d3_meas, lower=False))
    prod = np.empty_like(u)
    cycle = su2.stack_applier(u, prod)
    prefix = None if q is None else su2.stack_applier(q, prod)
    m = np.empty_like(c)  # the measured state, then its products with m1
    amp = np.empty(d2.size, dtype=complex)
    p = np.empty(d2.size)
    for _ in range(n_cycles):
        cycle(c, c)
        np.multiply(m1, c if prefix is None else prefix(c, m), out=m)
        np.add(m[0], m[1], out=amp)
        np.square(np.abs(amp, out=p), out=p)
        np.maximum(p_max, p, out=p_max)  # the raw value; propagates NaN
        acc += _averaged(p, out=p)

