"""Trotter evolution: exact vs truncated steps, cycle reuse, batching.

Regression anchors below were produced by the exact-mode propagator itself
(see scripts/make_reference_values.py) after checking step-count convergence
(2000 vs 20000 steps per cycle agree to 4e-7 at the anchor point); they pin
the implementation, they are not external truths.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from geopump import propagator, su2
from geopump.bandmodel import DriveParams, bloch_vector, hamiltonian
from geopump.propagator import (DegenerateMeasurementBasis, NonUnitaryEvolution,
                                TrotterConfig)

TPT_POINT = DriveParams(eps0=-0.95, a_ph=0.1, k=0.02)

# exact mode, 2000 steps/cycle, 100 cycles, ground start
ANCHOR_P100 = 0.478764267412330


def test_trotter_config_validation():
    with pytest.raises(ValueError):
        TrotterConfig(steps_per_cycle=50)
    with pytest.raises(ValueError):
        TrotterConfig(taylor_order=0)
    with pytest.raises(ValueError):
        TrotterConfig(mode="magnus")
    with pytest.raises(ValueError):
        TrotterConfig(n_cycles=0)
    with pytest.raises(ValueError):
        TrotterConfig(measure_offset=1.0)


def test_trotter_step_order1_is_euler():
    dt = 1e-3
    u = propagator.trotter_step(TPT_POINT, 0.3, dt, order=1)
    h = su2.bloch_matrix(bloch_vector(TPT_POINT, 0.3))
    assert np.allclose(u, np.eye(2) - 1j * dt * h, atol=1e-18)


def test_trotter_step_high_order_approaches_exact():
    dt = TPT_POINT.tau_cycle / 2000
    d = bloch_vector(TPT_POINT, 0.7)
    exact = su2.exact_step(d, dt)
    u12 = propagator.trotter_step(TPT_POINT, 0.7, dt, order=12)
    assert np.max(np.abs(u12 - exact)) < 1e-15


@pytest.mark.parametrize("d", [(0.0, 0.0, 0.0), (0.0, 0.02, -0.05),
                               (0.3, -1.2, 0.7), (0.0, 0.707, 1.66)])
def test_exact_mode_step_is_the_su2_reference(d):
    d = np.array(d)
    dt = TPT_POINT.tau_cycle / 2000
    step = propagator._step_matrix(d, dt, "exact", 4)
    assert np.array_equal(step, su2.exact_step(d, dt))


BLOCK = propagator._BLOCK_STEPS
# (steps_per_cycle, snapped offsets): none of the step counts is a multiple of
# the block; the offsets put `extra` at 0, one step before a block boundary,
# on it, inside a later block and inside the last, partial block
PRODUCT_CASES = [(1000, (0, 337)), (2 * BLOCK + 5, (0, BLOCK - 1, BLOCK, BLOCK + 700,
                                                    2 * BLOCK + 3))]
PRODUCT_POINT = DriveParams(eps0=0.3, a_ph=0.7, k=-1.3)


def _literal_prefixes(p, steps, step):
    """Every prefix product of one cycle's steps, one step per iteration."""
    dt = p.tau_cycle / steps
    u = np.eye(2, dtype=complex)
    prefixes = [u]
    for j in range(steps):
        t = (j + 0.5) * dt
        d = np.array([0.0, np.sin(p.k),
                      -(p.eps0 + p.a_ph * np.sin(p.omega * t) + np.cos(p.k))])
        u = step(d, dt) @ u
        prefixes.append(u)
    return prefixes


def _taylor_series_step(order):
    def step(d, dt):
        a = -1.0j * dt * su2.bloch_matrix(d)
        term = np.eye(2, dtype=complex)
        total = term
        for m in range(1, order + 1):
            term = term @ a / m
            total = total + term
        return total
    return step


def _block_products(p, steps, mode, order, extras):
    for extra in extras:
        cfg = TrotterConfig(steps_per_cycle=steps, mode=mode, taylor_order=order,
                            n_cycles=1, measure_offset=extra / steps)
        assert propagator._step_grid(p, cfg)[1] == extra
        u_cycle, u_partial = propagator._cycle_unitaries(p, [cfg])
        yield extra, (u_cycle[0], u_partial[0])


@pytest.mark.parametrize("steps, extras", PRODUCT_CASES)
def test_block_product_equals_exact_step_loop(steps, extras):
    prefixes = _literal_prefixes(PRODUCT_POINT, steps, su2.exact_step)
    for extra, (u_cycle, u_partial) in _block_products(PRODUCT_POINT, steps, "exact", 4,
                                                      extras):
        assert u_cycle.tobytes() == prefixes[-1].tobytes()
        assert u_partial.tobytes() == prefixes[extra].tobytes()


@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize("steps, extras", PRODUCT_CASES)
def test_block_product_matches_taylor_series_loop(order, steps, extras):
    prefixes = _literal_prefixes(PRODUCT_POINT, steps, _taylor_series_step(order))
    for extra, (u_cycle, u_partial) in _block_products(PRODUCT_POINT, steps, "taylor",
                                                      order, extras):
        assert np.max(np.abs(u_cycle - prefixes[-1])) < 1e-13
        assert np.max(np.abs(u_partial - prefixes[extra])) < 1e-13


def test_trotter_step_defect_scales_with_order():
    dt = 0.05
    d1 = su2.unitarity_defect(propagator.trotter_step(TPT_POINT, 0.0, dt, 1))
    d2 = su2.unitarity_defect(propagator.trotter_step(TPT_POINT, 0.0, dt, 2))
    d4 = su2.unitarity_defect(propagator.trotter_step(TPT_POINT, 0.0, dt, 4))
    assert d1 > d2 > d4


def test_evolve_exact_mode_anchor():
    cfg = TrotterConfig(steps_per_cycle=2000, n_cycles=100)
    trace = propagator.evolve(TPT_POINT, cfg)
    assert trace.p_j.shape == (100,)
    assert trace.unitarity_defect < 1e-10
    assert np.all(trace.p_j >= 0) and np.all(trace.p_j <= 1)
    assert abs(trace.p_n[-1] - ANCHOR_P100) < 1e-12
    assert abs(propagator.p_g_numeric(TPT_POINT, cfg) - trace.p_n[-1]) == 0.0


def test_evolve_running_mean_consistent():
    cfg = TrotterConfig(steps_per_cycle=500, n_cycles=30)
    trace = propagator.evolve(TPT_POINT, cfg)
    manual = np.cumsum(trace.p_j) / np.arange(1, 31)
    assert np.max(np.abs(trace.p_n - manual)) == 0.0


def test_excited_start_is_complementary():
    # unitarity: excited weight from the excited start mirrors the ground start
    from geopump.bandmodel import hamiltonian
    cfg = TrotterConfig(steps_per_cycle=500, n_cycles=40)
    _, _, g0, g1 = su2.eigensystem2(hamiltonian(TPT_POINT, 0.0))
    tr_g = propagator.evolve(TPT_POINT, cfg, initial=g0)
    tr_e = propagator.evolve(TPT_POINT, cfg, initial=g1)
    assert np.max(np.abs(tr_g.p_j + tr_e.p_j - 1.0)) < 1e-12


def test_default_initial_is_ground_state():
    cfg = TrotterConfig(steps_per_cycle=500, n_cycles=10)
    a = propagator.evolve(TPT_POINT, cfg)
    from geopump.bandmodel import hamiltonian
    _, _, g0, _ = su2.eigensystem2(hamiltonian(TPT_POINT, 0.0))
    b = propagator.evolve(TPT_POINT, cfg, initial=g0)
    assert np.max(np.abs(a.p_j - b.p_j)) == 0.0


def test_unnormalized_initial_rejected():
    cfg = TrotterConfig(steps_per_cycle=500, n_cycles=5)
    with pytest.raises(ValueError):
        propagator.evolve(TPT_POINT, cfg, initial=np.array([1.0, 1.0]))


def test_batched_grid_matches_scalar_route():
    cfg = TrotterConfig(steps_per_cycle=800, n_cycles=60)
    ks = np.array([0.015, 0.08, 0.4])
    eps0s = np.array([-0.95, -0.9, -0.8])
    grid = propagator.p_g_numeric_grid(ks, eps0s, 0.1, TPT_POINT.omega, cfg)
    for i in range(3):
        p = DriveParams(eps0=float(eps0s[i]), a_ph=0.1, k=float(ks[i]))
        scalar = propagator.evolve(p, cfg).p_n[-1]
        assert abs(grid[i] - scalar) < 1e-12


def test_measure_offset_shifts_basis_and_snaps():
    cfg_half = TrotterConfig(steps_per_cycle=500, n_cycles=20, measure_offset=0.5)
    trace = propagator.evolve(TPT_POINT, cfg_half)
    assert np.all(trace.p_j >= 0) and np.all(trace.p_j <= 1)
    # an offset below half a step snaps to the same grid as zero offset
    cfg_eps = TrotterConfig(steps_per_cycle=500, n_cycles=20, measure_offset=1e-5)
    cfg_zero = TrotterConfig(steps_per_cycle=500, n_cycles=20)
    a = propagator.evolve(TPT_POINT, cfg_eps)
    b = propagator.evolve(TPT_POINT, cfg_zero)
    assert np.max(np.abs(a.p_j - b.p_j)) == 0.0


def test_degenerate_measurement_basis_raises():
    p = DriveParams(eps0=-1.0, a_ph=0.1, k=0.0)  # gap closed at t = 0
    cfg = TrotterConfig(steps_per_cycle=500, n_cycles=5)
    with pytest.raises(DegenerateMeasurementBasis):
        propagator.evolve(p, cfg)
    with pytest.raises(DegenerateMeasurementBasis):
        propagator.p_g_numeric_grid(np.array([0.0]), np.array([-1.0]),
                                    np.array([0.1]), p.omega, cfg)


def test_taylor_mode_budget_enforced():
    # order 2 at the coarsest step size accumulates defect past the budget
    cfg = TrotterConfig(steps_per_cycle=100, taylor_order=2, mode="taylor",
                        n_cycles=100)
    with pytest.raises(NonUnitaryEvolution):
        propagator.evolve(TPT_POINT, cfg)


def test_grid_guards_match_evolve():
    cfg = TrotterConfig(steps_per_cycle=1000, taylor_order=2, mode="taylor",
                        n_cycles=5)
    ks = np.array([0.02, 0.02, 0.3, 0.3, 0.785, 0.785])
    eps0s = np.array([-0.95, -0.5] * 3)
    failing = []
    for i, (k, e) in enumerate(zip(ks, eps0s)):
        try:
            propagator.evolve(DriveParams(eps0=float(e), a_ph=0.1, k=float(k)), cfg)
        except NonUnitaryEvolution:
            failing.append(i)
    assert 0 < len(failing) < len(ks)
    with pytest.raises(NonUnitaryEvolution) as info:
        propagator.p_g_numeric_grid(ks, eps0s, 0.1, TPT_POINT.omega, cfg)
    assert list(info.value.indices) == failing


def test_taylor_mode_below_second_order_rejected_by_evolve():
    cfg = TrotterConfig(steps_per_cycle=2000, taylor_order=1, mode="taylor",
                        n_cycles=10)
    with pytest.raises(ValueError):
        propagator.evolve(TPT_POINT, cfg)


def test_taylor_mode_order4_tracks_exact():
    cfg = TrotterConfig(steps_per_cycle=2000, taylor_order=4, mode="taylor",
                        n_cycles=50)
    tr_t = propagator.evolve(TPT_POINT, cfg)
    tr_e = propagator.evolve(TPT_POINT, TrotterConfig(steps_per_cycle=2000,
                                                      n_cycles=50))
    assert np.max(np.abs(tr_t.p_n - tr_e.p_n)) < 1e-8
    assert tr_t.unitarity_defect < 1e-9


def test_unitarity_report_orders():
    base = TrotterConfig(steps_per_cycle=2000, taylor_order=2, mode="taylor",
                         n_cycles=50)
    defect2, dev2 = propagator.unitarity_report(TPT_POINT, base)
    cfg1 = TrotterConfig(steps_per_cycle=2000, taylor_order=1, mode="taylor",
                         n_cycles=50)
    defect1, dev1 = propagator.unitarity_report(TPT_POINT, cfg1)
    assert defect1 > defect2
    assert dev1 > dev2
    assert defect2 < propagator.UNITARITY_BUDGET


def _reference_coeffs(r, dt, mode, order):
    """_step_coeffs as it was before it could fill buffers: np.sinc, and new
    arrays for every term of the taylor series."""
    if mode == "exact":
        return np.cos(r), dt * np.sinc(r / np.pi)
    r2 = r * r
    ca = np.zeros_like(r)
    cb = np.zeros_like(r)
    ta = np.ones_like(r)
    tb = np.ones_like(r)
    for n in range(order // 2 + 1):
        if n > 0:
            ta = ta * r2 / ((2 * n - 1) * (2 * n))
            tb = tb * r2 / ((2 * n) * (2 * n + 1))
        sign = -1.0 if n % 2 else 1.0
        ca = ca + sign * ta
        if 2 * n + 1 <= order:
            cb = cb + sign * tb
    return ca, dt * cb


def _four_component_reference(k, eps0, a_ph, omega, cfg):
    """The grid kernel as it was before it stepped only the first column: all
    four components of the running product, np.sinc for the exact step, new
    arrays on every operation. Guards omitted; returns the n-cycle mean."""
    tau = 2.0 * math.pi / omega
    dt = tau / cfg.steps_per_cycle
    extra = int(round(cfg.measure_offset * cfg.steps_per_cycle))
    d2 = np.sin(k)
    c3 = -(eps0 + np.cos(k))
    s_meas = math.sin(omega * extra * dt)

    one = np.ones_like(k, dtype=complex)
    zero = np.zeros_like(k, dtype=complex)
    u00, u01, u10, u11 = one.copy(), zero.copy(), zero.copy(), one.copy()
    q00, q01, q10, q11 = one.copy(), zero.copy(), zero.copy(), one.copy()
    for j in range(cfg.steps_per_cycle):
        s = math.sin(omega * (j + 0.5) * dt)
        d3 = c3 - a_ph * s
        r = np.hypot(d2, d3) * dt
        ca, kappa = _reference_coeffs(r, dt, cfg.mode, cfg.taylor_order)
        s00 = ca - 1.0j * kappa * d3
        s11 = ca + 1.0j * kappa * d3
        off = kappa * d2
        u00, u01, u10, u11 = (s00 * u00 - off * u10, s00 * u01 - off * u11,
                              off * u00 + s11 * u10, off * u01 + s11 * u11)
        if j + 1 == extra:
            q00, q01, q10, q11 = u00.copy(), u01.copy(), u10.copy(), u11.copy()

    g0a, g0b = propagator._eig_components(d2, c3, lower=True)
    m1a, m1b = propagator._eig_components(d2, c3 - a_ph * s_meas, lower=False)
    c0, c1 = g0a.astype(complex), g0b.astype(complex)
    acc = np.zeros_like(k)
    for _ in range(cfg.n_cycles):
        c0, c1 = u00 * c0 + u01 * c1, u10 * c0 + u11 * c1
        if extra:
            m0 = q00 * c0 + q01 * c1
            m1 = q10 * c0 + q11 * c1
        else:
            m0, m1 = c0, c1
        amp = np.conj(m1a) * m0 + np.conj(m1b) * m1
        acc += np.abs(amp) ** 2
    return acc / cfg.n_cycles


# 300 steps: measure_offset snaps `extra` to 0, mid-cycle, the step before the
# last and the last step
GRID_OFFSETS = [0.0, 0.5, 299 / 300, 0.999]


@pytest.mark.parametrize("points", [1, 7, 2049])
@pytest.mark.parametrize("mode, order", [("exact", 4), ("taylor", 2), ("taylor", 3),
                                         ("taylor", 4)])
def test_grid_kernel_equals_four_component_loop(points, mode, order):
    # near the transition |d| is small, so even order 2 stays inside the budget
    rng = np.random.default_rng(points)
    k = rng.uniform(-0.05, 0.05, points)
    eps0 = rng.uniform(-1.03, -0.97, points)
    a_ph = rng.uniform(0.02, 0.06, points)
    omega = TPT_POINT.omega
    extras = []
    for offset in GRID_OFFSETS:
        cfg = TrotterConfig(steps_per_cycle=300, taylor_order=order, mode=mode,
                            n_cycles=5, measure_offset=offset)
        extras.append(propagator._step_grid(TPT_POINT, cfg)[1])
        new = propagator.p_g_numeric_grid(k, eps0, a_ph, omega, cfg)
        assert np.array_equal(new, _four_component_reference(k, eps0, a_ph, omega, cfg))
    assert extras == [0, 150, 299, 300]


@pytest.mark.parametrize("mode, order", [("exact", 4), ("taylor", 1), ("taylor", 2),
                                         ("taylor", 3), ("taylor", 4), ("taylor", 5)])
def test_step_coefficients_equal_reference(mode, order):
    # r spans the range where one ulp of sinc's argument or one rounding of a
    # series term shows in the result; 0-d arrays are the single-step case
    r = np.concatenate([[0.0, -0.0, 1e-300, np.pi, np.nan],
                        np.random.default_rng(order).uniform(0.0, 40.0, 4000)])
    dt = 0.37
    for x in (r, np.array(0.0), np.array(0.7)):
        expected = _reference_coeffs(x, dt, mode, order)
        out = (np.empty_like(x), np.empty_like(x))
        for got in (propagator._step_coeffs(x, dt, mode, order),
                    propagator._step_coeffs(x, dt, mode, order, out=out)):
            for a, b in zip(got, expected):
                assert np.array_equal(a, b, equal_nan=True)
        assert got[0] is out[0] and got[1] is out[1]


@pytest.mark.parametrize("n_cycles", [2, 3])
def test_unitarity_report_keeps_an_overflow_as_nan(n_cycles):
    # the taylor trace overflows in cycle 1 (p = 4e209) and then to inf and NaN:
    # neither the worst defect nor the mode deviation may come out finite
    cfg = TrotterConfig(steps_per_cycle=100, taylor_order=2, mode="taylor",
                        n_cycles=n_cycles)
    defect, dev = propagator.unitarity_report(DriveParams(eps0=3.0, a_ph=0.1, k=0.02), cfg)
    assert math.isnan(defect) and math.isnan(dev)


def _one_chain_fold(p, cfg):
    """_cycle_unitaries as it was before it folded stacks of chains: one
    chain, blocks of 2048 steps, one 2x2 `@` per step."""
    dt, extra = propagator._step_grid(p, cfg)
    u_cycle = u_partial = su2.IDENTITY2
    for lo in range(0, cfg.steps_per_cycle, 2048):
        t = (np.arange(lo, min(lo + 2048, cfg.steps_per_cycle)) + 0.5) * dt
        steps = propagator._step_matrix(bloch_vector(p, t), dt, cfg.mode, cfg.taylor_order)
        for j, step in enumerate(steps, start=lo):
            u_cycle = step @ u_cycle
            if j + 1 == extra:
                u_partial = u_cycle.copy()
    return u_cycle, u_partial


FOLD_CHAINS = [("exact", 4), ("taylor", 1), ("taylor", 2), ("taylor", 4)]


# (point, step count): the snapped offsets put `extra` at 0, 1, 337, on and
# around block boundaries and on the last step; at eps0 = 3 the order-2 chain
# grows to about 1e105 in one cycle and overflows in the second
@pytest.mark.parametrize("p, steps", [(PRODUCT_POINT, 100), (PRODUCT_POINT, 1023),
                                      (PRODUCT_POINT, 2049), (PRODUCT_POINT, 4099),
                                      (DriveParams(eps0=3.0, a_ph=0.1, k=0.02), 100)])
def test_stacked_fold_equals_one_chain_folds(p, steps):
    for extra in sorted({e for e in (0, 1, 337, 511, 512, 1024, steps - 1) if e < steps}):
        chains = [TrotterConfig(steps_per_cycle=steps, mode=mode, taylor_order=order,
                                n_cycles=1, measure_offset=extra / steps)
                  for mode, order in FOLD_CHAINS]
        assert propagator._step_grid(p, chains[0])[1] == extra
        with np.errstate(all="ignore"):
            expected = [_one_chain_fold(p, c) for c in chains]
            for group in [[c] for c in chains] + [chains]:  # C = 1 and C = 4
                u_cycles, u_partials = propagator._cycle_unitaries(p, group)
                assert u_cycles.shape == u_partials.shape == (len(group), 2, 2)
                for c, u_cycle, u_partial in zip(group, u_cycles, u_partials):
                    ref_cycle, ref_partial = expected[chains.index(c)]
                    assert u_cycle.tobytes() == ref_cycle.tobytes()
                    assert u_partial.tobytes() == ref_partial.tobytes()


@pytest.mark.parametrize("n_chains", [1, 3, 4])
def test_stacked_fold_builds_blocks_of_block_steps_over_c(n_chains, monkeypatch):
    # the step matrices of one block stay at _BLOCK_STEPS whatever C is
    sizes = []

    def step_matrix(d, *args):
        sizes.append(len(d))
        return build(d, *args)

    build = propagator._step_matrix
    monkeypatch.setattr(propagator, "_step_matrix", step_matrix)
    chains = [TrotterConfig(steps_per_cycle=4099, mode="taylor", taylor_order=order)
              for order in range(2, 2 + n_chains)]
    propagator._cycle_unitaries(TPT_POINT, chains)
    block = propagator._BLOCK_STEPS // n_chains
    assert sizes == [min(block, 4099 - lo) for lo in range(0, 4099, block)
                     for _ in chains]


def _per_row_evolution(p, cfg):
    """(p_n, defect) of _evolve_impl as it was before stacked folds: one chain,
    a ground start, the one-chain fold, no budget gate."""
    extra, n1 = propagator._measurement_setup(p, cfg)
    _, _, psi0, _ = su2.eigensystem2(hamiltonian(p, 0.0))
    p_j = np.empty(cfg.n_cycles)
    w = su2.IDENTITY2
    defect = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        u_cycle, u_partial = _one_chain_fold(p, cfg)
        for m in range(cfg.n_cycles):
            w = u_cycle @ w
            meas = u_partial @ w if extra else w
            defect = np.maximum(defect, su2.unitarity_defect(meas))
            amp = (n1.conj() @ (meas @ psi0))
            p_j[m] = abs(amp) ** 2
    p_j = np.where(np.isfinite(p_j), np.clip(p_j, 0.0, 1.0), np.nan)
    return np.cumsum(p_j) / np.arange(1, cfg.n_cycles + 1), float(defect)


def _per_row_report(p, cfg):
    """unitarity_report as it was: a taylor and an exact evolution per row."""
    p_t, defect = _per_row_evolution(p, replace(cfg, mode="taylor"))
    p_e, _ = _per_row_evolution(p, replace(cfg, mode="exact"))
    return float(defect), float(np.max(np.abs(p_t - p_e)))


@pytest.mark.parametrize("offset", [0.0, 0.3])
def test_unitarity_report_grid_equals_per_row_evolutions(offset):
    cfg = TrotterConfig(mode="taylor", n_cycles=30, measure_offset=offset)
    orders, steps = [1, 2, 3, 4], [100, 2049]
    report = propagator.unitarity_report(TPT_POINT, cfg, orders, steps)
    assert sorted(report) == sorted((o, n) for o in orders for n in steps)
    for (order, n), result in report.items():
        row = replace(cfg, taylor_order=order, steps_per_cycle=n)
        expected = _per_row_report(TPT_POINT, row)
        assert np.array(result).tobytes() == np.array(expected).tobytes()
        assert propagator.unitarity_report(TPT_POINT, row) == result
    # a one-sided grid takes cfg's step count
    assert propagator.unitarity_report(TPT_POINT, replace(cfg, steps_per_cycle=100), orders) \
        == {(o, 100): report[o, 100] for o in orders}


def test_unitarity_report_folds_each_step_count_once(monkeypatch):
    # one stacked fold per distinct step count: every distinct order, then
    # the exact reference
    folds = []

    def cycle_unitaries(p, cfgs):
        folds.append([(c.mode, c.steps_per_cycle) + ((c.taylor_order,) if c.mode == "taylor"
                                                     else ()) for c in cfgs])
        return fold(p, cfgs)

    fold = propagator._cycle_unitaries
    monkeypatch.setattr(propagator, "_cycle_unitaries", cycle_unitaries)
    cfg = TrotterConfig(mode="taylor", n_cycles=3)
    report = propagator.unitarity_report(TPT_POINT, cfg, [4, 1, 4], [200, 100, 200])
    assert folds == [[("taylor", n, 4), ("taylor", n, 1), ("exact", n)] for n in (200, 100)]
    assert sorted(report) == [(1, 100), (1, 200), (4, 100), (4, 200)]


def test_evolve_stack_equals_separate_evolutions():
    cfg = TrotterConfig(steps_per_cycle=300, n_cycles=20, measure_offset=0.3)
    _, _, g0, g1 = su2.eigensystem2(hamiltonian(TPT_POINT, 0.0))
    states = np.array([g0, g1, math.sqrt(0.3) * g0 + math.sqrt(0.7) * g1])
    stacked = propagator.evolve(TPT_POINT, cfg, initial=states)
    assert stacked.p_j.shape == stacked.p_n.shape == (3, 20)
    for i, state in enumerate(states):
        single = propagator.evolve(TPT_POINT, cfg, initial=state)
        assert stacked.p_j[i].tobytes() == single.p_j.tobytes()
        assert stacked.p_n[i].tobytes() == single.p_n.tobytes()
        assert stacked.unitarity_defect == single.unitarity_defect


def test_evolve_stack_names_its_failing_states():
    # order 2 at 1000 steps stays inside the defect budget here, but a start
    # in the excited band ends above probability 1
    p = DriveParams(eps0=-0.5, a_ph=0.1, k=0.3)
    cfg = TrotterConfig(steps_per_cycle=1000, taylor_order=2, mode="taylor", n_cycles=5)
    _, _, g0, g1 = su2.eigensystem2(hamiltonian(p, 0.0))
    with pytest.raises(NonUnitaryEvolution) as info:
        propagator.evolve(p, cfg, initial=np.array([g0, g1, g0, g1]))
    assert info.value.indices == (1, 3)
    with pytest.raises(NonUnitaryEvolution) as info:
        propagator.evolve(p, cfg, initial=g1)
    assert info.value.indices == ()
    assert propagator.evolve(p, cfg, initial=np.array([g0, g0])).p_n.shape == (2, 5)


@pytest.mark.parametrize("initial", [[1.0, 1.0], [[1.0, 0.0], [0.6, 0.6]], [1.0, 0.0, 0.0],
                                     [[[1.0, 0.0]]], [math.nan, 0.0]])
def test_evolve_rejects_malformed_start_states(initial):
    cfg = TrotterConfig(steps_per_cycle=100, n_cycles=2)
    with pytest.raises(ValueError, match="initial state"):
        propagator.evolve(TPT_POINT, cfg, initial=np.array(initial))


@pytest.mark.parametrize("omega", [1e-310, 0.0, -1.0, math.nan, math.inf])
def test_grid_kernel_rejects_an_omega_without_a_finite_period(omega):
    cfg = TrotterConfig(steps_per_cycle=100, n_cycles=2)
    with pytest.raises(ValueError, match="omega"):
        propagator.p_g_numeric_grid(np.array([0.02]), -0.95, 0.1, omega, cfg)


def _per_step_columns(d2, c3, a_ph, omega, dt, extra, cfg):
    """_grid_columns as it was written before the step slabs: one math.sin,
    one coefficient build and one fold per step, on (N,) buffers."""
    n = d2.size
    d3, r, ca, kappa = (np.empty(n) for _ in range(4))
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
        propagator._step_coeffs(r, dt, cfg.mode, cfg.taylor_order, out=(ca, kappa))
        s00.real = ca
        s11.real = ca
        np.negative(np.multiply(kappa, d3, out=s11.imag), out=s00.imag)
        np.negative(np.multiply(kappa, d2, out=s10.real), out=s01.real)
        propagator._apply(step, u, prod, out=u)
        if j + 1 == extra:
            q = u.copy()
    return u, q


def _slab_steps(points, steps):
    return max(1, min(propagator._BLOCK_POINTS // points, steps))


# steps_per_cycle = 203 is a multiple of no slab size below but 203 itself;
# 2100 steps give a one-point grid a slab of 2048 steps and one of 52
@pytest.mark.parametrize("points, steps", [(1, 203), (1, 2100), (101, 203), (401, 203),
                                           (1024, 203), (1025, 203), (2048, 203)])
def test_step_slabs_equal_per_step_columns(points, steps):
    rng = np.random.default_rng(points)
    k = rng.uniform(-0.05, 0.05, points)
    d2 = np.sin(k)
    c3 = -(rng.uniform(-1.03, -0.97, points) + np.cos(k))
    a_ph = rng.uniform(0.02, 0.06, points)
    omega = TPT_POINT.omega
    dt = 2.0 * math.pi / omega / steps
    b = _slab_steps(points, steps)
    # no prefix, a prefix that ends a slab, one that ends inside a slab, the last step
    extras = sorted({0, b * (steps // b // 2) or b, b * (steps // b // 2) + b // 2 + 1, steps})
    for mode, order in [("exact", 4), ("taylor", 2), ("taylor", 3), ("taylor", 4)]:
        cfg = TrotterConfig(steps_per_cycle=steps, mode=mode, taylor_order=order)
        for extra in extras:
            u, q = propagator._grid_columns(d2, c3, a_ph, omega, dt, extra, cfg)
            u_ref, q_ref = _per_step_columns(d2, c3, a_ph, omega, dt, extra, cfg)
            assert u.tobytes() == u_ref.tobytes()
            assert (q is None) == (q_ref is None) == (extra == 0)
            assert q is None or q.tobytes() == q_ref.tobytes()


@pytest.mark.parametrize("points", [1, 3, 101, 401, 1024, 1025, 1981, 2048])
def test_step_slab_stays_within_block_points(points, monkeypatch):
    shapes = []

    def step_coeffs(r, *args, **kwargs):
        shapes.append(np.shape(r))
        return build(r, *args, **kwargs)

    build = propagator._step_coeffs
    monkeypatch.setattr(propagator, "_step_coeffs", step_coeffs)
    steps = 2003
    b = _slab_steps(points, steps)
    propagator.p_g_numeric_grid(np.linspace(0.01, 0.5, points), -0.95, 0.1,
                                TPT_POINT.omega, TrotterConfig(steps_per_cycle=steps,
                                                               n_cycles=2))
    # one coefficient build per slab of b steps, over b * points <= _BLOCK_POINTS
    assert len(shapes) == -(-steps // b)
    assert set(shapes) == {(b, points) if b > 1 else (points,)}
    assert b * points <= propagator._BLOCK_POINTS
    assert (b == 1) == (points > propagator._BLOCK_POINTS // 2)
