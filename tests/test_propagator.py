"""Trotter evolution: exact vs truncated steps, cycle reuse, batching.

Regression anchors below were produced by the exact-mode propagator itself
(see scripts/make_reference_values.py) after checking step-count convergence
(2000 vs 20000 steps per cycle agree to 4e-7 at the anchor point); they pin
the implementation, they are not external truths.
"""

import math
import pathlib
import re
import runpy
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from geopump import bandmodel, cyclemap, propagator, su2
from geopump.bandmodel import DriveParams, bloch_vector, hamiltonian
from geopump.cyclemap import CycleParams
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


# (d2, d3): the propagator's Bloch vectors have d1 = 0; su2.exact_step with
# d1 != 0 is covered in test_su2
@pytest.mark.parametrize("d", [(0.0, 0.0), (0.02, -0.05), (-1.2, 0.7), (0.707, 1.66)])
def test_exact_mode_step_is_the_su2_reference(d):
    dt = TPT_POINT.tau_cycle / 2000
    step = propagator._step_matrix(*d, dt, "exact", 4)
    assert np.array_equal(step, su2.exact_step(np.array((0.0,) + d), dt))


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
        assert propagator._step_grid(p.tau_cycle, cfg)[1] == extra
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


def test_reference_script_reproduces_the_anchor(capsys):
    # the one caller that builds TrotterConfig(mode="taylor", taylor_order=1)
    root = pathlib.Path(__file__).resolve().parent.parent
    runpy.run_path(str(root / "scripts" / "make_reference_values.py"))["main"]()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"p_n[100] at TPT point, 2000 steps/cycle: {ANCHOR_P100:.15f}"
    assert lines[-3].startswith("taylor order 1, 2000 steps: defect=")


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


def test_broadcast_inputs_equal_full_arrays_across_blocks(monkeypatch):
    # a scalar a_ph and eps0, a Fortran-ordered k grid, and an (m, 1) x (1, n)
    # pair, are sliced a block at a time; every block gets arrays of at most
    # _BLOCK_POINTS points
    sizes = []

    def block(k, eps0, a_ph, *args):
        sizes.append((k.size, eps0.size, a_ph.size))
        return p_g_block(k, eps0, a_ph, *args)

    p_g_block = propagator._p_g_block
    monkeypatch.setattr(propagator, "_p_g_block", block)
    n = propagator._BLOCK_POINTS + 52
    ks = np.asfortranarray(np.linspace(0.01, 0.5, n).reshape(2, n // 2))
    cfg = TrotterConfig(steps_per_cycle=100, n_cycles=2)
    broadcast = propagator.p_g_numeric_grid(ks, -0.95, 0.1, TPT_POINT.omega, cfg)
    full = propagator.p_g_numeric_grid(np.ascontiguousarray(ks).ravel(), np.full(n, -0.95),
                                       np.full(n, 0.1), TPT_POINT.omega, cfg)
    assert broadcast.tobytes() == full.tobytes()
    assert sizes == [(propagator._BLOCK_POINTS,) * 3, (52,) * 3] * 2

    # sweep-eps0's call shape: 121 x 101 points over three blocks
    sizes.clear()
    eps0s, ks = np.linspace(-1.0, -0.9, 121), np.linspace(0.01, 0.5, 101)
    broadcast = propagator.p_g_numeric_grid(ks[None, :], eps0s[:, None], 0.1,
                                            TPT_POINT.omega, cfg)
    emesh, kmesh = np.meshgrid(eps0s, ks, indexing="ij")
    meshed = propagator.p_g_numeric_grid(kmesh, emesh, 0.1, TPT_POINT.omega, cfg)
    assert broadcast.tobytes() == meshed.tobytes()
    last = 121 * 101 - 2 * propagator._BLOCK_POINTS
    assert sizes == ([(propagator._BLOCK_POINTS,) * 3] * 2 + [(last,) * 3]) * 2


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


def test_degenerate_start_basis_raises_on_every_route():
    # gap closed at t = 0: at offset 0.25 the measurement basis a quarter cycle
    # later is sound; at offset 0 it is closed too, and every route names the
    # start instant, which it checks first
    p = DriveParams(eps0=-1.0, a_ph=0.1, k=0.0)
    for offset in (0.25, 0.0):
        cfg = TrotterConfig(steps_per_cycle=100, n_cycles=2, measure_offset=offset)
        for call in (lambda: propagator.evolve(p, cfg),
                     lambda: propagator.unitarity_report(p, cfg),
                     lambda: propagator.p_g_numeric_grid(p.k, p.eps0, p.a_ph, p.omega, cfg)):
            with pytest.raises(DegenerateMeasurementBasis,
                               match="^gap closed at the start time"):
                call()


# 2|d| is below 1e-9 here, while eigh's e1 - e0 is not
GAP_EDGE_DRIVE = DriveParams(k=2.7873736105752915e-10, eps0=-0.999999999584903, a_ph=0.1)


def test_a_drive_on_the_gap_threshold_is_rejected_by_both_routes():
    # at offset 0 the start instant is the measurement instant, checked first
    p, cfg = GAP_EDGE_DRIVE, TrotterConfig(steps_per_cycle=100, n_cycles=2)
    for call in (lambda: propagator.evolve(p, cfg),
                 lambda: propagator.p_g_numeric_grid(p.k, p.eps0, p.a_ph, p.omega, cfg)):
        with pytest.raises(DegenerateMeasurementBasis, match="^gap closed at the start time"):
            call()


def test_eigensystem2_closes_the_gap_exactly_where_the_grid_guard_does():
    # t = 0 Bloch vectors (0, k, -(eps0 + 1)) (k tiny: sin k = k, cos k = 1)
    # with 2|d| within a few ulp of DEGENERACY_TOL
    rng = np.random.default_rng(29)
    eps0 = -1.0 + rng.uniform(-4.9e-10, 4.9e-10, 60)
    k0 = np.sqrt((su2.DEGENERACY_TOL / 2.0) ** 2 - (eps0 + 1.0) ** 2)
    k = np.concatenate([k0 + m * np.spacing(k0) for m in range(-4, 5)])
    eps0 = np.tile(eps0, 9)
    closed = []
    for i, (ki, ei) in enumerate(zip(k, eps0)):
        try:
            su2.eigensystem2(hamiltonian(DriveParams(k=ki, eps0=ei, a_ph=0.1), 0.0))
        except su2.DegenerateSpectrum:
            closed.append(i)
    with pytest.raises(DegenerateMeasurementBasis) as info:
        propagator.p_g_numeric_grid(k, eps0, 0.1, TPT_POINT.omega,
                                    TrotterConfig(steps_per_cycle=100, n_cycles=1))
    assert info.value.indices == tuple(closed)
    assert 0 < len(closed) < k.size


def test_every_gap_guard_takes_the_rule_from_su2(monkeypatch):
    calls = []

    def spy(d, owner=su2.gap_closed):
        calls.append(np.shape(d))
        return owner(d)
    monkeypatch.setattr(su2, "gap_closed", spy)
    monkeypatch.setattr(bandmodel, "gap_closed", spy)
    cfg = TrotterConfig(steps_per_cycle=100, n_cycles=2)
    propagator.evolve(TPT_POINT, cfg)
    assert calls == [(3,), (3,)]  # measurement and start bases
    calls.clear()
    propagator.p_g_numeric_grid(np.array([0.02, 0.03]), -0.95, 0.1, TPT_POINT.omega, cfg)
    assert calls == [(2, 3), (2, 3)]
    calls.clear()
    bandmodel.winding_number(-0.95)
    assert calls == [(bandmodel.WINDING_GRID + 1, 3)]


def _rejects(call) -> bool:
    try:
        call()
    except DegenerateMeasurementBasis:
        return True
    return False


@pytest.mark.parametrize("offset", [0.1, 0.3])
def test_both_routes_reject_the_same_drives_at_the_measurement_gap_threshold(offset):
    # drives whose measurement-time d3 cancels to 0 or to an ulp of 1, with
    # 2|d| = 2 sin k within a few ulp of DEGENERACY_TOL: each route must take
    # the same d3 to agree on the gap
    cfg = TrotterConfig(steps_per_cycle=100, n_cycles=1, measure_offset=offset)
    dt, extra = propagator._step_grid(TPT_POINT.tau_cycle, cfg)
    s = math.sin(TPT_POINT.omega * (extra * dt))
    rng = np.random.default_rng(37)
    drives = [DriveParams(eps0=-math.cos(k) - a_ph * s, a_ph=a_ph, k=k)
              for k in 5e-10 * (1 + np.arange(-3, 4) * 1.1e-16)
              for a_ph in (-1.0 - rng.uniform(-1.1, -0.9, 300)) / s if a_ph >= 0.0]
    rejected = [_rejects(lambda: propagator.evolve(p, cfg)) for p in drives]
    split = [p for p, r in zip(drives, rejected) if r != _rejects(
        lambda: propagator.p_g_numeric_grid(p.k, p.eps0, p.a_ph, p.omega, cfg))]
    assert split == []
    assert 0 < sum(rejected) < len(drives)  # both outcomes occur


def test_every_d3_outside_the_fold_takes_bloch_d3(monkeypatch):
    calls = []

    def spy(eps0, a_ph, cos_k, s, owner=bandmodel.bloch_d3):
        d3 = owner(eps0, a_ph, cos_k, s)
        calls.append((np.shape(d3), float(s) if np.ndim(s) == 0 else np.shape(s)))
        return d3
    monkeypatch.setattr(bandmodel, "bloch_d3", spy)
    monkeypatch.setattr(propagator, "bloch_d3", spy)
    cfg = TrotterConfig(steps_per_cycle=100, n_cycles=2, measure_offset=0.3)
    propagator.evolve(TPT_POINT, cfg)
    start, (meas, s_meas), fold = calls
    assert (start, meas, fold) == (((), 0.0), (), ((100,), (100,)))
    calls.clear()
    propagator.p_g_numeric_grid(np.array([0.02, 0.03]), -0.95, 0.1, TPT_POINT.omega, cfg)
    assert calls == [((2,), 0.0), ((2,), s_meas)]  # start and measurement instants
    calls.clear()
    bandmodel.gap_stats(TPT_POINT)
    assert calls == [((1, bandmodel.GAP_SAMPLES), (bandmodel.GAP_SAMPLES,)), ((1,), -1.0),
                     ((1,), 1.0), ((1,), 0.0)]
    calls.clear()
    bandmodel.winding_number(-0.95)
    assert calls == [((bandmodel.WINDING_GRID + 1,), 0.0)]


def test_a_cycles_probability_enters_the_mean_as_min_p_1_or_nan():
    got = propagator._averaged(np.array([0.3, 1.0, 1.0000005, np.inf, np.nan]))
    np.testing.assert_array_equal(got, [0.3, 1.0, 1.0, np.nan, np.nan])
    # a probability is never below 0, and there the rule is np.clip's bits
    p = np.random.default_rng(31).uniform(0.0, 1.0 + 1e-6, 1000) ** 2
    assert propagator._averaged(p).tobytes() == np.clip(p, 0.0, 1.0).tobytes()


def test_both_routes_average_through_one_probability_rule(monkeypatch):
    calls = []

    def spy(p, out=None, owner=propagator._averaged):
        calls.append(np.shape(p))
        return owner(p, out=out)
    monkeypatch.setattr(propagator, "_averaged", spy)
    cfg = TrotterConfig(steps_per_cycle=100, n_cycles=3)
    propagator.evolve(TPT_POINT, cfg)
    assert calls == [(1, 3)]  # the running mean of one start state's p_j
    calls.clear()
    propagator.p_g_numeric_grid(np.array([0.02, 0.03]), -0.95, 0.1, TPT_POINT.omega, cfg)
    assert calls == [(2,)] * 3  # once per cycle in _measure


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


@pytest.mark.parametrize("n_cycles", [3, 50])
@pytest.mark.parametrize("offset", [0.0, 0.3])
def test_grid_and_point_runs_report_one_taylor_defect(n_cycles, offset):
    # the defect grows past 1e186 by cycle 3 and overflows to NaN by cycle 50;
    # both routes take it from su2.unitarity_defect, so both report the same
    p = DriveParams(eps0=0.5, a_ph=0.1, k=0.02)
    cfg = TrotterConfig(steps_per_cycle=100, taylor_order=2, mode="taylor",
                        n_cycles=n_cycles, measure_offset=offset)
    with pytest.raises(NonUnitaryEvolution, match="^unitarity defect ") as point:
        propagator.evolve(p, cfg)
    with pytest.raises(NonUnitaryEvolution) as grid:
        propagator.p_g_numeric_grid(np.array([p.k]), p.eps0, p.a_ph, p.omega, cfg)
    assert str(grid.value) == (f"{point.value}; first failing grid index 0: "
                               "k=0.02, eps0=0.5, a_ph=0.1")
    assert ("nan" in str(point.value)) == (n_cycles == 50)
    _, _, g0, g1 = su2.eigensystem2(hamiltonian(p, 0.0))
    with pytest.raises(NonUnitaryEvolution) as stack:
        propagator.evolve(p, cfg, initial=np.array([g0, g1, g0]))
    assert (str(stack.value), stack.value.indices) == (str(point.value), ())  # no state's


@pytest.mark.parametrize("offset", [0.0, 0.3])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_evolve_reads_the_largest_taylor_defect_of_every_cycle(order, offset):
    # the first and the last measurement bound the defect (_check_defects)
    cfg = TrotterConfig(steps_per_cycle=200, taylor_order=order, mode="taylor",
                        n_cycles=40, measure_offset=offset)
    _, defect = _per_row_evolution(TPT_POINT, cfg)
    assert propagator.evolve(TPT_POINT, cfg).unitarity_defect == defect


@pytest.mark.parametrize("n_cycles", [3, 50])
@pytest.mark.parametrize("offset", [0.0, 0.3])
def test_an_overflowing_taylor_defect_is_every_cycle_largest(n_cycles, offset):
    # the drive of test_grid_and_point_runs_report_one_taylor_defect: past 1e186
    # by cycle 3 and NaN by cycle 50, as the literal maximum has it
    p = DriveParams(eps0=0.5, a_ph=0.1, k=0.02)
    cfg = TrotterConfig(steps_per_cycle=100, taylor_order=2, mode="taylor",
                        n_cycles=n_cycles, measure_offset=offset)
    with pytest.raises(NonUnitaryEvolution) as info:
        propagator.evolve(p, cfg)
    _, defect = _per_row_evolution(p, cfg)
    assert str(info.value) == (f"unitarity defect {defect:.3e} exceeds budget "
                               f"{propagator.UNITARITY_BUDGET}")


def test_committed_unitarity_report_equals_per_row_evolutions():
    # the committed config, whose per-row evolutions take every cycle's defect
    cfg = TrotterConfig(mode="taylor", n_cycles=100)
    report = propagator.unitarity_report(TPT_POINT, cfg, [1, 2, 4], [2000, 20000])
    for (order, n), result in report.items():
        expected = _per_row_report(TPT_POINT, replace(cfg, taylor_order=order,
                                                      steps_per_cycle=n))
        assert np.array(result).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("n_cycles", [1, 2, 50])
def test_every_route_reads_the_defect_twice_whatever_n_cycles(n_cycles, monkeypatch):
    # at the first and the last measurement, whatever the number of chains
    calls = []

    def spy(u):
        calls.append(u)
        return defect(u)

    defect = su2.unitarity_defect
    monkeypatch.setattr(su2, "unitarity_defect", spy)
    cfg = TrotterConfig(steps_per_cycle=100, taylor_order=4, mode="taylor", n_cycles=n_cycles)
    for run in (lambda: propagator.evolve(TPT_POINT, cfg),
                lambda: propagator.unitarity_report(TPT_POINT, cfg, [2, 3, 4]),
                lambda: propagator.p_g_numeric_grid(TPT_POINT.k, TPT_POINT.eps0,
                                                    TPT_POINT.a_ph, TPT_POINT.omega, cfg)):
        calls.clear()
        run()
        assert len(calls) == 2


def test_both_routes_share_the_probability_rule():
    # order 2 at 1000 steps stays inside the budget over 50 cycles at this
    # drive, but the ground start's probability ends above 1 + PROBABILITY_TOL
    p = DriveParams(eps0=-1.05, a_ph=0.1, k=0.01)
    cfg = TrotterConfig(steps_per_cycle=1000, taylor_order=2, mode="taylor", n_cycles=50)
    with pytest.raises(NonUnitaryEvolution) as point:
        propagator.evolve(p, cfg)
    with pytest.raises(NonUnitaryEvolution) as grid:
        propagator.p_g_numeric_grid(np.array([p.k]), p.eps0, p.a_ph, p.omega, cfg)
    pattern = r"probability (\S+) outside \[0, 1\] beyond tolerance"
    values = [float(re.fullmatch(pattern, str(point.value)).group(1)), float(re.fullmatch(
        pattern + "; first failing grid index 0: k=0.01, eps0=-1.05, a_ph=0.1",
        str(grid.value)).group(1))]
    # the routes round differently, so the largest probabilities agree to rounding
    assert values[0] > 1.0 + propagator.PROBABILITY_TOL
    assert abs(values[0] - values[1]) < 1e-12


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
    arrays on every operation. Guards omitted; returns the n-cycle mean. The
    start and measurement states use bloch_d3, as both routes do."""
    tau = 2.0 * math.pi / omega
    dt = tau / cfg.steps_per_cycle
    extra = int(round(cfg.measure_offset * cfg.steps_per_cycle))
    d2 = np.sin(k)
    c3 = -(eps0 + np.cos(k))

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

    d3_start = bandmodel.bloch_d3(eps0, a_ph, np.cos(k), 0.0)
    d3_meas = bandmodel.bloch_d3(eps0, a_ph, np.cos(k), math.sin(omega * (extra * dt)))
    g0a, g0b = su2.planar_band_state(d2, d3_start, lower=True)
    m1a, m1b = su2.planar_band_state(d2, d3_meas, lower=False)
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


@pytest.mark.parametrize("points", sorted({1, 7, 2049, propagator._BLOCK_POINTS + 1}))
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
        extras.append(propagator._step_grid(TPT_POINT.tau_cycle, cfg)[1])
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
        got = propagator._step_coeffs(x, dt, mode, order, out)
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
    dt, extra = propagator._step_grid(p.tau_cycle, cfg)
    u_cycle = u_partial = su2.IDENTITY2
    for lo in range(0, cfg.steps_per_cycle, 2048):
        t = (np.arange(lo, min(lo + 2048, cfg.steps_per_cycle)) + 0.5) * dt
        steps = propagator._step_matrix(*bloch_vector(p, t).T[1:], dt, cfg.mode,
                                        cfg.taylor_order)
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
        assert propagator._step_grid(p.tau_cycle, chains[0])[1] == extra
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

    def step_matrix(d2, d3, *args, **kwargs):
        sizes.append(len(d3))
        return build(d2, d3, *args, **kwargs)

    build = propagator._step_matrix
    monkeypatch.setattr(propagator, "_step_matrix", step_matrix)
    chains = [TrotterConfig(steps_per_cycle=4099, mode="taylor", taylor_order=order)
              for order in range(2, 2 + n_chains)]
    propagator._cycle_unitaries(TPT_POINT, chains)
    block = propagator._BLOCK_STEPS // n_chains
    assert sizes == [min(block, 4099 - lo) for lo in range(0, 4099, block)
                     for _ in chains]


def _per_row_evolution(p, cfg, states=None):
    """(p_n, defect) of _evolve_impl as it was before stacked folds and
    stacked measurements: one chain, the one-chain fold, the defect of every
    cycle, each start state of `states` (default: the ground state) measured
    on its own, no budget gate. p_n has a leading state axis."""
    dt, extra = propagator._step_grid(p.tau_cycle, cfg)
    n1 = propagator.band_basis(p, extra * dt, "measurement time")[1]
    if states is None:
        states = [su2.eigensystem2(hamiltonian(p, 0.0))[2]]
    p_j = np.empty((len(states), cfg.n_cycles))
    w = su2.IDENTITY2
    defect = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        u_cycle, u_partial = _one_chain_fold(p, cfg)
        for m in range(cfg.n_cycles):
            w = u_cycle @ w
            meas = u_partial @ w if extra else w
            defect = np.maximum(defect, su2.unitarity_defect(meas))
            for s, psi0 in enumerate(states):
                amp = (n1.conj() @ (meas @ psi0))
                p_j[s, m] = abs(amp) ** 2
    p_j = np.where(np.isfinite(p_j), np.clip(p_j, 0.0, 1.0), np.nan)
    return np.cumsum(p_j, axis=-1) / np.arange(1, cfg.n_cycles + 1), float(defect)


def _per_row_report(p, cfg):
    """unitarity_report as it was: a taylor and an exact evolution per row."""
    (p_t,), defect = _per_row_evolution(p, replace(cfg, mode="taylor"))
    (p_e,), _ = _per_row_evolution(p, replace(cfg, mode="exact"))
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
    # and each state as the pre-stack loop measured it, in both modes
    for c in (cfg, replace(cfg, mode="taylor", taylor_order=3)):
        p_n, defect = _per_row_evolution(TPT_POINT, c, states)
        trace = propagator.evolve(TPT_POINT, c, initial=states)
        assert trace.p_n.tobytes() == p_n.tobytes()
        assert trace.unitarity_defect == defect


def test_evolve_stack_names_its_failing_states():
    # order 2 at 1000 steps stays inside the defect budget here, but a start
    # in the excited band ends above probability 1
    p = DriveParams(eps0=-0.5, a_ph=0.1, k=0.3)
    cfg = TrotterConfig(steps_per_cycle=1000, taylor_order=2, mode="taylor", n_cycles=5)
    _, _, g0, g1 = su2.eigensystem2(hamiltonian(p, 0.0))
    with pytest.raises(NonUnitaryEvolution) as single:
        propagator.evolve(p, cfg, initial=g1)
    assert single.value.indices == ()
    for stack, failing in (([g0, g1, g0, g1], (1, 3)), ([g1, g0, g0], (0,))):
        with pytest.raises(NonUnitaryEvolution) as info:
            propagator.evolve(p, cfg, initial=np.array(stack))
        assert (str(info.value), info.value.indices) == (str(single.value), failing)
    assert propagator.evolve(p, cfg, initial=np.array([g0, g0])).p_n.shape == (2, 5)


@pytest.mark.parametrize("initial", [[1.0, 1.0], [[1.0, 0.0], [0.6, 0.6]], [1.0, 0.0, 0.0],
                                     [[[1.0, 0.0]]], [math.nan, 0.0], [1e200, 0.0],
                                     [[1e308, 1e308]]])
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
    apply_step = su2.stack_applier(step, np.empty_like(step))
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
        apply_step(u, u)
        if j + 1 == extra:
            q = u.copy()
    return u, q


def _slab_steps(points):
    return max(1, min(propagator._BLOCK_POINTS // points, propagator._SLAB_ROWS))


_B = propagator._BLOCK_POINTS


# steps_per_cycle = 203 is a multiple of no slab size below but 1; B + 52 steps
# end a one-point grid's last slab of _SLAB_ROWS steps early, and B // 2,
# B // 2 + 1 and B points sit on both sides of the one-step slab
@pytest.mark.parametrize("points, steps", sorted({
    (1, 203), (1, 2100), (1, _B + 52), (101, 203), (401, 203), (1024, 203), (1025, 203),
    (2048, 203), (_B // 2, 203), (_B // 2 + 1, 203), (_B, 203)}))
def test_step_slabs_equal_per_step_columns(points, steps):
    rng = np.random.default_rng(points)
    k = rng.uniform(-0.05, 0.05, points)
    d2 = np.sin(k)
    c3 = -(rng.uniform(-1.03, -0.97, points) + np.cos(k))
    a_ph = rng.uniform(0.02, 0.06, points)
    omega = TPT_POINT.omega
    dt = 2.0 * math.pi / omega / steps
    b = _slab_steps(points)
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


@pytest.mark.parametrize("points", [1, 3, 2048, 2049])
def test_step_through_a_closed_gap_takes_sinc_one(points):
    # d = 0 at the midpoint of step 37 for the first point: the exact step's
    # dt sin(r) / r is dt there, which only the per-step zero test gives
    steps = 203
    omega = TPT_POINT.omega
    dt = 2.0 * math.pi / omega / steps
    rng = np.random.default_rng(points)
    k = rng.uniform(0.01, 0.05, points)
    d2 = np.sin(k)
    a_ph = rng.uniform(0.02, 0.06, points)
    c3 = -(rng.uniform(-1.03, -0.97, points) + np.cos(k))
    d2[0] = 0.0
    c3[0] = a_ph[0] * math.sin(omega * (37 + 0.5) * dt)
    cfg = TrotterConfig(steps_per_cycle=steps)
    u, _ = propagator._grid_columns(d2, c3, a_ph, omega, dt, 0, cfg)
    u_ref, _ = _per_step_columns(d2, c3, a_ph, omega, dt, 0, cfg)
    assert np.isfinite(u).all()
    assert u.tobytes() == u_ref.tobytes()


@pytest.mark.parametrize("points", sorted({1, 3, 101, 401, 1024, 1025, 1981, 2048,
                                            _B // 2, _B // 2 + 1, _B}))
def test_step_slab_stays_within_block_points(points, monkeypatch):
    shapes = []

    def step_coeffs(r, *args, **kwargs):
        shapes.append(np.shape(r))
        return build(r, *args, **kwargs)

    build = propagator._step_coeffs
    monkeypatch.setattr(propagator, "_step_coeffs", step_coeffs)
    steps = 2003
    b = _slab_steps(points)
    propagator.p_g_numeric_grid(np.linspace(0.01, 0.5, points), -0.95, 0.1,
                                TPT_POINT.omega, TrotterConfig(steps_per_cycle=steps,
                                                               n_cycles=2))
    # one coefficient build per slab of b steps, over b * points <= _BLOCK_POINTS
    assert len(shapes) == -(-steps // b)
    assert set(shapes) == {(b, points)}
    assert b * points <= propagator._BLOCK_POINTS and b <= propagator._SLAB_ROWS
    assert (b == 1) == (points > propagator._BLOCK_POINTS // 2)


def test_a_few_point_grid_binds_a_bounded_slab():
    # one point at 20000 steps: _SLAB_ROWS step appliers, not one per step
    grid = (np.array([TPT_POINT.k]), TPT_POINT.eps0, TPT_POINT.a_ph, TPT_POINT.omega,
            TrotterConfig(steps_per_cycle=20000, n_cycles=2))
    propagator.p_g_numeric_grid(*grid)  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        propagator.p_g_numeric_grid(*grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6


def test_steps_and_band_states_take_the_norm_and_the_phase_from_su2(monkeypatch):
    calls = []
    for name in ("bloch_norm", "fix_phase"):
        def spy(*args, name=name, owner=getattr(su2, name)):
            calls.append(name)
            return owner(*args)
        monkeypatch.setattr(su2, name, spy)

    def called(run):
        calls.clear()
        run()
        return calls

    d = bloch_vector(TPT_POINT, 0.0)
    assert called(lambda: su2.exact_step(d, 0.01)) == ["bloch_norm"]
    assert called(lambda: su2.eigensystem2(hamiltonian(TPT_POINT, 0.0))) == ["bloch_norm",
                                                                             "fix_phase"]
    assert called(lambda: su2.planar_band_state(d[None, 1], d[None, 2], lower=True)) == [
        "fix_phase"]

    # both routes build every step through the one writer, _fill_steps
    def fill_steps(*args):
        calls.append("_fill_steps")
        return fill(*args)

    fill = propagator._fill_steps
    monkeypatch.setattr(propagator, "_fill_steps", fill_steps)
    cfg = TrotterConfig(steps_per_cycle=100)
    assert called(lambda: propagator.trotter_step(TPT_POINT, 0.0, 0.01, 2)) == ["_fill_steps"]
    assert called(lambda: propagator._cycle_unitaries(TPT_POINT, [cfg, cfg])) == [
        "_fill_steps"] * 2
    # one point: 100 steps in a slab of _SLAB_ROWS and a partial one
    assert called(lambda: propagator._grid_columns(d[None, 1], d[None, 2], 0.1,
                                                   TPT_POINT.omega, 0.01, 0, cfg)) == [
        "_fill_steps"] * 2


def test_grid_kernels_and_the_cycle_map_take_their_su2_algebra_from_su2(monkeypatch):
    calls = []
    # stack_applier is counted where it binds, not where its applier runs
    for name in ("from_column", "stack_applier", "planar_band_state"):
        def spy(*args, name=name, owner=getattr(su2, name), **kwargs):
            calls.append(name)
            return owner(*args, **kwargs)
        monkeypatch.setattr(su2, name, spy)

    def called(run):
        calls.clear()
        run()
        return calls

    d = bloch_vector(TPT_POINT, 0.0)
    cfg = TrotterConfig(steps_per_cycle=100, n_cycles=2, measure_offset=0.5)
    # one point: one slab of _SLAB_ROWS rows, each bound once
    rows = propagator._SLAB_ROWS
    assert called(lambda: propagator._grid_columns(d[None, 1], d[None, 2], 0.1,
                                                   TPT_POINT.omega, 0.01, 0, cfg)) == [
        "stack_applier"] * rows
    # the fold, u and q from their first columns, the two band states, then
    # the cycle product and its prefix bound once for all cycles
    grid = (np.array([TPT_POINT.k]), TPT_POINT.eps0, TPT_POINT.a_ph, TPT_POINT.omega)
    assert called(lambda: propagator.p_g_numeric_grid(*grid, cfg)) == (
        ["stack_applier"] * rows + ["from_column"] * 2 + ["planar_band_state"] * 2
        + ["stack_applier"] * 2)
    # no offset: no prefix, so u alone
    assert called(lambda: propagator.p_g_numeric_grid(
        *grid, replace(cfg, measure_offset=0.0))) == (
        ["stack_applier"] * rows + ["from_column"] + ["planar_band_state"] * 2
        + ["stack_applier"])
    assert called(lambda: cyclemap.p_series_mean_grid([1.0], [0.5], 3)) == [
        "from_column", "stack_applier"]
    assert called(lambda: cyclemap.cycle_unitary(CycleParams(theta=1.0, phi=0.5))) == [
        "from_column"]


@pytest.mark.parametrize("eps0", [1e155, 1e200, 1e308, -1e308])
def test_both_routes_agree_at_a_huge_finite_band_offset(eps0):
    # the band states no longer overflow in the grid route
    p = DriveParams(eps0=eps0, a_ph=0.1, k=0.02)
    cfg = TrotterConfig(steps_per_cycle=200, n_cycles=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = propagator.p_g_numeric(p, cfg)
        grid = propagator.p_g_numeric_grid(np.array([p.k]), eps0, p.a_ph, p.omega, cfg)[0]
    assert abs(scalar - grid) <= 1e-12
