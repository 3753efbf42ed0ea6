"""Driven two-band model: gap statistics and winding detection."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geopump import bandmodel
from geopump.bandmodel import DriveParams, GapClosedOnLoop
from geopump.units import DEFAULT_OMEGA


def test_drive_params_validation():
    with pytest.raises(ValueError):
        DriveParams(eps0=-1.0, a_ph=-0.1, k=0.0)
    with pytest.raises(ValueError):
        DriveParams(eps0=-1.0, a_ph=0.1, k=0.0, omega=0.0)
    with pytest.raises(ValueError, match="non-finite drive period"):
        DriveParams(eps0=-1.0, a_ph=0.1, k=0.0, omega=1e-310)
    with pytest.raises(ValueError):
        DriveParams(eps0=-1.0, a_ph=0.1, k=4.0)
    p = DriveParams(eps0=-0.95, a_ph=0.1, k=0.02)
    assert p.omega == DEFAULT_OMEGA
    assert abs(p.tau_cycle - 2 * np.pi / DEFAULT_OMEGA) < 1e-12


def test_default_omega_value():
    # 2*pi*hbar / (100 meV * 0.83 ps), expressed in model units
    assert abs(DEFAULT_OMEGA - 0.049827321645831375) < 1e-15


def test_bloch_vector_components():
    p = DriveParams(eps0=-0.95, a_ph=0.1, k=0.3)
    quarter = 0.25 * p.tau_cycle
    d = bandmodel.bloch_vector(p, quarter)  # sin(omega t) = 1
    assert d[0] == 0.0
    assert abs(d[1] - np.sin(0.3)) < 1e-12
    assert abs(d[2] - (-(-0.95 + 0.1 + np.cos(0.3)))) < 1e-12


def test_gap_stats_in_cycle_closing_is_exact_zero():
    # |eps0 + cos k| < a_ph puts the closing inside the swept range
    p = DriveParams(eps0=-0.95, a_ph=0.1, k=0.0)
    stats = bandmodel.gap_stats(p)
    assert stats.delta_min == 0.0
    assert abs(stats.delta_int - 2 * abs(-0.95 + 1.0)) < 1e-12
    assert stats.delta_avg > 0
    assert abs(stats.energy_ratio - p.omega / stats.delta_avg) < 1e-15


def test_gap_stats_open_case_matches_brute_force():
    p = DriveParams(eps0=-0.5, a_ph=0.1, k=0.2)
    stats = bandmodel.gap_stats(p)
    t = np.linspace(0, p.tau_cycle, 20001)
    gaps = np.array([2 * np.linalg.norm(bandmodel.bloch_vector(p, ti)) for ti in t])
    assert stats.delta_min <= gaps.min() + 1e-12
    assert abs(stats.delta_min - gaps.min()) < 1e-6
    assert abs(stats.delta_avg - gaps.mean()) < 1e-3


@settings(max_examples=40, deadline=None)
@given(st.floats(-1.4, -0.6), st.floats(0.0, 0.4), st.floats(-3.1, 3.1))
def test_gap_even_in_k(eps0, a_ph, k):
    pa = DriveParams(eps0=eps0, a_ph=a_ph, k=k)
    pb = DriveParams(eps0=eps0, a_ph=a_ph, k=-k)
    sa = bandmodel.gap_stats(pa)
    sb = bandmodel.gap_stats(pb)
    assert abs(sa.delta_min - sb.delta_min) < 1e-12
    assert abs(sa.delta_avg - sb.delta_avg) < 1e-12


def test_winding_number_inside_outside():
    assert abs(bandmodel.winding_number(-0.95)) == 1
    assert abs(bandmodel.winding_number(-0.5)) == 1
    assert abs(bandmodel.winding_number(0.99)) == 1
    assert bandmodel.winding_number(-1.05) == 0
    assert bandmodel.winding_number(1.2) == 0
    assert bandmodel.winding_number(-7.0) == 0


def test_winding_number_closed_loop_raises():
    with pytest.raises(GapClosedOnLoop):
        bandmodel.winding_number(-1.0)
    with pytest.raises(GapClosedOnLoop):
        bandmodel.winding_number(1.0)


def test_tpt_in_cycle_transition():
    r = bandmodel.tpt_in_cycle(DriveParams(eps0=-0.95, a_ph=0.1, k=0.0))
    assert r.delta_nu == 1
    assert abs(r.nu) == 1  # pristine value is inside the wound phase


def test_tpt_in_cycle_no_transition():
    r = bandmodel.tpt_in_cycle(DriveParams(eps0=-0.5, a_ph=0.1, k=0.0))
    assert r.delta_nu == 0
    r = bandmodel.tpt_in_cycle(DriveParams(eps0=-1.2, a_ph=0.1, k=0.0))
    assert r.delta_nu == 0


def test_tpt_in_cycle_tangent_touch_is_no_transition():
    # drive extreme lands exactly on the closing point; only one side defined
    r = bandmodel.tpt_in_cycle(DriveParams(eps0=-0.9, a_ph=0.1, k=0.0))
    assert r.delta_nu == 0
    assert abs(r.nu) == 1


def test_tpt_in_cycle_both_extremes_closed_raises():
    with pytest.raises(GapClosedOnLoop):
        bandmodel.tpt_in_cycle(DriveParams(eps0=-1.0, a_ph=0.0, k=0.0))


def test_delta_min_k0_zero_plateau_marks_transition():
    # the k = 0 in-cycle gap minimum vanishes exactly on [-1-A, -1+A]
    a = 0.1
    for eps0 in (-1.08, -1.05, -0.95, -0.92):
        p = DriveParams(eps0=eps0, a_ph=a, k=0.0)
        dmin = bandmodel.gap_stats(p).delta_min
        if -1.0 - a <= eps0 <= -1.0 + a:
            assert dmin == 0.0
        else:
            assert dmin > 1e-3


def _per_row_gap_stats(p):
    """The scalar gap_stats as it was written before the batched route."""
    def gap_at_drive(s):
        d2 = np.sin(p.k)
        d3 = -(p.eps0 + p.a_ph * s + np.cos(p.k))
        return 2.0 * np.hypot(d2, d3)

    t = np.arange(256) * (p.tau_cycle / 256)
    gaps = gap_at_drive(np.sin(p.omega * t))
    crit = [-1.0, 1.0]
    if p.a_ph > 0.0:
        with np.errstate(over="ignore"):
            s_star = -(p.eps0 + np.cos(p.k)) / p.a_ph
        crit.append(float(np.clip(s_star, -1.0, 1.0)))
    gap_crit = gap_at_drive(np.array(crit))
    delta_int = float(gap_at_drive(np.array([0.0]))[0])
    delta_min = float(min(gaps.min(), gap_crit.min()))
    delta_avg = float(gaps.mean())
    energy_ratio = p.omega / delta_avg if delta_avg > 0.0 else np.inf
    return (delta_int, delta_min, delta_avg, float(energy_ratio))


@pytest.mark.parametrize("omega", [DEFAULT_OMEGA, 3.1, 0.7])
def test_gap_stats_grid_rows_equal_per_row_code(omega):
    rng = np.random.default_rng(11)
    n = 300  # more rows than one block (32 rows)
    k = rng.uniform(-np.pi, np.pi, n)
    eps0 = rng.uniform(-2.0, 1.0, n)
    a_ph = rng.uniform(0.0, 0.5, n)
    a_ph[::7] = 0.0
    a_ph[::11] = 5e-324  # subnormal: the critical drive value overflows and is clipped
    k[::13] = 0.0  # |eps0 + 1| < a_ph: an in-cycle gap closing
    eps0[::13] = -1.0 - 0.3 * a_ph[::13]
    grid = bandmodel.gap_stats_grid(k, eps0, a_ph, omega)
    fields = (grid.delta_int, grid.delta_min, grid.delta_avg, grid.energy_ratio)
    assert np.count_nonzero(grid.delta_min == 0.0) > 10
    for i in range(n):
        p = DriveParams(eps0=eps0[i], a_ph=a_ph[i], k=k[i], omega=omega)
        old = np.array(_per_row_gap_stats(p))
        assert np.array([f[i] for f in fields]).tobytes() == old.tobytes()
        scalar = bandmodel.gap_stats(p)
        assert np.array([scalar.delta_int, scalar.delta_min, scalar.delta_avg,
                         scalar.energy_ratio]).tobytes() == old.tobytes()


def test_gap_stats_grid_broadcasts_and_rejects_bad_inputs():
    grid = bandmodel.gap_stats_grid(0.0, np.array([-1.05, -0.8]), 0.1)
    assert grid.delta_min.shape == (2,)
    assert grid.delta_min[0] == 0.0 and grid.delta_min[1] > 0.0
    with pytest.raises(ValueError):
        bandmodel.gap_stats_grid(0.0, -0.9, 0.1, omega=1e-310)


@pytest.mark.parametrize("a_ph", [1e306, 1e307, 1e308])
def test_gap_stats_at_huge_drive_amplitudes_raise_no_warning(a_ph):
    # a gap or the 256-sample sum overflows to inf, which a result table rejects
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = bandmodel.gap_stats_grid([0.0, 0.3], -0.95, a_ph)
    assert np.isposinf(stats.delta_avg).all()
    assert np.isfinite(stats.delta_int).all() and np.isfinite(stats.delta_min).all()
    assert stats.delta_min[0] == 0.0  # k = 0 closes in the cycle
