"""Driven two-band model: gap statistics and winding detection."""

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
