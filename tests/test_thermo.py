"""Occupancy algebra and the discriminating temperature/fluence sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geopump import thermo
from geopump.thermo import ThermalModel, fermi, fgr_factor, geometric_factor, gp_probability

unit = st.floats(0.0, 1.0)


def test_model_validation():
    with pytest.raises(ValueError):
        ThermalModel(gap0=0.0)
    with pytest.raises(ValueError):
        ThermalModel(t_berry=40.0, t_lif=50.0)
    with pytest.raises(ValueError):
        ThermalModel(t_lif=-1.0)


def test_linear_model_anchors():
    m = ThermalModel()
    assert m.gap(0.0) == 40.0
    assert m.gap(160.0) == 0.0
    assert m.gap(240.0) == 0.0  # clamped, never negative
    assert m.mu(0.0) == 10.0
    assert abs(m.mu(50.0)) < 1e-12
    assert m.mu(160.0) < 0.0


def test_fermi_midpoint_and_limits():
    assert fermi(3.0, 3.0, 120.0) == 0.5
    assert fermi(0.0, 10.0, 1e-9) > 1.0 - 1e-12
    assert fermi(20.0, 10.0, 1e-9) < 1e-12


def test_fermi_zero_temperature_step():
    assert fermi(-1.0, 0.0, 0.0) == 1.0
    assert fermi(1.0, 0.0, 0.0) == 0.0
    assert fermi(0.0, 0.0, 0.0) == 0.5


def test_fermi_scalar_anchor():
    # (E - mu)/kT = 1 exactly
    assert abs(fermi(4.0, 0.0, 4.0, kB=1.0) - 1.0 / (1.0 + math.e)) < 1e-15


def test_fermi_handles_extreme_arguments():
    assert fermi(1e6, 0.0, 1.0) == 0.0
    assert fermi(-1e6, 0.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        fermi(0.0, 0.0, -1.0)


@settings(max_examples=150, deadline=None)
@given(unit, unit)
def test_geometric_factor_algebra(fv, fc):
    g = geometric_factor(fv, fc)
    assert -1e-12 <= g <= 1.0 + 1e-12
    assert abs(g - (fv * (1 - fc) + fc * (1 - fv))) < 1e-12  # factored form
    assert geometric_factor(fc, fv) == g  # symmetric
    assert fgr_factor(fv, fc) == -fgr_factor(fc, fv)  # antisymmetric


def test_corner_cases_match_weight_table():
    # (f_v, f_c) corners in the order: both filled, inverted, normal, both empty
    corners = [(1, 1), (0, 1), (1, 0), (0, 0)]
    weights = [gp_probability(fv, fc, 1) for fv, fc in corners]
    assert weights == [0.0, 0.5, 0.5, 0.0]


def test_gp_probability_gating_and_degenerate_value():
    assert gp_probability(0.9, 0.2, 0) == 0.0
    assert gp_probability(1.0, 0.0, 1) == 0.5
    assert abs(gp_probability(0.5, 0.5, 1) - 0.25) < 1e-15
    with pytest.raises(ValueError):
        gp_probability(0.5, 0.5, 2)
    with pytest.raises(ValueError):
        geometric_factor(1.2, 0.0)


def test_degenerate_bands_separate_the_two_accounts():
    f = fermi(0.0, -5.0, 100.0)
    assert fgr_factor(f, f) == 0.0
    assert geometric_factor(f, f) == pytest.approx(2 * f * (1 - f), rel=1e-15)
    assert geometric_factor(f, f) > 0.0


def test_temperature_sweep_peak_and_dip():
    curve = thermo.temperature_sweep(ThermalModel(), np.arange(1.0, 301.0))
    i160 = int(np.where(curve.abscissa == 160.0)[0][0])
    assert curve.q_fgr[i160] == 0.0
    assert curve.q_gp[i160] > 0.0
    assert int(np.argmax(curve.q_gp)) == i160
    # frozen regression value for the peak height
    assert abs(curve.q_gp[i160] - 0.14016465916027487) < 1e-12
    # below the closing temperature the gate shuts the geometric channel
    assert np.all(curve.q_gp[curve.abscissa < 160.0] == 0.0)


def test_temperature_sweep_always_closable_variant():
    curve = thermo.temperature_sweep(ThermalModel(), np.arange(1.0, 301.0),
                                     closable_gap=1e9)
    assert curve.q_gp[0] > 0.49  # low T: filled valence, empty conduction
    assert np.all(curve.q_gp > 0.0)


def test_mu_sign_flip_invariance_where_mu_vanishes():
    t_lif = 50.0
    up = thermo.temperature_sweep(ThermalModel(mu0=10.0), [t_lif])
    dn = thermo.temperature_sweep(ThermalModel(mu0=-10.0), [t_lif])
    assert up.q_gp[0] == dn.q_gp[0]
    assert abs(up.q_fgr[0] - dn.q_fgr[0]) < 1e-15


def test_fluence_sweep_monotonicity():
    curve = thermo.fluence_sweep(ThermalModel(), 20.0, np.linspace(40.0, 80.0, 81))
    assert np.all(np.diff(curve.q_gp) < 0.0)
    assert np.all(np.diff(curve.q_fgr) > 0.0)


def test_fluence_zero_point_is_no_op():
    m = ThermalModel()
    curve = thermo.fluence_sweep(m, 30.0, [0.0, 50.0])
    delta = m.gap(30.0)
    f_v = fermi(-delta / 2, m.mu(30.0), 30.0)
    f_c = fermi(+delta / 2, m.mu(30.0), 30.0)
    assert abs(curve.q_gp[0] - gp_probability(f_v, f_c, 1)) < 1e-15
    assert curve.q_fgr[0] == 0.0  # linear factor vanishes at F = 0


def test_fluence_sweep_rejects_bad_ranges():
    with pytest.raises(ValueError):
        thermo.fluence_sweep(ThermalModel(), 20.0, [])
    with pytest.raises(ValueError):
        thermo.fluence_sweep(ThermalModel(), 20.0, [-1.0, 1.0])
    with pytest.raises(ValueError):
        thermo.fluence_sweep(ThermalModel(), 20.0, [0.0])
    with pytest.raises(ValueError):
        thermo.fluence_sweep(ThermalModel(), 20.0, [40.0], delta_nu=3)


def test_pump_curve_bounds_enforced():
    with pytest.raises(ValueError):
        thermo.PumpCurve(abscissa=np.array([1.0]), q_gp=np.array([0.7]),
                         q_fgr=np.array([0.0]))


def test_sweeps_check_their_rules_once_per_sweep(monkeypatch):
    calls = []
    for name in ("checked_temperature", "checked_winding_change"):
        def rule(x, name=name, owner=getattr(thermo, name)):
            calls.append(name)
            return owner(x)
        monkeypatch.setattr(thermo, name, rule)
    thermo.temperature_sweep(ThermalModel(), np.linspace(1.0, 300.0, 50))
    assert calls == ["checked_temperature"]
    calls.clear()
    thermo.fluence_sweep(ThermalModel(), 20.0, np.linspace(40.0, 80.0, 50))
    assert calls == ["checked_temperature", "checked_winding_change"]
