"""Each range rule has one definition, in the module that owns the field: every
library entry point that guards the field and the CLI's pre-compute check give
that rule's own message."""

import math
import warnings

import numpy as np
import pytest

from geopump import bandmodel, cli, cyclemap, propagator, thermo
from geopump.bandmodel import DriveParams
from geopump.cyclemap import CycleParams
from geopump.propagator import TrotterConfig
from geopump.thermo import ThermalModel
from geopump.units import DEFAULT_OMEGA

TPT = dict(eps0=-0.95, a_ph=0.1, k=0.02)
FAST = TrotterConfig(steps_per_cycle=100, n_cycles=2)


def _message(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def _config_error(argv, capsys):
    assert cli.main(argv + ["--out", "-"]) == 2
    return capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf, 1e-310])
def test_every_route_rejects_an_omega_without_a_finite_nonzero_period(omega, capsys):
    owner = _message(lambda: bandmodel.drive_period(omega))
    assert "omega" in owner and "non-finite drive period" in owner
    assert _message(lambda: bandmodel.drive_period(np.float64(omega))) == owner  # no warning
    assert _message(lambda: DriveParams(**TPT, omega=omega)) == owner
    assert _message(lambda: bandmodel.gap_stats_grid(0.02, -0.95, 0.1, omega)) == owner
    assert _message(lambda: propagator.p_g_numeric_grid(np.array([0.02]), -0.95, 0.1, omega,
                                                        FAST)) == owner
    if math.isfinite(omega):  # the CLI's type check turns away NaN and inf first
        assert _config_error(["sweep-k", "--set", f"params.drive.omega={omega!r}"],
                             capsys) == f"geopump: config error: params.drive and grid.k: {owner}"


def test_every_route_rejects_first_order_taylor_evolution(capsys):
    cfg = TrotterConfig(steps_per_cycle=100, taylor_order=1, mode="taylor", n_cycles=2)
    owner = _message(lambda: propagator.checked_trotter(cfg))
    assert _message(lambda: propagator.evolve(DriveParams(**TPT), cfg)) == owner
    assert _message(lambda: propagator.p_g_numeric_grid(np.array([0.02]), -0.95, 0.1,
                                                        DEFAULT_OMEGA, cfg)) == owner
    assert _config_error(["sweep-k", "--set", "params.trotter.mode=taylor",
                          "--set", "params.trotter.taylor_order=1"],
                         capsys) == f"geopump: config error: params.trotter: {owner}"
    # the config itself stays legal: the unbudgeted unitarity report runs order 1
    assert propagator.unitarity_report(DriveParams(**TPT), cfg)[0] > 0.0


def test_trotter_step_and_config_give_one_taylor_order_message():
    owner = _message(lambda: propagator.checked_taylor_order(0))
    assert _message(lambda: TrotterConfig(taylor_order=0)) == owner
    assert _message(lambda: propagator.trotter_step(DriveParams(**TPT), 0.0, 1e-3,
                                                    order=0)) == owner


def test_fermi_rejects_a_nan_temperature():
    owner = _message(lambda: thermo.checked_temperature(math.nan))
    assert _message(lambda: thermo.fermi(0.0, 0.0, math.nan)) == owner


@pytest.mark.parametrize("owner, routes, argv, where", [
    (lambda: cyclemap.checked_cycles(0),
     [lambda: cyclemap.p_series(CycleParams(theta=1.0, phi=0.5), 0),
      lambda: cyclemap.p_series_mean_grid(np.array([1.0]), np.array([0.5]), 0)],
     ["verify-cyclemap", "--set", "params.n_cycles=0"], "params.n_cycles"),
    (lambda: bandmodel.checked_winding_change(2),
     [lambda: thermo.gp_probability(0.5, 0.5, 2), lambda: cyclemap.theta_from_tpt(2),
      lambda: thermo.fluence_sweep(ThermalModel(), 20.0, [40.0], delta_nu=2)],
     ["fluence", "--set", "params.delta_nu=2"], "params.delta_nu"),
    (lambda: thermo.checked_temperature(-1.0),
     [lambda: thermo.fermi(0.0, 0.0, -1.0),
      lambda: thermo.temperature_sweep(ThermalModel(), [-1.0, 10.0])],
     ["thermal", "--set", "grid.T.min=-1"], "grid.T"),
    (lambda: thermo.checked_temperature(-1.0),
     [lambda: thermo.fluence_sweep(ThermalModel(), -1.0, [40.0])],
     ["fluence", "--set", "params.T=-1"], "params.T"),
    (lambda: thermo.checked_fluences([0.0, 0.0, 0.0]),
     [lambda: thermo.fluence_sweep(ThermalModel(), 20.0, [0.0, 0.0, 0.0])],
     ["fluence", "--set", "grid.F.min=0", "--set", "grid.F.max=0", "--set", "grid.F.count=3"],
     "grid.F"),
    # the grid routes apply the rules of the fields that DriveParams and
    # CycleParams guard for one point
    (lambda: bandmodel.checked_drive_amplitude(-0.1),
     [lambda: DriveParams(eps0=-0.95, a_ph=-0.1, k=0.1),
      lambda: bandmodel.gap_stats_grid(np.array([0.1, 4.0]), -0.95, -0.1),
      lambda: propagator.p_g_numeric_grid(np.array([0.1, 4.0]), -0.95, -0.1, DEFAULT_OMEGA,
                                          FAST)],
     ["sweep-k", "--set", "params.drive.a_ph=-0.1"], "params.drive and grid.k"),
    (lambda: bandmodel.checked_momentum(4.0),
     [lambda: DriveParams(eps0=-0.95, a_ph=0.1, k=4.0),
      lambda: bandmodel.gap_stats_grid(np.array([0.1, 4.0]), -0.95, 0.1),
      lambda: propagator.p_g_numeric_grid(np.array([0.1, 4.0]), -0.95, 0.1, DEFAULT_OMEGA,
                                          FAST)],
     ["sweep-k", "--set", "grid.k.max=4"], "params.drive and grid.k"),
    (lambda: cyclemap.checked_theta(4.0),
     [lambda: CycleParams(theta=4.0, phi=0.3),
      lambda: cyclemap.p_series_mean_grid([4.0, -1.0], [0.3, 0.3], 10)],
     ["verify-cyclemap", "--set", "grid.theta.max=4"], "grid.theta and grid.phi"),
    (lambda: cyclemap.checked_theta(-1.0),
     [lambda: CycleParams(theta=-1.0, phi=0.3),
      lambda: cyclemap.p_series_mean_grid([0.5, -1.0], [0.3, 0.3], 10)],
     ["verify-cyclemap", "--set", "grid.theta.min=-1"], "grid.theta and grid.phi"),
])
def test_every_route_gives_the_owning_rule_message(owner, routes, argv, where, capsys):
    owner = _message(owner)
    for route in routes:
        assert _message(route) == owner
    assert _config_error(argv, capsys) == f"geopump: config error: {where}: {owner}"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("owner, routes", [
    (bandmodel.checked_band_offset,
     [lambda x: DriveParams(eps0=x, a_ph=0.1, k=0.02),
      lambda x: bandmodel.gap_stats_grid(0.02, np.array([-0.95, x]), 0.1),
      lambda x: propagator.p_g_numeric_grid(np.array([0.02]), np.array([-0.95, x]), 0.1,
                                            DEFAULT_OMEGA, FAST),
      bandmodel.winding_number]),
    (bandmodel.checked_drive_amplitude,
     [lambda x: DriveParams(eps0=-0.95, a_ph=x, k=0.02),
      lambda x: bandmodel.gap_stats_grid(0.02, -0.95, np.array([0.1, x])),
      lambda x: propagator.p_g_numeric_grid(np.array([0.02]), -0.95, np.array([0.1, x]),
                                            DEFAULT_OMEGA, FAST)]),
    (cyclemap.checked_phases,
     [lambda x: CycleParams(theta=1.0, phi=x),
      lambda x: cyclemap.p_series_mean_grid([1.0, 1.0], [0.3, x], 10)]),
    (lambda x: cyclemap.checked_phases(0.3, x),
     [lambda x: CycleParams(theta=1.0, phi=0.3, omega_az=x)]),
], ids=["eps0", "a_ph", "phi", "omega_az"])
def test_every_route_rejects_a_non_finite_field(owner, routes, value):
    # the CLI's type check turns away NaN and inf before any rule runs
    owner = _message(lambda: owner(value))
    assert "must be finite" in owner
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the rule runs before any arithmetic
        for route in routes:
            assert _message(lambda: route(value)) == owner
