"""Staggered-start ensemble: staircase, averaging routes, entropy ramp."""

import math

import numpy as np
import pytest

from geopump import ensemble, su2
from geopump.cyclemap import CycleParams, cycle_unitary
from geopump.ensemble import EnsembleConfig, ensemble_average, p1_staircase

PI_CYCLE = CycleParams(theta=math.pi, phi=0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(n_systems=0)
    with pytest.raises(ValueError):
        EnsembleConfig(dt_mismatch=0.0)
    with pytest.raises(ValueError):
        EnsembleConfig(dt_mismatch=0.9, tau_cycle=0.83)
    with pytest.raises(ValueError):
        EnsembleConfig(t_max=-1.0)


def test_transition_count_boundaries():
    tau = 0.83
    assert ensemble.transition_count(0.0, tau) == 0
    assert ensemble.transition_count(0.24 * tau, tau) == 0
    assert ensemble.transition_count(0.25 * tau, tau) == 1
    assert ensemble.transition_count(1.2 * tau, tau) == 1
    assert ensemble.transition_count(1.25 * tau, tau) == 2


def test_staircase_square_wave_at_pi():
    tau = 0.83
    assert p1_staircase(PI_CYCLE, tau, -0.5) == 0.0
    assert p1_staircase(PI_CYCLE, tau, 0.1 * tau) == 0.0
    assert abs(p1_staircase(PI_CYCLE, tau, 0.5 * tau) - 1.0) < 1e-15
    assert abs(p1_staircase(PI_CYCLE, tau, 1.5 * tau) - 0.0) < 1e-15
    assert abs(p1_staircase(PI_CYCLE, tau, 2.5 * tau) - 1.0) < 1e-15


def test_staircase_constant_between_transitions():
    c = CycleParams(theta=1.1, phi=0.4)
    tau = 0.83
    vals = {p1_staircase(c, tau, t) for t in np.linspace(0.3 * tau, 1.2 * tau, 7)}
    assert len(vals) == 1  # no transition instant in (0.25, 1.25) tau interior


def test_single_member_reduces_to_shifted_staircase():
    cfg = EnsembleConfig(n_systems=1, dt_mismatch=0.1, tau_cycle=0.83, t_max=5.0,
                         cycle=CycleParams(theta=2.0, phi=0.6))
    tr = ensemble_average(cfg)
    expected = np.array([p1_staircase(cfg.cycle, cfg.tau_cycle, t - cfg.dt_mismatch)
                         for t in tr.times])
    assert np.max(np.abs(tr.p_ens - expected)) < 1e-14
    assert np.max(tr.entropy) < 1e-12  # one pure member stays pure


def test_two_averaging_routes_agree():
    cfg = EnsembleConfig(n_systems=13, dt_mismatch=0.07, tau_cycle=0.81, t_max=6.0,
                         cycle=CycleParams(theta=2.4, phi=1.0))
    tr = ensemble_average(cfg)
    for i in range(0, len(tr.times), 97):
        t = tr.times[i]
        direct = np.mean([p1_staircase(cfg.cycle, cfg.tau_cycle,
                                       t - j * cfg.dt_mismatch)
                          for j in range(1, cfg.n_systems + 1)])
        assert abs(tr.p_ens[i] - direct) < 1e-12


def test_members_stay_pure_while_ensemble_mixes():
    cfg = EnsembleConfig()
    tr = ensemble_average(cfg)
    u = cycle_unitary(cfg.cycle)
    state = np.array([1.0, 0.0], dtype=complex)
    for _ in range(10):
        state = u @ state
        assert abs(state @ state.conj() - 1.0) < 1e-12
        assert su2.von_neumann_entropy(su2.pure_density(state)) < 1e-12
    assert tr.entropy.max() > 0.5  # the average is strongly mixed


def test_entropy_within_bounds_and_saturates():
    tr = ensemble_average(EnsembleConfig())
    assert np.all(tr.entropy >= -1e-12)
    assert np.all(tr.entropy <= math.log(2) + 1e-12)
    late = tr.times >= 7.0
    assert np.max(np.abs(tr.entropy[late] - math.log(2))) < 0.01


def test_plateau_time_mean_near_half():
    tr = ensemble_average(EnsembleConfig())
    late = tr.times >= 7.0
    assert abs(np.mean(tr.p_ens[late]) - 0.5) < 0.02
    # pointwise the square-wave average ripples at the few-percent level
    assert np.max(np.abs(tr.p_ens[late] - 0.5)) < 0.08


def test_p_first_is_unshifted_staircase():
    # by t = 21 the undelayed first member is a cycle ahead of every staggered
    # one; 25 iterated cycle maps then differ from the closed form by rounding
    for t_max, tol in ((4.0, 0.0), (21.0, 1e-12)):
        cfg = EnsembleConfig(t_max=t_max)
        tr = ensemble_average(cfg)
        expected = np.array([p1_staircase(cfg.cycle, cfg.tau_cycle, t)
                             for t in tr.times])
        assert np.max(np.abs(tr.p_first - expected)) <= tol


def test_shift_covariance_on_aligned_grid():
    # delaying every start by l grid steps shifts the trace by l samples
    c = CycleParams(theta=1.7, phi=0.5)
    tau = 0.8
    h = tau / 100
    stride = 10  # dt_mismatch = 10 grid steps, exactly representable
    n, l = 8, 37

    def member_value(i, j, delay_steps):
        t = (i - j * stride - delay_steps) * h
        return p1_staircase(c, tau, t)

    for i in (300, 411, 512):
        a = np.mean([member_value(i + l, j, l) for j in range(1, n + 1)])
        b = np.mean([member_value(i, j, 0) for j in range(1, n + 1)])
        assert a == b


def test_observable_from_density():
    assert ensemble.observable_from_density(np.diag([1.0, 0.0]).astype(complex)) == 0.0
    assert ensemble.observable_from_density(0.5 * np.eye(2, dtype=complex)) == 0.5
    with pytest.raises(su2.InvalidDensityMatrix):
        ensemble.observable_from_density(np.diag([0.9, 0.9]).astype(complex))
