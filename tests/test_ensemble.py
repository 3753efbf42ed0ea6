"""Staggered-start ensemble: staircase, averaging routes, entropy ramp."""

import math
import tracemalloc

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


def test_trace_checks_alignment_and_entropy_range():
    one, two = np.zeros(1), np.zeros(2)
    with pytest.raises(ValueError, match=r"^trace arrays are not aligned$"):
        ensemble.EnsembleTrace(times=two, p_ens=one, entropy=one, p_first=one)
    with pytest.raises(ValueError, match=r"^entropy left \[0, ln 2\]$"):
        ensemble.EnsembleTrace(times=one, p_ens=one, entropy=np.array([0.7]), p_first=one)


def test_transition_count_boundaries():
    tau = 0.83
    assert ensemble.transition_count(0.0, tau) == 0
    assert ensemble.transition_count(0.24 * tau, tau) == 0
    assert ensemble.transition_count(0.25 * tau, tau) == 1
    assert ensemble.transition_count(1.2 * tau, tau) == 1
    assert ensemble.transition_count(1.25 * tau, tau) == 2


def test_transition_count_takes_arrays():
    tau = 0.83
    t = np.concatenate([[-2.0, 0.0, 0.25 * tau, 1.25 * tau, 1e12],
                        np.random.default_rng(0).uniform(-1.0, 20.0, 200)])
    counts = ensemble.transition_count(t.reshape(5, -1), tau)
    assert counts.shape == (5, 41)
    # the scalar rule as written before it took arrays
    assert counts.ravel().tolist() == [max(0, int(math.floor(x / tau - 0.25)) + 1)
                                       for x in t.tolist()]
    # a time whose count is no int64 raises instead of wrapping to a bogus count
    for bad in (math.inf, math.nan, 1e30):
        with pytest.raises(FloatingPointError):
            ensemble.transition_count(np.array([0.0, bad]), tau)
        with pytest.raises(FloatingPointError):
            p1_staircase(PI_CYCLE, tau, bad)


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


def _per_row_entropy(rho):
    """su2.von_neumann_entropy as it was written before the stacked check."""
    lam = np.linalg.eigvalsh(rho)
    s = 0.0
    for x in lam:
        if x > 0.0:
            s -= x * np.log(x)
    return float(s)


def _per_row_trace(cfg, explicit_order=False):
    """ensemble_average as it was written before the densities were stacked:
    one density, one validation and one entropy per time. Its coherence
    product a0 * np.conj(a1) runs as conj(a1) * a0 once NumPy elides the
    temporary (n_t * n_systems >= 16384); explicit_order always runs it so."""
    h = cfg.tau_cycle / ensemble.GRID_PER_CYCLE
    n_t = int(math.floor(cfg.t_max / h + 1e-9)) + 1
    times = np.arange(n_t) * h
    j = np.arange(1, cfg.n_systems + 1)
    elapsed = times[:, None] - j[None, :] * cfg.dt_mismatch
    counts = np.maximum(np.floor(elapsed / cfg.tau_cycle - 0.25).astype(int) + 1, 0)
    first_counts = np.maximum(np.floor(times / cfg.tau_cycle - 0.25).astype(int) + 1, 0)
    u = cycle_unitary(cfg.cycle)
    n_max = int(max(counts.max(), first_counts.max()))
    amp0 = np.empty(n_max + 1, dtype=complex)
    amp1 = np.empty(n_max + 1, dtype=complex)
    state = np.array([1.0, 0.0], dtype=complex)
    for m in range(n_max + 1):
        amp0[m], amp1[m] = state
        state = u @ state
    a0, a1 = amp0[counts], amp1[counts]
    rho00 = np.mean(np.abs(a0) ** 2, axis=1)
    rho11 = np.mean(np.abs(a1) ** 2, axis=1)
    rho01 = np.mean(np.multiply(np.conj(a1), a0) if explicit_order else a0 * np.conj(a1),
                    axis=1)
    p_ens = np.empty(n_t)
    entropy = np.empty(n_t)
    for i in range(n_t):
        rho = np.array([[rho00[i], rho01[i]], [np.conj(rho01[i]), rho11[i]]], dtype=complex)
        p_ens[i] = rho[1, 1].real
        entropy[i] = _per_row_entropy(rho)
    return times, p_ens, entropy, np.abs(amp1[first_counts]) ** 2


@pytest.mark.parametrize("cfg", [
    EnsembleConfig(),  # the committed config
    EnsembleConfig(cycle=CycleParams(theta=math.pi / 3, phi=0.7)),
    EnsembleConfig(n_systems=1),
    EnsembleConfig(n_systems=13, dt_mismatch=0.07, tau_cycle=0.81, t_max=21.0,
                   cycle=CycleParams(theta=2.4, phi=1.0, omega_az=0.3)),
])
def test_stacked_trace_equals_per_row_code(cfg):
    tr = ensemble_average(cfg)
    for new, old in zip((tr.times, tr.p_ens, tr.entropy, tr.p_first), _per_row_trace(cfg)):
        assert new.tobytes() == old.tobytes()


def test_explicit_product_order_fixes_the_bits_of_small_configs():
    # 362 x 5 member values: below the size at which NumPy elides the temporary
    cfg = EnsembleConfig(n_systems=5, t_max=3.0, cycle=CycleParams(theta=1.0, phi=0.7))
    tr = ensemble_average(cfg)
    ref = _per_row_trace(cfg, explicit_order=True)
    for new, old in zip((tr.times, tr.p_ens, tr.entropy, tr.p_first), ref):
        assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("cfg", [
    EnsembleConfig(cycle=CycleParams(theta=math.pi / 3, phi=0.7)),
    EnsembleConfig(n_systems=13, dt_mismatch=0.07, tau_cycle=0.81, t_max=21.0,
                   cycle=CycleParams(theta=2.4, phi=1.0, omega_az=0.3)),
])
def test_time_blocks_do_not_change_a_bit(cfg, monkeypatch):
    n_t = len(ensemble_average(cfg).times)
    traces = []
    for rows in (1, 7, n_t + 3):
        monkeypatch.setattr(ensemble, "_BLOCK_VALUES", rows * (cfg.n_systems + 1))
        tr = ensemble_average(cfg)
        traces.append([a.tobytes() for a in (tr.times, tr.p_ens, tr.entropy, tr.p_first)])
    assert traces[0] == traces[1] == traces[2]


def test_working_memory_does_not_grow_with_members():
    cfg = EnsembleConfig(n_systems=600)  # 1446 x 600 member values, 53 MiB if held at once
    tracemalloc.start()
    try:
        ensemble_average(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_invalid_density_names_its_time(monkeypatch):
    # a non-unitary cycle map: the trace leaves 1 once a member has cycled
    monkeypatch.setattr(ensemble, "cycle_unitary", lambda c: 2.0 * np.eye(2, dtype=complex))
    cfg = EnsembleConfig()
    with pytest.raises(su2.InvalidDensityMatrix) as info:
        ensemble_average(cfg)
    i = info.value.index
    h = cfg.tau_cycle / ensemble.GRID_PER_CYCLE
    t = float(np.arange(i + 1)[i] * h)
    # the first grid time at which the earliest member has passed a drive maximum
    assert t - h < cfg.dt_mismatch + 0.25 * cfg.tau_cycle <= t
    assert str(info.value) == (f"ensemble density at time index {i} (t = {t!r}): "
                               "trace differs from 1 beyond tolerance")
