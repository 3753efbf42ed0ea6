"""Both propagator routes against what theory fixes independently of them.

First-order (Fermi golden rule) theory gives the one-cycle excitation at weak
drive and its coherent growth over many cycles, and the drive's mirror
symmetry fixes the phase of the half-cycle product's off-diagonal entry.
Neither check reads a value either route wrote.
"""

import math

import numpy as np
import pytest

from geopump import bandmodel, propagator
from geopump.bandmodel import DriveParams
from geopump.propagator import TrotterConfig
from geopump.units import DEFAULT_OMEGA

# (k, eps0): far from resonance (delta / omega from 22 down to 8) and the
# transition point (0.02, -0.95), where delta / omega is 2.2
POINTS = [(0.3, -0.5), (0.3, -0.95), (0.1, -0.8), (0.02, -0.8), (0.02, -0.95)]


def fgr_p1(k, eps0, a_ph, omega=DEFAULT_OMEGA):
    """First-order p_1 from the ground state of H(0), delta = 2|d(0)|:

    a_ph^2 (d2/|d|)^2 4 sin^2(pi delta/omega) omega^2 / (delta^2 - omega^2)^2,

    spelled through sin(pi delta/omega) = -sin(pi x) with x = (delta - omega)
    / omega, so that np.sinc gives its limit pi^2 a_ph^2 (d2/|d|)^2 / omega^2
    at delta = omega."""
    d2 = math.sin(k)
    norm = math.hypot(d2, eps0 + math.cos(k))
    delta = 2.0 * norm
    amplitude = a_ph * d2 / norm * 2.0 * math.pi * np.sinc((delta - omega) / omega)
    return float(amplitude / (delta + omega)) ** 2


def one_cycle_p1(k, eps0, a_ph):
    """Both routes' p_1 at 4000 exact steps, scalar first."""
    cfg = TrotterConfig(steps_per_cycle=4000, n_cycles=1)
    scalar = propagator.evolve(DriveParams(eps0=eps0, a_ph=a_ph, k=k), cfg).p_j[0]
    grid = propagator.p_g_numeric_grid(np.array([k]), eps0, a_ph, DEFAULT_OMEGA, cfg)[0]
    return scalar, grid


def test_fgr_formula_is_the_literal_one_and_takes_its_limit_at_resonance():
    w = DEFAULT_OMEGA
    for k, eps0 in POINTS:
        norm = math.hypot(math.sin(k), eps0 + math.cos(k))
        delta = 2.0 * norm
        literal = ((0.01 * math.sin(k) / norm) ** 2 * 4.0 * math.sin(math.pi * delta / w) ** 2
                   * w ** 2 / (delta ** 2 - w ** 2) ** 2)
        assert fgr_p1(k, eps0, 0.01) == pytest.approx(literal, rel=1e-12)
    # delta = omega where |d(0)| = omega / 2
    k = 0.01
    eps0 = -math.cos(k) - math.sqrt((w / 2.0) ** 2 - math.sin(k) ** 2)
    limit = (math.pi * 0.01 * math.sin(k) / (w / 2.0) / w) ** 2
    assert fgr_p1(k, eps0, 0.01) == pytest.approx(limit, rel=1e-12)
    assert fgr_p1(k, eps0 * (1.0 + 1e-9), 0.01) == pytest.approx(limit, rel=1e-6)


@pytest.mark.parametrize("k, eps0", POINTS)
def test_both_routes_reach_first_order_theory_at_weak_drive(k, eps0):
    errors = {}
    for a_ph in (1e-2, 1e-3, 1e-4):
        theory = fgr_p1(k, eps0, a_ph)
        errors[a_ph] = [abs(p / theory - 1.0) for p in one_cycle_p1(k, eps0, a_ph)]
    for route in (0, 1):
        # the second-order term falls as O(a_ph) down to the step rule's floor;
        # measured ratios 19-97, and a largest floor of 4.6e-4
        assert errors[1e-3][route] < errors[1e-2][route] / 10.0
        assert errors[1e-4][route] <= 1e-3


def fgr_running_means(k, eps0, a_ph, n, omega=DEFAULT_OMEGA):
    """First-order running means p_1 ... p_n: the one-cycle amplitudes add
    coherently, p_m = p_1 sin^2(m delta tau / 2) / sin^2(delta tau / 2), with
    delta = 2|d(0)| and tau = 2 pi / omega."""
    half = math.hypot(math.sin(k), eps0 + math.cos(k)) * 2.0 * math.pi / omega
    m = np.arange(1, n + 1)
    p_m = fgr_p1(k, eps0, a_ph, omega) * (np.sin(m * half) / math.sin(half)) ** 2
    return np.cumsum(p_m) / m


@pytest.mark.parametrize("k, eps0", POINTS)
def test_both_routes_reach_first_order_theory_over_many_cycles(k, eps0):
    # the error is the largest gap between the running means over 100 cycles,
    # relative to the theory's largest running mean; measured 2.7e-5 to 4.5e-4
    # for evolve's p_n and 2.1e-5 to 3.3e-4 for the grid's 100-cycle mean
    cfg = TrotterConfig(steps_per_cycle=4000, n_cycles=100)
    theory = fgr_running_means(k, eps0, 1e-4, 100)
    scale = np.max(theory)
    scalar = propagator.evolve(DriveParams(eps0=eps0, a_ph=1e-4, k=k), cfg).p_n
    assert np.max(np.abs(scalar - theory)) / scale <= 1e-3
    grid = propagator.p_g_numeric_grid(np.array([k]), eps0, 1e-4, DEFAULT_OMEGA, cfg)[0]
    assert abs(grid - theory[-1]) / scale <= 1e-3


def test_first_order_theory_fails_at_the_transition_point():
    # the paper's 0/0 regime at the committed drive: 0.482 against 0.0366
    theory = fgr_p1(0.02, -0.95, 0.1)
    for p1 in one_cycle_p1(0.02, -0.95, 0.1):
        assert p1 > 10.0 * theory


def half_cycle_b(offset, steps, mode):
    """The off-diagonal entry b of the prefix product over `offset` of a cycle,
    at every point of POINTS with a_ph = 0.1: the grid route's, then the
    scalar route's."""
    cfg = TrotterConfig(steps_per_cycle=steps, mode=mode, n_cycles=1, measure_offset=offset)
    k, eps0 = np.array(POINTS).T
    d2 = np.sin(k)
    c3 = bandmodel.bloch_d3(eps0, 0.1, np.cos(k), 0.0)
    dt, extra = propagator._step_grid(bandmodel.drive_period(DEFAULT_OMEGA), cfg)
    _, q = propagator._grid_columns(d2, c3, 0.1, DEFAULT_OMEGA, dt, extra, cfg)
    scalar = [propagator._cycle_unitaries(DriveParams(eps0=e, a_ph=0.1, k=x), [cfg])[1]
              for x, e in POINTS]
    return q[1], np.array(scalar)[:, 0, 1, 0]


@pytest.mark.parametrize("mode", ["exact", "taylor"])
@pytest.mark.parametrize("steps", [1002, 2000, 20000])
def test_half_cycle_product_is_mirror_symmetric(steps, mode):
    # d3(t) is symmetric about T/4, and every step is ca I - i kappa (d2 sigma2 +
    # d3 sigma3) with real ca and kappa, so M = sigma3 M^T sigma3 for the
    # palindromic half-cycle product: its b equals conj(b). Measured: 4.4e-15.
    for b in half_cycle_b(0.5, steps, mode):
        assert np.max(np.abs(b.imag)) <= 1e-14
    # the quarter-cycle product is no palindrome (0.01-0.16)
    for b in half_cycle_b(0.25, steps, mode):
        assert np.min(np.abs(b.imag)) > 1e-3
