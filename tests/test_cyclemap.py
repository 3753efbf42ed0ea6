"""Per-cycle map: closed form, literal series, orbit geometry.

The first three per-cycle probabilities have short closed forms obtained by
expanding U^m by hand:
    q1 = sin^2(t/2)
    q2 = 4 sin^2(t/2) cos^2(t/2) cos^2(f)
    q3 = sin^2(t/2) (4 cos^2(t/2) cos^2(f) - 1)^2
with t the cone angle and f the half-cycle phase. These were derived
independently of the implementation and are frozen here as oracles; the
general cycle obeys q_m = sin^2(a) sin^2(m*eta/2) with cos(eta/2) =
cos(t/2) cos(f) and a the orbit-axis polar angle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geopump import cyclemap, su2
from geopump.cyclemap import CycleParams, IdentityCycle, OrbitAxis, SegmentPhases

angles = st.floats(0.05, math.pi - 0.05)
phases = st.floats(-3.0, 3.0)


def raw_from_running(p_n):
    """Invert running means back to per-cycle values."""
    j = np.arange(1, len(p_n) + 1)
    tot = j * p_n
    return np.diff(np.concatenate([[0.0], tot]))


def test_cycle_params_validation():
    with pytest.raises(ValueError):
        CycleParams(theta=-0.1, phi=0.0)
    with pytest.raises(ValueError):
        CycleParams(theta=3.2, phi=0.0)


@settings(max_examples=80, deadline=None)
@given(angles, phases, phases)
def test_cycle_unitary_is_unitary_with_unit_det(theta, phi, omega_az):
    u = cyclemap.cycle_unitary(CycleParams(theta=theta, phi=phi, omega_az=omega_az))
    assert su2.unitarity_defect(u) <= 1e-14
    assert abs(np.linalg.det(u) - 1.0) < 1e-14


@settings(max_examples=80, deadline=None)
@given(angles, phases, phases, st.floats(-2, 2), st.floats(-2, 2))
def test_segment_product_matches_direct_construction(theta, phi, omega_az, s1, s2):
    c = CycleParams(theta=theta, phi=phi, omega_az=omega_az)
    seg = SegmentPhases(phi1=s1, phi2=s2, phi_c=phi - s1 - s2)
    u_direct = cyclemap.cycle_unitary(c)
    u_seg = cyclemap.cycle_unitary_from_segments(c, seg)
    assert np.max(np.abs(u_direct - u_seg)) < 1e-12


def test_segment_sum_mismatch_raises():
    c = CycleParams(theta=1.0, phi=0.5)
    with pytest.raises(ValueError):
        cyclemap.cycle_unitary_from_segments(c, SegmentPhases(0.1, 0.1, 0.1))


def test_rotation_is_su2():
    r = cyclemap.rotation(0.7, -1.2, 2.1)
    assert su2.unitarity_defect(r) <= 1e-14
    assert abs(np.linalg.det(r) - 1.0) < 1e-14
    assert np.allclose(cyclemap.rotation(0.7, -1.2, 0.0), np.eye(2))


@settings(max_examples=60, deadline=None)
@given(angles, st.floats(0.1, math.pi - 0.1))
def test_first_three_cycles_match_hand_expansion(theta, phi):
    p_n = cyclemap.p_series(CycleParams(theta=theta, phi=phi), 3)
    q = raw_from_running(p_n)
    st2 = math.sin(theta / 2) ** 2
    ct2 = math.cos(theta / 2) ** 2
    c2f = math.cos(phi) ** 2
    assert abs(q[0] - st2) < 1e-12
    assert abs(q[1] - 4 * st2 * ct2 * c2f) < 1e-12
    assert abs(q[2] - st2 * (4 * ct2 * c2f - 1) ** 2) < 1e-12


@settings(max_examples=40, deadline=None)
@given(angles, st.floats(0.1, math.pi - 0.1))
def test_per_cycle_values_follow_orbit_law(theta, phi):
    c = CycleParams(theta=theta, phi=phi)
    q = raw_from_running(cyclemap.p_series(c, 40))
    axis = cyclemap.orbit_axis(c)
    eta = cyclemap.orbit_turn_angle(c)
    m = np.arange(1, 41)
    law = math.sin(axis.alpha) ** 2 * np.sin(m * eta / 2.0) ** 2
    assert np.max(np.abs(q - law)) < 1e-10


def test_dichotomy_is_exact():
    rng = np.random.default_rng(11)
    for phi in rng.uniform(-math.pi, math.pi, 100):
        assert cyclemap.p_g_closed(CycleParams(theta=math.pi, phi=phi)) == 0.5
        assert cyclemap.p_g_closed(CycleParams(theta=0.0, phi=phi)) == 0.0


def test_p_g_closed_indeterminate_corner_is_zero():
    # theta = 0 and phi = 0 gives 0/0 in the closed form; no pumping occurs
    assert cyclemap.p_g_closed(CycleParams(theta=0.0, phi=0.0)) == 0.0


def test_series_converges_to_closed_form():
    c = CycleParams(theta=1.3, phi=0.7)
    p_n = cyclemap.p_series(c, 20000)
    assert abs(p_n[-1] - cyclemap.p_g_closed(c)) < 1e-3


def test_series_mean_grid_matches_scalar_series():
    thetas = np.array([0.3, 1.0, 2.5])
    phis = np.array([0.2, 1.4, 2.9])
    grid = cyclemap.p_series_mean_grid(thetas, phis, 500)
    for i in range(3):
        scalar = cyclemap.p_series(CycleParams(theta=thetas[i], phi=phis[i]), 500)
        assert abs(grid[i] - scalar[-1]) < 1e-12


def _two_vector_reference(theta, phi, n, omega_az):
    """The grid series as it was before it ran on stacked buffers: two state
    components updated with new arrays every cycle."""
    ct, st = np.cos(theta / 2.0), np.sin(theta / 2.0)
    ep = np.exp(1.0j * phi)
    eo = np.exp(1.0j * (omega_az - phi))
    u00, u01 = ct * np.conj(ep), -st * np.conj(eo)
    u10, u11 = st * eo, ct * ep
    v0 = np.ones_like(u00)
    v1 = np.zeros_like(u00)
    acc = np.zeros(theta.shape)
    for _ in range(n):
        v0, v1 = u00 * v0 + u01 * v1, u10 * v0 + u11 * v1
        acc += np.abs(v1) ** 2
    return acc / n


@pytest.mark.parametrize("points", [1, 7, 2049])
@pytest.mark.parametrize("omega_az", [0.0])  # the grid series' azimuth
def test_series_mean_grid_equals_two_vector_loop(points, omega_az):
    rng = np.random.default_rng(points)
    theta = rng.uniform(0.0, math.pi, points)
    phi = rng.uniform(-3.5, 3.5, points)
    for n in (1, 2, 17, 200):
        assert np.array_equal(cyclemap.p_series_mean_grid(theta, phi, n),
                              _two_vector_reference(theta, phi, n, omega_az))


@pytest.mark.parametrize("omega_az", [0.83, -2.0])
def test_series_does_not_depend_on_the_azimuth(omega_az):
    # U(w) = D U(0) D^dagger with D = diag(1, e^{iw}), so |<1|U^n|0>|^2 keeps
    # its value: the grid series runs at w = 0 for every azimuth
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.0, math.pi, 50)
    phi = rng.uniform(-3.5, 3.5, 50)
    grid = cyclemap.p_series_mean_grid(theta, phi, 500)
    for i in range(50):
        scalar = cyclemap.p_series(CycleParams(theta[i], phi[i], omega_az), 500)
        assert abs(scalar[-1] - grid[i]) < 1e-12


def test_series_mean_grid_buffers_start_on_a_page(monkeypatch):
    # their page offsets, left to the allocator, moved the loop by up to 30 %
    buffers = []
    paged = cyclemap._paged
    monkeypatch.setattr(cyclemap, "_paged", lambda *a: buffers.append(paged(*a)) or buffers[-1])
    cyclemap.p_series_mean_grid(np.linspace(0.1, 3.0, 2500), np.full(2500, 0.5), 3)
    assert [b.ctypes.data % 4096 for b in buffers] == [0] * 5


def test_series_mean_grid_rejects_zero_cycles():
    with pytest.raises(ValueError, match="n must be >= 1"):
        cyclemap.p_series(CycleParams(theta=1.0, phi=0.5), 0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        cyclemap.p_series_mean_grid(np.array([1.0]), np.array([0.5]), 0)


def test_orbit_axis_identity_cycle_raises():
    with pytest.raises(IdentityCycle):
        cyclemap.orbit_axis(CycleParams(theta=0.0, phi=0.0))
    with pytest.raises(IdentityCycle):
        cyclemap.orbit_axis(CycleParams(theta=0.0, phi=math.pi))


def test_orbit_axis_beta_range_and_value():
    axis = cyclemap.orbit_axis(CycleParams(theta=2.0, phi=0.9, omega_az=0.4))
    assert 0.0 <= axis.beta < math.pi
    assert abs(axis.beta - ((0.9 - 0.4 - math.pi / 2) % math.pi)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(angles, st.floats(0.1, math.pi - 0.1))
def test_closed_form_equals_half_axis_projection(theta, phi):
    c = CycleParams(theta=theta, phi=phi)
    axis = cyclemap.orbit_axis(c)
    assert abs(cyclemap.p_g_closed(c) - 0.5 * math.sin(axis.alpha) ** 2) < 1e-12


def test_orbit_quadrature_is_exact_for_any_resolution():
    axis = OrbitAxis(alpha=0.8, beta=0.3)
    assert abs(cyclemap.p_infinity_orbit(axis) - 0.5 * math.sin(0.8) ** 2) < 1e-14


def test_theta_from_tpt():
    assert cyclemap.theta_from_tpt(1) == math.pi
    assert cyclemap.theta_from_tpt(0) == 0.0
    with pytest.raises(ValueError):
        cyclemap.theta_from_tpt(2)


def test_p_series_running_mean_shape_and_range():
    p_n = cyclemap.p_series(CycleParams(theta=2.2, phi=1.1), 50)
    assert p_n.shape == (50,)
    assert np.all(p_n >= 0) and np.all(p_n <= 1)
