"""Two-level primitives: eigensystem, exact step, entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geopump import su2


def random_hermitian(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return a + a.conj().T


finite_d = st.tuples(
    st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
)


def test_pauli_algebra():
    for i in (1, 2, 3):
        s = su2.PAULI[i]
        assert np.allclose(s @ s, np.eye(2))
        assert np.allclose(s.conj().T, s)
    assert np.allclose(su2.PAULI[1] @ su2.PAULI[2], 1j * su2.PAULI[3])


def test_bloch_matrix_reconstruction():
    d = np.array([0.3, -1.2, 0.7])
    h = su2.bloch_matrix(d)
    assert np.allclose(h, sum(d[i] * su2.PAULI[i + 1] for i in range(3)))


def test_eigensystem2_orders_and_reconstructs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        h = random_hermitian(rng)
        try:
            e0, e1, v0, v1 = su2.eigensystem2(h)
        except su2.DegenerateSpectrum:
            continue
        assert e0 < e1
        assert abs(v0 @ v0.conj() - 1) < 1e-12
        assert abs(v1 @ v1.conj() - 1) < 1e-12
        assert abs(v0 @ v1.conj()) < 1e-12
        rebuilt = e0 * np.outer(v0, v0.conj()) + e1 * np.outer(v1, v1.conj())
        assert np.allclose(rebuilt, h, atol=1e-12)


def test_eigensystem2_phase_convention():
    # largest-magnitude component is real and positive
    rng = np.random.default_rng(3)
    for _ in range(50):
        h = random_hermitian(rng)
        try:
            _, _, v0, v1 = su2.eigensystem2(h)
        except su2.DegenerateSpectrum:
            continue
        for v in (v0, v1):
            big = v[np.argmax(np.abs(v))]
            assert abs(big.imag) < 1e-12
            assert big.real > 0


def test_eigensystem2_degenerate_raises():
    with pytest.raises(su2.DegenerateSpectrum):
        su2.eigensystem2(np.zeros((2, 2), dtype=complex))
    with pytest.raises(su2.DegenerateSpectrum):
        su2.eigensystem2(2.5 * np.eye(2, dtype=complex))


@settings(max_examples=60, deadline=None)
@given(finite_d, st.floats(1e-4, 0.5))
def test_exact_step_unitary_and_det(dvals, dt):
    u = su2.exact_step(np.array(dvals), dt)
    assert su2.unitarity_defect(u) < 1e-14
    assert abs(np.linalg.det(u) - 1.0) < 1e-13  # traceless generator


def test_exact_step_zero_field_is_identity():
    u = su2.exact_step(np.zeros(3), 0.37)
    assert np.allclose(u, np.eye(2), atol=1e-16)


def test_exact_step_composes_for_fixed_field():
    d = np.array([0.4, 0.1, -0.9])
    u1 = su2.exact_step(d, 0.2)
    u2 = su2.exact_step(d, 0.5)
    u12 = su2.exact_step(d, 0.7)
    assert np.allclose(u1 @ u2, u12, atol=1e-14)


def test_exact_step_matches_series_for_tiny_step():
    d = np.array([0.2, -0.3, 0.5])
    h = su2.bloch_matrix(d)
    dt = 1e-4
    series = (np.eye(2) - 1j * dt * h - 0.5 * dt**2 * (h @ h)
              + (1j / 6) * dt**3 * (h @ h @ h))
    assert np.allclose(su2.exact_step(d, dt), series, atol=1e-15)


def test_validate_density_rejects():
    with pytest.raises(su2.InvalidDensityMatrix):
        su2.validate_density(np.array([[0.6, 0.1], [0.3, 0.4]]))  # not hermitian
    with pytest.raises(su2.InvalidDensityMatrix):
        su2.validate_density(np.array([[0.9, 0.0], [0.0, 0.9]]))  # trace 1.8
    with pytest.raises(su2.InvalidDensityMatrix):
        su2.validate_density(np.array([[1.4, 0.0], [0.0, -0.4]]))  # negative weight


def test_entropy_known_values():
    assert su2.von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0
    assert abs(su2.von_neumann_entropy(0.5 * np.eye(2)) - math.log(2)) < 1e-14
    psi = np.array([1.0, 1.0j]) / math.sqrt(2)
    assert su2.von_neumann_entropy(su2.pure_density(psi)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
def test_entropy_concave_on_diagonal_mixtures(p1, p2, lam):
    rho1 = np.diag([p1, 1 - p1]).astype(complex)
    rho2 = np.diag([p2, 1 - p2]).astype(complex)
    mix = lam * rho1 + (1 - lam) * rho2
    s_mix = su2.von_neumann_entropy(mix)
    s_avg = lam * su2.von_neumann_entropy(rho1) + (1 - lam) * su2.von_neumann_entropy(rho2)
    assert s_mix >= s_avg - 1e-12
    assert -1e-12 <= s_mix <= math.log(2) + 1e-12


def test_entropy_exceeds_member_average_for_pure_mixture():
    # dephasing: average of two pure projectors is mixed
    a = su2.pure_density(np.array([1.0, 0.0]))
    b = su2.pure_density(np.array([0.0, 1.0]))
    s = su2.von_neumann_entropy(0.5 * a + 0.5 * b)
    assert abs(s - math.log(2)) < 1e-14


def test_density_spectra_names_the_first_matrix_that_fails_the_first_failing_test():
    good = 0.5 * np.eye(2, dtype=complex)
    asym = np.array([[0.6, 0.1], [0.3, 0.4]], dtype=complex)
    heavy = np.array([[0.9, 0.0], [0.0, 0.9]], dtype=complex)
    negative = np.array([[1.4, 0.0], [0.0, -0.4]], dtype=complex)
    nan = np.full((2, 2), np.nan, dtype=complex)
    # each test runs over the whole stack before the next one: the trace of
    # matrix 1 is off, but the asymmetric matrix 3 fails the earlier test
    cases = [([good, heavy, good, asym], 3, "not Hermitian within tolerance"),
             ([good, negative, heavy], 2, "trace differs from 1 beyond tolerance"),
             ([good, good, negative], 2, "negative eigenvalue -4.000e-01"),
             ([negative, asym, nan], 2, "non-finite entries")]
    for stack, index, message in cases:
        with pytest.raises(su2.InvalidDensityMatrix) as info:
            su2.density_spectra(np.array(stack))
        assert (info.value.index, str(info.value)) == (index, message)
    with pytest.raises(su2.InvalidDensityMatrix, match=r"is not \(n, 2, 2\)"):
        su2.density_spectra(good)


def test_scalar_checks_are_the_one_matrix_stack():
    rng = np.random.default_rng(5)
    for _ in range(200):
        psi = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        w = rng.uniform()
        rho = w * su2.pure_density(psi[0]) + (1.0 - w) * su2.pure_density(psi[1])
        rho = 0.5 * (rho + rho.conj().T)
        lam = np.linalg.eigvalsh(rho)  # the entropy as written per matrix
        s = 0.0
        for x in lam:
            if x > 0.0:
                s -= x * np.log(x)
        assert np.float64(su2.von_neumann_entropy(rho)).tobytes() == np.float64(s).tobytes()
        stacked = su2.spectral_entropy(su2.density_spectra(np.array([rho, rho])))
        assert stacked.tobytes() == np.array([s, s]).tobytes()
    assert su2.validate_density(np.diag([0.25, 0.75])).dtype == complex
    with pytest.raises(su2.InvalidDensityMatrix, match=r"shape \(3, 3\) is not \(2, 2\)"):
        su2.validate_density(np.eye(3) / 3)
