"""Two-level primitives: eigensystem, exact step, entropy."""

import math
import warnings

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


def _fix_phase_reference(va, vb):
    """Element by element: the first component a of largest modulus, and the
    phase abs(a) / a with Python's abs; the product is one array multiply."""
    phase = []
    for v in zip(va, vb):
        a = v[int(np.argmax(np.abs(v)))]
        phase.append(abs(a) / a)
    return va * np.array(phase), vb * np.array(phase)


def test_fix_phase_equals_the_per_element_rule():
    rng = np.random.default_rng(11)
    va = rng.normal(size=200) + 1j * rng.normal(size=200)
    vb = rng.normal(size=200) + 1j * rng.normal(size=200)
    edge_a = np.array([1.0, 1.0j, 0.0, 0.5 - 0.5j, -2.0, -1.0, 3.0j, -1.0 + 0.0j])
    edge_b = np.array([1.0j, 1.0, 1.0 - 1.0j, 0.0, 1.0, -1.0, -3.0, -0.5])
    va, vb = np.concatenate([edge_a, va]), np.concatenate([edge_b, vb])
    got = np.array(su2.fix_phase(va, vb))
    assert got.tobytes() == np.array(_fix_phase_reference(va, vb)).tobytes()
    # ties keep va real positive; a zero component leaves the other one
    np.testing.assert_allclose(got[:, :8], [
        [1.0, 1.0, 0.0, 1 / math.sqrt(2), 2.0, 1.0, 3.0, 1.0],
        [1.0j, -1.0j, math.sqrt(2), 0.0, -1.0, 1.0, 3.0j, 0.5]], rtol=0, atol=1e-15)


def test_fix_phase_of_numpy_scalars_equals_the_batched_call():
    # NumPy's scalar complex multiply rounds differently from its array loop
    rng = np.random.default_rng(23)
    a = rng.normal(size=(10000, 2, 2)) + 1j * rng.normal(size=(10000, 2, 2))
    v = np.linalg.eigh(a + np.conj(a).swapaxes(-1, -2))[1][..., 0]
    batched = np.array(su2.fix_phase(v[:, 0], v[:, 1])).T
    scalars = np.array([su2.fix_phase(va, vb) for va, vb in v])
    assert scalars.tobytes() == batched.tobytes()


def test_eigensystem2_decides_and_names_a_closed_gap_by_2_abs_d():
    # a trace of 1e6 leaves eigh's e1 - e0 a multiple of about 1.2e-10; with
    # d3 = 0 the Bloch vector is read back from h exactly
    d = np.array([2.4e-10, 3.2e-10, 0.0])  # 2|d| = 8.0e-10
    with pytest.raises(su2.DegenerateSpectrum,
                       match=r"^gap 8\.000e-10 below tolerance 1e-09$"):
        su2.eigensystem2(1e6 * su2.IDENTITY2 + su2.bloch_matrix(d))
    su2.eigensystem2(1e6 * su2.IDENTITY2 + su2.bloch_matrix(1.5 * d))  # 2|d| = 1.2e-9


def test_eigensystem2_vectors_are_fix_phase_of_eigh_columns():
    rng = np.random.default_rng(5)
    for _ in range(50):
        h = random_hermitian(rng)
        _, _, v0, v1 = su2.eigensystem2(h)
        fixed = np.array(su2.fix_phase(*np.linalg.eigh(h)[1]))
        assert v0.tobytes() == fixed[:, 0].tobytes()
        assert v1.tobytes() == fixed[:, 1].tobytes()


def test_bloch_norm_with_d1_zero_is_the_grid_routes_hypot():
    rng = np.random.default_rng(2)
    for scale in (1.0, 1e-8, 1e8):
        d2, d3 = scale * rng.normal(size=(2, 3, 500))
        d = np.stack([np.zeros_like(d2), d2, d3], axis=-1)
        assert su2.bloch_norm(d).tobytes() == np.hypot(d2, d3).tobytes()


def test_bloch_norm_is_within_0_6_ulp_of_exact():
    mpmath = pytest.importorskip("mpmath")
    # the model's Bloch vectors (0, sin k, d3), half of them scaled over 1e+-8
    rng = np.random.default_rng(17)
    k, eps0, drive = rng.uniform([-np.pi, -1.5, -0.4], [np.pi, -0.5, 0.4], size=(2000, 3)).T
    d = np.stack([np.zeros(2000), np.sin(k), -(eps0 + drive + np.cos(k))], axis=-1)
    d[1000:] *= 10.0 ** rng.uniform(-8, 8, size=(1000, 1))
    got = su2.bloch_norm(d)
    worst = 0.0
    with mpmath.workprec(200):
        for v, r in zip(d, got):
            exact = mpmath.sqrt(sum(mpmath.mpf(float(x)) ** 2 for x in v))
            err = abs(mpmath.mpf(float(r)) - exact) / np.spacing(float(exact))
            worst = max(worst, float(err))
    assert worst <= 0.6


@settings(max_examples=60, deadline=None)
@given(finite_d, st.floats(1e-4, 0.5))
def test_exact_step_unitary_and_det(dvals, dt):
    u = su2.exact_step(np.array(dvals), dt)
    assert su2.unitarity_defect(u) < 1e-14
    assert abs(np.linalg.det(u) - 1.0) < 1e-13  # traceless generator


def test_unitarity_defect_of_a_stack_is_each_matrix_own():
    rng = np.random.default_rng(7)
    u = rng.normal(size=(3, 4, 2, 2)) + 1j * rng.normal(size=(3, 4, 2, 2))
    u[0, 1] = su2.exact_step(np.array([0.3, -0.2, 0.9]), 0.4)
    u[1, 2, 0, 1] = math.nan
    u[2, 3, 1, 0] = math.inf
    with np.errstate(invalid="ignore"):  # inf * 0 in U^H U
        defects = su2.unitarity_defect(u)
        own = [su2.unitarity_defect(m) for m in u.reshape(-1, 2, 2)]
    assert defects.shape == (3, 4)
    assert all(isinstance(d, float) for d in own)
    assert defects.tobytes() == np.array(own).tobytes()
    assert math.isnan(defects[1, 2]) and math.isnan(defects[2, 3])
    assert defects[0, 1] < 1e-14


def test_stack_applier_reads_its_stack_when_called_and_may_write_over_its_state():
    rng = np.random.default_rng(11)
    n = 7
    mat = rng.normal(size=(2, 2, n)) + 1j * rng.normal(size=(2, 2, n))
    vec = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    apply = su2.stack_applier(mat, np.empty_like(mat))
    for _ in range(2):
        # bound before these writes, which land in mat in place
        mat[...] = rng.normal(size=mat.shape) + 1j * rng.normal(size=mat.shape)
        (m00, m01), (m10, m11) = mat
        v0, v1 = vec
        ref = np.array([m00 * v0 + m01 * v1, m10 * v0 + m11 * v1])
        out = np.empty_like(vec)
        assert apply(vec, out) is out
        assert out.tobytes() == ref.tobytes()
        assert apply(vec, vec) is vec
        assert vec.tobytes() == ref.tobytes()


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


def _planar_band_state_unscaled(d2, d3, lower):
    """planar_band_state before it scaled the field and the vector."""
    nd = np.hypot(d2, d3)
    e = -nd if lower else nd
    va = d3 + e
    vb = 1.0j * d2
    tiny = np.abs(va) + np.abs(vb) < 1e-14
    va = np.where(tiny, 0.0, va)
    vb = np.where(tiny, 1.0, vb)
    norm = np.sqrt(np.abs(va) ** 2 + np.abs(vb) ** 2)
    return su2.fix_phase(va / norm, vb / norm)


@pytest.mark.parametrize("lower", [True, False])
def test_planar_band_state_is_finite_at_any_field_and_the_unscaled_formula_where_that_is(lower):
    # signed fields over the whole double range, subnormals and zeros included
    rng = np.random.default_rng(3)
    n = 200_000
    d2, d3 = (rng.choice([-1.0, 1.0], n) * np.ldexp(rng.uniform(1.0, 2.0, n),
                                                      rng.integers(-1075, 1024, n))
              for _ in range(2))
    d2[:100] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        va, vb = su2.planar_band_state(d2, d3, lower)
    parts = np.stack([va.real, va.imag, vb.real, vb.imag])
    assert np.isfinite(parts).all()
    assert np.max(np.abs(np.abs(va) ** 2 + np.abs(vb) ** 2 - 1.0)) <= 4 * np.finfo(float).eps

    with np.errstate(all="ignore"):
        ref = np.stack([f(x) for x in _planar_band_state_unscaled(d2, d3, lower)
                        for f in (np.real, np.imag)])
        ratio = np.minimum(np.abs(d2), np.abs(d3)) / np.hypot(d2, d3)
    finite = np.isfinite(ref).all(axis=0)
    # bit for bit unless a scaled value is subnormal: there the two roundings
    # of a subnormal component, or 1 / |d2| against |d2| / |d2|, move an ulp or two
    wide = finite & (ratio >= 1e-307)
    assert wide.sum() > n // 2
    assert parts[:, wide].tobytes() == ref[:, wide].tobytes()
    narrow = finite & ~wide
    assert np.all(np.abs(parts[:, narrow] - ref[:, narrow])
                  <= 2 * np.spacing(np.abs(ref[:, narrow])))
