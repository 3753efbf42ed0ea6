"""Exact 2x2 complex linear algebra for two-level dynamics.

States are length-2 complex ndarrays, operators are (2, 2) complex ndarrays,
and Bloch vectors are length-3 real ndarrays with H = d . sigma. Everything
here is allocation-light and pure; no scipy. Both grid kernels keep N SU(2)
matrices as one (2, 2, N) stack (from_column) and advance a (2, N) stack of
states with an applier that stack_applier binds to the stack once per loop.

Density matrices are checked as stacks: density_spectra runs the invariant
tests over an (n, 2, 2) stack, one test at a time, with one eigvalsh call,
and spectral_entropy turns the same eigenvalues into von Neumann entropies.
validate_density and von_neumann_entropy are their one-matrix case.
"""

from __future__ import annotations

import numpy as np

DEGENERACY_TOL = 1e-9
DENSITY_TOL = 1e-12

PAULI = {
    1: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    2: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    3: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

IDENTITY2 = np.eye(2, dtype=complex)


class DegenerateSpectrum(Exception):
    """Eigenvalue splitting below the degeneracy tolerance."""


class InvalidDensityMatrix(Exception):
    """Input violates the density-matrix invariants beyond tolerance; `index`
    is the first failing matrix of a stack (0 for a single matrix)."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = int(index)


def bloch_matrix(d: np.ndarray) -> np.ndarray:
    """Assemble H = d1*sigma1 + d2*sigma2 + d3*sigma3 for d of shape (..., 3)."""
    d = np.asarray(d, dtype=float)
    d1, d2, d3 = d[..., 0], d[..., 1], d[..., 2]
    h = np.empty(d.shape[:-1] + (2, 2), dtype=complex)
    h[..., 0, 0] = d3
    h[..., 0, 1] = d1 - 1.0j * d2
    h[..., 1, 0] = d1 + 1.0j * d2
    h[..., 1, 1] = -d3
    return h


def bloch_norm(d: np.ndarray) -> np.ndarray:
    """|d| over the last axis; hypot(d2, d3) bit for bit when d1 = 0."""
    return np.hypot(np.hypot(d[..., 0], d[..., 1]), d[..., 2])


def gap_closed(d: np.ndarray) -> np.ndarray:
    """Where the gap 2|d| of d . sigma, d of shape (..., 3), is below
    DEGENERACY_TOL: the one closed-gap rule of every route. |d| is compared
    with DEGENERACY_TOL / 2, the same test bit for bit (doubling and halving
    are exact), so a finite |d| beyond 2^1023 does not overflow."""
    return bloch_norm(d) < DEGENERACY_TOL / 2.0


def fix_phase(va, vb):
    """Each vector (va[i], vb[i]) with its larger component (va on a tie) made
    real positive; the modulus is hypot, as Python's abs of a complex is.
    Scalars take the array loops' bits, as NumPy's scalar multiply rounds
    differently."""
    va, vb = np.asarray(va), np.asarray(vb)
    big = np.where(np.abs(va) >= np.abs(vb), va, vb)
    phase = np.hypot(big.real, big.imag) / big
    return va * phase, vb * phase


def eigensystem2(h: np.ndarray):
    """Eigendecomposition of a 2x2 Hermitian matrix.

    Returns (e0, e1, n0, n1) with e0 <= e1 and each eigenvector's global
    phase fixed by fix_phase.

    Raises DegenerateSpectrum where gap_closed holds for the Bloch vector of h.
    """
    with np.errstate(over="ignore"):  # |d3| > 2^1023 overflows 2 d3: an open gap
        d = np.array([h[0, 1].real, -h[0, 1].imag, (h[0, 0] - h[1, 1]).real / 2.0])
    if gap_closed(d):
        raise DegenerateSpectrum(f"gap {2.0 * bloch_norm(d):.3e} below tolerance "
                                 f"{DEGENERACY_TOL:.0e}")
    w, v = np.linalg.eigh(h)
    e0, e1 = float(w[0]), float(w[1])
    n0, n1 = np.array(fix_phase(v[0], v[1])).T.copy()
    return e0, e1, n0, n1


def planar_band_state(d2: np.ndarray, d3: np.ndarray, lower: bool):
    """Components (va, vb) of the lower or upper band state of
    d2*sigma2 + d3*sigma3, for arrays d2 and d3, phase-fixed by fix_phase.

    Closed form: for eigenvalue sign e = -1 or +1, E = e*|d| and the
    (unnormalized) vector is (d3 + E, i*d2), or (0, 1) where it vanishes
    (d2 = 0, d3 = -E): where |d3 + E| + |d2| < 1e-14.

    A field beyond 1 is scaled below 1 by a power of two, and the 1e-14 with
    it; the vector is then scaled to a largest component in [1/2, 1). So at
    any finite field neither d3 + E (past 2^1023) nor |d3 + E|^2 (past about
    1.3e154) overflows, and the squares of a scaled-down vector do not
    underflow to a zero norm. The powers are applied with frexp and ldexp on
    the values, as a factor such as 2^1030 would itself overflow; neither
    scaling changes a bit where no scaled value is subnormal.
    """
    d2, d3 = np.asarray(d2, dtype=float), np.asarray(d3, dtype=float)
    e = np.maximum(np.frexp(np.maximum(np.abs(d2), np.abs(d3)))[1], 0)
    d2, d3 = np.ldexp(d2, -e), np.ldexp(d3, -e)
    nd = np.hypot(d2, d3)
    va = d3 + (-nd if lower else nd)
    tiny = np.abs(va) + np.abs(d2) < np.ldexp(1e-14, -e)
    e = np.frexp(np.maximum(np.abs(va), np.abs(d2)))[1]
    va = np.where(tiny, 0.0, np.ldexp(va, -e))
    vb = np.where(tiny, 1.0, 1.0j * np.ldexp(d2, -e))
    norm = np.sqrt(np.abs(va) ** 2 + np.abs(vb) ** 2)
    return fix_phase(va / norm, vb / norm)


def exact_step(d: np.ndarray, dt: float) -> np.ndarray:
    """Closed-form unitary exp(-i (d . sigma) dt).

    Uses cos(r) I - i dt sinc(r) (d . sigma) with r = |d| dt, so the |d| -> 0
    limit is the identity with no special casing.
    """
    d = np.asarray(d, dtype=float)
    r = float(bloch_norm(d)) * dt
    # np.sinc is sin(pi x)/(pi x)
    kappa = dt * np.sinc(r / np.pi)
    h = bloch_matrix(d)
    return np.cos(r) * IDENTITY2 - 1.0j * kappa * h


def from_column(a, b, out=None) -> np.ndarray:
    """The (2, 2, N) matrices [[a, -conj(b)], [b, conj(a)]] with first column
    (a, b) (for scalars, the (2, 2) matrix), written into `out` if given."""
    m = np.empty((2, 2) + np.shape(a), complex) if out is None else out
    m[0, 0], m[0, 1], m[1, 0], m[1, 1] = a, -np.conj(b), b, np.conj(a)
    return m


def stack_applier(mat: np.ndarray, prod: np.ndarray):
    """apply(vec, out): out = mat @ vec for each column of a (2, 2, N) matrix
    stack and a (2, N) state stack, as (m00*v0 + m01*v1, m10*v0 + m11*v1),
    through the (2, 2, N) scratch buffer prod; out may be vec.

    The row views of mat and prod are taken once, here, so a loop that
    applies one stack many times builds none per call; apply reads mat when
    called, so it sees writes made into mat in place after binding.

    One multiply per row, not one broadcast multiply: NumPy copies a
    broadcast operand into a temporary buffer when the whole operation fits
    in its 8192-element buffer, which a 2048-point stack does.
    """
    m0, m1, p0, p1, pa, pb = mat[0], mat[1], prod[0], prod[1], prod[:, 0], prod[:, 1]
    multiply, add = np.multiply, np.add

    def apply(vec: np.ndarray, out: np.ndarray) -> np.ndarray:
        # each ufunc's third argument is its output: positional, as the
        # keyword costs about 0.1-0.3 us a call (2-vCPU Xeon)
        multiply(m0, vec, p0)
        multiply(m1, vec, p1)
        return add(pa, pb, out)

    return apply


def density_spectra(rho: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, shaped (n, 2), of an (n, 2, 2) stack of density
    matrices, each checked against the density-matrix invariants.

    The tests run in a fixed order over the whole stack: finite entries,
    Hermitian, unit trace, no eigenvalue below -DENSITY_TOL. The first test
    that any matrix fails raises InvalidDensityMatrix, whose message is the
    reason and whose `index` is the first matrix that fails it. One
    eigvalsh call covers the stack; each matrix's eigenvalues are bit for
    bit those of its own call.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 3 or rho.shape[1:] != (2, 2):
        raise InvalidDensityMatrix(f"shape {rho.shape} is not (n, 2, 2)")

    def check(ok, reason, values=None):
        bad = np.flatnonzero(~ok)
        if bad.size:
            i = bad[0]
            raise InvalidDensityMatrix(reason if values is None else reason.format(values[i]), i)

    check(np.isfinite(rho).all(axis=(1, 2)), "non-finite entries")
    asym = np.abs(rho - rho.conj().swapaxes(1, 2)).max(axis=(1, 2))
    check(asym <= DENSITY_TOL, "not Hermitian within tolerance")
    trace = np.trace(rho, axis1=1, axis2=2).real
    check(np.abs(trace - 1.0) <= DENSITY_TOL, "trace differs from 1 beyond tolerance")
    lam = np.linalg.eigvalsh(rho)
    check(lam[:, 0] >= -DENSITY_TOL, "negative eigenvalue {:.3e}", lam[:, 0])
    return lam


def spectral_entropy(lam: np.ndarray) -> np.ndarray:
    """-sum lam ln lam over the last axis, with 0 ln 0 = 0: each row is
    0.0 - lam0 ln lam0 - lam1 ln lam1, a term left out where lam <= 0."""
    lam = np.asarray(lam, dtype=float)
    terms = np.zeros_like(lam)
    pos = lam > 0.0
    np.log(lam, out=terms, where=pos)
    np.multiply(lam, terms, out=terms, where=pos)
    return 0.0 - terms[..., 0] - terms[..., 1]


def _one_density(rho):
    """rho as a complex (2, 2) array and its eigenvalues: the one-matrix
    case of density_spectra."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise InvalidDensityMatrix(f"shape {rho.shape} is not (2, 2)")
    return rho, density_spectra(rho[None])[0]


def validate_density(rho: np.ndarray) -> np.ndarray:
    return _one_density(rho)[0]


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S = -tr(rho ln rho) with 0 ln 0 = 0; lies in [0, ln 2] for one qubit."""
    return float(spectral_entropy(_one_density(rho)[1]))


def pure_density(psi: np.ndarray) -> np.ndarray:
    """Projector |psi><psi| of a normalized state."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def unitarity_defect(u: np.ndarray):
    """max |(U^H U - I)_{ij}| per matrix of a (..., 2, 2) stack."""
    return np.max(np.abs(np.conj(u).swapaxes(-1, -2) @ u - IDENTITY2), axis=(-2, -1))
