"""Exact 2x2 complex linear algebra for two-level dynamics.

States are length-2 complex ndarrays, operators are (2, 2) complex ndarrays,
and Bloch vectors are length-3 real ndarrays with H = d . sigma. Everything
here is allocation-light and pure; no scipy.

Density matrices are checked as stacks: density_spectra runs the invariant
tests over an (n, 2, 2) stack, one test at a time, with one eigvalsh call,
and spectral_entropy turns the same eigenvalues into von Neumann entropies.
validate_density and von_neumann_entropy are their one-matrix case.
"""

from __future__ import annotations

import numpy as np

DEGENERACY_TOL = 1e-9
UNITARITY_TOL = 1e-10
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


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude component is real positive."""
    i = int(np.argmax(np.abs(v)))
    a = v[i]
    if abs(a) == 0.0:
        return v
    return v * (abs(a) / a)


def eigensystem2(h: np.ndarray):
    """Eigendecomposition of a 2x2 Hermitian matrix.

    Returns (e0, e1, n0, n1) with e0 <= e1 and the eigenvector global phase
    fixed by making the largest-magnitude component real positive.

    Raises DegenerateSpectrum when e1 - e0 < DEGENERACY_TOL.
    """
    w, v = np.linalg.eigh(h)
    e0, e1 = float(w[0]), float(w[1])
    if e1 - e0 < DEGENERACY_TOL:
        raise DegenerateSpectrum(f"gap {e1 - e0:.3e} below tolerance {DEGENERACY_TOL:.0e}")
    return e0, e1, _fix_phase(v[:, 0].copy()), _fix_phase(v[:, 1].copy())


def exact_step(d: np.ndarray, dt: float) -> np.ndarray:
    """Closed-form unitary exp(-i (d . sigma) dt).

    Uses cos(r) I - i dt sinc(r) (d . sigma) with r = |d| dt, so the |d| -> 0
    limit is the identity with no special casing.
    """
    d = np.asarray(d, dtype=float)
    norm = float(np.sqrt(d @ d))
    r = norm * dt
    # np.sinc is sin(pi x)/(pi x)
    kappa = dt * np.sinc(r / np.pi)
    h = bloch_matrix(d)
    return np.cos(r) * IDENTITY2 - 1.0j * kappa * h


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


def unitarity_defect(u: np.ndarray) -> float:
    """max |(U^H U - I)_{ij}|"""
    return float(np.max(np.abs(u.conj().T @ u - IDENTITY2)))
