"""Analytic SU(2) cycle map and its long-run pumping statistics.

One drive cycle acts on the two-level state as a fixed unitary built from a
turning angle theta (how far the field direction swings between the two
straight sections), a total dynamic phase phi, and the azimuth omega_az of
the field plane. Repeated cycles trace a circular orbit on the Bloch sphere;
averaging the excited-state projection over that orbit gives the closed-form
long-run pumping probability, which the iterated per-cycle series must
reproduce. Both routes are implemented independently on purpose.
p_series_mean_grid iterates the series for a whole (theta, phi) grid in one
call, with the cycle unitaries stacked in one (2, 2, N) array and the state
in one (2, N) array, updated in place every cycle; its working set is about
180 bytes per point, so it needs no blocking. cycle_unitary is the one-point
case of the same stacked formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bandmodel import checked_winding_change

IDENTITY_TOL = 1e-12


class IdentityCycle(Exception):
    """The cycle map is the identity up to phase; the orbit axis is undefined."""


@dataclass(frozen=True)
class CycleParams:
    """theta in [0, pi]; phi and omega_az unrestricted (radians)."""

    theta: float
    phi: float
    omega_az: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")


@dataclass(frozen=True)
class SegmentPhases:
    """Dynamic phases of the two straight sections and the arc.

    The arc phase equals the diagonal correction's angle (its two entries
    share one real angle), and the three parts must sum to the total phase
    of the owning CycleParams.
    """

    phi1: float
    phi2: float
    phi_c: float
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", self.phi1 + self.phi2 + self.phi_c)


@dataclass(frozen=True)
class OrbitAxis:
    alpha: float
    beta: float


def rotation(alpha: float, beta: float, delta: float) -> np.ndarray:
    """SU(2) rotation by delta about the axis with polar angle alpha, azimuth beta."""
    c, s = np.cos(delta / 2.0), np.sin(delta / 2.0)
    return np.array([
        [c - 1.0j * s * np.cos(alpha), -1.0j * s * np.sin(alpha) * np.exp(-1.0j * beta)],
        [-1.0j * s * np.sin(alpha) * np.exp(1.0j * beta), c + 1.0j * s * np.cos(alpha)],
    ])


def cycle_unitary(c: CycleParams) -> np.ndarray:
    """One-cycle evolution operator in the band eigenbasis."""
    return _cycle_unitaries(c.theta, c.phi, c.omega_az)


def cycle_unitary_from_segments(c: CycleParams, seg: SegmentPhases) -> np.ndarray:
    """Segment-product construction: turning rotation times three diagonal phases.

    Must agree with cycle_unitary to 1e-12 whenever seg.total == c.phi; the
    turning rotation has its axis in the field plane's normal direction,
    which sits at polar angle pi/2 and azimuth omega_az + pi/2.
    """
    if abs(seg.total - c.phi) > 1e-9:
        raise ValueError(f"segment phases sum to {seg.total}, expected {c.phi}")
    turn = rotation(np.pi / 2.0, c.omega_az + np.pi / 2.0, c.theta)
    u2 = np.diag([np.exp(-1.0j * seg.phi2), np.exp(1.0j * seg.phi2)])
    lam = np.diag([np.exp(-1.0j * seg.phi_c), np.exp(1.0j * seg.phi_c)])
    u1 = np.diag([np.exp(-1.0j * seg.phi1), np.exp(1.0j * seg.phi1)])
    return turn @ u2 @ lam @ u1


def checked_cycles(n: int) -> int:
    """n, the length of a per-cycle series; a ValueError unless n >= 1."""
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n


def p_series(c: CycleParams, n: int) -> np.ndarray:
    """Running means of the per-cycle excited-state probabilities.

    Element j-1 is (1/j) * sum_{m<=j} |<1| U^m |0>|^2, computed by literal
    repeated application of the cycle unitary (the iterative route; the
    closed form lives in p_g_closed and must not be used here).
    """
    checked_cycles(n)
    u = cycle_unitary(c)
    v0, v1 = 1.0 + 0.0j, 0.0j
    out = np.empty(n)
    acc = 0.0
    for j in range(n):
        v0, v1 = u[0, 0] * v0 + u[0, 1] * v1, u[1, 0] * v0 + u[1, 1] * v1
        acc += abs(v1) ** 2
        out[j] = acc / (j + 1)
    return out


def p_series_mean_grid(theta: np.ndarray, phi: np.ndarray, n: int) -> np.ndarray:
    """Final running mean of the per-cycle series for whole parameter grids.

    Same literal iteration as p_series, batched over flattened (theta, phi)
    arrays at omega_az = 0, a gauge phase that leaves every |<1|U^n|0>|^2 as
    it is; returns the n-cycle running mean per grid point. Each cycle is two
    (2, N) multiplies and one add on buffers allocated once per call, and
    |v1|^2 is added to the sum in cycle order. (A single broadcast multiply
    would make NumPy copy v into a temporary buffer on grids of up to 2048
    points.)
    """
    checked_cycles(n)
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    u = _cycle_unitaries(theta, phi, 0.0, _paged((2, 2, theta.size)))
    v = _paged((2, theta.size))
    v[0], v[1] = 1.0, 0.0
    prod = _paged(u.shape)
    p = _paged(theta.shape, float)
    acc = _paged(theta.shape, float)
    acc.fill(0.0)
    for _ in range(n):
        np.multiply(u[0], v, out=prod[0])  # prod[i, j] = u[i, j] * v[j]
        np.multiply(u[1], v, out=prod[1])
        np.add(prod[:, 0], prod[:, 1], out=v)
        acc += np.square(np.abs(v[1], out=p), out=p)
    return acc / n


def _paged(shape, dtype=complex) -> np.ndarray:
    """An empty array that starts a 4 KiB page: at some page offsets, which
    vary with what ran before, the series loop's loads alias its stores."""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    raw = np.empty(size + 4096, np.uint8)
    start = -raw.ctypes.data % 4096
    return raw[start:start + size].view(dtype).reshape(shape)


def _cycle_unitaries(theta, phi, omega_az: float, out=None) -> np.ndarray:
    """cycle_unitary for flat parameter arrays, as a (2, 2, N) array (for
    scalars, the (2, 2) matrix), written into `out` if given."""
    ct, st = np.cos(theta / 2.0), np.sin(theta / 2.0)
    ep = np.exp(1.0j * phi)
    eo = np.exp(1.0j * (omega_az - phi))
    u = np.empty((2, 2) + np.shape(ct), complex) if out is None else out
    u[0, 0], u[0, 1], u[1, 0], u[1, 1] = ct * np.conj(ep), -st * np.conj(eo), st * eo, ct * ep
    return u


def p_g_closed(c: CycleParams) -> float:
    """Long-run pumping probability in closed form; lies in [0, 1/2].

    The (theta, cos^2 phi) = (0, 1) point is a removable 0/0 and returns 0.
    """
    st2 = np.sin(c.theta / 2.0) ** 2
    den = 1.0 - (np.cos(c.theta / 2.0) * np.cos(c.phi)) ** 2
    if den < IDENTITY_TOL:
        return 0.0
    return float(0.5 * st2 / den)


def orbit_axis(c: CycleParams) -> OrbitAxis:
    """Axis of the circular orbit traced by repeated cycles.

    alpha from cos^2(alpha) = cos^2(theta/2) sin^2(phi) / denominator;
    beta = phi - omega_az - pi/2, canonicalized to [0, pi) since axis and
    anti-axis define the same orbit.

    Raises IdentityCycle when the cycle is the identity up to phase.
    """
    den = 1.0 - (np.cos(c.theta / 2.0) * np.cos(c.phi)) ** 2
    if den < IDENTITY_TOL:
        raise IdentityCycle("cycle map is diag(e^{-i phi}, e^{i phi}); no orbit")
    cos2a = (np.cos(c.theta / 2.0) * np.sin(c.phi)) ** 2 / den
    cos2a = min(1.0, max(0.0, float(cos2a)))
    alpha = float(np.arccos(np.sqrt(cos2a)))
    beta = float(np.mod(c.phi - c.omega_az - np.pi / 2.0, np.pi))
    return OrbitAxis(alpha=alpha, beta=beta)


def orbit_turn_angle(c: CycleParams) -> float:
    """Rotation angle of the cycle map about the orbit axis, in [0, 2*pi).

    cos(eta/2) = cos(theta/2) cos(phi) up to sign; returned in [0, 2*pi) by
    taking eta = 2*arccos of the clamped value.
    """
    x = float(np.clip(np.cos(c.theta / 2.0) * np.cos(c.phi), -1.0, 1.0))
    return 2.0 * float(np.arccos(x))


def p_infinity_orbit(axis: OrbitAxis) -> float:
    """Uniform orbit average of the excited-state projection.

    The projection as a function of the orbit angle eta is
    sin^2(zeta/2) = sin^2(alpha) sin^2(eta/2); integrated with a uniform
    trapezoid rule over one turn (spectrally exact for this integrand).
    """
    eta = np.arange(1024) * (2.0 * np.pi / 1024)
    integrand = (np.sin(axis.alpha) * np.sin(eta / 2.0)) ** 2
    return float(integrand.mean())


def theta_from_tpt(delta_nu: int) -> float:
    """pi when the cycle crosses a topological transition, else 0."""
    return np.pi if checked_winding_change(delta_nu) == 1 else 0.0
