"""The Kepler system: H = p^2/2 - gamma/|q| on R^6.

Conserved set: the momentum vector M = p x q, the Lenz vector
A = p x M + gamma q/|q|, and the energy H.  The map (p, q) -> (M, A, H),
evaluated by ``kepler_observables``, projects phase space onto a
five-dimensional Poisson manifold.

Sign constants.  With the chart convention {p_i, q_j} = +delta_ij the
bracket relations come out as

    {M_i, M_j} = eps_ijk M_k,   {M_i, A_j} = eps_ijk A_k,
    {A_i, A_j} = LENZ_LENZ_SIGN * 2 H eps_ijk M_k,

and direct expansion gives the quadratic relation

    (A, A) = gamma^2 + QUADRATIC_RELATION_SIGN * 2 (M, M) H.

Both constants are frozen here, their one record; the test suite derives
both relations symbolically and checks the brackets numerically.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import SingularChartPoint
from .integrate import (
    FLAG_COLLISION,
    Trajectory,
    adaptive,
    monitor,
    rk4,
)
from .poisson import Observable, chart_canonical

QUADRATIC_RELATION_SIGN = +1
LENZ_LENZ_SIGN = -1


@dataclass(frozen=True)
class KeplerState:
    """Phase-space point (p, q) with coupling gamma > 0 and |q| not below the
    collision radius."""

    p: np.ndarray
    q: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float).reshape(3))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float).reshape(3))
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if _radius(self.q) < TOL.collision_radius:
            raise SingularChartPoint("state at the collision locus |q| = 0")

    def as_point(self) -> np.ndarray:
        return np.concatenate([self.p, self.q]).astype(complex)


def _radius(q):
    return np.sqrt(np.vecdot(q, q))       # bit for bit np.linalg.norm of each row


def hamiltonian(p, q, gamma: float):
    """H at one state, or at states stacked along leading axes of p and q."""
    r = _radius(q)
    if np.any(r < TOL.collision_radius):
        raise SingularChartPoint("collision: |q| below threshold")
    return 0.5 * np.vecdot(p, p) - gamma / r


def _cross(a, b):
    """a x b over the last axis, with the products and differences np.cross
    forms (so bit for bit equal to it), without its axis handling."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _lenz(p, q, gamma):
    return _cross(p, _cross(p, q)) + gamma * q / _radius(q)[..., None]


def kepler_observables(gamma: float):
    """Observables M1..M3, A1..A3, H on the canonical chart of (p, q), exact gradients."""

    def split(z):
        return np.real(z[..., :3]), np.real(z[..., 3:])

    obs = []
    for k in range(3):
        def m_fn(z, k=k):
            return _cross(*split(z))[..., k]

        def m_grad(z, e=np.eye(3)[k]):
            # M_k = eps_kab p_a q_b: d/dp = q x e_k, d/dq = e_k x p
            p, q = split(z)
            return np.concatenate([_cross(q, e), _cross(e, p)]).astype(complex)

        obs.append(Observable(name=f"M{k + 1}", fn=m_fn, grad=m_grad))

    for k in range(3):
        def a_fn(z, k=k):
            return _lenz(*split(z), gamma)[..., k]

        def a_grad(z, k=k, e=np.eye(3)[k]):
            # A = p (p.q) - q |p|^2 + gamma q / |q|
            p, q = split(z)
            r = _radius(q)
            g_p = e * (p @ q) + p[k] * q - 2.0 * p * q[k]
            g_q = p[k] * p - e * (p @ p) + gamma * (e / r - q[k] * q / r ** 3)
            return np.concatenate([g_p, g_q]).astype(complex)

        obs.append(Observable(name=f"A{k + 1}", fn=a_fn, grad=a_grad))

    def h_fn(z):
        return hamiltonian(*split(z), gamma)

    def h_grad(z):
        # (p, gamma q / |q|^3), rounded as the array division does.  For
        # 1e-100 < |q| < 1e100 the cube c is normal and finite, so a Python
        # float's ** and / round as numpy's do; any other |q| takes c as a
        # numpy scalar, which gives inf or nan where a float's ** or / raises
        x = z.real
        q = x[3:]
        r = math.sqrt(q.dot(q))         # q.dot(q): bit for bit np.vecdot(q, q)
        c = r ** 3 if 1e-100 < r < 1e100 else np.float64(r) ** 3
        p0, p1, p2, q0, q1, q2 = x.tolist()
        return np.array([p0, p1, p2, gamma * q0 / c, gamma * q1 / c, gamma * q2 / c],
                        dtype=complex)

    obs.append(Observable(name="H", fn=h_fn, grad=h_grad))
    return obs


def _collision_guard(z) -> str:
    q = z.real[3:]
    if math.sqrt(q.dot(q)) < TOL.collision_radius:
        return FLAG_COLLISION
    return None


def orbit_conservation_report(state0: KeplerState, t_max: float, tol: float):
    """Integrate the orbit adaptively and report drifts of M, A, H.

    The flags are the trajectory's: ``collision`` for an accepted state with
    |q| below ``TOL.collision_radius``, where integration stops.  A fall into
    the origin stops before that with ``tolerance-failure``, its step
    underflowing at |q| of 4e-9 to 2e-8 for every tol a scenario admits.
    """
    return monitor(integrate_orbit(state0, t_max, tol), kepler_observables(state0.gamma))


def integrate_orbit(state0: KeplerState, t_max: float, tol: float) -> Trajectory:
    H = kepler_observables(state0.gamma)[-1]
    return adaptive(chart_canonical(3), H, state0.as_point(), t_max, tol,
                    guard=_collision_guard)


def radial_period(state0: KeplerState, t_max: float, dt: float = None) -> float:
    """Radial period detected from sign changes of p.q along a fine rk4 orbit.

    Uses successive downward-to-upward crossings of the apsis function
    p.q = d(|q|^2)/dt / 2, refined by linear interpolation on a dense grid.
    Only meaningful for bound orbits.
    """
    E = hamiltonian(state0.p, state0.q, state0.gamma)
    if E >= 0:
        raise ValueError("radial period needs a bound orbit (E < 0)")
    T_est = 2.0 * np.pi * state0.gamma / (2.0 * abs(E)) ** 1.5
    if dt is None:
        dt = T_est / 4000.0
    H = kepler_observables(state0.gamma)[-1]
    traj = rk4(chart_canonical(3), H, state0.as_point(), min(t_max, 2.5 * T_est), dt,
               guard=_collision_guard)
    ts = traj.times
    pq = np.real(np.einsum("ij,ij->i", traj.states[:, :3], traj.states[:, 3:]))
    i = np.flatnonzero((pq[:-1] < 0.0) & (0.0 <= pq[1:])) + 1
    frac = -pq[i - 1] / (pq[i] - pq[i - 1])
    crossings = ts[i - 1] + frac * (ts[i] - ts[i - 1])
    if len(crossings) < 2:
        raise RuntimeError("fewer than two perihelion passages detected")
    return crossings[1] - crossings[0]
