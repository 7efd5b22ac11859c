"""Time integration of Hamiltonian vector fields on charts, with drift
monitoring of declared conserved sets."""

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .config import TOL
from .poisson import Observable, PoissonChart, ham_vector_field

__all__ = ["Trajectory", "ConservationReport", "rk4", "adaptive", "monitor"]

FLAG_NONFINITE = "nonfinite-state"
FLAG_TOLERANCE = "tolerance-failure"
FLAG_COLLISION = "collision"
FLAG_DIVISOR = "factorization-divisor"
FLAG_BUDGET = "step-budget-failure"


@dataclass
class Trajectory:
    times: np.ndarray            # (m,)
    states: np.ndarray           # (m, dim)
    accepted_steps: int
    rejected_steps: int
    flags: tuple

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class ConservationReport:
    """Per-trajectory record of conserved-quantity drift.

    ``values[s, o]`` is observable ``o`` at stored state ``s``, evaluated
    once; callers that tabulate or plot the observables read it rather than
    evaluating them again.  ``max_rel_drift`` scales each drift by
    max(1, |initial value|).  Flags are inherited from the trajectory
    (collision, factorization-divisor, tolerance-failure) plus any added by
    the caller.
    """

    names: tuple
    values: np.ndarray           # (states, observables)
    initial: np.ndarray
    max_abs_drift: np.ndarray
    max_rel_drift: np.ndarray
    accepted_steps: int
    rejected_steps: int
    flags: tuple

    def drift(self, name: str) -> float:
        return float(self.max_abs_drift[self.names.index(name)])


def _field(chart: PoissonChart, H: Observable):
    def f(z):
        return ham_vector_field(chart, H, z)
    return f


def rk4(chart: PoissonChart, H: Observable, x0, t_max: float, dt: float,
        guard: Optional[Callable[[np.ndarray], Optional[str]]] = None) -> Trajectory:
    """Classical fourth-order steps of the Hamiltonian field of H.

    The trajectory is sampled every step.  A ``guard`` may inspect each state
    and return a flag string to abort integration.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    z = np.asarray(x0, dtype=complex).ravel()
    f = _field(chart, H)
    nsteps = max(1, int(round(t_max / dt)))
    times = [0.0]
    states = [z.copy()]
    flags = []
    t = 0.0
    for _ in range(nsteps):
        h = min(dt, t_max - t)
        if h <= 0:
            break
        k1 = f(z)
        k2 = f(z + 0.5 * h * k1)
        k3 = f(z + 0.5 * h * k2)
        k4 = f(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        if not np.all(np.isfinite(z)):
            flags.append(FLAG_NONFINITE)
            break
        times.append(t)
        states.append(z.copy())
        if guard is not None:
            flag = guard(z)
            if flag:
                flags.append(flag)
                break
    return Trajectory(np.array(times), np.array(states),
                      accepted_steps=len(times) - 1, rejected_steps=0,
                      flags=tuple(flags))


# Dormand-Prince 5(4) pair
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def adaptive(chart: PoissonChart, H: Observable, x0, t_max: float, tol: float,
             max_steps: int = 1_000_000,
             guard: Optional[Callable[[np.ndarray], Optional[str]]] = None) -> Trajectory:
    """Dormand-Prince 5(4) with embedded error control at local error <= tol;
    flags ``step-budget-failure`` when ``max_steps`` run out before ``t_max``."""
    if not (1e-13 <= tol <= 1e-6):
        raise ValueError("tol must lie in [1e-13, 1e-6]")
    z = np.asarray(x0, dtype=complex).ravel()
    f = _field(chart, H)
    t = 0.0
    h = min(0.01 * max(t_max, 1e-8), t_max) or t_max
    times = [0.0]
    states = [z.copy()]
    flags = []
    accepted = rejected = 0
    k = [None] * 7
    while t < t_max and accepted + rejected < max_steps:
        h = min(h, t_max - t)
        if h < TOL.step_underflow:
            flags.append(FLAG_TOLERANCE)
            break
        k[0] = f(z)
        for i in range(1, 7):
            zi = z + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
            k[i] = f(zi)
        z5 = z + h * sum(b * k[i] for i, b in enumerate(_DP_B5) if b != 0.0)
        z4 = z + h * sum(b * k[i] for i, b in enumerate(_DP_B4) if b != 0.0)
        if not (np.all(np.isfinite(z5)) and np.all(np.isfinite(z4))):
            flags.append(FLAG_NONFINITE)
            break
        scale = tol * np.maximum(1.0, np.maximum(np.abs(z), np.abs(z5)))
        err = np.sqrt(np.mean(np.abs((z5 - z4) / scale) ** 2))
        if err <= 1.0:
            t += h
            z = z5
            accepted += 1
            times.append(t)
            states.append(z.copy())
            if guard is not None:
                flag = guard(z)
                if flag:
                    flags.append(flag)
                    break
        else:
            rejected += 1
        factor = 0.9 * (1.0 / err) ** 0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    if t < t_max and not flags:
        flags.append(FLAG_BUDGET)
    return Trajectory(np.array(times), np.array(states),
                      accepted_steps=accepted, rejected_steps=rejected,
                      flags=tuple(flags))


def monitor(trajectory: Trajectory,
            observables: Sequence[Observable]) -> ConservationReport:
    """Evaluate each observable once, on the stacked ``(states, dim)`` array
    of the whole trajectory, and report drifts.  An observable returns one
    value per state, shape ``(states,)``, or a 0-d constant, which is
    broadcast; any other shape raises ``ValueError`` naming it.
    """
    names = tuple(o.name for o in observables)
    if len(set(names)) != len(names):
        raise ValueError("observable names must be unique")
    m = len(trajectory.states)
    values = np.empty((m, len(observables)), dtype=complex)
    for j, o in enumerate(observables):
        column = np.asarray(o(trajectory.states))
        if column.shape not in ((), (m,)):
            raise ValueError(f"observable {o.name!r} gave shape {column.shape} on {m} states")
        values[:, j] = column
    initial = values[0]
    drift = np.abs(values - initial[None, :])
    max_abs = drift.max(axis=0)
    max_rel = max_abs / np.maximum(1.0, np.abs(initial))
    return ConservationReport(
        names=names,
        values=values,
        initial=initial,
        max_abs_drift=max_abs,
        max_rel_drift=max_rel,
        accepted_steps=trajectory.accepted_steps,
        rejected_steps=trajectory.rejected_steps,
        flags=trajectory.flags,
    )
