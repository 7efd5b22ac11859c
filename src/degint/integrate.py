"""Time integration of Hamiltonian vector fields on charts, with drift
monitoring of declared conserved sets."""

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .config import TOL
from .poisson import Observable, PoissonChart, ham_vector_field

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
    field_evaluations: int = 0   # Hamiltonian field evaluations, all stages

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class ConservationReport:
    """Per-trajectory record of conserved-quantity drift, in the order of
    the observables ``monitor`` was given.

    ``values[s, o]`` is observable ``o`` at stored state ``s``, evaluated
    once; callers that tabulate or plot the observables read it rather than
    evaluating them again.  ``max_rel_drift`` scales each drift by
    max(1, |initial value|).
    """

    values: np.ndarray           # (states, observables)
    max_abs_drift: np.ndarray
    max_rel_drift: np.ndarray


# Butcher tableau of an explicit Runge-Kutta method; ``b_low`` holds the
# embedded lower-order weights of an error-controlled pair
_Tableau = namedtuple("_Tableau", "A b b_low", defaults=(None,))

_RK4 = _Tableau(A=np.diag([0.5, 0.5, 1.0], -1), b=np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6]))

# Dormand-Prince 5(4); the seventh stage is evaluated on every attempted
# step, not reused as the next step's first (no FSAL)
_DP = _Tableau(
    A=np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
        [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
    ]),
    b=np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]),
    b_low=np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                    -92097 / 339200, 187 / 2100, 1 / 40]),
)


# The most steps, accepted or rejected, an ``adaptive`` run may attempt
_ATTEMPT_BUDGET = 1_000_000


# a non-finite step ends the run, so overflow, 0/0 and x/0 pass silently
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _run(chart: PoissonChart, H: Observable, x0, t_max: float, tableau: _Tableau,
         h: float, max_steps: int, tol: Optional[float],
         guard: Optional[Callable[[np.ndarray], Optional[str]]]) -> Trajectory:
    """Runge-Kutta steps of the Hamiltonian field of H from x0.  Without
    ``tol``: ``max_steps`` steps of ``h``, the last clipped to end on
    ``t_max``.  With ``tol``: at most ``max_steps`` attempts, each accepted
    when the embedded error estimate is within ``tol``, with ``h`` adapted
    after every attempt.  ``guard`` sees each accepted state and may return
    a flag that stops the run."""
    z = np.asarray(x0, dtype=complex).ravel()
    # complex coefficients spare every stage product a cast from float
    b = tableau.b.astype(complex)
    err_row = None if tol is None else b - tableau.b_low
    K = np.empty((len(b), z.size), dtype=complex)
    # each later stage's row and the views K[:i] of the stages before it
    stages = [(row[:i].astype(complex), K[:i]) for i, row in enumerate(tableau.A)][1:]
    abs_z = None if tol is None else np.abs(z)
    zeros = np.zeros(2 * z.size)
    t, times, states, flags = 0.0, [0.0], [z], []
    accepted = rejected = evaluations = 0
    while accepted + rejected < max_steps:
        if tol is None:
            if accepted == max_steps - 1:
                h = t_max - t
        elif t >= t_max:
            break
        else:
            # a step below the floor underflows, unless no more than the floor is left
            if h < TOL.step_underflow < t_max - t:
                flags.append(FLAG_TOLERANCE)
                break
            h = min(h, t_max - t)
        # h as a 0-d complex array multiplies as the float does, converted to
        # complex, with less dispatch; ndarray.dot: the same products as @,
        # without its ufunc dispatch
        hc = np.array(h, dtype=complex)
        K[0] = ham_vector_field(chart, H, z)
        for i, (row, head) in enumerate(stages, 1):
            K[i] = ham_vector_field(chart, H, z + hc * row.dot(head))
        evaluations += len(b)
        z_next = z + hc * b.dot(K)
        # 0 * x is nan for x = nan or +-inf and +-0 otherwise, so this dot over
        # both parts of every entry is finite when they all are: one BLAS call,
        # cheaper than a ufunc reduction or a Python loop at every size
        finite = math.isfinite(z_next.view(float).dot(zeros))
        if finite and tol is not None:
            abs_next = np.abs(z_next)
            scale = tol * np.maximum(1.0, np.maximum(abs_z, abs_next))
            # the root mean square, with the sum and count np.mean would use
            e = np.abs(hc * err_row.dot(K) / scale)
            err = math.sqrt(np.add.reduce(e * e) / e.size)
            finite = math.isfinite(err)     # err also weighs a stage that b weighs 0
        if not finite:
            flags.append(FLAG_NONFINITE)
            break
        h_taken = h
        if tol is not None:
            factor = 0.9 * (1.0 / err) ** 0.2 if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
            if err > 1.0:
                rejected += 1
                continue
        t += h_taken
        z = z_next
        if tol is not None:
            abs_z = abs_next
        accepted += 1
        times.append(t)
        states.append(z)
        flag = guard(z) if guard is not None else None
        if flag:
            flags.append(flag)
            break
    if t < t_max and not flags:
        flags.append(FLAG_BUDGET)
    return Trajectory(np.array(times), np.array(states),
                      accepted_steps=accepted, rejected_steps=rejected,
                      flags=tuple(flags), field_evaluations=evaluations)


def rk4(chart: PoissonChart, H: Observable, x0, t_max: float, dt: float,
        guard: Optional[Callable[[np.ndarray], Optional[str]]] = None) -> Trajectory:
    """Classical fourth-order steps of the Hamiltonian field of H.

    Takes ceil(t_max / dt) steps of ``dt``, the last clipped so the run ends
    on ``t_max``; a ratio within roundoff of an integer takes that many full
    steps.  The trajectory is sampled every step.  A ``guard`` may inspect
    each state and return a flag string to abort integration.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not 0 <= t_max < math.inf:
        raise ValueError("t_max must be finite and nonnegative")
    nsteps = math.ceil(t_max / dt * (1.0 - 1e-12))
    return _run(chart, H, x0, t_max, _RK4, dt, nsteps, tol=None, guard=guard)


def adaptive(chart: PoissonChart, H: Observable, x0, t_max: float, tol: float,
             guard: Optional[Callable[[np.ndarray], Optional[str]]] = None) -> Trajectory:
    """Dormand-Prince 5(4) with embedded error control at local error <= tol;
    flags ``step-budget-failure`` when ``_ATTEMPT_BUDGET`` runs out before ``t_max``."""
    if not (1e-13 <= tol <= 1e-6):
        raise ValueError("tol must lie in [1e-13, 1e-6]")
    if not 0 <= t_max < math.inf:
        raise ValueError("t_max must be finite and nonnegative")
    h = min(0.01 * max(t_max, 1e-8), t_max) or t_max
    return _run(chart, H, x0, t_max, _DP, h, _ATTEMPT_BUDGET, tol=tol, guard=guard)


def monitor(trajectory: Trajectory,
            observables: Sequence[Observable]) -> ConservationReport:
    """Evaluate each observable once, on the stacked ``(states, dim)`` array
    of the whole trajectory, and report drifts.  An observable returns one
    value per state, shape ``(states,)``, or a 0-d constant, which is
    broadcast; any other shape raises ``ValueError`` naming it.
    """
    if len({o.name for o in observables}) != len(observables):
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
    return ConservationReport(values=values, max_abs_drift=max_abs, max_rel_drift=max_rel)
