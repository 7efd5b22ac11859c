"""Factorization dynamics: exact flows of conjugation-invariant Hamiltonians
on the group chart.

The flow of an invariant Hamiltonian H through x0 is

    x(t) = g_pm(t)^{-1} x0 g_pm(t),
    g_plus(t) g_minus(t)^{-1} = exp(t xi),   xi = left differential of H,

computed by the matrix exponential followed by the upper/lower splitting.
Because xi commutes with x0, conjugation by g_plus and by g_minus give the
same x(t); both are formed and compared.  The left differential is realized
as a traceless matrix through the trace form; the exponent is that matrix
itself (recombining its upper/lower halves returns it), a reading pinned by
the cross-check against direct integration of the group bracket chart.
"""

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .config import TOL
from .errors import ConsistencyError
from .integrate import rk4
from .matrixcore import ULPair, as_matrix, mat_exp, traces_of_powers, ul_split_factorize
from .poisson import Observable, chart_sklyanin

__all__ = [
    "TracePower",
    "CustomInvariant",
    "InvariantHamiltonian",
    "left_differential",
    "factorization_flow",
    "sklyanin_reference_flow",
    "FlowConsistencyReport",
    "flow_consistency_sweep",
]


@dataclass(frozen=True)
class TracePower:
    """H(x) = tr(x^k)."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("power must be at least 1")

    @property
    def name(self) -> str:
        return f"tr(x^{self.k})"

    def __call__(self, x) -> complex:
        return complex(np.trace(np.linalg.matrix_power(x, self.k)))


@dataclass(frozen=True)
class CustomInvariant:
    """A conjugation-invariant function given as a callable on matrices."""

    name: str
    fn: Callable[[np.ndarray], complex]

    def __call__(self, x) -> complex:
        return complex(self.fn(x))

    def invariance_defect(self, x, g) -> float:
        """|H(g x g^{-1}) - H(x)|; should vanish for an honest invariant."""
        return abs(self(g @ x @ np.linalg.inv(g)) - self(x))


InvariantHamiltonian = Union[TracePower, CustomInvariant]


def _traceless(m):
    n = m.shape[0]
    return m - (np.trace(m) / n) * np.eye(n)


def left_differential(H: InvariantHamiltonian, x) -> np.ndarray:
    """Trace-form realization of the left differential of H at x, traceless.

    Pairing convention: <d_l H(x), X> = d/dt H(exp(tX) x) at t = 0.  For
    tr(x^k) this gives k x^k (minus its trace part).  Custom invariants are
    differentiated centrally, with step ``TOL.fd_step``, over the matrix-unit
    basis; exp(h E_ab) is formed exactly (E_ab is a unit or idempotent).
    """
    step = TOL.fd_step
    x = as_matrix(x)
    n = x.shape[0]
    if isinstance(H, TracePower):
        return _traceless(H.k * np.linalg.matrix_power(x, H.k))
    d = np.empty((n, n), dtype=complex)
    eye = np.eye(n)
    for a in range(n):
        for b in range(n):
            e = np.zeros((n, n)); e[a, b] = 1.0
            if a == b:
                gp = eye + (np.exp(step) - 1.0) * e
                gm = eye + (np.exp(-step) - 1.0) * e
            else:
                gp = eye + step * e
                gm = eye - step * e
            d[a, b] = (H(gp @ x) - H(gm @ x)) / (2.0 * step)
    # tr(D E_ab) = d_ab  =>  D = d^T
    return _traceless(d.T)


def factorization_flow(x0, H: InvariantHamiltonian, t: float) -> np.ndarray:
    """x(t) = g_plus(t)^{-1} x0 g_plus(t) with exp(t xi) = g_plus g_minus^{-1}.

    Valid while the splitting of exp(t xi) exists; a vanishing pivot minor
    raises FactorizationNotDefined (the flow left the neighborhood where the
    splitting is defined).  The g_minus conjugation must agree with the
    g_plus one to ``TOL.conjugation_agreement``.
    """
    x0 = as_matrix(x0)
    xi = left_differential(H, x0)
    pair: ULPair = ul_split_factorize(mat_exp(t * xi))
    via_plus = np.linalg.inv(pair.g_plus) @ x0 @ pair.g_plus
    via_minus = np.linalg.inv(pair.g_minus) @ x0 @ pair.g_minus
    dev = np.abs(via_plus - via_minus).max() / max(1.0, np.abs(via_plus).max())
    if dev > TOL.conjugation_agreement:
        raise ConsistencyError(
            f"g_plus and g_minus conjugations disagree by {dev:.3g}")
    return via_plus


def _chart_observable(H: InvariantHamiltonian, n: int) -> Observable:
    def stack(z):
        return z.reshape(z.shape[:-1] + (n, n))

    if isinstance(H, TracePower):
        k = H.k
        return Observable(
            name=H.name,
            fn=lambda z: np.trace(np.linalg.matrix_power(stack(z), k), axis1=-2, axis2=-1),
            grad=lambda z: (k * np.linalg.matrix_power(stack(z), k - 1)).T.ravel())
    def per_matrix(z):
        # a custom invariant is a function of one matrix: map it over the stack
        return np.array([H(x) for x in z.reshape(-1, n, n)]).reshape(z.shape[:-1])

    return Observable(name=H.name, fn=per_matrix)


def sklyanin_reference_flow(x0, H: InvariantHamiltonian, t: float,
                            step: float = 1e-3) -> np.ndarray:
    """Independent route to x(t): fixed-step integration on the group chart.

    This is the oracle that pins the exponent interpretation in
    :func:`factorization_flow`; the two must agree to O(step^4).
    """
    x0 = as_matrix(x0)
    n = x0.shape[0]
    chart = chart_sklyanin(n)
    traj = rk4(chart, _chart_observable(H, n), x0.ravel(), t, step)
    return traj.final.reshape(n, n)


@dataclass(frozen=True)
class FlowConsistencyReport:
    """Semigroup and conservation diagnostics for the exact flow."""

    t_grid: np.ndarray
    semigroup_residuals: np.ndarray      # flow(t_i + t_{i+1}) vs composition
    trace_drifts: np.ndarray             # max drift of tr(x^k), k <= n
    conjugation_agreements: np.ndarray   # g_plus vs g_minus per grid point

    @property
    def max_semigroup_residual(self) -> float:
        return float(self.semigroup_residuals.max(initial=0.0))

    @property
    def max_trace_drift(self) -> float:
        return float(self.trace_drifts.max(initial=0.0))


def flow_consistency_sweep(x0, H: InvariantHamiltonian,
                           t_grid: Sequence[float]) -> FlowConsistencyReport:
    """Check flow(t1 + t2) = flow(t2) after flow(t1) across a time grid,
    plus conservation of trace powers and g_plus/g_minus agreement."""
    x0 = as_matrix(x0)
    n = x0.shape[0]
    t_grid = np.asarray(list(t_grid), dtype=float)
    ref = traces_of_powers(x0, n)

    semis, drifts, agrees = [], [], []
    for i, t1 in enumerate(t_grid):
        x1 = factorization_flow(x0, H, t1)
        drifts.append(np.abs(traces_of_powers(x1, n) - ref).max())

        xi = left_differential(H, x0)
        pair = ul_split_factorize(mat_exp(t1 * xi))
        agrees.append(np.abs(np.linalg.inv(pair.g_plus) @ x0 @ pair.g_plus
                             - np.linalg.inv(pair.g_minus) @ x0 @ pair.g_minus).max())

        t2 = t_grid[(i + 1) % len(t_grid)]
        direct = factorization_flow(x0, H, t1 + t2)
        composed = factorization_flow(x1, H, t2)
        semis.append(np.abs(direct - composed).max()
                     / max(1.0, np.abs(direct).max()))

    return FlowConsistencyReport(
        t_grid=t_grid,
        semigroup_residuals=np.array(semis),
        trace_drifts=np.array(drifts),
        conjugation_agreements=np.array(agrees),
    )
