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
from typing import Sequence

import numpy as np

from .config import TOL
from .errors import ConsistencyError
from .integrate import Trajectory, rk4
from .matrixcore import ULPair, _powers, as_matrix, mat_exp, traces_of_powers, ul_split_factorize
from .poisson import chart_sklyanin, trace_power


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


def left_differential(H: TracePower, x) -> np.ndarray:
    """Trace-form realization of the left differential of H at x, traceless.

    Pairing convention: <d_l H(x), X> = d/dt H(exp(tX) x) at t = 0, which
    for tr(x^k) gives k x^k minus its trace part.
    """
    x = as_matrix(x)
    m = H.k * _powers(x, H.k)[-1]
    return m - (np.trace(m) / len(m)) * np.eye(len(m))


def factorization_flow(x0, H: TracePower, t: float) -> np.ndarray:
    """x(t) = g_plus(t)^{-1} x0 g_plus(t) with exp(t xi) = g_plus g_minus^{-1}.

    Valid while the splitting of exp(t xi) exists; a vanishing pivot minor
    raises FactorizationNotDefined (the flow left the neighborhood where the
    splitting is defined).  The g_minus conjugation must agree with the
    g_plus one to ``TOL.conjugation_agreement``.
    """
    x0 = as_matrix(x0)
    return _conjugations(x0, left_differential(H, x0), t)[0]


def _conjugations(x0, xi, t: float):
    """(g_plus^{-1} x0 g_plus, g_minus^{-1} x0 g_minus) of the splitting of
    exp(t xi), xi the left differential at x0, checked to agree as
    :func:`factorization_flow` states."""
    pair: ULPair = ul_split_factorize(mat_exp(t * xi))
    via_plus = np.linalg.inv(pair.g_plus) @ x0 @ pair.g_plus
    via_minus = np.linalg.inv(pair.g_minus) @ x0 @ pair.g_minus
    dev = np.abs(via_plus - via_minus).max() / max(1.0, np.abs(via_plus).max())
    if dev > TOL.conjugation_agreement:
        raise ConsistencyError(
            f"g_plus and g_minus conjugations disagree by {dev:.3g}")
    return via_plus, via_minus


def sklyanin_reference_flow(x0, H: TracePower, t: float, step: float) -> Trajectory:
    """Independent route to x(t): the fixed-step rk4 run on the group chart
    from x0, whose final state, reshaped to a matrix, is x(t).

    This is the oracle that pins the exponent interpretation in
    :func:`factorization_flow`; the two must agree to O(step^4).
    """
    x0 = as_matrix(x0)
    n = x0.shape[0]
    return rk4(chart_sklyanin(n), trace_power(n, H.k), x0.ravel(), t, step)


def flow_consistency_sweep(x0, H: TracePower, t_grid: Sequence[float]) -> dict:
    """Check flow(t1 + t2) = flow(t2) after flow(t1) across a time grid,
    plus conservation of trace powers and g_plus/g_minus agreement: one
    entry per grid point in each of the columns "semigroup" (relative to
    max(1, |flow|)), "trace-drift" (over tr(x^k), k <= n) and "conjugation".
    The left differential at x0 is formed once for the whole grid."""
    x0 = as_matrix(x0)
    n = x0.shape[0]
    t_grid = np.asarray(list(t_grid), dtype=float)
    ref = traces_of_powers(x0, n)
    xi = left_differential(H, x0)

    semis, drifts, agrees = [], [], []
    for i, t1 in enumerate(t_grid):
        x1, via_minus = _conjugations(x0, xi, t1)
        drifts.append(np.abs(traces_of_powers(x1, n) - ref).max())
        agrees.append(np.abs(x1 - via_minus).max())

        t2 = t_grid[(i + 1) % len(t_grid)]
        direct = _conjugations(x0, xi, t1 + t2)[0]
        composed = factorization_flow(x1, H, t2)
        semis.append(np.abs(direct - composed).max()
                     / max(1.0, np.abs(direct).max()))

    return {"semigroup": np.array(semis), "trace-drift": np.array(drifts),
            "conjugation": np.array(agrees)}
