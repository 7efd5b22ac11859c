"""Small dense complex linear algebra used by every other module.

Matrices are plain ``numpy`` arrays of shape ``(n, n)`` and complex dtype.
Validated use stays at n <= 16; nothing here is tuned for large n.
"""

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import (
    FactorizationNotDefined,
    MatrixOverflowError,
    NearDegenerateSpectrum,
    NonFiniteMatrixError,
)

__all__ = [
    "ULPair",
    "as_matrix",
    "mat_exp",
    "ul_split_factorize",
    "spectral",
    "traces_of_powers",
]


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteMatrixError("matrix has NaN or Inf entries")
    return m


@dataclass(frozen=True)
class ULPair:
    """Upper/lower factor pair with reciprocal diagonals.

    ``g_plus`` is upper triangular, ``g_minus`` lower triangular, and
    ``diag(g_plus) * diag(g_minus) == 1`` entrywise.  The pair reassembles the
    factored matrix as ``g_plus @ inv(g_minus)``.
    """

    g_plus: np.ndarray
    g_minus: np.ndarray

    def __post_init__(self):
        gp, gm = self.g_plus, self.g_minus
        scale = max(np.abs(gp).max(), np.abs(gm).max(), 1.0)
        if np.abs(np.tril(gp, -1)).max(initial=0.0) > TOL.triangular * scale:
            raise ValueError("g_plus is not upper triangular")
        if np.abs(np.triu(gm, 1)).max(initial=0.0) > TOL.triangular * scale:
            raise ValueError("g_minus is not lower triangular")
        if np.abs(np.diag(gp) * np.diag(gm) - 1.0).max() > 1e-12 * scale:
            raise ValueError("diagonals of g_plus and g_minus are not reciprocal")

    def reassemble(self) -> np.ndarray:
        return self.g_plus @ np.linalg.inv(self.g_minus)


def mat_exp(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring around a truncated series.

    The argument is scaled by 2**-s until its 1-norm is below 1/4, the series
    is summed to machine convergence, and the result squared back up.
    Relative accuracy is 1e-12 or better for norms up to around 10.
    """
    m = as_matrix(a)
    n = m.shape[0]
    norm = np.linalg.norm(m, 1)
    if norm > 500.0:
        raise MatrixOverflowError(f"matrix 1-norm {norm:.3g} too extreme for exp")
    s = max(0, int(np.ceil(np.log2(norm / 0.25))) if norm > 0.25 else 0)
    ms = m / (2.0 ** s)
    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 40):
        term = term @ ms / k
        result = result + term
        if np.abs(term).max() < 1e-18 * max(1.0, np.abs(result).max()):
            break
    for _ in range(s):
        result = result @ result
    if not np.all(np.isfinite(result)):
        raise MatrixOverflowError("matrix exponential overflowed")
    return result


def ul_split_factorize(m) -> ULPair:
    """Split ``m = g_plus @ inv(g_minus)`` with reciprocal-diagonal factors.

    Computes the upper/diagonal/lower decomposition ``m = U d^2 L`` with
    unitriangular U, L (elimination from the lower-right corner, no pivoting;
    each pivot is the ratio of consecutive trailing principal minors) and sets
    ``g_plus = U d``, ``g_minus = inv(d L)``.  ``d`` is the principal square
    root, argument in (-pi, pi], so the splitting is continuous near the
    identity.  Defined only where the trailing minors stay away from zero.
    """
    m = as_matrix(m)
    n = m.shape[0]
    scale = np.linalg.norm(m, 1)
    if scale == 0.0:
        raise FactorizationNotDefined("zero matrix")

    flipped = m[::-1, ::-1]
    lower = np.eye(n, dtype=complex)
    work = flipped.astype(complex).copy()
    for k in range(n):
        pivot = work[k, k]
        if abs(pivot) < TOL.pivot_minor * scale:
            raise FactorizationNotDefined(
                f"pivot minor {k + 1} has modulus {abs(pivot):.3g} "
                f"(threshold {TOL.pivot_minor * scale:.3g})"
            )
        for i in range(k + 1, n):
            f = work[i, k] / pivot
            lower[i, k] = f
            work[i, k:] -= f * work[k, k:]

    diag = np.diag(work).copy()
    upper_unit = work / diag[:, None]

    # undo the flip: m = (J L J)(J D J)(J U J) with J the antidiagonal
    u_factor = lower[::-1, ::-1]
    l_factor = upper_unit[::-1, ::-1]
    d = np.sqrt(diag[::-1].astype(complex))

    g_plus = u_factor * d[None, :]
    g_minus = np.linalg.inv(d[:, None] * l_factor)
    return ULPair(g_plus=g_plus, g_minus=g_minus)


def spectral(m):
    """Eigendecomposition ``m = V diag(w) inv(V)`` for semisimple matrices.

    Eigenvalues are sorted lexicographically by (Re, Im) so cross-section
    choices are reproducible.  Raises when the smallest eigenvalue gap is
    below ``TOL.eigenvalue_gap``.
    """
    m = as_matrix(m)
    w, v = np.linalg.eig(m)
    order = np.lexsort((w.imag, w.real))
    w, v = w[order], v[:, order]
    gap = np.abs(w[:, None] - w[None, :])[np.triu_indices(len(w), 1)].min(initial=np.inf)
    if gap < TOL.eigenvalue_gap:
        raise NearDegenerateSpectrum(
            f"minimal eigenvalue gap {gap:.3g} below {TOL.eigenvalue_gap:.3g}")
    return w, v


def traces_of_powers(m, kmax: int) -> np.ndarray:
    """Return (tr m, tr m^2, ..., tr m^kmax) by repeated multiplication."""
    m = as_matrix(m)
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    out = np.empty(kmax, dtype=complex)
    acc = m
    out[0] = np.trace(acc)
    for k in range(1, kmax):
        acc = acc @ m
        out[k] = np.trace(acc)
    return out
