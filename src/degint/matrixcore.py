"""Small dense complex linear algebra used by every other module.

Matrices are plain ``numpy`` arrays of shape ``(n, n)`` and complex dtype;
:func:`trace_words` also takes stacks of them.
Validated use stays at n <= 16; nothing here is tuned for large n.
"""

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import (
    ConsistencyError,
    FactorizationNotDefined,
    MatrixOverflowError,
    NearDegenerateSpectrum,
    NonFiniteMatrixError,
)


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteMatrixError("matrix has NaN or Inf entries")
    return m


# A complex exponent keeps numpy's array power off its sqrt and square
# shortcuts, so a stacked power rounds as the power of one numpy scalar does.
def _scalar_power(a, p: float):
    return a ** complex(p)


def _unimodular(m):
    """Each stacked matrix of m, (..., n, n), scaled to det 1: m / det(m)^(1/n)."""
    return m / _scalar_power(np.linalg.det(m), 1.0 / m.shape[-1])[..., None, None]


def _unimodular_eigs(re, im, spread: float):
    """exp(spread (re + i im)) scaled to product 1, for re, im stacked as (..., n)."""
    x = np.exp(re * spread + 1j * im * spread)
    return x / _scalar_power(np.prod(x, axis=-1, keepdims=True), 1.0 / x.shape[-1])


def _diagonals(entries):
    """Each stacked row of entries, (..., n), as a diagonal matrix, (..., n, n)."""
    d = np.arange(entries.shape[-1])
    out = np.zeros(entries.shape + entries.shape[-1:], dtype=complex)
    out[..., d, d] = entries
    return out


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
            raise ConsistencyError("g_plus is not upper triangular")
        if np.abs(np.triu(gm, 1)).max(initial=0.0) > TOL.triangular * scale:
            raise ConsistencyError("g_minus is not lower triangular")
        if np.abs(np.diag(gp) * np.diag(gm) - 1.0).max() > 1e-12 * scale:
            raise ConsistencyError("diagonals of g_plus and g_minus are not reciprocal")


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
        lower[k + 1:, k] = work[k + 1:, k] / pivot
        work[k + 1:, k:] -= lower[k + 1:, k, None] * work[k, k:]

    diag = np.diag(work).copy()
    upper_unit = work / diag[:, None]

    # undo the flip: m = (J L J)(J D J)(J U J) with J the antidiagonal
    u_factor = lower[::-1, ::-1]
    l_factor = upper_unit[::-1, ::-1]
    d = np.sqrt(diag[::-1].astype(complex))

    g_plus = u_factor * d[None, :]
    g_minus = np.linalg.inv(d[:, None] * l_factor)
    return ULPair(g_plus=g_plus, g_minus=g_minus)


def _eig_gap(w):
    """The smallest |w_i - w_j|, i < j, of each stacked w (inf for n = 1)."""
    i, j = np.triu_indices(w.shape[-1], 1)
    return np.abs(w[..., :, None] - w[..., None, :])[..., i, j].min(axis=-1, initial=np.inf)


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
    gap = _eig_gap(w)
    if gap < TOL.eigenvalue_gap:
        raise NearDegenerateSpectrum(
            f"minimal eigenvalue gap {gap:.3g} below {TOL.eigenvalue_gap:.3g}")
    return w, v


def traces_of_powers(m, kmax: int) -> np.ndarray:
    """Return (tr m, tr m^2, ..., tr m^kmax) by repeated multiplication."""
    m = as_matrix(m)
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    return trace_words(m, m, [(k, 0, 0, 0) for k in range(1, kmax + 1)])


def _powers(a, m: int) -> list:
    """[a^0, a^1, ..., a^m] of the stack a, (..., n, n), each from the last."""
    out = [np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape), a]
    while len(out) <= m:
        out.append(out[-1] @ a)
    return out[:m + 1]


def trace_words(a, b, words) -> np.ndarray:
    """tr(a^i b^j a^k b^l) for each exponent word (i, j, k, l) of ``words``,
    for a, b stacked alike as (..., n, n): shape (..., len(words)).  Each power
    and each product a^i b^j that a word reads is formed once; a word is the
    trace of the product of its halves a^i b^j and a^k b^l, which is skipped
    when every word has k = l = 0 (it is by the identity, so exact)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    w = np.asarray(words, dtype=int).reshape(-1, 4)
    if a.ndim < 2 or a.shape != b.shape or a.shape[-1] != a.shape[-2] or (w < 0).any():
        raise ValueError("expected square stacks of one shape and exponents >= 0")
    if not len(w):
        return np.zeros(a.shape[:-2] + (0,), dtype=complex)
    second = w[:, 2:].any()
    halves = w.reshape(-1, 2) if second else w[:, :2]       # (i, j), then (k, l)
    span = halves[:, 1].max() + 1
    code = (halves[:, 0] * span + halves[:, 1]).tolist()
    codes = sorted(set(code))                  # the products read, each once
    pa, pb = _powers(a, halves[:, 0].max()), _powers(b, span - 1)
    table = np.stack([pb[j] if not i else pa[i] if not j else pa[i] @ pb[j]
                      for i, j in (divmod(c, span) for c in codes)], axis=-3)
    index = np.searchsorted(codes, code)
    if not second:
        return np.trace(table, axis1=-2, axis2=-1)[..., index]
    index = index.reshape(-1, 2)
    return np.trace(table[..., index[:, 0], :, :] @ table[..., index[:, 1], :, :],
                    axis1=-2, axis2=-1)
