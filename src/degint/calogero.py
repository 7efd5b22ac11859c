"""Rational spin Calogero-Moser and rational spin Ruijsenaars systems for
SL_n with rank-1 orbits.

The reduced data live on diagonal cross-sections: positions h_i (distinct,
traceless), momenta p_i, a coupling kappa, and log-canonical partners u_i.
Spin variables enter through a rank-1 matrix mu = phi psi^T - kappa id.

The gauge phi_i = 1 is fixed throughout: only the products phi_i psi_i and
the ratios phi_i / phi_j enter any exported formula.

Closed forms vs the oracle.  The products w_i = phi_i psi_i are defined by
the linear system  sum_i w_i / (h_i - h_j + kappa) = 1  for every j.  Two
product-formula candidates are carried for w_i: the bare form
prod_{j != i} (h_i - h_j + kappa)/(h_i - h_j) and the kappa-scaled form
(the same product multiplied by kappa).  The dense solve is the oracle;
``ruij_sweep`` reports how far each candidate lies from it.  The
kappa-scaled form is the one that satisfies the system (already visible at
n = 1, where the system forces w_1 = kappa).
"""

import numpy as np

from .config import TOL
from .errors import (ConsistencyError, ConstraintViolation, DegintError,
                     NonFiniteMatrixError, SingularChartPoint)
from .matrixcore import _diagonals, _scalar_power, as_matrix, mat_exp, spectral, trace_words


def _raise_first(bad, error, message, value=None):
    """Raise ``error`` for the first sample flagged in ``bad`` (one flag per
    sample), quoting its ``value``.  ``message`` may also be a function of
    that sample's index returning the text."""
    flagged = np.flatnonzero(bad)
    if flagged.size:
        k = int(flagged[0])
        if callable(message):
            message = message(k)
        raise error(message if value is None else f"{message} {np.ravel(value)[k]:.3g}")


def _check_chart(d, own=None):
    """Distinct positions and, given own, h_i - h_j + kappa away from zero,
    for every stacked table d = h_i - h_j and own = d + kappa."""
    off = ~np.eye(d.shape[-1], dtype=bool)
    _raise_first(((np.abs(d) < 1e-8) & off).any(axis=(-2, -1)), SingularChartPoint,
                 "two positions closer than 1e-08")
    if own is not None:
        _raise_first(((np.abs(own) < 1e-8) & off).any(axis=(-2, -1)),
                     SingularChartPoint, "denominator h_i - h_j + kappa too close to zero")


# ----------------------------------------------------------------------
# rank-1 kernels shared with the relativistic systems in ``double``; each
# acts on a stack of points along its leading axes
# ----------------------------------------------------------------------

# Stacked kernels that replace per-point code round as that code's numpy
# scalars did (see also ``matrixcore._scalar_power``): hypot is the abs() of
# one complex scalar, which numpy's vectorised complex abs does not always
# match bit for bit.

def _scalar_abs(z):
    return np.hypot(z.real, z.imag)


def _cauchy_solve(den, label: str):
    """Solve sum_i w_i / den[..., j, i] = 1 for every j by one stacked dense
    solve; returns (w, residual), residual = max_j |sum_i w_i / den[j, i] - 1|.

    Rejects |den| < 1e-10 before dividing, and a residual above
    ``TOL.oracle_residual``; ``label`` names den in messages.
    """
    _raise_first(np.abs(den).min(axis=(-2, -1)) < 1e-10, SingularChartPoint,
                 f"vanishing denominator {label}")
    C = 1.0 / den
    w = np.linalg.solve(C, np.ones(den.shape[:-1] + (1,), dtype=complex))
    residual = np.abs(C @ w - 1.0).max(axis=(-2, -1))
    w = w[..., 0]
    _raise_first(residual > TOL.oracle_residual, ConsistencyError, f"{label} solve residual",
                 residual)
    return w, residual


def _ratio(num, den) -> np.ndarray:
    """R = num / den off the diagonal and 1 on it; the diagonal is never divided."""
    return np.divide(num, den, out=np.ones(num.shape, dtype=complex),
                     where=~np.eye(num.shape[-1], dtype=bool))


def _pair_products(R):
    """prod_{a in {i, j}, b not in {i, j}} R[..., a, b] for every pair i < j;
    returns (i, j, products) with the pairs in row-major order.

    One gather takes rows i and j of every stacked R from R with a column of
    ones appended, R_ij and R_ji read as that 1 (R_ii is 1 already).  The 2n
    factors are then multiplied left to right, each step one elementwise
    product over the whole stack, so a sample's products do not depend on
    the stack around it; a ``prod`` along the factor axis rounds a stacked
    sample differently from the same sample alone.  Dividing P_i P_j by
    R_ij R_ji instead would lose accuracy where R_ij or R_ji nears zero.
    """
    n = R.shape[-1]
    b = np.arange(n)
    i, j = np.nonzero(b[:, None] < b)
    # per pair, the flat indices of its 2n factors in R with the ones column
    flat = np.concatenate([(n + 1) * i[:, None] + np.where(b == j[:, None], n, b),
                           (n + 1) * j[:, None] + np.where(b == i[:, None], n, b)], axis=-1)
    ones = np.ones(R.shape[:-1] + (1,), dtype=R.dtype)
    factors = np.concatenate([R, ones], axis=-1).reshape(R.shape[:-2] + (-1,))[..., flat.T]
    products = factors[..., 0, :]
    for k in range(1, 2 * n):
        products = products * factors[..., k, :]
    return i, j, products


def _rank1_matrix(own, other, c, u):
    """(R, prod, m) of a rank-1 system at every stacked point: R = own/other
    off the diagonal and 1 on it, prod_i = prod_j R_ij, and
    m_ij = c u_j prod_j / own_ij, the diagonal included (own_ii = c).  The
    rational system takes (own, other, c) = (h_i - h_j + kappa, h_i - h_j,
    kappa), the relativistic one (1 - x_i/(q x_j), 1 - x_i/x_j, 1 - 1/q)."""
    R = _ratio(own, other)
    prod = R.prod(axis=-1)
    return R, prod, c * (u * prod)[..., None, :] / own


def _dual_residuals(own, c, s, u, R, prod, m):
    """(residuals, (tr m, tr m^2), h_char) of ``_rank1_matrix``'s m at every
    stacked point.  The residuals compare the traces with sum_i d_i and
    sum_ij c^2 d_i d_j / (own_ij own_ji), d = u prod, relative to
    max(1, |tr m|, |tr m^2|), and h_char = (tr m^2 - (tr m)^2)/2 with
    -sum_{i<j} u_i u_j prod_{a in {i,j}, b outside} R_ab / s, s = 1
    (rational) or q (relativistic), relative to max(1, |h_char|).  Raises
    for the first point whose m is not finite."""
    _raise_first(~np.isfinite(m).all(axis=(-2, -1)), NonFiniteMatrixError,
                 "matrix has NaN or Inf entries")
    diag = u * prod
    tr = np.trace(m, axis1=-2, axis2=-1)
    tr_sq = np.trace(m @ m, axis1=-2, axis2=-1)
    # named: c^2 * outer stays multiply(c^2, outer) at any pass (_SWEEP_CHUNK)
    outer = diag[..., :, None] * diag[..., None, :]
    tr2 = np.sum(c ** 2 * outer / (own * np.swapaxes(own, -2, -1)), axis=(-2, -1))
    h_char = 0.5 * (tr_sq - _scalar_power(tr, 2))
    i, j, prods = _pair_products(R)
    # summed in C order, the per-point order: numpy sums a contiguous row
    # pairwise, a strided one (``prods`` is Fortran-ordered) sequentially
    h_prod = -np.ascontiguousarray(u[..., i] * u[..., j] * prods / s).sum(axis=-1)
    scale = np.maximum(1.0, np.maximum(np.abs(tr), np.abs(tr_sq)))
    residuals = np.stack([_scalar_abs(tr - diag.sum(axis=-1)) / scale,
                          _scalar_abs(tr_sq - tr2) / scale,
                          _scalar_abs(h_char - h_prod) / np.maximum(1.0, _scalar_abs(h_char))],
                         axis=-1)
    return residuals, np.stack([tr, tr_sq], axis=-1), h_char


def _check_point(p, h):
    """p and h as complex vectors of one length, both traceless, with
    distinct h: the checks a reduced Calogero-Moser point (momenta p,
    positions h) runs on entry."""
    p = np.asarray(p, dtype=complex).ravel()
    h = np.asarray(h, dtype=complex).ravel()
    if p.shape != h.shape:
        raise ValueError("p and h must have the same length")
    for v, name in ((p, "p"), (h, "h")):
        if abs(np.sum(v)) > 1e-10 * max(1.0, np.abs(v).max()):
            raise ValueError(f"{name} must sum to zero (traceless normalization)")
    _check_chart(h[:, None] - h[None, :])
    return p, h


def _check_spin(mu):
    """mu as a square, finite complex matrix with vanishing diagonal (the
    torus-reduction constraint): the checks a spin matrix runs on entry."""
    mu = as_matrix(mu)
    if np.abs(np.diag(mu)).max() > 1e-12 * max(1.0, np.abs(mu).max()):
        raise ValueError("spin matrix must have zero diagonal")
    return mu


def rank_one_spin(phi, kappa: complex) -> np.ndarray:
    """The spin matrix mu = phi psi^T - kappa id with psi_i = kappa / phi_i.

    The choice of psi makes every diagonal entry vanish and gives
    mu_ij mu_ji = kappa^2 off the diagonal.
    """
    phi = np.asarray(phi, dtype=complex).ravel()
    if np.abs(phi).min() == 0.0:
        raise ValueError("phi entries must be nonzero")
    return _check_spin(np.outer(phi, kappa / phi) - kappa * np.eye(len(phi)))


def _angle_denominators(h):
    """Pairs i < j of angles h and 4 sin^2((h_i - h_j)/2), singular below 1e-14."""
    i, j = np.triu_indices(len(h), 1)
    d = 4.0 * _scalar_power(np.sin((h[i] - h[j]) / 2.0), 2)
    if np.any(np.abs(d) < 1e-14):
        raise SingularChartPoint("coincident angles (mod 2 pi) in the potential")
    return i, j, d


@np.errstate(over="ignore", invalid="ignore")      # a non-finite value raises
def h_cm(p, h, kappa: complex) -> float:
    """Trigonometric rank-1 Hamiltonian <p, p> + sum kappa^2 / (4 sin^2((h_i-h_j)/2))
    at the point (p, h) that ``_check_point`` checks first, positions read as
    angles (``_angle_denominators``), inputs real up to 1e-10 imaginary residue."""
    p, h = _check_point(p, h)
    # kappa * kappa: kappa ** 2 of a Python complex raises OverflowError
    value = np.dot(p, p) + np.sum(kappa * kappa / _angle_denominators(h)[2])
    if not np.isfinite(value):
        raise NonFiniteMatrixError(f"Hamiltonian is not finite: {value}")
    if abs(value.imag) > 1e-10 * max(1.0, abs(value)):
        raise ConstraintViolation("imaginary residue in the real-form Hamiltonian")
    return float(value.real)


@np.errstate(over="ignore", invalid="ignore")      # a non-finite value raises
def h_scm(p, h, mu) -> complex:
    """Spin Hamiltonian <p, p> + sum_{i<j} mu_ij mu_ji / (4 sin^2((h_i - h_j)/2)),
    positions read as angles, at the point (p, h) that ``_check_point``
    checks and the spin matrix mu that ``_check_spin`` checks, in that order."""
    p, h = _check_point(p, h)
    mu = _check_spin(mu)
    if mu.shape[0] != len(h):
        raise ValueError("spin matrix size does not match the point")
    i, j, d = _angle_denominators(h)
    value = np.dot(p, p) + np.sum(mu[i, j] * mu[j, i] / d)
    if not np.isfinite(value):
        raise NonFiniteMatrixError(f"spin Hamiltonian is not finite: {value}")
    return complex(value)


def cm_central_flow(x, g, t: float):
    """Flow of the quadratic Casimir F = tr(x^2)/2, whose trace-form
    gradient is x: (x, g) -> (x, exp(t x) g), returned as exp(t x) g.

    The first component never moves; because x commutes with itself, the
    pair (x, g x g^{-1}) moves by simultaneous conjugation, so all joint
    trace invariants are preserved.
    """
    return mat_exp(t * as_matrix(x)) @ as_matrix(g)


def solve_phi_psi_oracle(h, kappa: complex):
    """Solve the Cauchy-type system sum_i w_i/(h_i - h_j + kappa) = 1 for w,
    for h of shape (n,) or stacked as (..., n): returns (w, residual) of
    ``_cauchy_solve``.

    Direct dense solve; this is the oracle against which closed forms are
    judged.  Denominators must stay away from zero.
    """
    h = np.asarray(h, dtype=complex)
    return _cauchy_solve(h[..., None, :] - h[..., :, None] + kappa,   # row j, column i
                         "h_i - h_j + kappa")


def _miss(formula, oracle):
    """How far a product formula lies from its oracle over the last axis:
    |formula - oracle|max / max(1, |oracle|max)."""
    return (np.abs(formula - oracle).max(axis=-1)
            / np.maximum(1.0, np.abs(oracle).max(axis=-1)))


def _relation_residual(d, kappa, w, g):
    """Residual of (h_i - h_j) g_ij = sum_k mu_ik g_kj, mu = 1 w^T - kappa id,
    from the stacked table d = h_i - h_j."""
    mu = w[..., None, :] - kappa * np.eye(d.shape[-1])
    return (np.abs(d * g - mu @ g).max(axis=(-2, -1))
            / np.maximum(1.0, np.abs(g).max(axis=(-2, -1))))


# Samples per stacked pass of a sweep; bounds its working memory.  In
# interleaved rank1-sweep pairs, 256 beat 64, 128, 192 and 320, at +0.65 MB
# peak RSS over 64; see the README.  A value does not depend on the pass
# size: from 256 KiB on, numpy computes scalar * (unnamed temporary) into the
# temporary with the operands swapped, and complex a*b and b*a may round
# differently, so the stacked kernels name each such product's array operand.
_SWEEP_CHUNK = 256


@np.errstate(over="ignore", invalid="ignore")      # a non-finite value raises
def _stacked(kernel, *stacks) -> dict:
    """``kernel(*parts)``, a dict of per-sample columns, over passes of
    ``_SWEEP_CHUNK`` samples of the (samples, ...) ``stacks``, concatenated.

    When samples fail, the lowest-index one raises, with the checks in the
    order one sample runs them: a pass that raises reruns its samples one at
    a time, and the first of them that raises decides."""
    passes = []
    for s in range(0, max(len(stacks[0]), 1), _SWEEP_CHUNK):
        part = [a[s:s + _SWEEP_CHUNK] for a in stacks]
        try:
            passes.append(kernel(*part))
        except (DegintError, ValueError):           # LinAlgError is a ValueError
            for i in range(len(part[0])):
                kernel(*(a[i:i + 1] for a in part))
            raise
    return {name: np.concatenate([p[name] for p in passes]) for name in passes[0]}


def ruij_sweep(h, u, kappa: complex) -> dict:
    """The rank-1 checks of the rational spin Ruijsenaars system for samples
    h, u of shape (samples, n), as named per-sample columns, in stacked
    passes of ``_SWEEP_CHUNK`` samples with one Cauchy solve each.

    "oracle-residual" is the solve's for the w_i = phi_i psi_i of the
    module docstring; "closed-form-residual" and "bare-residual" are how far
    the kappa-scaled and the bare product formulas lie from w.  The group
    element g of ``_rank1_matrix``, g_ij = kappa u_j bare_j / (h_i - h_j +
    kappa) and g_ii = u_i bare_i, with x = diag(h) and mu = 1 w^T - kappa id,
    satisfies (h_i - h_j) g_ij = sum_k mu_ik g_kj to "relation-residual";
    "tr-g-dual", "tr-g2-dual" and "h-ruijsenaars-dual" are the dual-route
    residuals of ``_dual_residuals``.  When samples fail, the lowest-index
    one raises, with the checks in the order a single sample runs them.
    """
    def kernel(h, u):
        # (own, other, c, s) = (h_i - h_j + kappa, h_i - h_j, kappa, 1)
        d = h[..., :, None] - h[..., None, :]
        own = d + kappa
        _check_chart(d, own)
        w, oracle = solve_phi_psi_oracle(h, kappa)
        R, bare, g = _rank1_matrix(own, d, kappa, u)
        residuals = _dual_residuals(own, kappa, 1.0, u, R, bare, g)[0]
        return {"oracle-residual": oracle,
                "closed-form-residual": _miss(kappa * bare, w), "bare-residual": _miss(bare, w),
                "relation-residual": _relation_residual(d, kappa, w, g),
                "tr-g-dual": residuals[..., 0], "tr-g2-dual": residuals[..., 1],
                "h-ruijsenaars-dual": residuals[..., 2]}

    return _stacked(kernel, np.asarray(h, dtype=complex), np.asarray(u, dtype=complex))


# ----------------------------------------------------------------------
# duality diagnostics
# ----------------------------------------------------------------------

def joint_invariants(a, b, max_exp: int) -> np.ndarray:
    """All joint conjugation invariants tr(a^i b^j a^k b^l), exponents <=
    max_exp, for a and b stacked alike as (..., n, n): the words (i, j, k, l)
    in nested-loop order along the last axis."""
    return trace_words(a, b, [w for w in np.ndindex((max_exp + 1,) * 4) if sum(w)])


def _separation_margins(x, ys, xs, y) -> np.ndarray:
    """Margins between the fibers of pairs (x, ys[i]) and (xs[j], y), ys and xs
    stacked as (samples, n, n): ``margins[i, j]`` is the largest difference of
    any joint trace invariant between the i-th pair of the first and the j-th
    of the second.  One stacked :func:`joint_invariants` call takes every
    pair."""
    table = joint_invariants(np.concatenate([np.broadcast_to(x, ys.shape), xs]),
                             np.concatenate([ys, np.broadcast_to(y, xs.shape)]), 2)
    return np.abs(table[:len(ys), None, :] - table[None, len(ys):, :]).max(axis=2)


def duality_fiber_check(x, gamma, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Check that the two reduced-system fibers through (x, gamma) only meet
    at the base point.

    The first fiber moves gamma by the centralizer torus of the diagonal x:
    points (x, gamma z).  The second moves x inside the centralizer of gamma:
    points (x + c, gamma) with c = V diag(...) V^{-1} traceless, V the
    eigenvector matrix of gamma.  Each fiber draws its samples as one block
    of normals, the torus first.  For every sampled pair (z != 1, c != 0)
    some joint trace invariant must separate them: returns the
    (samples, samples) margins of ``_separation_margins``.
    """
    x, gamma = as_matrix(x), as_matrix(gamma)
    n = x.shape[0]
    if np.abs(x - np.diag(np.diag(x))).max() > 1e-12:
        raise ValueError("x must be diagonal (regular cross-section)")
    _, v = spectral(gamma)
    re, im = np.moveaxis(rng.normal(size=(samples, 2, n - 1)), 1, 0)
    lam = np.exp(re * 0.4 + 1j * im * 0.4)
    z = _diagonals(np.concatenate([lam, 1.0 / lam.prod(axis=-1, keepdims=True)], axis=-1))
    re, im = np.moveaxis(rng.normal(size=(samples, 2, n)), 1, 0)
    c = re + 1j * im
    c -= c.mean(axis=-1, keepdims=True)
    return _separation_margins(x, gamma @ z, x + v @ _diagonals(c) @ np.linalg.inv(v), gamma)
