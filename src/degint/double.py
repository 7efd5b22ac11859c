"""Relativistic spin Calogero-Moser and Ruijsenaars systems on pairs of
group elements.

A point is a pair (x, y) of SL_n matrices; the group-valued moment map is
mu(x, y) = x y x^{-1} y^{-1}.  Hamiltonians of the first family are
conjugation-invariant functions of x, those of the second family the same
functions of y; the duality map (x, y) -> (y^{-1}, y x y^{-1}) exchanges
the two and preserves mu exactly.

Rank-1 machinery and conventions.  A rank-1 class element with parameter q
is z = phi psi^T + q^{-1} id with (phi, psi) = q^{n-1} - q^{-1}; its
eigenvalues are (q^{n-1}, q^{-1}, ..., q^{-1}).  Three closed-form surfaces
carry correction factors relative to their naive transcriptions, all
arbitrated by oracles here and in the test suite:

* the consistency system  sum_i v_i / (x_j - q^{-1} x_i) = 1  determines
  v_i = psi_i phi_i x_i (dense solve = oracle); the matching product formula
  is psi_i phi_i = (1 - q^{-1}) prod_{j != i} (1 - q x_j/x_i)/(1 - x_j/x_i),
  i.e. the naive form with its stray x_i^{-1} prefactor dropped (the naive
  form is checked against the oracle only in the test suite);
* the off-diagonal reconstruction uses denominators (x_i/x_j - q^{-1});
  with (1 - q^{-1} x_i/x_j) instead, mu lands in the class of q^{-1} rather
  than q (the two conventions are exchanged by q -> 1/q);
* the diagonal map from log-canonical u to y_ii uses own-over-other ratios
  (1 - q^{-1} x_i/x_j)/(1 - x_i/x_j), which is the direction that makes the
  second Hamiltonian's product formula agree with its character route.
"""

import numpy as np

from .calogero import (
    _cauchy_solve,
    _dual_residuals,
    _miss,
    _raise_first,
    _rank1_matrix,
    _ratio,
    _separation_margins,
    _stacked,
)
from .errors import ConstraintViolation, NonFiniteMatrixError, SingularChartPoint
from .integrate import ConservationReport, monitor, rk4
from .matrixcore import (_diagonals, _unimodular, _unimodular_eigs, as_matrix, spectral,
                         trace_words)
from .poisson import Observable, chart_heisenberg_double


def _check_unimodular(x, y):
    """ConstraintViolation for the first stacked pair (x, y) with det x or
    det y off 1 by more than 1e-9 max(1, max|m|^n), naming x when both are."""
    dets = np.stack([np.linalg.det(x), np.linalg.det(y)], axis=-1)
    sizes = np.stack([np.abs(x).max(axis=(-2, -1)), np.abs(y).max(axis=(-2, -1))], axis=-1)
    off = np.abs(dets - 1.0) > 1e-9 * np.maximum(1.0, sizes ** x.shape[-1])

    def message(k):
        m = int(off.reshape(-1, 2)[k].argmax())
        return f"det {'xy'[m]} must be 1 (got {dets.reshape(-1, 2)[k, m]:.6g})"

    _raise_first(off.any(axis=-1), ConstraintViolation, message)


def _check_pair(x, y):
    """x and y as square, finite complex matrices of one shape and unit
    determinant, the checks a pair of group elements runs on entry."""
    x, y = as_matrix(x), as_matrix(y)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same size")
    _check_unimodular(x, y)
    return x, y


def _check_pairing(q, psi):
    """ConstraintViolation for the first stacked psi whose pairing with the
    gauge phi = (1, ..., 1) is not q^(n-1) - q^(-1)."""
    target = q ** (psi.shape[-1] - 1) - 1.0 / q
    _raise_first(np.abs(psi.sum(axis=-1) - target) > 1e-10 * max(1.0, abs(target)),
                 ConstraintViolation, "(phi, psi) must equal q^(n-1) - q^(-1)")


def _class_eigenvalues(q, n):
    """(q^{n-1}, q^{-1}, ..., q^{-1}) sorted by (Re, Im)."""
    ev = np.array([q ** (n - 1)] + [1.0 / q] * (n - 1))
    return ev[np.lexsort((ev.imag, ev.real))]


def moment(x, y) -> np.ndarray:
    """Group-valued moment map x y x^{-1} y^{-1}, for x and y stacked alike
    as (..., n, n)."""
    return x @ y @ np.linalg.inv(x) @ np.linalg.inv(y)


def duality_map(x, y):
    """(x, y) -> (y^{-1}, y x y^{-1}) for x and y stacked alike as
    (..., n, n); preserves the moment map exactly.  Raises for the first
    pair off unit determinant."""
    _check_unimodular(x, y)
    yinv = np.linalg.inv(y)
    return yinv, y @ x @ yinv


def _centralizer_elements(m, samples, rng) -> np.ndarray:
    """Random determinant-1 elements commuting with m (m semisimple), stacked
    as (samples, n, n), from one (samples, 2, n) block of normals."""
    _, v = spectral(m)
    draws = rng.normal(size=(samples, 2, m.shape[0]))
    return v @ _diagonals(_unimodular_eigs(draws[:, 0], draws[:, 1], 0.3)) @ np.linalg.inv(v)


def fiber_check(x, y, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Check transversality of the two projection fibers through the pair
    (x, y), which ``_check_pair`` checks first.

    The first fiber is {(x, y z) : z in Z_x}, the second {(x z', y) :
    z' in Z_y}, centralizers computed from spectral decompositions.  For
    sampled z != 1 and z' != 1 some joint trace invariant must separate the
    two points: returns the (samples, samples) margins of
    ``calogero._separation_margins``.
    """
    x, y = _check_pair(x, y)
    return _separation_margins(x, y @ _centralizer_elements(x, samples, rng),
                               x @ _centralizer_elements(y, samples, rng), y)


def rank_one_consistency_oracle(x_eigs, q: complex) -> np.ndarray:
    """Dense solve of sum_i v_i / (x_j - q^{-1} x_i) = 1 for v_i = psi_i phi_i x_i,
    for x_eigs of shape (n,) or stacked as (..., n)."""
    x = np.asarray(x_eigs, dtype=complex)
    return _cauchy_solve(x[..., :, None] - x[..., None, :] / q,     # row j, column i
                         "x_j - q^{-1} x_i")[0]


def _reductions(x, ratio, q, ydiag) -> dict:
    """The reduction's columns for x and y_diag stacked as (samples, n),
    with ratio_ij = x_i/x_j.

    The pair is diag(x) and y, gauge phi_i = 1: y_diag fills the diagonal
    of y and y_ij = (1 - q^{-1}) y_jj / (x_i/x_j - q^{-1}) the rest.  Both
    factors are rescaled to unit determinant before pairing (the moment
    value is insensitive to scalar factors).  The products
    psi_i phi_i come from the consistency oracle; per sample,
    "psi-phi-corrected-residual" is how far the x_i-corrected closed form
    lies from them and "mu-eigenvalue-deviation" how far the eigenvalues of
    mu(x, y) lie from the class eigenvalues (q^{n-1}, q^{-1}, ..., q^{-1}).
    Each check raises for the first sample failing it."""
    n = x.shape[-1]
    products = rank_one_consistency_oracle(x, q) / x
    # the x_i-corrected product formula for psi_i phi_i; prod is named, as
    # calogero._SWEEP_CHUNK says
    prod = _ratio(1.0 - q * x[..., None, :] / x[..., :, None],
                  1.0 - np.swapaxes(ratio, -2, -1)).prod(axis=-1)
    corrected = (1.0 - 1.0 / q) * prod

    den = ratio - 1.0 / q
    _raise_first(np.abs(den).min(axis=(-2, -1)) < 1e-10, SingularChartPoint,
                 "reconstruction denominator vanishes")
    y = (1.0 - 1.0 / q) * ydiag[..., None, :] / den
    xmat, y = _unimodular(_diagonals(x)), _unimodular(y)
    # the checks of _check_pair, and the pairing of the rank-1 class
    _raise_first(~(np.isfinite(xmat).all(axis=(-2, -1)) & np.isfinite(y).all(axis=(-2, -1))),
                 NonFiniteMatrixError, "matrix has NaN or Inf entries")
    _check_unimodular(xmat, y)
    _check_pairing(q, products)

    got = np.linalg.eigvals(moment(xmat, y))
    got = np.take_along_axis(got, np.lexsort((got.imag, got.real), axis=-1), axis=-1)
    return {"mu-eigenvalue-deviation": np.abs(got - _class_eigenvalues(q, n)).max(axis=-1),
            "psi-phi-corrected-residual": _miss(corrected, products)}


def rank_one_samples(x, u, ydiag, q) -> dict:
    """The rank-1 checks of the relativistic spin Ruijsenaars system for
    samples x, u and y_diag of shape (samples, n), as named per-sample
    columns, in stacked passes with the lowest-index failure rule of
    ``calogero._stacked``: the two of ``_reductions``, then
    "trace-dual-path", the larger of the tr y and tr y^2 residuals of
    ``_dual_residuals``, and "h2-dual-path", its second-Hamiltonian one.
    Their y is ``_rank1_matrix``'s, y_ii = u_i prod_{j != i} own_ij/other_ij
    with (1 - q^{-1} x_i/x_j) off-diagonal denominators (internally
    consistent with the reduced trace formulas)."""
    def kernel(x, u, ydiag):
        _raise_first(np.abs(x).min(axis=-1) == 0.0, SingularChartPoint,
                     "x eigenvalues must be nonzero")
        ratio = x[..., :, None] / x[..., None, :]
        columns = _reductions(x, ratio, q, ydiag)
        # (own, other, c, s) = (1 - x_i/(q x_j), 1 - x_i/x_j, 1 - 1/q, q)
        own = 1.0 - x[..., :, None] / (q * x[..., None, :])
        c = 1.0 - 1.0 / q
        R, prod, y = _rank1_matrix(own, 1.0 - ratio, c, u)
        res = _dual_residuals(own, c, q, u, R, prod, y)[0]
        return {**columns, "trace-dual-path": np.maximum(res[..., 0], res[..., 1]),
                "h2-dual-path": res[..., 2]}

    return _stacked(kernel, x, u, ydiag)


# ----------------------------------------------------------------------
# flows on the full bracket chart
# ----------------------------------------------------------------------

def projection_invariants(n: int, family: str):
    """Conserved observables for the two reduced families on the (x, y) chart.

    ``family="cm"`` (Hamiltonians f(x)): traces of x, of mu~ = y x^{-1} y^{-1},
    and joint traces tr(x^a mu~^b).  ``family="ruijsenaars"`` (Hamiltonians
    f(y)): traces of y, of mu = x y x^{-1} y^{-1}, and joint traces, without
    tr(y mu) = tr(x y x^{-1}) = tr(y).  Each is a trace word in
    (main, aux) = (x, mu~) or (y, mu).
    """
    if family not in ("cm", "ruijsenaars"):
        raise ValueError(f"unknown family {family!r}")
    main, other = ("x", "mu~") if family == "cm" else ("y", "mu")
    words = {name: word for k in (1, 2) for name, word in
             ((f"tr({main}^{k})", (k, 0, 0, 0)), (f"tr({other}^{k})", (0, k, 0, 0)))}
    if family == "cm":
        words["tr(x mu~)"] = (1, 1, 0, 0)
    words[f"tr({main}^2 {other})"] = (2, 1, 0, 0)

    last = [None, None]         # the key of the states last tabulated, and their table

    def table(z):
        # every word by one trace_words call, once per stack of states, keyed
        # by their bytes, so states changed in place are not served a stale one
        key = (z.shape, z.dtype.str, z.tobytes())
        if last[0] != key:
            x, y = np.moveaxis(z.reshape(z.shape[:-1] + (2, n, n)), -3, 0)
            a, aux = ((x, y @ np.linalg.inv(x) @ np.linalg.inv(y)) if family == "cm"
                      else (y, moment(x, y)))
            last[:] = key, trace_words(a, aux, list(words.values()))
        return last[1]

    return [Observable(name=name, fn=lambda z, k=k: table(z)[..., k].copy())
            for k, name in enumerate(words)]


def double_flow_conservation(x, y, H: Observable, t_max: float, dt: float,
                             family: str = "cm") -> ConservationReport:
    """Integrate the flow of H on the full bracket chart from the pair
    (x, y), which ``_check_pair`` checks first, and monitor the projection
    invariants of the chosen family."""
    x, y = _check_pair(x, y)
    n = len(x)
    traj = rk4(chart_heisenberg_double(n), H, np.concatenate([x.ravel(), y.ravel()]), t_max, dt)
    return monitor(traj, projection_invariants(n, family))
