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
(the same product multiplied by kappa).  The dense solve is the oracle and
arbitrates; the kappa-scaled form is the one that satisfies the system
(already visible at n = 1, where the system forces w_1 = kappa).
"""

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import (ConsistencyError, DegintError, FormulaMismatchError,
                     NonFiniteMatrixError, SingularChartPoint)
from .matrixcore import as_matrix, mat_exp, spectral, traces_of_powers

__all__ = [
    "CMPoint",
    "SpinData",
    "RuijPoint",
    "h_cm",
    "h_scm",
    "quadratic_casimir_gradient",
    "cm_central_flow",
    "solve_phi_psi_oracle",
    "PhiPsiSelection",
    "phi_psi_closed_form",
    "reconstruct_g",
    "ruij_characters",
    "character_residuals",
    "h_rational_ruijsenaars",
    "ruij_sweep",
    "joint_invariants",
    "FiberSeparationReport",
    "duality_fiber_check",
]


def _check_traceless(v, name):
    if abs(np.sum(v)) > 1e-10 * max(1.0, np.abs(v).max()):
        raise ValueError(f"{name} must sum to zero (traceless normalization)")


def _raise_first(bad, error, message: str, value=None):
    """Raise ``error`` for the first sample flagged in ``bad`` (one flag per
    sample), recording its index as ``sample`` and quoting its ``value``."""
    flagged = np.flatnonzero(bad)
    if flagged.size:
        k = int(flagged[0])
        exc = error(message if value is None else f"{message} {np.ravel(value)[k]:.3g}")
        exc.sample = k
        raise exc


def _check_chart(h, kappa=None):
    """Distinct positions and, given kappa, h_i - h_j + kappa away from zero,
    for every stacked h."""
    d = h[..., :, None] - h[..., None, :]
    off = ~np.eye(h.shape[-1], dtype=bool)
    _raise_first(((np.abs(d) < 1e-8) & off).any(axis=(-2, -1)), SingularChartPoint,
                 "two positions closer than 1e-08")
    if kappa is not None:
        _raise_first(((np.abs(d + kappa) < 1e-8) & off).any(axis=(-2, -1)),
                     SingularChartPoint, "denominator h_i - h_j + kappa too close to zero")


# ----------------------------------------------------------------------
# rank-1 kernels shared with the relativistic systems in ``double``; each
# acts on a stack of points along its leading axes
# ----------------------------------------------------------------------

def _cauchy_solve(den, label: str):
    """Solve sum_i w_i / den[..., j, i] = 1 for every j by one stacked dense
    solve; returns (w, residual), residual = max_j |sum_i w_i / den[j, i] - 1|.

    Rejects |den| < 1e-10 before dividing, and a residual above
    ``TOL.oracle_residual * max(1, |w|)``; ``label`` names den in messages.
    """
    _raise_first(np.abs(den).min(axis=(-2, -1)) < 1e-10, SingularChartPoint,
                 f"vanishing denominator {label}")
    C = 1.0 / den
    w = np.linalg.solve(C, np.ones(den.shape[:-1] + (1,), dtype=complex))
    residual = np.abs(C @ w - 1.0).max(axis=(-2, -1))
    w = w[..., 0]
    _raise_first(residual > TOL.oracle_residual * np.maximum(1.0, np.abs(w).max(axis=-1)),
                 ConsistencyError, f"{label} solve residual", residual)
    return w, residual


def _ratio(num, den) -> np.ndarray:
    """R = num / den off the diagonal and 1 on it; the diagonal is never divided."""
    return np.divide(num, den, out=np.ones(num.shape, dtype=complex),
                     where=~np.eye(num.shape[-1], dtype=bool))


def _pair_products(R):
    """prod_{a in {i, j}, b not in {i, j}} R[..., a, b] for every pair i < j;
    returns (i, j, products) with the pairs in row-major order.

    A masked (pairs x 2n) reduction.  Dividing P_i P_j by R_ij R_ji instead
    would lose accuracy where R_ij or R_ji nears zero.
    """
    b = np.arange(R.shape[-1])
    i, j = np.nonzero(b[:, None] < b)
    inside = (b == i[:, None]) | (b == j[:, None])
    factors = np.concatenate([np.where(inside, 1.0, R[..., i, :]),
                              np.where(inside, 1.0, R[..., j, :])], axis=-1)
    return i, j, factors.prod(axis=-1)


@dataclass(frozen=True)
class CMPoint:
    """Reduced Calogero-Moser point: momenta p, positions h, coupling kappa.

    For the compact (trigonometric) Hamiltonian the h_i are read as angles.
    """

    p: np.ndarray
    h: np.ndarray
    kappa: complex

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=complex).ravel())
        object.__setattr__(self, "h", np.asarray(self.h, dtype=complex).ravel())
        if self.p.shape != self.h.shape:
            raise ValueError("p and h must have the same length")
        _check_traceless(self.p, "p")
        _check_traceless(self.h, "h")
        _check_chart(self.h)

    @property
    def n(self) -> int:
        return len(self.h)


@dataclass(frozen=True)
class SpinData:
    """Spin matrix mu with vanishing diagonal (the torus-reduction constraint)."""

    mu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", as_matrix(self.mu))
        if np.abs(np.diag(self.mu)).max() > 1e-12 * max(1.0, np.abs(self.mu).max()):
            raise ValueError("spin matrix must have zero diagonal")

    @classmethod
    def rank_one(cls, phi, kappa: complex) -> "SpinData":
        """mu = phi psi^T - kappa id with psi_i = kappa / phi_i.

        The choice of psi makes every diagonal entry vanish and gives
        mu_ij mu_ji = kappa^2 off the diagonal.
        """
        phi = np.asarray(phi, dtype=complex).ravel()
        if np.abs(phi).min() == 0.0:
            raise ValueError("phi entries must be nonzero")
        psi = kappa / phi
        return cls(np.outer(phi, psi) - kappa * np.eye(len(phi)))


def h_cm(point: CMPoint) -> float:
    """Trigonometric rank-1 Hamiltonian <p, p> + sum kappa^2 / (4 sin^2((q_i-q_j)/2)).

    Positions are read as angles; coincident angles (mod 2 pi) are singular.
    Inputs are expected real up to 1e-10 imaginary residue.
    """
    p, q, kappa = point.p, point.h, point.kappa
    value = np.dot(p, p)
    for i in range(point.n):
        for j in range(i + 1, point.n):
            s = np.sin((q[i] - q[j]) / 2.0)
            if abs(s) < 1e-12:
                raise SingularChartPoint("coincident angles in the potential")
            value += kappa ** 2 / (4.0 * s ** 2)
    if abs(value.imag) > 1e-10 * max(1.0, abs(value)):
        raise ValueError("imaginary residue in the real-form Hamiltonian")
    return float(value.real)


def h_scm(point: CMPoint, spin: SpinData, denominators: str = "rational") -> complex:
    """Spin Hamiltonian <p, p> + sum_{i<j} mu_ij mu_ji / d_ij.

    ``denominators="rational"`` uses d_ij = (h_i - h_j)^2; ``"trigonometric"``
    uses d_ij = 4 sin^2((h_i - h_j)/2) with positions read as angles.  Both
    realizations are exposed because the reduced pairing can be taken in
    either the additive or the compact picture.
    """
    mu = spin.mu
    if mu.shape[0] != point.n:
        raise ValueError("spin matrix size does not match the point")
    value = np.dot(point.p, point.p)
    for i in range(point.n):
        for j in range(i + 1, point.n):
            if denominators == "rational":
                d = (point.h[i] - point.h[j]) ** 2
            elif denominators == "trigonometric":
                d = 4.0 * np.sin((point.h[i] - point.h[j]) / 2.0) ** 2
            else:
                raise ValueError(f"unknown denominator variant {denominators!r}")
            if abs(d) < 1e-14:
                raise SingularChartPoint("singular denominator in spin Hamiltonian")
            value += mu[i, j] * mu[j, i] / d
    return complex(value)


def quadratic_casimir_gradient(x) -> np.ndarray:
    """Trace-form gradient of the quadratic Casimir F = tr(x^2)/2."""
    return as_matrix(x)


def cm_central_flow(x, g, grad_f, t: float):
    """Flow of a central function F: (x, g) -> (x, exp(t grad F(x)) g).

    ``grad_f`` maps the matrix x to the trace-form gradient of F at x.  The
    first component never moves; because grad F(x) commutes with x, the pair
    (x, g x g^{-1}) moves by simultaneous conjugation, so all joint trace
    invariants are preserved.
    """
    x = as_matrix(x)
    g = as_matrix(g)
    return x, mat_exp(t * as_matrix(grad_f(x))) @ g


def _phi_psi_solve(h, kappa):
    """(w, residual) of the oracle solve for every stacked h."""
    return _cauchy_solve(h[..., None, :] - h[..., :, None] + kappa,   # row j, column i
                         "h_i - h_j + kappa")


def solve_phi_psi_oracle(h, kappa: complex) -> np.ndarray:
    """Solve the Cauchy-type system sum_i w_i/(h_i - h_j + kappa) = 1 for w.

    Direct dense solve; this is the oracle against which closed forms are
    judged.  Denominators must stay away from zero.
    """
    return _phi_psi_solve(np.asarray(h, dtype=complex).ravel(), kappa)[0]


def _ruij_parts(h, u, kappa):
    """(R, bare, g) for every stacked point: R_ij = (h_i-h_j+kappa)/(h_i-h_j)
    off the diagonal, the bare products prod_{j != i} R_ij, and g with
    g_ii = u_i bare_i, g_ij = kappa g_jj / (h_i - h_j + kappa)."""
    d = h[..., :, None] - h[..., None, :]
    R = _ratio(d + kappa, d)
    bare = R.prod(axis=-1)
    gdiag = u * bare
    n = h.shape[-1]
    g = np.divide(kappa * gdiag[..., None, :], d + kappa,
                  out=gdiag[..., None, :] * np.eye(n), where=~np.eye(n, dtype=bool))
    return R, bare, g


def _select(w, bare, kappa):
    """(kappa_scaled, res_bare, res_scaled) against the oracle w: kappa-scaled
    is picked within ``TOL.formula_match`` or when closer; raises if neither
    is within ``TOL.formula_reject``."""
    scale = np.maximum(1.0, np.abs(w).max(axis=-1))
    res_bare = np.abs(bare - w).max(axis=-1) / scale
    res_scaled = np.abs(kappa * bare - w).max(axis=-1) / scale
    _raise_first(~(np.minimum(res_bare, res_scaled) <= TOL.formula_reject),
                 FormulaMismatchError, "no candidate matches the oracle; bare residual",
                 res_bare)
    return (res_scaled <= TOL.formula_match) | (res_scaled < res_bare), res_bare, res_scaled


@dataclass(frozen=True)
class PhiPsiSelection:
    """Oracle-arbitrated product formula for the phi_i psi_i."""

    values: np.ndarray
    matched: str                 # "kappa-scaled" or "bare"
    residual_bare: float
    residual_kappa_scaled: float


def phi_psi_closed_form(h, kappa: complex) -> PhiPsiSelection:
    """Evaluate both product-formula candidates and return the oracle's pick.

    Candidates: bare  prod_{j!=i} (h_i-h_j+kappa)/(h_i-h_j)  and the same
    scaled by kappa.  Exactly one of them solves the defining system; which
    one is recorded in the result.  Raises when neither candidate is within
    ``TOL.formula_reject`` of the oracle.
    """
    h = np.asarray(h, dtype=complex).ravel()
    w = solve_phi_psi_oracle(h, kappa)
    bare = _ruij_parts(h, 1.0, kappa)[1]       # u drops out of the bare products
    scaled, res_bare, res_scaled = _select(w, bare, kappa)
    return PhiPsiSelection(kappa * bare if scaled else bare,
                           "kappa-scaled" if scaled else "bare", res_bare, res_scaled)


@dataclass(frozen=True)
class RuijPoint:
    """Reduced rational Ruijsenaars point (h, u, kappa) in the log-canonical chart."""

    h: np.ndarray
    u: np.ndarray
    kappa: complex

    def __post_init__(self):
        object.__setattr__(self, "h", np.asarray(self.h, dtype=complex).ravel())
        object.__setattr__(self, "u", np.asarray(self.u, dtype=complex).ravel())
        if self.h.shape != self.u.shape:
            raise ValueError("h and u must have the same length")
        _check_chart(self.h, self.kappa)

    @property
    def n(self) -> int:
        return len(self.h)


def reconstruct_g(point: RuijPoint) -> np.ndarray:
    """Rebuild the group element g from the reduced coordinates.

    Gauge phi_i = 1.  Diagonal: g_ii = u_i prod_{j!=i}(h_i-h_j+kappa)/(h_i-h_j).
    Off-diagonal: g_ij = kappa g_jj / (h_i - h_j + kappa).  Together with
    x = diag(h) and mu = 1 w^T - kappa id (w from the oracle) the rebuilt g
    satisfies the defining relation (h_i - h_j) g_ij = sum_k mu_ik g_kj.
    """
    return _ruij_parts(point.h, point.u, point.kappa)[2]


def _relation_residual(h, kappa, w, g):
    mu = w[..., None, :] - kappa * np.eye(h.shape[-1])       # 1 w^T - kappa id
    return (np.abs((h[..., :, None] - h[..., None, :]) * g - mu @ g).max(axis=(-2, -1))
            / np.maximum(1.0, np.abs(g).max(axis=(-2, -1))))


def relation_residual(point: RuijPoint) -> float:
    """Residual of (h_i - h_j) g_ij = sum_k mu_ik g_kj for the rebuilt g."""
    return float(_relation_residual(point.h, point.kappa,
                                    solve_phi_psi_oracle(point.h, point.kappa),
                                    reconstruct_g(point)))


def _characters_reduced(h, kappa, g):
    """(tr g, tr g^2) from the reduced closed formulas, which read only diag g."""
    gdiag = np.diagonal(g, axis1=-2, axis2=-1)
    d = h[..., :, None] - h[..., None, :]
    tr2 = np.sum(kappa ** 2 * (gdiag[..., :, None] * gdiag[..., None, :])
                 / ((d + kappa) * (-d + kappa)), axis=(-2, -1))
    return gdiag.sum(axis=-1), tr2


def _dual_residuals(h, u, kappa, R, g, traces):
    """Matrix ``traces`` (tr g, tr g^2) vs the reduced formulas, and character
    vs product route of the Hamiltonian."""
    (tr, tr_sq), (tr1, tr2) = traces, _characters_reduced(h, kappa, g)
    i, j, prods = _pair_products(R)
    h_prod = -np.sum(u[..., i] * u[..., j] * prods, axis=-1)
    h_char = 0.5 * (tr_sq - tr ** 2)
    scale = np.maximum(1.0, np.maximum(np.abs(tr), np.abs(tr_sq)))
    return (np.abs(tr - tr1) / scale, np.abs(tr_sq - tr2) / scale,
            np.abs(h_char - h_prod) / np.maximum(1.0, np.abs(h_char)))


def character_residuals(point: RuijPoint) -> dict:
    """Reduced-formula vs matrix-trace residuals for tr g, tr g^2 and both
    Hamiltonian routes."""
    R, _, g = _ruij_parts(point.h, point.u, point.kappa)
    return dict(zip(("tr_g", "tr_g2", "h_ruijsenaars"), _dual_residuals(
        point.h, point.u, point.kappa, R, g, traces_of_powers(g, 2))))


def ruij_characters(point: RuijPoint, kmax: int) -> np.ndarray:
    """(tr g, tr g^2, ..., tr g^kmax) from the rebuilt matrix.

    For k <= 2 the values are cross-checked against the reduced closed
    formulas; disagreement beyond ``TOL.dual_path_reject`` raises.
    """
    g = reconstruct_g(point)
    traces = traces_of_powers(g, kmax)
    tr1, tr2 = _characters_reduced(point.h, point.kappa, g)
    scale = max(1.0, np.abs(traces[:2]).max() if kmax >= 2 else abs(traces[0]))
    if abs(traces[0] - tr1) > TOL.dual_path_reject * scale:
        raise ConsistencyError("tr g: reduced formula disagrees with matrix trace")
    if kmax >= 2 and abs(traces[1] - tr2) > TOL.dual_path_reject * scale:
        raise ConsistencyError("tr g^2: reduced formula disagrees with matrix trace")
    return traces


def h_rational_ruijsenaars(point: RuijPoint) -> complex:
    """Second character Hamiltonian, evaluated along two routes.

    Route one: (tr g^2 - (tr g)^2)/2 from the rebuilt matrix.  Route two:
    -sum_{i<j} u_i u_j prod_{a in {i,j}, b outside} (h_a-h_b+kappa)/(h_a-h_b).
    The two must agree to ``TOL.dual_path``; the matrix route is returned.
    For n = 2 the product is empty and the value reduces to -u_1 u_2.
    """
    R, _, g = _ruij_parts(point.h, point.u, point.kappa)
    tr = traces_of_powers(g, 2)
    residual = _dual_residuals(point.h, point.u, point.kappa, R, g, tr)[2]
    if residual > TOL.dual_path:
        raise ConsistencyError(f"Hamiltonian routes disagree: {residual:.3g}")
    return 0.5 * (tr[1] - tr[0] ** 2)


# Samples per stacked pass of ``ruij_sweep``; bounds its working memory.
_SWEEP_CHUNK = 64


def ruij_sweep(h, u, kappa: complex) -> dict:
    """The values and checks of ``solve_phi_psi_oracle``, ``phi_psi_closed_form``,
    ``relation_residual`` and ``character_residuals`` for samples h, u of
    shape (samples, n), as named columns, in stacked passes of
    ``_SWEEP_CHUNK`` samples with one Cauchy solve each.  When samples fail,
    the lowest-index one raises, with the checks in the per-point order.
    """
    h = np.asarray(h, dtype=complex)
    u = np.asarray(u, dtype=complex)
    passes = [_sweep_pass(h[s:s + _SWEEP_CHUNK], u[s:s + _SWEEP_CHUNK], kappa)
              for s in range(0, max(len(h), 1), _SWEEP_CHUNK)]
    return {name: np.concatenate([p[name] for p in passes]) for name in passes[0]}


def _sweep_pass(h, u, kappa) -> dict:
    try:
        _check_chart(h, kappa)
        w, oracle = _phi_psi_solve(h, kappa)
        R, bare, g = _ruij_parts(h, u, kappa)
        scaled, res_bare, res_scaled = _select(w, bare, kappa)
        _raise_first(~np.isfinite(g).all(axis=(-2, -1)), NonFiniteMatrixError,
                     "matrix has NaN or Inf entries")
    except DegintError as exc:
        # a lower sample that fails a later check raises instead
        _sweep_pass(h[:exc.sample], u[:exc.sample], kappa)
        raise
    traces = np.trace(g, axis1=-2, axis2=-1), np.trace(g @ g, axis1=-2, axis2=-1)
    tr_g, tr_g2, h_rR = _dual_residuals(h, u, kappa, R, g, traces)
    return {"oracle-residual": oracle,
            "matched": np.where(scaled, "kappa-scaled", "bare"),
            "kappa-scaled-residual": res_scaled, "bare-residual": res_bare,
            "relation-residual": _relation_residual(h, kappa, w, g),
            "tr-g-dual": tr_g, "tr-g2-dual": tr_g2, "h-rR-dual": h_rR}


# ----------------------------------------------------------------------
# duality diagnostics
# ----------------------------------------------------------------------

def joint_invariants(a, b, max_exp: int = 2) -> np.ndarray:
    """All joint conjugation invariants tr(a^i b^j a^k b^l), exponents <= max_exp."""
    a, b = as_matrix(a), as_matrix(b)
    n = a.shape[0]
    pa = [np.eye(n, dtype=complex)]
    pb = [np.eye(n, dtype=complex)]
    for _ in range(max_exp):
        pa.append(pa[-1] @ a)
        pb.append(pb[-1] @ b)
    return np.array([np.trace(pa[i] @ pb[j] @ pa[k] @ pb[l])       # nested-loop order
                     for i, j, k, l in np.ndindex((max_exp + 1,) * 4) if i + j + k + l])


@dataclass(frozen=True)
class FiberSeparationReport:
    """Pairwise separation margins between two sampled fibers.

    ``margins[i, j]`` is the largest difference of any joint trace invariant
    between the i-th sample of the first fiber and the j-th sample of the
    second.  Pairs below the threshold are inconclusive (flagged, not
    failed).  ``coincident_margin`` is the margin between the two base
    points, which must be zero.
    """

    margins: np.ndarray
    threshold: float
    coincident_margin: float

    @property
    def all_separated(self) -> bool:
        return bool((self.margins > self.threshold).all())

    @property
    def inconclusive_pairs(self):
        return [tuple(ij) for ij in np.argwhere(self.margins <= self.threshold)]


def _separation_report(first, second, base1, base2) -> FiberSeparationReport:
    """Margins between two sampled fibers, each a list of (a, b) pairs.

    ``base1`` and ``base2`` are the base pair in the first and in the second
    parametrisation.  The joint invariants are computed once per sample.
    """
    base = joint_invariants(*base1)

    def table(fiber):       # (samples, invariants), also for zero samples
        return np.reshape([joint_invariants(a, b) for a, b in fiber], (-1, len(base)))

    margins = np.abs(table(first)[:, None, :] - table(second)[None, :, :]).max(axis=2)
    coincident = float(np.abs(base - joint_invariants(*base2)).max())
    return FiberSeparationReport(margins=margins, threshold=TOL.separation_margin,
                                 coincident_margin=coincident)


def _torus_element(n, rng) -> np.ndarray:
    lam = np.exp(rng.normal(size=n - 1) * 0.4 + 1j * rng.normal(size=n - 1) * 0.4)
    full = np.append(lam, 1.0 / np.prod(lam))
    return np.diag(full)


def duality_fiber_check(x, gamma, samples: int = 4,
                        rng: np.random.Generator = None) -> FiberSeparationReport:
    """Check that the two reduced-system fibers through (x, gamma) only meet
    at the base point.

    The first fiber moves gamma by the centralizer torus of the diagonal x:
    points (x, gamma z).  The second moves x inside the centralizer of gamma:
    points (x + c, gamma) with c = V diag(...) V^{-1} traceless, V the
    eigenvector matrix of gamma.  For every sampled pair (z != 1, c != 0)
    some joint trace invariant must separate them.
    """
    rng = rng or np.random.default_rng(0)
    x = as_matrix(x)
    gamma = as_matrix(gamma)
    n = x.shape[0]
    if np.abs(x - np.diag(np.diag(x))).max() > 1e-12:
        raise ValueError("x must be diagonal (regular cross-section)")
    _, v = spectral(gamma)

    first = [(x, gamma @ _torus_element(n, rng)) for _ in range(samples)]
    second = []
    for _ in range(samples):
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        c -= c.mean()
        second.append((x + v @ np.diag(c) @ np.linalg.inv(v), gamma))

    # z = 1, c = 0: both parametrizations land on the base point
    return _separation_report(
        first, second, (x, gamma @ np.eye(n)),
        (x + v @ np.zeros((n, n)) @ np.linalg.inv(v), gamma))
