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
from .errors import FormulaMismatchError, ConsistencyError, SingularChartPoint
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
    "joint_invariants",
    "FiberSeparationReport",
    "duality_fiber_check",
]


def _check_traceless(v, name):
    if abs(np.sum(v)) > 1e-10 * max(1.0, np.abs(v).max()):
        raise ValueError(f"{name} must sum to zero (traceless normalization)")


def _check_distinct(h, gap=1e-8):
    close = np.abs(h[:, None] - h[None, :]) < gap
    np.fill_diagonal(close, False)
    if close.any():
        i, j = np.argwhere(close)[0]        # row-major, so i < j
        raise SingularChartPoint(f"positions {i} and {j} closer than {gap:g}")


# ----------------------------------------------------------------------
# rank-1 kernels shared with the relativistic systems in ``double``
# ----------------------------------------------------------------------

def _cauchy_solve(den, label: str) -> np.ndarray:
    """Solve sum_i w_i / den[j, i] = 1 for every j by a dense solve.

    Rejects |den| < 1e-10 and checks the residual against
    ``TOL.oracle_residual * max(1, |w|)``; ``label`` names the denominator
    in the error messages.
    """
    if np.abs(den).min() < 1e-10:
        raise SingularChartPoint(f"vanishing denominator {label}")
    C = 1.0 / den
    w = np.linalg.solve(C, np.ones(len(den), dtype=complex))
    residual = np.abs(C @ w - 1.0).max()
    if residual > TOL.oracle_residual * max(1.0, np.abs(w).max()):
        raise ConsistencyError(f"solve residual {residual:.3g} ({label})")
    return w


def _ratio(num, den) -> np.ndarray:
    """R = num / den off the diagonal and 1 on it; the diagonal is never divided."""
    n = len(num)
    return np.divide(num, den, out=np.ones((n, n), dtype=complex),
                     where=~np.eye(n, dtype=bool))


def _row_products(num, den) -> np.ndarray:
    """prod_{j != i} num[i, j] / den[i, j] for every i."""
    return _ratio(num, den).prod(axis=1)


def _pair_products(num, den):
    """prod_{a in {i, j}, b not in {i, j}} num[a, b] / den[a, b] for every
    pair i < j; returns (i, j, products) with the pairs in row-major order.

    A masked (pairs x 2n) reduction.  Dividing P_i P_j by R_ij R_ji instead
    would lose accuracy where num[i, j] or num[j, i] nears zero.
    """
    R = _ratio(num, den)
    b = np.arange(len(R))
    i, j = np.nonzero(b[:, None] < b)
    inside = (b == i[:, None]) | (b == j[:, None])
    factors = np.hstack([np.where(inside, 1.0, R[i]), np.where(inside, 1.0, R[j])])
    return i, j, factors.prod(axis=1)


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
        _check_distinct(self.h)

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


def solve_phi_psi_oracle(h, kappa: complex) -> np.ndarray:
    """Solve the Cauchy-type system sum_i w_i/(h_i - h_j + kappa) = 1 for w.

    Direct dense solve; this is the oracle against which closed forms are
    judged.  Denominators must stay away from zero.
    """
    h = np.asarray(h, dtype=complex).ravel()
    return _cauchy_solve(h[None, :] - h[:, None] + kappa,   # row j, column i
                         "h_i - h_j + kappa")


def _bare_product(h, kappa):
    d = h[:, None] - h[None, :]
    return _row_products(d + kappa, d)


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
    bare = _bare_product(h, kappa)
    scaled = kappa * bare
    scale = max(1.0, np.abs(w).max())
    res_bare = np.abs(bare - w).max() / scale
    res_scaled = np.abs(scaled - w).max() / scale
    if res_scaled <= TOL.formula_match:
        return PhiPsiSelection(scaled, "kappa-scaled", res_bare, res_scaled)
    if res_bare <= TOL.formula_match:
        return PhiPsiSelection(bare, "bare", res_bare, res_scaled)
    if min(res_bare, res_scaled) <= TOL.formula_reject:
        matched = "kappa-scaled" if res_scaled < res_bare else "bare"
        values = scaled if res_scaled < res_bare else bare
        return PhiPsiSelection(values, matched, res_bare, res_scaled)
    raise FormulaMismatchError(
        f"no candidate matches the oracle (bare {res_bare:.3g}, "
        f"kappa-scaled {res_scaled:.3g})")


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
        _check_distinct(self.h)
        near = np.abs(self.h[:, None] - self.h[None, :] + self.kappa) < 1e-8
        np.fill_diagonal(near, False)
        if near.any():
            raise SingularChartPoint(
                "denominator h_i - h_j + kappa too close to zero")

    @property
    def n(self) -> int:
        return len(self.h)


def _g_diagonal(point: RuijPoint) -> np.ndarray:
    return point.u * _bare_product(point.h, point.kappa)


def reconstruct_g(point: RuijPoint) -> np.ndarray:
    """Rebuild the group element g from the reduced coordinates.

    Gauge phi_i = 1.  Diagonal: g_ii = u_i prod_{j!=i}(h_i-h_j+kappa)/(h_i-h_j).
    Off-diagonal: g_ij = kappa g_jj / (h_i - h_j + kappa).  Together with
    x = diag(h) and mu = 1 w^T - kappa id (w from the oracle) the rebuilt g
    satisfies the defining relation (h_i - h_j) g_ij = sum_k mu_ik g_kj.
    """
    gdiag = _g_diagonal(point)
    den = point.h[:, None] - point.h[None, :] + point.kappa
    return np.divide(point.kappa * gdiag[None, :], den, out=np.diag(gdiag),
                     where=~np.eye(point.n, dtype=bool))


def relation_residual(point: RuijPoint) -> float:
    """Residual of (h_i - h_j) g_ij = sum_k mu_ik g_kj for the rebuilt g."""
    g = reconstruct_g(point)
    w = solve_phi_psi_oracle(point.h, point.kappa)
    mu = np.outer(np.ones(point.n), w) - point.kappa * np.eye(point.n)
    lhs = (point.h[:, None] - point.h[None, :]) * g
    return float(np.abs(lhs - mu @ g).max() / max(1.0, np.abs(g).max()))


def _characters_reduced(point: RuijPoint):
    gdiag = _g_diagonal(point)
    tr1 = np.sum(gdiag)
    den = point.h[:, None] - point.h[None, :]
    tr2 = np.sum(point.kappa ** 2 * np.outer(gdiag, gdiag)
                 / ((den + point.kappa) * (-den + point.kappa)))
    return tr1, tr2


def character_residuals(point: RuijPoint) -> dict:
    """Reduced-formula vs matrix-trace residuals for tr g, tr g^2 and both
    Hamiltonian routes."""
    g = reconstruct_g(point)
    tr_mat = traces_of_powers(g, 2)
    tr1, tr2 = _characters_reduced(point)
    h_char = 0.5 * (tr_mat[1] - tr_mat[0] ** 2)
    h_prod = _h_ruij_product(point)
    scale = max(1.0, np.abs(tr_mat).max())
    return {
        "tr_g": abs(tr_mat[0] - tr1) / scale,
        "tr_g2": abs(tr_mat[1] - tr2) / scale,
        "h_ruijsenaars": abs(h_char - h_prod) / max(1.0, abs(h_char)),
    }


def ruij_characters(point: RuijPoint, kmax: int) -> np.ndarray:
    """(tr g, tr g^2, ..., tr g^kmax) from the rebuilt matrix.

    For k <= 2 the values are cross-checked against the reduced closed
    formulas; disagreement beyond ``TOL.dual_path_reject`` raises.
    """
    g = reconstruct_g(point)
    traces = traces_of_powers(g, kmax)
    tr1, tr2 = _characters_reduced(point)
    scale = max(1.0, np.abs(traces[:2]).max() if kmax >= 2 else abs(traces[0]))
    if abs(traces[0] - tr1) > TOL.dual_path_reject * scale:
        raise ConsistencyError("tr g: reduced formula disagrees with matrix trace")
    if kmax >= 2 and abs(traces[1] - tr2) > TOL.dual_path_reject * scale:
        raise ConsistencyError("tr g^2: reduced formula disagrees with matrix trace")
    return traces


def _h_ruij_product(point: RuijPoint) -> complex:
    d = point.h[:, None] - point.h[None, :]
    i, j, prods = _pair_products(d + point.kappa, d)
    return -np.sum(point.u[i] * point.u[j] * prods)


def h_rational_ruijsenaars(point: RuijPoint) -> complex:
    """Second character Hamiltonian, evaluated along two routes.

    Route one: (tr g^2 - (tr g)^2)/2 from the rebuilt matrix.  Route two:
    -sum_{i<j} u_i u_j prod_{a in {i,j}, b outside} (h_a-h_b+kappa)/(h_a-h_b).
    The two must agree to ``TOL.dual_path``; the matrix route is returned.
    For n = 2 the product is empty and the value reduces to -u_1 u_2.
    """
    g = reconstruct_g(point)
    tr = traces_of_powers(g, 2)
    via_char = 0.5 * (tr[1] - tr[0] ** 2)
    via_prod = _h_ruij_product(point)
    if abs(via_char - via_prod) > TOL.dual_path * max(1.0, abs(via_char)):
        raise ConsistencyError(
            f"Hamiltonian routes disagree: {abs(via_char - via_prod):.3g}")
    return via_char


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
    vals = []
    for i in range(max_exp + 1):
        for j in range(max_exp + 1):
            for k in range(max_exp + 1):
                for l in range(max_exp + 1):
                    if i + j + k + l == 0:
                        continue
                    vals.append(np.trace(pa[i] @ pb[j] @ pa[k] @ pb[l]))
    return np.array(vals)


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


def _separation_report(first, second, base1, base2,
                       threshold: float) -> FiberSeparationReport:
    """Margins between two sampled fibers, each a list of (a, b) pairs.

    ``base1`` and ``base2`` are the base pair in the first and in the second
    parametrisation.  The joint invariants are computed once per sample.
    """
    base = joint_invariants(*base1)

    def table(fiber):       # (samples, invariants), also for zero samples
        return np.reshape([joint_invariants(a, b) for a, b in fiber], (-1, len(base)))

    margins = np.abs(table(first)[:, None, :] - table(second)[None, :, :]).max(axis=2)
    coincident = float(np.abs(base - joint_invariants(*base2)).max())
    return FiberSeparationReport(margins=margins, threshold=threshold,
                                 coincident_margin=coincident)


def _torus_element(n, rng) -> np.ndarray:
    lam = np.exp(rng.normal(size=n - 1) * 0.4 + 1j * rng.normal(size=n - 1) * 0.4)
    full = np.append(lam, 1.0 / np.prod(lam))
    return np.diag(full)


def duality_fiber_check(x, gamma, samples: int = 4,
                        rng: np.random.Generator = None,
                        threshold: float = None) -> FiberSeparationReport:
    """Check that the two reduced-system fibers through (x, gamma) only meet
    at the base point.

    The first fiber moves gamma by the centralizer torus of the diagonal x:
    points (x, gamma z).  The second moves x inside the centralizer of gamma:
    points (x + c, gamma) with c = V diag(...) V^{-1} traceless, V the
    eigenvector matrix of gamma.  For every sampled pair (z != 1, c != 0)
    some joint trace invariant must separate them.
    """
    rng = rng or np.random.default_rng(0)
    threshold = TOL.separation_margin if threshold is None else threshold
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
        (x + v @ np.zeros((n, n)) @ np.linalg.inv(v), gamma), threshold)
