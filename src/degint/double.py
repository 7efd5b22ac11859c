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
  i.e. the naive form with its stray x_i^{-1} prefactor dropped;
* the off-diagonal reconstruction uses denominators (x_i/x_j - q^{-1});
  with (1 - q^{-1} x_i/x_j) instead, mu lands in the class of q^{-1} rather
  than q (the two conventions are exchanged by q -> 1/q);
* the diagonal map from log-canonical u to y_ii uses own-over-other ratios
  (1 - q^{-1} x_i/x_j)/(1 - x_i/x_j), which is the direction that makes the
  second Hamiltonian's product formula agree with its character route.
"""

from dataclasses import dataclass

import numpy as np

from .calogero import (
    FiberSeparationReport,
    _cauchy_solve,
    _pair_products,
    _ratio,
    _separation_report,
)
from .config import TOL
from .errors import ConsistencyError, ReductionFailedError, SingularChartPoint
from .integrate import ConservationReport, monitor, rk4
from .matrixcore import as_matrix, spectral, traces_of_powers
from .poisson import Observable, chart_heisenberg_double

__all__ = [
    "DoublePoint",
    "RankOneClass",
    "moment",
    "duality_map",
    "inverse_duality_map",
    "fiber_check",
    "rank_one_consistency_oracle",
    "RankOneReduction",
    "rank_one_reduction",
    "RelativisticHamiltonians",
    "relativistic_hamiltonians",
    "entry_observable",
    "trace_power_observable",
    "double_flow_conservation",
]


@dataclass(frozen=True)
class DoublePoint:
    """Pair of unimodular matrices (x, y)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x, y = as_matrix(self.x), as_matrix(self.y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.shape != y.shape:
            raise ValueError("x and y must have the same size")
        for name, m in (("x", x), ("y", y)):
            if abs(np.linalg.det(m) - 1.0) > 1e-9 * max(1.0, np.abs(m).max() ** m.shape[0]):
                raise ValueError(f"det {name} must be 1 (got {np.linalg.det(m):.6g})")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def as_point(self) -> np.ndarray:
        return np.concatenate([self.x.ravel(), self.y.ravel()])


@dataclass(frozen=True)
class RankOneClass:
    """Rank-1 conjugacy class data: z = phi psi^T + q^{-1} id.

    Invariants: (phi, psi) = q^{n-1} - q^{-1}, and the eigenvalues of z are
    (q^{n-1}, q^{-1}, ..., q^{-1}).
    """

    q: complex
    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=complex).ravel()
        psi = np.asarray(self.psi, dtype=complex).ravel()
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)
        if self.q == 0:
            raise ValueError("q must be nonzero")
        n = len(phi)
        target = self.q ** (n - 1) - 1.0 / self.q
        if abs(np.dot(phi, psi) - target) > 1e-10 * max(1.0, abs(target)):
            raise ValueError("(phi, psi) must equal q^(n-1) - q^(-1)")

    @property
    def n(self) -> int:
        return len(self.phi)

    def matrix(self) -> np.ndarray:
        return np.outer(self.phi, self.psi) + np.eye(self.n) / self.q

    def eigenvalues(self) -> np.ndarray:
        n = self.n
        ev = np.array([self.q ** (n - 1)] + [1.0 / self.q] * (n - 1))
        return ev[np.lexsort((ev.imag, ev.real))]


def moment(pt: DoublePoint) -> np.ndarray:
    """Group-valued moment map x y x^{-1} y^{-1}."""
    return pt.x @ pt.y @ np.linalg.inv(pt.x) @ np.linalg.inv(pt.y)


def duality_map(pt: DoublePoint) -> DoublePoint:
    """(x, y) -> (y^{-1}, y x y^{-1}); preserves the moment map exactly."""
    yinv = np.linalg.inv(pt.y)
    return DoublePoint(x=yinv, y=pt.y @ pt.x @ yinv)


def inverse_duality_map(pt: DoublePoint) -> DoublePoint:
    """(x, y) -> (x y x^{-1}, x^{-1}); round-trips with :func:`duality_map`."""
    return DoublePoint(x=pt.x @ pt.y @ np.linalg.inv(pt.x),
                       y=np.linalg.inv(pt.x))


def _centralizer_element(m, rng) -> np.ndarray:
    """Random determinant-1 element commuting with m (m semisimple)."""
    _, v = spectral(m)
    n = m.shape[0]
    lam = np.exp(rng.normal(size=n) * 0.3 + 1j * rng.normal(size=n) * 0.3)
    lam /= np.prod(lam) ** (1.0 / n)
    return v @ np.diag(lam) @ np.linalg.inv(v)


def fiber_check(pt: DoublePoint, samples: int = 4,
                rng: np.random.Generator = None) -> FiberSeparationReport:
    """Check transversality of the two projection fibers through (x, y).

    The first fiber is {(x, y z) : z in Z_x}, the second {(x z', y) :
    z' in Z_y}, centralizers computed from spectral decompositions.  For
    sampled z != 1 and z' != 1 some joint trace invariant must separate the
    two points; margins below ``TOL.separation_margin`` are flagged, not
    failed.
    """
    rng = rng or np.random.default_rng(0)
    first = [(pt.x, pt.y @ _centralizer_element(pt.x, rng))
             for _ in range(samples)]
    second = [(pt.x @ _centralizer_element(pt.y, rng), pt.y)
              for _ in range(samples)]
    eye = np.eye(pt.n)
    return _separation_report(first, second, (pt.x, pt.y @ eye),
                              (pt.x @ eye, pt.y))


def rank_one_consistency_oracle(x_eigs, q: complex) -> np.ndarray:
    """Dense solve of sum_i v_i / (x_j - q^{-1} x_i) = 1 for v_i = psi_i phi_i x_i."""
    x = np.asarray(x_eigs, dtype=complex).ravel()
    return _cauchy_solve(x[:, None] - x[None, :] / q,     # row j, column i
                         "x_j - q^{-1} x_i")[0]


@dataclass(frozen=True)
class RankOneReduction:
    """Result of the rank-1 reduction, with its arbitration record."""

    point: DoublePoint
    rank_one: RankOneClass
    oracle_products: np.ndarray          # psi_i phi_i from the dense solve
    residual_naive: float                # naive product formula vs oracle
    residual_corrected: float            # x_i-corrected formula vs oracle
    mu_eigenvalue_deviation: float


def rank_one_reduction(x_eigs, q: complex, y_diag) -> RankOneReduction:
    """Build the pair (x, y) whose moment value lies in the rank-1 class of q.

    x = diag(x_eigs), gauge phi_i = 1.  The off-diagonal entries are
    y_ij = (1 - q^{-1}) y_jj / (x_i/x_j - q^{-1}); the supplied ``y_diag``
    fills the diagonal.  The products psi_i phi_i come from the consistency
    oracle; both closed-form candidates are compared against it and the
    residuals recorded.  The moment value mu(x, y) is then tested against
    the class eigenvalues (q^{n-1}, q^{-1}, ..., q^{-1}).

    Both factors are rescaled to unit determinant before pairing (the
    moment value is insensitive to scalar factors).
    """
    x = np.asarray(x_eigs, dtype=complex).ravel()
    ydiag = np.asarray(y_diag, dtype=complex).ravel()
    n = len(x)
    if len(ydiag) != n:
        raise ValueError("y_diag length must match x_eigs")
    if np.abs(x).min() == 0.0:
        raise ValueError("x eigenvalues must be nonzero")

    v = rank_one_consistency_oracle(x, q)
    products = v / x
    # naive and x_i-corrected product formulas for psi_i phi_i
    corrected = (1.0 - 1.0 / q) * _ratio(1.0 - q * x[None, :] / x[:, None],
                                         1.0 - x[None, :] / x[:, None]).prod(axis=-1)
    naive = corrected / x
    scale = max(1.0, np.abs(products).max())
    res_naive = float(np.abs(naive - products).max() / scale)
    res_corrected = float(np.abs(corrected - products).max() / scale)
    if res_corrected > TOL.formula_match:
        raise ReductionFailedError(
            f"corrected product formula off the oracle by {res_corrected:.3g}")

    den = x[:, None] / x[None, :] - 1.0 / q
    if np.abs(den).min() < 1e-10:
        raise SingularChartPoint("reconstruction denominator vanishes")
    y = (1.0 - 1.0 / q) * ydiag[None, :] / den

    xmat = np.diag(x)
    det_fix_x = np.linalg.det(xmat) ** (1.0 / n)
    det_fix_y = np.linalg.det(y) ** (1.0 / n)
    pt = DoublePoint(x=xmat / det_fix_x, y=y / det_fix_y)

    mu = moment(pt)
    cls = RankOneClass(q=q, phi=np.ones(n), psi=products)
    got = np.linalg.eigvals(mu)
    got = got[np.lexsort((got.imag, got.real))]
    dev = float(np.abs(got - cls.eigenvalues()).max())
    if dev > TOL.reduction_reject:
        raise ReductionFailedError(
            f"moment eigenvalues off the rank-1 class by {dev:.3g} "
            f"(naive residual {res_naive:.3g}, corrected {res_corrected:.3g})")
    return RankOneReduction(point=pt, rank_one=cls, oracle_products=products,
                            residual_naive=res_naive,
                            residual_corrected=res_corrected,
                            mu_eigenvalue_deviation=dev)


@dataclass(frozen=True)
class RelativisticHamiltonians:
    """Character Hamiltonians of the second family on the reduced chart."""

    traces: np.ndarray        # (tr y, tr y^2), matrix route
    h2: complex               # second Hamiltonian, (tr y^2 - (tr y)^2)/2 route
    residual_tr_y: float      # reduced formula vs matrix trace
    residual_tr_y2: float
    residual_h2: float        # product formula vs character route


def relativistic_hamiltonians(x_eigs, u, q: complex) -> RelativisticHamiltonians:
    """Evaluate tr y, tr y^2 and the second Hamiltonian by dual routes.

    The diagonal is y_ii = u_i prod_{j != i} (1-q^{-1}x_i/x_j)/(1-x_i/x_j)
    and the off-diagonal reconstruction uses (1 - q^{-1} x_i/x_j)
    denominators (internally consistent with the reduced trace formulas).
    Reduced closed formulas and matrix traces must agree; so must the
    product formula for the second Hamiltonian and its character route.
    """
    x = np.asarray(x_eigs, dtype=complex).ravel()
    u = np.asarray(u, dtype=complex).ravel()
    own = 1.0 - x[:, None] / (q * x[None, :])       # 1 - q^{-1} x_i/x_j
    other = 1.0 - x[:, None] / x[None, :]           # 1 - x_i/x_j
    R = _ratio(own, other)
    ydiag = u * R.prod(axis=-1)
    y = (1.0 - 1.0 / q) * ydiag[None, :] / own
    traces = traces_of_powers(y, 2)

    tr1_red = np.sum(ydiag)
    tr2_red = np.sum((1.0 - 1.0 / q) ** 2 * np.outer(ydiag, ydiag) / (own * own.T))

    h2_char = 0.5 * (traces[1] - traces[0] ** 2)
    i, j, prods = _pair_products(R)
    h2_prod = -np.sum(u[i] * u[j] * prods / q)

    scale = max(1.0, np.abs(traces[:2]).max())
    res1 = float(abs(traces[0] - tr1_red) / scale)
    res2 = float(abs(traces[1] - tr2_red) / scale)
    resh = float(abs(h2_char - h2_prod) / max(1.0, abs(h2_char)))
    for name, res in (("tr y", res1), ("tr y^2", res2), ("H2", resh)):
        if res > TOL.dual_path_reject:
            raise ConsistencyError(f"{name}: dual routes disagree by {res:.3g}")
    return RelativisticHamiltonians(traces=traces, h2=h2_char,
                                    residual_tr_y=res1, residual_tr_y2=res2,
                                    residual_h2=resh)


# ----------------------------------------------------------------------
# flows on the full bracket chart
# ----------------------------------------------------------------------

def entry_observable(n: int, block: str, i: int, j: int) -> Observable:
    """Matrix-entry coordinate on the (x, y) chart; block is "x" or "y"."""
    offset = 0 if block == "x" else n * n
    idx = offset + i * n + j
    e = np.zeros(2 * n * n, dtype=complex)
    e[idx] = 1.0
    return Observable(name=f"{block}{i + 1}{j + 1}",
                      fn=lambda z, idx=idx: np.take(z, idx, axis=-1),
                      grad=lambda z, e=e: e)


def _block(z, n, which):
    """The x or y matrices of points stacked as (..., 2n^2): (..., n, n)."""
    part = z[..., :n * n] if which == "x" else z[..., n * n:]
    return part.reshape(z.shape[:-1] + (n, n))


def _trace(m):
    return np.trace(m, axis1=-2, axis2=-1)


def trace_power_observable(n: int, block: str, k: int) -> Observable:
    """tr(x^k) or tr(y^k) on the (x, y) chart, with exact gradient."""
    offset = 0 if block == "x" else n * n
    eye = np.eye(n, dtype=complex)

    def fn(z):
        return _trace(np.linalg.matrix_power(_block(z, n, block), k))

    def grad(z):
        m = _block(z, n, block)
        power = eye
        for _ in range(k - 1):
            power = power.dot(m)
        g = np.zeros(2 * n * n, dtype=complex)
        g[offset:offset + n * n] = (k * power).T.ravel()
        return g

    return Observable(name=f"tr({block}^{k})", fn=fn, grad=grad)


def projection_invariants(n: int, family: str, kmax: int = 2):
    """Conserved observables for the two reduced families on the (x, y) chart.

    ``family="cm"`` (Hamiltonians f(x)): traces of x, of mu~ = y x^{-1} y^{-1},
    and joint traces tr(x^a mu~^b).  ``family="ruijsenaars"`` (Hamiltonians
    f(y)): traces of y, of mu = x y x^{-1} y^{-1}, and joint traces.
    """
    if family == "cm":
        def aux(z):
            x, y = _block(z, n, "x"), _block(z, n, "y")
            return y @ np.linalg.inv(x) @ np.linalg.inv(y)
    elif family == "ruijsenaars":
        def aux(z):
            x, y = _block(z, n, "x"), _block(z, n, "y")
            return x @ y @ np.linalg.inv(x) @ np.linalg.inv(y)
    else:
        raise ValueError(f"unknown family {family!r}")

    main_label = "x" if family == "cm" else "y"
    aux_label = "mu~" if family == "cm" else "mu"

    def main(z):
        return _block(z, n, main_label)

    # each invariant evaluates aux(z), and so inverts x and y, at most once
    fns = {}
    for k in range(1, kmax + 1):
        fns[f"tr({main_label}^{k})"] = lambda z, k=k: _trace(np.linalg.matrix_power(main(z), k))
        fns[f"tr({aux_label}^{k})"] = lambda z, k=k: _trace(np.linalg.matrix_power(aux(z), k))
    fns[f"tr({main_label} {aux_label})"] = lambda z: _trace(main(z) @ aux(z))
    fns[f"tr({main_label}^2 {aux_label})"] = lambda z: _trace(main(z) @ main(z) @ aux(z))
    return [Observable(name=name, fn=fn) for name, fn in fns.items()]


def double_flow_conservation(pt: DoublePoint, H: Observable, t_max: float,
                             dt: float, family: str = "cm") -> ConservationReport:
    """Integrate the flow of H on the full bracket chart and monitor the
    projection invariants of the chosen family."""
    traj = rk4(chart_heisenberg_double(pt.n), H, pt.as_point(), t_max, dt)
    return monitor(traj, projection_invariants(pt.n, family))
