"""Chart-based Poisson engine.

Every bracket structure in the library (canonical, log-linear, Heisenberg
double, Sklyanin) is registered as a :class:`PoissonChart`: a named
coordinate chart carrying an evaluator for the antisymmetric bivector matrix
Pi(x).  Brackets, Hamiltonian vector fields, Jacobi defects, and Leibniz
defects are all computed uniformly through Pi.

Points are complex vectors of length ``chart.dim``.  Real systems embed with
zero imaginary parts.  The global sign convention of the constant canonical
bivector is {p_i, q_j} = +delta_ij; it is fixed once, here, so that the
angular-momentum/Lenz bracket relations of the Kepler module come out in
their standard orientation, and every other chart inherits it.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, SingularChartPoint

__all__ = [
    "PoissonChart",
    "Observable",
    "coordinate",
    "observable_product",
    "bracket",
    "ham_vector_field",
    "jacobi_defect",
    "leibniz_defect",
    "chart_canonical",
    "chart_cm_loglinear",
    "chart_relativistic_loglinear",
    "chart_heisenberg_double",
    "chart_sklyanin",
    "standard_r",
]


@dataclass(frozen=True)
class PoissonChart:
    """A coordinate chart with a bivector evaluator.

    ``bivector`` maps a point (complex vector of length ``dim``) to the
    dim x dim antisymmetric matrix Pi(x).  With ``selfcheck`` enabled every
    evaluation asserts antisymmetry to ``TOL.antisymmetry``.
    """

    name: str
    dim: int
    coord_labels: tuple
    bivector: Callable[[np.ndarray], np.ndarray]
    selfcheck: bool = False

    def point(self, x) -> np.ndarray:
        z = np.asarray(x, dtype=complex).ravel()
        if z.shape != (self.dim,):
            raise DimensionMismatch(
                f"chart {self.name!r} has dim {self.dim}, got point of length {z.size}"
            )
        return z

    def pi(self, x) -> np.ndarray:
        z = self.point(x)
        P = np.asarray(self.bivector(z), dtype=complex)
        if P.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"bivector of chart {self.name!r} returned shape {P.shape}"
            )
        if self.selfcheck:
            scale = max(1.0, np.abs(P).max())
            defect = np.abs(P + P.T).max()
            if defect > TOL.antisymmetry * scale:
                raise AssertionError(
                    f"bivector of chart {self.name!r} lost antisymmetry: {defect:.3g}"
                )
        return P


@dataclass(frozen=True)
class Observable:
    """A scalar function on a chart, with an optional exact gradient.

    ``fn`` maps points stacked as ``(..., dim)`` to one value each, shape
    ``(...)``, so :func:`degint.integrate.monitor` evaluates a trajectory in
    one call; a constant may return one 0-d value.  ``grad`` maps a single
    point ``(dim,)`` to its gradient.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x):
        return self.fn(x)

    def gradient(self, x, step: float = None) -> np.ndarray:
        if self.grad is not None:
            return np.asarray(self.grad(x), dtype=complex)
        return _fd_gradient(self.fn, np.asarray(x, dtype=complex),
                            TOL.fd_step if step is None else step)


def _fd_gradient(fn, x, h):
    g = np.empty(len(x), dtype=complex)
    for i in range(len(x)):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return g


def coordinate(dim: int, index: int, label: str = None) -> Observable:
    """The index-th coordinate function, with its trivial exact gradient."""
    e = np.zeros(dim, dtype=complex)
    e[index] = 1.0
    return Observable(
        name=label or f"z{index}",
        fn=lambda z, i=index: np.take(z, i, axis=-1),
        grad=lambda z, e=e: e,
    )


def observable_product(f: Observable, g: Observable) -> Observable:
    """Pointwise product f*g; gradient by the product rule when both are exact."""
    grad = None
    if f.grad is not None and g.grad is not None:
        def grad(z, f=f, g=g):
            return f(z) * g.gradient(z) + g(z) * f.gradient(z)
    return Observable(name=f"{f.name}*{g.name}", fn=lambda z: f(z) * g(z), grad=grad)


def bracket(chart: PoissonChart, f: Observable, g: Observable, x,
            step: float = None) -> complex:
    """{f, g}(x) = grad f . Pi(x) . grad g."""
    z = chart.point(x)
    return complex(f.gradient(z, step) @ chart.pi(z) @ g.gradient(z, step))


def ham_vector_field(chart: PoissonChart, H: Observable, x) -> np.ndarray:
    """Pi(x) . grad H, the right-hand side handed to integrators."""
    z = chart.point(x)
    return chart.pi(z) @ H.gradient(z)


def jacobi_defect(chart: PoissonChart, f: Observable, g: Observable,
                  h: Observable, x) -> complex:
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}} by nested finite-difference brackets.

    Inner brackets use exact gradients where available; the outer bracket
    necessarily falls back to finite differences (a bracket value has no
    registered gradient), with a coarser step to keep the difference of
    differences above roundoff.
    """
    outer = TOL.fd_nested_step

    def nest(a, b):
        return Observable(
            name=f"{{{a.name},{b.name}}}",
            fn=lambda z: bracket(chart, a, b, z),
        )

    return (bracket(chart, f, nest(g, h), x, outer)
            + bracket(chart, g, nest(h, f), x, outer)
            + bracket(chart, h, nest(f, g), x, outer))


def leibniz_defect(chart: PoissonChart, f: Observable, g: Observable,
                   h: Observable, x) -> complex:
    """{f, g*h} - {f,g} h - g {f,h}; zero for any honest bivector."""
    z = chart.point(x)
    return (bracket(chart, f, observable_product(g, h), z)
            - bracket(chart, f, g, z) * h(z)
            - g(z) * bracket(chart, f, h, z))


# ----------------------------------------------------------------------
# chart constructors
# ----------------------------------------------------------------------

def chart_canonical(n: int) -> PoissonChart:
    """Constant canonical chart in coordinates (p_1..p_n, q_1..q_n).

    Sign convention: {p_i, q_j} = +delta_ij.
    """
    P = np.zeros((2 * n, 2 * n), dtype=complex)
    P[:n, n:] = np.eye(n)
    P[n:, :n] = -np.eye(n)
    labels = tuple(f"p{i + 1}" for i in range(n)) + tuple(f"q{i + 1}" for i in range(n))
    return PoissonChart(
        name=f"canonical(n={n})",
        dim=2 * n,
        coord_labels=labels,
        bivector=lambda z, P=P: P,
    )


def chart_cm_loglinear(n: int, variant: str = "canonical") -> PoissonChart:
    """Reduced Calogero-Moser charts.

    ``variant="canonical"``: coordinates (h_1..h_n, u_1..u_n) with
    {h_i, u_j} = delta_ij and vanishing h-h, u-u brackets (the rational
    reduced chart).  ``variant="exponential"``: coordinates (p_1..p_n,
    h_1..h_n) with {p_i, h_j} = delta_ij h_j, so ratios h_i/h_j bracket
    log-linearly against the momenta.
    """
    if variant == "canonical":
        P = np.zeros((2 * n, 2 * n), dtype=complex)
        P[:n, n:] = np.eye(n)
        P[n:, :n] = -np.eye(n)
        labels = (tuple(f"h{i + 1}" for i in range(n))
                  + tuple(f"u{i + 1}" for i in range(n)))
        return PoissonChart(
            name=f"cm-loglinear(n={n})",
            dim=2 * n,
            coord_labels=labels,
            bivector=lambda z, P=P: P,
        )
    if variant == "exponential":
        def biv(z, n=n):
            P = np.zeros((2 * n, 2 * n), dtype=complex)
            P[:n, n:] = np.diag(z[n:])
            P[n:, :n] = -np.diag(z[n:])
            return P
        labels = (tuple(f"p{i + 1}" for i in range(n))
                  + tuple(f"h{i + 1}" for i in range(n)))
        return PoissonChart(
            name=f"cm-exponential(n={n})",
            dim=2 * n,
            coord_labels=labels,
            bivector=biv,
        )
    raise ValueError(f"unknown variant {variant!r}")


def chart_relativistic_loglinear(n: int) -> PoissonChart:
    """Coordinates (x_1..x_n, u_1..u_n) with {x_i, u_j} = delta_ij x_i u_j."""
    def biv(z, n=n):
        x, u = z[:n], z[n:]
        if np.abs(x).min() < 1e-300 or np.abs(u).min() < 1e-300:
            raise SingularChartPoint("relativistic chart needs nonzero coordinates")
        P = np.zeros((2 * n, 2 * n), dtype=complex)
        P[:n, n:] = np.diag(x * u)
        P[n:, :n] = -np.diag(x * u)
        return P

    labels = (tuple(f"x{i + 1}" for i in range(n))
              + tuple(f"u{i + 1}" for i in range(n)))
    return PoissonChart(
        name=f"relativistic-loglinear(n={n})",
        dim=2 * n,
        coord_labels=labels,
        bivector=biv,
    )


def standard_r(n: int) -> np.ndarray:
    """Standard classical r-matrix in the defining representation.

    r = (1/2) * Cartan part + sum_{i<j} E_ij (x) E_ji as an n^2 x n^2 matrix
    on C^n (x) C^n.  The Cartan dual basis is taken for sl_n via the trace
    form, i.e. the trace-part projection subtracts (1/2n) I (x) I.  Its
    symmetric part is half the split Casimir and is Ad-invariant; it
    satisfies the classical Yang-Baxter equation exactly.
    """
    if n < 2:
        raise ValueError("standard r-matrix needs n >= 2")
    r = np.zeros((n, n, n, n), dtype=complex)
    i, k = np.indices((n, n))
    r[i, k, k, i] = _r_mask(n)
    return r.reshape(n * n, n * n) - (0.5 / n) * np.eye(n * n)


def _r_mask(n):
    """u_ik = [i < k] + 1/2 delta_ik: r = sum_ik u_ik E_ik (x) E_ki - (1/2n) I."""
    return np.triu(np.ones((n, n)), 1) + 0.5 * np.eye(n)


def chart_heisenberg_double(n: int) -> PoissonChart:
    """Bracket chart on pairs (x, y) of invertible matrices, 2n^2 coordinates.

    The point is [vec(x), vec(y)] row-major.  The bivector is the r-matrix
    bracket

        {x1, x2} =  r12 x1 x2 - x1 x2 r21 + x1 r21 x2 - x2 r12 x1
        {x1, y2} = -r21 x1 y2 - x1 y2 r21 + x1 r21 y2 - y2 r12 x1
        {y1, y2} =  r12 y1 y2 - y1 y2 r21 + y1 r21 y2 - y2 r12 y1

    in the tensor square, with the standard r-matrix
    r = sum_{i<k} E_ik (x) E_ki + 1/2 sum_a E_aa (x) E_aa - (1/2n) I.
    It is evaluated in closed form rather than as n^2 x n^2 products.
    Write a block as {a1, b2} with (a, b) = (x, x), (x, y) or (y, y),
    M[i,k,j,l] = a_ij b_kl, u_ik = [i<k] + 1/2 delta_ik, and
    {a_ij, b_kl} for the entry of row (i,k), column (j,l).  Because r has
    O(n^2) non-zeros, each product with r is a masked transpose:

        (r M)[ik,jl]   =  u_ik M[k,i,j,l] - (1/2n) M[i,k,j,l]
        (r21 M)[ik,jl] =  u_ki M[k,i,j,l] - (1/2n) M[i,k,j,l]
        (M r21)[ik,jl] =  u_jl M[i,k,l,j] - (1/2n) M[i,k,j,l]

    and the two sandwich terms are supported on a diagonal:

        (a1 r21 b2)[ik,jl] =  delta_kj sum_m u_km a_im b_ml - (1/2n) a_ij b_kl
        (b2 r12 a1)[ik,jl] =  delta_il sum_m u_im b_km a_mj - (1/2n) a_ij b_kl

    The (1/2n) parts cancel in the x-x and y-y blocks and leave
    +(1/n) x_ij y_kl in the x-y block.  All three blocks are computed in one
    pass over a leading axis of length 3; the y-x block is the negative
    transpose of the x-y block.  Antisymmetry self-check is enabled.
    """
    m = n * n
    d = np.arange(n)
    u = _r_mask(n)
    # per block: the left r-factor mask (r for x-x and y-y, -r21 for x-y),
    # the right -r21 mask, and the surviving (1/2n) multiple of M
    left = np.stack([u, -u.T, u])[:, :, None, :, None]
    right = u[None, None, :, None, :]
    trace_part = np.array([0.0, 1.0 / n, 0.0])[:, None, None, None, None]

    def biv(z, n=n, m=m, d=d, u=u, left=left, right=right, trace_part=trace_part):
        xy = z.reshape(2, n, n)
        a = xy[[0, 0, 1]]           # x, x, y
        b = xy[[0, 1, 1]]           # x, y, y
        # Q[s,i,j,k,l] = {a_ij, b_kl} of block s; N[s,i,j,k,l] = a_ij b_kl
        N = a[:, :, :, None, None] * b[:, None, None, :, :]
        Q = (left * N.transpose(0, 3, 2, 1, 4)
             - right * N.transpose(0, 1, 4, 3, 2)
             + trace_part * N)
        # sandwich terms: a1 r21 b2 on the diagonal j = k, b2 r12 a1 on l = i
        Q[:, :, d, d, :] += (a[:, :, None, :] * u) @ b[:, None]
        b2ra1 = (u[:, None, :] * b[:, None]) @ a[:, None]       # [s,i,k,j]
        Q[:, d, :, :, d] -= b2ra1.transpose(1, 0, 3, 2)
        Q = Q.reshape(3, m, m)
        P = np.empty((2 * m, 2 * m), dtype=complex)
        P[:m, :m] = Q[0]
        P[:m, m:] = Q[1]
        P[m:, :m] = -Q[1].T
        P[m:, m:] = Q[2]
        return P

    labels = (tuple(f"x{i + 1}{j + 1}" for i in range(n) for j in range(n))
              + tuple(f"y{i + 1}{j + 1}" for i in range(n) for j in range(n)))
    return PoissonChart(
        name=f"heisenberg-double(n={n})",
        dim=2 * n * n,
        coord_labels=labels,
        bivector=biv,
        selfcheck=True,
    )


def chart_sklyanin(n: int) -> PoissonChart:
    """Group bracket chart on a single invertible matrix, n^2 coordinates.

    The bivector eta(x) = (x (x) x) r (x (x) x)^{-1} - r is paired with the
    differentials generated by left translations: the derivative of the entry
    function x_ij along a basis element e_A is (e_A x)_ij, whose trace-form
    realization is x E_ji.  Conjugation-invariant functions Poisson-commute
    in this chart, and flows of such functions match the factorization flow.

    It is evaluated in closed form.  eta(x)(x (x) x) = (x (x) x) r - r (x (x) x)
    and the pairing multiplies by x (x) x on the right, so {x_ij, x_kl} is
    the [ik,jl] entry of that difference.  With M and u_ik as in
    :func:`chart_heisenberg_double`, both products are masked transposes,

        ((x (x) x) r)[ik,jl] = u_lj M[i,k,l,j] - (1/2n) M[i,k,j,l]
        (r (x (x) x))[ik,jl] = u_ik M[k,i,j,l] - (1/2n) M[i,k,j,l]

    so {x_ij, x_kl} = (u_lj - u_ik) x_il x_kj.  That mask is antisymmetric
    (u_ab + u_ba = 1), but a complex product can round differently with its
    factors swapped, so the strict upper triangle is formed and mirrored.
    Antisymmetry self-check is enabled.
    """
    u = _r_mask(n)
    mask = u.T[None, :, None, :] - u[:, None, :, None]      # [i,j,k,l] = u_lj - u_ik

    def biv(z, n=n, mask=mask):
        x = z.reshape(n, n)
        P = np.triu((mask * (x[:, None, None, :] * x.T[None, :, :, None])).reshape(n * n, -1), 1)
        return P - P.T

    labels = tuple(f"x{i + 1}{j + 1}" for i in range(n) for j in range(n))
    return PoissonChart(
        name=f"sklyanin(n={n})",
        dim=n * n,
        coord_labels=labels,
        bivector=biv,
        selfcheck=True,
    )
