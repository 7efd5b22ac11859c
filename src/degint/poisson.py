"""Chart-based Poisson engine.

Every bracket structure in the library (canonical, log-linear, Heisenberg
double, Sklyanin) is registered as a :class:`PoissonChart`: a named
coordinate chart carrying one evaluator, its field Pi(x) . g for a
covector g.  Brackets, Hamiltonian vector fields, Jacobi defects, and
Leibniz defects are all computed uniformly through it, and the bivector
matrix Pi(x) itself is built from it column by column.

Points are complex vectors of length ``chart.dim``.  Real systems embed with
zero imaginary parts.  The global sign convention of the constant canonical
bivector is {p_i, q_j} = +delta_ij; it is fixed once, here, so that the
angular-momentum/Lenz bracket relations of the Kepler module come out in
their standard orientation, and every other chart inherits it.
"""

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .config import TOL
from .errors import ConsistencyError, DimensionMismatch, SingularChartPoint
from .matrixcore import _powers, trace_words

_COMPLEX = np.dtype(complex)


@dataclass(frozen=True)
class PoissonChart:
    """A coordinate chart with a field evaluator.

    ``field`` maps a point (complex vector of length ``dim``) and a
    covector g to Pi(x) . g, without forming the dim x dim antisymmetric
    bivector Pi(x).  With ``selfcheck`` enabled every field evaluation
    checks g . Pi(x) . g = 0, and every built Pi(x) its antisymmetry, both
    to ``TOL.antisymmetry``; a failed check raises ``ConsistencyError``.
    """

    name: str
    dim: int
    field: Callable[[np.ndarray, np.ndarray], np.ndarray]
    selfcheck: bool = False

    def point(self, x) -> np.ndarray:
        """``x`` as a complex ``(dim,)`` vector: ``x`` itself when it already
        is one, which a type, a dtype and a shape test tell."""
        if type(x) is np.ndarray and x.dtype is _COMPLEX and x.shape == (self.dim,):
            return x
        z = np.asarray(x, dtype=complex).ravel()
        if z.shape != (self.dim,):
            raise DimensionMismatch(
                f"chart {self.name!r} has dim {self.dim}, got point of length {z.size}"
            )
        return z

    def pi(self, x, g=None) -> np.ndarray:
        """Pi(x) . g for a covector g, one field call.  ``g`` may also be a
        function of the validated point returning the covector, which lets
        :func:`ham_vector_field` validate its point once; a covector that
        is not an ndarray is converted once, and one whose shape is not
        ``(dim,)`` raises ``DimensionMismatch``.  Without ``g``, Pi(x) built
        one column at a time, Pi[:, k] = field(x, e_k)."""
        z = self.point(x)
        if g is None:
            P = np.stack([self.field(z, e) for e in np.eye(self.dim, dtype=complex)],
                         axis=1)
            if self.selfcheck:
                defect = np.abs(P + P.T).max()
                if defect > TOL.antisymmetry * max(1.0, np.abs(P).max()):
                    raise ConsistencyError(
                        f"bivector of chart {self.name!r} lost antisymmetry: {defect:.3g}"
                    )
            return P
        if callable(g):
            g = g(z)
        if type(g) is not np.ndarray:
            g = np.asarray(g)
        if g.shape != (self.dim,):
            raise DimensionMismatch(
                f"chart {self.name!r} has dim {self.dim}, got covector of shape {g.shape}"
            )
        v = self.field(z, g)
        if self.selfcheck:
            defect = abs(g.dot(v))
            # the scale is at least 1, so it is only needed past the bare bound
            if defect > TOL.antisymmetry and defect > TOL.antisymmetry * max(
                    1.0, np.abs(g).max() * np.abs(v).max()):
                raise ConsistencyError(
                    f"field of chart {self.name!r} lost antisymmetry: "
                    f"|g . Pi g| = {defect:.3g}"
                )
        return v


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
        """The exact gradient at x as a complex array: ``grad(x)`` itself
        when it is one (what ``np.asarray`` would return, without its
        dispatch), else converted.  Without ``grad``, central finite
        differences of ``step`` (``TOL.fd_step`` by default)."""
        if self.grad is not None:
            g = self.grad(x)
            if type(g) is np.ndarray and g.dtype is _COMPLEX:
                return g
            return np.asarray(g, dtype=complex)
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
    """The index-th coordinate function, with its trivial exact gradient:
    one read-only array, handed to every caller."""
    e = np.zeros(dim, dtype=complex)
    e[index] = 1.0
    e.flags.writeable = False
    return Observable(
        name=label or f"z{index}",
        fn=lambda z, i=index: np.take(z, i, axis=-1),
        grad=lambda z, e=e: e,
    )


def trace_power(n: int, k: int, block: int = 0, blocks: int = 1) -> Observable:
    """tr(x^k) for x the ``block``-th of the ``blocks`` n x n matrices whose
    entries, row-major, make up a chart point, named for it tr(x^k) or
    tr(y^k).  Its exact gradient is k (x^(k-1))^T in that block: for k = 1
    the identity, built once and read-only, since every caller is handed
    the same array."""
    if k < 1:
        raise ValueError("power must be at least 1")
    part = slice(block * n * n, (block + 1) * n * n)
    eye = np.zeros(blocks * n * n, dtype=complex)
    eye[part] = np.eye(n).ravel()
    eye.flags.writeable = False

    def fn(z):
        x = z[..., part].reshape(z.shape[:-1] + (n, n))
        return trace_words(x, x, [(k, 0, 0, 0)])[..., 0]

    def grad(z):
        g = np.zeros(len(eye), dtype=complex)
        g[part] = (k * _powers(z[part].reshape(n, n), k - 1)[-1]).T.ravel()
        return g

    return Observable(f"tr({'xy'[block]}^{k})", fn, (lambda z: eye) if k == 1 else grad)


def bracket(chart: PoissonChart, f: Observable, g: Observable, x,
            step: float = None) -> complex:
    """{f, g}(x) = grad f . (Pi(x) . grad g), both gradients taken at the
    validated point, f's first: one :meth:`PoissonChart.pi` call, which
    never forms Pi(x)."""
    z = chart.point(x)
    return complex(f.gradient(z, step) @ chart.pi(z, g.gradient(z, step)))


def ham_vector_field(chart: PoissonChart, H: Observable, x) -> np.ndarray:
    """Pi(x) . grad H, the right-hand side handed to integrators.  One
    :meth:`PoissonChart.pi` call, which validates the point and takes the
    gradient there."""
    return chart.pi(x, H.gradient)


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
    """{f, g*h} - {f,g} h - g {f,h}, with grad(g*h) = g grad h + h grad g by
    the product rule; zero for any honest bivector."""
    z = chart.point(x)
    a, dg, dh, gz, hz = f.gradient(z), g.gradient(z), h.gradient(z), g(z), h(z)
    return (complex(a @ chart.pi(z, gz * dh + hz * dg))
            - complex(a @ chart.pi(z, dg)) * hz
            - gz * complex(a @ chart.pi(z, dh)))


# ----------------------------------------------------------------------
# chart constructors
# ----------------------------------------------------------------------

def chart_canonical(n: int) -> PoissonChart:
    """Constant canonical chart in coordinates (p_1..p_n, q_1..q_n).

    Sign convention: {p_i, q_j} = +delta_ij, so Pi . g = (g_q, -g_p).
    """
    # (g_q, -g_p) as one gather and one product with a complex sign vector:
    # fewer numpy calls than a concatenation, and no cast
    swap, sign = np.r_[n:2 * n, :n], np.repeat([1.0 + 0j, -1.0 + 0j], n)
    return PoissonChart(
        name=f"canonical(n={n})",
        dim=2 * n,
        field=lambda z, g: g[swap] * sign,
    )


def chart_cm_loglinear(n: int) -> PoissonChart:
    """Reduced rational Calogero-Moser chart: coordinates (h_1..h_n,
    u_1..u_n) with {h_i, u_j} = delta_ij and vanishing h-h, u-u brackets."""
    return replace(chart_canonical(n), name=f"cm-loglinear(n={n})")


def chart_relativistic_loglinear(n: int) -> PoissonChart:
    """Coordinates (x_1..x_n, u_1..u_n) with {x_i, u_j} = delta_ij x_i u_j,
    so Pi . g = (x u g_u, -x u g_x)."""
    def field(z, g):
        if np.abs(z).min() < 1e-300:
            raise SingularChartPoint("relativistic chart needs nonzero coordinates")
        return np.concatenate([z[:n] * z[n:] * g[n:], -z[:n] * z[n:] * g[:n]])

    return PoissonChart(
        name=f"relativistic-loglinear(n={n})",
        dim=2 * n,
        field=field,
    )


def _block_products(a, ga, n):
    """One covector block's products for :func:`chart_heisenberg_double`:
    with a the block's matrix and Ga its covector block, both flat,
    (R, E, c) = (a Ga^T, R - Ga^T a, <Ga, a>/n), E None where it is exactly
    zero."""
    gat = ga.reshape(n, n).T
    mat = a.reshape(n, n)
    r = mat.dot(gat)
    e = r - gat.dot(mat)
    return r, (e if np.count_nonzero(e) else None), ga.dot(a) / n


def _covector_blocks(g, m):
    """The nonzero counts of the x and the y block of a pair-chart covector."""
    return np.count_nonzero(g[:m]), np.count_nonzero(g[m:])


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
    r = sum_{i<k} E_ik (x) E_ki + 1/2 sum_a E_aa (x) E_aa - (1/2n) I
    = sum_ik u_ik E_ik (x) E_ki - (1/2n) I, u_ik = [i<k] + 1/2 delta_ik.
    Antisymmetry self-check is enabled.

    ``field`` sums these relations against a covector g in matrix form, in
    O(n^3) rather than as n^2 x n^2 products.  With Gx, Gy the halves of g
    as n x n matrices, o the entrywise product, <A, B> = sum A_ij B_ij,
    Px = x Gx^T, Ex = Px - Gx^T x, cx = <Gx, x>/n, Ry = y Gy^T,
    Ey = Ry - Gy^T y, cy = <Gy, y>/n, E = Ex + Ey and W = u o E, the
    relations sum to

        v_x = (W - Ry) x + x (E - W) + cy x
        v_y = W y + y (Ey + Px - W) - cx y.

    The (1/2n) parts of r cancel in the x-x and y-y relations and leave the
    two trace terms.  With Qx = Gx^T x and Sy = Gy^T y the rest sum to five
    masked products, u o (Px - Qx - Sy), u^T o Ry, u^T o E, u^T o (Ey + Px)
    and u o Qx; since u + u^T = 1 entrywise, u^T o A = A - u o A folds all
    five into the one W.

    A block where g is zero contributes the scalar 0 as its Px or Ry, its
    E and its c, so g = 0 gives exact zeros, and the flow of tr(x^k) or
    tr(y^k), whose gradient lies in one block, pays for that block alone.
    A scalar zero added or subtracted leaves each value as the zero matrix
    would, so the field is the formula's value bit for bit (a zero may
    differ in sign).

    A block whose covector commutes with its matrix has E = 0, and E enters
    the formula as the scalar 0 where it is exactly zero.  When no block has
    E != 0, W = 0 and every term with E or W is zero: v_x = cy x - Ry x and
    v_y = y Px - cx y.  These are the flows of conjugation-invariant
    functions, the dressing action, on which the r-matrix part of the
    bracket drops out.  ``field`` takes this branch when every E is exactly
    zero; it leaves out only exact zeros, so its values are the full
    formula's bit for bit (a zero may differ in sign).  E is exactly zero on
    the gradients of tr(y) and tr(y^2).  For tr(y), Gy^T = I, and each entry
    of y I and of I y is y_ij plus products with exact zeros.  For tr(y^2),
    Gy^T = 2y, and each entry of y (2y) and of (2y) y sums the same products
    2 y_il y_lj (doubling is exact) in the same order.  For k >= 3 the
    gradient k y^(k-1) is itself a rounded product, and y y^(k-1) associates
    its factors otherwise than y^(k-1) y, so E is roundoff but in general
    not zero, and the full formula runs.  The same holds for Gx and x.

    Each chart keeps one memo of its last covector: the covector's dtype
    and bytes with the nonzero counts of its two blocks, and per block the
    dtype and bytes of that block's matrix a with its products R = a Ga^T,
    E = R - Ga^T a (or "exactly zero") and c = <Ga, a>/n, which depend on a
    and the covector block Ga alone.  A covector whose dtype or bytes differ
    from the last one's clears the memo.  Equal bytes are equal operands, so
    a hit returns what forming the products again would give, bit for bit,
    and a point or covector changed in place between two calls misses.
    Along the flow of tr(x) or tr(y), whose gradient is one read-only array,
    the blocks are counted and the flow's block products formed once per
    run, and the commuting branch is left with the one product R x (or y P)
    per call.  Callers whose covectors change from call to call, such as the
    columns of Pi(x) and the bracket checks of ``verify-brackets``, miss and
    pay for the keys on top; they hit only where a finite-difference step
    moved the other block alone.  The masked product u o E is never kept.
    """
    m = n * n
    # a complex mask spares the masked product a cast from float
    uc = _r_mask(n).astype(complex)
    # "g": the last covector's key and block counts; per block: its matrix's key and products
    memo = {"g": (None, None)}

    def products(block, a, ga):
        key = (a.dtype, a.tobytes())
        hit = memo.get(block)
        if hit is None or hit[0] != key:
            hit = memo[block] = key, _block_products(a, ga, n)
        return hit[1]

    def field(z, g, n=n, m=m, uc=uc):
        key = (g.dtype, g.tobytes())
        if key != memo["g"][0]:
            memo.clear()
            memo["g"] = key, _covector_blocks(g, m)
        in_x, in_y = memo["g"][1]
        px, ex, cx = products("x", z[:m], g[:m]) if in_x else (0, None, 0)
        ry, ey, cy = products("y", z[m:], g[m:]) if in_y else (0, None, 0)
        if ex is None and ey is None:
            v = np.zeros((2 * n, n), dtype=complex)
            if in_y:
                x = z[:m].reshape(n, n)
                np.subtract(cy * x, ry.dot(x), out=v[:n])
            if in_x:
                y = z[m:].reshape(n, n)
                np.subtract(y.dot(px), cx * y, out=v[n:])
            return v.ravel()
        x, y = z.reshape(2, n, n)
        ey = 0 if ey is None else ey
        e = (0 if ex is None else ex) + ey
        w = uc * e
        vx = (w - ry).dot(x) + x.dot(e - w) + cy * x
        vy = w.dot(y) + y.dot(ey + px - w) - cx * y
        return np.concatenate([vx.ravel(), vy.ravel()])

    return PoissonChart(
        name=f"heisenberg-double(n={n})",
        dim=2 * n * n,
        field=field,
        selfcheck=True,
    )


def chart_sklyanin(n: int) -> PoissonChart:
    """Group bracket chart on a single invertible matrix, n^2 coordinates.

    The bivector eta(x) = (x (x) x) r (x (x) x)^{-1} - r is paired with the
    differentials generated by left translations: the derivative of the entry
    function x_ij along a basis element e_A is (e_A x)_ij, whose trace-form
    realization is x E_ji.  Conjugation-invariant functions Poisson-commute
    in this chart, and flows of such functions match the factorization flow.

    eta(x)(x (x) x) = (x (x) x) r - r (x (x) x) and the pairing multiplies by
    x (x) x on the right, so {x_ij, x_kl} is the [ik,jl] entry of that
    difference; with u as in :func:`chart_heisenberg_double` it is
    {x_ij, x_kl} = (u_lj - u_ik) x_il x_kj.  Summed against a covector g,
    with G its n x n matrix and o the entrywise product, these entries give
    ``field``: Pi(x) . g = x (u o (G^T x)) - (u o (x G^T)) x.  Antisymmetry
    self-check is enabled.
    """
    uc = _r_mask(n).astype(complex)

    def field(z, g, n=n, uc=uc):
        x = z.reshape(n, n)
        gt = g.reshape(n, n).T
        return (x.dot(uc * gt.dot(x)) - (uc * x.dot(gt)).dot(x)).ravel()

    return PoissonChart(
        name=f"sklyanin(n={n})",
        dim=n * n,
        field=field,
        selfcheck=True,
    )
