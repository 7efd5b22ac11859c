"""Tests for the chart-based Poisson engine and the registered charts."""

import dataclasses
import re

import numpy as np
import pytest

from degint import cli, poisson
from degint.errors import ConsistencyError, DimensionMismatch, SingularChartPoint
from degint.poisson import (
    Observable,
    bracket,
    chart_canonical,
    chart_cm_loglinear,
    chart_heisenberg_double,
    chart_relativistic_loglinear,
    chart_sklyanin,
    coordinate,
    ham_vector_field,
    jacobi_defect,
    leibniz_defect,
    trace_power,
    _r_mask,
)

RNG = np.random.default_rng(1)

JACOBI_TOL = 1e-4
LEIBNIZ_TOL = 1e-5
ANTISYM_TOL = 1e-10
EPS = np.finfo(float).eps


def random_group_element(n, spread=0.3):
    m = np.eye(n) + spread * (RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n)))
    return m / np.linalg.det(m) ** (1.0 / n)


def heisenberg_point(n, spread=0.3):
    x = random_group_element(n, spread)
    y = random_group_element(n, spread)
    return np.concatenate([x.ravel(), y.ravel()])


def log_linear_oracle(w):
    """Pi = [[0, diag(w)], [-diag(w), 0]] as a dense matrix: the bivector of
    the canonical chart (w = 1) and of the relativistic chart (w = x u)."""
    n = len(w)
    P = np.zeros((2 * n, 2 * n), dtype=complex)
    P[:n, n:] = np.diag(w)
    P[n:, :n] = -np.diag(w)
    return P


def counted_field(chart):
    """The chart with its field wrapped to record each call, and the record:
    a route that builds Pi(z) makes dim field calls where one is due."""
    calls = []

    def field(z, g):
        calls.append(chart.name)
        return chart.field(z, g)

    return dataclasses.replace(chart, field=field), calls


class TestBracketBasics:
    def test_canonical_pair(self):
        """{p1, q1} = +1 under the global sign convention."""
        c = chart_canonical(2)
        p1 = coordinate(4, 0, "p1")
        q1 = coordinate(4, 2, "q1")
        z = RNG.normal(size=4).astype(complex)
        assert bracket(c, p1, q1, z) == pytest.approx(1.0)
        assert bracket(c, q1, p1, z) == pytest.approx(-1.0)

    def test_momenta_commute(self):
        c = chart_canonical(2)
        z = RNG.normal(size=4).astype(complex)
        assert bracket(c, coordinate(4, 0), coordinate(4, 1), z) == pytest.approx(0.0)

    def test_self_bracket_vanishes(self):
        c = chart_canonical(3)
        z = RNG.normal(size=6).astype(complex)
        f = Observable("f", lambda z: z[0] ** 2 + np.sin(np.real(z[4])))
        assert abs(bracket(c, f, f, z)) < 1e-12

    def test_dimension_mismatch(self):
        c = chart_canonical(2)
        with pytest.raises(DimensionMismatch):
            bracket(c, coordinate(4, 0), coordinate(4, 1), np.zeros(3))

    def test_gradient_check_fd_vs_exact(self):
        """Exact gradients of coordinates match finite differences."""
        c = chart_canonical(3)
        z = RNG.normal(size=6).astype(complex)
        f = coordinate(6, 4)
        fd = Observable("fd", f.fn)
        assert np.abs(f.gradient(z) - fd.gradient(z)).max() < 1e-9

    def test_registered_exact_gradients_match_fd(self):
        """Every shipped observable with an exact gradient agrees with
        central differences to 1e-5 relative at random points."""
        from degint.kepler import kepler_observables

        z = np.concatenate([RNG.normal(size=3), RNG.normal(size=3) + 2.0]).astype(complex)
        for obs in kepler_observables(gamma=1.1):
            fd = Observable("fd", obs.fn)
            dev = np.abs(obs.gradient(z) - fd.gradient(z)).max()
            assert dev < 1e-5 * max(1.0, np.abs(obs.gradient(z)).max())

        zz = heisenberg_point(2)
        for block in (0, 1):
            for k in (1, 2):
                obs = trace_power(2, k, block, 2)
                fd = Observable("fd", obs.fn)
                dev = np.abs(obs.gradient(zz) - fd.gradient(zz)).max()
                assert dev < 1e-5 * max(1.0, np.abs(obs.gradient(zz)).max())


class TestTracePower:
    """The one tr(x^k) builder, on the pair chart's x and y blocks and
    on the one-matrix chart that the Sklyanin reference flow integrates."""

    @staticmethod
    def central_differences(obs, z, h=1e-5):
        g = np.empty(len(z), dtype=complex)
        for i in range(len(z)):
            e = np.zeros(len(z)); e[i] = h
            g[i] = (obs(z + e) - obs(z - e)) / (2 * h)
        return g

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gradient_matches_central_differences(self, k):
        cases = [(trace_power(3, k, block, 2), heisenberg_point(3)) for block in (0, 1)]
        cases.append((trace_power(3, k), random_group_element(3).ravel()))
        for obs, z in cases:
            exact = obs.gradient(z)
            assert exact.shape == z.shape
            assert np.abs(exact - self.central_differences(obs, z)).max() < 1e-8 * max(
                1.0, np.abs(exact).max())

    def test_stacked_values_are_each_points_value(self):
        obs = trace_power(2, 2, 1, 2)
        zs = np.stack([heisenberg_point(2) for _ in range(4)])
        y = zs[:, 4:].reshape(4, 2, 2)
        assert np.array_equal(obs(zs), np.trace(y @ y, axis1=1, axis2=2))
        assert np.array_equal(obs(zs), [obs(z) for z in zs])

    def test_first_power_gradient_is_one_prebuilt_constant(self):
        obs = trace_power(2, 1, 1, 2)
        g = obs.gradient(heisenberg_point(2))
        assert g is obs.gradient(heisenberg_point(2))
        assert np.array_equal(g, np.r_[np.zeros(4), np.eye(2).ravel()])

    @pytest.mark.parametrize("obs,expected", [
        (trace_power(2, 1, 1, 2), np.r_[np.zeros(4), np.eye(2).ravel()]),
        (trace_power(3, 1), np.eye(3).ravel()),
        (coordinate(8, 5), np.eye(8)[5])], ids=["tr(y)", "tr(x)", "z5"])
    def test_a_shared_gradient_is_read_only(self, obs, expected):
        """The gradients of tr(x) and of a coordinate are one array handed to
        every caller: writing into it raises, so a later caller's gradient
        is unchanged."""
        z = np.ones(len(expected), dtype=complex)
        g = obs.gradient(z)
        with pytest.raises(ValueError, match="read-only"):
            g[0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            g += 1.0
        assert np.array_equal(obs.gradient(z), expected)

    def test_names_and_power_floor(self):
        assert [trace_power(2, 3, b, 2).name for b in (0, 1)] == ["tr(x^3)", "tr(y^3)"]
        with pytest.raises(ValueError):
            trace_power(2, 0, 0, 2)


class TestHamVectorField:
    def test_free_particle_direction(self):
        """H = p^2/2 moves only q, at speed |p|.

        Under the {p_i, q_j} = +1 convention the canonical field is
        qdot = -p; the conserved-quantity suites are insensitive to the
        time direction.
        """
        c = chart_canonical(1)
        H = Observable("H", lambda z: 0.5 * z[0] ** 2, grad=lambda z: np.array([z[0], 0.0]))
        v = ham_vector_field(c, H, np.array([2.0, 0.0], dtype=complex))
        assert v[0] == pytest.approx(0.0)
        assert abs(v[1]) == pytest.approx(2.0)

    def test_constant_hamiltonian(self):
        c = chart_canonical(2)
        H = Observable("c", lambda z: 3.0)
        v = ham_vector_field(c, H, RNG.normal(size=4).astype(complex))
        assert np.abs(v).max() < 1e-9


class TestCanonicalField:
    """The canonical chart's closed-form field (g_q, -g_p) is the product
    with the constant bivector, entry for entry."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_field_equals_bivector_product(self, n):
        c, rng = chart_canonical(n), np.random.default_rng(n)
        for _ in range(20):
            z = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
            g = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
            got, want = c.pi(z, g), log_linear_oracle(np.ones(n)) @ g
            # array_equal counts -0.0 equal to 0.0: signed zeros may differ
            assert np.array_equal(got.real, want.real)
            assert np.array_equal(got.imag, want.imag)

    def test_pi_without_covector_is_the_bivector(self):
        c = chart_canonical(2)
        P = c.pi(np.arange(4.0))
        assert np.array_equal(P, log_linear_oracle(np.ones(2)))
        assert np.array_equal(P[:2, 2:], np.eye(2)) and np.array_equal(P, -P.T)

    def test_cm_loglinear_chart_is_the_canonical_chart_relabelled(self):
        c, ref = chart_cm_loglinear(3), chart_canonical(3)
        assert (c.name, c.dim) == ("cm-loglinear(n=3)", ref.dim)
        rng = np.random.default_rng(5)
        z, g = rng.normal(size=(2, 6)).astype(complex)
        assert np.array_equal(c.pi(z), ref.pi(z))
        assert np.array_equal(c.pi(z, g), ref.pi(z, g))


class TestJacobiAndLeibniz:
    @pytest.mark.parametrize("make_chart,sampler", [
        (lambda: chart_canonical(2), lambda: RNG.normal(size=4).astype(complex)),
        (lambda: chart_cm_loglinear(3), lambda: RNG.normal(size=6).astype(complex)),
        (lambda: chart_relativistic_loglinear(2),
         lambda: RNG.uniform(0.5, 2.0, size=4).astype(complex)),
        (lambda: chart_heisenberg_double(2), lambda: heisenberg_point(2)),
        (lambda: chart_sklyanin(2),
         lambda: random_group_element(2).ravel()),
    ])
    def test_jacobi_defect_on_coordinate_triples(self, make_chart, sampler):
        chart = make_chart()
        for _ in range(5):
            z = sampler()
            idx = RNG.choice(chart.dim, size=3, replace=False)
            f, g, h = (coordinate(chart.dim, int(i)) for i in idx)
            assert abs(jacobi_defect(chart, f, g, h, z)) < JACOBI_TOL

    def test_leibniz_on_random_observables(self):
        chart = chart_heisenberg_double(2)
        z = heisenberg_point(2)
        f, g, h = (coordinate(chart.dim, int(i)) for i in (0, 3, 6))
        assert abs(leibniz_defect(chart, f, g, h, z)) < LEIBNIZ_TOL


class TestCMLogLinearCharts:
    def test_position_chart_brackets(self):
        """{h_i, u_j} = delta_ij on the reduced chart."""
        c = chart_cm_loglinear(3)
        z = RNG.normal(size=6).astype(complex)
        h1, u1, u2 = coordinate(6, 0), coordinate(6, 3), coordinate(6, 4)
        assert bracket(c, h1, u1, z) == pytest.approx(1.0)
        assert bracket(c, h1, u2, z) == pytest.approx(0.0)


class TestRelativisticChart:
    def test_log_canonical_bracket(self):
        """{x_1, u_1} = x_1 u_1 at (x_1, u_1) = (2, 3)."""
        c = chart_relativistic_loglinear(2)
        z = np.array([2.0, 1.0, 3.0, 1.0], dtype=complex)
        x1, u1, u2 = coordinate(4, 0), coordinate(4, 2), coordinate(4, 3)
        assert bracket(c, x1, u1, z) == pytest.approx(6.0)
        assert bracket(c, x1, u2, z) == pytest.approx(0.0)

    def test_zero_coordinate_is_singular(self):
        c = chart_relativistic_loglinear(2)
        with pytest.raises(SingularChartPoint):
            c.pi(np.array([0.0, 1.0, 1.0, 1.0], dtype=complex))


def standard_r(n: int) -> np.ndarray:
    """Standard classical r-matrix in the defining representation.

    r = (1/2) * Cartan part + sum_{i<j} E_ij (x) E_ji as an n^2 x n^2 matrix
    on C^n (x) C^n.  The Cartan dual basis is taken for sl_n via the trace
    form, i.e. the trace-part projection subtracts (1/2n) I (x) I.  Its
    symmetric part is half the split Casimir and is Ad-invariant; it
    satisfies the classical Yang-Baxter equation exactly.

    Built from ``poisson._r_mask``, the mask the Heisenberg-double and
    Sklyanin fields read, so the r-matrix checks below check that mask.
    """
    r = np.zeros((n, n, n, n), dtype=complex)
    i, k = np.indices((n, n))
    r[i, k, k, i] = _r_mask(n)
    return r.reshape(n * n, n * n) - (0.5 / n) * np.eye(n * n)


class TestStandardR:
    def test_n2_positive_root_part(self):
        """For n = 2 the root part is exactly E_12 (x) E_21."""
        r = standard_r(2)
        E12 = np.array([[0, 1], [0, 0]], dtype=complex)
        E21 = E12.T
        root_part = np.kron(E12, E21)
        cartan = r - root_part
        # cartan part must be diagonal in the tensor basis
        assert np.abs(cartan - np.diag(np.diag(cartan))).max() < 1e-14
        assert np.abs((r - cartan) - root_part).max() < 1e-14

    def test_symmetric_part_invariance(self):
        for n in (2, 3):
            r = standard_r(n)
            P = np.zeros((n * n, n * n))
            for i in range(n):
                for j in range(n):
                    P[i * n + j, j * n + i] = 1.0
            sym = 0.5 * (r + P @ r @ P)
            x = random_group_element(n, 0.5)
            xx = np.kron(x, x)
            assert np.abs(xx @ sym @ np.linalg.inv(xx) - sym).max() < 1e-9

    def test_antisymmetrized_conjugate(self):
        """Ad_x(r) - r is antisymmetric under the tensor flip."""
        n = 3
        r = standard_r(n)
        P = np.zeros((n * n, n * n))
        for i in range(n):
            for j in range(n):
                P[i * n + j, j * n + i] = 1.0
        x = random_group_element(n, 0.5)
        xx = np.kron(x, x)
        eta = xx @ r @ np.linalg.inv(xx) - r
        assert np.abs(eta + P @ eta @ P).max() < 1e-9

    def test_classical_yang_baxter(self):
        """[r12, r13] + [r12, r23] + [r13, r23] = 0 exactly."""
        n = 2
        r = standard_r(n)
        eye = np.eye(n)
        r12 = np.kron(r, eye)
        r23 = np.kron(eye, r)
        r4 = r.reshape(n, n, n, n)
        r13 = np.einsum("ikjl,ab->iakjbl", r4, eye).reshape(n ** 3, n ** 3)
        cybe = (r12 @ r13 - r13 @ r12 + r12 @ r23 - r23 @ r12
                + r13 @ r23 - r23 @ r13)
        assert np.abs(cybe).max() < 1e-14


def _flip(n):
    P = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            P[i * n + j, j * n + i] = 1.0
    return P


def _entry_block(B, n):
    # B[(i,k),(j,l)] = {a_ij, b_kl}  ->  block[(i,j),(k,l)]
    return B.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def heisenberg_kron_oracle(n, z):
    """The Heisenberg-double bivector assembled from n^2 x n^2 Kronecker
    products of the r-matrix relations; reference for the closed form."""
    r = standard_r(n)
    r21 = _flip(n) @ r @ _flip(n)
    eye = np.eye(n)
    x = z[:n * n].reshape(n, n)
    y = z[n * n:].reshape(n, n)
    X1, X2 = np.kron(x, eye), np.kron(eye, x)
    Y1, Y2 = np.kron(y, eye), np.kron(eye, y)
    Bxx = r @ X1 @ X2 - X1 @ X2 @ r21 + X1 @ r21 @ X2 - X2 @ r @ X1
    Bxy = -r21 @ X1 @ Y2 - X1 @ Y2 @ r21 + X1 @ r21 @ Y2 - Y2 @ r @ X1
    Byy = r @ Y1 @ Y2 - Y1 @ Y2 @ r21 + Y1 @ r21 @ Y2 - Y2 @ r @ Y1
    Pxx = _entry_block(Bxx, n)
    Pxy = _entry_block(Bxy, n)
    Pyy = _entry_block(Byy, n)
    return np.block([[Pxx, Pxy], [-Pxy.T, Pyy]])


def heisenberg_combined_oracle(n):
    """The Heisenberg-double field as one formula over both covector blocks
    (the combined formula of :func:`chart_heisenberg_double`'s docstring): it
    forms every product of both blocks, also those that a zero block makes
    exactly zero.  Reference for the chart's field, which evaluates only the
    blocks the covector touches."""
    m = n * n
    uc = _r_mask(n).astype(complex)

    def field(z, g):
        x, y = z.reshape(2, n, n)
        gxt, gyt = g[:m].reshape(n, n).T, g[m:].reshape(n, n).T
        px, ry = x.dot(gxt), y.dot(gyt)
        dy = ry - gyt.dot(y)
        e = px - gxt.dot(x) + dy
        w = uc * e
        vx = (w - ry).dot(x) + x.dot(e - w) + (g[m:].dot(z[m:]) / n) * x
        vy = w.dot(y) + y.dot(dy + px - w) - (g[:m].dot(z[:m]) / n) * y
        return np.concatenate([vx.ravel(), vy.ravel()])

    return field


def _field_scale(ref, g, z):
    """The scale of a field error: the reference's largest entry, or, at
    n = 1, where r = 0 and the Heisenberg-double bivector vanishes, the
    field's own scale |g| |z|^2."""
    return np.abs(ref).max() or np.abs(g).max() * np.abs(z).max() ** 2


class TestHeisenbergDouble:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_form_matches_kron_oracle(self, n):
        """``pi(z)``, built from the basis covectors e_k, each in one block."""
        rng = np.random.default_rng(100 + n)
        chart = chart_heisenberg_double(n)
        for _ in range(3):
            x, y = (np.eye(n) + 0.3 * (rng.normal(size=(n, n))
                                       + 1j * rng.normal(size=(n, n)))
                    for _ in range(2))
            z = np.concatenate([x.ravel(), y.ravel()])
            ref = heisenberg_kron_oracle(n, z)
            assert np.abs(chart.pi(z) - ref).max() <= 1e-13 * _field_scale(ref, 1.0, z)

    def test_antisymmetry_selfcheck(self):
        chart = chart_heisenberg_double(2)
        for _ in range(5):
            P = chart.pi(heisenberg_point(2))
            assert np.abs(P + P.T).max() < ANTISYM_TOL * max(1.0, np.abs(P).max())

    def test_trace_families_commute_internally(self):
        """Conjugation-invariant functions of x alone Poisson-commute; same
        for y alone."""
        chart = chart_heisenberg_double(2)
        z = heisenberg_point(2)

        def tr_pow(block, k):
            lo = 0 if block == "x" else 4
            return Observable(f"tr({block}^{k})",
                              lambda z: np.trace(np.linalg.matrix_power(
                                  z[lo:lo + 4].reshape(2, 2), k)))

        assert abs(bracket(chart, tr_pow("x", 1), tr_pow("x", 2), z)) < 1e-6
        assert abs(bracket(chart, tr_pow("y", 1), tr_pow("y", 2), z)) < 1e-6

    def test_trace_families_do_not_commute_mutually(self):
        chart = chart_heisenberg_double(2)
        z = heisenberg_point(2)
        trx = Observable("trx", lambda z: z[0] + z[3])
        try_ = Observable("try", lambda z: z[4] + z[7])
        assert abs(bracket(chart, trx, try_, z)) > 1e-8

    def test_bivector_nonzero_at_identity(self):
        """The pair chart stays nondegenerate at (1, 1): the mixed x-y block
        pairs through the invariant 2-tensor, so the bivector does not
        vanish there (only the x-x and y-y blocks do)."""
        chart = chart_heisenberg_double(2)
        zid = np.concatenate([np.eye(2).ravel(), np.eye(2).ravel()]).astype(complex)
        P = chart.pi(zid)
        assert np.abs(P[:4, :4]).max() < 1e-14
        assert np.abs(P[4:, 4:]).max() < 1e-14
        assert np.abs(P[:4, 4:]).max() > 0.4

    def test_mixed_jacobi_on_entry_triples(self):
        chart = chart_heisenberg_double(2)
        for _ in range(3):
            z = heisenberg_point(2)
            f = coordinate(8, int(RNG.integers(0, 4)))
            g = coordinate(8, int(RNG.integers(4, 8)))
            h = coordinate(8, int(RNG.integers(0, 8)))
            assert abs(jacobi_defect(chart, f, g, h, z)) < JACOBI_TOL


class TestHeisenbergBlockField:
    """The Heisenberg-double field is one formula over both covector
    blocks, in which a block where g is zero is the scalar 0: it forms
    the products of the blocks where g is nonzero only."""

    @staticmethod
    def covector(n, blocks, rng):
        """A random covector nonzero in the named blocks only."""
        m = n * n
        g = np.zeros(2 * m, dtype=complex)
        for b in blocks:
            part = slice(0, m) if b == "x" else slice(m, 2 * m)
            g[part] = rng.normal(size=m) + 1j * rng.normal(size=m)
        return g

    @pytest.mark.parametrize("blocks", ["x", "y", "xy"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_field_matches_kron_oracle(self, n, blocks):
        rng = np.random.default_rng(200 + n)
        chart = chart_heisenberg_double(n)
        for _ in range(3):
            z, g = _near_identity(n, 2)(rng), self.covector(n, blocks, rng)
            ref = heisenberg_kron_oracle(n, z) @ g
            assert np.abs(chart.pi(z, g) - ref).max() <= 1e-13 * _field_scale(ref, g, z)

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_zero_covector_gives_exact_zeros(self, n):
        chart = chart_heisenberg_double(n)
        z = _near_identity(n, 2)(np.random.default_rng(n))
        v = chart.pi(z, np.zeros(chart.dim, dtype=complex))
        assert v.shape == (2 * n * n,)
        assert np.array_equal(v, np.zeros(2 * n * n)) and not np.signbit(v.view(float)).any()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_trace_gradients_give_the_combined_formula_bit_for_bit(self, n):
        """On (I, 0) and (0, I), the gradients of tr(x) and tr(y), and on the
        gradients of tr(x^2) and tr(y^2), the dressing branch adds the combined
        formula's terms that are not exactly zero, in its order: the two
        fields agree bit for bit.  Only the sign of a zero entry may differ,
        where the combined formula adds a zero term that the branch leaves
        out, so the values are compared, not the bytes."""
        rng = np.random.default_rng(400 + n)
        field, oracle = chart_heisenberg_double(n).field, heisenberg_combined_oracle(n)
        eye, zero = np.eye(n).ravel().astype(complex), np.zeros(n * n, dtype=complex)
        squares = [trace_power(n, 2, block, 2).gradient for block in (0, 1)]
        for _ in range(50):
            z = _near_identity(n, 2)(rng)
            for g in (np.concatenate([eye, zero]), np.concatenate([zero, eye]),
                      *(grad(z) for grad in squares)):
                assert np.array_equal(field(z, g), oracle(z, g))

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("block", [0, 1])
    def test_a_block_that_commutes_with_its_covector_skips_the_mask(self, block, n):
        """The gradient of tr(a^k) makes E = a Ga^T - Ga^T a exactly zero at
        k = 1, 2, and the field then forms no masked product; at k = 3 E is
        roundoff but not zero, and the full formula runs (at n = 2 it rounds
        to zero at a few points in fifty).  The field is handed a mask that
        records its products."""
        masked = []

        class Mask:
            def __mul__(self, e):
                masked.append(e)
                return _r_mask(n) * e

        rng, field = np.random.default_rng(500 + n), chart_heisenberg_double(n).field
        for _ in range(10):
            z = _near_identity(n, 2)(rng)
            for k in (1, 2, 3):
                masked.clear()
                field(z, trace_power(n, k, block, 2).gradient(z), uc=Mask())
                assert len(masked) == (k == 3)

    @pytest.mark.parametrize("argv", [
        ["--scenario", "relativistic-ruijsenaars", "--n", "3", "--t-max", "0.2",
         "--dt", "1e-3", "--samples", "10", "--seed", "0"],
        ["--scenario", "relativistic-cm"]], ids=["ruijsenaars", "cm"])
    def test_flow_scenarios_write_the_combined_formulas_bytes(
            self, argv, tmp_path, monkeypatch):
        def run(tag):
            outs = [tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"]
            assert cli.main(argv + ["--out-csv", str(outs[0]),
                                    "--out-json", str(outs[1])]) == 0
            return [out.read_bytes() for out in outs]

        block = run("block")
        made = []

        def combined_chart(n, make=cli.chart_heisenberg_double):
            made.append(n)
            return dataclasses.replace(make(n), field=heisenberg_combined_oracle(n))

        monkeypatch.setattr(cli, "chart_heisenberg_double", combined_chart)
        assert run("combined") == block
        assert len(made) == 1


class TestHeisenbergBlockMemo:
    """Each pair chart keeps one memo of its last covector: the covector's
    dtype and bytes, and per block the bytes of that block's matrix with its
    products R, E and c.  A new covector clears the memo.  A call sequence
    on one chart gives at every call the value a fresh chart gives, and a
    dressing flow forms its block's products once."""

    @staticmethod
    def counted_products(monkeypatch):
        """``poisson._block_products`` wrapped to count its calls: one per
        block evaluation that misses."""
        misses = []
        products = poisson._block_products

        def counted(a, ga, n):
            misses.append(n)
            return products(a, ga, n)

        monkeypatch.setattr(poisson, "_block_products", counted)
        return misses

    @pytest.mark.parametrize("n", range(1, 9))
    def test_a_call_sequence_equals_fresh_charts(self, n, monkeypatch):
        """x-block, y-block, two-block and zero covectors interleaved, points
        repeated, and a point or a covector changed in place between two
        calls.  Against the combined formula the values are equal on every
        covector (a zero's sign may differ, so values are compared, not
        bytes)."""
        rng, m = np.random.default_rng(600 + n), n * n
        chart, oracle = chart_heisenberg_double(n), heisenberg_combined_oracle(n)
        points = [_near_identity(n, 2)(rng) for _ in range(3)]
        randoms = [TestHeisenbergBlockField.covector(n, blocks, rng)
                   for blocks in ("x", "y", "xy", "xy")]
        gradients = [trace_power(n, k, block, 2).gradient for k in (1, 2, 3) for block in (0, 1)]
        misses = self.counted_products(monkeypatch)
        evaluations = hits = 0
        for step in range(80):
            z = points[rng.integers(len(points))]
            choice = rng.integers(len(randoms) + len(gradients) + 1)
            if choice < len(randoms):
                g = randoms[choice]
            elif choice < len(randoms) + len(gradients):
                g = gradients[choice - len(randoms)](z)
            else:
                g = np.zeros(2 * m, dtype=complex)
            for repeat in range(2):
                before = len(misses)
                v = chart.field(z, g)
                blocks = bool(np.count_nonzero(g[:m])) + bool(np.count_nonzero(g[m:]))
                evaluations, hits = evaluations + blocks, hits + blocks - (len(misses) - before)
                assert np.array_equal(v, chart_heisenberg_double(n).field(z, g))
                assert np.array_equal(v, oracle(z, g))
                # between the two calls, change the point or a writable covector in place
                target = z if step % 2 or not g.flags.writeable else g
                target[rng.integers(2 * m)] += 0.25
        # some block evaluations hit and some missed, so the sequence tested both
        assert 0 < hits < evaluations

    def flow_counts(self, monkeypatch, tmp_path, argv):
        """The report's exit code, the pair-chart block evaluations with the
        misses that the bytes of the covector and of each block predict, and
        the misses counted."""
        misses = self.counted_products(monkeypatch)
        evaluations, predicted = [0], [0]
        make = cli.chart_heisenberg_double

        def counted_chart(n):
            chart, m, last = make(n), n * n, {}

            def field(z, g):
                if last.get("g") != g.tobytes():        # a new covector clears the memo
                    last.clear()
                    last["g"] = g.tobytes()
                for block, part in (("x", slice(0, m)), ("y", slice(m, None))):
                    if np.count_nonzero(g[part]):
                        evaluations[0] += 1
                        predicted[0] += last.get(block) != z[part].tobytes()
                        last[block] = z[part].tobytes()
                return chart.field(z, g)

            return dataclasses.replace(chart, field=field)

        monkeypatch.setattr(cli, "chart_heisenberg_double", counted_chart)
        code = cli.main(argv + ["--out-json", str(tmp_path / "r.json")])
        return code, evaluations[0], predicted[0], len(misses)

    # the flow of tr(y) (the benchmark's pair-flow argv) or tr(x)
    # (relativistic-cm at its defaults), with its pair-chart block evaluations
    FLOWS = pytest.mark.parametrize("argv,evaluations", [
        (["--scenario", "relativistic-ruijsenaars", "--n", "3", "--t-max", "0.2",
          "--dt", "1e-3", "--samples", "10", "--seed", "0"], 800),
        (["--scenario", "relativistic-cm"], 2000)], ids=["pair-flow", "relativistic-cm"])

    @FLOWS
    def test_a_dressing_flow_forms_its_block_products_once(self, monkeypatch, tmp_path, argv,
                                                          evaluations):
        """A dressing flow holds its block and gradient fixed bit for bit:
        of its 4 field calls per rk4 step, only the first of the run forms
        products."""
        assert self.flow_counts(monkeypatch, tmp_path, argv) == (0, evaluations, 1, 1)

    @staticmethod
    def counted_blocks(monkeypatch):
        """``poisson._covector_blocks`` wrapped to count its calls: one per
        field call whose covector differs from the last one's."""
        counts = []
        blocks = poisson._covector_blocks

        def counted(g, m):
            counts.append(m)
            return blocks(g, m)

        monkeypatch.setattr(poisson, "_covector_blocks", counted)
        return counts

    @FLOWS
    def test_a_dressing_flow_counts_its_covector_blocks_once(self, monkeypatch, tmp_path, argv,
                                                            evaluations):
        """The gradient of tr(y) or tr(x) is one read-only array at every
        stage, so a report tests which of its blocks are nonzero once."""
        counts = self.counted_blocks(monkeypatch)
        assert cli.main(argv + ["--out-json", str(tmp_path / "r.json")]) == 0
        assert len(counts) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_covector_changed_in_place_is_counted_again(self, n, monkeypatch):
        """A y-block covector, then the same array with its x block filled
        in place, then with its y block zeroed: each change is counted once
        over two calls, and every call gives a fresh chart's value."""
        rng, m = np.random.default_rng(700 + n), n * n
        chart, z = chart_heisenberg_double(n), _near_identity(n, 2)(rng)
        g = TestHeisenbergBlockField.covector(n, "y", rng)
        x_block = TestHeisenbergBlockField.covector(n, "x", rng)[:m]
        counts = self.counted_blocks(monkeypatch)
        for change in ("none", "x block filled", "y block zeroed"):
            if change == "x block filled":
                g[:m] = x_block
            elif change == "y block zeroed":
                g[m:] = 0.0
            want = chart_heisenberg_double(n).field(z, g)
            before = len(counts)
            for _ in range(2):
                assert np.array_equal(chart.field(z, g), want)
            assert len(counts) == before + 1

    def test_equal_bytes_under_another_dtype_are_counted_again(self, monkeypatch):
        """A float covector whose x block is all -0.0 has no nonzero x
        entry; its int64 view, the same bytes, has nothing but nonzero
        entries there.  Each call counts its covector's blocks, and the int
        call evaluates the x block a fresh chart evaluates."""
        n, m = 2, 4
        rng = np.random.default_rng(710)
        chart, z = chart_heisenberg_double(n), _near_identity(n, 2)(rng)
        g = np.concatenate([np.full(m, -0.0), rng.normal(size=m)])
        bits = g.view(np.int64)
        want = [chart_heisenberg_double(n).field(z, a) for a in (g, bits, g)]
        counts = self.counted_blocks(monkeypatch)
        for a, value in zip((g, bits, g), want):
            assert np.array_equal(chart.field(z, a), value)
        assert len(counts) == 3
        assert not np.array_equal(want[0], want[1])

    def test_a_zero_covector_forms_nothing_and_gives_exact_zeros(self, monkeypatch):
        """After a two-block covector, a zero one gives +0.0 everywhere, is
        counted once over three calls and forms no products; it clears the
        memo, so the two-block covector again is counted again and forms both
        blocks' products again."""
        n, m = 3, 9
        rng = np.random.default_rng(720)
        chart, z = chart_heisenberg_double(n), _near_identity(n, 2)(rng)
        g, zero = TestHeisenbergBlockField.covector(n, "xy", rng), np.zeros(2 * m, dtype=complex)
        misses, counts = self.counted_products(monkeypatch), self.counted_blocks(monkeypatch)
        want = chart.field(z, g)
        assert (len(misses), len(counts)) == (2, 1)
        for _ in range(3):
            v = chart.field(z, zero)
            assert np.array_equal(v, zero) and not np.signbit(v.view(float)).any()
        assert (len(misses), len(counts)) == (2, 2)
        assert np.array_equal(chart.field(z, g), want)
        assert (len(misses), len(counts)) == (4, 3)

    def test_bracket_checks_miss_where_a_block_or_its_covector_changed(self, monkeypatch,
                                                                       tmp_path):
        """verify-brackets changes its covector or its point from call to
        call: its block evaluations miss except where a finite-difference
        step moved only the other block, and the misses are exactly the
        evaluations whose covector or block bytes changed."""
        code, evaluations, predicted, misses = self.flow_counts(
            monkeypatch, tmp_path, ["--scenario", "verify-brackets"])
        assert code == 0 and misses == predicted
        assert evaluations / 2 < misses < evaluations


def _unit(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def standard_r_kron_oracle(n):
    """The standard r-matrix summed from Kronecker products of matrix units."""
    r = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            r[:] += np.kron(_unit(n, i, j), _unit(n, j, i))
    for a in range(n):
        r[:] += 0.5 * np.kron(_unit(n, a, a), _unit(n, a, a))
    r -= (0.5 / n) * np.eye(n * n)
    return r


def sklyanin_inverse_oracle(n, z):
    """eta(x) = (x (x) x) r (x (x) x)^{-1} - r paired with T[(i,j)] = x E_ji
    by an explicit inverse and einsum; reference for the closed form."""
    r = standard_r(n)
    x = z.reshape(n, n)
    xx = np.kron(x, x)
    eta4 = (xx @ r @ np.linalg.inv(xx) - r).reshape(n, n, n, n)
    T = np.empty((n * n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            T[i * n + j] = x @ _unit(n, j, i)
    return np.einsum("acbd,Aba,Bdc->AB", eta4, T, T)


class TestSklyanin:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_standard_r_bitwise_equals_kron_sum(self, n):
        r, ref = standard_r(n), standard_r_kron_oracle(n)
        assert r.view(float).tobytes() == ref.view(float).tobytes()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_closed_form_matches_inverse_oracle(self, n):
        """Within 100 eps kappa_2(x)^2 max|Pi|: the oracle inverts x (x) x,
        whose condition number is kappa_2(x)^2."""
        rng = np.random.default_rng(200 + n)
        chart = chart_sklyanin(n)
        for _ in range(5):
            m = np.eye(n) + 0.35 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            x = m / np.linalg.det(m) ** (1.0 / n)
            P, ref = chart.pi(x.ravel()), sklyanin_inverse_oracle(n, x.ravel())
            bound = 100 * np.finfo(float).eps * np.linalg.cond(x) ** 2 * np.abs(ref).max()
            assert np.abs(P - ref).max() <= bound
            assert np.abs(P + P.T).max() <= 4 * EPS * np.abs(P).max()

    def test_closed_form_symbolically_equals_eta_pairing(self):
        """At n = 2 the chart's field, run on symbols one basis covector at
        a time, equals eta(x) paired with x E_ji exactly, with r built from
        its definition."""
        sp = pytest.importorskip("sympy")
        chart = chart_sklyanin(2)
        z, ref = _eta_pairing_symbolic(2)
        P = np.stack([chart.field(z, e) for e in np.eye(chart.dim)], axis=1)
        for got, want in zip(P.ravel(), ref.ravel()):
            assert sp.cancel(sp.nsimplify(got, rational=True) - want) == 0

    def test_vanishes_at_identity(self):
        chart = chart_sklyanin(2)
        P = chart.pi(np.eye(2).ravel().astype(complex))
        assert np.abs(P).max() < 1e-14

    def test_invariant_functions_commute(self):
        chart = chart_sklyanin(3)
        z = random_group_element(3).ravel()
        trx = Observable("trx", lambda z: np.trace(z.reshape(3, 3)))
        trx2 = Observable("trx2", lambda z: np.trace(
            np.linalg.matrix_power(z.reshape(3, 3), 2)))
        assert abs(bracket(chart, trx, trx2, z)) < 1e-6

    def test_determinant_is_casimir(self):
        """det brackets to zero with every entry, so flows stay unimodular."""
        chart = chart_sklyanin(2)
        z = random_group_element(2).ravel()
        det = Observable("det", lambda z: np.linalg.det(z.reshape(2, 2)))
        for idx in range(4):
            assert abs(bracket(chart, det, coordinate(4, idx), z)) < 1e-6

    def test_jacobi(self):
        chart = chart_sklyanin(2)
        for _ in range(3):
            z = random_group_element(2).ravel()
            idx = RNG.choice(4, size=3, replace=False)
            f, g, h = (coordinate(4, int(i)) for i in idx)
            assert abs(jacobi_defect(chart, f, g, h, z)) < JACOBI_TOL


def _eta_pairing_symbolic(n):
    """eta(x) = (x (x) x) r (x (x) x)^{-1} - r paired with T[(i,j)] = x E_ji
    in sympy, with r built from its definition: the entry symbols of x
    row-major, and the n^2 x n^2 pairing with each entry cancelled to its
    polynomial."""
    sp = pytest.importorskip("sympy")
    x = sp.Matrix(n, n, sp.symbols(f"x:{n}:{n}"))

    def unit(i, j):
        e = sp.zeros(n, n)
        e[i, j] = 1
        return e

    r = -sp.Rational(1, 2 * n) * sp.eye(n * n)
    for i in range(n):
        for k in range(n):
            u = 1 if i < k else sp.Rational(1, 2) if i == k else 0
            r += u * sp.kronecker_product(unit(i, k), unit(k, i))
    xx = sp.kronecker_product(x, x)
    eta = xx * r * sp.kronecker_product(x.inv(), x.inv()) - r
    T = [x * unit(j, i) for i in range(n) for j in range(n)]
    P = np.empty((n * n, n * n), dtype=object)
    for A in range(n * n):
        for B in range(n * n):
            P[A, B] = sp.cancel(sum(eta[a * n + c, b * n + d] * T[A][b, a] * T[B][d, c]
                                    for a in range(n) for b in range(n)
                                    for c in range(n) for d in range(n)))
    return np.array(list(x), dtype=object), P


def _symbolic_oracle(make_chart):
    """The n = 2 oracle of an r-matrix chart run on symbols z: the Kronecker
    products of the Heisenberg-double relations, or Sklyanin's eta pairing."""
    if make_chart is chart_sklyanin:
        return _eta_pairing_symbolic(2)
    sp = pytest.importorskip("sympy")
    z = np.array(sp.symbols("z:8"), dtype=object)
    return z, heisenberg_kron_oracle(2, z)


ORACLES = {chart_heisenberg_double: heisenberg_kron_oracle,
           chart_sklyanin: sklyanin_inverse_oracle}


class TestMatrixFormFields:
    """``pi(z, g)`` of the r-matrix charts is Pi(z) . g in closed matrix form,
    without forming Pi; the Kronecker and inverse oracles are its reference."""

    @pytest.mark.parametrize("make_chart", [chart_heisenberg_double, chart_sklyanin])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_field_matches_bivector_times_covector(self, make_chart, n):
        rng = np.random.default_rng(300 + n)
        chart = make_chart(n)
        assert chart.field is not None
        for _ in range(3):
            z = np.tile(np.eye(n).ravel(), chart.dim // (n * n)) + 0.3 * (
                rng.normal(size=chart.dim) + 1j * rng.normal(size=chart.dim))
            g = rng.normal(size=chart.dim) + 1j * rng.normal(size=chart.dim)
            ref = ORACLES[make_chart](n, z) @ g
            assert np.abs(chart.pi(z, g) - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("make_chart", [chart_heisenberg_double, chart_sklyanin])
    def test_field_symbolically_equals_bivector_times_covector(self, make_chart):
        """At n = 2 the chart's field, run on symbols, expands to its
        oracle's bivector times a symbolic covector exactly."""
        sp = pytest.importorskip("sympy")
        chart = make_chart(2)
        z, P = _symbolic_oracle(make_chart)
        g = np.array(sp.symbols(f"g:{chart.dim}"), dtype=object)
        v = chart.field(z, g)
        for got, want in zip(v, P.dot(g)):
            exact = sp.nsimplify(sp.expand(got), rational=True)
            assert sp.expand(exact - sp.nsimplify(sp.expand(want), rational=True)) == 0

    def test_ham_vector_field_takes_the_field_route(self):
        """On an r-matrix chart the integrators' right-hand side is one
        field call and never builds the bivector."""
        chart, calls = counted_field(chart_heisenberg_double(2))
        z = heisenberg_point(2)
        H = trace_power(2, 2, 1, 2)
        v = ham_vector_field(chart, H, z)
        assert calls == [chart.name]
        ref = heisenberg_kron_oracle(2, z) @ H.gradient(z)
        assert np.abs(v - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("make_chart,n", [
        (chart_heisenberg_double, 2), (chart_heisenberg_double, 3),
        (chart_sklyanin, 2), (chart_sklyanin, 3), (chart_sklyanin, 8)])
    def test_bracket_takes_the_field_route(self, make_chart, n):
        """``bracket`` is grad f . pi(z, grad g): one field call, never the
        built bivector, and it equals grad f . Pi(z) . grad g."""
        chart, calls = counted_field(make_chart(n))
        rng = np.random.default_rng(40 + n)
        z = np.tile(np.eye(n).ravel(), chart.dim // (n * n)) + 0.3 * (
            rng.normal(size=chart.dim) + 1j * rng.normal(size=chart.dim))
        P = ORACLES[make_chart](n, z)
        for k in range(1, 5):
            wf, wg = rng.normal(size=(2, chart.dim)) + 1j * rng.normal(size=(2, chart.dim))
            f = Observable("f", lambda w, a=wf: w @ a, grad=lambda w, a=wf: a)
            g = Observable("g", lambda w, a=wg: w @ a, grad=lambda w, a=wg: a)
            ref = wf @ P @ wg
            scale = np.abs(wf) @ np.abs(P) @ np.abs(wg)
            assert abs(bracket(chart, f, g, z) - ref) <= 1e-13 * scale
            assert len(calls) == k

    @pytest.mark.parametrize("n", range(1, 9))
    def test_r_mask_and_its_transpose_sum_to_one(self, n):
        """u + u^T = 1 entrywise, exactly: the identity that folds the
        Heisenberg-double field's five masked products into one."""
        u = _r_mask(n)
        assert np.array_equal(u + u.T, np.ones((n, n)))
        assert set(np.unique(u)) <= {0.0, 0.5, 1.0}

    @pytest.mark.parametrize("make_chart", [chart_heisenberg_double, chart_sklyanin])
    def test_selfcheck_rejects_a_field_that_is_not_antisymmetric(self, make_chart):
        """With Pi never formed, the self-check tests g . Pi(z) g = 0, and on
        the built Pi its antisymmetry: a field with a planted symmetric part
        fails both as a library error, the true field passes."""
        chart = make_chart(2)
        bent = dataclasses.replace(
            chart, field=lambda z, g, f=chart.field: f(z, g) + 1e-6 * g)
        rng = np.random.default_rng(5)
        z = np.tile(np.eye(2).ravel(), chart.dim // 4) + 0.3 * rng.normal(size=chart.dim)
        g = rng.normal(size=chart.dim)
        chart.pi(z, g)
        chart.pi(z)
        with pytest.raises(ConsistencyError, match="field of chart .* lost antisymmetry"):
            bent.pi(z, g)
        with pytest.raises(ConsistencyError, match="bivector of chart .* lost antisymmetry"):
            bent.pi(z)


def _normal(dim):
    return lambda rng: rng.normal(size=dim) + 1j * rng.normal(size=dim)


def _near_identity(n, blocks):
    return lambda rng: np.tile(np.eye(n).ravel(), blocks) + 0.3 * (
        rng.normal(size=blocks * n * n) + 1j * rng.normal(size=blocks * n * n))


# (chart, point sampler, oracle of Pi(z)) for every chart constructor
EVERY_CHART = [
    (chart_canonical(3), _normal(6), lambda z: log_linear_oracle(np.ones(3))),
    (chart_cm_loglinear(2), _normal(4), lambda z: log_linear_oracle(np.ones(2))),
    (chart_relativistic_loglinear(3), _normal(6),
     lambda z: log_linear_oracle(z[:3] * z[3:])),
    (chart_heisenberg_double(2), _near_identity(2, 2),
     lambda z: heisenberg_kron_oracle(2, z)),
    (chart_heisenberg_double(3), _near_identity(3, 2),
     lambda z: heisenberg_kron_oracle(3, z)),
    (chart_sklyanin(2), _near_identity(2, 1), lambda z: sklyanin_inverse_oracle(2, z)),
    (chart_sklyanin(3), _near_identity(3, 1), lambda z: sklyanin_inverse_oracle(3, z)),
]


@pytest.mark.parametrize("chart,sample,oracle", EVERY_CHART,
                         ids=[chart.name for chart, _, _ in EVERY_CHART])
def test_pi_is_antisymmetric_its_field_and_its_oracle(chart, sample, oracle):
    """``pi(z)``, built from the field one column at a time, is antisymmetric
    to a few ulps, carries ``pi(z, g)`` as its product with g, and matches
    the chart's independent oracle."""
    rng = np.random.default_rng(chart.dim)
    for _ in range(4):
        z, g = sample(rng), _normal(chart.dim)(rng)
        P, ref, v = chart.pi(z), oracle(z), chart.pi(z, g)
        assert P.shape == (chart.dim, chart.dim)
        assert np.abs(P + P.T).max() <= 4 * EPS * np.abs(P).max()
        assert np.abs(P @ g - v).max() <= 1e-13 * np.abs(v).max()
        assert np.abs(P - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("chart,sample", [(chart, sample) for chart, sample, _ in EVERY_CHART],
                         ids=[chart.name for chart, _, _ in EVERY_CHART])
def test_pi_rejects_a_covector_of_another_length(chart, sample):
    """A covector one entry short or one entry long, given as an array, as a
    list or by a function of the point, raises ``DimensionMismatch`` naming
    the chart, its dim and the length; a list of the right length is
    converted once and gives the array's value."""
    rng = np.random.default_rng(chart.dim)
    z, g = sample(rng), _normal(chart.dim)(rng)
    for bad in (g[:-1], np.append(g, 1.0)):
        message = (rf"chart {re.escape(repr(chart.name))} has dim {chart.dim}, "
                   rf"got covector of shape \({len(bad)},\)")
        for given in (bad, list(bad), lambda z, bad=bad: bad):
            with pytest.raises(DimensionMismatch, match=message):
                chart.pi(z, given)
    assert np.array_equal(chart.pi(z, list(g)), chart.pi(z, g))
