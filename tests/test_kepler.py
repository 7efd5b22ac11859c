"""Kepler system tests: projection identities, bracket relations, level
surfaces, and conservation along integrated orbits."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from degint import kepler, poisson
from degint.config import TOL
from degint.errors import SingularChartPoint
from degint.kepler import (
    LENZ_LENZ_SIGN,
    QUADRATIC_RELATION_SIGN,
    KeplerState,
    hamiltonian,
    kepler_observables,
    orbit_conservation_report,
    radial_period,
)
from degint.poisson import bracket, chart_canonical

RNG = np.random.default_rng(4)

EPS = np.zeros((3, 3, 3))
EPS[0, 1, 2] = EPS[1, 2, 0] = EPS[2, 0, 1] = 1
EPS[0, 2, 1] = EPS[2, 1, 0] = EPS[1, 0, 2] = -1


def projection(s):
    """(M, A, H) of a state by ``np.cross``: the projection the tests read."""
    M = np.cross(s.p, s.q)
    return SimpleNamespace(M=M, A=np.cross(s.p, M) + s.gamma * s.q / np.linalg.norm(s.q),
                           H=hamiltonian(s.p, s.q, s.gamma))


def random_state(gamma=1.0, bound=None):
    """Sample a generic non-collision state; bound=True forces E < 0."""
    while True:
        p = RNG.normal(size=3)
        q = RNG.normal(size=3)
        if np.linalg.norm(q) < 0.3:
            continue
        s = KeplerState(p=p, q=q, gamma=gamma)
        E = projection(s).H
        if bound is None or (E < -0.05 if bound else E > 0.05):
            return s


class TestProjection:
    def test_circular_orbit(self):
        s = KeplerState(p=[0.0, 1.0, 0.0], q=[1.0, 0.0, 0.0], gamma=1.0)
        pt = projection(s)
        assert np.allclose(pt.M, [0.0, 0.0, -1.0])
        assert np.abs(pt.A).max() < 1e-15
        assert pt.H == pytest.approx(-0.5)

    def test_radial_rest_state(self):
        s = KeplerState(p=[0.0, 0.0, 0.0], q=[1.0, 0.0, 0.0], gamma=1.0)
        pt = projection(s)
        assert np.abs(pt.M).max() == 0.0
        assert np.allclose(pt.A, [1.0, 0.0, 0.0])
        assert pt.H == pytest.approx(-1.0)

    def test_orthogonality_identity(self):
        """(M, A) = 0 as an algebraic identity."""
        for _ in range(50):
            pt = projection(random_state(gamma=RNG.uniform(0.5, 2.0)))
            assert abs(pt.M @ pt.A) < 1e-12

    def test_quadratic_relation_with_frozen_sign(self):
        """(A, A) = gamma^2 + s 2 (M, M) H with the bootstrap sign s."""
        for _ in range(50):
            gamma = RNG.uniform(0.5, 2.0)
            pt = projection(random_state(gamma=gamma))
            lhs = pt.A @ pt.A
            rhs = gamma ** 2 + QUADRATIC_RELATION_SIGN * 2.0 * (pt.M @ pt.M) * pt.H
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_bootstrap_recovers_frozen_signs(self):
        """Recompute both sign constants by direct expansion at one point."""
        gamma = 1.3
        s = random_state(gamma=gamma)
        pt = projection(s)
        lhs = pt.A @ pt.A - gamma ** 2
        rhs = 2.0 * (pt.M @ pt.M) * pt.H
        assert np.sign(lhs / rhs) == QUADRATIC_RELATION_SIGN

        chart = chart_canonical(3)
        obs = kepler_observables(gamma)
        z = s.as_point()
        a1a2 = bracket(chart, obs[3], obs[4], z)
        sigma = np.real(a1a2) / (2.0 * pt.H * pt.M[2])
        assert np.sign(sigma) == LENZ_LENZ_SIGN

    def test_collision_rejected(self):
        with pytest.raises(SingularChartPoint):
            KeplerState(p=[1.0, 0.0, 0.0], q=[0.0, 0.0, 0.0], gamma=1.0)


def loop_gradients(z, gamma):
    """Test-only oracle for the M and A gradients: the index loops the
    array expressions replaced, one entry at a time."""
    p, q = np.real(z[:3]), np.real(z[3:])
    r = np.linalg.norm(q)
    grads = []
    for k in range(3):
        g = np.zeros(6, dtype=complex)
        for a in range(3):
            for b in range(3):
                g[a] += EPS[k, a, b] * q[b]
                g[3 + b] += EPS[k, a, b] * p[a]
        grads.append(g)
    pq = p @ q
    for k in range(3):
        g = np.zeros(6, dtype=complex)
        for l in range(3):
            g[l] = (k == l) * pq + p[k] * q[l] - 2.0 * p[l] * q[k]
            g[3 + l] = (p[k] * p[l] - (k == l) * (p @ p)
                        + gamma * ((k == l) / r - q[k] * q[l] / r ** 3))
        grads.append(g)
    return grads


class TestGradients:
    def test_momentum_and_lenz_gradients_match_loop_oracle(self):
        """The closed-form M and A gradients equal the per-index loops to
        1e-15 relative at 50 random states."""
        for _ in range(50):
            gamma = RNG.uniform(0.5, 2.0)
            z = random_state(gamma=gamma).as_point()
            obs = kepler_observables(gamma)
            for o, want in zip(obs[:6], loop_gradients(z, gamma)):
                got = o.gradient(z)
                assert got.shape == (6,) and got.dtype == complex
                assert np.abs(got - want).max() <= 1e-15 * max(1.0, np.abs(want).max()), o.name


class TestBracketRelations:
    def test_momentum_algebra(self):
        """{M_i, M_j} = eps_ijk M_k at random states."""
        gamma = 1.0
        chart = chart_canonical(3)
        obs = kepler_observables(gamma)
        for _ in range(10):
            s = random_state(gamma=gamma)
            z = s.as_point()
            pt = projection(s)
            for i in range(3):
                for j in range(3):
                    want = sum(EPS[i, j, k] * pt.M[k] for k in range(3))
                    got = bracket(chart, obs[i], obs[j], z)
                    assert abs(got - want) < 1e-6

    def test_momentum_lenz_algebra(self):
        """{M_i, A_j} = eps_ijk A_k."""
        gamma = 1.2
        chart = chart_canonical(3)
        obs = kepler_observables(gamma)
        for _ in range(10):
            s = random_state(gamma=gamma)
            z = s.as_point()
            pt = projection(s)
            for i in range(3):
                for j in range(3):
                    want = sum(EPS[i, j, k] * pt.A[k] for k in range(3))
                    got = bracket(chart, obs[i], obs[1 * 3 + j], z)
                    assert abs(got - want) < 1e-6

    def test_lenz_lenz_algebra_with_frozen_sign(self):
        """{A_i, A_j} = sigma 2 H eps_ijk M_k with the bootstrap sign."""
        gamma = 0.8
        chart = chart_canonical(3)
        obs = kepler_observables(gamma)
        for _ in range(10):
            s = random_state(gamma=gamma)
            z = s.as_point()
            pt = projection(s)
            for i in range(3):
                for j in range(3):
                    want = (LENZ_LENZ_SIGN * 2.0 * pt.H
                            * sum(EPS[i, j, k] * pt.M[k] for k in range(3)))
                    got = bracket(chart, obs[3 + i], obs[3 + j], z)
                    assert abs(got - want) < 1e-6

    def test_hamiltonian_commutes_with_conserved_set(self):
        """{H, M_i} = {H, A_i} = 0 at 100 random states."""
        gamma = 1.0
        chart = chart_canonical(3)
        obs = kepler_observables(gamma)
        H = obs[-1]
        for _ in range(100):
            z = random_state(gamma=gamma).as_point()
            for o in obs[:6]:
                assert abs(bracket(chart, H, o, z)) < 1e-6


class TestDegenerateIntegrability:
    """Kepler is degenerately integrable with N = 3 degrees of freedom and
    k = 1 Hamiltonian: its seven integrals (M, A, H) have 2N - k = 5
    independent differentials and a bracket matrix of rank 2N - 2k = 4.
    Measured at the 25 seeded bound points below: the kept singular values
    are at least 0.058 (differentials) and 0.37 (brackets) of the largest,
    the dropped ones at most 7.2e-17 and 4.7e-16.  The test asserts a gap of
    ten orders: kept >= 1e-3, dropped <= 1e-13, of the largest."""

    @staticmethod
    def bound_points(count, rng):
        points = []
        while len(points) < count:
            p, q = rng.normal(size=3), rng.normal(size=3)
            if np.linalg.norm(q) >= 0.3 and hamiltonian(p, q, 1.0) < -0.05:
                points.append(np.concatenate([p, q]).astype(complex))
        return points

    @staticmethod
    def rank(m):
        """The rank at the asserted gap; fails for a value inside it."""
        s = np.linalg.svd(m, compute_uv=False)
        s = s / s[0]
        assert not ((1e-13 < s) & (s < 1e-3)).any(), s
        return int((s >= 1e-3).sum())

    def test_ranks_of_the_differentials_and_the_brackets(self):
        chart, obs = chart_canonical(3), kepler_observables(1.0)
        for z in self.bound_points(25, np.random.default_rng(11)):
            dI = np.array([o.gradient(z) for o in obs]).real        # 7 x 6
            assert dI.shape == (7, 6) and self.rank(dI) == 5
            assert self.rank(dI @ chart.pi(z).real @ dI.T) == 4


class TestLevelSurfaces:
    def test_zero_energy_radius_is_gamma(self):
        """Zero-energy leaf: the quadratic relation at H = 0 puts A on the
        sphere (A, A) = gamma^2."""
        gamma = 2.0
        s = random_state(gamma=gamma)
        pt = projection(s)
        assert (pt.A @ pt.A - gamma ** 2) == pytest.approx(
            QUADRATIC_RELATION_SIGN * 2 * (pt.M @ pt.M) * pt.H, rel=1e-9)
        # the same state with its momentum rescaled onto H = 0
        p = s.p * np.sqrt(2.0 * gamma / np.linalg.norm(s.q)) / np.linalg.norm(s.p)
        zero = projection(KeplerState(p=p, q=s.q, gamma=gamma))
        assert abs(zero.H) < 1e-12
        assert np.sqrt(zero.A @ zero.A) == pytest.approx(gamma, rel=1e-9)

    def test_hyperboloid_casimir_constant(self):
        """Scattering leaf: (A, A) - 2E (M, M) = gamma^2 for every state."""
        gamma = 1.4
        for _ in range(20):
            s = random_state(gamma=gamma, bound=False)
            pt = projection(s)
            assert (pt.A @ pt.A - 2 * pt.H * (pt.M @ pt.M)
                    ) == pytest.approx(gamma ** 2, rel=1e-9)

    def test_sphere_factor_radii_constant_on_leaf(self):
        """L = M - A/sqrt(2|E|) and R = M + A/sqrt(2|E|) have squared norms
        gamma^2/(2|E|) for every state at energy E < 0."""
        gamma = 1.0
        for _ in range(20):
            s = random_state(gamma=gamma, bound=True)
            pt = projection(s)
            scale = np.sqrt(2.0 * abs(pt.H))
            for sign in (-1.0, 1.0):
                v = pt.M + sign * pt.A / scale
                assert v @ v == pytest.approx(gamma ** 2 / (2 * abs(pt.H)), rel=1e-9)


class TestOrbits:
    def test_circular_orbit_conservation(self):
        s = KeplerState(p=[0.0, 1.0, 0.0], q=[1.0, 0.0, 0.0], gamma=1.0)
        rep = orbit_conservation_report(s, t_max=2 * np.pi, tol=1e-10)
        assert rep.max_abs_drift.max() < 1e-8
        assert not any(f == "collision" for f in rep.flags)

    def test_elliptical_radial_period(self):
        """Detected radial period vs 2 pi gamma / (2|E|)^{3/2}; the formula
        itself was verified against an independent leapfrog simulation."""
        s = KeplerState(p=[0.0, 0.8, 0.0], q=[1.0, 0.0, 0.0], gamma=1.0)
        E = projection(s).H
        T_formula = 2 * np.pi * s.gamma / (2 * abs(E)) ** 1.5
        T = radial_period(s, t_max=3 * T_formula)
        assert T == pytest.approx(T_formula, rel=1e-6)

    def test_circular_orbit_closes_after_one_period(self):
        """Unit circular orbit has period 2 pi; the adaptive trajectory must
        return to its start within 1e-8."""
        from degint.kepler import integrate_orbit
        s = KeplerState(p=[0.0, 1.0, 0.0], q=[1.0, 0.0, 0.0], gamma=1.0)
        traj = integrate_orbit(s, t_max=2 * np.pi, tol=1e-10)
        assert np.abs(traj.final - traj.states[0]).max() < 1e-8

    def test_scattering_state_conservation(self):
        s = KeplerState(p=[0.0, 1.6, 0.0], q=[1.0, 0.2, 0.0], gamma=1.0)
        assert projection(s).H > 0
        rep = orbit_conservation_report(s, t_max=10.0, tol=1e-10)
        assert rep.max_abs_drift.max() < 1e-8

    def test_sign_constants_recorded(self):
        s = KeplerState(p=[0.0, 1.0, 0.0], q=[1.0, 0.0, 0.0], gamma=1.0)
        rep = orbit_conservation_report(s, t_max=0.5, tol=1e-9)
        assert "quadratic-relation-sign:+1" in rep.flags
        assert "lenz-lenz-sign:-1" in rep.flags


class TestEnergyGradient:
    def test_one_pass_gradient_is_the_concatenated_form(self):
        """The H gradient, written in place into one copy of Re z, is bit
        for bit (p, gamma q / |q|^3) assembled by concatenation."""
        rng = np.random.default_rng(16)
        for _ in range(200):
            gamma = rng.uniform(0.5, 2.0)
            z = (rng.normal(size=6) * rng.uniform(0.1, 10.0)).astype(complex)
            p, q = np.real(z[:3]), np.real(z[3:])
            want = np.concatenate([p, gamma * q / np.linalg.norm(q) ** 3]).astype(complex)
            got = kepler_observables(gamma)[-1].gradient(z)
            assert got.tobytes() == want.tobytes()


class TestCross:
    """``kepler._cross`` is np.cross, bit for bit, on the shapes it meets."""

    @pytest.mark.parametrize("shape_a,shape_b", [
        ((3,), (3,)), ((5, 3), (5, 3)), ((4, 6, 3), (4, 6, 3)),
        ((3,), (7, 3)), ((7, 3), (3,)),
    ])
    def test_bitwise_equal_to_np_cross(self, shape_a, shape_b):
        rng = np.random.default_rng(17)
        pairs = [(rng.normal(size=shape_a), rng.normal(size=shape_b)) for _ in range(20)]
        if shape_a == shape_b == (3,):
            # unit factors, as in the momentum gradient
            v = pairs[0][0]
            pairs += [(v, e) for e in np.eye(3)] + [(e, v) for e in np.eye(3)]
        for a, b in pairs:
            got, want = kepler._cross(a, b), np.cross(a, b)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestCollisionGuard:
    @pytest.mark.parametrize("factor,flag", [(1 - 1e-9, "collision"), (1 + 1e-9, None)])
    def test_flags_just_below_the_collision_radius(self, factor, flag):
        rng = np.random.default_rng(19)
        for _ in range(20):
            u = rng.normal(size=3)
            q = u / np.linalg.norm(u) * (TOL.collision_radius * factor)
            z = np.concatenate([rng.normal(size=3), q]).astype(complex)
            assert kepler._collision_guard(z) == flag

    def test_radius_is_the_norm_of_a_state_row(self):
        """The guard reads ``_radius``; it is bit for bit the norm the
        guard took before, so the guard fires on the same states."""
        rng = np.random.default_rng(20)
        states = (rng.normal(size=(500, 6))
                  * np.logspace(-13, 3, 500)[:, None]).astype(complex)
        for z in states:
            got = kepler._radius(z.real[3:])
            assert got.tobytes() == np.linalg.norm(np.real(z[3:])).tobytes()


class TestKeplerFastPath:
    """An orbit takes the canonical chart's closed-form field and the exact
    H gradient: building the bivector or differencing a gradient there
    fails the suite."""

    def test_orbit_forms_no_bivector_and_no_difference(self, monkeypatch):
        s = KeplerState(p=[0.1, 0.8, -0.2], q=[1.0, 0.1, 0.3], gamma=1.0)
        assert projection(s).H < 0
        want = kepler.integrate_orbit(s, 2 * np.pi, 1e-10)
        fields, pis = [], []

        def refuse(*args):
            raise AssertionError("Kepler orbit left the fast path")

        def counted_chart(n, make=kepler.chart_canonical):
            chart = make(n)

            def field(z, g):
                fields.append(1)
                return chart.field(z, g)

            return dataclasses.replace(chart, field=field)

        pi = poisson.PoissonChart.pi

        def counted_pi(chart, *args):
            pis.append(1)
            return pi(chart, *args)

        monkeypatch.setattr(kepler, "chart_canonical", counted_chart)
        monkeypatch.setattr(poisson.PoissonChart, "pi", counted_pi)
        monkeypatch.setattr(poisson, "_fd_gradient", refuse)
        got = kepler.integrate_orbit(s, 2 * np.pi, 1e-10)
        assert got.accepted_steps > 0 and got.flags == ()
        # one field call per pi call: no pi call built the bivector
        assert len(fields) == len(pis) == got.field_evaluations
        assert got.times.tobytes() == want.times.tobytes()
        assert got.states.tobytes() == want.states.tobytes()
        assert ((got.accepted_steps, got.rejected_steps, got.field_evaluations, got.flags)
                == (want.accepted_steps, want.rejected_steps, want.field_evaluations,
                    want.flags))
