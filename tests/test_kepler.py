"""Kepler system tests: projection identities, bracket relations, level
surfaces, and conservation along integrated orbits."""

import dataclasses
import functools
import itertools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from degint import cli, integrate, kepler, poisson
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


class TestSymbolicConventions:
    """The frozen sign constants, derived exactly on R^6 with
    {p_i, q_j} = +delta_ij and {f, g} = sum_i df/dp_i dg/dq_i - df/dq_i dg/dp_i:
    (A, A) - gamma^2 - 2 (M, M) H = 0 and {A_1, A_2} = -2 H M_3, while the
    flipped signs leave a nonzero remainder; {M_1, M_2} = M_3 fixes the
    bracket's orientation."""

    @pytest.fixture(scope="class")
    def system(self):
        sp = pytest.importorskip("sympy")
        p, q = (sp.Matrix(sp.symbols(f"{c}1:4", real=True)) for c in "pq")
        gamma = sp.Symbol("gamma", positive=True)
        r = sp.sqrt(q.dot(q))
        M = p.cross(q)
        A = p.cross(M) + gamma * q / r
        H = p.dot(p) / 2 - gamma / r

        def bracket(f, g):
            return sum(f.diff(p[i]) * g.diff(q[i]) - f.diff(q[i]) * g.diff(p[i])
                       for i in range(3))

        return SimpleNamespace(sp=sp, p=p, q=q, gamma=gamma, M=M, A=A, H=H,
                               bracket=bracket)

    @staticmethod
    def vanishes(s, expr):
        return s.sp.simplify(s.sp.expand(expr)) == 0

    def test_the_chart_convention(self, system):
        s = system
        assert [[s.bracket(s.p[i], s.q[j]) for j in range(3)] for i in range(3)] == \
            np.eye(3, dtype=int).tolist()
        assert self.vanishes(s, s.bracket(s.M[0], s.M[1]) - s.M[2])

    def test_the_symbols_are_the_observables(self, system):
        """At a seeded point the symbolic M, A and H equal
        ``kepler_observables`` to roundoff."""
        s, (p, q) = system, np.random.default_rng(5).normal(size=(2, 3))
        at = dict(zip([*s.p, *s.q, s.gamma], [*p, *q, 0.7]))
        want = [float(e.subs(at)) for e in [*s.M, *s.A, s.H]]
        z = np.concatenate([p, q]).astype(complex)
        got = [o(z).real for o in kepler_observables(0.7)]
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("sign,zero", [(QUADRATIC_RELATION_SIGN, True),
                                           (-QUADRATIC_RELATION_SIGN, False)])
    def test_quadratic_relation_sign(self, system, sign, zero):
        s = system
        assert self.vanishes(s, s.A.dot(s.A) - s.gamma ** 2
                             - sign * 2 * s.M.dot(s.M) * s.H) is zero

    @pytest.mark.parametrize("sign,zero", [(LENZ_LENZ_SIGN, True), (-LENZ_LENZ_SIGN, False)])
    def test_lenz_lenz_sign(self, system, sign, zero):
        s = system
        assert self.vanishes(s, s.bracket(s.A[0], s.A[1]) - sign * 2 * s.H * s.M[2]) is zero


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

    @pytest.mark.parametrize("p,flagged", [([0.0, 1.0, 0.0], False), ([0.0, 0.0, 0.0], True)])
    def test_report_flags_are_the_trajectory_flags(self, p, flagged):
        """The report adds no flag of its own: a circular orbit has none, a
        radial fall into the origin stops with its trajectory's."""
        s = KeplerState(p=p, q=[1.0, 0.0, 0.0], gamma=1.0)
        traj = kepler.integrate_orbit(s, 2.0, 1e-9)
        assert bool(traj.flags) is flagged
        assert orbit_conservation_report(s, 2.0, 1e-9).flags == traj.flags


class TestRadialFall:
    """A fall into the origin stops on step underflow, not on the collision
    guard: the guard reads accepted states, and none comes near
    ``TOL.collision_radius``."""

    @pytest.mark.parametrize("tol", [2e-10, 1e-10, 1e-12, 1e-13])
    def test_stops_with_tolerance_failure_at_the_fall_time(self, tol):
        s = KeplerState(p=[0.0, 0.0, 0.0], q=[1.0, 0.0, 0.0], gamma=1.0)
        traj = kepler.integrate_orbit(s, 2.0, tol)
        assert traj.flags == ("tolerance-failure",)
        # the free-fall time from rest at |q| = 1, gamma = 1
        assert abs(traj.times[-1] - np.pi / (2.0 * np.sqrt(2.0))) < 1e-9
        assert 4e-9 < np.linalg.norm(traj.states[-1, 3:]) < 2e-8


def kepler_equation_q(p0, q0, gamma, tau):
    """q at each time ``tau`` of the standard bound orbit q' = p,
    p' = -gamma q / |q|^3 from (p0, q0): Kepler's equation E - e sin E = M
    solved by vectorized Newton from Danby's start M + 0.85 e sign(sin M),
    then the f and g functions of the eccentric anomaly's change."""
    r0 = np.linalg.norm(q0)
    a = -gamma / (2.0 * hamiltonian(p0, q0, gamma))     # semi-major axis
    n = np.sqrt(gamma / a ** 3)                          # mean motion
    e_cos, e_sin = 1.0 - r0 / a, (q0 @ p0) / np.sqrt(gamma * a)
    e, E0 = np.hypot(e_cos, e_sin), np.arctan2(e_sin, e_cos)
    M = E0 - e_sin + n * tau
    E = M + 0.85 * e * np.sign(np.sin(M))
    for _ in range(30):
        E = E - (E - e * np.sin(E) - M) / (1.0 - e * np.cos(E))
    assert np.abs(E - e * np.sin(E) - M).max() < 1e-12
    dE = E - E0
    f = 1.0 - a / r0 * (1.0 - np.cos(dE))
    g = tau - (dE - np.sin(dE)) / n
    return f[:, None] * q0 + g[:, None] * p0, 2.0 * np.pi / n


class TestKeplerEquation:
    """``integrate_orbit`` against Kepler's equation, at the ``kepler``
    scenario's defaults.  The chart's Pi g = (g_q, -g_p) gives q' = -p and
    p' = gamma q / |q|^3, the standard orbit run backwards, so q(t) is the
    standard orbit at -t.  The stored q lie within c tol max(1, periods) of
    it, c = 1e3: at seeds 0-29 the worst error is 6.6e-9 over 0.14-2.75
    periods, and the worst error / max(1, periods) is 2.8e-9, 35x below the
    bound's 1e-7.  At +t the closed form misses by 0.62 or more."""

    C = 1e3

    @staticmethod
    def orbit(seed):
        cfg = cli.ScenarioConfig(scenario="kepler", seed=seed,
                                 **cli._SCENARIOS["kepler"].options)
        cols = cli._scenario_kepler(cfg).columns
        t = cols["t"]
        assert t[-1] == cfg.t_max
        return t, np.column_stack([cols[f"{c}{i}"] for c in "pq" for i in (1, 2, 3)]), cfg

    @pytest.mark.parametrize("seed", range(30))
    def test_stored_states_follow_keplers_equation(self, seed):
        t, states, cfg = self.orbit(seed)
        q, period = kepler_equation_q(states[0, :3], states[0, 3:], 1.0, -t)
        bound = self.C * cfg.tol * max(1.0, cfg.t_max / period)
        assert np.abs(states[:, 3:] - q).max() <= bound
        # time not reversed: the closed form at +t misses by far more
        q_forward, _ = kepler_equation_q(states[0, :3], states[0, 3:], 1.0, t)
        assert np.abs(states[:, 3:] - q_forward).max() > 1e3 * bound


def energy_gradient_oracle(z, gamma):
    """(p, gamma q / |q|^3) by the array route: the masked array division
    over the 0-d |q|^3 = sqrt(vecdot(q, q)) ** 3, concatenated after p."""
    p, q = np.real(z[:3]), np.real(z[3:])
    return np.concatenate([p, gamma * q / np.sqrt(np.vecdot(q, q)) ** 3]).astype(complex)


def gradient_cases(rng):
    """States (p, q) with |q| from 1e-160 to 1e300, densest in 1e103-1e154
    where |q|^3 overflows a float but not |q|^2, and with zero, subnormal,
    NaN and infinite entries of q and p."""
    scales = np.concatenate([np.logspace(-160, 300, 921), np.logspace(103, 154, 511)])
    cases = [np.concatenate([rng.normal(size=3), rng.normal(size=3) * s]) for s in scales]
    specials = [0.0, -0.0, 5e-324, -2.5e-310, np.nan, np.inf, -np.inf]
    for q in ([0.0] * 3, [-0.0] * 3, [0.0, -0.0, 0.0], [np.inf] * 3, [np.nan] * 3):
        cases.append(np.concatenate([rng.normal(size=3), q]))
    for v in specials:
        for i in range(6):
            for base in (rng.normal(size=6), np.zeros(6), np.full(6, 1e120)):
                z = base.copy()
                z[i] = v
                cases.append(z)
    return np.array(cases).astype(complex)


def numpy_scalar_gradient(z, gamma):
    """(p, gamma q / |q|^3) from Python floats over the numpy scalar
    |q|^3 = np.sqrt(q.dot(q)) ** 3 at every |q|: the gradient's formula
    before its Python-float band."""
    x = z.real
    q = x[3:]
    c = np.sqrt(q.dot(q)) ** 3
    p0, p1, p2, q0, q1, q2 = x.tolist()
    return np.array([p0, p1, p2, gamma * q0 / c, gamma * q1 / c, gamma * q2 / c],
                    dtype=complex)


def errstate_of_run():
    """The floating-point error handling that ``integrate._run`` holds, as
    ``np.geterr`` reads it inside a field evaluation of one rk4 step."""
    seen = []

    def grad(z):
        seen.append(np.geterr())
        return np.zeros(2, dtype=complex)

    integrate.rk4(chart_canonical(1), poisson.Observable("H", lambda z: 0.0 * z[..., 0], grad),
                  np.zeros(2), t_max=1.0, dt=1.0)
    return seen[0]


def band_edge_cases(rng):
    """States whose radius math.sqrt(q.dot(q)) is exactly 1e-100, 1e100 or a
    float neighbour of either: q = (r, 0, 0) in each axis and sign, and
    random directions scaled to r, kept where the radius comes out r."""
    cases = []
    for edge in (1e-100, 1e100):
        for r in (np.nextafter(edge, 0), edge, np.nextafter(edge, np.inf)):
            for axis, sign in itertools.product(range(3), (1.0, -1.0)):
                q = np.zeros(3)
                q[axis] = sign * r
                cases.append(np.concatenate([rng.normal(size=3), q]))
            u = rng.normal(size=(400, 3))
            for q in u / np.linalg.norm(u, axis=1)[:, None] * r:
                if math.sqrt(q.dot(q)) == r:
                    cases.append(np.concatenate([rng.normal(size=3), q]))
    return np.array(cases).astype(complex)


def log_uniform_cases(rng, m):
    """m states with |q| log-uniform over 1e-150..1e150."""
    u = rng.normal(size=(m, 3))
    q = u / np.linalg.norm(u, axis=1)[:, None] * 10.0 ** rng.uniform(-150, 150, size=(m, 1))
    return np.concatenate([rng.normal(size=(m, 3)), q], axis=1).astype(complex)


def special_entry_cases(rng):
    """States with entries 0, nan and +-inf: each alone in each of the six
    places of a random state, and q made of them entirely."""
    cases = []
    specials = [0.0, np.nan, np.inf, -np.inf]
    for v, i in itertools.product(specials, range(6)):
        z = rng.normal(size=6)
        z[i] = v
        cases.append(z)
    for q in itertools.product(specials, repeat=3):
        cases.append(np.concatenate([rng.normal(size=3), q]))
    return np.array(cases).astype(complex)


class TestEnergyGradient:
    @pytest.mark.parametrize("cases", [band_edge_cases, functools.partial(
        log_uniform_cases, m=20_000), special_entry_cases],
        ids=["band-edges", "log-uniform", "special-entries"])
    @pytest.mark.parametrize("gamma", [1.0, 1.7])
    def test_gradient_is_the_numpy_scalar_formula(self, cases, gamma):
        """The H gradient is bit for bit its numpy-scalar formula on both
        sides of the Python-float band 1e-100 < |q| < 1e100, under the
        ``np.errstate`` that the integrator holds, other warnings as
        errors."""
        zs = cases(np.random.default_rng(43))
        radii = [math.sqrt(z.real[3:].dot(z.real[3:])) for z in zs]
        assert any(1e-100 < r < 1e100 for r in radii)
        assert any(not 1e-100 < r < 1e100 for r in radii)
        grad = kepler_observables(gamma)[-1].gradient
        with np.errstate(**errstate_of_run()), warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in zs:
                assert grad(z).tobytes() == numpy_scalar_gradient(z, gamma).tobytes(), z

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.7, 3.0])
    def test_gradient_is_the_array_route(self, gamma):
        """The H gradient, from Python floats over the numpy scalar |q|^3,
        is bit for bit the array route at every case, the zeros, subnormals,
        non-finite entries and the overflow band included, and raises no
        OverflowError or ZeroDivisionError where a float's ** or / would."""
        cases = gradient_cases(np.random.default_rng(16))
        grad = kepler_observables(gamma)[-1].gradient
        with np.errstate(all="ignore"):
            for z in cases:
                assert grad(z).tobytes() == energy_gradient_oracle(z, gamma).tobytes()

    def test_cases_reach_the_overflow_band(self):
        """The cases hold finite |q| whose cube a Python float cannot take."""
        cases = gradient_cases(np.random.default_rng(16))
        with np.errstate(over="ignore"):
            radii = [float(np.linalg.norm(z.real[3:])) for z in cases]
        assert sum(1e103 <= r <= 1e154 for r in radii) >= 600
        with pytest.raises(OverflowError):
            max(r for r in radii if r <= 1e154) ** 3

    @pytest.mark.parametrize("radius", [1e103, 1e120, 1e154])
    def test_orbit_through_the_overflow_band(self, radius):
        """``integrate_orbit`` from |q| in the overflow band, warnings as
        errors: gamma q / |q|^3 is exactly 0 there, so p keeps its bits and
        q_2 is free flight, -t in the chart's sign; the run ends unflagged
        after 4 accepted steps."""
        s = KeplerState(p=[0.0, 1.0, 0.0], q=[radius, 0.0, 0.0], gamma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = kepler.integrate_orbit(s, t_max=1.0, tol=1e-10)
        assert traj.flags == () and traj.accepted_steps == 4
        assert traj.times[-1] == 1.0
        assert traj.states[:, :3].tobytes() == np.tile(s.as_point()[:3], (5, 1)).tobytes()
        assert np.abs(traj.states[:, 4] + traj.times).max() <= 2.3e-16


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

    def test_radius_is_the_norm_of_a_state_row(self, monkeypatch):
        """The radius the guard reads, math.sqrt(q.dot(q)), is bit for bit
        np.linalg.norm(q): with the collision radius set to that norm the
        guard passes the state, and one float above it flags it."""
        rng = np.random.default_rng(20)
        states = (rng.normal(size=(500, 6))
                  * np.logspace(-13, 3, 500)[:, None]).astype(complex)
        for z in states:
            r = np.linalg.norm(np.real(z[3:]))
            for radius, flag in ((r, None), (np.nextafter(r, np.inf), "collision")):
                monkeypatch.setattr(kepler, "TOL",
                                    dataclasses.replace(TOL, collision_radius=radius))
                assert kepler._collision_guard(z) == flag

    def test_the_three_checks_reject_below_the_radius_alone(self, monkeypatch):
        """``KeplerState``, ``hamiltonian`` and the guard agree at the
        collision radius: with the radius set to |q| all three accept q, and
        at one float above it all three reject it."""
        rng = np.random.default_rng(21)
        for _ in range(100):
            p, q = rng.normal(size=3), rng.normal(size=3) * 10.0 ** rng.uniform(-13, 3)
            z, r = np.concatenate([p, q]).astype(complex), np.linalg.norm(q)
            monkeypatch.setattr(kepler, "TOL", dataclasses.replace(TOL, collision_radius=r))
            KeplerState(p=p, q=q, gamma=1.0)
            kepler.hamiltonian(p, q, 1.0)
            assert kepler._collision_guard(z) is None
            monkeypatch.setattr(kepler, "TOL", dataclasses.replace(
                TOL, collision_radius=np.nextafter(r, np.inf)))
            with pytest.raises(SingularChartPoint, match="collision"):
                KeplerState(p=p, q=q, gamma=1.0)
            with pytest.raises(SingularChartPoint, match="collision"):
                kepler.hamiltonian(p, q, 1.0)
            assert kepler._collision_guard(z) == "collision"


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
