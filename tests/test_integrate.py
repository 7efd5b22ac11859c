"""Tests for the integrators and the drift monitor."""

import dataclasses
import math

import numpy as np
import pytest

from degint import integrate, kepler
from degint.config import TOL
from degint.double import projection_invariants
from degint.integrate import _DP, _RK4, Trajectory, adaptive, monitor, rk4
from degint.kepler import kepler_observables
from degint.poisson import (
    Observable,
    PoissonChart,
    chart_canonical,
    chart_heisenberg_double,
    coordinate,
    ham_vector_field,
    trace_power,
)

RNG = np.random.default_rng(2)


def free_particle():
    """H = p^2/2 on the 2d canonical chart; the field is constant."""
    return Observable("H", lambda z: 0.5 * z[0] ** 2,
                      grad=lambda z: np.array([z[0], 0.0 * z[1]]))


def harmonic():
    """H = (p^2 + q^2)/2; circles in phase space, energy exactly conserved."""
    return Observable("H", lambda z: 0.5 * (z[..., 0] ** 2 + z[..., 1] ** 2),
                      grad=lambda z: np.array([z[0], z[1]]))


def energy_drift(traj, H):
    vals = np.array([H(z) for z in traj.states])
    return np.abs(vals - vals[0]).max()


class TestRK4:
    def test_free_particle_exact(self):
        """Constant fields are integrated exactly by any RK scheme."""
        c = chart_canonical(1)
        traj = rk4(c, free_particle(), np.array([1.5, 0.0], dtype=complex),
                   t_max=2.0, dt=0.5)
        # qdot = -p under the global sign convention
        assert abs(traj.final[1] - (-3.0)) < 1e-14
        assert abs(traj.final[0] - 1.5) < 1e-14

    def test_zero_field_constant_trajectory(self):
        c = chart_canonical(1)
        H = Observable("c", lambda z: 1.0, grad=lambda z: np.zeros(2, dtype=complex))
        z0 = np.array([0.3, -0.7], dtype=complex)
        traj = rk4(c, H, z0, t_max=1.0, dt=0.1)
        assert np.abs(traj.states - z0[None, :]).max() == 0.0

    def test_harmonic_convergence_order(self):
        """Richardson halving on the oscillator gives order 4 +- 0.2."""
        c = chart_canonical(1)
        H = harmonic()
        z0 = np.array([1.0, 0.0], dtype=complex)
        errs = []
        for dt in (0.1, 0.05):
            traj = rk4(c, H, z0, t_max=6.0, dt=dt)
            # exact solution: rotation by t (orientation per convention)
            t = traj.times[-1]
            exact_p = np.cos(t) * 1.0
            errs.append(abs(traj.final[0] - np.exp(1j * 0)
                            * (np.cos(t))) + abs(abs(traj.final[1]) - abs(np.sin(t))))
        order = np.log2(errs[0] / errs[1])
        assert 3.8 <= order <= 4.2

    def test_guard_aborts_with_flag(self):
        c = chart_canonical(1)
        traj = rk4(c, free_particle(), np.array([1.0, 0.0], dtype=complex),
                   t_max=10.0, dt=0.1,
                   guard=lambda z: "collision" if abs(z[1]) > 0.5 else None)
        assert "collision" in traj.flags
        assert traj.times[-1] < 10.0

    @pytest.mark.parametrize("t_max,dt,steps", [
        (1.0, 0.3, 4), (1.0, 0.4, 3), (0.1, 0.03, 4), (0.2, 1e-3, 200), (1.0, 0.1, 10),
    ])
    def test_run_ends_on_t_max(self, t_max, dt, steps):
        """ceil(t_max / dt) steps, the last clipped so the run ends exactly on
        t_max; a ratio that is an integer up to roundoff takes that many full
        steps."""
        traj = rk4(chart_canonical(1), harmonic(), np.array([1.0, 0.0], dtype=complex),
                   t_max=t_max, dt=dt)
        assert traj.accepted_steps == steps
        assert traj.times[-1] == t_max
        assert np.all(np.abs(np.diff(traj.times)[:-1] - dt) <= 1e-15)
        assert 0.0 < traj.times[-1] - traj.times[-2] <= dt * (1 + 1e-12)
        assert traj.flags == ()

    def test_four_bivector_evaluations_per_step(self, monkeypatch):
        calls = []
        pi = PoissonChart.pi

        def counted(chart, *args):
            calls.append(chart.name)
            return pi(chart, *args)

        monkeypatch.setattr(PoissonChart, "pi", counted)
        n, steps = 3, 25
        x0 = np.concatenate([np.eye(n).ravel(), np.eye(n).ravel()]).astype(complex)
        x0[1] = x0[n * n + 3] = 0.2
        traj = rk4(chart_heisenberg_double(n), trace_power(n, 1, 1, 2),
                   x0, t_max=steps * 1e-3, dt=1e-3)
        assert traj.accepted_steps == steps
        assert calls == ["heisenberg-double(n=3)"] * (4 * steps)

    def test_one_point_validation_per_field_evaluation(self, monkeypatch):
        """Each ham_vector_field call checks its point once, inside pi."""
        counts = {"point": 0, "field": 0}
        point, field = PoissonChart.point, integrate.ham_vector_field

        def counted_point(chart, x):
            counts["point"] += 1
            return point(chart, x)

        def counted_field(*args):
            counts["field"] += 1
            return field(*args)

        monkeypatch.setattr(PoissonChart, "point", counted_point)
        monkeypatch.setattr(integrate, "ham_vector_field", counted_field)
        n, steps = 2, 10
        x0 = np.concatenate([np.eye(n).ravel(), np.eye(n).ravel()]).astype(complex)
        x0[1] = 0.2
        rk4(chart_heisenberg_double(n), trace_power(n, 2, 1, 2),
            x0, t_max=steps * 1e-3, dt=1e-3)
        assert counts == {"point": 4 * steps, "field": 4 * steps}


class TestAdaptive:
    def test_zero_time_returns_initial(self):
        c = chart_canonical(1)
        z0 = np.array([1.0, 2.0], dtype=complex)
        traj = adaptive(c, harmonic(), z0, t_max=0.0, tol=1e-10)
        assert np.abs(traj.final - z0).max() == 0.0

    def test_matches_rk4_at_small_dt(self):
        c = chart_canonical(1)
        H = harmonic()
        z0 = np.array([1.0, 0.0], dtype=complex)
        ref = rk4(c, H, z0, t_max=3.0, dt=1e-4).final
        got = adaptive(c, H, z0, t_max=3.0, tol=1e-12).final
        assert np.abs(got - ref).max() < 1e-8

    def test_energy_drift_within_tolerance_budget(self):
        c = chart_canonical(1)
        H = harmonic()
        traj = adaptive(c, H, np.array([1.0, 0.0], dtype=complex),
                        t_max=20.0, tol=1e-10)
        assert energy_drift(traj, H) < 100 * 1e-10

    def test_rejects_bad_tolerance(self):
        c = chart_canonical(1)
        with pytest.raises(ValueError):
            adaptive(c, harmonic(), np.zeros(2), t_max=1.0, tol=1e-3)

    @pytest.mark.parametrize("t_max", [-1.0, -1e-300, math.nan, math.inf])
    @pytest.mark.parametrize("integrator,step", [(rk4, 1e-3), (adaptive, 1e-10)],
                             ids=["rk4", "adaptive"])
    def test_rejects_a_negative_or_nonfinite_horizon(self, integrator, step, t_max):
        """Either integrator raises for such a horizon, rather than returning
        one state without a flag, a non-finite run or a bare conversion error."""
        with pytest.raises(ValueError, match="t_max must be finite and nonnegative"):
            integrator(chart_canonical(1), harmonic(), np.zeros(2), t_max, step)

    def test_spent_step_budget_is_flagged(self, monkeypatch):
        """Stopping on the attempt budget short of t_max is a failure, not a
        silent truncation; a budget that suffices adds no flag."""
        c = chart_canonical(1)
        z0 = np.array([1.0, 0.0], dtype=complex)
        assert integrate._ATTEMPT_BUDGET == 1_000_000
        monkeypatch.setattr(integrate, "_ATTEMPT_BUDGET", 50)
        traj = adaptive(c, harmonic(), z0, t_max=100.0, tol=1e-10)
        assert traj.accepted_steps + traj.rejected_steps == 50
        assert traj.times[-1] < 100.0
        assert traj.flags == ("step-budget-failure",)
        assert any("failure" in f for f in traj.flags)     # the CLI exits 2
        monkeypatch.setattr(integrate, "_ATTEMPT_BUDGET", 10_000)
        full = adaptive(c, harmonic(), z0, t_max=1.0, tol=1e-10)
        assert full.times[-1] == 1.0 and full.flags == ()


def poisoned(chart, at, index, bad):
    """``chart`` whose field, from its ``at``-th evaluation on, counted
    from 1, holds ``bad`` as the imaginary part of entry ``index``."""
    calls = 0

    def field(z, g):
        nonlocal calls
        calls += 1
        v = chart.field(z, g)
        if calls >= at:
            v[index] = complex(v[index].real, bad)
        return v

    return dataclasses.replace(chart, field=field)


class TestNonfiniteState:
    """A step whose new state holds a nan or an infinity, in either part of
    any entry, ends the run with ``nonfinite-state``; a state of finite
    entries near the largest float does not."""

    STOP = 6                # the attempt whose field goes bad

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("stage", ["first", "last"])
    @pytest.mark.parametrize("index", [0, 1])
    def test_rk4_stops_on_that_step(self, bad, stage, index):
        c, H, z0 = chart_canonical(1), harmonic(), np.array([1.0, 0.0], dtype=complex)
        at = 4 * (self.STOP - 1) + (1 if stage == "first" else 4)
        traj = rk4(poisoned(c, at, index, bad), H, z0, t_max=1.0, dt=0.05)
        clean = rk4(c, H, z0, t_max=1.0, dt=0.05)
        assert traj.flags == ("nonfinite-state",)
        assert (traj.accepted_steps, traj.field_evaluations) == (self.STOP - 1, 4 * self.STOP)
        assert traj.states.tobytes() == clean.states[:self.STOP].tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("stage", ["first", "last"])
    @pytest.mark.parametrize("index", [0, 1])
    def test_adaptive_stops_on_that_attempt(self, monkeypatch, bad, stage, index):
        """The run keeps what a clean run keeps in the attempts before."""
        c, H, z0 = chart_canonical(1), harmonic(), np.array([1.0, 0.0], dtype=complex)
        at = 7 * (self.STOP - 1) + (1 if stage == "first" else 7)
        traj = adaptive(poisoned(c, at, index, bad), H, z0, t_max=5.0, tol=1e-10)
        monkeypatch.setattr(integrate, "_ATTEMPT_BUDGET", self.STOP - 1)
        clean = adaptive(c, H, z0, t_max=5.0, tol=1e-10)
        assert traj.flags == ("nonfinite-state",)
        assert (traj.accepted_steps, traj.rejected_steps) == (4, 1)
        assert (traj.accepted_steps, traj.rejected_steps) == (clean.accepted_steps,
                                                              clean.rejected_steps)
        assert traj.field_evaluations == 7 * self.STOP
        assert traj.states.tobytes() == clean.states.tobytes()

    @pytest.mark.parametrize("integrator,step", [(rk4, 0.05), (adaptive, 1e-10)],
                             ids=["rk4", "adaptive"])
    def test_entries_near_the_largest_float_do_not_stop(self, integrator, step):
        """Free flight on the 4d canonical chart from p = 1e307 (1 + i) (1, -1)
        and q = 1.7e308 (1 + i) (1, -1): the sum of the parts and |q|
        overflow, the stage sums under Dormand-Prince's coefficients of up to
        11.6 do not, and q(t) = q(0) - t p stays finite."""
        H = Observable("H", lambda z: 0.5 * (z[..., 0] ** 2 + z[..., 1] ** 2),
                       grad=lambda z: np.concatenate([z[:2], np.zeros(2)]))
        p0, q0 = 1e307 * np.array([1, -1]), 1.7e308 * np.array([1, -1])
        z0 = np.concatenate([p0, q0]) * (1 + 1j)
        traj = integrator(chart_canonical(2), H, z0, 1.0, step)
        assert traj.flags == () and traj.times[-1] == 1.0
        assert (traj.states[:, :2] == z0[:2]).all()
        q = q0 - traj.times[:, None] * p0
        for part in (traj.states[:, 2:].real, traj.states[:, 2:].imag):
            assert np.abs(part - q).max() <= 1e-15 * 1.7e308


# ----------------------------------------------------------------------
# the Runge-Kutta tableaux and the single stepping loop
# ----------------------------------------------------------------------

def rk4_loop_oracle(chart, H, x0, t_max, dt):
    """Test-only oracle: the hand-written classical RK4 loop that the
    tableau-driven loop replaced.  It takes round(t_max / dt) steps, so it
    agrees with ``rk4`` only where that ratio is an integer."""
    z = np.asarray(x0, dtype=complex).ravel()
    nsteps = max(1, int(round(t_max / dt)))
    times = [0.0]
    states = [z.copy()]
    t = 0.0
    for _ in range(nsteps):
        h = min(dt, t_max - t)
        if h <= 0:
            break
        k1 = ham_vector_field(chart, H, z)
        k2 = ham_vector_field(chart, H, z + 0.5 * h * k1)
        k3 = ham_vector_field(chart, H, z + 0.5 * h * k2)
        k4 = ham_vector_field(chart, H, z + h * k3)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        times.append(t)
        states.append(z.copy())
    return Trajectory(np.array(times), np.array(states),
                      accepted_steps=len(times) - 1, rejected_steps=0, flags=())


# Dormand-Prince coefficients as ragged rows, written out independently of
# integrate._DP
DP_A_ROWS = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
DP_B5 = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]
DP_B4 = [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]


def adaptive_loop_oracle(chart, H, x0, t_max, tol, guard=None):
    """Test-only oracle: the hand-written Dormand-Prince loop that the
    tableau-driven loop replaced, with generator sums over the stages."""
    z = np.asarray(x0, dtype=complex).ravel()
    t = 0.0
    h = min(0.01 * max(t_max, 1e-8), t_max) or t_max
    times = [0.0]
    states = [z.copy()]
    flags = []
    accepted = rejected = 0
    k = [None] * 7
    while t < t_max:
        h = min(h, t_max - t)
        if h < TOL.step_underflow:
            flags.append("tolerance-failure")
            break
        k[0] = ham_vector_field(chart, H, z)
        for i in range(1, 7):
            k[i] = ham_vector_field(
                chart, H, z + h * sum(a * k[j] for j, a in enumerate(DP_A_ROWS[i])))
        z5 = z + h * sum(b * k[i] for i, b in enumerate(DP_B5) if b != 0.0)
        z4 = z + h * sum(b * k[i] for i, b in enumerate(DP_B4) if b != 0.0)
        scale = tol * np.maximum(1.0, np.maximum(np.abs(z), np.abs(z5)))
        err = np.sqrt(np.mean(np.abs((z5 - z4) / scale) ** 2))
        if err <= 1.0:
            t += h
            z = z5
            accepted += 1
            times.append(t)
            states.append(z.copy())
            flag = guard(z) if guard is not None else None
            if flag:
                flags.append(flag)
                break
        else:
            rejected += 1
        factor = 0.9 * (1.0 / err) ** 0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return Trajectory(np.array(times), np.array(states), accepted_steps=accepted,
                      rejected_steps=rejected, flags=tuple(flags))


def _grow(tree):
    """Every rooted tree made from ``tree`` by attaching one leaf to one of
    its nodes.  A tree is the sorted tuple of its root's subtrees."""
    yield tuple(sorted(tree + ((),)))
    for i, child in enumerate(tree):
        for grown in _grow(child):
            yield tuple(sorted(tree[:i] + (grown,) + tree[i + 1:]))


def rooted_trees(order):
    if order == 1:
        return {()}
    return {grown for tree in rooted_trees(order - 1) for grown in _grow(tree)}


def tree_order(tree):
    return 1 + sum(tree_order(child) for child in tree)


def tree_density(tree):
    return tree_order(tree) * math.prod(tree_density(child) for child in tree)


def stage_weights(A, tree):
    """Elementary weights at every stage: the product over the root's
    subtrees of A @ (their stage weights)."""
    return math.prod((A @ stage_weights(A, child) for child in tree), start=np.ones(len(A)))


def order_residuals(A, b, order):
    """b . Phi(t) - 1/gamma(t) over every rooted tree t of exactly ``order``
    nodes."""
    return np.array([b @ stage_weights(A, t) - 1.0 / tree_density(t)
                     for t in sorted(rooted_trees(order))])


TABLEAU_WEIGHTS = {
    # name -> (A, b, order)
    "rk4": (_RK4.A, _RK4.b, 4),
    "dp5": (_DP.A, _DP.b, 5),
    "dp4-embedded": (_DP.A, _DP.b_low, 4),
}


class TestTableaux:
    def test_tree_counts(self):
        assert [len(rooted_trees(p)) for p in range(1, 6)] == [1, 1, 2, 4, 9]

    @pytest.mark.parametrize("tableau,c", [
        (_RK4, [0.0, 0.5, 0.5, 1.0]),
        (_DP, [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]),
    ], ids=["rk4", "dp"])
    def test_explicit_with_row_sums_c(self, tableau, c):
        """Strictly lower-triangular A whose row sums are the published nodes
        c; the fields are autonomous, so the integrator itself never reads c."""
        assert np.all(np.triu(tableau.A) == 0.0)
        assert np.abs(tableau.A.sum(axis=1) - c).max() <= 1e-15

    @pytest.mark.parametrize("name", sorted(TABLEAU_WEIGHTS))
    def test_order_conditions(self, name):
        """Every condition up to the method's order holds to 1e-15 (8 for
        order 4, 17 for order 5); the next order misses by far more, so the
        check can fail."""
        A, b, order = TABLEAU_WEIGHTS[name]
        met = np.concatenate([order_residuals(A, b, p) for p in range(1, order + 1)])
        assert len(met) == {4: 8, 5: 17}[order]
        assert np.abs(met).max() <= 1e-15
        assert np.abs(order_residuals(A, b, order + 1)).max() > 1e-4

    @pytest.mark.parametrize("tableau", [_RK4, _DP], ids=["rk4", "dp"])
    def test_stage_inputs_equal_the_dense_dot(self, tableau):
        """On random finite stages, each stage input of one ``_run`` step is
        z + h * row.dot(K[:i]) over the whole tableau row, bit for bit."""
        rng, dim = np.random.default_rng(29), 6
        inputs, fields = [], []

        def field(z, g):
            inputs.append(z.copy())
            fields.append(rng.normal(size=dim) + 1j * rng.normal(size=dim))
            return fields[-1]

        chart = PoissonChart("random stages", dim, field)
        rows = [row[:i].astype(complex) for i, row in enumerate(tableau.A)]
        tol = None if tableau.b_low is None else 1e-8
        for _ in range(50):
            inputs.clear()
            fields.clear()
            z, h = rng.normal(size=dim) + 1j * rng.normal(size=dim), rng.uniform(1e-3, 1.0)
            # one step of h: a fixed-step run's one step ends on t_max
            integrate._run(chart, coordinate(dim, 0), z, h if tol is None else 2 * h,
                           tableau, h, 1, tol, None)
            K = np.array(fields)
            assert len(inputs) == len(rows) and inputs[0].tobytes() == z.tobytes()
            for i in range(1, len(rows)):
                assert inputs[i].tobytes() == (z + h * rows[i].dot(K[:i])).tobytes()


def random_bound_kepler_states(count, seed=3):
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < count:
        s = kepler.KeplerState(p=rng.normal(size=3), q=rng.normal(size=3), gamma=1.0)
        if np.linalg.norm(s.q) > 0.3 and kepler.hamiltonian(s.p, s.q, s.gamma) < -0.1:
            states.append(s)
    return states


class TestLoopOracles:
    def test_rk4_matches_loop_oracle(self):
        """200 steps of the Heisenberg-double flow agree with the hand-written
        loop to 1e-13 relative, with identical times."""
        n = 3
        rng = np.random.default_rng(8)
        g = np.eye(n) + 0.3 * (rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n)))
        chart, H = chart_heisenberg_double(n), trace_power(n, 2, 1, 2)
        got = rk4(chart, H, g.ravel(), t_max=0.2, dt=1e-3)
        want = rk4_loop_oracle(chart, H, g.ravel(), t_max=0.2, dt=1e-3)
        assert got.accepted_steps == want.accepted_steps == 200
        assert np.array_equal(got.times, want.times)
        assert np.abs(got.states - want.states).max() <= 1e-13 * np.abs(want.states).max()

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_adaptive_matches_loop_oracle_on_oscillator(self, tol):
        c = chart_canonical(1)
        z0 = np.array([1.0, 0.0], dtype=complex)
        got = adaptive(c, harmonic(), z0, t_max=20.0, tol=tol)
        want = adaptive_loop_oracle(c, harmonic(), z0, t_max=20.0, tol=tol)
        assert (got.accepted_steps, got.rejected_steps) == (want.accepted_steps,
                                                            want.rejected_steps)
        assert got.rejected_steps > 0
        assert np.abs(got.final - want.final).max() <= 1e-12

    @pytest.mark.parametrize("index", range(6))
    def test_adaptive_matches_loop_oracle_on_kepler_orbits(self, index):
        """Same accepted and rejected steps, and final states within 1e-12,
        over one nominal period of six bound orbits."""
        s = random_bound_kepler_states(6)[index]
        got = kepler.integrate_orbit(s, 2 * np.pi, 1e-10)
        want = adaptive_loop_oracle(chart_canonical(3), kepler_observables(s.gamma)[-1],
                                    s.as_point(), 2 * np.pi, 1e-10,
                                    guard=kepler._collision_guard)
        assert (got.accepted_steps, got.rejected_steps) == (want.accepted_steps,
                                                            want.rejected_steps)
        assert got.flags == want.flags == ()
        assert np.abs(got.final - want.final).max() <= 1e-12 * max(1.0, np.abs(want.final).max())


class TestMonitor:
    def test_constant_observable_zero_drift(self):
        c = chart_canonical(1)
        traj = rk4(c, harmonic(), np.array([1.0, 0.0], dtype=complex),
                   t_max=1.0, dt=0.01)
        rep = monitor(traj, [Observable("one", lambda z: 1.0)])
        assert rep.max_abs_drift[0] == 0.0

    def test_negative_control_shows_drift(self):
        """A deliberately non-conserved observable must register drift."""
        c = chart_canonical(1)
        traj = rk4(c, harmonic(), np.array([1.0, 0.0], dtype=complex),
                   t_max=3.0, dt=0.01)
        rep = monitor(traj, [coordinate(2, 1, "q1")])
        assert rep.max_abs_drift[0] > 1e-2

    def test_duplicate_names_rejected(self):
        c = chart_canonical(1)
        traj = rk4(c, harmonic(), np.array([1.0, 0.0], dtype=complex),
                   t_max=0.1, dt=0.05)
        with pytest.raises(ValueError):
            monitor(traj, [Observable("a", lambda z: 1.0),
                           Observable("a", lambda z: 2.0)])


def loop_values(states, observables):
    """Test-only oracle for ``monitor``: every observable called on one
    state at a time."""
    return np.array([[o(z) for o in observables] for z in states], dtype=complex)


def stacked(states):
    return Trajectory(np.arange(len(states), dtype=float), states,
                      accepted_steps=len(states) - 1, rejected_steps=0, flags=())


def kepler_states(m=40):
    rng = np.random.default_rng(5)
    q = rng.normal(size=(m, 3))
    q += 0.5 * q / np.linalg.norm(q, axis=-1, keepdims=True)     # |q| >= 0.5
    return np.concatenate([rng.normal(size=(m, 3)), q], axis=-1).astype(complex)


def matrix_states(n, blocks, m=40):
    """m random points (x[, y]) near the identity, stacked as (m, blocks * n^2)."""
    rng = np.random.default_rng(6)
    shape = (m, blocks, n, n)
    g = np.eye(n) + 0.3 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return g.reshape(m, -1)


def per_matrix(name, fn, n):
    """A function of one n x n matrix as an Observable on the one-matrix
    chart, called once per matrix of the stacked points."""
    return Observable(name, lambda z: np.array([fn(x) for x in z.reshape(-1, n, n)])
                      .reshape(z.shape[:-1]))


KEPLER = kepler_observables(1.3)
# family -> (stacked states, observables, whether every operation is elementwise)
FAMILIES = {
    "kepler-M": (kepler_states, KEPLER[:3], True),
    "kepler-A-H": (kepler_states, KEPLER[3:], False),
    "coordinate": (kepler_states, [coordinate(6, i) for i in range(6)], True),
    "entry": (lambda: matrix_states(2, 2), [coordinate(8, k) for k in range(8)], True),
    "trace-power": (lambda: matrix_states(3, 2),
                    [trace_power(3, k, b, 2) for b in (0, 1) for k in (1, 2, 3)],
                    False),
    "invariants-cm": (lambda: matrix_states(3, 2), projection_invariants(3, "cm"), False),
    "invariants-ruijsenaars": (lambda: matrix_states(2, 2),
                               projection_invariants(2, "ruijsenaars"), False),
    "chart-trace-power": (lambda: matrix_states(3, 1),
                          [trace_power(3, k) for k in (1, 2, 3)], False),
    "chart-custom": (lambda: matrix_states(3, 1),
                     [per_matrix("det", np.linalg.det, 3),
                      per_matrix("tr2", lambda m: np.trace(m @ m), 3)],
                     True),
}


class TestMonitorOracle:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_batched_values_match_per_state_loop(self, family):
        """One call per observable on the stacked states gives the per-state
        values: bitwise where every operation is elementwise (or, for a
        custom invariant, the same per-matrix call), otherwise to 1e-15
        relative to max(1, |value|)."""
        make_states, observables, elementwise = FAMILIES[family]
        states = make_states()
        got = monitor(stacked(states), observables).values
        want = loop_values(states, observables)
        assert got.shape == want.shape == (len(states), len(observables))
        if elementwise:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("fn", [lambda z: z[0], lambda z: z[..., :1],
                                    lambda z: z[:-1, 0]])
    def test_wrong_shape_names_the_observable(self, fn):
        with pytest.raises(ValueError, match="'pointwise'"):
            monitor(stacked(kepler_states(9)), [coordinate(6, 0), Observable("pointwise", fn)])
