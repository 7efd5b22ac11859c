"""Tests for the integrators and the drift monitor."""

import math

import numpy as np
import pytest

from degint import kepler
from degint.config import TOL
from degint.double import entry_observable, projection_invariants, trace_power_observable
from degint.facto import CustomInvariant, TracePower, _chart_observable
from degint.integrate import _DP, _RK4, Trajectory, adaptive, monitor, rk4
from degint.kepler import kepler_observables
from degint.poisson import (
    Observable,
    PoissonChart,
    chart_canonical,
    chart_heisenberg_double,
    coordinate,
    ham_vector_field,
    observable_product,
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

        def counted(chart, x):
            calls.append(chart.name)
            return pi(chart, x)

        monkeypatch.setattr(PoissonChart, "pi", counted)
        n, steps = 3, 25
        x0 = np.concatenate([np.eye(n).ravel(), np.eye(n).ravel()]).astype(complex)
        x0[1] = x0[n * n + 3] = 0.2
        traj = rk4(chart_heisenberg_double(n), trace_power_observable(n, "y", 1),
                   x0, t_max=steps * 1e-3, dt=1e-3)
        assert traj.accepted_steps == steps
        assert calls == ["heisenberg-double(n=3)"] * (4 * steps)


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

    def test_spent_step_budget_is_flagged(self):
        """Stopping on max_steps short of t_max is a failure, not a silent
        truncation; a budget that suffices adds no flag."""
        c = chart_canonical(1)
        z0 = np.array([1.0, 0.0], dtype=complex)
        traj = adaptive(c, harmonic(), z0, t_max=100.0, tol=1e-10, max_steps=50)
        assert traj.accepted_steps + traj.rejected_steps == 50
        assert traj.times[-1] < 100.0
        assert traj.flags == ("step-budget-failure",)
        assert any("failure" in f for f in traj.flags)     # the CLI exits 2
        full = adaptive(c, harmonic(), z0, t_max=1.0, tol=1e-10, max_steps=10_000)
        assert full.times[-1] == 1.0 and full.flags == ()


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


def random_bound_kepler_states(count, seed=3):
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < count:
        s = kepler.KeplerState(p=rng.normal(size=3), q=rng.normal(size=3), gamma=1.0)
        if np.linalg.norm(s.q) > 0.3 and kepler.project_to_p5(s).H < -0.1:
            states.append(s)
    return states


class TestLoopOracles:
    def test_rk4_matches_loop_oracle(self):
        """200 steps of the Heisenberg-double flow agree with the hand-written
        loop to 1e-13 relative, with identical times."""
        n = 3
        rng = np.random.default_rng(8)
        g = np.eye(n) + 0.3 * (rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n)))
        chart, H = chart_heisenberg_double(n), trace_power_observable(n, "y", 2)
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
        want = adaptive_loop_oracle(kepler.kepler_chart(), kepler_observables(s.gamma)[-1],
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

    def test_drift_lookup_by_name(self):
        c = chart_canonical(1)
        H = harmonic()
        traj = rk4(c, H, np.array([1.0, 0.0], dtype=complex), t_max=1.0, dt=0.01)
        rep = monitor(traj, [H])
        assert rep.drift("H") < 1e-10


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


KEPLER = kepler_observables(1.3)
# family -> (stacked states, observables, whether every operation is elementwise)
FAMILIES = {
    "kepler-M": (kepler_states, KEPLER[:3], True),
    "kepler-A-H": (kepler_states, KEPLER[3:], False),
    "coordinate": (kepler_states, [coordinate(6, i) for i in range(6)], True),
    "product": (kepler_states, [observable_product(KEPLER[0], coordinate(6, 4))], True),
    "entry": (lambda: matrix_states(2, 2),
              [entry_observable(2, b, i, j) for b in "xy" for i in (0, 1) for j in (0, 1)],
              True),
    "trace-power": (lambda: matrix_states(3, 2),
                    [trace_power_observable(3, b, k) for b in "xy" for k in (1, 2, 3)],
                    False),
    "invariants-cm": (lambda: matrix_states(3, 2), projection_invariants(3, "cm", 3), False),
    "invariants-ruijsenaars": (lambda: matrix_states(2, 2),
                               projection_invariants(2, "ruijsenaars"), False),
    "chart-trace-power": (lambda: matrix_states(3, 1),
                          [_chart_observable(TracePower(k), 3) for k in (1, 2, 3)], False),
    "chart-custom": (lambda: matrix_states(3, 1),
                     [_chart_observable(CustomInvariant("det", np.linalg.det), 3),
                      _chart_observable(CustomInvariant("tr2", lambda m: np.trace(m @ m)), 3)],
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
