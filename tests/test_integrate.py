"""Tests for the integrators and the drift monitor."""

import numpy as np
import pytest

from degint.double import entry_observable, projection_invariants, trace_power_observable
from degint.facto import CustomInvariant, TracePower, _chart_observable
from degint.integrate import Trajectory, adaptive, monitor, rk4
from degint.kepler import kepler_observables
from degint.poisson import (
    Observable,
    PoissonChart,
    chart_canonical,
    chart_heisenberg_double,
    coordinate,
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
