"""Relativistic pair-system tests: moment map, duality, rank-1 reduction,
reduced Hamiltonians, and conservation along bracket-chart flows."""

import numpy as np
import pytest

from degint.double import (
    DoublePoint,
    RankOneClass,
    double_flow_conservation,
    duality_map,
    entry_observable,
    fiber_check,
    inverse_duality_map,
    moment,
    rank_one_consistency_oracle,
    rank_one_reduction,
    relativistic_hamiltonians,
    trace_power_observable,
)
from degint.errors import ReductionFailedError
from degint.poisson import bracket, chart_heisenberg_double

RNG = np.random.default_rng(6)


def random_sl(n, spread=0.35):
    m = np.eye(n) + spread * (RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n)))
    return m / np.linalg.det(m) ** (1.0 / n)


def random_pair(n, spread=0.35):
    return DoublePoint(x=random_sl(n, spread), y=random_sl(n, spread))


def random_eigs(n, spread=0.4):
    while True:
        x = np.exp(RNG.normal(size=n) * spread + 1j * RNG.normal(size=n) * spread)
        x /= np.prod(x) ** (1.0 / n)
        gaps = [abs(x[i] - x[j]) for i in range(n) for j in range(i + 1, n)]
        if min(gaps) > 0.1:
            return x


class TestMoment:
    def test_commuting_pair(self):
        x = np.diag([2.0, 0.5]).astype(complex)
        y = np.diag([0.25, 4.0]).astype(complex)
        pt = DoublePoint(x=x, y=y)
        assert np.abs(moment(pt) - np.eye(2)).max() < 1e-14

    def test_equal_pair(self):
        x = random_sl(3)
        pt = DoublePoint(x=x, y=x)
        assert np.abs(moment(pt) - np.eye(3)).max() < 1e-12

    def test_unimodular(self):
        for n in (2, 3):
            pt = random_pair(n)
            assert abs(np.linalg.det(moment(pt)) - 1.0) < 1e-9


class TestDualityMap:
    def test_moment_preserved_exactly(self):
        """mu(y^{-1}, y x y^{-1}) = mu(x, y), an algebraic identity."""
        for n in (2, 3):
            for _ in range(50):
                pt = random_pair(n)
                dev = np.abs(moment(duality_map(pt)) - moment(pt)).max()
                assert dev < 1e-12

    def test_hamiltonian_exchange(self):
        """tr(x) of the image equals tr(y^{-1}) of the source."""
        pt = random_pair(3)
        img = duality_map(pt)
        assert np.trace(img.x) == pytest.approx(np.trace(np.linalg.inv(pt.y)))

    def test_identity_fixed(self):
        pt = DoublePoint(x=np.eye(2), y=np.eye(2))
        img = duality_map(pt)
        assert np.abs(img.x - np.eye(2)).max() < 1e-14
        assert np.abs(img.y - np.eye(2)).max() < 1e-14

    def test_round_trip(self):
        for _ in range(20):
            pt = random_pair(2)
            back = inverse_duality_map(duality_map(pt))
            assert np.abs(back.x - pt.x).max() < 1e-10
            assert np.abs(back.y - pt.y).max() < 1e-10


class TestFiberCheck:
    def test_generic_separation(self):
        pt = DoublePoint(x=np.diag(random_eigs(2)), y=random_sl(2))
        rep = fiber_check(pt, samples=4, rng=np.random.default_rng(12))
        assert rep.coincident_margin < 1e-12
        assert rep.all_separated

    def test_first_fiber_preserves_projection_invariants(self):
        """Points (x, y z) with z central for x share tr(x^a), tr(mu~^b),
        and joint traces; mu~ = y x^{-1} y^{-1}."""
        from degint.matrixcore import spectral
        pt = DoublePoint(x=np.diag(random_eigs(3)), y=random_sl(3))
        _, v = spectral(pt.x)

        def mu_tilde(x, y):
            return y @ np.linalg.inv(x) @ np.linalg.inv(y)

        ref = mu_tilde(pt.x, pt.y)
        ref_invs = [np.trace(pt.x), np.trace(ref), np.trace(pt.x @ ref)]
        for _ in range(5):
            lam = np.exp(RNG.normal(size=3) * 0.3)
            lam /= np.prod(lam) ** (1 / 3)
            z = v @ np.diag(lam) @ np.linalg.inv(v)
            y2 = pt.y @ z
            cur = mu_tilde(pt.x, y2)
            cur_invs = [np.trace(pt.x), np.trace(cur), np.trace(pt.x @ cur)]
            assert np.abs(np.array(cur_invs) - np.array(ref_invs)).max() < 1e-10


class TestRankOneOracle:
    def test_residual(self):
        for n in (2, 3, 5):
            x = random_eigs(n)
            q = 1.3 + 0.2j
            v = rank_one_consistency_oracle(x, q)
            C = 1.0 / (x[:, None] - x[None, :] / q)
            assert np.abs(C @ v - 1.0).max() < 1e-10

    def test_pairing_sum_matches_class_constraint(self):
        """sum psi_i phi_i = q^{n-1} - q^{-1} falls out of the oracle."""
        for n in (2, 3, 4):
            x = random_eigs(n)
            q = 1.2 + 0.1j
            v = rank_one_consistency_oracle(x, q)
            total = np.sum(v / x)
            assert abs(total - (q ** (n - 1) - 1.0 / q)) < 1e-10


class TestRankOneClass:
    def test_matrix_eigenvalues(self):
        n = 3
        q = 1.4 + 0.1j
        phi = np.ones(n)
        # psi via the oracle products at a generic spectrum
        x = random_eigs(n)
        psi = rank_one_consistency_oracle(x, q) / x
        cls = RankOneClass(q=q, phi=phi, psi=psi)
        ev = np.linalg.eigvals(cls.matrix())
        ev = ev[np.lexsort((ev.imag, ev.real))]
        assert np.abs(ev - cls.eigenvalues()).max() < 1e-8

    def test_pairing_constraint_enforced(self):
        with pytest.raises(ValueError):
            RankOneClass(q=1.5, phi=np.ones(2), psi=np.ones(2))


class TestRankOneReduction:
    def test_moment_lands_in_class(self):
        for n in (2, 3):
            x = random_eigs(n)
            q = 1.25 + 0.15j
            red = rank_one_reduction(x, q, RNG.normal(size=n) + 1j * RNG.normal(size=n))
            assert red.mu_eigenvalue_deviation < 1e-7

    def test_naive_formula_recorded_as_off(self):
        """The stray x_i^{-1} prefactor shows up as a large recorded residual
        while the corrected form matches to 1e-8."""
        x = random_eigs(2)
        red = rank_one_reduction(x, 1.3 + 0.1j, np.array([1.0, 1.0]))
        assert red.residual_corrected < 1e-8
        assert red.residual_naive > 1e-3

    def test_q_near_one_commutes(self):
        """q -> 1: the class tends to the identity and the pair commutes."""
        n = 2
        x = random_eigs(n)
        q = 1.0 + 1e-7
        red = rank_one_reduction(x, q, np.array([1.0, 2.0]))
        mu = moment(red.point)
        assert np.abs(mu - np.eye(n)).max() < 1e-5

    def test_failure_raises_with_residuals(self):
        with pytest.raises((ReductionFailedError, Exception)):
            rank_one_reduction(np.array([1.0, 1.0]), 1.3, np.array([1.0, 1.0]))


class TestRelativisticHamiltonians:
    def test_trace_is_diagonal_sum(self):
        n = 3
        x = random_eigs(n)
        u = RNG.normal(size=n) + 1j * RNG.normal(size=n)
        res = relativistic_hamiltonians(x, u, q=1.3 + 0.1j)
        assert res.residual_tr_y < 1e-12

    def test_dual_paths(self):
        for n in (2, 3):
            x = random_eigs(n)
            u = RNG.normal(size=n) + 1j * RNG.normal(size=n)
            res = relativistic_hamiltonians(x, u, q=1.2 - 0.1j)
            assert res.residual_tr_y < 1e-9
            assert res.residual_tr_y2 < 1e-9
            assert res.residual_h2 < 1e-9

    def test_zero_u_zero_hamiltonians(self):
        x = random_eigs(3)
        res = relativistic_hamiltonians(x, np.zeros(3), q=1.3)
        assert np.abs(res.traces).max() == 0.0
        assert res.h2 == 0.0


class TestDoubleFlows:
    def test_cm_flow_conserves_first_projection(self):
        """H = tr(x): the x-traces and the mu~-traces all stay put."""
        pt = random_pair(2, spread=0.3)
        rep = double_flow_conservation(pt, trace_power_observable(2, "x", 1),
                                       t_max=0.5, dt=1e-3, family="cm")
        assert rep.max_abs_drift.max() < 1e-7

    def test_ruijsenaars_flow_conserves_second_projection(self):
        pt = random_pair(2, spread=0.3)
        rep = double_flow_conservation(pt, trace_power_observable(2, "y", 1),
                                       t_max=0.5, dt=1e-3, family="ruijsenaars")
        assert rep.max_abs_drift.max() < 1e-7

    def test_constant_hamiltonian_zero_flow(self):
        from degint.poisson import Observable
        pt = random_pair(2)
        H = Observable("const", lambda z: 1.0,
                       grad=lambda z: np.zeros(8, dtype=complex))
        rep = double_flow_conservation(pt, H, t_max=0.2, dt=0.05, family="cm")
        assert rep.max_abs_drift.max() < 1e-14

    def test_trace_families_bracket_structure(self):
        """{tr x, tr y} != 0 at a fixed seeded point while the families
        commute internally (margin from a fixed seed)."""
        rng = np.random.default_rng(123)
        def sl(n):
            m = np.eye(n) + 0.35 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            return m / np.linalg.det(m) ** (1.0 / n)
        pt = DoublePoint(x=sl(2), y=sl(2))
        chart = chart_heisenberg_double(2)
        z = pt.as_point()
        trx = trace_power_observable(2, "x", 1)
        try_ = trace_power_observable(2, "y", 1)
        trx2 = trace_power_observable(2, "x", 2)
        try2 = trace_power_observable(2, "y", 2)
        assert abs(bracket(chart, trx, trx2, z)) < 1e-5
        assert abs(bracket(chart, try_, try2, z)) < 1e-5
        assert abs(bracket(chart, trx, try_, z)) > 1e-8

    @pytest.mark.parametrize("family,block", [("cm", "x"), ("ruijsenaars", "y")])
    def test_flow_conserves_projection_at_n4(self, family, block):
        """The full bivector integrates above n = 3: a short n = 4 flow keeps
        its projection invariants within the acceptance bound."""
        rng = np.random.default_rng(44)
        def sl(n):
            m = np.eye(n) + 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            return m / np.linalg.det(m) ** (1.0 / n)
        rep = double_flow_conservation(DoublePoint(x=sl(4), y=sl(4)),
                                       trace_power_observable(4, block, 1),
                                       t_max=0.05, dt=1e-3, family=family)
        assert rep.max_abs_drift.max() <= 1e-7

    def test_entry_observable_gradient(self):
        obs = entry_observable(2, "y", 0, 1)
        z = RNG.normal(size=8).astype(complex)
        assert obs(z) == z[5]
        g = obs.gradient(z)
        assert g[5] == 1.0 and np.abs(np.delete(g, 5)).max() == 0.0
