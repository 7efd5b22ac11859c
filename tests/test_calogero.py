"""Rational Calogero-Moser / Ruijsenaars tests: oracles first, closed forms
arbitrated against them."""

import numpy as np
import pytest

from degint.calogero import (
    _pair_products,
    _row_products,
    CMPoint,
    RuijPoint,
    SpinData,
    cm_central_flow,
    duality_fiber_check,
    h_cm,
    h_rational_ruijsenaars,
    h_scm,
    joint_invariants,
    phi_psi_closed_form,
    quadratic_casimir_gradient,
    reconstruct_g,
    relation_residual,
    ruij_characters,
    solve_phi_psi_oracle,
)
from degint.errors import SingularChartPoint
from degint.matrixcore import mat_exp

RNG = np.random.default_rng(5)


def random_h(n, spread=1.0):
    while True:
        h = np.sort(RNG.normal(size=n) * spread)
        h -= h.mean()
        if np.diff(h).min() > 0.05:
            return h.astype(complex)


def random_ruij_point(n, kappa=None):
    kappa = (0.3 + 0.1j) if kappa is None else kappa
    h = random_h(n)
    u = RNG.normal(size=n) + 1j * RNG.normal(size=n)
    return RuijPoint(h=h, u=u, kappa=kappa)


class TestCMPoint:
    def test_traceless_enforced(self):
        with pytest.raises(ValueError):
            CMPoint(p=[1.0, 1.0], h=[1.0, -1.0], kappa=1.0)

    def test_coincident_positions_rejected(self):
        with pytest.raises(SingularChartPoint):
            CMPoint(p=[1.0, -1.0], h=[0.0, 0.0], kappa=1.0)


class TestHCM:
    def test_reference_value(self):
        """n=2, p=(1,-1), q=(pi/2,-pi/2), kappa=1: 2 + 1/(4 sin^2(pi/2))."""
        pt = CMPoint(p=[1.0, -1.0], h=[np.pi / 2, -np.pi / 2], kappa=1.0)
        assert h_cm(pt) == pytest.approx(2.25)

    def test_free_limit(self):
        pt = CMPoint(p=[1.0, -1.0], h=[0.7, -0.7], kappa=0.0)
        assert h_cm(pt) == pytest.approx(2.0)

    def test_weyl_invariance(self):
        p = np.array([0.4, -0.9, 0.5])
        q = np.array([1.0, 0.2, -1.2])
        pt = CMPoint(p=p, h=q, kappa=0.7)
        perm = [2, 0, 1]
        pt2 = CMPoint(p=p[perm], h=q[perm], kappa=0.7)
        assert h_cm(pt) == pytest.approx(h_cm(pt2))


class TestHSCM:
    def test_zero_spin_is_free(self):
        pt = CMPoint(p=[0.3, -0.3], h=[0.5, -0.5], kappa=0.0)
        spin = SpinData(np.zeros((2, 2)))
        assert h_scm(pt, spin) == pytest.approx(np.dot(pt.p, pt.p))

    def test_rank_one_reduces_to_spinless(self):
        """Rank-1 spin with mu_ij mu_ji = kappa^2 gives the trigonometric
        Hamiltonian back (trigonometric denominators)."""
        kappa = 0.8
        pt = CMPoint(p=[0.2, -0.2], h=[1.1, -1.1], kappa=kappa)
        spin = SpinData.rank_one(phi=[1.0, 2.0], kappa=kappa)
        mu = spin.mu
        assert abs(mu[0, 1] * mu[1, 0] - kappa ** 2) < 1e-12
        assert h_scm(pt, spin, "trigonometric") == pytest.approx(h_cm(pt))

    def test_resummation_oracle(self):
        """Independent direct summation reproduces h_scm for random spin."""
        n = 3
        p = RNG.normal(size=n)
        p -= p.mean()
        pt = CMPoint(p=p, h=random_h(n), kappa=0.5)
        mu = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
        np.fill_diagonal(mu, 0.0)
        spin = SpinData(mu)
        expected = np.dot(pt.p, pt.p)
        for i in range(n):
            for j in range(i + 1, n):
                expected += mu[i, j] * mu[j, i] / (pt.h[i] - pt.h[j]) ** 2
        assert h_scm(pt, spin, "rational") == pytest.approx(expected)

    def test_rank_one_constructor_diagonal_zero(self):
        spin = SpinData.rank_one(phi=[1.0, 0.5, 2.0], kappa=0.3 + 0.1j)
        assert np.abs(np.diag(spin.mu)).max() < 1e-14


class TestCentralFlow:
    def test_time_zero_is_identity(self):
        x = np.diag([1.0, 2.0, -3.0]).astype(complex)
        g = np.eye(3) + 0.2 * RNG.normal(size=(3, 3))
        x2, g2 = cm_central_flow(x, g, quadratic_casimir_gradient, 0.0)
        assert np.abs(x2 - x).max() == 0.0
        assert np.abs(g2 - g).max() < 1e-14

    def test_x_untouched(self):
        x = np.diag([0.5, -0.2, -0.3]).astype(complex)
        g = np.eye(3) + 0.3 * RNG.normal(size=(3, 3))
        x2, _ = cm_central_flow(x, g, quadratic_casimir_gradient, 0.7)
        assert np.abs(x2 - x).max() == 0.0

    def test_joint_invariants_constant(self):
        """tr(x^a (g x g^{-1})^b) is constant along the central flow."""
        n = 3
        h = random_h(n)
        x = np.diag(h)
        g = np.eye(n) + 0.3 * (RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n)))
        ref = joint_invariants(x, g @ x @ np.linalg.inv(g), max_exp=3)
        for t in (0.2, 0.5, 1.0):
            _, gt = cm_central_flow(x, g, quadratic_casimir_gradient, t)
            cur = joint_invariants(x, gt @ x @ np.linalg.inv(gt), max_exp=3)
            assert np.abs(cur - ref).max() < 1e-9 * max(1.0, np.abs(ref).max())

    def test_flow_composes_like_exponential(self):
        x = np.diag(random_h(3))
        g = np.eye(3).astype(complex)
        _, g1 = cm_central_flow(x, g, quadratic_casimir_gradient, 0.3)
        assert np.abs(g1 - mat_exp(0.3 * x)).max() < 1e-12


class TestPhiPsiOracle:
    def test_n1_single_equation(self):
        w = solve_phi_psi_oracle(np.array([0.0]), kappa=0.7 + 0.2j)
        assert w[0] == pytest.approx(0.7 + 0.2j)

    def test_n2_frozen_values(self):
        """h=(1/2,-1/2), kappa=1/2: direct 2x2 solve gives (0.75, 0.25)."""
        w = solve_phi_psi_oracle(np.array([0.5, -0.5]), kappa=0.5)
        assert np.allclose(w, [0.75, 0.25])

    def test_residual_random(self):
        for n in (2, 3, 5, 8):
            h = random_h(n)
            kappa = RNG.uniform(0.2, 0.6) + 1j * RNG.uniform(-0.2, 0.2)
            w = solve_phi_psi_oracle(h, kappa)
            C = 1.0 / (h[None, :] - h[:, None] + kappa)
            assert np.abs(C @ w - 1.0).max() < 1e-10

    def test_singular_denominator_raises(self):
        with pytest.raises(SingularChartPoint):
            solve_phi_psi_oracle(np.array([0.5, -0.5]), kappa=1.0)


class TestPhiPsiClosedForm:
    def test_kappa_scaled_candidate_wins(self):
        """The bare product fails the defining system; the kappa-scaled one
        matches the oracle.  Frozen n=2 values: oracle (0.75, 0.25), bare
        candidate (1.5, 0.5)."""
        sel = phi_psi_closed_form(np.array([0.5, -0.5]), kappa=0.5)
        assert sel.matched == "kappa-scaled"
        assert np.allclose(sel.values, [0.75, 0.25])
        assert sel.residual_bare > 0.1
        assert sel.residual_kappa_scaled < 1e-12

    def test_n1_selects_kappa(self):
        sel = phi_psi_closed_form(np.array([0.0]), kappa=0.4)
        assert sel.matched == "kappa-scaled"
        assert sel.values[0] == pytest.approx(0.4)

    def test_random_n5(self):
        sel = phi_psi_closed_form(random_h(5), kappa=0.3 + 0.05j)
        assert sel.matched == "kappa-scaled"
        assert sel.residual_kappa_scaled < 1e-8


class TestReconstruction:
    def test_defining_relation(self):
        """(h_i - h_j) g_ij = sum_k mu_ik g_kj with oracle-validated mu."""
        for n in (2, 3, 5):
            pt = random_ruij_point(n)
            assert relation_residual(pt) < 1e-9

    def test_kappa_zero_limit_is_diagonal(self):
        h = random_h(3)
        u = RNG.normal(size=3).astype(complex)
        pt = RuijPoint(h=h, u=u, kappa=1e-13)
        g = reconstruct_g(pt)
        assert np.abs(g - np.diag(u)).max() < 1e-9

    def test_n2_offdiagonal_ratio(self):
        """g_12 / g_22 = kappa / (h_1 - h_2 + kappa)."""
        pt = random_ruij_point(2)
        g = reconstruct_g(pt)
        want = pt.kappa / (pt.h[0] - pt.h[1] + pt.kappa)
        assert g[0, 1] / g[1, 1] == pytest.approx(want)


class TestCharacters:
    def test_trace_is_diagonal_sum(self):
        pt = random_ruij_point(3)
        g = reconstruct_g(pt)
        tr = ruij_characters(pt, 1)
        assert tr[0] == pytest.approx(np.trace(g))

    def test_dual_path_agreement(self):
        for n in (2, 3, 4):
            pt = random_ruij_point(n)
            g = reconstruct_g(pt)
            tr = ruij_characters(pt, 2)
            assert abs(tr[1] - np.trace(g @ g)) < 1e-10

    def test_zero_u_gives_zero_characters(self):
        pt = RuijPoint(h=random_h(3), u=np.zeros(3), kappa=0.3)
        assert np.abs(ruij_characters(pt, 2)).max() == 0.0


class TestRationalRuijsenaarsHamiltonian:
    def test_single_nonzero_u_vanishes(self):
        u = np.zeros(3)
        u[1] = 1.7
        pt = RuijPoint(h=random_h(3), u=u, kappa=0.3)
        assert abs(h_rational_ruijsenaars(pt)) < 1e-12

    def test_dual_paths_agree_n3(self):
        for _ in range(5):
            pt = random_ruij_point(3)
            h_rational_ruijsenaars(pt)  # raises on disagreement beyond 1e-9

    def test_n2_is_minus_u1u2(self):
        pt = random_ruij_point(2)
        assert h_rational_ruijsenaars(pt) == pytest.approx(-pt.u[0] * pt.u[1])

    def test_sign_for_positive_data(self):
        """All u_i > 0, real h, small real kappa: the value is negative."""
        pt = RuijPoint(h=random_h(4), u=RNG.uniform(0.5, 1.5, size=4),
                       kappa=0.05)
        assert np.real(h_rational_ruijsenaars(pt)) < 0.0


class TestDualityFiberCheck:
    def test_generic_separation(self):
        n = 2
        x = np.diag(random_h(n))
        gamma = np.eye(n) + 0.4 * (RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n)))
        rep = duality_fiber_check(x, gamma, samples=4, rng=np.random.default_rng(9))
        assert rep.coincident_margin < 1e-12
        assert rep.all_separated
        assert rep.margins.min() > 1e-6

    def test_torus_shift_changes_invariant(self):
        """z = diag(2, 1/2): tr(gamma z) != tr(gamma) generically."""
        n = 2
        x = np.diag([0.5, -0.5]).astype(complex)
        gamma = np.array([[1.0, 0.3], [0.2, 1.1]], dtype=complex)
        gamma /= np.linalg.det(gamma) ** 0.5
        z = np.diag([2.0, 0.5])
        inv1 = joint_invariants(x, gamma @ z)
        inv2 = joint_invariants(x, gamma)
        assert np.abs(inv1 - inv2).max() > 1e-6

    def test_nondiagonal_x_rejected(self):
        with pytest.raises(ValueError):
            duality_fiber_check(np.ones((2, 2)), np.eye(2))


def loop_products(ratio, n):
    """Test-only oracle for the masked product kernels: explicit loops over
    prod_{j != i} R_ij and prod_{a in {i, j}, b not in {i, j}} R_ab."""
    rows = []
    for i in range(n):
        f = 1.0 + 0.0j
        for j in range(n):
            if j != i:
                f *= ratio(i, j)
        rows.append(f)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            f = 1.0 + 0.0j
            for a in (i, j):
                for b in range(n):
                    if b != i and b != j:
                        f *= ratio(a, b)
            pairs.append(f)
    return np.array(rows, dtype=complex), np.array(pairs, dtype=complex)


class TestMaskedProducts:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("system", ["calogero", "relativistic"])
    def test_matches_loop_oracle(self, n, system):
        rng = np.random.default_rng(100 + n)
        if system == "calogero":
            h, kappa = rng.normal(size=n).astype(complex), 0.3 + 0.1j
            num = h[:, None] - h[None, :] + kappa
            den = h[:, None] - h[None, :]
        else:
            x = np.exp(rng.normal(size=n) * 0.4 + 1j * rng.normal(size=n) * 0.4)
            q = 1.3 + 0.2j
            num = 1.0 - x[:, None] / (q * x[None, :])
            den = 1.0 - x[:, None] / x[None, :]
        rows, pairs = loop_products(lambda a, b: num[a, b] / den[a, b], n)
        i, j, pair_products = _pair_products(num, den)
        assert list(zip(i, j)) == [(a, b) for a in range(n) for b in range(a + 1, n)]
        for got, want in ((_row_products(num, den), rows), (pair_products, pairs)):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
