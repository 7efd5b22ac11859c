"""Rational Calogero-Moser / Ruijsenaars tests: oracles first, closed forms
arbitrated against them."""

import json

import numpy as np
import pytest

from degint import calogero, cli
from degint.calogero import (
    _pair_products,
    _ratio,
    cm_central_flow,
    duality_fiber_check,
    h_cm,
    h_scm,
    joint_invariants,
    rank_one_spin,
    ruij_sweep,
    solve_phi_psi_oracle,
)
from degint.config import TOL
from degint.errors import ConsistencyError, NonFiniteMatrixError, SingularChartPoint
from degint.matrixcore import as_matrix, mat_exp, spectral

RNG = np.random.default_rng(5)


def random_h(n, spread=1.0):
    while True:
        h = np.sort(RNG.normal(size=n) * spread)
        h -= h.mean()
        if np.diff(h).min() > 0.05:
            return h.astype(complex)


def random_ruij_point(n, kappa=0.3 + 0.1j):
    """(h, u, kappa) of one regular rational Ruijsenaars point."""
    return random_h(n), RNG.normal(size=n) + 1j * RNG.normal(size=n), kappa


def sweep_row(h, u, kappa):
    """``ruij_sweep``'s columns at the one point (h, u)."""
    return {name: col[0] for name, col in ruij_sweep(h[None], u[None], kappa).items()}


def rebuilt_g(h, u, kappa):
    """The group element g of ``calogero._rank1_matrix`` at one point, with
    (own, other, c) = (h_i - h_j + kappa, h_i - h_j, kappa)."""
    d = h[:, None] - h[None, :]
    return calogero._rank1_matrix(d + kappa, d, kappa, u)[2]


# A valid point (p, h), coupling kappa and spin matrix mu.
P, H, KAPPA = [1.0, -1.0], [0.5, -0.5], 0.3
MU = rank_one_spin([1.0, 2.0], KAPPA)

SINGULAR_ANGLES = "coincident angles (mod 2 pi) in the potential"
# Each check the routes of a reduced point and a spin matrix run on entry:
# (the arguments of h_cm or h_scm, the exception type, its message).
POINT_CHECKS = {
    "lengths-differ": (([1.0, -1.0, 0.0], H), ValueError, "p and h must have the same length"),
    "p-not-traceless": (([1.0, 1.0], H), ValueError,
                        "p must sum to zero (traceless normalization)"),
    "h-not-traceless": ((P, [1.0, 2.0]), ValueError,
                        "h must sum to zero (traceless normalization)"),
    "coincident-h": ((P, [0.0, 0.0]), SingularChartPoint, "two positions closer than 1e-08"),
    # 1.5e-8 apart mod 2 pi: 4 sin^2 = 9e-16, below both routes' 1e-14
    "angles-coincide-mod-2pi": (([0.1, -0.1], [np.pi - 1.5e-8, -np.pi + 1.5e-8]),
                                SingularChartPoint, SINGULAR_ANGLES),
}
SPIN_CHECKS = {
    "mu-not-square": (np.ones((2, 3)), ValueError, "expected a square matrix, got shape (2, 3)"),
    "mu-not-finite": (np.array([[0.0, np.inf], [1.0, 0.0]]), NonFiniteMatrixError,
                      "matrix has NaN or Inf entries"),
    "mu-diagonal": (np.ones((2, 2)), ValueError, "spin matrix must have zero diagonal"),
    "mu-size": (np.zeros((3, 3)), ValueError, "spin matrix size does not match the point"),
}


def raised(fn, *args):
    """(type, message) of the exception ``fn(*args)`` raises."""
    with pytest.raises(Exception) as caught:
        fn(*args)
    return type(caught.value), str(caught.value)


class TestEntryChecks:
    """Every check of a reduced point and a spin matrix raises through each
    route that takes one, with its type and message."""

    @pytest.mark.parametrize("check", POINT_CHECKS)
    @pytest.mark.parametrize("route", ["h_cm", "h_scm"])
    def test_point_checks(self, route, check):
        (p, h), error, message = POINT_CHECKS[check]
        third = KAPPA if route == "h_cm" else MU
        assert raised(getattr(calogero, route), p, h, third) == (error, message)

    @pytest.mark.parametrize("check", SPIN_CHECKS)
    def test_spin_checks(self, check):
        mu, error, message = SPIN_CHECKS[check]
        assert raised(h_scm, P, H, mu) == (error, message)

    def test_point_checks_run_before_spin_checks(self):
        assert raised(h_scm, [1.0, 1.0], H, np.ones((2, 2)))[1].startswith("p must sum")

    def test_rank_one_spin_checks_phi_and_its_matrix(self):
        assert raised(rank_one_spin, [1.0, 0.0], KAPPA) == (ValueError,
                                                             "phi entries must be nonzero")
        with np.errstate(over="ignore", invalid="ignore"):     # kappa / phi overflows
            assert raised(rank_one_spin, [1e-300, 1.0], 1e10) == (
                NonFiniteMatrixError, "matrix has NaN or Inf entries")

    def test_valid_arguments_pass(self):
        assert h_cm(P, H, KAPPA) == pytest.approx(h_scm(P, H, MU).real)


class TestHCM:
    def test_reference_value(self):
        """n=2, p=(1,-1), q=(pi/2,-pi/2), kappa=1: 2 + 1/(4 sin^2(pi/2))."""
        assert h_cm([1.0, -1.0], [np.pi / 2, -np.pi / 2], 1.0) == pytest.approx(2.25)

    def test_free_limit(self):
        assert h_cm([1.0, -1.0], [0.7, -0.7], 0.0) == pytest.approx(2.0)

    def test_weyl_invariance(self):
        p = np.array([0.4, -0.9, 0.5])
        q = np.array([1.0, 0.2, -1.2])
        perm = [2, 0, 1]
        assert h_cm(p, q, 0.7) == pytest.approx(h_cm(p[perm], q[perm], 0.7))


class TestHSCM:
    def test_zero_spin_is_free(self):
        p = np.array([0.3, -0.3])
        assert h_scm(p, [0.5, -0.5], np.zeros((2, 2))) == pytest.approx(np.dot(p, p))

    def test_rank_one_reduces_to_spinless(self):
        """Rank-1 spin with mu_ij mu_ji = kappa^2 gives the trigonometric
        Hamiltonian back (trigonometric denominators)."""
        kappa = 0.8
        p, h = [0.2, -0.2], [1.1, -1.1]
        mu = rank_one_spin([1.0, 2.0], kappa)
        assert abs(mu[0, 1] * mu[1, 0] - kappa ** 2) < 1e-12
        assert h_scm(p, h, mu) == pytest.approx(h_cm(p, h, kappa))

    def test_resummation_oracle(self):
        """Independent direct summation reproduces h_scm for random spin."""
        n = 3
        p = RNG.normal(size=n)
        p -= p.mean()
        h = random_h(n)
        mu = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
        np.fill_diagonal(mu, 0.0)
        expected = np.dot(p, p)
        for i in range(n):
            for j in range(i + 1, n):
                expected += mu[i, j] * mu[j, i] / (4.0 * np.sin((h[i] - h[j]) / 2.0) ** 2)
        assert h_scm(p, h, mu) == pytest.approx(expected)

    def test_rank_one_constructor_diagonal_zero(self):
        mu = rank_one_spin([1.0, 0.5, 2.0], 0.3 + 0.1j)
        assert np.abs(np.diag(mu)).max() < 1e-14


def h_cm_loop(p, q, kappa):
    """The per-pair loop of ``h_cm``: its oracle."""
    p, q = np.asarray(p, dtype=complex), np.asarray(q, dtype=complex)
    value = np.dot(p, p)
    for i in range(len(q)):
        for j in range(i + 1, len(q)):
            d = 4.0 * np.sin((q[i] - q[j]) / 2.0) ** 2
            if abs(d) < 1e-14:
                raise SingularChartPoint(SINGULAR_ANGLES)
            value += kappa ** 2 / d
    if abs(value.imag) > 1e-10 * max(1.0, abs(value)):
        raise ValueError("imaginary residue in the real-form Hamiltonian")
    return float(value.real)


def h_scm_loop(p, h, mu):
    """The per-pair loop of ``h_scm``: its oracle."""
    p, h = np.asarray(p, dtype=complex), np.asarray(h, dtype=complex)
    value = np.dot(p, p)
    for i in range(len(h)):
        for j in range(i + 1, len(h)):
            d = 4.0 * np.sin((h[i] - h[j]) / 2.0) ** 2
            if abs(d) < 1e-14:
                raise SingularChartPoint(SINGULAR_ANGLES)
            value += mu[i, j] * mu[j, i] / d
    return complex(value)


class TestPairSumsAgainstLoops:
    """``h_cm`` and ``h_scm`` sum over np.triu_indices pairs; the per-pair
    loops agree to roundoff (the sums associate differently) and raise the
    same errors."""

    @staticmethod
    def point(n, rng):
        p = rng.normal(size=n)
        h = np.sort(rng.uniform(-2.5, 2.5, size=n))
        return p - p.mean(), h - h.mean()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_values_match_the_loops(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(5):
            p, h = self.point(n, rng)
            mu = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            np.fill_diagonal(mu, 0.0)
            want = h_cm_loop(p, h, 0.7)
            assert abs(h_cm(p, h, 0.7) - want) <= 1e-14 * max(1.0, abs(want))
            want = h_scm_loop(p, h, mu)
            assert abs(h_scm(p, h, mu) - want) <= 1e-14 * max(1.0, abs(want))

    def test_coincident_angles_raise(self):
        p, mu = [0.5, -0.5], rank_one_spin([1.0, 2.0], 0.3)
        for h in ([np.pi, -np.pi], [np.pi - 1.5e-8, -np.pi + 1.5e-8]):
            for fn, third in ((h_cm, 0.3), (h_cm_loop, 0.3), (h_scm, mu), (h_scm_loop, mu)):
                assert raised(fn, p, h, third) == (SingularChartPoint, SINGULAR_ANGLES)

    def test_imaginary_residue_raises(self):
        for fn in (h_cm, h_cm_loop):
            with pytest.raises(ValueError, match="imaginary residue"):
                fn([0.5, -0.5], [0.3, -0.3], 0.3j + 0.3)


class TestCentralFlow:
    def test_time_zero_is_identity(self):
        x = np.diag([1.0, 2.0, -3.0]).astype(complex)
        g = np.eye(3) + 0.2 * RNG.normal(size=(3, 3))
        g2 = cm_central_flow(x, g, 0.0)
        assert np.abs(g2 - g).max() < 1e-14

    def test_joint_invariants_constant(self):
        """tr(x^a (g x g^{-1})^b) is constant along the central flow."""
        n = 3
        h = random_h(n)
        x = np.diag(h)
        g = np.eye(n) + 0.3 * (RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n)))
        ref = joint_invariants(x, g @ x @ np.linalg.inv(g), max_exp=3)
        for t in (0.2, 0.5, 1.0):
            gt = cm_central_flow(x, g, t)
            cur = joint_invariants(x, gt @ x @ np.linalg.inv(gt), max_exp=3)
            assert np.abs(cur - ref).max() < 1e-9 * max(1.0, np.abs(ref).max())

    def test_flow_composes_like_exponential(self):
        x = np.diag(random_h(3))
        g = np.eye(3).astype(complex)
        g1 = cm_central_flow(x, g, 0.3)
        assert np.abs(g1 - mat_exp(0.3 * x)).max() < 1e-12


class TestPhiPsiOracle:
    def test_n1_single_equation(self):
        w, _ = solve_phi_psi_oracle(np.array([0.0]), kappa=0.7 + 0.2j)
        assert w[0] == pytest.approx(0.7 + 0.2j)

    def test_n2_frozen_values(self):
        """h=(1/2,-1/2), kappa=1/2: direct 2x2 solve gives (0.75, 0.25)."""
        w, _ = solve_phi_psi_oracle(np.array([0.5, -0.5]), kappa=0.5)
        assert np.allclose(w, [0.75, 0.25])

    def test_the_residual_bound_is_absolute(self):
        """h_0 and h_1 2e-8 apart give max |w| near 3e6 and a solve residual
        near 3e-9: past TOL.oracle_residual, so the solve raises, however
        large |w|."""
        h = np.array([0.0, 2e-8, 1.0], dtype=complex) - (1.0 + 2e-8) / 3
        with pytest.raises(ConsistencyError, match="solve residual"):
            solve_phi_psi_oracle(h, 0.3)

    def test_residual_random(self):
        for n in (2, 3, 5, 8):
            h = random_h(n)
            kappa = RNG.uniform(0.2, 0.6) + 1j * RNG.uniform(-0.2, 0.2)
            w, residual = solve_phi_psi_oracle(h, kappa)
            C = 1.0 / (h[None, :] - h[:, None] + kappa)
            assert max(residual, np.abs(C @ w - 1.0).max()) < 1e-10

    def test_singular_denominator_raises(self):
        with pytest.raises(SingularChartPoint):
            solve_phi_psi_oracle(np.array([0.5, -0.5]), kappa=1.0)


class TestPhiPsiClosedForm:
    def test_kappa_scaled_candidate_wins(self):
        """The bare product fails the defining system; the kappa-scaled one
        matches the oracle.  Frozen n=2 values: oracle (0.75, 0.25), bare
        candidate (1.5, 0.5)."""
        h = np.array([0.5, -0.5], dtype=complex)
        row = sweep_row(h, np.ones(2), 0.5)
        d = h[:, None] - h[None, :]
        assert np.allclose(calogero._rank1_matrix(d + 0.5, d, 0.5, 1.0)[1], [1.5, 0.5])
        assert row["bare-residual"] > 0.1
        assert row["closed-form-residual"] < 1e-12

    def test_n1_selects_kappa(self):
        """At n = 1 the system forces w_1 = kappa and the bare product is 1."""
        row = sweep_row(np.zeros(1, dtype=complex), np.ones(1), 0.4)
        assert row["closed-form-residual"] == 0.0
        assert row["bare-residual"] == pytest.approx(0.6)

    def test_random_n5(self):
        row = sweep_row(random_h(5), np.ones(5), 0.3 + 0.05j)
        assert row["closed-form-residual"] < 1e-8 < row["bare-residual"]


class TestReconstruction:
    def test_defining_relation(self):
        """(h_i - h_j) g_ij = sum_k mu_ik g_kj with oracle-validated mu."""
        for n in (2, 3, 5):
            assert sweep_row(*random_ruij_point(n))["relation-residual"] < 1e-9

    def test_kappa_zero_limit_is_diagonal(self):
        h = random_h(3)
        u = RNG.normal(size=3).astype(complex)
        g = rebuilt_g(h, u, 1e-13)
        assert np.abs(g - np.diag(u)).max() < 1e-9

    def test_n2_offdiagonal_ratio(self):
        """g_12 / g_22 = kappa / (h_1 - h_2 + kappa)."""
        h, u, kappa = random_ruij_point(2)
        g = rebuilt_g(h, u, kappa)
        want = kappa / (h[0] - h[1] + kappa)
        assert g[0, 1] / g[1, 1] == pytest.approx(want)


def characters(h, u, kappa):
    """(residuals, (tr g, tr g^2), h_char) of the rebuilt g, by the dual
    routes that ``ruij_sweep`` runs: (own, other, c, s) = (h_i - h_j + kappa,
    h_i - h_j, kappa, 1)."""
    d = h[:, None] - h[None, :]
    parts = calogero._rank1_matrix(d + kappa, d, kappa, u)
    return calogero._dual_residuals(d + kappa, kappa, 1.0, u, *parts)


class TestCharacters:
    def test_trace_is_diagonal_sum(self):
        pt = random_ruij_point(3)
        tr = characters(*pt)[1]
        assert tr[0] == pytest.approx(np.trace(rebuilt_g(*pt)))

    def test_dual_path_agreement(self):
        for n in (2, 3, 4):
            pt = random_ruij_point(n)
            g = rebuilt_g(*pt)
            residuals, tr, _ = characters(*pt)
            assert abs(tr[1] - np.trace(g @ g)) < 1e-10
            assert residuals[:2].max() <= TOL.dual_path

    def test_zero_u_gives_zero_characters(self):
        assert np.abs(characters(random_h(3), np.zeros(3), 0.3)[1]).max() == 0.0


class TestRationalRuijsenaarsHamiltonian:
    """The second character Hamiltonian (tr g^2 - (tr g)^2)/2 and its product
    route -sum_{i<j} u_i u_j prod_{a in {i,j}, b outside} R_ab."""

    def test_single_nonzero_u_vanishes(self):
        u = np.zeros(3)
        u[1] = 1.7
        assert abs(characters(random_h(3), u, 0.3)[2]) < 1e-12

    def test_dual_paths_agree_n3(self):
        for _ in range(5):
            assert characters(*random_ruij_point(3))[0][2] <= TOL.dual_path

    def test_n2_is_minus_u1u2(self):
        h, u, kappa = random_ruij_point(2)
        assert characters(h, u, kappa)[2] == pytest.approx(-u[0] * u[1])

    def test_sign_for_positive_data(self):
        """All u_i > 0, real h, small real kappa: the value is negative."""
        assert np.real(characters(random_h(4), RNG.uniform(0.5, 1.5, size=4), 0.05)[2]) < 0.0


class TestNonFiniteRebuild:
    @pytest.mark.parametrize("check", [sweep_row, characters])
    def test_infinite_u_raises_before_any_check(self, check):
        """A non-finite rebuilt g raises, never a NaN residual that passes."""
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteMatrixError):
            check(random_h(3), np.array([np.inf, 1.0, 1.0]), 0.3)


class TestScalarRoundingShims:
    """The stacked rank-1 kernels round as per-point code on complex scalars
    does: ``_scalar_abs`` and ``_scalar_power(., 2)`` of an array equal the
    scalar abs() and ** 2 of each entry bit for bit, where numpy's array abs
    and square differ from them in the last bits on about a third of draws."""

    def test_equal_to_scalar_abs_and_square(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=10_000) + 1j * rng.normal(size=10_000)
        scalars = [np.complex128(v) for v in z] + [complex(v) for v in z]
        stacked = np.concatenate([z, z])
        want_abs = np.array([abs(v) for v in scalars])
        want_sq = np.array([v ** 2 for v in scalars])
        assert calogero._scalar_abs(stacked).tobytes() == want_abs.tobytes()
        assert calogero._scalar_power(stacked, 2).tobytes() == want_sq.tobytes()


class TestDualityFiberCheck:
    def test_generic_separation(self):
        n = 2
        x = np.diag(random_h(n))
        gamma = np.eye(n) + 0.4 * (RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n)))
        margins = duality_fiber_check(x, gamma, samples=4, rng=np.random.default_rng(9))
        assert margins.shape == (4, 4)
        assert (margins > TOL.separation_margin).all()

    def test_torus_shift_changes_invariant(self):
        """z = diag(2, 1/2): tr(gamma z) != tr(gamma) generically."""
        n = 2
        x = np.diag([0.5, -0.5]).astype(complex)
        gamma = np.array([[1.0, 0.3], [0.2, 1.1]], dtype=complex)
        gamma /= np.linalg.det(gamma) ** 0.5
        z = np.diag([2.0, 0.5])
        inv1 = joint_invariants(x, gamma @ z, max_exp=2)
        inv2 = joint_invariants(x, gamma, max_exp=2)
        assert np.abs(inv1 - inv2).max() > 1e-6

    def test_nondiagonal_x_rejected(self):
        with pytest.raises(ValueError):
            duality_fiber_check(np.ones((2, 2)), np.eye(2), samples=4,
                                rng=np.random.default_rng(9))

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("samples,seed", [(1, 0), (4, 9), (7, 3)])
    def test_stacked_fibers_equal_the_loop(self, n, samples, seed):
        """The stacked draws and conjugations give the margins of the loop
        bit for bit, and leave the generator where the loop leaves it."""
        rng = np.random.default_rng(100 + n)
        x = np.diag(random_h(n))
        gamma = np.eye(n) + 0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = duality_fiber_check(x, gamma, samples, got_rng)
        assert got.tobytes() == duality_fiber_loop(x, gamma, samples, want_rng).tobytes()
        assert got_rng.normal() == want_rng.normal()


def duality_fiber_loop(x, gamma, samples, rng):
    """Test-only oracle: ``duality_fiber_check`` one sample at a time, each
    torus element and each c drawn, built and paired on its own, and one
    joint-invariant row per pair."""
    n = len(x)
    _, v = spectral(as_matrix(gamma))
    vinv = np.linalg.inv(v)
    first = []
    for _ in range(samples):
        lam = np.exp(rng.normal(size=n - 1) * 0.4 + 1j * rng.normal(size=n - 1) * 0.4)
        first.append((x, gamma @ np.diag(np.append(lam, 1.0 / np.prod(lam)))))
    second = []
    for _ in range(samples):
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        c -= c.mean()
        second.append((x + v @ np.diag(c) @ vinv, gamma))
    rows = [joint_invariants(a, b, max_exp=2) for a, b in first + second]
    return np.array([[np.abs(rows[i] - rows[samples + j]).max() for j in range(samples)]
                     for i in range(samples)])


def loop_products(ratio, n):
    """Test-only oracle for the product kernels: explicit loops over
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


def masked_pair_products(R):
    """Test-only oracle for ``_pair_products``: a masked (pairs x 2n)
    reduction, each pair's factors in one row with the factors in rows i
    and j at columns i and j set to 1, reduced by ``prod``."""
    b = np.arange(R.shape[-1])
    i, j = np.nonzero(b[:, None] < b)
    inside = (b == i[:, None]) | (b == j[:, None])
    factors = np.concatenate([np.where(inside, 1.0, R[..., i, :]),
                              np.where(inside, 1.0, R[..., j, :])], axis=-1)
    return i, j, factors.prod(axis=-1)


def stacked_ratios(n, samples, system, seed):
    """A (samples, n, n) stack of complex R = own/other of either rank-1
    family, from ``_ratio``."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(samples, n)) + 1j * rng.normal(size=(samples, n))
    if system == "calogero":
        d = z[..., :, None] - z[..., None, :]
        return _ratio(d + (0.3 + 0.1j), d)
    x = np.exp(0.4 * z)
    q = 1.3 + 0.2j
    return _ratio(1.0 - x[..., :, None] / (q * x[..., None, :]),
                  1.0 - x[..., :, None] / x[..., None, :])


class TestPairProducts:
    """The product chain of ``_pair_products`` against the masked
    reduction, and each sample's products independent of its stack."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("system", ["calogero", "relativistic"])
    def test_matches_the_masked_reduction(self, n, system):
        R = stacked_ratios(n, 9, system, 200 + n)
        i, j, got = _pair_products(R)
        want_i, want_j, want = masked_pair_products(R)
        assert (i.tolist(), j.tolist()) == (want_i.tolist(), want_j.tolist())
        assert got.shape == want.shape == (9, n * (n - 1) // 2)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("samples", [1, 2, 7, 64, 65])
    @pytest.mark.parametrize("n", [2, 3, 6, 8])
    @pytest.mark.parametrize("system", ["calogero", "relativistic"])
    def test_a_sample_multiplies_as_it_does_alone(self, samples, n, system):
        """Bit for bit, each stacked sample's products are those of its
        unstacked (n, n) call; a product along the factor axis instead of
        the chain of elementwise products fails this."""
        R = stacked_ratios(n, samples, system, 300 + samples)
        stacked = _pair_products(R)[2]
        for s in range(samples):
            assert _pair_products(R[s])[2].tobytes() == stacked[s].tobytes(), s


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
        R = _ratio(num, den)
        i, j, pair_products = _pair_products(R)
        assert list(zip(i, j)) == [(a, b) for a in range(n) for b in range(a + 1, n)]
        for got, want in ((R.prod(axis=-1), rows), (pair_products, pairs)):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def ruij_sample_oracle(h, u, kappa):
    """Test-only oracle for ``ruij_sweep``: its kernels run on one unstacked
    (n,) sample, as (oracle residual, kappa-scaled residual, bare residual,
    relation residual, tr g, tr g^2 and Hamiltonian residuals): the report's
    columns after ``sample``, in order."""
    d = h[:, None] - h[None, :]
    calogero._check_chart(d, d + kappa)
    w = solve_phi_psi_oracle(h, kappa)[0]
    C = 1.0 / (h[None, :] - h[:, None] + kappa)
    oracle_res = float(np.abs(C @ w - 1.0).max())
    R, bare, g = calogero._rank1_matrix(d + kappa, d, kappa, u)
    char_res = calogero._dual_residuals(d + kappa, kappa, 1.0, u, R, bare, g)[0]
    return (oracle_res, calogero._miss(kappa * bare, w), calogero._miss(bare, w),
            calogero._relation_residual(d, kappa, w, g),
            *char_res)


def ruij_draws(cfg):
    """The seeded (h, u) of every sample of a ruijsenaars-rational report,
    one candidate at a time: the oracle for ``cli._rank1_draws``.  All come
    from one generator, seed + 1.  A candidate is three rows of normals; it
    passes when its first row, sorted and centred as h, has neighbours more
    than 0.1 apart, and then u is its second row plus 1j times its third."""
    rng, n, hs, us = cli._rng_for(cfg, 1), cfg.n, [], []
    while len(hs) < cfg.samples:
        rows = rng.normal(size=(3, n))
        h = np.sort(rows[0])
        h -= h.sum() / n
        if n == 1 or np.diff(h).min() > 0.1:
            hs.append(h.astype(complex))
            us.append(rows[1] + 1j * rows[2])
    return np.array(hs), np.array(us)


def ruij_cfg(n, samples, kappa=0.3, seed=0):
    return cli.ScenarioConfig(scenario="ruijsenaars-rational", n=n, samples=samples,
                              kappa=complex(kappa), seed=seed)


def regular_samples(m, n=3):
    """(h, u) of m regular samples, for planting singular ones."""
    rng = np.random.default_rng(17)
    h = np.array([cli._first_passing(rng, 1, (1, n), cli._gapped_h)[1][0] for _ in range(m)])
    return h, rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))


# h_1 - h_0 + kappa = 0 at kappa = 0.3: the chart check rejects it
SINGULAR_H = np.array([0.3, 0.0, -0.3], dtype=complex)
# h_0 and h_1 3e-6 apart: the chart checks pass and the oracle solve's residual
# (5.6e-12) stays within TOL.oracle_residual, but the solve is too
# ill-conditioned for either closed form to match it (the kappa-scaled one
# misses by 5.2e-7), and the sweep reports the residuals
MISMATCH_H = np.array([0.0, 3e-6, 1.0], dtype=complex) - (1.0 + 3e-6) / 3


class TestRuijDraws:
    """``cli._rank1_draws`` against the one-candidate-at-a-time loop ``ruij_draws``."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("samples", [1, 63, 64, 65, 500])
    @pytest.mark.parametrize("seed", [0, 7, 123456])
    def test_draws_equal_the_loop_bitwise(self, n, samples, seed):
        cfg = ruij_cfg(n, samples, seed=seed)
        h, u = cli._rank1_draws(cfg)
        want_h, want_u = ruij_draws(cfg)
        assert h.tobytes() == want_h.tobytes()
        assert u.tobytes() == want_u.tobytes()


class TestRuijSweep:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("kappa", [0.3, 0.4 + 0.1j])
    def test_report_matches_loop_oracle(self, tmp_path, n, kappa):
        """Every row of the report equals the per-point chain on the same
        draws: every number to 1e-13, and also to 1e-12 relative.

        The residuals are roundoff-sized, so only the relative bound sees a
        change in how one is formed (say a max turned into a min).  Every
        column is bitwise equal to the oracle with this numpy and OpenBLAS;
        h-ruijsenaars-dual is, because the stacked pair sums run in the
        per-point (C) order and a single point's tr is squared as an array."""
        cfg = ruij_cfg(n, 60, kappa, seed=11)
        csv = tmp_path / "r.csv"
        cli._write_csv(csv, cli._scenario_ruijsenaars_rational(cfg).columns)
        header, *rows = [line.split(",") for line in csv.read_text().splitlines()]
        h, u = ruij_draws(cfg)
        assert header == ["sample", "oracle-residual", "closed-form-residual", "bare-residual",
                          "relation-residual", "tr-g-dual", "tr-g2-dual", "h-ruijsenaars-dual"]
        assert len(rows) == cfg.samples
        for i, row in enumerate(rows):
            want = ruij_sample_oracle(h[i], u[i], cfg.kappa)
            assert row[0] == str(i)
            got = np.array([float(v) for v in row[1:]])
            ref = np.array(want)
            assert np.abs(got - ref).max() <= 1e-13, (i, got - ref)
            assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref)), (i, got, ref)

    def test_prefix_rows_are_bitwise_equal_across_chunks(self):
        m = 2 * calogero._SWEEP_CHUNK + 7
        h, u = ruij_draws(ruij_cfg(4, m, 0.4 + 0.1j))
        full = ruij_sweep(h, u, 0.4 + 0.1j)
        for k in (1, 5, calogero._SWEEP_CHUNK - 1, calogero._SWEEP_CHUNK + 3):
            part = ruij_sweep(h[:k], u[:k], 0.4 + 0.1j)
            for name, col in part.items():
                assert col.tobytes() == full[name][:k].tobytes(), (k, name)

    def test_one_cauchy_solve_per_chunk(self, monkeypatch):
        m = 2 * calogero._SWEEP_CHUNK + 7
        h, u = ruij_draws(ruij_cfg(3, m))
        solve, calls = np.linalg.solve, []

        def counted(*args):
            calls.append(args[0].shape)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        ruij_sweep(h, u, 0.3)
        chunk = calogero._SWEEP_CHUNK
        assert [shape[0] for shape in calls] == [chunk, chunk, 7]

    def test_each_pass_solves_through_the_oracle(self, monkeypatch):
        """The sweep's Cauchy solve is ``solve_phi_psi_oracle``, the route
        acceptance criterion 3 checks: one call per pass, and the columns
        of a counted run equal those of a plain one bit for bit."""
        m = 2 * calogero._SWEEP_CHUNK + 2
        h, u = ruij_draws(ruij_cfg(3, m))
        want = ruij_sweep(h, u, 0.3)
        oracle, calls = calogero.solve_phi_psi_oracle, []

        def counted(h, kappa):
            calls.append(len(h))
            return oracle(h, kappa)

        monkeypatch.setattr(calogero, "solve_phi_psi_oracle", counted)
        got = ruij_sweep(h, u, 0.3)
        assert calls == [calogero._SWEEP_CHUNK, calogero._SWEEP_CHUNK, 2]
        for name, col in want.items():
            assert got[name].tobytes() == col.tobytes(), name

    @pytest.mark.parametrize("planted,error", [
        ({3: SINGULAR_H}, SingularChartPoint),
        ({2: MISMATCH_H, 5: SINGULAR_H}, SingularChartPoint),
        ({2: SINGULAR_H, 5: MISMATCH_H}, SingularChartPoint),
        ({260: MISMATCH_H, 270: SINGULAR_H, 280: MISMATCH_H}, SingularChartPoint),
    ])
    def test_lowest_failing_sample_decides_the_error(self, planted, error):
        """The per-point chain stops at the lowest failing sample; so does
        the sweep.  A sample whose closed forms miss the oracle is reported,
        not raised, so it decides nothing."""
        h, u = regular_samples(301)
        for k, hk in planted.items():
            h[k] = hk
        with pytest.raises(error) as want:
            for i in range(len(h)):
                ruij_sample_oracle(h[i], u[i], 0.3)
        with pytest.raises(error) as caught:
            ruij_sweep(h, u, 0.3)
        assert type(caught.value) is type(want.value)
        assert str(caught.value) == str(want.value)

    def test_a_mismatching_sample_is_reported(self):
        """A sample whose closed forms both miss the oracle gives its row,
        as the per-point chain does, with both residuals past
        ``TOL.formula_match``; the report's closed-form cap fails on it."""
        h, u = regular_samples(301)
        h[300] = MISMATCH_H
        row = {name: col[300] for name, col in ruij_sweep(h, u, 0.3).items()}
        want = ruij_sample_oracle(h[300], u[300], 0.3)
        assert (row["closed-form-residual"], row["bare-residual"]) == want[1:3]
        assert min(want[1:3]) > TOL.formula_match

    def test_cli_reports_the_per_point_failure(self, tmp_path, monkeypatch):
        """A singular draw at sample 4 gives the report the flag the
        per-point chain's exception names, and exit code 2."""
        rank1_draws = cli._rank1_draws

        def planted(cfg):
            h, u = rank1_draws(cfg)
            h[4] = SINGULAR_H
            return h, u

        monkeypatch.setattr(cli, "_rank1_draws", planted)
        out = tmp_path / "r.json"
        assert cli.main(["--scenario", "ruijsenaars-rational", "--samples", "9",
                         "--out-json", str(out)]) == 2
        with pytest.raises(SingularChartPoint) as caught:
            ruij_sample_oracle(SINGULAR_H, np.ones(3), 0.3)
        name = type(caught.value).__name__
        assert json.loads(out.read_text())["flags"] == [f"numerical-failure:{name}"]
