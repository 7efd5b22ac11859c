"""Factorization-dynamics tests: the exact flow against the bivector
integration oracle, conservation, and the semigroup property."""

import numpy as np
import pytest

from degint import facto
from degint.config import TOL
from degint.facto import (
    TracePower,
    factorization_flow,
    flow_consistency_sweep,
    left_differential,
    sklyanin_reference_flow,
)
from degint.matrixcore import mat_exp, traces_of_powers, ul_split_factorize

RNG = np.random.default_rng(7)


def random_sl(n, spread=0.25):
    m = np.eye(n) + spread * (RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n)))
    return m / np.linalg.det(m) ** (1.0 / n)


def fd_left_differential(H, x):
    """The left differential of an invariant H, any callable on matrices, by
    central differences over the matrix-unit basis with step ``TOL.fd_step``;
    exp(h E_ab) is formed exactly (E_ab is a unit or idempotent).  The
    oracle of the closed form k x^k in ``left_differential``."""
    step = TOL.fd_step
    n = x.shape[0]
    d = np.empty((n, n), dtype=complex)
    eye = np.eye(n)
    for a in range(n):
        for b in range(n):
            e = np.zeros((n, n)); e[a, b] = 1.0
            if a == b:
                gp = eye + (np.exp(step) - 1.0) * e
                gm = eye + (np.exp(-step) - 1.0) * e
            else:
                gp = eye + step * e
                gm = eye - step * e
            d[a, b] = (H(gp @ x) - H(gm @ x)) / (2.0 * step)
    # tr(D E_ab) = d_ab  =>  D = d^T
    return d.T - (np.trace(d) / n) * eye


def tr2(m):
    return np.trace(m @ m)


class TestLeftDifferential:
    def test_trace_power_one_explicit(self):
        """H = tr(x) at diag(2, 1/2): x minus its trace part."""
        x = np.diag([2.0, 0.5]).astype(complex)
        d = left_differential(TracePower(1), x)
        assert np.abs(d - np.diag([0.75, -0.75])).max() < 1e-14

    def test_custom_matches_formula(self):
        """Finite-difference differential of tr(x^k) is k x^k traceless."""
        x = random_sl(3)
        want = 2.0 * x @ x
        want -= np.trace(want) / 3.0 * np.eye(3)
        assert np.abs(fd_left_differential(tr2, x) - want).max() < 1e-6
        for k in (1, 2, 3):
            d_fd = fd_left_differential(lambda m: np.trace(np.linalg.matrix_power(m, k)), x)
            assert np.abs(d_fd - left_differential(TracePower(k), x)).max() < 1e-6

    def test_constant_hamiltonian(self):
        x = random_sl(2)
        d = fd_left_differential(lambda m: 1.0, x)
        assert np.abs(d).max() < 1e-9

    def test_traceless(self):
        x = random_sl(3)
        for H in (TracePower(1), TracePower(2), TracePower(3)):
            assert abs(np.trace(left_differential(H, x))) < 1e-12


class TestFactorizationFlow:
    def test_time_zero(self):
        x0 = random_sl(3)
        assert np.abs(factorization_flow(x0, TracePower(1), 0.0) - x0).max() < 1e-12

    def test_trace_powers_conserved(self):
        """Similarity transform: tr(x(t)^k) = tr(x0^k) to 1e-10."""
        for n in (2, 3):
            x0 = random_sl(n)
            ref = traces_of_powers(x0, n)
            for t in (0.05, 0.2, 0.6):
                xt = factorization_flow(x0, TracePower(2), t)
                assert np.abs(traces_of_powers(xt, n) - ref).max() < 1e-10

    def test_determinant_preserved(self):
        x0 = random_sl(3)
        xt = factorization_flow(x0, TracePower(2), 0.3)
        assert abs(np.linalg.det(xt) - np.linalg.det(x0)) < 1e-10

    def test_diagonal_fixed_point(self):
        """Diagonal x0: the exponent is diagonal, its splitting commutes
        with x0, and the flow holds still."""
        x0 = np.diag([1.5, 0.4, 1.0 / 0.6]).astype(complex)
        x0 /= np.linalg.det(x0) ** (1 / 3)
        xt = factorization_flow(x0, TracePower(1), 0.4)
        assert np.abs(xt - x0).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_against_bivector_integration_oracle(self, k):
        """The arbiter: exact flow vs fixed-step integration on the group
        bracket chart, t = 0.1, step 1e-3, n = 3."""
        x0 = random_sl(3)
        exact = factorization_flow(x0, TracePower(k), 0.1)
        ref = sklyanin_reference_flow(x0, TracePower(k), 0.1, step=1e-3).final.reshape(3, 3)
        assert np.abs(exact - ref).max() < 1e-6

    def test_custom_invariant_flow_matches_trace_power(self):
        x0 = random_sl(2)
        exact = factorization_flow(x0, TracePower(2), 0.1)
        via_custom = facto._conjugations(x0, fd_left_differential(tr2, x0), 0.1)[0]
        assert np.abs(exact - via_custom).max() < 1e-5


class TestConsistencySweep:
    def test_semigroup_and_conservation(self):
        x0 = random_sl(2)
        rep = flow_consistency_sweep(x0, TracePower(1), [0.05, 0.05, 0.1])
        assert sorted(rep) == ["conjugation", "semigroup", "trace-drift"]
        assert all(len(column) == 3 for column in rep.values())
        assert rep["semigroup"].max() < 1e-7
        assert rep["trace-drift"].max() < 1e-10
        assert rep["conjugation"].max() < 1e-9

    def test_zero_second_leg_trivial(self):
        x0 = random_sl(2)
        direct = factorization_flow(x0, TracePower(1), 0.1)
        composed = factorization_flow(factorization_flow(x0, TracePower(1), 0.1),
                                      TracePower(1), 0.0)
        assert np.abs(direct - composed).max() < 1e-12

    @pytest.mark.parametrize("H", [TracePower(2)], ids=["power"])
    def test_one_left_differential_at_x0_per_sweep(self, monkeypatch, H):
        """An m-point grid forms xi at x0 once and at each flow(t1) once,
        m + 1 left differentials, and reports bit for bit what the
        per-point flows give."""
        x0, grid = random_sl(3), [0.05, 0.02, 0.1, 0.04]
        semis, drifts, agrees = [], [], []
        for i, t1 in enumerate(grid):
            x1 = factorization_flow(x0, H, t1)
            pair = ul_split_factorize(mat_exp(t1 * left_differential(H, x0)))
            drifts.append(np.abs(traces_of_powers(x1, 3) - traces_of_powers(x0, 3)).max())
            agrees.append(np.abs(x1 - np.linalg.inv(pair.g_minus) @ x0 @ pair.g_minus).max())
            t2 = grid[(i + 1) % len(grid)]
            direct = factorization_flow(x0, H, t1 + t2)
            composed = factorization_flow(x1, H, t2)
            semis.append(np.abs(direct - composed).max() / max(1.0, np.abs(direct).max()))
        calls = []

        def counted(H, x):
            calls.append(1)
            return left_differential(H, x)

        monkeypatch.setattr(facto, "left_differential", counted)
        rep = flow_consistency_sweep(x0, H, grid)
        assert len(calls) == len(grid) + 1
        for got, want in ((rep["semigroup"], semis), (rep["trace-drift"], drifts),
                          (rep["conjugation"], agrees)):
            assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("H", [TracePower(1), TracePower(2)], ids=lambda H: H.name)
    def test_three_splittings_per_grid_point(self, monkeypatch, H):
        """Each grid point splits exp(t xi) once for the flow to t1, whose
        g_plus and g_minus conjugations give the agreement, and once each for
        the direct and the composed flow; the agreements equal a separate
        splitting's bit for bit."""
        x0, grid = random_sl(3), [0.05, 0.02, 0.1]
        calls = []

        def counted(m):
            calls.append(1)
            return ul_split_factorize(m)

        monkeypatch.setattr(facto, "ul_split_factorize", counted)
        rep = flow_consistency_sweep(x0, H, grid)
        assert len(calls) == 3 * len(grid)
        for t, agreement in zip(grid, rep["conjugation"]):
            pair = ul_split_factorize(mat_exp(t * left_differential(H, x0)))
            want = np.abs(np.linalg.inv(pair.g_plus) @ x0 @ pair.g_plus
                          - np.linalg.inv(pair.g_minus) @ x0 @ pair.g_minus).max()
            assert agreement == want
