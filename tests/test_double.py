"""Relativistic pair-system tests: moment map, duality, rank-1 reduction,
reduced Hamiltonians, and conservation along bracket-chart flows."""

import dataclasses
import json

import numpy as np
import pytest

from degint import calogero, cli, double
from degint.calogero import _pair_products, _ratio
from degint.double import (
    double_flow_conservation,
    duality_map,
    fiber_check,
    moment,
    rank_one_consistency_oracle,
    rank_one_samples,
)
from degint.config import TOL
from degint.errors import (ConsistencyError, ConstraintViolation, NonFiniteMatrixError,
                           SingularChartPoint)
from degint.integrate import rk4
from degint.matrixcore import as_matrix, mat_exp, spectral, traces_of_powers
from degint.poisson import bracket, chart_heisenberg_double, trace_power

RNG = np.random.default_rng(6)


def random_sl(n, spread=0.35, rng=RNG):
    m = np.eye(n) + spread * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return m / np.linalg.det(m) ** (1.0 / n)


def random_pair(n, spread=0.35):
    return random_sl(n, spread), random_sl(n, spread)


def as_point(x, y):
    """The pair chart's coordinates of (x, y)."""
    return np.concatenate([x.ravel(), y.ravel()])


def random_eigs(n, spread=0.4):
    while True:
        x = np.exp(RNG.normal(size=n) * spread + 1j * RNG.normal(size=n) * spread)
        x /= np.prod(x) ** (1.0 / n)
        gaps = [abs(x[i] - x[j]) for i in range(n) for j in range(i + 1, n)]
        if min(gaps) > 0.1:
            return x


def inverse_duality_map(x, y):
    """(x, y) -> (x y x^{-1}, x^{-1}): the inverse of ``duality_map``, the
    oracle of its round trip."""
    return x @ y @ np.linalg.inv(x), np.linalg.inv(x)


def checked_pair(x, y):
    """(x, y) after the checks of one pair of group elements, in order:
    square and finite, one shape, unit determinant (x before y).  The
    per-point oracle of ``double._check_pair``."""
    x, y = as_matrix(x), as_matrix(y)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same size")
    for name, m in zip("xy", (x, y)):
        det = np.linalg.det(m)
        if abs(det - 1.0) > 1e-9 * max(1.0, np.abs(m).max() ** len(m)):
            raise ConstraintViolation(f"det {name} must be 1 (got {det:.6g})")
    return x, y


def pair_moment(x, y):
    """x y x^{-1} y^{-1} of one pair: the per-point oracle of ``moment``."""
    return x @ y @ np.linalg.inv(x) @ np.linalg.inv(y)


def pair_duality(x, y):
    """The image (y^{-1}, y x y^{-1}) of one pair, checked by
    ``checked_pair``: the per-point oracle of ``duality_map``."""
    yinv = np.linalg.inv(y)
    return checked_pair(yinv, y @ x @ yinv)


class TestMoment:
    def test_commuting_pair(self):
        x = np.diag([2.0, 0.5]).astype(complex)
        y = np.diag([0.25, 4.0]).astype(complex)
        assert np.abs(moment(x, y) - np.eye(2)).max() < 1e-14

    def test_equal_pair(self):
        x = random_sl(3)
        assert np.abs(moment(x, x) - np.eye(3)).max() < 1e-12

    def test_unimodular(self):
        for n in (2, 3):
            assert abs(np.linalg.det(moment(*random_pair(n))) - 1.0) < 1e-9


class TestDualityMap:
    def test_moment_preserved_exactly(self):
        """mu(y^{-1}, y x y^{-1}) = mu(x, y), an algebraic identity."""
        for n in (2, 3):
            for _ in range(50):
                x, y = random_pair(n)
                dev = np.abs(moment(*duality_map(x, y)) - moment(x, y)).max()
                assert dev < 1e-12

    def test_hamiltonian_exchange(self):
        """tr(x) of the image equals tr(y^{-1}) of the source."""
        x, y = random_pair(3)
        img_x, _ = duality_map(x, y)
        assert np.trace(img_x) == pytest.approx(np.trace(np.linalg.inv(y)))

    def test_identity_fixed(self):
        for img in duality_map(np.eye(2), np.eye(2)):
            assert np.abs(img - np.eye(2)).max() < 1e-14

    def test_round_trip(self):
        for _ in range(20):
            x, y = random_pair(2)
            back_x, back_y = inverse_duality_map(*duality_map(x, y))
            assert np.abs(back_x - x).max() < 1e-10
            assert np.abs(back_y - y).max() < 1e-10


I2 = np.eye(2, dtype=complex)
NAN = np.array([[1.0, np.nan], [0.0, 1.0]])
OFF = f"must be 1 (got {np.linalg.det(1.1 * I2):.6g})"
NOT_SQUARE = "expected a square matrix, got shape (2, 3)"

# Each check a pair of group elements runs on entry: (x, y, exception type,
# message).  When both factors fail one check, x is named.
PAIR_CHECKS = {
    "x-not-square": (np.ones((2, 3)), I2, ValueError, NOT_SQUARE),
    "y-not-square": (I2, np.ones((2, 3)), ValueError, NOT_SQUARE),
    "x-not-finite": (NAN, I2, NonFiniteMatrixError, "matrix has NaN or Inf entries"),
    "y-not-finite": (I2, NAN, NonFiniteMatrixError, "matrix has NaN or Inf entries"),
    "sizes-differ": (I2, np.eye(3), ValueError, "x and y must have the same size"),
    "det-x": (1.1 * I2, I2, ConstraintViolation, f"det x {OFF}"),
    "det-y": (I2, 1.1 * I2, ConstraintViolation, f"det y {OFF}"),
    "det-both": (1.1 * I2, 1.1 * I2, ConstraintViolation, f"det x {OFF}"),
}
# The routes that take a pair (x, y), each at n = 2.
PAIR_ROUTES = {
    "fiber_check": lambda x, y: fiber_check(x, y, 2, np.random.default_rng(0)),
    "double_flow_conservation": lambda x, y: double_flow_conservation(
        x, y, trace_power(2, 1, 0, 2), 0.01, 1e-3),
}


class TestPairChecks:
    @pytest.mark.parametrize("check", PAIR_CHECKS)
    @pytest.mark.parametrize("route", PAIR_ROUTES)
    def test_each_route_runs_every_check(self, route, check):
        x, y, error, message = PAIR_CHECKS[check]
        with pytest.raises(Exception) as caught:
            PAIR_ROUTES[route](x, y)
        assert (type(caught.value), str(caught.value)) == (error, message)

    @pytest.mark.parametrize("route", PAIR_ROUTES)
    def test_a_unimodular_pair_passes(self, route):
        PAIR_ROUTES[route](*random_pair(2))


def centralizer_loop(m, samples, rng):
    """Test-only oracle: ``double._centralizer_elements`` one sample at a
    time, each torus element drawn, scaled and conjugated on its own."""
    _, v = spectral(m)
    vinv = np.linalg.inv(v)
    out = []
    for _ in range(samples):
        lam = np.exp(rng.normal(size=len(m)) * 0.3 + 1j * rng.normal(size=len(m)) * 0.3)
        lam /= np.prod(lam) ** (1.0 / len(m))
        out.append(v @ np.diag(lam) @ vinv)
    return np.array(out)


class TestFiberCheck:
    def test_generic_separation(self):
        margins = fiber_check(np.diag(random_eigs(2)), random_sl(2), samples=4,
                              rng=np.random.default_rng(12))
        assert margins.shape == (4, 4)
        assert (margins > TOL.separation_margin).all()

    def test_each_factor_is_decomposed_once(self, monkeypatch):
        """The centralizer draws of a fiber share one eigendecomposition."""
        calls, spectral = [], double.spectral
        monkeypatch.setattr(double, "spectral", lambda m: calls.append(m) or spectral(m))
        x, y = np.diag(random_eigs(2)).astype(complex), random_sl(2)
        fiber_check(x, y, samples=4, rng=np.random.default_rng(12))
        assert [c.tobytes() for c in calls] == [x.tobytes(), y.tobytes()]

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("samples,seed", [(1, 0), (4, 12), (7, 3)])
    def test_stacked_centralizer_elements_equal_the_loop(self, n, samples, seed):
        """One block of normals gives the elements of the per-sample loop bit
        for bit, and leaves the generator where the loop leaves it."""
        m = np.diag(random_eigs(n)) if n > 1 else np.eye(1, dtype=complex)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = double._centralizer_elements(m, samples, got_rng)
        assert got.shape == (samples, n, n)
        assert got.tobytes() == centralizer_loop(m, samples, want_rng).tobytes()
        assert got_rng.normal() == want_rng.normal()

    def test_first_fiber_preserves_projection_invariants(self):
        """Points (x, y z) with z central for x share tr(x^a), tr(mu~^b),
        and joint traces; mu~ = y x^{-1} y^{-1}."""
        from degint.matrixcore import spectral
        x, y = np.diag(random_eigs(3)), random_sl(3)
        _, v = spectral(x)

        def mu_tilde(x, y):
            return y @ np.linalg.inv(x) @ np.linalg.inv(y)

        ref = mu_tilde(x, y)
        ref_invs = [np.trace(x), np.trace(ref), np.trace(x @ ref)]
        for _ in range(5):
            lam = np.exp(RNG.normal(size=3) * 0.3)
            lam /= np.prod(lam) ** (1 / 3)
            z = v @ np.diag(lam) @ np.linalg.inv(v)
            cur = mu_tilde(x, y @ z)
            cur_invs = [np.trace(x), np.trace(cur), np.trace(x @ cur)]
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
        """z = phi psi^T + q^{-1} id, psi from the oracle products, has the
        class eigenvalues (q^{n-1}, q^{-1}, ..., q^{-1})."""
        n = 3
        q = 1.4 + 0.1j
        x = random_eigs(n)
        psi = rank_one_consistency_oracle(x, q) / x
        ev = np.linalg.eigvals(np.outer(np.ones(n), psi) + np.eye(n) / q)
        ev = ev[np.lexsort((ev.imag, ev.real))]
        assert np.abs(ev - double._class_eigenvalues(q, n)).max() < 1e-8

    def test_pairing_constraint_enforced(self):
        with pytest.raises(ValueError):
            double._check_pairing(1.5, np.ones(2))


def sample_row(x, q, ydiag, u=None):
    """``rank_one_samples``' columns at the one point (x, u, y_diag); u = 1
    unless given."""
    u = np.ones(len(x)) if u is None else u
    return {name: col[0] for name, col in rank_one_samples(x[None], u[None], ydiag[None],
                                                           q).items()}


def hamiltonian_routes(x, u, q):
    """(residuals, (tr y, tr y^2), H2) of the rebuilt y, by the dual routes
    that ``rank_one_samples`` runs: (own, other, c, s) = (1 - x_i/(q x_j),
    1 - x_i/x_j, 1 - 1/q, q)."""
    own, c = 1.0 - x[:, None] / (q * x[None, :]), 1.0 - 1.0 / q
    parts = calogero._rank1_matrix(own, 1.0 - x[:, None] / x[None, :], c, u)
    return calogero._dual_residuals(own, c, q, u, *parts)


class TestRankOneReduction:
    def test_moment_lands_in_class(self):
        for n in (2, 3):
            x = random_eigs(n)
            q = 1.25 + 0.15j
            row = sample_row(x, q, RNG.normal(size=n) + 1j * RNG.normal(size=n))
            assert row["mu-eigenvalue-deviation"] < 1e-7

    def test_naive_formula_recorded_as_off(self):
        """The naive transcription, the corrected form with its stray x_i^{-1}
        prefactor kept, is off the oracle by more than 1e-3 while the
        corrected form matches to 1e-8."""
        x, q = random_eigs(2), 1.3 + 0.1j
        products = rank_one_consistency_oracle(x, q) / x
        corrected = (1.0 - 1.0 / q) * _ratio(1.0 - q * x[None, :] / x[:, None],
                                             1.0 - x[None, :] / x[:, None]).prod(axis=-1)
        scale = max(1.0, np.abs(products).max())
        assert sample_row(x, q, np.ones(2))["psi-phi-corrected-residual"] < 1e-8
        assert np.abs(corrected / x - products).max() / scale > 1e-3

    def test_q_near_one_commutes(self):
        """q -> 1: the class tends to the identity and the pair commutes.
        The pair is the per-point oracle's, whose moment deviation is the
        stacked kernel's."""
        n = 2
        x = random_eigs(n)
        q = 1.0 + 1e-7
        ydiag = np.array([1.0, 2.0])
        assert np.abs(pair_moment(*reduced_pair(x, q, ydiag)) - np.eye(n)).max() < 1e-5
        want = reduction_oracle(x, q, ydiag)[0]
        assert abs(sample_row(x, q, ydiag)["mu-eigenvalue-deviation"] - want) <= 1e-13 * want

    def test_failure_raises_with_residuals(self):
        """Coincident x make the consistency system singular."""
        with pytest.raises(np.linalg.LinAlgError):
            sample_row(np.array([1.0, 1.0]), 1.3, np.array([1.0, 1.0]))


class TestRelativisticHamiltonians:
    def test_trace_is_diagonal_sum(self):
        n = 3
        x = random_eigs(n)
        u = RNG.normal(size=n) + 1j * RNG.normal(size=n)
        assert hamiltonian_routes(x, u, 1.3 + 0.1j)[0][0] < 1e-12

    def test_dual_paths(self):
        for n in (2, 3):
            x = random_eigs(n)
            u = RNG.normal(size=n) + 1j * RNG.normal(size=n)
            row = sample_row(x, 1.2 - 0.1j, np.ones(n), u)
            assert row["trace-dual-path"] < 1e-9
            assert row["h2-dual-path"] < 1e-9

    def test_zero_u_zero_hamiltonians(self):
        _, traces, h2 = hamiltonian_routes(random_eigs(3), np.zeros(3), 1.3)
        assert np.abs(traces).max() == 0.0
        assert h2 == 0.0


class TestRationalLimit:
    """x = exp(eps h) and q = exp(-eps kappa) take the relativistic rank-1
    denominators to -eps times the rational ones, so tr y, tr y^2 and H2
    tend to tr g, tr g^2 and the rational Hamiltonian at first order."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_first_order_in_eps(self, n):
        rng = np.random.default_rng(40 + n)
        h, kappa = cli._first_passing(rng, 1, (1, n), cli._gapped_h)[1][0], 0.3 + 0.1j
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        d = h[:, None] - h[None, :]
        parts = calogero._rank1_matrix(d + kappa, d, kappa, u)
        _, traces, h_char = calogero._dual_residuals(d + kappa, kappa, 1.0, u, *parts)
        want = np.append(traces, h_char)
        eps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        errors = []
        for e in eps:
            _, traces, h2 = hamiltonian_routes(np.exp(e * h), u, np.exp(-e * kappa))
            errors.append(np.abs(np.append(traces, h2) - want).max()
                          / max(1.0, np.abs(want).max()))
        errors = np.array(errors)
        assert np.all(errors <= n * abs(kappa) * eps), errors
        assert np.all((errors[:-1] / errors[1:] > 8) & (errors[:-1] / errors[1:] < 12)), errors


class TestDoubleFlows:
    def test_cm_flow_conserves_first_projection(self):
        """H = tr(x): the x-traces and the mu~-traces all stay put."""
        rep = double_flow_conservation(*random_pair(2, spread=0.3),
                                       trace_power(2, 1, 0, 2),
                                       t_max=0.5, dt=1e-3, family="cm")
        assert rep.max_abs_drift.max() < 1e-7

    def test_ruijsenaars_flow_conserves_second_projection(self):
        rep = double_flow_conservation(*random_pair(2, spread=0.3),
                                       trace_power(2, 1, 1, 2),
                                       t_max=0.5, dt=1e-3, family="ruijsenaars")
        assert rep.max_abs_drift.max() < 1e-7

    def test_constant_hamiltonian_zero_flow(self):
        from degint.poisson import Observable
        H = Observable("const", lambda z: 1.0,
                       grad=lambda z: np.zeros(8, dtype=complex))
        rep = double_flow_conservation(*random_pair(2), H, t_max=0.2, dt=0.05, family="cm")
        assert rep.max_abs_drift.max() < 1e-14

    def test_trace_families_bracket_structure(self):
        """{tr x, tr y} != 0 at a fixed seeded point while the families
        commute internally (margin from a fixed seed)."""
        rng = np.random.default_rng(123)
        def sl(n):
            m = np.eye(n) + 0.35 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            return m / np.linalg.det(m) ** (1.0 / n)
        chart = chart_heisenberg_double(2)
        z = as_point(sl(2), sl(2))
        trx = trace_power(2, 1, 0, 2)
        try_ = trace_power(2, 1, 1, 2)
        trx2 = trace_power(2, 2, 0, 2)
        try2 = trace_power(2, 2, 1, 2)
        assert abs(bracket(chart, trx, trx2, z)) < 1e-5
        assert abs(bracket(chart, try_, try2, z)) < 1e-5
        assert abs(bracket(chart, trx, try_, z)) > 1e-8

    @pytest.mark.parametrize("family", ["cm", "ruijsenaars"])
    def test_aux_is_formed_once_per_states_and_never_stale(self, monkeypatch, family):
        """The invariants that read aux share one formation (two inverses) on
        the same states, also on an equal copy; states changed in place form
        it afresh, and every value equals a fresh set of invariants' bitwise."""
        def values(z):
            return np.stack([o(z) for o in observables])

        def fresh(z):
            return np.stack([o(z) for o in double.projection_invariants(3, family)])

        observables = double.projection_invariants(3, family)
        z = np.stack([as_point(*random_pair(3)) for _ in range(5)])
        inv, calls = np.linalg.inv, []
        monkeypatch.setattr(np.linalg, "inv", lambda m: calls.append(m.shape) or inv(m))
        first = values(z)
        assert calls == [(5, 3, 3)] * 2
        assert values(z.copy()).tobytes() == first.tobytes()
        assert len(calls) == 2
        z[2] = as_point(*random_pair(3))
        changed = values(z)
        assert len(calls) == 4
        assert changed.tobytes() == fresh(z).tobytes()
        assert np.abs(changed[:, 2] - first[:, 2]).max() > 1e-3
        assert changed[:, [0, 1, 3, 4]].tobytes() == first[:, [0, 1, 3, 4]].tobytes()

    @pytest.mark.parametrize("family,words", [("cm", 6), ("ruijsenaars", 5)])
    def test_one_trace_word_table_per_states(self, monkeypatch, family, words):
        """Every invariant reads its column of one ``trace_words`` table of
        all the family's words, formed once per stack of states."""
        calls, table = [], double.trace_words
        monkeypatch.setattr(double, "trace_words",
                            lambda a, b, w: calls.append(len(w)) or table(a, b, w))
        observables = double.projection_invariants(3, family)
        z = np.stack([as_point(*random_pair(3)) for _ in range(4)])
        for o in observables:
            o(z)
        assert calls == [words]
        z[0] = as_point(*random_pair(3))
        for o in observables:
            o(z)
        assert calls == [words] * 2

    @pytest.mark.parametrize("family,block", [("cm", "x"), ("ruijsenaars", "y")])
    def test_flow_conserves_projection_at_n4(self, family, block):
        """The full bivector integrates above n = 3: a short n = 4 flow keeps
        its projection invariants within the acceptance bound."""
        rng = np.random.default_rng(44)
        def sl(n):
            m = np.eye(n) + 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            return m / np.linalg.det(m) ** (1.0 / n)
        rep = double_flow_conservation(sl(4), sl(4), trace_power(4, 1, "xy".index(block), 2),
                                       t_max=0.05, dt=1e-3, family=family)
        assert rep.max_abs_drift.max() <= 1e-7


class TestExactPairFlows:
    """The flows of tr(x^k) and tr(y^k) on the pair chart in closed form, the
    dressing action: tr(y^k) moves x to exp(-t k (y^k)0) x with y fixed, and
    tr(x^k) moves y to y exp(t k (x^k)0) with x fixed, (.)0 the traceless
    part.  The drifts the flow scenarios report are the same for either sign
    of the field; these flows are not."""

    n, t, rng = 3, 0.5, np.random.default_rng(30)
    x0, y0 = random_sl(n, rng=rng), random_sl(n, rng=rng)

    def error(self, block, dt, sign, field_sign=1.0, k=1):
        """|rk4 - closed form| of the moving matrix at t for the flow of
        tr(block^k) with the field times ``field_sign``, against the closed
        form with t times ``sign``; asserts the other matrix stays bit for
        bit."""
        chart = chart_heisenberg_double(self.n)
        chart = dataclasses.replace(chart, field=lambda z, g, f=chart.field: field_sign * f(z, g))
        H = trace_power(self.n, k, "xy".index(block), 2)
        traj = rk4(chart, H, as_point(self.x0, self.y0), self.t, dt)
        x, y = traj.final.reshape(2, self.n, self.n)
        a = np.linalg.matrix_power(self.y0 if block == "y" else self.x0, k)
        a0 = k * (a - np.trace(a) / self.n * np.eye(self.n))
        if block == "y":
            assert y.tobytes() == self.y0.tobytes()
            return np.abs(x - mat_exp(-sign * self.t * a0) @ self.x0).max()
        assert x.tobytes() == self.x0.tobytes()
        return np.abs(y - self.y0 @ mat_exp(sign * self.t * a0)).max()

    # the bound of each k on |rk4 - closed form|
    bounds = {1: 1e-13, 2: 5e-10, 3: 1e-6}

    @pytest.mark.parametrize("block,field_sign,k", [
        pytest.param(block, sign, k, id=f"{block}-{tag}" + (f"-k{k}" if k > 1 else ""))
        for k in (1, 2, 3) for block in "xy" for sign, tag in ((1.0, "field"), (-1.0, "negated"))])
    def test_flow_runs_in_the_direction_of_the_field(self, block, field_sign, k):
        """rk4 at dt = 1e-3 meets the closed form of its own sign within the
        bound of its k and misses the other sign by more than 0.1: a negated
        field fails the closed form.  Measured: 1.4e-15 to 4.7e-15 at k = 1,
        2.9e-13 to 1.8e-11 at k = 2 and 1.0e-11 to 2.8e-8 at k = 3, where
        the rk4 error grows with |k (a^k)0|^5; the other sign misses by 0.73
        to 64.  At k = 1, 2 the block field takes its commuting branch, whose
        zero velocity keeps the fixed matrix bit for bit.  At k = 3 it runs
        the full formula, whose velocity of the fixed matrix is roundoff,
        about 1e-15; times dt = 1e-3 that is below half an ulp of its
        smallest entry (0.17), so it also stays bit for bit."""
        assert self.error(block, 1e-3, field_sign, field_sign, k) <= self.bounds[k]
        assert self.error(block, 1e-3, -field_sign, field_sign, k) > 0.1

    @pytest.mark.parametrize("block", ["x", "y"])
    def test_rk4_error_falls_at_fourth_order(self, block):
        """Halving dt from 0.05 divides the error by 2^4 = 16 (measured
        15.9 and 16.3)."""
        ratio = self.error(block, 0.05, 1.0) / self.error(block, 0.025, 1.0)
        assert 15.0 <= ratio <= 17.0


# ----------------------------------------------------------------------
# the relativistic rank-1 samples of relativistic-ruijsenaars, stacked,
# against the per-sample loop they replaced
# ----------------------------------------------------------------------

def distinct_eigs(re, im):
    """The eigenvalues x of one attempt, scaled to product 1 on their own,
    or None where two lie within 0.1 of each other."""
    n = len(re)
    x = np.exp(re * 0.4 + 1j * im * 0.4)
    x /= np.prod(x) ** (1.0 / n)
    gaps = np.abs(x[:, None] - x[None, :])[np.triu_indices(n, 1)]
    return x if gaps.min(initial=np.inf) > 0.1 else None


def relativistic_draws_loop(cfg):
    """The seeded (x, u, y_diag) of every sample, one candidate at a time:
    the oracle for ``cli._relativistic_draws``.  All come from one
    generator, seed + 1000.  A candidate is five rows of normals; it passes
    when ``distinct_eigs`` accepts its first two rows, and then u is its
    third row plus 1j times its fourth and y_diag its fifth + 0.5."""
    rng, n, draws = cli._rng_for(cfg, 1000), cfg.n, []
    while len(draws) < cfg.samples:
        rows = rng.normal(size=(5, n))
        x = distinct_eigs(rows[0], rows[1])
        if x is not None:
            draws.append((x, rows[2] + 1j * rows[3], rows[4] + 0.5))
    return tuple(np.array(column) for column in zip(*draws))


def reduced_pair(x, q, ydiag):
    """The per-point pair (x, y) of the rank-1 reduction, gauge phi_i = 1:
    y_ij = (1 - q^{-1}) y_jj / (x_i/x_j - q^{-1}), both factors rescaled to
    unit determinant."""
    n = len(x)
    den = x[:, None] / x[None, :] - 1.0 / q
    if np.abs(den).min() < 1e-10:
        raise SingularChartPoint("reconstruction denominator vanishes")
    y = (1.0 - 1.0 / q) * ydiag[None, :] / den
    xmat = np.diag(x)
    return checked_pair(xmat / np.linalg.det(xmat) ** (1.0 / n), y / np.linalg.det(y) ** (1.0 / n))


def reduction_oracle(x, q, ydiag):
    """The per-point rank-1 reduction: (moment deviation, corrected residual)."""
    n = len(x)
    if np.abs(x).min() == 0.0:
        raise SingularChartPoint("x eigenvalues must be nonzero")
    products = double.rank_one_consistency_oracle(x, q) / x
    corrected = (1.0 - 1.0 / q) * _ratio(1.0 - q * x[None, :] / x[:, None],
                                         1.0 - x[None, :] / x[:, None]).prod(axis=-1)
    res_corrected = float(np.abs(corrected - products).max() / max(1.0, np.abs(products).max()))
    pair = reduced_pair(x, q, ydiag)
    target = q ** (n - 1) - 1.0 / q
    if abs(products.sum() - target) > 1e-10 * max(1.0, abs(target)):
        raise ConstraintViolation("(phi, psi) must equal q^(n-1) - q^(-1)")
    ev = np.array([q ** (n - 1)] + [1.0 / q] * (n - 1))
    got = np.linalg.eigvals(pair_moment(*pair))
    got = got[np.lexsort((got.imag, got.real))]
    return float(np.abs(got - ev[np.lexsort((ev.imag, ev.real))]).max()), res_corrected


def hamiltonians_oracle(x, u, q):
    """The per-point dual routes: (tr y, tr y^2, H2) residuals."""
    own = 1.0 - x[:, None] / (q * x[None, :])
    R = _ratio(own, 1.0 - x[:, None] / x[None, :])
    ydiag = u * R.prod(axis=-1)
    y = (1.0 - 1.0 / q) * ydiag[None, :] / own
    traces = traces_of_powers(y, 2)
    tr2_red = np.sum((1.0 - 1.0 / q) ** 2 * np.outer(ydiag, ydiag) / (own * own.T))
    h2_char = 0.5 * (traces[1] - traces[0] ** 2)
    i, j, prods = _pair_products(R)
    h2_prod = -np.sum(u[i] * u[j] * prods / q)
    scale = max(1.0, np.abs(traces[:2]).max())
    return (float(abs(traces[0] - np.sum(ydiag)) / scale),
            float(abs(traces[1] - tr2_red) / scale),
            float(abs(h2_char - h2_prod) / max(1.0, abs(h2_char))))


COLUMNS = ("mu-eigenvalue-deviation", "psi-phi-corrected-residual",
           "trace-dual-path", "h2-dual-path")


def rank_one_loop(x, u, ydiag, q):
    """Test-only oracle for ``double.rank_one_samples``: the reduction and
    then the Hamiltonians of one sample at a time, as its four columns."""
    rows = []
    for i in range(len(x)):
        dev, corrected = reduction_oracle(x[i], q, ydiag[i])
        tr_y, tr_y2, h2 = hamiltonians_oracle(x[i], u[i], q)
        rows.append((dev, corrected, max(tr_y, tr_y2), h2))
    return dict(zip(COLUMNS, (np.array(column) for column in zip(*rows))))


def relativistic_cfg(n, samples, seed=0, q=1.3):
    return cli.ScenarioConfig(scenario="relativistic-ruijsenaars", n=n, samples=samples,
                              seed=seed, q=complex(q), t_max=0.01)


class TestRelativisticDraws:
    """``cli._relativistic_draws`` against the one-candidate-at-a-time loop."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("samples", [1, 10, 63])
    @pytest.mark.parametrize("seed", [0, 7, 123456])
    def test_draws_equal_the_loop_bitwise(self, n, samples, seed):
        """At n = 8, 39% of the candidates fail the gap test."""
        cfg = relativistic_cfg(n, samples, seed)
        for got, want in zip(cli._relativistic_draws(cfg), relativistic_draws_loop(cfg)):
            assert got.tobytes() == want.tobytes()


def record(values):
    """(k, t): the first k >= 2 whose value exceeds every earlier one, and a
    threshold between that value and the largest earlier one."""
    for k in range(2, len(values)):
        top = values[:k].max()
        if values[k] > top:
            return k, (top + values[k]) / 2
    raise AssertionError("no record value")


Q = 1.3
# planted (x, u, y_diag) rows of one n = 3 sample; None keeps the draw
PLANTS = {
    "zero-eigenvalue": ([0.0, 1.0, 1.0], None, None),
    "cauchy-denominator": ([1.0, 1 / Q, Q], None, None),
    "singular-solve": ([1.0, 1 + 1e-7, 1 / (1 + 1e-7)], None, None),
    # near-coincident x: the ill-conditioned solve puts the closed form off
    # the oracle, and its products off the (phi, psi) pairing of the class
    "formula-match": ([1.0, 1 + 1e-4, 1 / (1 + 1e-4)], None, None),
    "reconstruction-denominator": (
        [5 / Q * (1 + 1e-10), 5.0, Q / (25 * (1 + 1e-10))], None, None),
    "nonfinite-reduction": (None, None, [1e300, 1e300, 1.0]),
    # det y underflows to a subnormal, so y / det(y)^(1/3) misses det 1
    "unit-determinant": (None, None, [1e-107] * 3),
    "nonfinite-hamiltonians": (None, [np.inf, 1.0, 1.0], None),
}


def planted_draws(cfg, plants):
    x, u, ydiag = relativistic_draws_loop(cfg)
    for k, name in plants.items():
        for array, row in zip((x, u, ydiag), PLANTS[name]):
            if row is not None:
                array[k] = row
    return x, u, ydiag


def outcome(fn, *args):
    """(exception type, message) of a call, or its result."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except Exception as exc:            # the types under test differ per plant
        return type(exc), str(exc)


class TestRankOneSamples:
    """``double.rank_one_samples`` against the per-sample loop."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("q", [1.3, 1.25 + 0.15j])
    def test_columns_match_the_loop(self, n, q):
        """Every sample's four residuals, over two stacked passes, equal the
        loop's to 1e-13 relative (bitwise with this numpy and OpenBLAS), and
        the report's maxima are the loop's maxima."""
        cfg = relativistic_cfg(n, calogero._SWEEP_CHUNK + 6, seed=3, q=q)
        x, u, ydiag = relativistic_draws_loop(cfg)
        want = rank_one_loop(x, u, ydiag, cfg.q)
        got = double.rank_one_samples(x, u, ydiag, cfg.q)
        assert list(got) == list(COLUMNS)
        for name in COLUMNS:
            assert got[name].shape == want[name].shape
            assert np.all(np.abs(got[name] - want[name]) <= 1e-13 * np.abs(want[name]))
        residuals = cli._scenario_relativistic_ruijsenaars(cfg).residuals
        assert [name for name, *_ in residuals] == list(COLUMNS)
        for name, value, _ in residuals:
            assert abs(value - want[name].max()) <= 1e-13 * want[name].max()

    @pytest.mark.parametrize("plants", [
        {4: name} for name in PLANTS] + [
        {3: "nonfinite-hamiltonians", 6: "cauchy-denominator"},
        {2: "reconstruction-denominator", 5: "zero-eigenvalue"},
        {5: "formula-match", 1: "singular-solve"},
        {1: "formula-match", 5: "singular-solve"},
        {70: "nonfinite-reduction", 100: "zero-eigenvalue", 120: "singular-solve"},
        {270: "nonfinite-reduction", 300: "zero-eigenvalue", 320: "singular-solve"},
        {6: "unit-determinant", 7: "formula-match"},
        {6: "nonfinite-hamiltonians", 7: "unit-determinant"},
    ], ids=lambda plants: "+".join(f"{k}:{v}" for k, v in plants.items()))
    def test_lowest_failing_sample_raises_as_in_the_loop(self, plants):
        cfg = relativistic_cfg(3, max(plants) + 10 if max(plants) >= 64 else 9, seed=5)
        draws = planted_draws(cfg, plants)
        want = outcome(rank_one_loop, *draws, cfg.q)
        assert isinstance(want, tuple) and isinstance(want[0], type), want
        assert outcome(double.rank_one_samples, *draws, cfg.q) == want

    @pytest.mark.parametrize("gate,error", [("oracle_residual", ConsistencyError)])
    def test_tolerance_gates_fire_on_the_same_sample(self, monkeypatch, gate, error):
        """With the oracle solve's tolerance set between two samples' values,
        the first sample over it raises, with the loop's type and message."""
        cfg = relativistic_cfg(3, 40, seed=2)
        x, u, ydiag = draws = relativistic_draws_loop(cfg)
        _, residual = calogero._cauchy_solve(
            x[:, :, None] - x[:, None, :] / cfg.q, "x_j - q^{-1} x_i")
        k, threshold = record(residual)
        monkeypatch.setattr(calogero, "TOL",
                            dataclasses.replace(calogero.TOL, **{gate: threshold}))
        want = outcome(rank_one_loop, *draws, cfg.q)
        assert want[0] is error
        assert isinstance(outcome(rank_one_loop, *(a[:k] for a in draws), cfg.q), dict)
        assert outcome(double.rank_one_samples, *draws, cfg.q) == want

    def test_pairing_gate_fires_on_the_same_sample(self, monkeypatch):
        """Oracle products nudged by 1e-9 at sample 4 fail the 1e-10
        (phi, psi) check of the rank-1 class."""
        cfg = relativistic_cfg(3, 9, seed=5)
        draws = relativistic_draws_loop(cfg)
        solve, planted = double.rank_one_consistency_oracle, draws[0][4, 0]

        def nudged(x, q):
            v = solve(x, q)
            v[..., 0] *= np.where(np.asarray(x)[..., 0] == planted, 1 + 1e-9, 1.0)
            return v

        monkeypatch.setattr(double, "rank_one_consistency_oracle", nudged)
        want = outcome(rank_one_loop, *draws, cfg.q)
        assert want == (ConstraintViolation, "(phi, psi) must equal q^(n-1) - q^(-1)")
        assert outcome(double.rank_one_samples, *draws, cfg.q) == want

    @pytest.mark.parametrize("plants", [{4: "cauchy-denominator"},
                                        {3: "nonfinite-hamiltonians", 6: "formula-match"},
                                        {4: "zero-eigenvalue"}])
    def test_cli_reports_the_loop_failure(self, tmp_path, monkeypatch, capsys, plants):
        """A planted failing sample gives the stacked report the loop's exit
        code, flag and message."""
        cfg = relativistic_cfg(3, 9, seed=5)
        draws = planted_draws(cfg, plants)
        monkeypatch.setattr(cli, "_relativistic_draws", lambda cfg: draws)
        argv = ["--scenario", "relativistic-ruijsenaars", "--n", "3", "--t-max", "0.01",
                "--samples", "9", "--seed", "5"]
        results = []
        for route in (double.rank_one_samples, rank_one_loop):
            monkeypatch.setattr(double, "rank_one_samples", route)
            out = tmp_path / "r.json"
            with np.errstate(all="ignore"):
                code = cli.main(argv + ["--out-json", str(out)])
            results.append((code, json.loads(out.read_text())["flags"],
                            capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0] == 2 and results[0][2].startswith("numerical failure: ")


class TestPassSize:
    """Every stacked rank-1 value is independent of the pass size, also where
    a pass's tables reach 256 KiB: from that size on, numpy computes
    ``scalar * (unnamed temporary)`` into the temporary with the operands
    swapped, and complex a*b and b*a may round differently."""

    @pytest.mark.parametrize("chunk,n", [(512, 6), (512, 7), (512, 8), (2048, 8)])
    @pytest.mark.parametrize("system", ["rational", "relativistic"])
    def test_prefix_rows_equal_the_full_pass(self, monkeypatch, system, chunk, n):
        """One pass of ``chunk`` samples; its first 1 and 64 rows equal
        those of a run of 1 and of 64 samples, byte for byte."""
        if system == "rational":
            stacks = cli._rank1_draws(cli.ScenarioConfig(scenario="ruijsenaars-rational",
                                                         n=n, samples=chunk))
            def sweep(*stacks):
                return calogero.ruij_sweep(*stacks, 0.4 + 0.1j)
        else:
            stacks = cli._relativistic_draws(relativistic_cfg(n, chunk, seed=3))
            def sweep(*stacks):
                return double.rank_one_samples(*stacks, 1.25 + 0.15j)
        monkeypatch.setattr(calogero, "_SWEEP_CHUNK", chunk)
        full = sweep(*stacks)
        for k in (1, 64):
            for name, col in sweep(*(a[:k] for a in stacks)).items():
                assert col.tobytes() == full[name][:k].tobytes(), (k, name)


class TestStackedChecks:
    """The det check of a pair, run on a stack by ``duality_map``,
    and the pairing check of the rank-1 class (which the scenario's draws
    never fail) raise for the first failing member of a stack, with the
    per-point message."""

    def test_first_pair_off_unit_determinant(self):
        x = np.stack([np.eye(2, dtype=complex)] * 5)
        y = x.copy()
        y[3] *= 1.1
        x[4] *= 1.1
        with pytest.raises(ValueError) as caught:
            duality_map(x, y)
        with pytest.raises(ValueError) as want:
            for i in range(len(x)):
                checked_pair(x[i], y[i])
        assert type(caught.value) is type(want.value) is ConstraintViolation
        assert str(caught.value) == str(want.value)
        assert str(caught.value) == f"det y must be 1 (got {np.linalg.det(y[3]):.6g})"
        with pytest.raises(ValueError, match=r"det x must be 1 \(got 1\.21"):
            duality_map(x[4:], y[4:])

    def test_first_pairing_off_the_class(self):
        psi = np.tile(rank_one_consistency_oracle([1.0, 1.5, 1 / 1.5], Q)
                      / np.array([1.0, 1.5, 1 / 1.5]), (4, 1))
        psi[2, 0] += 1e-6
        with pytest.raises(ValueError, match=r"\(phi, psi\) must equal"):
            double._check_pairing(Q, psi)
        double._check_pairing(Q, psi[:2])
        with pytest.raises(ValueError, match=r"\(phi, psi\) must equal"):
            double._check_pairing(Q, psi[2])


def sl_sample_loop(n, rng, spread):
    """One det-1 matrix 1 + spread (re + i im), drawn and scaled on its own:
    the oracle of ``cli._sl_matrices``."""
    m = np.eye(n) + spread * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return m / np.linalg.det(m) ** (1.0 / n)


def duality_moment_loop(cfg):
    """The duality-moment deviation of ``relativistic-cm``, one pair at a
    time: the oracle of the scenario's stacked check."""
    rng = cli._rng_for(cfg, 999)
    dev = 0.0
    for _ in range(100):
        x, y = checked_pair(sl_sample_loop(cfg.n, rng, 0.3), sl_sample_loop(cfg.n, rng, 0.3))
        dev = max(dev, float(np.abs(pair_moment(*pair_duality(x, y)) - pair_moment(x, y)).max()))
    return dev


class TestStackedDualityCheck:
    """``relativistic-cm`` checks its 100 drawn pairs in one stack; the
    per-pair loop it replaced gives the same deviation bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    @pytest.mark.parametrize("seed", [0, 7, 1000])
    def test_equals_the_loop_bitwise(self, n, seed):
        cfg = cli.ScenarioConfig(scenario="relativistic-cm", n=n, seed=seed, t_max=0.01)
        got = {name: value for name, value, _ in cli._scenario_relativistic_cm(cfg).residuals}[
            "duality-moment-deviation"]
        assert got == duality_moment_loop(cfg)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_a_stacked_draw_is_the_per_matrix_draw_bitwise(self, n):
        """One (k, 2, n, n) block of normals gives the k matrices that k
        draws of one matrix each give, bit for bit."""
        for spread in (0.25, 0.3, 0.35, 0.4):
            for k in (1, 2, 5):
                rng, ref = np.random.default_rng(n), np.random.default_rng(n)
                got = cli._sl_matrices(rng.normal(size=(k, 2, n, n)), spread)
                want = np.stack([sl_sample_loop(n, ref, spread) for _ in range(k)])
                assert got.tobytes() == want.tobytes()

    def test_moment_of_a_stack_is_each_pairs_moment(self):
        pairs = [random_pair(3) for _ in range(4)]
        x, y = map(np.stack, zip(*pairs))
        for got, pair in zip(moment(*duality_map(x, y)), pairs):
            assert got.tobytes() == pair_moment(*pair_duality(*pair)).tobytes()
