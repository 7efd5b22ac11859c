"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion (the lines are printed regardless; -s shows them live).
Every tolerance is pinned here, not configured elsewhere.
"""

import contextlib
import json
import time

import numpy as np

from degint import calogero, double, facto, kepler
from degint.cli import main as cli_main
from degint.poisson import (
    chart_canonical,
    chart_cm_loglinear,
    chart_heisenberg_double,
    chart_relativistic_loglinear,
    chart_sklyanin,
    coordinate,
    jacobi_defect,
    leibniz_defect,
    trace_power,
)


@contextlib.contextmanager
def criterion(num, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {num} exceeded its runtime budget: {elapsed:.1f}s")
    print(f"ACCEPTANCE {num}: PASS  {description}  ({elapsed:.1f}s)")


def _unimodular_draw(n, rng, spread=0.3):
    m = np.eye(n) + spread * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return m / np.linalg.det(m) ** (1.0 / n)


def test_criterion_1_bracket_structures():
    """Antisymmetry <= 1e-10, Leibniz <= 1e-5, Jacobi <= 1e-4 at 100 seeded
    points on every registered chart."""
    with criterion(1, "bracket-structure suite over registered charts", 30.0):
        charts = [
            chart_canonical(3),
            chart_cm_loglinear(3),
            chart_relativistic_loglinear(3),
            chart_heisenberg_double(2),
            chart_sklyanin(2),
            chart_sklyanin(3),
        ]
        rng = np.random.default_rng(2024)
        for chart in charts:
            for _ in range(100):
                if chart.name.startswith("relativistic"):
                    z = (rng.uniform(0.5, 2.0, size=chart.dim)
                         * np.exp(1j * rng.uniform(-0.3, 0.3, size=chart.dim)))
                elif chart.name.startswith("heisenberg"):
                    n = int(round(np.sqrt(chart.dim / 2)))
                    z = np.concatenate([_unimodular_draw(n, rng).ravel(),
                                        _unimodular_draw(n, rng).ravel()])
                elif chart.name.startswith("sklyanin"):
                    n = int(round(np.sqrt(chart.dim)))
                    z = _unimodular_draw(n, rng).ravel()
                else:
                    z = rng.normal(size=chart.dim).astype(complex)

                P = chart.pi(z)
                assert np.abs(P + P.T).max() <= 1e-10 * max(1.0, np.abs(P).max()), \
                    f"antisymmetry failed on {chart.name}"
                idx = rng.choice(chart.dim, size=3, replace=False)
                f, g, h = (coordinate(chart.dim, int(i)) for i in idx)
                assert abs(leibniz_defect(chart, f, g, h, z)) <= 1e-5, \
                    f"Leibniz failed on {chart.name}"
                assert abs(jacobi_defect(chart, f, g, h, z)) <= 1e-4, \
                    f"Jacobi failed on {chart.name}"


def test_criterion_2_kepler_conservation():
    """Adaptive orbits at tol 1e-10 in all three energy regimes: M, A, H
    drifts <= 1e-8; (M, A) = 0 <= 1e-12; quadratic relation <= 1e-9;
    negative control drifts >= 1e-2."""
    with criterion(2, "Kepler conservation in all three energy regimes", 10.0):
        gamma = 1.0
        regimes = {
            # E < 0: elliptical, integrate past one radial period
            "bound": (kepler.KeplerState(p=[0.0, 0.8, 0.0], q=[1.0, 0.0, 0.0],
                                         gamma=gamma), None),
            # E = 0: parabolic (p^2/2 = gamma/|q|)
            "parabolic": (kepler.KeplerState(p=[0.0, np.sqrt(2.0), 0.0],
                                             q=[1.0, 0.0, 0.0], gamma=gamma), 10.0),
            # E > 0: scattering
            "scattering": (kepler.KeplerState(p=[0.0, 1.6, 0.0],
                                              q=[1.0, 0.2, 0.0], gamma=gamma), 10.0),
        }
        for name, (state, t_max) in regimes.items():
            E = kepler.hamiltonian(state.p, state.q, gamma)
            if t_max is None:
                assert E < 0
                t_max = 1.05 * 2 * np.pi * gamma / (2 * abs(E)) ** 1.5
            traj = kepler.integrate_orbit(state, t_max, tol=1e-10)
            obs = kepler.kepler_observables(gamma)
            from degint.integrate import monitor
            rep = monitor(traj, obs)
            assert rep.max_abs_drift.max() <= 1e-8, f"drift too large ({name})"

            # (M, A, H) at every state, as the monitored M1..M3, A1..A3, H
            M, A, H = rep.values[:, :3].real, rep.values[:, 3:6].real, rep.values[:, 6].real
            assert np.abs(np.vecdot(M, A)).max() <= 1e-12
            assert np.abs(np.vecdot(A, A) - gamma ** 2 - kepler.QUADRATIC_RELATION_SIGN * 2
                          * np.vecdot(M, M) * H).max() <= 1e-9

            control = monitor(traj, [coordinate(6, 3, "q1")])
            assert control.max_abs_drift[0] >= 1e-2, "negative control failed"


def test_criterion_3_ruijsenaars_oracle_suite():
    """50 seeded (h, kappa) draws, n <= 6: solve residual <= 1e-10, exactly
    one product normalization matches <= 1e-8, the kappa-scaled one, at
    every draw; reconstruction residual <= 1e-9, dual-path characters
    <= 1e-9."""
    with criterion(3, "rational Ruijsenaars oracle suite", 10.0):
        rng = np.random.default_rng(777)
        for draw in range(50):
            n = 2 + draw % 5          # n in 2..6
            while True:
                h = np.sort(rng.normal(size=n))
                h -= h.mean()
                if np.diff(h).min() > 0.1:
                    break
            kappa = rng.uniform(0.2, 0.5) + 1j * rng.uniform(-0.15, 0.15)
            u = rng.normal(size=n) + 1j * rng.normal(size=n)

            w, _ = calogero.solve_phi_psi_oracle(h.astype(complex), kappa)
            C = 1.0 / (h[None, :] - h[:, None] + kappa)
            assert np.abs(C @ w - 1.0).max() <= 1e-10

            res = {name: col[0] for name, col in calogero.ruij_sweep(h[None], u[None],
                                                                     kappa).items()}
            assert res["closed-form-residual"] <= 1e-8 < res["bare-residual"], \
                "the kappa-scaled normalization must match alone"
            assert res["relation-residual"] <= 1e-9
            assert res["tr-g-dual"] <= 1e-9
            assert res["tr-g2-dual"] <= 1e-9
            assert res["h-ruijsenaars-dual"] <= 1e-9


def test_criterion_4_central_flow_invariants():
    """Quadratic-Casimir central flow at n = 3: all joint invariants
    tr(x^a (g x g^{-1})^b), a, b <= 3, constant to 1e-9 over t in [0, 1]."""
    with criterion(4, "central flow preserves joint invariants", 5.0):
        rng = np.random.default_rng(31)
        h = np.array([-1.1, 0.2, 0.9])
        x = np.diag(h).astype(complex)
        g = _unimodular_draw(3, rng, 0.4)
        ref = calogero.joint_invariants(x, g @ x @ np.linalg.inv(g), max_exp=3)
        for t in np.linspace(0.0, 1.0, 21):
            gt = calogero.cm_central_flow(x, g, t)
            cur = calogero.joint_invariants(x, gt @ x @ np.linalg.inv(gt), max_exp=3)
            assert np.abs(cur - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())


def test_criterion_5_relativistic_suite():
    """n in {2, 3}: moment preserved by duality <= 1e-12 at 100 points;
    corrected psi-phi products off the oracle <= 1e-8, rank-1 moment
    eigenvalues <= 1e-7; dual-path tr y, tr y^2, H2 <= 1e-9;
    projection invariants drift <= 1e-7 along tr(x) and tr(y) flows."""
    with criterion(5, "relativistic pair-system suite", 60.0):
        for n in (2, 3):
            rng = np.random.default_rng(100 + n)
            for _ in range(100):
                x, y = _unimodular_draw(n, rng), _unimodular_draw(n, rng)
                dev = np.abs(double.moment(*double.duality_map(x, y))
                             - double.moment(x, y)).max()
                assert dev <= 1e-12

            q = 1.25 + 0.15j
            for _ in range(10):
                while True:
                    x = np.exp(rng.normal(size=n) * 0.4
                               + 1j * rng.normal(size=n) * 0.4)
                    x /= np.prod(x) ** (1.0 / n)
                    gaps = [abs(a - b) for i, a in enumerate(x)
                            for b in x[i + 1:]]
                    if not gaps or min(gaps) > 0.15:
                        break
                ydiag = rng.normal(size=n) + 0.5 + 0.1j * rng.normal(size=n)
                u = rng.normal(size=n) + 1j * rng.normal(size=n)
                res = {name: col[0] for name, col in double.rank_one_samples(
                    x[None], u[None], ydiag[None], q).items()}
                assert res["psi-phi-corrected-residual"] <= 1e-8
                assert res["mu-eigenvalue-deviation"] <= 1e-7
                assert res["trace-dual-path"] <= 1e-9       # tr y and tr y^2
                assert res["h2-dual-path"] <= 1e-9

            x, y = _unimodular_draw(n, rng), _unimodular_draw(n, rng)
            for block, family in ((0, "cm"), (1, "ruijsenaars")):
                rep = double.double_flow_conservation(
                    x, y, trace_power(n, 1, block, 2),
                    t_max=0.5, dt=1e-3, family=family)
                assert rep.max_abs_drift.max() <= 1e-7, \
                    f"projection drift failed (n={n}, H=tr({'xy'[block]}))"


def test_criterion_6_factorization_dynamics():
    """n in {2, 3}, H in {tr x, tr x^2}: exact flow vs fixed-step bivector
    integration <= 1e-6 at t = 0.1 (step 1e-3); tr(x(t)^k) conserved
    <= 1e-10; semigroup residual <= 1e-7; conjugation agreement <= 1e-9."""
    with criterion(6, "factorization dynamics vs bivector oracle", 30.0):
        for n in (2, 3):
            rng = np.random.default_rng(60 + n)
            x0 = _unimodular_draw(n, rng, 0.25)
            for k in (1, 2):
                H = facto.TracePower(k)
                exact = facto.factorization_flow(x0, H, 0.1)
                ref = facto.sklyanin_reference_flow(x0, H, 0.1, step=1e-3).final.reshape(n, n)
                assert np.abs(exact - ref).max() <= 1e-6

                from degint.matrixcore import traces_of_powers
                drift = np.abs(traces_of_powers(exact, n)
                               - traces_of_powers(x0, n)).max()
                assert drift <= 1e-10

                sweep = facto.flow_consistency_sweep(x0, H, [0.05, 0.05])
                assert sweep["semigroup"].max() <= 1e-7
                assert sweep["conjugation"].max() <= 1e-9


def test_criterion_7_determinism(tmp_path):
    """Identical (config, seed) produces byte-identical CSV and JSON."""
    with criterion(7, "byte-identical reruns", 30.0):
        for scenario, extra in (("kepler", ["--t-max", "1.0"]),
                                ("ruijsenaars-rational", ["--samples", "10"]),
                                ("factorization-flow", [])):
            blobs = []
            for tag in ("a", "b"):
                csv = tmp_path / f"{scenario}-{tag}.csv"
                js = tmp_path / f"{scenario}-{tag}.json"
                code = cli_main(["--scenario", scenario, "--seed", "11",
                                 "--out-csv", str(csv),
                                 "--out-json", str(js)] + extra)
                assert code == 0
                blobs.append((csv.read_bytes(), js.read_bytes()))
            assert blobs[0] == blobs[1], f"{scenario} reruns differ"
            payload = json.loads(blobs[0][1])
            assert payload["elapsed_seconds"] == 0.0
