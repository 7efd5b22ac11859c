"""Scenario runner: every module exposed as a reproducible experiment.

Each scenario consumes a seeded configuration and writes a trajectory or
sample-table CSV, a JSON report (the machine-readable source of truth), and
optionally an SVG line plot.  Identical (config, seed) pairs produce
byte-identical CSV and JSON; for that reason the ``elapsed_seconds`` field
inside the JSON file is pinned to 0.0 and the measured wall time is printed
to stdout instead.

Exit codes: 0 success, 1 invalid configuration, 2 numerical failure (see the
``flags`` array in the report), 3 I/O failure.
"""

import argparse
import cmath
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import calogero, double, facto, kepler
from .config import TOL
from .errors import DegintError, SingularChartPoint
from .integrate import FLAG_DIVISOR, monitor, rk4
from .matrixcore import traces_of_powers
from .poisson import (
    chart_canonical,
    chart_cm_loglinear,
    chart_heisenberg_double,
    chart_relativistic_loglinear,
    chart_sklyanin,
    coordinate,
    jacobi_defect,
    leibniz_defect,
)

SCENARIOS = {
    "kepler": "adaptive orbit; drifts of the momentum/Lenz/energy set",
    "cm-rational": "central flow on the cotangent pair; joint-invariant drifts",
    "ruijsenaars-rational": "rank-1 oracle sweep; closed forms vs dense solves",
    "relativistic-cm": "tr(x) flow on the pair chart; first-projection drifts",
    "relativistic-ruijsenaars": "rank-1 reduction and tr(y) flow; second-projection drifts",
    "factorization-flow": "exact flow vs bivector integration; conservation",
    "verify-brackets": "antisymmetry/Leibniz/Jacobi sweep over registered charts",
    "duality-check": "fiber transversality margins for both dualities",
}

_DEFAULTS = {
    "kepler": {"t_max": 2 * np.pi, "tol": 1e-10, "samples": 1},
    "cm-rational": {"n": 3, "t_max": 1.0, "samples": 8},
    "ruijsenaars-rational": {"n": 3, "samples": 50},
    "relativistic-cm": {"n": 2, "t_max": 0.5, "dt": 1e-3},
    "relativistic-ruijsenaars": {"n": 2, "t_max": 0.5, "dt": 1e-3, "samples": 10},
    "factorization-flow": {"n": 3, "t_max": 0.1, "dt": 1e-3},
    "verify-brackets": {"n": 3, "samples": 100},
    "duality-check": {"n": 2, "samples": 4},
}

# [lo, hi] of the n a scenario runs at, if not [1, 8]; never clamped.
_N_RANGE = {"cm-rational": (2, 8), "factorization-flow": (2, 8),
            "verify-brackets": (2, 8), "duality-check": (2, 8),
            # duality-moment-deviation reaches 9.8e-12 of its 1e-11 gate at n = 4
            "relativistic-cm": (1, 3)}

# Keys a JSON config file may set; the first nine are ScenarioConfig fields.
_FIELD_KEYS = ("n", "t_max", "dt", "tol", "seed", "samples",
               "out_csv", "out_json", "out_svg")
_CONFIG_KEYS = frozenset(_FIELD_KEYS + ("scenario", "kappa_re", "kappa_im",
                                        "q_re", "q_im"))


@dataclass
class ScenarioConfig:
    scenario: str
    n: int = 3
    kappa: complex = 0.3 + 0.0j
    q: complex = 1.3 + 0.0j
    t_max: float = 1.0
    dt: float = 1e-3
    tol: float = 1e-10
    seed: int = 0
    samples: int = 50
    out_csv: Optional[str] = None
    out_json: Optional[str] = None
    out_svg: Optional[str] = None

    def validate(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; choose from "
                + ", ".join(sorted(SCENARIOS)))
        for key in ("n", "seed", "samples"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        for key in ("t_max", "dt", "tol", "kappa", "q"):
            value = getattr(self, key)
            if (isinstance(value, bool) or not isinstance(value, (int, float, complex))
                    or not cmath.isfinite(value)):
                raise ValueError(f"{key} must be a finite number, got {value!r}")
        lo, hi = _N_RANGE.get(self.scenario, (1, 8))
        if not lo <= self.n <= hi:
            raise ValueError(
                f"n must be in [{lo}, {hi}] for {self.scenario}, got {self.n}")
        if self.t_max < 0:
            raise ValueError("t-max must be nonnegative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not (1e-13 <= self.tol <= 1e-6):
            raise ValueError("tol must lie in [1e-13, 1e-6]")
        if self.samples < 1:
            raise ValueError("samples must be positive")


@dataclass
class ScenarioResult:
    csv_header: list
    csv_rows: list
    drifts: list = field(default_factory=list)        # (name, max_abs, max_rel)
    residuals: list = field(default_factory=list)     # (name, value)
    flags: list = field(default_factory=list)
    parameters: dict = field(default_factory=dict)
    svg_series: dict = field(default_factory=dict)    # label -> (ts, values)


def _fmt(v: float) -> str:
    return f"{float(v):.17e}"


def _rng_for(cfg: ScenarioConfig, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(cfg.seed + index)


def _sl_sample(n, rng, spread=0.35):
    m = np.eye(n) + spread * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return m / np.linalg.det(m) ** (1.0 / n)


def _distinct_h(n, rng):
    while True:
        h = np.sort(rng.normal(size=n))
        h -= h.sum() / n                  # bit for bit h.mean() and np.diff(h), but cheaper
        if n == 1 or (h[1:] - h[:-1]).min() > 0.1:
            return h.astype(complex)


def _distinct_eigs(n, rng):
    while True:
        x = np.exp(rng.normal(size=n) * 0.4 + 1j * rng.normal(size=n) * 0.4)
        x /= np.prod(x) ** (1.0 / n)
        gaps = np.abs(x[:, None] - x[None, :])[np.triu_indices(n, 1)]
        if gaps.min(initial=np.inf) > 0.1:
            return x


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------

def _scenario_kepler(cfg: ScenarioConfig) -> ScenarioResult:
    rng = _rng_for(cfg)
    gamma = 1.0
    for _ in range(10000):
        p = rng.normal(size=3)
        q = rng.normal(size=3) * 1.2
        if np.linalg.norm(q) < 0.4:
            continue
        state = kepler.KeplerState(p=p, q=q, gamma=gamma)
        pt = kepler.project_to_p5(state)
        if pt.H >= -0.1:
            continue
        # perihelion distance (gamma - |A|) / (2|E|) away from collision
        r_min = (gamma - np.linalg.norm(pt.A)) / (2.0 * abs(pt.H))
        if r_min > 0.2 and gamma / (2.0 * abs(pt.H)) < 4.0:
            break
    else:
        raise DegintError("could not sample a well-separated bound orbit")

    chart = kepler.kepler_chart()
    obs = kepler.kepler_observables(gamma)
    traj = kepler.integrate_orbit(state, cfg.t_max, cfg.tol)
    control = coordinate(6, 3, "q1-control")
    report = monitor(traj, obs + [control])

    obs_values = np.real(report.values[:, :len(obs)])
    table = np.column_stack([traj.times, np.real(traj.states), obs_values])
    rows = [[_fmt(v) for v in row] for row in table.tolist()]
    header = (["t"] + [f"p{i}" for i in (1, 2, 3)] + [f"q{i}" for i in (1, 2, 3)]
              + [o.name for o in obs])

    stride = max(1, len(traj.states) // 50)
    q = np.real(traj.states[::stride, 3:])
    if np.any(np.linalg.norm(q, axis=-1) <= TOL.collision_radius):
        raise SingularChartPoint("state at the collision locus |q| = 0")
    sampled = obs_values[::stride]
    pz = kepler.P5Point(M=sampled[:, :3], A=sampled[:, 3:6], H=sampled[:, 6])
    ma_res = np.abs(np.vecdot(pz.M, pz.A)).max()
    quad_res = np.abs(
        np.vecdot(pz.A, pz.A) - gamma ** 2
        - kepler.QUADRATIC_RELATION_SIGN * 2.0 * np.vecdot(pz.M, pz.M) * pz.H).max()

    flags = list(report.flags)
    drifts = list(zip(report.names, report.max_abs_drift, report.max_rel_drift))
    conserved_drift = max(d for name, d, _ in drifts if name != "q1-control")
    if conserved_drift > TOL.orbit_drift:
        flags.append("tolerance-failure")
    svg = {o.name: (traj.times, obs_values[:, i]) for i, o in enumerate(obs[:3])}
    return ScenarioResult(
        csv_header=header, csv_rows=rows, drifts=drifts,
        residuals=[("orthogonality-(M,A)", ma_res),
                   ("quadratic-relation", quad_res)],
        flags=flags,
        parameters={"gamma": gamma, "energy": float(pt.H)},
        svg_series=svg)


def _scenario_cm_rational(cfg: ScenarioConfig) -> ScenarioResult:
    rng = _rng_for(cfg)
    n = cfg.n
    h = _distinct_h(n, rng)
    x = np.diag(h)
    g = _sl_sample(n, rng)
    kappa = cfg.kappa

    p = rng.normal(size=n)
    p -= p.mean()
    point = calogero.CMPoint(p=p, h=h, kappa=kappa)
    spin = calogero.SpinData.rank_one(phi=rng.uniform(0.5, 1.5, size=n), kappa=kappa)
    resum = abs(calogero.h_scm(point, spin, "trigonometric") - calogero.h_cm(
        calogero.CMPoint(p=p, h=h, kappa=kappa)))
    rank1_res = np.abs(spin.mu * spin.mu.T - kappa ** 2)[~np.eye(n, dtype=bool)].max()

    ts = np.linspace(0.0, cfg.t_max, cfg.samples + 1)
    ref = calogero.joint_invariants(x, g @ x @ np.linalg.inv(g), max_exp=3)
    devs, invs = [], []
    for t in ts:
        _, gt = calogero.cm_central_flow(x, g, calogero.quadratic_casimir_gradient, t)
        cur = calogero.joint_invariants(x, gt @ x @ np.linalg.inv(gt), max_exp=3)
        devs.append(np.abs(cur - ref).max())
        invs.append(cur[:2])
    # columns re(inv1), im(inv1), re(inv2), im(inv2)
    parts = np.stack([np.real(invs), np.imag(invs)], axis=-1).reshape(len(ts), 4)
    rows = [[_fmt(v) for v in row] for row in np.column_stack([ts, devs, parts]).tolist()]

    drift = max(devs)
    flags = []
    if drift > TOL.central_flow * max(1.0, np.abs(ref).max()):
        flags.append("tolerance-failure")
    return ScenarioResult(
        csv_header=["t", "joint-invariant-drift", "re(inv1)", "im(inv1)",
                    "re(inv2)", "im(inv2)"],
        csv_rows=rows,
        drifts=[("joint-invariants", drift, drift / max(1.0, np.abs(ref).max()))],
        residuals=[("spin-resummation", resum), ("rank1-product", rank1_res),
                   ("h-cm", calogero.h_cm(point))],
        flags=flags,
        parameters={"n": n, "kappa": [kappa.real, kappa.imag]},
        svg_series={"re(inv1)": (ts, parts[:, 0]), "re(inv2)": (ts, parts[:, 2])})


def _scenario_ruijsenaars_rational(cfg: ScenarioConfig) -> ScenarioResult:
    h = np.empty((cfg.samples, cfg.n), dtype=complex)
    u = np.empty_like(h)
    for i in range(cfg.samples):        # sample i draws h, then u, from seed + i + 1
        rng = _rng_for(cfg, i + 1)
        h[i] = _distinct_h(cfg.n, rng)
        u[i] = rng.normal(size=cfg.n) + 1j * rng.normal(size=cfg.n)
    columns = calogero.ruij_sweep(h, u, cfg.kappa)

    matched = columns["matched"].tolist()
    cells = [[str(i) for i in range(cfg.samples)]] + [
        matched if name == "matched" else [_fmt(v) for v in col.tolist()]
        for name, col in columns.items()]
    maxima = {name: float(columns[key].max()) for name, key in zip(
        ("oracle-residual", "closed-form-residual", "relation-residual",
         "tr-g-dual", "tr-g2-dual", "h-ruijsenaars-dual"),
        ("oracle-residual", "kappa-scaled-residual", "relation-residual",
         "tr-g-dual", "tr-g2-dual", "h-rR-dual"))}
    flags = [] if set(matched) == {"kappa-scaled"} else ["normalization-not-uniform"]
    if (maxima["oracle-residual"] > TOL.oracle_residual
            or max(maxima[k] for k in ("tr-g-dual", "tr-g2-dual", "h-ruijsenaars-dual"))
            > TOL.dual_path):
        flags.append("tolerance-failure")
    return ScenarioResult(
        csv_header=["sample"] + list(columns),
        csv_rows=list(zip(*cells)),
        residuals=sorted(maxima.items()),
        flags=flags,
        parameters={"n": cfg.n, "kappa": [cfg.kappa.real, cfg.kappa.imag],
                    "samples": cfg.samples, "matched": sorted(set(matched))})


def _flow_scenario(cfg: ScenarioConfig, family: str) -> ScenarioResult:
    rng = _rng_for(cfg)
    n = cfg.n
    pt = double.DoublePoint(x=_sl_sample(n, rng, 0.3), y=_sl_sample(n, rng, 0.3))
    block = "x" if family == "cm" else "y"
    H = double.trace_power_observable(n, block, 1)
    chart = chart_heisenberg_double(n)
    traj = rk4(chart, H, pt.as_point(), cfg.t_max, cfg.dt)
    observables = double.projection_invariants(n, family)
    report = monitor(traj, observables)

    stride = max(1, len(traj.times) // 200)
    times = traj.times[::stride]
    values = report.values[::stride]
    # columns re(o1), im(o1), re(o2), ... for every sampled state
    pairs = np.stack([np.real(values), np.imag(values)], axis=-1).reshape(len(times), -1)
    rows = [[_fmt(t)] + [_fmt(v) for v in row] for t, row in zip(times, pairs)]
    series = {o.name: (times, np.real(values[:, i])) for i, o in enumerate(observables[:2])}

    drifts = list(zip(report.names, report.max_abs_drift, report.max_rel_drift))
    flags = list(report.flags)
    if report.max_abs_drift.max() > TOL.projection_drift:
        flags.append("tolerance-failure")
    header = ["t"]
    for o in observables:
        header += [f"re({o.name})", f"im({o.name})"]
    return ScenarioResult(csv_header=header, csv_rows=rows, drifts=drifts,
                          flags=flags,
                          parameters={"n": n, "family": family,
                                      "hamiltonian": H.name},
                          svg_series=series)


def _scenario_relativistic_cm(cfg: ScenarioConfig) -> ScenarioResult:
    result = _flow_scenario(cfg, "cm")
    rng = _rng_for(cfg, 999)
    dev = 0.0
    for _ in range(100):
        pt = double.DoublePoint(x=_sl_sample(cfg.n, rng, 0.3), y=_sl_sample(cfg.n, rng, 0.3))
        dev = max(dev, float(np.abs(double.moment(double.duality_map(pt))
                                    - double.moment(pt)).max()))
    result.residuals.append(("duality-moment-deviation", dev))
    if dev > TOL.duality_exact * 10:
        result.flags.append("tolerance-failure")
    return result


def _scenario_relativistic_ruijsenaars(cfg: ScenarioConfig) -> ScenarioResult:
    result = _flow_scenario(cfg, "ruijsenaars")
    n = cfg.n
    mu_dev = red_corr = tr_res = h2_res = 0.0
    for i in range(cfg.samples):
        rng = _rng_for(cfg, 1000 + i)
        x = _distinct_eigs(n, rng)
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        red = double.rank_one_reduction(x, cfg.q, rng.normal(size=n) + 0.5)
        mu_dev = max(mu_dev, red.mu_eigenvalue_deviation)
        red_corr = max(red_corr, red.residual_corrected)
        ham = double.relativistic_hamiltonians(x, u, cfg.q)
        tr_res = max(tr_res, ham.residual_tr_y, ham.residual_tr_y2)
        h2_res = max(h2_res, ham.residual_h2)
    result.residuals += [
        ("mu-eigenvalue-deviation", mu_dev),
        ("psi-phi-corrected-residual", red_corr),
        ("trace-dual-path", tr_res),
        ("h2-dual-path", h2_res),
    ]
    if mu_dev > TOL.mu_eigenvalue or max(tr_res, h2_res) > TOL.dual_path:
        result.flags.append("tolerance-failure")
    result.parameters["q"] = [cfg.q.real, cfg.q.imag]
    result.parameters["samples"] = cfg.samples
    return result


def _scenario_factorization_flow(cfg: ScenarioConfig) -> ScenarioResult:
    rng = _rng_for(cfg)
    n = cfg.n
    x0 = _sl_sample(n, rng, 0.25)
    rows = []
    residuals = {}
    flags = []
    for k in (1, 2):
        H = facto.TracePower(k)
        try:
            exact = facto.factorization_flow(x0, H, cfg.t_max)
            ref = facto.sklyanin_reference_flow(x0, H, cfg.t_max, step=cfg.dt)
        except DegintError:
            flags.append(FLAG_DIVISOR)
            continue
        cross = float(np.abs(exact - ref).max())
        sweep = facto.flow_consistency_sweep(x0, H, [cfg.t_max / 2, cfg.t_max / 2])
        residuals[f"cross-check-{H.name}"] = cross
        residuals[f"semigroup-{H.name}"] = sweep.max_semigroup_residual
        residuals[f"trace-drift-{H.name}"] = sweep.max_trace_drift
        residuals[f"conjugation-{H.name}"] = float(sweep.conjugation_agreements.max())
        if (cross > TOL.flow_cross_check
                or sweep.max_semigroup_residual > TOL.semigroup
                or sweep.max_trace_drift > TOL.trace_conservation):
            flags.append("tolerance-failure")
        for t in np.linspace(0.0, cfg.t_max, 21):
            xt = facto.factorization_flow(x0, H, t)
            tr = traces_of_powers(xt, n)
            rows.append([str(k), _fmt(t)]
                        + [_fmt(v) for p in ((np.real(v), np.imag(v)) for v in tr)
                           for v in p])
    header = ["power", "t"]
    for j in range(1, n + 1):
        header += [f"re(tr x^{j})", f"im(tr x^{j})"]
    return ScenarioResult(csv_header=header, csv_rows=rows,
                          residuals=sorted(residuals.items()), flags=flags,
                          parameters={"n": n, "t": cfg.t_max, "step": cfg.dt})


def _bracket_suite_charts(n: int):
    return [
        chart_canonical(3),
        chart_cm_loglinear(n),
        chart_relativistic_loglinear(n),
        chart_heisenberg_double(2),
        chart_sklyanin(2),
        chart_sklyanin(3),
    ]


def _chart_point(chart, rng):
    name = chart.name
    if name.startswith("canonical") or name.startswith("cm-loglinear"):
        return rng.normal(size=chart.dim).astype(complex)
    if name.startswith("relativistic"):
        return (rng.uniform(0.5, 2.0, size=chart.dim)
                * np.exp(1j * rng.uniform(-0.3, 0.3, size=chart.dim)))
    if name.startswith("heisenberg"):
        n = int(round(np.sqrt(chart.dim / 2)))
        return np.concatenate([_sl_sample(n, rng, 0.3).ravel(),
                               _sl_sample(n, rng, 0.3).ravel()])
    n = int(round(np.sqrt(chart.dim)))
    return _sl_sample(n, rng, 0.3).ravel()


def _chart_defects(chart, cfg, i):
    rng = _rng_for(cfg, i + 1)
    z = _chart_point(chart, rng)
    P = chart.pi(z)
    antisym = float(np.abs(P + P.T).max() / max(1.0, np.abs(P).max()))
    idx = rng.choice(chart.dim, size=3, replace=False)
    f, g, h = (coordinate(chart.dim, int(j)) for j in idx)
    jac = abs(jacobi_defect(chart, f, g, h, z))
    lei = abs(leibniz_defect(chart, f, g, h, z))
    return i, antisym, jac, lei


def _scenario_verify_brackets(cfg: ScenarioConfig) -> ScenarioResult:
    rows = []
    residuals = []
    flags = []
    for chart in _bracket_suite_charts(cfg.n):
        out = [_chart_defects(chart, cfg, i) for i in range(cfg.samples)]
        worst = (max(r[1] for r in out), max(r[2] for r in out),
                 max(r[3] for r in out))
        for i, a, j, l in out:
            rows.append([chart.name, str(i), _fmt(a), _fmt(j), _fmt(l)])
        residuals += [(f"antisymmetry:{chart.name}", worst[0]),
                      (f"jacobi:{chart.name}", worst[1]),
                      (f"leibniz:{chart.name}", worst[2])]
        if (worst[0] > TOL.antisymmetry or worst[1] > TOL.jacobi
                or worst[2] > TOL.leibniz):
            flags.append("tolerance-failure")
    return ScenarioResult(
        csv_header=["chart", "point", "antisymmetry", "jacobi", "leibniz"],
        csv_rows=rows, residuals=residuals, flags=flags,
        parameters={"n": cfg.n, "samples": cfg.samples})


def _scenario_duality_check(cfg: ScenarioConfig) -> ScenarioResult:
    rng = _rng_for(cfg)
    n = cfg.n
    h = _distinct_h(n, rng)
    gamma = _sl_sample(n, rng, 0.4)
    rep1 = calogero.duality_fiber_check(np.diag(h), gamma, samples=cfg.samples,
                                        rng=_rng_for(cfg, 1))
    pt = double.DoublePoint(x=np.diag(_distinct_eigs(n, rng)),
                            y=_sl_sample(n, rng, 0.35))
    rep2 = double.fiber_check(pt, samples=cfg.samples, rng=_rng_for(cfg, 2))

    rows = []
    for (tag, rep) in (("rational", rep1), ("relativistic", rep2)):
        rows += [[tag, str(i), str(j), _fmt(m)] for (i, j), m in np.ndenumerate(rep.margins)]
    flags = []
    for tag, rep in (("rational", rep1), ("relativistic", rep2)):
        if not rep.all_separated:
            flags.append(f"inconclusive-separation:{tag}")
    return ScenarioResult(
        csv_header=["system", "first-fiber-sample", "second-fiber-sample", "margin"],
        csv_rows=rows,
        residuals=[("rational-min-margin", float(rep1.margins.min())),
                   ("rational-coincident", rep1.coincident_margin),
                   ("relativistic-min-margin", float(rep2.margins.min())),
                   ("relativistic-coincident", rep2.coincident_margin)],
        flags=flags,
        parameters={"n": n, "samples": cfg.samples})


_RUNNERS = {
    "kepler": _scenario_kepler,
    "cm-rational": _scenario_cm_rational,
    "ruijsenaars-rational": _scenario_ruijsenaars_rational,
    "relativistic-cm": _scenario_relativistic_cm,
    "relativistic-ruijsenaars": _scenario_relativistic_ruijsenaars,
    "factorization-flow": _scenario_factorization_flow,
    "verify-brackets": _scenario_verify_brackets,
    "duality-check": _scenario_duality_check,
}


# ----------------------------------------------------------------------
# output writers
# ----------------------------------------------------------------------

def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")

# A value range no wider than this times max(1, |v0|, |v1|) is roundoff and
# is drawn flat, not stretched to the full plot height.
_SVG_FLAT_RANGE = 1e-12


def _write_svg(path, series):
    """Minimal deterministic polyline plot; no external dependencies."""
    width, height, pad = 640, 400, 45
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    all_t = [t for ts, _ in series.values() for t in ts]
    all_v = [v for _, vs in series.values() for v in vs]
    if all_t and all_v:
        t0, t1 = min(all_t), max(all_t)
        v0, v1 = min(all_v), max(all_v)
        t1 = t1 if t1 > t0 else t0 + 1.0
        if v1 - v0 <= _SVG_FLAT_RANGE * max(1.0, abs(v0), abs(v1)):
            v1 = v0 + 1.0

        def sx(t):
            return pad + (width - 2 * pad) * (t - t0) / (t1 - t0)

        def sy(v):
            return height - pad - (height - 2 * pad) * (v - v0) / (v1 - v0)

        lines.append(f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
                     f'y2="{height - pad}" stroke="black"/>')
        lines.append(f'<line x1="{pad}" y1="{pad}" x2="{pad}" '
                     f'y2="{height - pad}" stroke="black"/>')
        for idx, (label, (ts, vs)) in enumerate(sorted(series.items())):
            color = _SVG_COLORS[idx % len(_SVG_COLORS)]
            pts = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(ts, vs))
            lines.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
            lines.append(f'<text x="{pad + 8}" y="{pad + 16 + 14 * idx}" '
                         f'fill="{color}" font-size="12">{label}</text>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run(config: ScenarioConfig) -> int:
    """Execute one scenario and write its outputs.  Returns the exit code."""
    try:
        config.validate()
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1

    start = time.perf_counter()
    try:
        result = _RUNNERS[config.scenario](config)
    except DegintError as exc:
        # still emit a report so the failure is machine readable
        result = ScenarioResult(csv_header=["error"], csv_rows=[],
                                flags=[f"numerical-failure:{type(exc).__name__}"])
        print(f"numerical failure: {exc}", file=sys.stderr)
    elapsed = time.perf_counter() - start

    payload = {
        "scenario": config.scenario,
        "seed": config.seed,
        "parameters": {
            **result.parameters,
            "t_max": config.t_max, "dt": config.dt, "tol": config.tol,
        },
        "drifts": [{"name": n, "max_abs": float(a), "max_rel": float(r)}
                   for n, a, r in result.drifts],
        "oracle_residuals": [{"name": n, "value": float(v)}
                             for n, v in result.residuals],
        "flags": sorted(set(result.flags)),
        # pinned for byte-identical reruns; the measured time goes to stdout
        "elapsed_seconds": 0.0,
    }
    try:
        if config.out_csv:
            _write_csv(config.out_csv, result.csv_header, result.csv_rows)
        if config.out_json:
            _write_json(config.out_json, payload)
        if config.out_svg:
            _write_svg(config.out_svg, result.svg_series)
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 3

    print(f"{config.scenario}: flags={payload['flags']} "
          f"elapsed={elapsed:.2f}s")
    for item in payload["drifts"]:
        print(f"  drift {item['name']}: {item['max_abs']:.3e}")
    for item in payload["oracle_residuals"]:
        print(f"  residual {item['name']}: {item['value']:.3e}")
    failed = any("failure" in f or f.startswith("inconclusive")
                 for f in payload["flags"])
    return 2 if failed else 0


def list_scenarios() -> str:
    """One line per scenario: name and description."""
    return "\n".join(f"{name}: {desc}" for name, desc in sorted(SCENARIOS.items()))


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="degint",
        description="Reproducible experiments on degenerately integrable systems.")
    p.add_argument("--scenario", help="scenario name (see --list-scenarios)")
    p.add_argument("--list-scenarios", action="store_true",
                   help="print available scenarios and exit")
    p.add_argument("--n", type=int, help="matrix size / particle number")
    p.add_argument("--kappa-re", type=float, help="Re kappa (rational coupling)")
    p.add_argument("--kappa-im", type=float, help="Im kappa")
    p.add_argument("--q-re", type=float, help="Re q (relativistic parameter)")
    p.add_argument("--q-im", type=float, help="Im q")
    p.add_argument("--t-max", type=float, help="integration horizon")
    p.add_argument("--dt", type=float, help="fixed step size")
    p.add_argument("--tol", type=float, help="adaptive tolerance")
    p.add_argument("--seed", type=int, help="seed; fully determines sampling")
    p.add_argument("--samples", type=int, help="number of seeded draws")
    p.add_argument("--out-csv", help="trajectory / sample table output path")
    p.add_argument("--out-json", help="JSON report output path")
    p.add_argument("--out-svg", help="optional SVG line plot output path")
    p.add_argument("--config", help="JSON config file; flags override its values")
    return p


def _config_from_args(args) -> ScenarioConfig:
    values = {}
    if args.config:
        with open(args.config) as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError("a config file must hold a JSON object")
        unknown = sorted(set(values) - _CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; "
                             f"choose from {sorted(_CONFIG_KEYS)}")
        for key in ("scenario", "out_csv", "out_json", "out_svg"):
            if not isinstance(values.get(key, ""), str):
                raise ValueError(f"{key} must be a string")
    if args.scenario:
        values["scenario"] = args.scenario
    if "scenario" not in values:
        raise ValueError("a scenario is required (--scenario or config file)")

    scenario = values["scenario"]
    defaults = _DEFAULTS.get(scenario, {})
    cfg = ScenarioConfig(scenario=scenario)
    for key, val in defaults.items():
        setattr(cfg, key, val)

    for key in _FIELD_KEYS:
        if key in values:
            setattr(cfg, key, values[key])
        arg = getattr(args, key, None)
        if arg is not None:
            setattr(cfg, key, arg)

    def part(key, current):
        arg = getattr(args, key, None)
        value = arg if arg is not None else values.get(key, current)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{key} must be a number, got {value!r}")
        return value

    def complex_from(prefix, current):
        return complex(part(f"{prefix}_re", current.real),
                       part(f"{prefix}_im", current.imag))

    cfg.kappa = complex_from("kappa", cfg.kappa)
    cfg.q = complex_from("q", cfg.q)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_scenarios:
        print(list_scenarios())
        return 0
    try:
        cfg = _config_from_args(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
