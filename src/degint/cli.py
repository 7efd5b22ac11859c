"""Scenario runner: every module exposed as a reproducible experiment.

Each scenario consumes a seeded configuration and writes a trajectory or
sample-table CSV, a JSON report (the machine-readable source of truth), and
optionally an SVG line plot.  Identical (config, seed) pairs produce
byte-identical CSV and JSON; for that reason the ``elapsed_seconds`` field
inside the JSON file is pinned to 0.0 and the measured wall time is printed
to stdout instead.

Exit codes: 0 success, 1 invalid configuration, 2 any flag in the report's
``flags`` array, 3 I/O failure.
"""

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import calogero, double, facto, kepler
from .config import TOL
from .errors import DegintError, DrawBudgetExceeded, FactorizationNotDefined
from .integrate import FLAG_DIVISOR, FLAG_TOLERANCE, monitor, rk4
from .matrixcore import _eig_gap, _unimodular, _unimodular_eigs, trace_words
from .poisson import (
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


# The ``ScenarioConfig`` fields that are options, each taken by some scenarios.
_OPTIONS = ("n", "kappa", "q", "t_max", "dt", "tol", "samples")

# The values an option takes, by the type of its default, and their name.
_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a finite real number"),
          complex: ((int, float, complex), "a finite number")}

# The most steps a fixed-step run may take; the defaults take at most 500.
_STEP_BUDGET = 100_000


@dataclass
class ScenarioConfig:
    """One run's settings: the scenario, its options, the seed and the output
    paths.  An option left unset (None) takes its default from ``_SCENARIOS``;
    ``validate`` rejects one set that the scenario does not take."""

    scenario: str
    n: Optional[int] = None
    kappa: Optional[complex] = None
    q: Optional[complex] = None
    t_max: Optional[float] = None
    dt: Optional[float] = None
    tol: Optional[float] = None
    seed: int = 0
    samples: Optional[int] = None
    out_csv: Optional[str] = None
    out_json: Optional[str] = None
    out_svg: Optional[str] = None

    def __post_init__(self):
        spec = _SCENARIOS.get(self.scenario)
        for key, default in spec.options.items() if spec else ():
            if getattr(self, key) is None:
                setattr(self, key, default)

    def validate(self):
        if self.scenario not in _SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; choose from "
                + ", ".join(sorted(_SCENARIOS)))
        spec = _SCENARIOS[self.scenario]
        extra = [key for key in _OPTIONS if getattr(self, key) is not None
                 and key not in spec.options]
        if extra:
            raise ValueError(_not_taken(self.scenario, extra))
        lo, hi = spec.n_range
        limits = {"n": (lambda n: lo <= n <= hi,
                        f"n must be in [{lo}, {hi}] for {self.scenario}, got {self.n}"),
                  "t_max": (lambda t: t >= 0, "t-max must be nonnegative"),
                  "dt": (lambda dt: dt > 0, "dt must be positive"),
                  "tol": (lambda tol: 1e-13 <= tol <= 2e-10, "tol must lie in [1e-13, 2e-10]"),
                  "samples": (lambda m: m >= 1, "samples must be positive"),
                  "q": (lambda q: q != 0, "q must be nonzero"),
                  "seed": (lambda seed: seed >= 0, "seed must be nonnegative")}
        for key, default in {"seed": 0, **spec.options}.items():
            value, (kinds, kind) = getattr(self, key), _KINDS[type(default)]
            # both parts of a real or complex option lie in the float range; NaN does not
            if isinstance(value, bool) or not isinstance(value, kinds) or kinds != (int,) and not (
                    abs(value.real) <= sys.float_info.max >= abs(value.imag)):
                raise ValueError(f"{key} must be {kind}, got {value!r}")
            if key in limits and not limits[key][0](value):
                raise ValueError(limits[key][1])
        for key in ("out_csv", "out_json", "out_svg"):
            if not isinstance(getattr(self, key), (type(None), str, os.PathLike)):
                raise ValueError(f"{key} must be a path, got {getattr(self, key)!r}")
        # budget * dt, unlike t_max / dt, cannot overflow
        if "dt" in spec.options and self.t_max > _STEP_BUDGET * self.dt:
            raise ValueError(f"t-max / dt must not exceed the budget of {_STEP_BUDGET} "
                             f"fixed steps, got t-max {self.t_max:g} and dt {self.dt:g}")


@dataclass
class ScenarioResult:
    columns: dict                                     # CSV column name -> values
    drifts: list = field(default_factory=list)        # (name, max_abs, max_rel, cap)
    residuals: list = field(default_factory=list)     # (name, value, cap)
    flags: list = field(default_factory=list)
    parameters: dict = field(default_factory=dict)
    svg_series: dict = field(default_factory=dict)    # label -> (ts, values)
    metrics: dict = field(default_factory=dict)       # deterministic work counters


def _integrator_metrics(trajectories) -> dict:
    """The integrator's work over a report's runs, summed."""
    return {"accepted_steps": sum(t.accepted_steps for t in trajectories),
            "rejected_steps": sum(t.rejected_steps for t in trajectories),
            "field_evaluations": sum(t.field_evaluations for t in trajectories)}


def _rng_for(cfg: ScenarioConfig, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(cfg.seed + index)


def _sl_matrices(draws, spread):
    """1 + spread (re + i im) scaled to det 1, from normal draws stacked as
    (..., 2, n, n) with (re, im) on the axis before the matrices."""
    m = spread * (draws[..., 0, :, :] + 1j * draws[..., 1, :, :])
    return _unimodular(np.eye(draws.shape[-1]) + m)


# Candidates a draw may test per wanted sample.  The lowest pass rate is
# kepler's orbit test, about 14%, so a one-sample draw reaches the budget
# with probability 0.86^1000 < 1e-64, and a larger draw is less likely still.
_DRAW_BUDGET = 1000


def _first_passing(rng, count, shape, passes):
    """The first ``count`` candidates that ``passes`` accepts, (count, *shape),
    and the samples ``passes`` formed of them.  A candidate is one ``shape``
    block of normals from ``rng``; ``passes`` maps stacked candidates to
    whether each passes and the sample it judged.  Each round draws
    max(need, 8) candidates, ``need`` being how many are still missing.  A
    round that draws more than ``need`` first saves ``rng``'s state; if
    ``need`` of its candidates pass before its last, it restores that state
    and redraws the candidates up to the ``need``-th pass.  So the result,
    and ``rng``'s state after it, are those of drawing one candidate at a
    time until ``count`` pass.  A draw that has tested ``_DRAW_BUDGET``
    candidates per wanted sample and still lacks some raises
    ``DrawBudgetExceeded``."""
    kept, values, need, tested = [], [], count, 0
    while need:
        if tested >= _DRAW_BUDGET * count:
            raise DrawBudgetExceeded(f"{count - need} of {count} samples passed "
                                     f"in {tested} candidates")
        size = max(need, 8)
        tested += size
        state = rng.bit_generator.state if size > need else None
        drawn = rng.normal(size=(size, *shape))
        ok, judged = passes(drawn)
        hits = np.flatnonzero(ok)[:need]
        if len(hits) == need and hits[-1] + 1 < size:
            rng.bit_generator.state = state
            rng.normal(size=(hits[-1] + 1, *shape))
        kept.append(drawn[hits])
        values.append(judged[hits])
        need -= len(hits)
    return np.concatenate(kept), np.concatenate(values)


def _gapped_h(candidates):
    """Each stacked candidate's first row sorted and centred, as complex h, and
    whether its closest pair lies more than 0.1 apart (always, for n = 1)."""
    h = np.sort(candidates[..., 0, :], axis=-1)
    h -= h.sum(axis=-1, keepdims=True) / h.shape[-1]   # bit for bit h.mean(), but cheaper
    return (h[..., 1:] - h[..., :-1]).min(axis=-1, initial=np.inf) > 0.1, h.astype(complex)


def _rank1_draws(cfg):
    """The (samples, n) arrays h and u of ``ruijsenaars-rational``, from
    generator seed + 1: each sample is the first candidate of three rows
    that passes ``_gapped_h``, with h from its first row and
    u = row + 1j * row."""
    rows, h = _first_passing(_rng_for(cfg, 1), cfg.samples, (3, cfg.n), _gapped_h)
    return h, rows[:, 1] + 1j * rows[:, 2]


def _gapped_x(candidates):
    """The x of each stacked candidate's first two rows (re, im), and whether
    its eigenvalues lie more than 0.1 apart."""
    x = _unimodular_eigs(candidates[..., 0, :], candidates[..., 1, :], 0.4)
    return _eig_gap(x) > 0.1, x


def _relativistic_draws(cfg):
    """The (samples, n) arrays x, u and y_diag of ``relativistic-ruijsenaars``,
    from generator seed + 1000: each sample is the first candidate of five
    rows that passes ``_gapped_x``, with x from its first two rows, then
    u = row + 1j * row and y_diag = row + 0.5."""
    rows, x = _first_passing(_rng_for(cfg, 1000), cfg.samples, (5, cfg.n), _gapped_x)
    return x, rows[:, 2] + 1j * rows[:, 3], rows[:, 4] + 0.5


def _orbit_passes(candidates, gamma):
    """The (p, q) of each stacked Kepler candidate (p, q / 1.2), and whether, at
    coupling gamma, |q| >= 0.4, E < -0.1, the perihelion (gamma - |A|) / (2|E|)
    lies beyond 0.2, away from collision, and the semi-major axis gamma / (2|E|) below 4."""
    pq = candidates * [[1.0], [1.2]]
    p, q = pq[:, 0], pq[:, 1]
    r = kepler._radius(q)
    energy = 0.5 * np.vecdot(p, p) - gamma / r
    return ((r >= 0.4) & (energy < -0.1)
            & ((gamma - kepler._radius(kepler._lenz(p, q, gamma))) / (2.0 * abs(energy)) > 0.2)
            & (gamma / (2.0 * abs(energy)) < 4.0)), pq


def _flow_report(traj, capped, plotted, rows=None):
    """One ``monitor`` call on ``traj`` over the (observable, cap) pairs
    ``capped``: the drifts, each with its cap; the flags; the integrator
    metrics; and, at every max(1, states // rows)-th state (every state
    without ``rows``), the ``t`` column, the first ``plotted`` real parts
    as SVG series and, returned beside the result, the values."""
    observables, caps = zip(*capped)
    report = monitor(traj, observables)
    stride = max(1, len(traj.times) // rows) if rows else 1
    times, values = traj.times[::stride], report.values[::stride]
    return ScenarioResult(
        columns={"t": times},
        drifts=list(zip(report.names, report.max_abs_drift, report.max_rel_drift, caps)),
        flags=list(report.flags),
        svg_series={o.name: (times, values[:, i].real)
                    for i, o in enumerate(observables[:plotted])},
        metrics=_integrator_metrics([traj])), values


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------

def _scenario_kepler(cfg: ScenarioConfig) -> ScenarioResult:
    gamma = 1.0
    p, q = _first_passing(_rng_for(cfg), 1, (2, 3), lambda c: _orbit_passes(c, gamma))[1][0]
    obs = kepler.kepler_observables(gamma)
    traj = kepler.integrate_orbit(kepler.KeplerState(p=p, q=q, gamma=gamma),
                                  cfg.t_max, cfg.tol)
    result, values = _flow_report(traj, [(o, TOL.orbit_drift) for o in obs]
                                  + [(coordinate(6, 3, "q1-control"), None)], plotted=3)
    values = values[:, :len(obs)].real
    labels = [f"{c}{i}" for c in "pq" for i in (1, 2, 3)] + [o.name for o in obs]
    result.columns.update(zip(labels, np.column_stack([traj.states.real, values]).T))

    sampled = values[::max(1, len(traj.states) // 50)]
    M, A, H = sampled[:, :3], sampled[:, 3:6], sampled[:, 6]
    # Both relations hold at every state, so each value is roundoff: on these
    # bound orbits |A|^2 and 2 |M|^2 |H| are at most gamma^2
    cap = TOL.kepler_relation * np.finfo(float).eps * gamma ** 2
    result.residuals = [
        ("orthogonality-(M,A)", np.abs(np.vecdot(M, A)).max(), cap),
        ("quadratic-relation", np.abs(np.vecdot(A, A) - gamma ** 2 - kepler.QUADRATIC_RELATION_SIGN
                                      * 2.0 * np.vecdot(M, M) * H).max(), cap)]
    result.parameters = {"gamma": gamma, "energy": float(values[0, 6])}
    return result


def _scenario_cm_rational(cfg: ScenarioConfig) -> ScenarioResult:
    rng = _rng_for(cfg)
    n = cfg.n
    h = _first_passing(rng, 1, (1, n), _gapped_h)[1][0]
    x = np.diag(h)
    g = _sl_matrices(rng.normal(size=(2, n, n)), 0.35)
    kappa = cfg.kappa

    p = rng.normal(size=n)
    p -= p.mean()
    mu = calogero.rank_one_spin(rng.uniform(0.5, 1.5, size=n), kappa)
    h_scm, h_cm = calogero.h_scm(p, h, mu), calogero.h_cm(p, h, kappa)
    resum = abs(h_scm - h_cm)
    rank1_res = np.abs(mu * mu.T - kappa * kappa)[~np.eye(n, dtype=bool)].max()

    ts = np.linspace(0.0, cfg.t_max, cfg.samples + 1)
    # g x g^-1 at every t, in one stack; the reference is t = 0, where exp(0) g = g
    gs = np.stack([calogero.cm_central_flow(x, g, t) for t in ts])
    conj = gs @ x @ np.linalg.inv(gs)
    table = calogero.joint_invariants(np.broadcast_to(x, conj.shape), conj, 3)
    devs = np.abs(table - table[0]).max(axis=1)
    drift, scale = devs.max(), max(1.0, np.abs(table[0]).max())
    return ScenarioResult(
        columns={"t": ts, "joint-invariant-drift": devs,
                 "inv1": table[:, 0], "inv2": table[:, 1]},
        drifts=[("joint-invariants", drift, drift / scale, TOL.central_flow * scale)],
        residuals=[("spin-resummation", resum, None), ("rank1-product", rank1_res, None)],
        parameters={"h-cm": h_cm},
        svg_series={"re(inv1)": (ts, table[:, 0].real), "re(inv2)": (ts, table[:, 1].real)})


def _scenario_ruijsenaars_rational(cfg: ScenarioConfig) -> ScenarioResult:
    columns = calogero.ruij_sweep(*_rank1_draws(cfg), cfg.kappa)
    # oracle-residual is uncapped: _cauchy_solve raises past TOL.oracle_residual
    caps = {"oracle-residual": None, "closed-form-residual": TOL.formula_match,
            "tr-g-dual": TOL.dual_path, "tr-g2-dual": TOL.dual_path,
            "h-ruijsenaars-dual": TOL.dual_path, "relation-residual": None}
    return ScenarioResult(
        columns={"sample": np.arange(cfg.samples), **columns},
        # bare-residual, the miss of the other normalization, is a column only
        residuals=sorted((name, float(columns[name].max()), cap) for name, cap in caps.items()))


def _flow_scenario(cfg: ScenarioConfig, family: str) -> ScenarioResult:
    rng = _rng_for(cfg)
    n = cfg.n
    # unimodular by _sl_matrices' scaling, so the pair needs no det check
    z0 = _sl_matrices(rng.normal(size=(2, 2, n, n)), 0.3).ravel()
    H = trace_power(n, 1, 0 if family == "cm" else 1, 2)
    chart = chart_heisenberg_double(n)
    traj = rk4(chart, H, z0, cfg.t_max, cfg.dt)
    observables = double.projection_invariants(n, family)
    result, values = _flow_report(traj, [(o, TOL.projection_drift) for o in observables],
                                  plotted=2, rows=200)
    result.columns.update((o.name, values[:, i]) for i, o in enumerate(observables))
    result.parameters = {"family": family, "hamiltonian": H.name}
    return result


def _scenario_relativistic_cm(cfg: ScenarioConfig) -> ScenarioResult:
    result = _flow_scenario(cfg, "cm")
    # 100 pairs (x, y), each drawn as _flow_scenario draws its pair
    n = cfg.n
    x, y = np.moveaxis(_sl_matrices(_rng_for(cfg, 999).normal(size=(100, 2, 2, n, n)), 0.3),
                       1, 0)
    dev = float(np.abs(double.moment(*double.duality_map(x, y)) - double.moment(x, y)).max())
    result.residuals.append(("duality-moment-deviation", dev, TOL.duality_exact * 10))
    return result


def _scenario_relativistic_ruijsenaars(cfg: ScenarioConfig) -> ScenarioResult:
    result = _flow_scenario(cfg, "ruijsenaars")
    caps = {"mu-eigenvalue-deviation": TOL.mu_eigenvalue,
            "psi-phi-corrected-residual": TOL.formula_match,
            "trace-dual-path": TOL.dual_path, "h2-dual-path": TOL.dual_path}
    result.residuals += [(name, float(column.max()), caps[name]) for name, column in
                         double.rank_one_samples(*_relativistic_draws(cfg), cfg.q).items()]
    return result


def _scenario_factorization_flow(cfg: ScenarioConfig) -> ScenarioResult:
    rng = _rng_for(cfg)
    n = cfg.n
    x0 = _sl_matrices(rng.normal(size=(2, n, n)), 0.25)
    powers, traces, residuals, flags, runs = [], [], [], [], []
    ts = np.linspace(0.0, cfg.t_max, 21)
    caps = {"semigroup": TOL.semigroup, "trace-drift": TOL.trace_conservation,
            "conjugation": None}
    for k in (1, 2):
        H = facto.TracePower(k)
        try:
            # xi serves every trace row; the t_max row is the exact flow cross-checked
            xi = facto.left_differential(H, x0)
            xts = np.stack([facto._conjugations(x0, xi, t)[0] for t in ts])
            runs.append(facto.sklyanin_reference_flow(x0, H, cfg.t_max, cfg.dt))
        except FactorizationNotDefined:
            flags.append(FLAG_DIVISOR)
            continue
        cross = float(np.abs(xts[-1] - runs[-1].final.reshape(n, n)).max())
        sweep = facto.flow_consistency_sweep(x0, H, [cfg.t_max / 2])
        residuals += [(f"cross-check-{H.name}", cross, TOL.flow_cross_check)] + [
            (f"{check}-{H.name}", float(column.max()), caps[check])
            for check, column in sweep.items()]
        powers.append(k)
        traces.append(trace_words(xts, xts, [(j, 0, 0, 0) for j in range(1, n + 1)]))
    traces = np.array(traces, dtype=complex).reshape(-1, n)
    return ScenarioResult(
        columns={"power": np.repeat(powers, len(ts)), "t": np.tile(ts, len(powers)),
                 **{f"tr x^{j}": traces[:, j - 1] for j in range(1, n + 1)}},
        residuals=sorted(residuals), flags=flags,
        metrics=_integrator_metrics(runs))


def _bracket_suite_charts(n: int):
    """(chart, point sampler) pairs of the ``verify-brackets`` sweep: the
    Kepler chart ``canonical(3)`` and the other four charts at ``n``."""
    def normal(dim):
        return lambda rng: rng.normal(size=dim).astype(complex)

    def group(m, blocks=1):             # unimodular m x m blocks, raveled and joined
        return lambda rng: _sl_matrices(rng.normal(size=(blocks, 2, m, m)), 0.3).ravel()

    return [
        (chart_canonical(3), normal(6)),
        (chart_cm_loglinear(n), normal(2 * n)),
        (chart_relativistic_loglinear(n), lambda rng: rng.uniform(0.5, 2.0, size=2 * n)
         * np.exp(1j * rng.uniform(-0.3, 0.3, size=2 * n))),
        (chart_heisenberg_double(n), group(n, blocks=2)),
        (chart_sklyanin(n), group(n)),
    ]


def _chart_defects(chart, sample, cfg, i):
    rng = _rng_for(cfg, i + 1)
    z = sample(rng)
    P = chart.pi(z)
    antisym = float(np.abs(P + P.T).max() / max(1.0, np.abs(P).max()))
    idx = rng.choice(chart.dim, size=3, replace=False)
    f, g, h = (coordinate(chart.dim, int(j)) for j in idx)
    return antisym, abs(jacobi_defect(chart, f, g, h, z)), abs(leibniz_defect(chart, f, g, h, z))


def _scenario_verify_brackets(cfg: ScenarioConfig) -> ScenarioResult:
    charts = _bracket_suite_charts(cfg.n)
    names = [chart.name for chart, _ in charts]
    caps = {"antisymmetry": TOL.antisymmetry, "jacobi": TOL.jacobi, "leibniz": TOL.leibniz}
    # (charts, samples, defects), the defects in the order of caps
    defects = np.array([[_chart_defects(chart, sample, cfg, i) for i in range(cfg.samples)]
                        for chart, sample in charts])
    return ScenarioResult(
        columns={"chart": np.repeat(names, cfg.samples),
                 "point": np.tile(np.arange(cfg.samples), len(charts)),
                 **{check: defects[..., k].ravel() for k, check in enumerate(caps)}},
        residuals=[(f"{check}:{name}", value, cap) for name, row in zip(names, defects.max(axis=1))
                   for (check, cap), value in zip(caps.items(), row)],
        parameters={"charts": names})


def _scenario_duality_check(cfg: ScenarioConfig) -> ScenarioResult:
    rng = _rng_for(cfg)
    n = cfg.n
    h = _first_passing(rng, 1, (1, n), _gapped_h)[1][0]
    gamma = _sl_matrices(rng.normal(size=(2, n, n)), 0.4)
    x = np.diag(_first_passing(rng, 1, (2, n), _gapped_x)[1][0])
    y = _sl_matrices(rng.normal(size=(2, n, n)), 0.35)
    margins = {"rational": calogero.duality_fiber_check(np.diag(h), gamma, cfg.samples,
                                                        _rng_for(cfg, 1)),
               "relativistic": double.fiber_check(x, y, cfg.samples, _rng_for(cfg, 2))}
    cells = [(tag, i, j, m) for tag, table in margins.items()
             for (i, j), m in np.ndenumerate(table)]
    return ScenarioResult(
        columns=dict(zip(("system", "first-fiber-sample", "second-fiber-sample", "margin"),
                         map(np.array, zip(*cells)))),
        residuals=[(f"{tag}-min-margin", float(table.min()), None)
                   for tag, table in margins.items()],
        # a pair of samples within the margin is inconclusive (NaN included)
        flags=[f"inconclusive-separation:{tag}" for tag, table in margins.items()
               if not (table > TOL.separation_margin).all()])


@dataclass(frozen=True)
class _Scenario:
    """A scenario's runner and description, the options it reads with their
    defaults, and the [lo, hi] of the n it runs at (never clamped)."""

    run: Callable[[ScenarioConfig], ScenarioResult]
    description: str
    options: dict
    n_range: tuple = (1, 8)


_SCENARIOS = {
    "kepler": _Scenario(
        _scenario_kepler, "adaptive orbit; drifts of the momentum/Lenz/energy set",
        {"t_max": 2 * np.pi, "tol": 1e-10}),
    "cm-rational": _Scenario(
        _scenario_cm_rational, "central flow on the cotangent pair; joint-invariant drifts",
        {"n": 3, "t_max": 1.0, "samples": 8, "kappa": 0.3 + 0.0j}, (2, 8)),
    "ruijsenaars-rational": _Scenario(
        _scenario_ruijsenaars_rational, "rank-1 oracle sweep; closed forms vs dense solves",
        {"n": 3, "samples": 50, "kappa": 0.3 + 0.0j}),
    "relativistic-cm": _Scenario(
        _scenario_relativistic_cm, "tr(x) flow on the pair chart; first-projection drifts",
        {"n": 2, "t_max": 0.5, "dt": 1e-3},
        # duality-moment-deviation reaches 9.8e-12 of its 1e-11 gate at n = 4
        (1, 3)),
    "relativistic-ruijsenaars": _Scenario(
        _scenario_relativistic_ruijsenaars,
        "rank-1 reduction and tr(y) flow; second-projection drifts",
        {"n": 2, "t_max": 0.5, "dt": 1e-3, "samples": 10, "q": 1.3 + 0.0j}),
    "factorization-flow": _Scenario(
        _scenario_factorization_flow, "exact flow vs bivector integration; conservation",
        {"n": 3, "t_max": 0.1, "dt": 1e-3}, (2, 8)),
    "verify-brackets": _Scenario(
        _scenario_verify_brackets, "antisymmetry/Leibniz/Jacobi sweep over registered charts",
        {"n": 3, "samples": 100}, (2, 8)),
    "duality-check": _Scenario(
        _scenario_duality_check, "fiber transversality margins for both dualities",
        {"n": 2, "samples": 4}, (2, 8)),
}


def _option_keys(spec: _Scenario) -> dict:
    """Flag / config-file key -> default of each option the scenario reads;
    a complex option (kappa, q) is set by its real and imaginary parts."""
    keys = {}
    for key, default in spec.options.items():
        if isinstance(default, complex):
            keys[f"{key}_re"], keys[f"{key}_im"] = default.real, default.imag
        else:
            keys[key] = default
    return keys


def _usage(spec: _Scenario) -> str:
    """The scenario's options as flags with their defaults."""
    return " ".join(f"--{key.replace('_', '-')} {default}"
                    for key, default in _option_keys(spec).items())


def _not_taken(scenario: str, extra) -> str:
    return (f"{scenario} does not take {', '.join(extra)}; "
            f"its options: {_usage(_SCENARIOS[scenario])}")


# ----------------------------------------------------------------------
# output writers
# ----------------------------------------------------------------------

# One CSV cell in 17-significant-digit scientific notation; Python and numpy
# floats format alike.  The reference: ``_float_text`` writes its bytes for
# each value that it decides, and the writer calls it on every other value.
_fmt = "{:.17e}".format
_TRIPLES = np.array([b"%03d" % i for i in range(1000)])


@functools.lru_cache(maxsize=None)
def _decade(e):
    """For 10**e <= |x| < 10**(e+1): hi + lo = 10**(17-e) to about 2**-106,
    each rounded once from Python ints (int true division rounds
    correctly), and the cell's exponent text, NUL-padded to 5 bytes."""
    num, den = (10 ** (17 - e), 1) if e <= 17 else (1, 10 ** (e - 17))
    n, d = (num / den).as_integer_ratio()
    return num / den, (num * d - n * den) / (den * d), f"e{e:+03d}".encode().ljust(5, b"\0")


def _float_text(x):
    """``_fmt``'s text of each float64 of ``x`` as 25 NUL-padded bytes, or 25
    NULs where the value is not decided here.  With E = floor(log10|x|),
    y = |x| 10**(17-E) is Dekker's exact product |x| hi plus |x| lo, within
    about 1e-13, and the digits are D = floor(y), plus 1 where its fraction
    exceeds 1/2.  Decided: zeros, and |x| in [1e-280, 1e280] (no split or
    product leaves the normal range) with floor(y) in [1e17, 1e18), D < 1e18
    and the fraction more than 1e-6 from 1/2, so that no tie is rounded."""
    a = np.abs(x)
    band = (a >= 1e-280) & (a <= 1e280)
    a = np.where(band, a, 1.0)
    E = np.floor(np.log10(a)).astype(np.int64)
    first = E.min(initial=0)
    hi, lo, suffix = (np.array(v)[E - first] for v in
                      zip(*map(_decade, range(first, E.max(initial=0) + 1))))
    p = a * hi
    # Veltkamp's splits of |x| and hi, each into a high part of at most 26 bits
    ah, bh = (134217729.0 * v - (134217729.0 * v - v) for v in (a, hi))
    t = (((ah * bh - p) + ah * (hi - bh) + (a - ah) * bh) + (a - ah) * (hi - bh)) + a * lo
    frac = t - np.floor(t)                                  # t = y - p
    floor = p.astype(np.int64) + np.floor(t).astype(np.int64)
    D = np.where(x == 0, 0, floor + (frac > 0.5))
    ok = (band & (floor >= 10 ** 17) & (D < 10 ** 18) & (np.abs(frac - 0.5) > 1e-6)) | (x == 0)
    digits = _TRIPLES.take(np.stack([D // 10 ** j % 1000 for j in range(15, -1, -3)],
                                    axis=1)).view(np.uint8)
    cells = np.empty((len(x), 25), np.uint8)
    cells[:, 0], cells[:, 1], cells[:, 2] = np.signbit(x) * ord("-"), digits[:, 0], ord(".")
    cells[:, 3:20], cells[:, 20:] = digits[:, 1:], suffix.view(np.uint8).reshape(-1, 5)
    cells[~ok] = 0
    return cells


def _write_csv(path, columns):
    """The report's named columns as one CSV text, written in one call.  A
    complex column is written as re(name) and im(name).  Every float part of
    up to 64 bits goes into one ``_float_text`` call, with ``_fmt`` for each
    value it leaves; an integer part is cast to bytes in one call, the text
    of ``str``; long double takes ``_fmt`` and everything else ``str`` (a
    str cell's NUL characters are dropped).  Rows stop at the shortest
    column, as ``zip`` does."""
    header, parts = [], []
    for name, column in columns.items():
        column = np.asarray(column)
        named = ({f"re({name})": column.real, f"im({name})": column.imag}
                 if column.dtype.kind == "c" else {name: column})
        header += named
        parts += named.values()
    rows = min(map(len, parts), default=0)
    kernel = [part.dtype.kind == "f" and part.itemsize <= 8 for part in parts]
    with np.errstate(invalid="ignore"):     # widening a signalling NaN quiets it
        x = np.concatenate([np.empty(0), *(p[:rows] for p, f in zip(parts, kernel) if f)])
    cells = _float_text(x)
    for i in np.flatnonzero(~cells.any(axis=1)):
        cells[i] = np.frombuffer(_fmt(x[i]).encode().ljust(25, b"\0"), np.uint8)
    floats = iter(cells.view("S25").reshape(sum(kernel), rows))
    texts = [next(floats) if f else
             p[:rows].astype("S") if p.dtype.kind in "iu" else
             np.array([(_fmt if p.dtype.kind == "f" else str)(v).encode()
                       for v in p[:rows].tolist()], dtype=bytes)
             for p, f in zip(parts, kernel)]
    comma = np.full((rows, 1), ord(","), np.uint8)
    table = np.concatenate([np.empty((rows, 0), np.uint8)] + [
        b for t in texts for b in (t.view(np.uint8).reshape(rows, t.itemsize), comma)], axis=1)
    table[:, -1:] = ord("\n")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode() + table[table != 0].tobytes())


def _write_json(path, payload):
    """One ``json.dumps`` string, written in one call; ``json.dump`` would
    write it in many small pieces."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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

    spec = _SCENARIOS[config.scenario]
    start = time.perf_counter()
    try:
        result = spec.run(config)
    except (DegintError, np.linalg.LinAlgError) as exc:
        # still emit a report so the failure is machine readable
        result = ScenarioResult(columns={"error": []},
                                flags=[f"numerical-failure:{type(exc).__name__}"])
        print(f"numerical failure: {exc}", file=sys.stderr)
    elapsed = time.perf_counter() - start

    # a value (a drift's max_abs) with a cap fails unless within it, so NaN fails
    if any(cap is not None and not value <= cap for _, value, *_, cap
           in result.drifts + result.residuals):
        result.flags.append(FLAG_TOLERANCE)

    # the options the scenario read, then the values its runner computed
    parameters = {key: getattr(config, key) for key in spec.options}
    for key, value in parameters.items():
        if isinstance(spec.options[key], complex):
            parameters[key] = [complex(value).real, complex(value).imag]
    payload = {
        "scenario": config.scenario,
        "seed": config.seed,
        "parameters": {**parameters, **result.parameters},
        "drifts": [{"name": n, "max_abs": float(a), "max_rel": float(r)}
                   for n, a, r, _ in result.drifts],
        "oracle_residuals": [{"name": n, "value": float(v)}
                             for n, v, _ in result.residuals],
        "flags": sorted(set(result.flags)),
        # pinned for byte-identical reruns; the measured time goes to stdout
        "elapsed_seconds": 0.0,
    }
    if result.metrics:
        payload["metrics"] = result.metrics
    try:
        if config.out_csv:
            _write_csv(config.out_csv, result.columns)
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
    return 2 if payload["flags"] else 0


def list_scenarios() -> str:
    """One line per scenario: name, description, and its options with their
    defaults."""
    return "\n".join(f"{name}: {spec.description} [{_usage(spec)}]"
                     for name, spec in sorted(_SCENARIOS.items()))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; parsing leaves it
    unchanged."""
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

    def error(message):
        # a usage error is an invalid configuration, which ``main`` reports
        p.print_usage(sys.stderr)
        raise ValueError(message)

    p.error = error
    return p


def _config_from_args(args) -> ScenarioConfig:
    values = {}
    if args.config:
        with open(args.config) as fh:
            try:
                values = json.load(fh)
            except RecursionError:      # nesting deeper than the parser's stack
                raise ValueError("a config file must not nest that deeply") from None
        if not isinstance(values, dict):
            raise ValueError("a config file must hold a JSON object")
        if not isinstance(values.get("scenario", ""), str):
            raise ValueError("scenario must be a string")
    if args.scenario:
        values["scenario"] = args.scenario
    if "scenario" not in values:
        raise ValueError("a scenario is required (--scenario or config file)")

    scenario = values["scenario"]
    cfg = ScenarioConfig(scenario=scenario)
    if scenario not in _SCENARIOS:
        return cfg                      # validate() names the scenarios there are
    spec = _SCENARIOS[scenario]
    # every scenario takes the seed and the output paths besides its options
    defaults = {**{key: getattr(cfg, key) for key in ("seed", "out_csv", "out_json", "out_svg")},
                **_option_keys(spec)}
    extra = sorted(set(values) - set(defaults) - {"scenario"}) + sorted(
        "--" + key.replace("_", "-") for key, arg in vars(args).items() if arg is not None
        and key not in defaults and key not in ("scenario", "config", "list_scenarios"))
    if extra:
        raise ValueError(_not_taken(scenario, extra))

    given = {key: values.get(key, default) if getattr(args, key) is None
             else getattr(args, key) for key, default in defaults.items()}
    for key, default in spec.options.items():
        if isinstance(default, complex):
            parts = given.pop(f"{key}_re"), given.pop(f"{key}_im")
            if any(isinstance(v, bool) or not isinstance(v, (int, float))
                   or not abs(v) <= sys.float_info.max for v in parts):
                raise ValueError(f"{key}_re and {key}_im must be numbers in the float range, "
                                 f"got {parts!r}")
            given[key] = complex(*parts)
    return replace(cfg, **given)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.list_scenarios:
            print(list_scenarios())
            return 0
        cfg = _config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
