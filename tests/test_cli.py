"""CLI tests: scenario wiring, exit codes, output files, determinism."""

import dataclasses
import json
import re
from collections import Counter

import numpy as np
import pytest

from degint import cli, double, kepler
from degint.cli import (
    SCENARIOS,
    ScenarioConfig,
    _config_from_args,
    _build_parser,
    _fmt,
    list_scenarios,
    main,
)


class TestListScenarios:
    def test_contains_kepler(self):
        assert "kepler" in list_scenarios()

    def test_contains_factorization_flow(self):
        assert "factorization-flow" in list_scenarios()

    def test_count_is_eight(self):
        assert len(SCENARIOS) == 8
        assert len(list_scenarios().splitlines()) == 8


class TestConfig:
    def test_unknown_scenario_rejected(self):
        cfg = ScenarioConfig(scenario="nope")
        with pytest.raises(ValueError, match="unknown scenario"):
            cfg.validate()

    def test_bad_tol_rejected(self):
        cfg = ScenarioConfig(scenario="kepler", tol=1.0)
        with pytest.raises(ValueError, match="tol"):
            cfg.validate()

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "kepler", "seed": 5, "t_max": 1.0}))
        args = _build_parser().parse_args(["--config", str(path), "--seed", "9"])
        cfg = _config_from_args(args)
        assert cfg.scenario == "kepler"
        assert cfg.seed == 9
        assert cfg.t_max == 1.0

    def test_complex_parameters_assembled(self):
        args = _build_parser().parse_args(
            ["--scenario", "ruijsenaars-rational", "--kappa-re", "0.4",
             "--kappa-im", "0.1"])
        cfg = _config_from_args(args)
        assert cfg.kappa == 0.4 + 0.1j

    def test_missing_scenario_is_config_error(self):
        assert main([]) == 1

    @pytest.mark.parametrize("config,argv", [
        pytest.param({"scenario": "kepler", "n": "3"}, [], id="n-string"),
        pytest.param({"scenario": "kepler", "seed": True}, [], id="seed-bool"),
        pytest.param({"scenario": "ruijsenaars-rational", "samples": 5.0}, [],
                     id="samples-float"),
        pytest.param({"scenario": "ruijsenaars-rational", "samlpes": 5}, [],
                     id="unknown-key"),
        pytest.param({"scenario": "ruijsenaars-rational", "kappa_re": "0.3"}, [],
                     id="kappa-string"),
        pytest.param({"scenario": "kepler", "t_max": "1.0"}, [], id="t-max-string"),
        pytest.param({"scenario": "kepler", "out_csv": 5}, [], id="path-int"),
        pytest.param({"scenario": ["kepler"]}, [], id="scenario-list"),
        pytest.param([["scenario", "kepler"]], [], id="config-not-object"),
        pytest.param(None, ["--scenario", "kepler", "--t-max", "nan"], id="t-max-nan"),
        pytest.param(None, ["--scenario", "relativistic-cm", "--dt", "inf"],
                     id="dt-inf"),
        pytest.param(None, ["--scenario", "ruijsenaars-rational", "--kappa-re", "nan"],
                     id="kappa-nan"),
        pytest.param(None, ["--scenario", "relativistic-ruijsenaars", "--q-im", "inf"],
                     id="q-inf"),
        pytest.param(None, ["--scenario", "cm-rational", "--n", "1"], id="cm-n1"),
        pytest.param(None, ["--scenario", "factorization-flow", "--n", "1"],
                     id="factorization-n1"),
        pytest.param(None, ["--scenario", "verify-brackets", "--n", "1"],
                     id="brackets-n1"),
        pytest.param(None, ["--scenario", "relativistic-cm", "--n", "4"],
                     id="relativistic-cm-n4"),
        pytest.param(None, ["--scenario", "duality-check", "--n", "1"],
                     id="duality-n1"),
    ])
    def test_bad_input_exits_1_with_message(self, tmp_path, capsys, config, argv):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = ["--config", str(path)]
        out = tmp_path / "r.json"
        assert main(argv + ["--out-json", str(out)]) == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario,n,extra", [
        ("factorization-flow", 8, []),
        ("relativistic-ruijsenaars", 4, ["--t-max", "0.05"]),
        ("duality-check", 5, []),
    ])
    def test_requested_n_is_the_n_run(self, tmp_path, scenario, n, extra):
        """Above n = 3 a scenario runs at the n asked for, not a smaller one."""
        out = tmp_path / "r.json"
        assert main(["--scenario", scenario, "--n", str(n), "--seed", "0",
                     "--out-json", str(out)] + extra) == 0
        assert json.loads(out.read_text())["parameters"]["n"] == n


class TestExitCodes:
    def test_invalid_config_exit_1(self):
        assert main(["--scenario", "bogus"]) == 1

    def test_success_exit_0(self, tmp_path):
        code = main(["--scenario", "cm-rational", "--seed", "3",
                     "--out-json", str(tmp_path / "r.json")])
        assert code == 0

    def test_io_failure_exit_3(self, tmp_path):
        code = main(["--scenario", "cm-rational", "--seed", "3",
                     "--out-json", str(tmp_path / "no" / "such" / "dir" / "r.json")])
        assert code == 3

    def test_fixed_step_reference_ends_on_t_max(self, tmp_path):
        """t_max / dt = 10/3: the rk4 reference clips its last step and ends
        on t_max, where the exact flow is taken, so the cross-checks pass."""
        out = tmp_path / "r.json"
        assert main(["--scenario", "factorization-flow", "--t-max", "0.1",
                     "--dt", "0.03", "--out-json", str(out)]) == 0
        residuals = {r["name"]: r["value"] for r in json.loads(out.read_text())["oracle_residuals"]}
        assert max(v for k, v in residuals.items() if k.startswith("cross-check")) < 1e-6

    def test_numerical_failure_exit_2(self, tmp_path):
        """A tolerance too loose for the drift budget flags the run and
        exits 2, with the report still written."""
        out = tmp_path / "r.json"
        code = main(["--scenario", "kepler", "--t-max", "6.2832",
                     "--tol", "1e-6", "--seed", "1", "--out-json", str(out)])
        assert code == 2
        assert "tolerance-failure" in json.loads(out.read_text())["flags"]


class TestOutputs:
    def test_report_schema(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["--scenario", "ruijsenaars-rational", "--n", "3",
                     "--kappa-re", "0.3", "--seed", "2", "--samples", "10",
                     "--out-json", str(out)]) == 0
        payload = json.loads(out.read_text())
        for key in ("scenario", "seed", "parameters", "drifts",
                    "oracle_residuals", "flags", "elapsed_seconds"):
            assert key in payload
        assert payload["scenario"] == "ruijsenaars-rational"
        assert payload["seed"] == 2
        names = {r["name"] for r in payload["oracle_residuals"]}
        assert "oracle-residual" in names
        assert all(r["value"] <= 1e-10 for r in payload["oracle_residuals"]
                   if r["name"] == "oracle-residual")

    def test_csv_header_and_precision(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["--scenario", "kepler", "--t-max", "1.0", "--seed", "1",
                     "--out-csv", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert "p1" in header and "q3" in header and "H" in header
        # 17 significant digits in scientific notation
        cell = lines[1].split(",")[1]
        mantissa = cell.split("e")[0].replace("-", "")
        assert len(mantissa.replace(".", "")) == 18

    def test_svg_written(self, tmp_path):
        svg = tmp_path / "p.svg"
        assert main(["--scenario", "kepler", "--t-max", "0.5", "--seed", "1",
                     "--out-svg", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text

    def test_svg_draws_roundoff_flat(self, tmp_path):
        """At n = 2 the two plotted series, tr(x) and tr(x^-1), are equal up
        to roundoff, so every point sits at one height."""
        svg = tmp_path / "p.svg"
        assert main(["--scenario", "relativistic-cm", "--n", "2", "--seed", "0",
                     "--out-svg", str(svg)]) == 0
        ys = {y for pts in re.findall(r'points="([^"]*)"', svg.read_text())
              for y in re.findall(r",([-\d.]+)", pts)}
        assert len(ys) == 1

    def test_cm_rational_svg_plots_the_tabulated_invariants(self, tmp_path):
        """The plot draws re(inv1) and re(inv2), the invariants the CSV
        tabulates, at their own heights: not their roundoff-sized drift."""
        svg, csv = tmp_path / "p.svg", tmp_path / "t.csv"
        assert main(["--scenario", "cm-rational", "--seed", "0",
                     "--out-svg", str(svg), "--out-csv", str(csv)]) == 0
        text = svg.read_text()
        labels = re.findall(r">([^<>]+)</text>", text)
        assert labels == ["re(inv1)", "re(inv2)"]
        assert set(labels) <= set(csv.read_text().splitlines()[0].split(","))
        heights = [{y for y in re.findall(r",([-\d.]+)", pts)}
                   for pts in re.findall(r'points="([^"]*)"', text)]
        assert len(heights) == 2 and heights[0] != heights[1]


class TestDeterminism:
    @pytest.mark.parametrize("scenario,extra", [
        ("kepler", ["--t-max", "1.0"]),
        ("ruijsenaars-rational", ["--samples", "8"]),
        ("verify-brackets", ["--samples", "5"]),
        ("relativistic-ruijsenaars", ["--t-max", "0.05", "--samples", "2"]),
        ("ruijsenaars-rational", ["--n", "6", "--samples", "500"]),
        ("relativistic-cm", ["--t-max", "0.05"]),
        ("factorization-flow", ["--n", "8"]),
    ])
    def test_byte_identical_reruns(self, tmp_path, scenario, extra):
        paths = []
        for tag in ("a", "b"):
            csv = tmp_path / f"{tag}.csv"
            js = tmp_path / f"{tag}.json"
            code = main(["--scenario", scenario, "--seed", "7",
                         "--out-csv", str(csv), "--out-json", str(js)] + extra)
            assert code == 0
            paths.append((csv.read_bytes(), js.read_bytes()))
        assert paths[0][0] == paths[1][0]
        assert paths[0][1] == paths[1][1]


class TestSingleEvaluation:
    def test_flow_report_evaluates_each_invariant_once_per_state(
            self, tmp_path, monkeypatch):
        """Each projection invariant is evaluated once per report, on the
        stacked array of all 201 states, and the CSV rows come from the
        monitor's values, not from evaluating the invariants again."""
        calls = Counter()
        reports = []
        make_invariants = double.projection_invariants
        run_monitor = cli.monitor

        def counted(o):
            def fn(z):
                calls[o.name, z.shape] += 1
                return o.fn(z)
            return dataclasses.replace(o, fn=fn)

        def recorded(*args):
            reports.append(run_monitor(*args))
            return reports[-1]

        monkeypatch.setattr(double, "projection_invariants",
                            lambda *a: [counted(o) for o in make_invariants(*a)])
        monkeypatch.setattr(cli, "monitor", recorded)
        csv = tmp_path / "r.csv"
        assert main(["--scenario", "relativistic-ruijsenaars", "--n", "3",
                     "--t-max", "0.2", "--dt", "1e-3", "--samples", "2",
                     "--seed", "0", "--out-csv", str(csv)]) == 0

        assert len(calls) == 6 and set(calls.values()) == {1}
        assert {shape for _, shape in calls} == {(201, 18)}
        values = reports[0].values
        assert values.shape == (201, 6)
        rows = [line.split(",")[1:] for line in csv.read_text().splitlines()[1:]]
        expected = [[_fmt(part(v)) for v in row for part in (np.real, np.imag)]
                    for row in values]
        assert rows == expected

    def test_kepler_relations_read_from_monitored_values(self):
        """The (M, A) and quadratic-relation residuals, now read from the
        monitor's values, equal the per-state projection loop they replaced
        bit for bit, and the energy parameter is the initial state's H."""
        cfg = ScenarioConfig(scenario="kepler", t_max=2 * np.pi, tol=1e-10, seed=1)
        result = cli._scenario_kepler(cfg)
        gamma = result.parameters["gamma"]
        # 17 significant digits round-trip every float64 of the CSV
        states = [kepler.KeplerState(p=z[:3], q=z[3:], gamma=gamma) for z in
                  np.array([[float(c) for c in row[1:7]] for row in result.csv_rows])]
        ma = quad = 0.0
        for state in states[::max(1, len(states) // 50)]:
            pz = kepler.project_to_p5(state)
            ma = max(ma, abs(pz.M @ pz.A))
            quad = max(quad, abs(pz.A @ pz.A - gamma ** 2 - kepler.QUADRATIC_RELATION_SIGN
                                 * 2.0 * (pz.M @ pz.M) * pz.H))
        assert dict(result.residuals) == {"orthogonality-(M,A)": ma,
                                          "quadratic-relation": quad}
        assert result.parameters["energy"] == kepler.project_to_p5(states[0]).H
