"""CLI tests: scenario wiring, exit codes, output files, determinism."""

import dataclasses
import functools
import importlib.util
import itertools
import json
import math
import os
import re
import shlex
import tempfile
import time
import warnings
from collections import Counter
from fractions import Fraction
from fnmatch import fnmatchcase
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degint import calogero, cli, double, facto, integrate, kepler, poisson
from degint.config import TOL
from degint.errors import ConsistencyError, DrawBudgetExceeded, FactorizationNotDefined
from degint.matrixcore import mat_exp, traces_of_powers
from degint.cli import (
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
        assert len(cli._SCENARIOS) == 8
        assert len(list_scenarios().splitlines()) == 8


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_commands():
    """The ``degint`` command lines of the README's code blocks, with their
    backslash continuations joined."""
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README, re.S | re.M)
    text = "\n".join(blocks).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("degint ")]


def _option_table_names(readme):
    """The scenario names of the README's option table, the table whose
    header is ``| scenario | options (defaults) |``, in their order."""
    table = re.search(r"^\| scenario \| options \(defaults\) \|\n((?:\|.*\n)*)",
                      readme, re.M)[1]
    return re.findall(r"^\| `([a-z-]+)` \|", table, re.M)


class TestReadme:
    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_command_example_exits_zero(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        outs = [argv[i + 1] for i, a in enumerate(argv) if a.startswith("--out-")]
        assert all((tmp_path / out).is_file() for out in outs)

    def test_command_examples_are_found(self):
        assert len(_readme_commands()) == 4

    def test_option_table_names_every_scenario(self):
        names = _option_table_names(README)
        assert sorted(names) == sorted(cli._SCENARIOS)
        assert len(names) == len(set(names))

    def test_a_second_scenario_table_is_not_read(self):
        other = "\n| scenario | caps |\n|---|---|\n" + "".join(
            f"| `{name}` | none |\n" for name in cli._SCENARIOS)
        assert _option_table_names(README + other) == _option_table_names(README)


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
        pytest.param({"scenario": "cm-rational", "n": "3"}, [], id="n-string"),
        pytest.param({"scenario": "kepler", "seed": True}, [], id="seed-bool"),
        pytest.param({"scenario": "kepler", "seed": -1}, [], id="seed-negative-config"),
        pytest.param(None, ["--scenario", "kepler", "--seed", "-1"], id="seed-negative"),
        pytest.param({"scenario": "ruijsenaars-rational", "samples": 5.0}, [],
                     id="samples-float"),
        pytest.param({"scenario": "ruijsenaars-rational", "samlpes": 5}, [],
                     id="unknown-key"),
        pytest.param({"scenario": "ruijsenaars-rational", "kappa_re": "0.3"}, [],
                     id="kappa-string"),
        *[pytest.param({"scenario": scenario, key: 10 ** 400}, [], id=f"{key}-past-float")
          for scenario, key in (("ruijsenaars-rational", "kappa_re"),
                                ("ruijsenaars-rational", "kappa_im"),
                                ("relativistic-ruijsenaars", "q_re"),
                                ("relativistic-ruijsenaars", "q_im"))],
        pytest.param({"scenario": "kepler", "t_max": "1.0"}, [], id="t-max-string"),
        pytest.param({"scenario": "kepler", "out_csv": 5}, [], id="path-int"),
        pytest.param({"scenario": ["kepler"]}, [], id="scenario-list"),
        pytest.param([["scenario", "kepler"]], [], id="config-not-object"),
        # text past the recursion limit of json.load, written as it stands
        pytest.param("[" * 100_000 + "]" * 100_000, [], id="config-nested-too-deep"),
        pytest.param(None, ["--scenario", "kepler", "--t-max", "nan"], id="t-max-nan"),
        pytest.param(None, ["--scenario", "relativistic-cm", "--dt", "inf"],
                     id="dt-inf"),
        pytest.param(None, ["--scenario", "ruijsenaars-rational", "--kappa-re", "nan"],
                     id="kappa-nan"),
        pytest.param(None, ["--scenario", "relativistic-ruijsenaars", "--q-im", "inf"],
                     id="q-inf"),
        pytest.param(None, ["--scenario", "relativistic-ruijsenaars", "--q-re", "0"],
                     id="q-zero"),
        pytest.param(None, ["--scenario", "cm-rational", "--n", "1"], id="cm-n1"),
        pytest.param(None, ["--scenario", "factorization-flow", "--n", "1"],
                     id="factorization-n1"),
        pytest.param(None, ["--scenario", "verify-brackets", "--n", "1"],
                     id="brackets-n1"),
        pytest.param(None, ["--scenario", "relativistic-cm", "--n", "4"],
                     id="relativistic-cm-n4"),
        pytest.param(None, ["--scenario", "duality-check", "--n", "1"],
                     id="duality-n1"),
        pytest.param(None, ["--scenario", "relativistic-cm", "--t-max", "1e300",
                            "--dt", "1e-300"], id="steps-overflow"),
        pytest.param(None, ["--scenario", "relativistic-cm", "--t-max", "1e6",
                            "--dt", "1e-6"], id="steps-past-budget"),
        pytest.param(None, ["--scenario", "kepler", "--n", "x"], id="usage-n-not-int"),
        pytest.param(None, ["--scenario", "kepler", "--no-such-flag"], id="usage-unknown-flag"),
        pytest.param(None, ["--scenario", "kepler", "--t-max", "-1e300"],
                     id="usage-bare-negative"),
    ])
    def test_bad_input_exits_1_with_message(self, tmp_path, capsys, config, argv):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(config if isinstance(config, str) else json.dumps(config))
            argv = ["--config", str(path)]
        out = tmp_path / "r.json"
        assert main(argv + ["--out-json", str(out)]) == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario", sorted(cli._SCENARIOS))
    def test_a_code_built_negative_seed_exits_1(self, scenario, capsys):
        """A negative seed, which no generator takes, is rejected before any
        run, also in the scenarios whose generators start at seed + 1."""
        assert cli.run(ScenarioConfig(scenario=scenario, seed=-1)) == 1
        assert "seed must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"scenario": "kepler", "t_max": 1j}, {"scenario": "kepler", "t_max": 2 + 0j},
        {"scenario": "kepler", "tol": 1e-8 + 0j}, {"scenario": "relativistic-cm", "dt": 1e-3 + 0j},
    ], ids=str)
    def test_a_code_built_complex_real_option_exits_1(self, config, capsys):
        """Only kappa and q, whose defaults are complex, take a complex value."""
        assert cli.run(ScenarioConfig(**config)) == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_a_code_built_bool_path_exits_1_and_writes_nothing(self, capfd):
        """True is no path, though ``open`` would take it as descriptor 1."""
        assert cli.run(ScenarioConfig(scenario="kepler", t_max=0.1, out_csv=True)) == 1
        out, err = capfd.readouterr()
        assert out == "" and "invalid configuration" in err

    def test_a_code_built_descriptor_path_exits_1_and_leaves_it_open(self):
        read, write = os.pipe()
        try:
            assert cli.run(ScenarioConfig(scenario="kepler", t_max=0.1, out_json=write)) == 1
            os.fstat(write)
        finally:
            os.close(read)
            os.close(write)

    def test_a_code_built_pathlib_path_is_written(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.run(ScenarioConfig(scenario="kepler", t_max=0.1, out_json=out)) == 0
        assert json.loads(out.read_text())["scenario"] == "kepler"

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(st.sampled_from(sorted(cli._SCENARIOS)), st.dictionaries(
        st.sampled_from(cli._OPTIONS + ("seed", "out_csv", "out_json", "out_svg")),
        st.none() | st.booleans() | st.integers() | st.floats() | st.complex_numbers()
        | st.text(max_size=3) | st.just([1.0]) | st.just(Path("r.json"))))
    def test_validate_returns_or_raises_value_error(self, scenario, values):
        """A code-built config of any mix of value types either validates,
        with every option of its default's kind and every output a path, or
        raises ``ValueError``; never another exception."""
        cfg = ScenarioConfig(scenario=scenario, **values)
        try:
            cfg.validate()
        except ValueError:
            return
        kinds = {int: int, float: (int, float), complex: (int, float, complex)}
        for key, default in {"seed": 0, **cli._SCENARIOS[scenario].options}.items():
            value = getattr(cfg, key)
            assert not isinstance(value, bool) and isinstance(value, kinds[type(default)]), key
        for key in ("out_csv", "out_json", "out_svg"):
            assert isinstance(getattr(cfg, key), (type(None), str, os.PathLike)), key

    @pytest.mark.parametrize("scenario", sorted(
        name for name, spec in cli._SCENARIOS.items() if "dt" in spec.options))
    def test_fixed_step_budget(self, scenario, capsys):
        """A fixed-step run of up to 10^5 steps passes validation; one more
        step's worth of t-max exits 1 naming the budget, before any run."""
        def argv(t_max):
            return ["--scenario", scenario, "--t-max", t_max, "--dt", "1e-3"]

        for t_max in ("99.999", "100"):
            _config_from_args(_build_parser().parse_args(argv(t_max))).validate()
        assert main(argv("100.001")) == 1
        assert "budget of 100000 fixed steps" in capsys.readouterr().err

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

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_bracket_report_lists_the_charts_it_ran(self, tmp_path, n):
        """verify-brackets sizes every chart but the Kepler chart by --n, and
        each passes its caps; its parameters name every chart at the size
        it ran."""
        out = tmp_path / "r.json"
        assert main(["--scenario", "verify-brackets", "--n", str(n), "--samples", "10",
                     "--seed", "0", "--out-json", str(out)]) == 0
        payload = json.loads(out.read_text())
        charts = payload["parameters"]["charts"]
        assert charts == ["canonical(n=3)"] + [f"{name}(n={n})" for name in (
            "cm-loglinear", "relativistic-loglinear", "heisenberg-double", "sklyanin")]
        assert set(charts) == {r["name"].split(":", 1)[1] for r in payload["oracle_residuals"]}
        assert payload["flags"] == []


# Every numeric flag, with a value some scenario accepts.
FLAG_VALUES = {"--n": "2", "--kappa-re": "0.5", "--kappa-im": "0.1", "--q-re": "1.5",
               "--q-im": "0.1", "--t-max": "0.1", "--dt": "1e-3", "--tol": "1e-11",
               "--samples": "3", "--seed": "4"}
# Each scenario's declared options at a size that runs in well under a second.
SMALL = {
    "kepler": {"t_max": 0.5},
    "cm-rational": {"t_max": 0.1, "samples": 2},
    "ruijsenaars-rational": {"samples": 2},
    "relativistic-cm": {"t_max": 0.01},
    "relativistic-ruijsenaars": {"t_max": 0.01, "samples": 2},
    "factorization-flow": {"t_max": 0.01},
    "verify-brackets": {"samples": 1},
    "duality-check": {"samples": 2},
}
# What each runner computes for the report's parameters.
COMPUTED = {"kepler": {"gamma", "energy"}, "cm-rational": {"h-cm"},
            "relativistic-cm": {"family", "hamiltonian"},
            "relativistic-ruijsenaars": {"family", "hamiltonian"},
            "verify-brackets": {"charts"}}


def _key(flag):
    return flag[2:].replace("-", "_")


def _takes(scenario, flag):
    return flag == "--seed" or _key(flag) in cli._option_keys(cli._SCENARIOS[scenario])


PAIRS = [(s, flag) for s in sorted(cli._SCENARIOS) for flag in FLAG_VALUES]
TAKEN = [pair for pair in PAIRS if _takes(*pair)]
REFUSED = [pair for pair in PAIRS if not _takes(*pair)]


class _ReadRecorder:
    """A scenario config that records which fields are read from it."""

    def __init__(self, cfg):
        self.cfg, self.reads = cfg, set()

    def __getattr__(self, name):
        self.reads.add(name)
        return getattr(self.cfg, name)


class TestOptionTable:
    """Each scenario takes exactly the options its runner reads, plus the
    seed and the output paths; any other option exits 1 before running."""

    def test_pair_counts(self):
        assert len(SMALL) == len(cli._SCENARIOS) == 8
        assert (len(TAKEN), len(REFUSED)) == (35, 45)

    @pytest.mark.parametrize("scenario", sorted(SMALL))
    def test_runner_reads_exactly_its_options(self, scenario):
        spec = cli._SCENARIOS[scenario]
        cfg = _ReadRecorder(ScenarioConfig(scenario=scenario, **{**spec.options,
                                                                  **SMALL[scenario]}))
        spec.run(cfg)
        assert cfg.reads == {"seed", *spec.options}

    @pytest.mark.parametrize("scenario,flag", TAKEN)
    def test_declared_option_is_taken(self, scenario, flag):
        cfg = _config_from_args(_build_parser().parse_args(
            ["--scenario", scenario, flag, FLAG_VALUES[flag]]))
        cfg.validate()
        key = _key(flag)
        part = {"_re": "real", "_im": "imag"}.get(key[-3:])
        value = getattr(getattr(cfg, key[:-3]), part) if part else getattr(cfg, key)
        assert value == float(FLAG_VALUES[flag])

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("scenario,flag", REFUSED)
    def test_undeclared_option_exits_1(self, tmp_path, capsys, scenario, flag, source):
        if source == "flag":
            argv, name = ["--scenario", scenario, flag, FLAG_VALUES[flag]], flag
        else:
            name = _key(flag)
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"scenario": scenario,
                                        name: json.loads(FLAG_VALUES[flag])}))
            argv = ["--config", str(path)]
        outs = {opt: tmp_path / f"r.{opt[-3:]}" for opt in ("--out-csv", "--out-json", "--out-svg")}
        assert main(argv + [arg for opt, path in outs.items() for arg in (opt, str(path))]) == 1
        err = capsys.readouterr().err
        assert f"invalid configuration: {scenario} does not take {name};" in err
        assert not any(path.exists() for path in outs.values())

    @pytest.mark.parametrize("scenario", sorted(SMALL))
    def test_parameters_are_options_and_computed_entries(self, tmp_path, scenario):
        out = tmp_path / "r.json"
        argv = ["--scenario", scenario, "--out-json", str(out)]
        for key, value in SMALL[scenario].items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        assert main(argv) == 0
        parameters = json.loads(out.read_text())["parameters"]
        options = cli._SCENARIOS[scenario].options
        assert set(parameters) == set(options) | COMPUTED.get(scenario, set())
        for key, default in options.items():
            value = SMALL[scenario].get(key, default)
            assert parameters[key] == ([value.real, value.imag]
                                       if isinstance(value, complex) else value)


class TestScenarioDefaults:
    """The option table is the one source of defaults, for configs built in
    code as for the CLI."""

    @pytest.mark.parametrize("scenario", sorted(cli._SCENARIOS))
    def test_unset_options_take_the_table_defaults(self, scenario):
        cfg = ScenarioConfig(scenario=scenario)
        options = cli._SCENARIOS[scenario].options
        for key in cli._OPTIONS:
            assert getattr(cfg, key) == options.get(key), key
        cfg.validate()

    def test_undeclared_option_set_in_code_exits_1(self, tmp_path, capsys):
        outs = {f"out_{ext}": str(tmp_path / f"r.{ext}") for ext in ("csv", "json", "svg")}
        assert cli.run(ScenarioConfig(scenario="kepler", n=5, samples=7, **outs)) == 1
        err = capsys.readouterr().err
        assert "invalid configuration: kepler does not take n, samples; its options: " in err
        assert not any(tmp_path.iterdir())

    def test_code_built_kepler_runs_to_the_cli_horizon(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.run(ScenarioConfig(scenario="kepler", out_json=str(out))) == 0
        assert json.loads(out.read_text())["parameters"]["t_max"] == 2 * np.pi


def chart_point_oracle(chart, rng):
    """The point ``verify-brackets`` drew before each chart carried its own
    sampler: a dispatch on the chart's name, n recovered from its dim."""
    name = chart.name
    if name.startswith("canonical") or name.startswith("cm-loglinear"):
        return rng.normal(size=chart.dim).astype(complex)
    if name.startswith("relativistic"):
        return (rng.uniform(0.5, 2.0, size=chart.dim)
                * np.exp(1j * rng.uniform(-0.3, 0.3, size=chart.dim)))
    if name.startswith("heisenberg"):
        n = int(round(np.sqrt(chart.dim / 2)))
        return np.concatenate([cli._sl_matrices(rng.normal(size=(2, n, n)), 0.3).ravel(),
                               cli._sl_matrices(rng.normal(size=(2, n, n)), 0.3).ravel()])
    n = int(round(np.sqrt(chart.dim)))
    return cli._sl_matrices(rng.normal(size=(2, n, n)), 0.3).ravel()


class TestBracketSuiteSamplers:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_samplers_draw_what_the_name_dispatch_drew(self, n):
        """Each chart's sampler takes the same draws, in the same order, as
        the name dispatch it replaced, so the sweep's CSV is unchanged."""
        for chart, sample in cli._bracket_suite_charts(n):
            for seed in (0, 1, 7):
                rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
                assert sample(rng).tobytes() == chart_point_oracle(chart, oracle).tobytes()
                assert rng.normal() == oracle.normal()      # the stream stays aligned


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

    def test_numerical_failure_exit_2(self, tmp_path, monkeypatch):
        """A drift budget too tight for the tolerance flags the run and
        exits 2, with the report still written."""
        monkeypatch.setattr(cli, "TOL", dataclasses.replace(TOL, orbit_drift=1e-12))
        out = tmp_path / "r.json"
        code = main(["--scenario", "kepler", "--t-max", "6.2832",
                     "--tol", "2e-10", "--seed", "1", "--out-json", str(out)])
        assert code == 2
        assert "tolerance-failure" in json.loads(out.read_text())["flags"]

    def test_the_tol_ceiling_passes_its_drift_caps(self, tmp_path, capsys):
        """kepler at --tol 2e-10 keeps every drift within its cap at seeds
        0-39; 5e-10, the next value of the 1-2-5 series, exits 1 before
        running, with the range in its message."""
        out = tmp_path / "r.json"
        for seed in range(40):
            argv = ["--scenario", "kepler", "--tol", "2e-10", "--seed", str(seed)]
            assert main(argv + ["--out-json", str(out)]) == 0, seed
        out.unlink()
        assert main(["--scenario", "kepler", "--tol", "5e-10", "--out-json", str(out)]) == 1
        assert "tol must lie in [1e-13, 2e-10]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t_max,dt", [("10", "1e-3"), ("60", "1e-3"), ("200", "1e-2")],
                             ids=["10", "60", "200"])
    def test_split_that_fails_its_check_exits_2(self, tmp_path, capsys, t_max, dt):
        """Far out, the k = 2 split of exp(t xi) loses its triangularity: a
        numerical failure with the report written, not a traceback.  At
        t-max 200 a dt of 1e-2 keeps the run within the fixed-step budget."""
        out = tmp_path / "r.json"
        assert main(["--scenario", "factorization-flow", "--t-max", t_max, "--dt", dt,
                     "--out-json", str(out)]) == 2
        assert json.loads(out.read_text())["flags"] == ["numerical-failure:ConsistencyError"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--scenario", "kepler", "--t-max", "1e300"],
        ["--scenario", "relativistic-ruijsenaars", "--dt", "1e300", "--t-max", "1e301"],
    ], ids=lambda argv: argv[1])
    def test_nonfinite_state_exits_2(self, tmp_path, argv):
        """An integrator that stops at a non-finite state fails the report,
        though its one stored state has no drift."""
        out = tmp_path / "r.json"
        with np.errstate(all="ignore"):
            assert main(argv + ["--out-json", str(out)]) == 2
        payload = json.loads(out.read_text())
        assert payload["flags"] == [integrate.FLAG_NONFINITE]
        assert payload["metrics"]["accepted_steps"] == 0

    @pytest.mark.parametrize("argv", [
        ["--scenario", "relativistic-cm", "--n", "3", "--dt", "1", "--t-max", "1000"],
        ["--scenario", "relativistic-ruijsenaars", "--dt", "20", "--t-max", "20000",
         "--seed", "7"],
    ], ids=lambda argv: argv[1])
    def test_singular_matrix_is_a_numerical_failure(self, tmp_path, capsys, argv):
        """A flow that runs into a singular matrix exits 2 with the report
        written, not with a traceback."""
        outs = {ext: tmp_path / f"r.{ext}" for ext in ("csv", "json")}
        with np.errstate(all="ignore"):
            assert main(argv + ["--out-csv", str(outs["csv"]),
                                "--out-json", str(outs["json"])]) == 2
        assert json.loads(outs["json"].read_text())["flags"] == ["numerical-failure:LinAlgError"]
        assert outs["csv"].read_text() == "error\n"
        assert capsys.readouterr().err == "numerical failure: Singular matrix\n"

    @pytest.mark.parametrize("error,code,flags", [
        (FactorizationNotDefined, 2, ["factorization-divisor"]),
        (ConsistencyError, 2, ["numerical-failure:ConsistencyError"]),
    ])
    def test_only_a_vanishing_minor_is_the_divisor_flag(self, tmp_path, monkeypatch,
                                                        error, code, flags):
        def fail(m):
            raise error("planted")

        monkeypatch.setattr(facto, "ul_split_factorize", fail)
        out = tmp_path / "r.json"
        assert main(["--scenario", "factorization-flow", "--out-json", str(out)]) == code
        assert json.loads(out.read_text())["flags"] == flags

    def test_a_field_that_loses_antisymmetry_is_a_numerical_failure(self, tmp_path,
                                                                     monkeypatch, capsys):
        """A pair-chart field with 1e-6 g added fails the chart's self-check:
        exit 2 with the flag of the library error and the report written,
        not a traceback."""
        def bent_chart(n):
            chart = poisson.chart_heisenberg_double(n)
            return dataclasses.replace(chart, field=lambda z, g: chart.field(z, g) + 1e-6 * g)

        monkeypatch.setattr(cli, "chart_heisenberg_double", bent_chart)
        out = tmp_path / "r.json"
        assert main(["--scenario", "relativistic-ruijsenaars", "--t-max", "0.01",
                     "--out-json", str(out)]) == 2
        assert json.loads(out.read_text())["flags"] == ["numerical-failure:ConsistencyError"]
        err = capsys.readouterr().err
        assert "lost antisymmetry" in err
        assert "Traceback" not in err

    def test_constraint_violation_is_a_numerical_failure(self, tmp_path, monkeypatch, capsys):
        """Oracle products nudged by 1e-9 fail the (phi, psi) pairing of the
        rank-1 class: exit 2 with the flag of the library error, not a
        traceback."""
        solve = double.rank_one_consistency_oracle

        def nudged(x, q):
            v = solve(x, q)
            v[..., 0] *= 1 + 1e-9
            return v

        monkeypatch.setattr(double, "rank_one_consistency_oracle", nudged)
        out = tmp_path / "r.json"
        assert main(["--scenario", "relativistic-ruijsenaars", "--t-max", "0.01",
                     "--out-json", str(out)]) == 2
        assert json.loads(out.read_text())["flags"] == ["numerical-failure:ConstraintViolation"]
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: (phi, psi) must equal")
        assert "Traceback" not in err

    def test_complex_coupling_is_a_numerical_failure(self, tmp_path, capsys):
        """A kappa off the real axis leaves an imaginary residue in the
        real-form rank-1 Hamiltonian: exit 2 with the flag of the library
        error and the report written, not a traceback."""
        out = tmp_path / "r.json"
        assert main(["--scenario", "cm-rational", "--kappa-im", "0.5",
                     "--out-json", str(out)]) == 2
        assert json.loads(out.read_text())["flags"] == ["numerical-failure:ConstraintViolation"]
        assert capsys.readouterr().err == (
            "numerical failure: imaginary residue in the real-form Hamiltonian\n")

    @pytest.mark.parametrize("flag", ["--kappa-re", "--kappa-im"])
    def test_an_overflowing_coupling_is_a_numerical_failure(self, tmp_path, capsys, flag):
        """kappa = 1e160 overflows kappa^2 and the spin products mu_ij mu_ji,
        so the Hamiltonians are not finite: exit 2 with the flag of the
        library error and the report written, not an OverflowError, and no
        overflow warning."""
        out = tmp_path / "r.json"
        assert main(["--scenario", "cm-rational", flag, "1e160",
                     "--out-json", str(out)]) == 2
        assert json.loads(out.read_text())["flags"] == ["numerical-failure:NonFiniteMatrixError"]
        assert capsys.readouterr().err.startswith(
            "numerical failure: spin Hamiltonian is not finite")

    @pytest.mark.parametrize("t_max", ["1e-15", "1e-300"])
    def test_a_horizon_below_the_step_floor_is_one_step(self, tmp_path, t_max):
        """A horizon shorter than ``TOL.step_underflow`` is one short step,
        not a step underflow."""
        out = tmp_path / "r.json"
        assert main(["--scenario", "kepler", "--t-max", t_max, "--out-json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["flags"] == []
        assert payload["metrics"]["accepted_steps"] == 1


# Every scenario with each of its numeric options but n and samples (the
# seed is not one) at each extreme value, the other options at their
# defaults; "--flag=value", since argparse reads a bare -1e300 as a flag
EXTREME_ARGVS = [["--scenario", scenario, f"--{key.replace('_', '-')}={value}"]
                 for scenario, spec in sorted(cli._SCENARIOS.items())
                 for key in cli._option_keys(spec) if key not in ("n", "samples")
                 for value in ("1e-300", "1e160", "1e300", "-1e300")]
# Every pair of those options set together, each at each of these values
# (0 and the smallest of either sign besides), the others at their defaults
EXTREME_PAIRS = [["--scenario", scenario, f"--{a.replace('_', '-')}={va}",
                  f"--{b.replace('_', '-')}={vb}"]
                 for scenario, spec in sorted(cli._SCENARIOS.items())
                 for a, b in itertools.combinations(
                     [key for key in cli._option_keys(spec) if key not in ("n", "samples")], 2)
                 for va, vb in itertools.product(
                     ("0", "1e-300", "-1e-300", "1e160", "1e300", "-1e300"), repeat=2)]


class TestExtremeOptions:
    """Extreme option values end in an exit code, never in an exception or
    a warning: 0, 1 for a value the configuration rejects, or 2 with the
    report written.  An extreme value may overflow on its way to a flag;
    the code that decides the flag silences that overflow."""

    def test_counts(self):
        assert (len(EXTREME_ARGVS), len(EXTREME_PAIRS)) == (60, 468)

    @pytest.mark.parametrize("argv", EXTREME_ARGVS + EXTREME_PAIRS,
                             ids=lambda argv: " ".join(argv[1:]))
    def test_an_extreme_value_ends_in_an_exit_code(self, tmp_path, argv):
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--out-json", str(out)])
        assert code in (0, 1, 2)
        assert code != 2 or json.loads(out.read_text())["flags"]


class TestRankOneGenerators:
    """A report's rank-1 draws come from one generator, however many
    candidates fail their test."""

    @pytest.fixture
    def offsets(self, monkeypatch):
        """The offset of every generator ``cli._rng_for`` builds."""
        built, rng_for = [], cli._rng_for
        monkeypatch.setattr(cli, "_rng_for",
                            lambda cfg, index=0: built.append(index) or rng_for(cfg, index))
        return built

    def test_rational_report_builds_one_generator(self, tmp_path, offsets):
        assert main(["--scenario", "ruijsenaars-rational", "--n", "6", "--samples", "500",
                     "--out-json", str(tmp_path / "r.json")]) == 0
        assert offsets == [1]

    def test_relativistic_draws_build_one_generator(self, tmp_path, offsets):
        """One for the flow point and one for all the rank-1 samples."""
        assert main(["--scenario", "relativistic-ruijsenaars", "--n", "8", "--samples", "200",
                     "--t-max", "0.01", "--out-json", str(tmp_path / "r.json")]) == 0
        assert offsets == [0, 1000]


def distinct_h_loop(n, rng):
    """h of one gapped sample, one row of n normals at a time."""
    while True:
        ok, h = cli._gapped_h(rng.normal(size=(1, n)))
        if ok:
            return h


def distinct_eigs_loop(n, rng):
    """x of one gapped sample, one (re, im) pair of rows at a time."""
    while True:
        x = cli._unimodular_eigs(rng.normal(size=n), rng.normal(size=n), 0.4)
        if cli._eig_gap(x) > 0.1:
            return x


def kepler_projection(state):
    """(M, A, H) of one Kepler state, M and A by ``np.cross``."""
    p, q, gamma = state.p, state.q, state.gamma
    M = np.cross(p, q)
    return M, np.cross(p, M) + gamma * q / np.linalg.norm(q), kepler.hamiltonian(p, q, gamma)


def kepler_orbit_loop(rng, gamma=1.0):
    """(p, q) of the first well-separated bound orbit, one candidate at a
    time: the draw ``_scenario_kepler`` made before ``_first_passing``."""
    for _ in range(10000):
        p = rng.normal(size=3)
        q = rng.normal(size=3) * 1.2
        if np.linalg.norm(q) < 0.4:
            continue
        _, A, H = kepler_projection(kepler.KeplerState(p=p, q=q, gamma=gamma))
        if H >= -0.1:
            continue
        # perihelion distance (gamma - |A|) / (2|E|) away from collision
        r_min = (gamma - np.linalg.norm(A)) / (2.0 * abs(H))
        if r_min > 0.2 and gamma / (2.0 * abs(H)) < 4.0:
            return p, q
    raise AssertionError("could not sample a well-separated bound orbit")


def first_passing_loop(rng, count, shape, passes):
    """The first ``count`` candidates that ``passes`` accepts, drawn and
    tested one at a time."""
    want = []
    while len(want) < count:
        candidate = rng.normal(size=shape)
        if passes(candidate[None])[0]:
            want.append(candidate)
    return np.array(want)


def after_rejecting(k, passes):
    """``passes``, but the first ``k`` candidates it is handed fail."""
    seen = 0

    def gated(w):
        nonlocal seen
        index = seen + np.arange(len(w))
        seen += len(w)
        return (index >= k) & passes(w)

    return gated


class RecordingRng:
    """A generator that records the candidates each ``normal`` call draws,
    and the state snapshots and restores ``_first_passing`` makes."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self
        self.rounds, self.snapshots, self.restores = [], 0, 0

    def normal(self, size):
        self.rounds.append(size[0])
        return self.rng.normal(size=size)

    @property
    def state(self):
        self.snapshots += 1
        return self.rng.bit_generator.state

    @state.setter
    def state(self, value):
        self.restores += 1
        self.rng.bit_generator.state = value


class TestFirstPassing:
    """``cli._first_passing`` keeps what drawing one candidate at a time
    until ``count`` pass keeps, and leaves the generator where that loop
    leaves it, whatever the round sizes."""

    @staticmethod
    def assert_the_loop(seed, count, shape, passes, loop_passes=None):
        """The kept bytes and generator state of the loop; the rounds made."""
        rng, loop = RecordingRng(seed), np.random.default_rng(seed)
        got, _ = cli._first_passing(rng, count, shape, lambda w: (passes(w), w))
        want = first_passing_loop(loop, count, shape, loop_passes or passes)
        assert got.tobytes() == want.tobytes()
        assert rng.rng.bit_generator.state == loop.bit_generator.state
        return rng

    @pytest.mark.parametrize("count", [1, 2, 37])
    @pytest.mark.parametrize("seed", [0, 7, 123456])
    def test_kept_candidates_and_generator_state(self, count, seed):
        def passes(w):                  # about 30% of candidates pass
            return w[:, 0, 0] > 0.5

        self.assert_the_loop(seed, count, (2, 3), passes)

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("seed", range(20))
    def test_rare_passes(self, count, seed):
        """About 5% of candidates pass: many rounds of 8, the last one
        replayed up to its ``count``-th pass."""
        def passes(w):
            return w[:, 0, 0] > 1.645

        rng = self.assert_the_loop(seed, count, (2, 3), passes)
        assert rng.rounds[0] == 8 and rng.snapshots >= 1 and rng.restores <= 1

    @pytest.mark.parametrize("count", [1, 3, 12])
    @pytest.mark.parametrize("seed", range(5))
    def test_the_first_twenty_candidates_fail(self, count, seed):
        def passes(w):
            return w[:, 0, 0] > 0.0

        self.assert_the_loop(seed, count, (2, 3), after_rejecting(20, passes),
                             after_rejecting(20, passes))

    @pytest.mark.parametrize("count", [1, 3])
    def test_a_round_ending_on_its_last_pass_is_not_replayed(self, count):
        """Only the round's last candidate, or its last ``count``, pass:
        one round of 8, its state saved and never restored."""
        def passes(w):
            return np.arange(len(w)) >= 8 - count

        loop_passes = after_rejecting(8 - count, lambda w: np.ones(len(w), bool))
        rng = self.assert_the_loop(3, count, (2, 3), passes, loop_passes)
        assert (rng.rounds, rng.snapshots, rng.restores) == ([8], 1, 0)

    def test_no_snapshot_while_eight_or_more_are_missing(self):
        """A draw of 500 keeps its round sizes, each the count still
        missing, and saves the state only in a round that draws more."""
        calls = []

        def passes(w):
            ok = cli._gapped_h(w)[0]
            calls.append((len(w), int(ok.sum())))
            return ok

        rng = self.assert_the_loop(11, 500, (3, 6), passes, lambda w: cli._gapped_h(w)[0])
        need, snapshots = 500, 0
        for size, passed in calls:
            assert size == max(need, 8)
            snapshots += size > need
            need -= min(passed, need)
        assert need == 0 and len(calls) > 3 and snapshots >= 1
        assert rng.snapshots == snapshots and rng.restores <= 1
        assert rng.rounds[:len(calls)] == [size for size, _ in calls]
        assert len(rng.rounds) == len(calls) + rng.restores

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("passes,rows,loop", [(cli._gapped_h, 1, distinct_h_loop),
                                                  (cli._gapped_x, 2, distinct_eigs_loop)],
                             ids=["h", "eigs"])
    def test_one_sample_equals_the_loop(self, passes, rows, loop, n, seed):
        """``count = 1``, as cm-rational and duality-check draw, keeps their
        samples and the generator state their later draws start from."""
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = cli._first_passing(rng, 1, (rows, n), passes)[1][0]
        assert got.tobytes() == loop(n, want_rng).tobytes()
        assert rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(50))
    def test_kepler_orbit_equals_the_loop(self, seed):
        """The Kepler orbit, drawn through ``_orbit_passes``, is the loop's
        (p, q) bit for bit, and the generator ends where the loop's does."""
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        p, q = cli._first_passing(rng, 1, (2, 3),
                                  functools.partial(cli._orbit_passes, gamma=1.0))[1][0]
        want_p, want_q = kepler_orbit_loop(want_rng)
        assert p.tobytes() == want_p.tobytes()
        assert q.tobytes() == want_q.tobytes()
        assert rng.bit_generator.state == want_rng.bit_generator.state

    @staticmethod
    def recorded_draw(monkeypatch, draws, test, **config):
        """What ``draws`` returns for ``config``; every (ok, sample) its pass
        test ``cli.<test>`` returned on the way; and the generator it drew from."""
        calls, rngs, judge = [], [], getattr(cli, test)
        monkeypatch.setattr(cli, test, lambda w: calls.append(judge(w)) or calls[-1])
        monkeypatch.setattr(cli, "_rng_for", lambda cfg, index=0:
                            rngs.append(RecordingRng(cfg.seed + index)) or rngs[-1])
        got = draws(ScenarioConfig(**config))
        assert len(rngs) == 1
        return got, calls, rngs[0]

    DRAWS = pytest.mark.parametrize("draws,test,config", [
        (cli._rank1_draws, "_gapped_h", dict(scenario="ruijsenaars-rational", n=6, samples=500)),
        (cli._relativistic_draws, "_gapped_x",
         dict(scenario="relativistic-ruijsenaars", n=3, samples=10))],
        ids=["rank1", "relativistic"])

    @DRAWS
    @pytest.mark.parametrize("seed", [0, 1])
    def test_the_pass_test_runs_once_per_round(self, monkeypatch, draws, test, config, seed):
        """Each round's candidates go through the pass test once, whole, and
        the kept rows never again; the replay of a round calls no test."""
        _, calls, rng = self.recorded_draw(monkeypatch, draws, test, **config, seed=seed)
        assert [len(ok) for ok, _ in calls] == rng.rounds[:len(calls)]
        assert len(rng.rounds) == len(calls) + rng.restores and rng.restores == 1

    @DRAWS
    @pytest.mark.parametrize("seed", [0, 1])
    def test_the_kept_samples_are_the_pass_tests_own(self, monkeypatch, draws, test, config,
                                                     seed):
        """The draw's h or x are the values its pass test formed, at each
        round's kept indices, bit for bit, the replayed round's included."""
        got, calls, rng = self.recorded_draw(monkeypatch, draws, test, **config, seed=seed)
        want, need = [], config["samples"]
        for ok, judged in calls:
            hits = np.flatnonzero(ok)[:need]
            want.append(judged[hits])
            need -= len(hits)
        assert need == 0 and rng.restores == 1
        assert got[0].tobytes() == np.concatenate(want).tobytes()

    @pytest.mark.parametrize("scenario,draws", [
        ("ruijsenaars-rational", cli._rank1_draws),
        ("relativistic-ruijsenaars", cli._relativistic_draws)])
    @pytest.mark.parametrize("n", [2, 8])
    def test_fewer_samples_are_a_prefix(self, scenario, draws, n):
        """A report of m samples draws the first m samples of a report of M."""
        few, many = (draws(ScenarioConfig(scenario=scenario, n=n, samples=m, seed=3))
                     for m in (7, 150))
        for short, full in zip(few, many):
            assert short.tobytes() == full[:7].tobytes()

    @pytest.mark.parametrize("count", [1, 3, 50])
    def test_the_budget_is_per_wanted_sample(self, count):
        """A pass test that accepts nothing gets ``_DRAW_BUDGET`` candidates
        per wanted sample, in rounds of max(count, 8), and then raises."""
        rng = RecordingRng(0)
        with pytest.raises(DrawBudgetExceeded, match=f"^0 of {count} samples passed"):
            cli._first_passing(rng, count, (1, 2), lambda w: (np.zeros(len(w), bool), w))
        assert set(rng.rounds) == {max(count, 8)}
        assert sum(rng.rounds) == cli._DRAW_BUDGET * count

    @pytest.mark.parametrize("scenario", ["ruijsenaars-rational", "cm-rational",
                                          "duality-check"])
    def test_a_pass_test_that_accepts_nothing_exits_2(self, monkeypatch, tmp_path, scenario):
        """The report of a draw that finds no sample exits 2 with the budget's
        failure flag, well within a second."""
        monkeypatch.setattr(cli, "_gapped_h", lambda w: (np.zeros(len(w), bool), w[..., 0, :]))
        out = tmp_path / "r.json"
        start = time.perf_counter()
        code = cli.main(["--scenario", scenario, "--out-json", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert json.loads(out.read_text())["flags"] == ["numerical-failure:DrawBudgetExceeded"]


def _benchmark_workloads():
    """``perfbench/workloads.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkPools:
    """The benchmark's correctness gate at the first ten seeds of its pools."""

    @pytest.mark.parametrize("name", ["rank1-sweep", "pair-flow"])
    def test_pool_seeds_exit_0_without_flags(self, tmp_path, name):
        workloads = _benchmark_workloads()
        csv, out = str(tmp_path / "r.csv"), tmp_path / "r.json"
        failed = []
        for seed in range(0, 10 * workloads.SEED_STRIDE, workloads.SEED_STRIDE):
            code = main(workloads.report_argv(workloads.WORKLOADS[name], seed, csv, str(out)))
            flags = json.loads(out.read_text())["flags"]
            if code or flags:
                failed.append((seed, code, flags))
        assert failed == []


# The values each scenario caps at its defaults, with their caps.  The cap of
# cm-rational is scaled by the largest |invariant|, so only its floor is pinned.
_CHARTS = ("canonical(n=3)", "cm-loglinear(n=3)", "relativistic-loglinear(n=3)",
           "heisenberg-double(n=3)", "sklyanin(n=3)")
KEPLER_DRIFTS = ["M1", "M2", "M3", "A1", "A2", "A3", "H"]
CAPS = {
    "kepler": {**dict.fromkeys(KEPLER_DRIFTS, TOL.orbit_drift),
               **dict.fromkeys(["orthogonality-(M,A)", "quadratic-relation"],
                               TOL.kepler_relation * np.finfo(float).eps)},
    "cm-rational": {"joint-invariants": TOL.central_flow},
    "ruijsenaars-rational": {"closed-form-residual": TOL.formula_match,
                             **dict.fromkeys(["tr-g-dual", "tr-g2-dual", "h-ruijsenaars-dual"],
                                             TOL.dual_path)},
    "relativistic-cm": {**dict.fromkeys(["tr(x^1)", "tr(x^2)", "tr(mu~^1)", "tr(mu~^2)",
                                         "tr(x mu~)", "tr(x^2 mu~)"], TOL.projection_drift),
                        "duality-moment-deviation": TOL.duality_exact * 10},
    "relativistic-ruijsenaars": {
        **dict.fromkeys(["tr(y^1)", "tr(y^2)", "tr(mu^1)", "tr(mu^2)", "tr(y^2 mu)"],
                        TOL.projection_drift),
        "mu-eigenvalue-deviation": TOL.mu_eigenvalue,
        "psi-phi-corrected-residual": TOL.formula_match,
        "trace-dual-path": TOL.dual_path, "h2-dual-path": TOL.dual_path},
    "factorization-flow": {f"{check}-tr(x^{k})": cap for k in (1, 2) for check, cap in (
        ("cross-check", TOL.flow_cross_check), ("semigroup", TOL.semigroup),
        ("trace-drift", TOL.trace_conservation))},
    "verify-brackets": {f"{check}:{chart}": cap for chart in _CHARTS for check, cap in (
        ("antisymmetry", TOL.antisymmetry), ("jacobi", TOL.jacobi), ("leibniz", TOL.leibniz))},
    "duality-check": {},
}


@functools.cache
def _default_result(scenario):
    """The scenario's ``ScenarioResult`` at its defaults, run once."""
    return cli._SCENARIOS[scenario].run(ScenarioConfig(scenario=scenario))


def _caps(result):
    """Name -> cap of each drift and residual of ``result`` reported with a cap."""
    return {name: cap for name, *_, cap in result.drifts + result.residuals if cap is not None}


def _readme_uncapped():
    """The backticked names of the README's "Reported without a cap"
    paragraph; a ``*`` in one matches any run of characters."""
    paragraph = re.search(r"^Reported without a cap:(.*?)\n\n", README, re.S | re.M)[1]
    return re.findall(r"`([^`]+)`", paragraph)


# +-0.0, NaNs of either sign and with a payload, +-inf, subnormals and the
# float extremes, for the table tests' columns
PAYLOAD_NAN = float(np.array([0x7FF8000000000001]).view(float)[0])
SPECIAL_FLOATS = [0.0, -0.0, np.nan, -np.nan, PAYLOAD_NAN, np.inf, -np.inf, 5e-324, -5e-324,
                  2.2250738585072009e-308, np.finfo(float).max, -np.finfo(float).tiny, 1.0,
                  1.0 + 2.0 ** -52]
# Exact 18-digit ties (the 19th significant digit is a final 5: 1 + 2**-18 =
# 1.000003814697265625, 1 + 3 * 2**-18 rounds up to even, 2**-27 has the
# inexact hi + lo of 10**26) and the kernel's band edges with their neighbours
BAND_EDGES = [float(v) for edge in (1e-280, 1e280)
              for v in (np.nextafter(edge, 0), edge, np.nextafter(edge, np.inf))]
TIES_AND_EDGES = [1 + 2.0 ** -18, 1 + 3 * 2.0 ** -18, -(1 + 3 * 2.0 ** -18), 2.0 ** -27,
                  3 * 2.0 ** -26, 1e15 + 0.125, *BAND_EDGES, *(-v for v in BAND_EDGES)]


def csv_table_per_cell(columns):
    """Test-only oracle: the header and rows of the CSV table, every float
    cell formatted on its own with ``_fmt``."""
    header, cells = [], []
    for name, column in columns.items():
        column = np.asarray(column)
        parts = ({f"re({name})": column.real, f"im({name})": column.imag}
                 if column.dtype.kind == "c" else {name: column})
        for label, part in parts.items():
            header.append(label)
            cells.append(list(map(_fmt if part.dtype.kind == "f" else str, part.tolist())))
    return header, list(zip(*cells))


def joined(header, rows):
    """A header and rows as one CSV text."""
    return "\n".join(map(",".join, [header, *rows])) + "\n"


def written(columns):
    """The text that ``cli._write_csv`` writes for the columns."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        cli._write_csv(path, columns)
        return path.read_bytes().decode()


def written_rows(columns):
    """The header and rows that ``cli._write_csv`` writes, each row split at
    every ",": for columns whose cells hold no comma."""
    header, *rows = (tuple(line.split(",")) for line in written(columns).splitlines())
    return list(header), rows


class TestReportRule:
    """Scenarios return named columns and capped values; ``run`` writes the
    one CSV format and applies the one cap rule."""

    def test_every_scenario_is_pinned(self):
        assert sorted(CAPS) == sorted(cli._SCENARIOS)

    @pytest.mark.parametrize("scenario", sorted(CAPS))
    def test_caps_at_the_defaults(self, scenario):
        caps = _caps(_default_result(scenario))
        assert set(caps) == set(CAPS[scenario])
        for name, cap in CAPS[scenario].items():
            if scenario == "cm-rational":
                assert caps[name] >= cap
            else:
                assert caps[name] == cap, name

    @pytest.mark.parametrize("scenario", sorted(CAPS))
    def test_every_uncapped_value_is_named_in_the_readme(self, scenario):
        result = _default_result(scenario)
        names = [name for name, *_ in result.drifts + result.residuals]
        patterns = _readme_uncapped()
        assert [name for name in names if name not in _caps(result)
                and not any(fnmatchcase(name, p) for p in patterns)] == []

    @pytest.mark.parametrize("scenario", sorted(CAPS))
    def test_no_value_named_uncapped_in_the_readme_has_a_cap(self, scenario):
        patterns = _readme_uncapped()
        assert [name for name in _caps(_default_result(scenario))
                if any(fnmatchcase(name, p) for p in patterns)] == []

    def run_with(self, monkeypatch, tmp_path, **result):
        spec = cli._SCENARIOS["kepler"]
        monkeypatch.setitem(cli._SCENARIOS, "kepler", dataclasses.replace(
            spec, run=lambda cfg: cli.ScenarioResult(columns={}, **result)))
        out = tmp_path / "r.json"
        code = main(["--scenario", "kepler", "--out-json", str(out)])
        return code, json.loads(out.read_text())["flags"]

    @pytest.mark.parametrize("value,code,flags", [
        (1e-9, 0, []), (1e-9 * (1 + 1e-15), 2, ["tolerance-failure"]),
        (np.nan, 2, ["tolerance-failure"]), (np.inf, 2, ["tolerance-failure"])])
    @pytest.mark.parametrize("kind", ["drift", "residual"])
    def test_a_value_not_within_its_cap_fails(self, monkeypatch, tmp_path, kind, value, code,
                                              flags):
        reported = ({"drifts": [("a", value, 0.0, 1e-9)]} if kind == "drift"
                    else {"residuals": [("a", value, 1e-9)]})
        assert self.run_with(monkeypatch, tmp_path, **reported) == (code, flags)

    def test_an_uncapped_value_never_fails(self, monkeypatch, tmp_path):
        assert self.run_with(monkeypatch, tmp_path, drifts=[("a", 1.0, 1.0, None)],
                             residuals=[("b", np.nan, None)]) == (0, [])

    def test_the_one_csv_format(self):
        columns = {"tag": ["a", "b"], "k": np.arange(2), "t": [0.5, -2.0],
                   "z": np.array([1 + 2j, -0.25j])}
        assert written(columns) == (
            f"tag,k,t,re(z),im(z)\na,0,{_fmt(0.5)},{_fmt(1.0)},{_fmt(2.0)}\n"
            f"b,1,{_fmt(-2.0)},{_fmt(-0.0)},{_fmt(-0.25)}\n")
        assert _fmt(0.5) == "5.00000000000000000e-01"
        assert written({"error": []}) == "error\n"
        assert written({}) == "\n"

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                       np.uint8, np.uint16, np.uint32, np.uint64])
    def test_integer_columns_equal_the_per_cell_str(self, dtype):
        """An integer column, cast to bytes in one call, reads as ``str`` of
        each cell: at both extremes of its dtype, next to them, at zero and,
        for a signed dtype, at -1; beside a float column, and empty."""
        info = np.iinfo(dtype)
        values = np.array(sorted({info.min, info.min + 1, max(info.min, -1), 0, 1,
                                  info.max - 1, info.max}), dtype=dtype)
        columns = {"k": values, "t": np.linspace(-1.0, 1.0, len(values))}
        assert written(columns) == joined(*csv_table_per_cell(columns))
        assert written({"k": values}) == "k\n" + "".join(f"{v}\n" for v in values.tolist())
        assert written({"k": values[:0]}) == "k\n"

    def test_special_columns_equal_the_per_cell_writer(self):
        """Each named case in one column of its own: 0.0 beside -0.0 (and
        in a complex column's parts), NaNs of either sign and with a
        payload, infinities beside a subnormal, a constant column, a column
        without repeats, exact ties and the kernel's band edges, float32,
        long double, int, bool and str; rows stop at the shortest column."""
        columns = {"zeros": [0.0, -0.0, 0.0, -0.0],
                   "nans": [np.nan, -np.nan, PAYLOAD_NAN, np.nan],
                   "infs": [np.inf, -np.inf, np.inf, 5e-324], "constant": [1.5] * 4,
                   "distinct": [1.0, 2.0, 3.0, 4.0], "ties": TIES_AND_EDGES[:5],
                   "edges": BAND_EDGES[2:],
                   "z": np.array([1 + 0j, complex(1, -0.0), complex(-0.0, 0.0), 1 + 0j]),
                   "f4": np.array([0.1, 0.1, -0.0, 0.0], dtype=np.float32),
                   "g": np.array([1e-4000, 0.1, -np.inf, 1.5], dtype=np.longdouble),
                   "k": np.arange(4), "b": np.arange(4) > 1, "s": ["a", "b", "a", "b"]}
        header, rows = written_rows(columns)
        assert (header, rows) == csv_table_per_cell(columns)
        assert len(rows) == 4
        assert rows[0][0] != rows[1][0] and rows[0][0] == rows[2][0] == _fmt(0.0)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.data())
    def test_the_table_equals_the_per_cell_writer(self, data):
        """The written text is the per-cell writer's table, joined: on
        repeated and constant columns, +-0.0, NaNs of either sign, +-inf,
        subnormals, exact ties, the kernel's band edges, float32, long
        double, complex, int, bool and str columns (a str cell may hold a
        ",")."""
        rows = data.draw(st.integers(0, 12))
        columns = {}
        for name in range(data.draw(st.integers(1, 6))):
            kind = data.draw(st.sampled_from(["f8", "f4", "g", "c16", "i8", "?", "U"]))
            if kind in ("f8", "f4", "g", "c16"):
                # every part draws from a few values, so that values repeat
                pool = data.draw(st.lists(st.sampled_from(SPECIAL_FLOATS + TIES_AND_EDGES)
                                          | st.floats(), min_size=1, max_size=4))
                column = np.empty(rows, dtype=kind)
                for part in (column.real, column.imag) if kind == "c16" else (column,):
                    with np.errstate(over="ignore"):
                        part[:] = data.draw(st.lists(st.sampled_from(pool), min_size=rows,
                                                     max_size=rows))
            elif kind == "U":
                column = data.draw(st.lists(st.sampled_from(["a", "b,c", ""]), min_size=rows,
                                            max_size=rows))
            else:
                column = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=rows,
                                                     max_size=rows))).astype(kind)
            columns[f"c{name}"] = column
        assert written(columns) == joined(*csv_table_per_cell(columns))


def exact_ties(rng, per_decade):
    """Per decade e of -9..15 and sign, up to ``per_decade`` values x = m
    2**(e-18) with m odd below 2**53, so that x 10**(17-e) = N + 1/2."""
    return [sign * math.ldexp(m, e - 18) for e in range(-9, 16) for sign in (1, -1)
            for m in rng.integers(*(min(math.ceil(Fraction(10) ** k * 2 ** (18 - e)), 2 ** 53)
                                    for k in (e, e + 1)), size=per_decade).tolist() if m % 2]


def near_ties():
    """For s = 23..29, where hi + lo of 10**s is inexact: x = m 2**-(u+s)
    with m below 2**53, so that x 10**s = m 5**s / 2**u, 18 digits before
    the point, has the fraction 1/2 + r 2**-u, r = +-1 or +-3."""
    out = []
    for s, r, u in itertools.product(range(23, 30), (1, -1, 3, -3), range(40, 70)):
        m = (2 ** (u - 1) + r) * pow(5 ** s, -1, 2 ** u) % 2 ** u
        m -= (m - math.ceil(Fraction(10 ** 17 * 2 ** u, 5 ** s))) // 2 ** u * 2 ** u
        out += [math.ldexp(k, -u - s) for k in range(m, min(2 ** 53, math.ceil(
            Fraction(10 ** 18 * 2 ** u, 5 ** s))), 2 ** u)]
    return out


def eighteen_digits(v):
    """Exactly, y = |v| 10**(17-E) with 10**E <= |v| < 10**(E+1): 18 digits
    before the point and the fraction that rounding reads."""
    e = math.floor(math.log10(abs(v)))
    e += (abs(Fraction(v)) >= Fraction(10) ** (e + 1)) - (abs(Fraction(v)) < Fraction(10) ** e)
    return abs(Fraction(v)) * Fraction(10) ** (17 - e)


class TestFloatText:
    """``cli._float_text`` against ``_fmt``, bit for bit, on a fixed seeded
    set: every value it decides reads as ``_fmt`` writes it, and it decides
    every random bit pattern of its band but ties and near-ties, and leaves
    every constructed tie and near-tie."""

    @pytest.fixture(scope="class")
    def cases(self):
        rng = np.random.default_rng(20260)
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        subnormal = rng.integers(1, 2 ** 52, size=1000, dtype=np.uint64).view(np.float64)
        sets = {"random": rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64).view(float),
                "powers": np.concatenate([powers, np.nextafter(powers, 0),
                                          np.nextafter(powers, np.inf)]),
                "ties": np.array(exact_ties(rng, 40)), "near-ties": np.array(near_ties()),
                "special": np.array([*subnormal, *-subnormal, 0.0, -0.0, np.nan, -np.nan,
                                     PAYLOAD_NAN, -PAYLOAD_NAN, np.inf, -np.inf,
                                     *TIES_AND_EDGES])}
        # random float32 bit patterns, NaNs of either kind among them; widening
        # a signalling NaN raises numpy's invalid flag, as in ``_write_csv``
        float32 = rng.integers(0, 2 ** 32, size=20_000, dtype=np.uint32).view(np.float32)
        with np.errstate(invalid="ignore"):
            x = np.concatenate([*sets.values(), float32])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cells = cli._float_text(x)
        # _fmt's text of each value as the kernel lays it out: NUL for "+"
        want = np.array([text.encode() if text[0] == "-" else b"\0" + text.encode() for text in
                         map(_fmt, x[:-len(float32)].tolist() + float32.tolist())], dtype="S25")
        return sets, x, cells, want

    def test_a_float32_column_is_written_silently(self):
        """``_write_csv`` widens float32 columns and complex64 parts holding
        signalling NaNs without a warning, and writes ``_fmt`` of each value."""
        rng = np.random.default_rng(20260)
        bits = rng.integers(0, 2 ** 32, size=20_000, dtype=np.uint32)
        signalling = (bits & 0x7FC00000 == 0x7F800000) & (bits & 0x3FFFFF != 0)
        assert signalling.sum() > 10
        columns = {"x": bits.view(np.float32), "z": np.zeros(len(bits), np.complex64)}
        columns["z"].real, columns["z"].imag = columns["x"], columns["x"][::-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = written(columns)
        assert text == joined(*csv_table_per_cell(columns))

    def test_every_decided_value_reads_as_fmt_writes_it(self, cases):
        _, x, cells, want = cases
        decided = cells.any(axis=1)
        got = cells.view("S25")[:, 0]
        assert decided.sum() > 200_000
        assert [(float(v), g, w) for v, g, w in zip(x[decided], got[decided], want[decided])
                if g != w][:5] == []

    def test_it_decides_its_band_and_leaves_the_rest(self, cases):
        """Of the random bit patterns in its band it leaves only the exact
        ties and near-ties (those of 14-15 digits and a few fraction bits)."""
        sets, x, cells, _ = cases
        decided = cells.any(axis=1)
        band = (np.abs(x) >= 1e-280) & (np.abs(x) <= 1e280)
        random = np.arange(len(x)) < len(sets["random"])
        left = x[random & band & ~decided].tolist()
        assert len(left) < 200
        assert all(abs(eighteen_digits(v) % 1 - Fraction(1, 2)) <= 1e-6 for v in left)
        assert not decided[~band & (x != 0)].any()
        assert decided[x == 0].all()
        assert (cells[~decided] == 0).all()

    def test_it_leaves_every_tie_and_near_tie(self, cases):
        """Exact ties, and near-ties whose fraction is within 1e-6 of 1/2 but
        further from it than the kernel's error reaches at most."""
        sets, x, cells, _ = cases
        for v in sets["ties"].tolist():
            y = eighteen_digits(v)
            assert y % 1 == Fraction(1, 2) and 10 ** 17 <= y < 10 ** 18, v
        for v in sets["near-ties"].tolist():
            y = eighteen_digits(v)
            assert 0 < abs(y % 1 - Fraction(1, 2)) <= 1e-6 and 10 ** 17 <= y < 10 ** 18, v
        for name in ("ties", "near-ties"):
            left = np.isin(x, sets[name])
            assert left.sum() > 500 and not cells[left].any(), name


# One defect in one route of the capped rank-1 values: (the caps it trips,
# argv, module, function, the planted function made from the original).
RATIONAL = ["--scenario", "ruijsenaars-rational"]
RELATIVISTIC = ["--scenario", "relativistic-ruijsenaars", "--t-max", "0.01"]


def _scaled_diagonal_products(dual):
    """``_dual_residuals`` with the diagonal products (prod) times 1 + 1e-5."""
    return lambda *parts: dual(*parts[:-2], (1 + 1e-5) * parts[-2], parts[-1])


def _scaled_pair_products(pairs):
    """``_pair_products`` with the products times 1 + 1e-5."""
    return lambda R: pairs(R)[:2] + ((1 + 1e-5) * pairs(R)[2],)


RANK_ONE_PLANTS = [
    # every product formula times 1 + 2e-6; of the two rational ones only the
    # kappa-scaled is capped
    (["closed-form-residual"], RATIONAL, calogero, "_miss",
     lambda miss: lambda formula, oracle: miss((1 + 2e-6) * formula, oracle)),
    # measured at the defaults: tr-g-dual 1.0e-5, tr-g2-dual 2.0e-5
    (["tr-g-dual", "tr-g2-dual"], RATIONAL, calogero, "_dual_residuals",
     _scaled_diagonal_products),
    # measured at the defaults: 1.0e-5
    (["h-ruijsenaars-dual"], RATIONAL, calogero, "_pair_products", _scaled_pair_products),
    # every factor of the corrected psi-phi product formula times 1 + 1e-6
    (["psi-phi-corrected-residual"], RELATIVISTIC, double, "_ratio",
     lambda ratio: lambda num, den: (1 + 1e-6) * ratio(num, den)),
    # the rank-1 class eigenvalues shifted by 1e-5
    (["mu-eigenvalue-deviation"], RELATIVISTIC, double, "_class_eigenvalues",
     lambda eigenvalues: lambda q, n: eigenvalues(q, n) + 1e-5),
    (["trace-dual-path"], RELATIVISTIC, double, "_dual_residuals", _scaled_diagonal_products),
    (["h2-dual-path"], RELATIVISTIC, calogero, "_pair_products", _scaled_pair_products),
]


class TestRankOneCaps:
    """Negative controls of the rank-1 caps: a defect that puts values past
    1e-6, and so past their caps, fails the report by those caps alone:
    exit 2, ``tolerance-failure``, and the values in the report."""

    @pytest.mark.parametrize("tripped,argv,module,function,plant", RANK_ONE_PLANTS,
                             ids=["+".join(plant[0]) for plant in RANK_ONE_PLANTS])
    def test_a_planted_defect_fails_its_cap(self, tmp_path, monkeypatch, tripped, argv,
                                            module, function, plant):
        monkeypatch.setattr(module, function, plant(getattr(module, function)))
        out = tmp_path / "r.json"
        assert main(argv + ["--out-json", str(out)]) == 2
        payload = json.loads(out.read_text())
        assert payload["flags"] == ["tolerance-failure"]
        values = {r["name"]: r["value"] for r in payload["oracle_residuals"]}
        caps = CAPS[argv[1]]
        assert [v for v in values if v in caps and not values[v] <= caps[v]] == tripped
        assert min(values[v] for v in tripped) > 1e-6

    def test_every_rank_one_cap_is_planted(self):
        names = {name for scenario in ("ruijsenaars-rational", "relativistic-ruijsenaars")
                 for name in CAPS[scenario] if not name.startswith("tr(")}
        planted = [name for tripped, *_ in RANK_ONE_PLANTS for name in tripped]
        assert len(planted) == len(set(planted))
        assert set(planted) == names

    def test_a_solve_defect_past_the_oracle_cap_raises_first(self, tmp_path, monkeypatch,
                                                            capsys):
        """Every oracle solution times 1 + 2e-10 puts every oracle residual
        near 2e-10, past the solve's bound of 1e-10: the solve's own check
        stops the run, exit 2 with ``ConsistencyError``, no reported value."""
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: (1 + 2e-10) * solve(a, b))
        out = tmp_path / "r.json"
        assert main(RATIONAL + ["--out-json", str(out)]) == 2
        payload = json.loads(out.read_text())
        assert payload["flags"] == ["numerical-failure:ConsistencyError"]
        assert payload["oracle_residuals"] == []
        assert "solve residual" in capsys.readouterr().err


def _scaled_field(make_chart, eps):
    """``facto.chart_sklyanin`` with its field times 1 + eps: the rk4
    reference runs its flow at the wrong speed."""
    def planted(n):
        chart = make_chart(n)
        return dataclasses.replace(chart, field=lambda z, g: (1 + eps) * chart.field(z, g))

    return planted


# One defect in one route of the factorization checks: (the check whose
# tr(x^1) and tr(x^2) caps it trips, the ``facto`` function it replaces,
# the planted function made from the original and eps, the eps that trips
# the caps, a smaller eps within them).  Measured at the defaults:
#  - cross-check: 1.5e-6 and 6.3e-6 at eps = 1e-4, 1.5e-7 and 6.3e-7 at
#    1e-5 (unplanted 4.5e-16, 1.1e-14); the rk4 reference runs through
#    ``integrate._run``;
#  - semigroup, the composed flow's time times 1 + eps: 6.3e-7 and 2.7e-6
#    at 1e-4, 6.3e-9 and 2.7e-8 at 1e-6;
#  - trace-drift, both conjugations times 1 + eps, so that x(t) leaves its
#    conjugacy class: 8.8e-9 at 1e-9 (and cross-check 1.2e-9, semigroup
#    1.0e-9, within their caps), 8.8e-11 at 1e-11.
FACTORIZATION_PLANTS = [
    ("cross-check", "chart_sklyanin", _scaled_field, 1e-4, 1e-5),
    ("semigroup", "factorization_flow",
     lambda flow, eps: lambda x0, H, t: flow(x0, H, (1 + eps) * t), 1e-4, 1e-6),
    ("trace-drift", "_conjugations",
     lambda conj, eps: lambda x0, xi, t: tuple((1 + eps) * c for c in conj(x0, xi, t)),
     1e-9, 1e-11),
]


class TestFactorizationCaps:
    """Negative controls of the factorization-flow caps: a defect in the
    route of one check puts both of its values (k = 1, 2) past their caps,
    which alone fail the report; the same defect at a smaller eps passes."""

    def run_planted(self, tmp_path, monkeypatch, function, plant, eps, original):
        monkeypatch.setattr(facto, function, plant(original, eps))
        out = tmp_path / "r.json"
        code = main(["--scenario", "factorization-flow", "--out-json", str(out)])
        payload = json.loads(out.read_text())
        return code, payload["flags"], {r["name"]: r["value"] for r in payload["oracle_residuals"]}

    @pytest.mark.parametrize("check,function,plant,eps,within", FACTORIZATION_PLANTS,
                             ids=[plant[0] for plant in FACTORIZATION_PLANTS])
    def test_a_planted_defect_fails_its_caps(self, tmp_path, monkeypatch, check, function,
                                             plant, eps, within):
        caps, original = CAPS["factorization-flow"], getattr(facto, function)
        code, flags, values = self.run_planted(tmp_path, monkeypatch, function, plant, eps,
                                               original)
        assert (code, flags) == (2, ["tolerance-failure"])
        assert [name for name, cap in caps.items() if not values[name] <= cap] == \
            [f"{check}-tr(x^1)", f"{check}-tr(x^2)"]
        assert self.run_planted(tmp_path, monkeypatch, function, plant, within,
                                original)[:2] == (0, [])

    def test_every_factorization_cap_is_planted(self):
        planted = [f"{check}-tr(x^{k})" for check, *_ in FACTORIZATION_PLANTS for k in (1, 2)]
        assert sorted(planted) == sorted(CAPS["factorization-flow"])


# (scenario, projection drift, eps): eps (a)0, with (a)0 the traceless part
# of the matrix the flow holds fixed (x for relativistic-cm, y for
# relativistic-ruijsenaars), added to that block of the pair-chart field,
# at the smallest power of ten eps that puts the drift past its cap.
# Measured at the defaults, eps = 1e-6: tr(mu~^1) 1.6e-7, tr(x^2) 1.7e-7,
# tr(mu~^2) 4.5e-7, tr(x^2 mu~) 1.3e-7, tr(y^2) 3.5e-7, tr(mu^2) 2.6e-7,
# tr(y^2 mu) 2.7e-7; eps = 1e-5: tr(x mu~) 7.0e-7, tr(mu^1) 6.6e-7.  Each
# drift is linear in eps, so at eps / 10 it is within the cap.
DRIFT_PLANTS = [
    ("relativistic-cm", "tr(mu~^1)", 1e-6), ("relativistic-cm", "tr(x^2)", 1e-6),
    ("relativistic-cm", "tr(mu~^2)", 1e-6), ("relativistic-cm", "tr(x mu~)", 1e-5),
    ("relativistic-cm", "tr(x^2 mu~)", 1e-6),
    ("relativistic-ruijsenaars", "tr(mu^1)", 1e-5),
    ("relativistic-ruijsenaars", "tr(y^2)", 1e-6),
    ("relativistic-ruijsenaars", "tr(mu^2)", 1e-6),
    ("relativistic-ruijsenaars", "tr(y^2 mu)", 1e-6),
]
# the projection drifts that no traceless plant trips, with the reason
UNPLANTABLE_DRIFTS = {
    ("relativistic-cm", "tr(x^1)"): "a traceless velocity of x leaves tr(x) fixed",
    ("relativistic-ruijsenaars", "tr(y^1)"): "a traceless velocity of y leaves tr(y) fixed",
}


class TestProjectionDriftCaps:
    """Negative controls of the projection-drift caps of the two pair flows.
    The plant is traceless: a plant with a trace in the block of the flow's
    gradient fails the field's antisymmetry self-check before any drift."""

    def drifts(self, tmp_path, monkeypatch, scenario, eps):
        def planted_chart(n):
            chart = poisson.chart_heisenberg_double(n)
            part = slice(0, n * n) if scenario == "relativistic-cm" else slice(n * n, None)

            def field(z, g):
                a = z[part].reshape(n, n)
                v = chart.field(z, g)
                v[part] += eps * (a - np.trace(a) / n * np.eye(n)).ravel()
                return v

            return dataclasses.replace(chart, field=field)

        monkeypatch.setattr(cli, "chart_heisenberg_double", planted_chart)
        out = tmp_path / "r.json"
        code = main(["--scenario", scenario, "--out-json", str(out)])
        payload = json.loads(out.read_text())
        return code, payload["flags"], {d["name"]: d["max_abs"] for d in payload["drifts"]}

    @pytest.mark.parametrize("scenario,name,eps", DRIFT_PLANTS,
                             ids=[f"{s}-{name}" for s, name, _ in DRIFT_PLANTS])
    def test_a_planted_velocity_fails_the_cap(self, tmp_path, monkeypatch, scenario, name,
                                              eps):
        code, flags, drifts = self.drifts(tmp_path, monkeypatch, scenario, eps)
        assert (code, flags) == (2, ["tolerance-failure"])
        assert drifts[name] > CAPS[scenario][name]
        assert self.drifts(tmp_path, monkeypatch, scenario, eps / 10)[2][name] <= \
            CAPS[scenario][name]

    def test_every_projection_drift_is_planted_or_listed(self):
        names = {(scenario, name) for scenario, cap in CAPS.items() for name in cap
                 if scenario.startswith("relativistic-") and name.startswith("tr(")}
        planted = {(scenario, name) for scenario, name, _ in DRIFT_PLANTS}
        assert not planted & set(UNPLANTABLE_DRIFTS)
        assert planted | set(UNPLANTABLE_DRIFTS) == names


# A drag force, dp/dt gaining -eps p, added to the Kepler field: a
# non-conservative plant that moves every monitored quantity.  Measured at
# the defaults, eps = 1e-8: M1 4.0e-8, M2 4.3e-8, M3 4.3e-8, A1 2.5e-8,
# A2 4.7e-8, A3 5.2e-8, H 4.8e-8; eps = 1e-9: 2.2e-9 to 4.8e-9; unplanted:
# 1.4e-10 to 4.5e-10.  So every drift cap is planted, and no Kepler drift
# needs a table of unplantable names.
KEPLER_DRAG = 1e-8


class TestKeplerDriftCaps:
    """Negative control of the Kepler drift caps: the orbit integrated with
    a planted drag, swapped in through ``kepler.chart_canonical``."""

    def drifts(self, tmp_path, monkeypatch, eps, chart=poisson.chart_canonical(3)):
        def field(z, g):
            return chart.field(z, g) + eps * np.r_[-z[:3], np.zeros(3)]

        monkeypatch.setattr(kepler, "chart_canonical",
                            lambda n: dataclasses.replace(chart, field=field))
        out = tmp_path / "r.json"
        code = main(["--scenario", "kepler", "--out-json", str(out)])
        payload = json.loads(out.read_text())
        return code, payload["flags"], {d["name"]: d["max_abs"] for d in payload["drifts"]}

    def test_a_planted_drag_fails_every_drift_cap(self, tmp_path, monkeypatch):
        caps = {name: CAPS["kepler"][name] for name in KEPLER_DRIFTS}
        code, flags, drifts = self.drifts(tmp_path, monkeypatch, KEPLER_DRAG)
        assert (code, flags) == (2, ["tolerance-failure"])
        assert [name for name, cap in caps.items() if not drifts[name] > cap] == []
        code, flags, drifts = self.drifts(tmp_path, monkeypatch, KEPLER_DRAG / 10)
        assert (code, flags) == (0, [])
        assert [name for name, cap in caps.items() if not drifts[name] <= cap] == []


class TestKeplerRelationCaps:
    """Negative controls of the caps of ``orthogonality-(M,A)`` and
    ``quadratic-relation``, each 64 eps: a flipped sign of the quadratic
    relation (values 0.64-1.87 at seeds 0-2, against at most 5.25 eps over
    seeds 0-39 and the kepler-orbit pool) and the Lenz vector planted as
    A + eps M, which moves (M, A) by eps |M|^2 and (A, A) only by
    eps^2 |M|^2.  Measured at the defaults, seed 0: orthogonality-(M,A)
    1.35e-13 at eps = 1e-13, 1.48e-15 at 1e-15 (unplanted 1.7e-16), against
    a cap of 1.42e-14."""

    def report(self, tmp_path, seed=0):
        out = tmp_path / "r.json"
        code = main(["--scenario", "kepler", "--seed", str(seed), "--out-json", str(out)])
        payload = json.loads(out.read_text())
        values = {d["name"]: d["max_abs"] for d in payload["drifts"]}
        values.update((r["name"], r["value"]) for r in payload["oracle_residuals"])
        caps = CAPS["kepler"]
        return code, payload["flags"], [name for name in caps if not values[name] <= caps[name]]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_flipped_quadratic_sign_fails_its_cap(self, tmp_path, monkeypatch, seed):
        monkeypatch.setattr(kepler, "QUADRATIC_RELATION_SIGN", -kepler.QUADRATIC_RELATION_SIGN)
        assert self.report(tmp_path, seed) == (2, ["tolerance-failure"], ["quadratic-relation"])

    def test_a_planted_lenz_vector_fails_the_orthogonality_cap(self, tmp_path, monkeypatch):
        observables = kepler.kepler_observables

        def planted(eps):
            def planted_observables(gamma):
                obs = observables(gamma)
                return obs[:3] + [dataclasses.replace(a, fn=lambda z, a=a, m=m: a(z) + eps * m(z))
                                  for a, m in zip(obs[3:6], obs[:3])] + obs[6:]
            return planted_observables

        monkeypatch.setattr(kepler, "kepler_observables", planted(1e-13))
        assert self.report(tmp_path) == (2, ["tolerance-failure"], ["orthogonality-(M,A)"])
        monkeypatch.setattr(kepler, "kepler_observables", planted(1e-15))
        assert self.report(tmp_path) == (0, [], [])


class TestJointInvariantCap:
    """Negative control of ``cm-rational``'s ``joint-invariants`` cap: the
    central flow's exponential, planted as exp(a + eps [a, N]) with a = t x
    and N the upper shift, flows by the gradient x + eps [x, N], which does
    not commute with the diagonal x, so it moves g x g^-1 off the conjugacy
    class its joint invariants fix.  Measured at the defaults: 4.6e-8 at
    eps = 1e-6, 4.6e-11 at 1e-9 (unplanted 1.3e-16), against a cap of at
    least 1e-9."""

    def report(self, tmp_path, monkeypatch, eps):
        def planted(a):
            shift = eps * np.eye(len(a), k=1)
            return mat_exp(a + a @ shift - shift @ a)

        monkeypatch.setattr(calogero, "mat_exp", planted)
        out = tmp_path / "r.json"
        code = main(["--scenario", "cm-rational", "--out-json", str(out)])
        return code, json.loads(out.read_text())["flags"]

    def test_a_noncommuting_gradient_fails_the_cap(self, tmp_path, monkeypatch):
        assert self.report(tmp_path, monkeypatch, 1e-6) == (2, ["tolerance-failure"])
        assert self.report(tmp_path, monkeypatch, 1e-9) == (0, [])


def _symmetric_term(field, dim, eps):
    """The field plus eps g: Pi + eps id, whose symmetric part is eps id."""
    return lambda z, g: field(z, g) + eps * g


def _scaled_antisymmetric_term(field, dim, eps):
    """The field plus eps (sum z) A g, A the constant antisymmetric matrix
    with ones above the diagonal: antisymmetric, but not Poisson.  A
    rescaled field f Pi would not do: on a rank-2 bivector, as on
    sklyanin(n=2), f Pi is Poisson for every f."""
    a = np.triu(np.ones((dim, dim)), 1)
    a -= a.T
    return lambda z, g: field(z, g) + eps * z.sum() * a.dot(g)


def _covector_nonlinear_term(field, dim, eps):
    """The field plus eps (sum g) A g, A as in ``_scaled_antisymmetric_term``:
    quadratic in the covector, so not a derivation, while g . A g = 0 keeps
    every self-check and the antisymmetry of Pi(x) = field(x, e_k)."""
    a = np.triu(np.ones((dim, dim)), 1)
    a -= a.T
    return lambda z, g: field(z, g) + eps * g.sum() * a.dot(g)


# One defect in the fields of the verify-brackets charts: (the check whose
# caps it trips, the plant made from a chart's field, its dim and eps, the
# eps that trips the caps, a smaller eps within them, whether a chart with
# the self-check is planted, the prefixes of the other caps it also trips).
# Measured at the defaults:
#  - antisymmetry, a symmetric term: 2e-9 on each chart at eps = 1e-9,
#    2e-11 at 1e-11 (unplanted 0);
#  - jacobi: 1.0e-3 (canonical, cm-loglinear) to 2.8e-2
#    (relativistic-loglinear) at eps = 1e-3, 10^-3 of that at 1e-6
#    (unplanted 3.5e-11 or less);
#  - leibniz, a term quadratic in the covector: 1.9e-2 (canonical,
#    cm-loglinear), 1.1e-2 (relativistic-loglinear), 3.2e-3
#    (heisenberg-double) and 1.9e-3 (sklyanin) at eps = 1e-3, 10^-5 of that
#    at 1e-8 (unplanted 3.6e-15 or less); jacobi also reads 1.2e-2, 1.6e-2
#    and 3.2e-3 on the last three at 1e-3, 1.6e-7 or less at 1e-8.
BRACKET_PLANTS = [
    ("antisymmetry", _symmetric_term, 1e-9, 1e-11, False, ()),
    ("jacobi", _scaled_antisymmetric_term, 1e-3, 1e-6, True, ()),
    ("leibniz", _covector_nonlinear_term, 1e-3, 1e-8, True,
     ("jacobi:relativistic", "jacobi:heisenberg", "jacobi:sklyanin")),
]
# the bracket caps that no field plant trips, with the reason
UNPLANTABLE_BRACKET = {
    f"antisymmetry:{chart}": "the chart's self-check raises ConsistencyError on the first "
                             "field or bivector that loses antisymmetry"
    for chart in _CHARTS if chart.startswith(("heisenberg", "sklyanin"))
}


def _tripped(check, also, charts):
    """The verify-brackets caps that a plant of ``check`` trips on the
    ``charts`` it is planted in: its own check's, and those starting with a
    prefix of ``also``."""
    return [name for name in CAPS["verify-brackets"] if name.split(":")[1] in charts
            and (name.startswith(f"{check}:") or name.startswith(also))]


class TestBracketCaps:
    """Negative controls of the ``verify-brackets`` caps: a defect in the
    fields puts the values of one check past their caps on every planted
    chart, and those caps alone fail the report; the same defect at a
    smaller eps passes."""

    def report(self, tmp_path, monkeypatch, plant, eps, planted, argv=(),
               suite=cli._bracket_suite_charts):
        """The report with ``plant`` in the field of each chart ``planted``
        accepts."""
        monkeypatch.setattr(cli, "_bracket_suite_charts", lambda n: [
            (dataclasses.replace(chart, field=plant(chart.field, chart.dim, eps))
             if planted(chart) else chart, sample) for chart, sample in suite(n)])
        out = tmp_path / "r.json"
        code = main(["--scenario", "verify-brackets", *argv, "--out-json", str(out)])
        payload = json.loads(out.read_text())
        return code, payload["flags"], {r["name"]: r["value"]
                                        for r in payload["oracle_residuals"]}

    @pytest.mark.parametrize("check,plant,eps,within,selfchecked,also", BRACKET_PLANTS,
                             ids=[plant[0] for plant in BRACKET_PLANTS])
    def test_a_planted_field_fails_its_caps(self, tmp_path, monkeypatch, check, plant, eps,
                                            within, selfchecked, also):
        def planted(chart):
            return selfchecked or not chart.selfcheck

        caps = CAPS["verify-brackets"]
        code, flags, values = self.report(tmp_path, monkeypatch, plant, eps, planted)
        assert (code, flags) == (2, ["tolerance-failure"])
        charts = [chart.name for chart, _ in cli._bracket_suite_charts(3) if planted(chart)]
        assert [name for name, cap in caps.items() if not values[name] <= cap] == _tripped(
            check, also, charts)
        assert self.report(tmp_path, monkeypatch, plant, within, planted)[:2] == (0, [])

    @pytest.mark.parametrize("name", [chart.name for chart, _ in cli._bracket_suite_charts(3)
                                      if chart.selfcheck])
    def test_a_symmetric_term_on_a_self_checked_chart_raises_first(self, tmp_path,
                                                                   monkeypatch, capsys, name):
        code, flags, values = self.report(tmp_path, monkeypatch, _symmetric_term, 1e-9,
                                          lambda chart: chart.name == name, ["--samples", "2"])
        assert (code, flags, values) == (2, ["numerical-failure:ConsistencyError"], {})
        assert f"chart {name!r} lost antisymmetry" in capsys.readouterr().err

    def test_every_bracket_cap_is_planted_or_listed(self):
        """A cap is planted when some plant trips it, as its own check or
        beside it."""
        planted = [name for check, *_, selfchecked, also in BRACKET_PLANTS
                   for name in _tripped(check, also, [
                       chart.name for chart, _ in cli._bracket_suite_charts(3)
                       if selfchecked or not chart.selfcheck])]
        assert not set(planted) & set(UNPLANTABLE_BRACKET)
        assert set(planted) | set(UNPLANTABLE_BRACKET) == set(CAPS["verify-brackets"])


class TestSeparationFlag:
    """Negative controls of ``inconclusive-separation``: a fiber check whose
    samples do not leave the base point flags its system, and the flag reads
    each margin against ``TOL.separation_margin``."""

    def report(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["--scenario", "duality-check", "--out-json", str(out)])
        payload = json.loads(out.read_text())
        return code, payload["flags"], {r["name"]: r["value"]
                                        for r in payload["oracle_residuals"]}

    def test_identity_centralizer_elements_flag_the_relativistic_fibers(self, tmp_path,
                                                                      monkeypatch):
        monkeypatch.setattr(double, "_centralizer_elements",
                            lambda m, samples, rng: [np.eye(len(m))] * samples)
        code, flags, values = self.report(tmp_path)
        assert (code, flags) == (2, ["inconclusive-separation:relativistic"])
        assert values["relativistic-min-margin"] == 0.0
        assert values["rational-min-margin"] > TOL.separation_margin

    def test_zero_normals_flag_the_rational_fibers(self, tmp_path, monkeypatch):
        """Every normal 0 makes the torus element 1 and c = 0: each sample
        of either fiber is the base point."""
        class Zeros:
            def normal(self, size=None):
                return np.zeros(size)

        rng_for = cli._rng_for
        monkeypatch.setattr(cli, "_rng_for",
                            lambda cfg, index=0: Zeros() if index == 1 else rng_for(cfg, index))
        code, flags, values = self.report(tmp_path)
        assert (code, flags) == (2, ["inconclusive-separation:rational"])
        assert values["rational-min-margin"] == 0.0
        assert values["relativistic-min-margin"] > TOL.separation_margin

    @pytest.mark.parametrize("margin,code,flags", [
        (TOL.separation_margin, 2, ["inconclusive-separation:rational"]),
        (np.nextafter(TOL.separation_margin, np.inf), 0, []),
        (np.nan, 2, ["inconclusive-separation:rational"])])
    def test_a_margin_not_above_the_threshold_flags(self, tmp_path, monkeypatch, margin,
                                                    code, flags):
        monkeypatch.setattr(calogero, "duality_fiber_check",
                            lambda x, gamma, samples, rng: np.full((samples, samples), margin))
        assert self.report(tmp_path)[:2] == (code, flags)


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


class TestParserReuse:
    """``main`` parses every call with the one parser of the process; no
    call leaves state in it for the next."""

    def test_calls_in_one_process_leak_no_state(self, tmp_path, capsys):
        _build_parser.cache_clear()

        def report(tag, *extra):
            csv, js = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
            code = main(["--scenario", "cm-rational", "--seed", "3",
                         "--out-csv", str(csv), "--out-json", str(js), *extra])
            return code, csv.read_bytes(), js.read_bytes()

        first = report("first")
        assert first[0] == 0
        assert _build_parser() is _build_parser()
        assert report("n5", "--n", "5")[0] == 0
        code, _, js = report("default")
        assert code == 0
        assert json.loads(js)["parameters"]["n"] == cli._SCENARIOS["cm-rational"].options["n"] != 5
        assert main(["--scenario", "kepler", "--no-such-flag"]) == 1
        assert main(["--list-scenarios"]) == 0
        assert report("again") == first
        assert "usage:" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize("scenario,extra", [
        ("kepler", ["--t-max", "1.0"]),
        ("ruijsenaars-rational", ["--samples", "8"]),
        ("verify-brackets", ["--samples", "5"]),
        ("relativistic-ruijsenaars", ["--t-max", "0.05", "--samples", "2"]),
        ("ruijsenaars-rational", ["--n", "6", "--samples", "500"]),
        ("relativistic-cm", ["--t-max", "0.05"]),
        ("factorization-flow", ["--n", "8"]),
        ("relativistic-ruijsenaars", ["--n", "6", "--t-max", "0.05"]),
        ("ruijsenaars-rational", ["--n", "8", "--samples", "200"]),
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

        # tr(y^1), tr(mu^1), tr(y^2), tr(mu^2), tr(y^2 mu)
        assert len(calls) == 5 and set(calls.values()) == {1}
        assert {shape for _, shape in calls} == {(201, 18)}
        values = reports[0].values
        assert values.shape == (201, 5)
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
                  np.array([[float(c) for c in row[1:7]]
                            for row in written_rows(result.columns)[1]])]
        ma = quad = 0.0
        for state in states[::max(1, len(states) // 50)]:
            M, A, H = kepler_projection(state)
            ma = max(ma, abs(M @ A))
            quad = max(quad, abs(A @ A - gamma ** 2 - kepler.QUADRATIC_RELATION_SIGN
                                 * 2.0 * (M @ M) * H))
        assert {name: value for name, value, _ in result.residuals} == {
            "orthogonality-(M,A)": ma, "quadratic-relation": quad}
        assert result.parameters["energy"] == kepler_projection(states[0])[2]


class TestIntegratorMetrics:
    """The report's ``metrics`` counts the integrator's work; every field
    evaluation is a real ``ham_vector_field`` call."""

    @pytest.mark.parametrize("argv,stages,runs", [
        (["--scenario", "kepler"], 7, 1),
        (["--scenario", "relativistic-cm", "--n", "3", "--t-max", "0.05"], 4, 1),
        (["--scenario", "relativistic-ruijsenaars", "--t-max", "0.05", "--samples", "2"], 4, 1),
        (["--scenario", "factorization-flow", "--t-max", "0.02"], 4, 2),
    ])
    def test_field_evaluations_are_counted_calls(self, tmp_path, monkeypatch, argv,
                                                 stages, runs):
        calls = []
        field = integrate.ham_vector_field

        def counted(*args):
            calls.append(1)
            return field(*args)

        monkeypatch.setattr(integrate, "ham_vector_field", counted)
        out = tmp_path / "r.json"
        assert main(argv + ["--seed", "0", "--out-json", str(out)]) == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["field_evaluations"] == len(calls) > 0
        attempted = metrics["accepted_steps"] + metrics["rejected_steps"]
        assert metrics["field_evaluations"] == stages * attempted
        if stages == 4:
            assert metrics["rejected_steps"] == 0
            assert metrics["accepted_steps"] == runs * round(
                float(argv[argv.index("--t-max") + 1]) / 1e-3)
        else:
            assert metrics["rejected_steps"] >= 1

    def test_sample_sweeps_write_no_metrics(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["--scenario", "ruijsenaars-rational", "--samples", "3",
                     "--out-json", str(out)]) == 0
        assert "metrics" not in json.loads(out.read_text())


class TestPairFlowFastPath:
    """The pair-flow path takes the matrix-form field and exact gradients:
    building the bivector or differencing a gradient there fails the suite."""

    @pytest.mark.parametrize("family", ["cm", "ruijsenaars"])
    def test_flow_forms_no_bivector_and_no_difference(self, monkeypatch, family):
        made, fields, pis = [], [], []

        def refuse(*args):
            raise AssertionError("pair flow left the fast path")

        def counted_chart(n, make=cli.chart_heisenberg_double):
            made.append(n)
            chart = make(n)

            def field(z, g):
                fields.append(1)
                return chart.field(z, g)

            return dataclasses.replace(chart, field=field)

        pi = poisson.PoissonChart.pi

        def counted_pi(chart, *args):
            pis.append(1)
            return pi(chart, *args)

        monkeypatch.setattr(cli, "chart_heisenberg_double", counted_chart)
        monkeypatch.setattr(poisson.PoissonChart, "pi", counted_pi)
        monkeypatch.setattr(poisson, "_fd_gradient", refuse)
        cfg = ScenarioConfig(scenario=f"relativistic-{family}", n=3, t_max=0.02, dt=1e-3)
        result = cli._flow_scenario(cfg, family)
        assert made == [3]
        # one field call per pi call: no pi call built the bivector
        assert len(fields) == len(pis) == 4 * 20
        assert result.metrics["field_evaluations"] == 4 * 20
        assert result.flags == []


class TestFactorizationFlowSplits:
    def test_each_split_is_made_once_and_the_outputs_are_the_repeating_routes(
            self, monkeypatch):
        """At its defaults the scenario makes 48 ``ul_split_factorize`` calls:
        per power 21 trace rows and 3 for the one-point sweep.  The cross-check
        reads the t_max row; the outputs equal those of the former route,
        which split exp(t_max xi) again and swept the grid [t/2, t/2]."""
        cfg = ScenarioConfig(scenario="factorization-flow")
        splits = []
        split = facto.ul_split_factorize

        def counted(m):
            splits.append(1)
            return split(m)

        monkeypatch.setattr(facto, "ul_split_factorize", counted)
        result = cli._scenario_factorization_flow(cfg)
        assert len(splits) == 48
        monkeypatch.undo()

        x0 = cli._sl_matrices(cli._rng_for(cfg).normal(size=(2, cfg.n, cfg.n)), 0.25)
        rows, residuals = [], {}
        for k in (1, 2):
            H = facto.TracePower(k)
            xi = facto.left_differential(H, x0)
            exact = facto._conjugations(x0, xi, cfg.t_max)[0]
            ref = facto.sklyanin_reference_flow(x0, H, cfg.t_max, cfg.dt).final.reshape(x0.shape)
            sweep = facto.flow_consistency_sweep(x0, H, [cfg.t_max / 2, cfg.t_max / 2])
            residuals.update({
                f"cross-check-{H.name}": float(np.abs(exact - ref).max()),
                f"semigroup-{H.name}": float(sweep["semigroup"].max()),
                f"trace-drift-{H.name}": float(sweep["trace-drift"].max()),
                f"conjugation-{H.name}": float(sweep["conjugation"].max())})
            for t in np.linspace(0.0, cfg.t_max, 21):
                tr = traces_of_powers(facto._conjugations(x0, xi, t)[0], cfg.n)
                rows.append([str(k), _fmt(t)] + [_fmt(v) for z in tr for v in (z.real, z.imag)])
        assert [(name, value) for name, value, _ in result.residuals] == sorted(residuals.items())
        assert written_rows(result.columns)[1] == list(map(tuple, rows))
        assert result.flags == []
