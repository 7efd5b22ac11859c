"""Tests of the benchmark's own machinery: wrappers, counts, tail and self time."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from degint import calogero, cli, double, facto, integrate, kepler, poisson  # noqa: E402
from layers import LayerTracer, layer_metrics  # noqa: E402
import measure  # noqa: E402
from measure import tail  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402
from workloads import WORKLOADS, input_count, make_inputs, report_argv  # noqa: E402

BINDING_SITES = [
    (integrate, "rk4", "integrate.rk4"),
    (cli, "rk4", "integrate.rk4"),
    (kepler, "rk4", "integrate.rk4"),
    (facto, "rk4", "integrate.rk4"),
    (double, "rk4", "integrate.rk4"),
    (kepler, "adaptive", "integrate.adaptive"),
    (kepler, "monitor", "integrate.monitor"),
    (cli, "monitor", "integrate.monitor"),
    (double, "monitor", "integrate.monitor"),
    (facto, "mat_exp", "matrixcore.mat_exp"),
    (calogero, "mat_exp", "matrixcore.mat_exp"),
    (integrate, "ham_vector_field", "poisson.ham_vector_field"),
    (poisson, "bracket", "poisson.bracket"),
    (poisson.PoissonChart, "pi", "poisson.pi"),
    (poisson.Observable, "gradient", "poisson.gradient"),
]


def test_wrappers_reach_every_binding_site_and_are_removed():
    originals = [getattr(owner, attr) for owner, attr, _ in BINDING_SITES]
    with LayerTracer(SpanRecorder()):
        for owner, attr, span in BINDING_SITES:
            assert getattr(owner, attr).traced_span == span, (owner, attr)
        assert cli.rk4 is kepler.rk4 is facto.rk4 is double.rk4 is integrate.rk4
    for (owner, attr, _), original in zip(BINDING_SITES, originals):
        assert getattr(owner, attr) is original
        assert not hasattr(original, "traced_span")


def test_calls_through_imported_names_and_module_globals_are_recorded():
    rec = SpanRecorder()
    chart = poisson.chart_canonical(2)
    f, g, h = (poisson.coordinate(4, i) for i in range(3))
    with LayerTracer(rec):
        facto.factorization_flow(np.eye(2, dtype=complex), facto.TracePower(2), 0.1)
        poisson.jacobi_defect(chart, f, g, h, np.arange(4.0))
    calls, _ = rec.totals()
    assert calls["matrixcore.mat_exp"] >= 1          # facto's binding of mat_exp
    assert calls["poisson.bracket"] > 3              # nested brackets via globals
    assert rec.counts["poisson.gradient.fd_calls"] > 0


def test_pair_flow_report_records_four_bivectors_per_rk4_step(tmp_path):
    w = WORKLOADS["pair-flow"]
    rec = SpanRecorder()
    with LayerTracer(rec):
        rc = cli.main(report_argv(w, 0, str(tmp_path / "r.csv"), str(tmp_path / "r.json")))
    assert rc == 0
    metrics = layer_metrics(rec, 1)
    assert metrics["integrate.rk4.steps"][0] == 200
    assert metrics["poisson.pi.calls"][0] == 4 * 200
    assert metrics["integrate.monitor.states"][0] == 201


def test_adaptive_records_seven_field_evaluations_per_attempted_step():
    state = kepler.KeplerState(p=[0.0, 0.9, 0.1], q=[1.0, 0.0, 0.0], gamma=1.0)
    rec = SpanRecorder()
    with LayerTracer(rec):
        kepler.integrate_orbit(state, 2.0, 1e-8)
    calls, _ = rec.totals()
    attempted = (rec.counts["integrate.adaptive.accepted"]
                 + rec.counts["integrate.adaptive.rejected"])
    assert attempted > 10
    assert calls["poisson.ham_vector_field"] == 7 * attempted
    assert calls["poisson.pi"] == 7 * attempted


@pytest.mark.parametrize("n", [11, 20, 55, 100, 137])
def test_tail_has_exactly_ten_calls_beyond_it(n):
    values = list(np.random.default_rng(n).permutation(n) + 1.0)
    value, pct, beyond = tail(values)
    assert beyond == 10
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)
    if n == 100:
        assert (value, pct) == (90.0, 90.0)


def test_tail_counts_failed_calls_as_beyond_it():
    values = [1.0] * 30 + [float("inf")] * 10
    assert tail(values)[0] == 1.0
    assert tail(values + [float("inf")])[0] == float("inf")


def test_tail_needs_more_than_ten_calls():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_reference_clock_divides_by_the_probes_on_either_side(monkeypatch):
    readings = iter([2.0, 4.0, 12.0])
    monkeypatch.setattr(measure, "probe_ms", lambda: next(readings))
    clock = measure.ReferenceClock()
    assert clock.rescale(1.0) == pytest.approx(measure.PROBE_REF_MS / 3.0)
    assert clock.rescale(1.0) == pytest.approx(measure.PROBE_REF_MS / 8.0)
    assert clock.probes == [2.0, 4.0, 12.0]


def test_self_time_subtracts_overlapping_children_once():
    #            parent   child a   child b (overlaps a)  child c (past the parent)
    start = [0, 10, 30, 90]
    end = [100, 50, 70, 120]
    parent = [-1, 0, 0, 0]
    # covered: [10, 70] and [90, 100] -> 70 of the parent's 100
    assert self_times(start, end, parent) == [30, 40, 40, 30]


def test_nested_spans_link_to_parent_and_report():
    rec = SpanRecorder()
    root = rec.open("cli.main")
    child = rec.open("poisson.pi")
    rec.close(child)
    rec.close(root)
    other = rec.open("cli.main")
    rec.close(other)
    assert list(rec.parent) == [-1, root, -1]
    assert list(rec.report) == [root, root, other]
    with pytest.raises(RuntimeError):
        rec.open("a")
        rec.open("b")
        rec.close(0)


def test_inputs_are_a_seeded_order_of_one_fixed_pool():
    w = WORKLOADS["kepler-orbit"]
    a, b = make_inputs(w, 3, 22), make_inputs(w, 4, 22)
    assert a == make_inputs(w, 3, 22)
    assert a != b and sorted(a) == sorted(b)
    assert len(a) == input_count(w, 22) == round(22 / w.call_s)
    assert input_count(w, 1) == 20


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    produced = {name: unit for name, (_, unit) in
                layer_metrics(SpanRecorder(), 1).items()}
    produced.update({"env.probe_ms": "ms", "trace.overhead": "ratio"})
    for m in spec["per_layer"]:
        assert produced[m["name"]] == m["unit"], m["name"]


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pair-flow", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""


def test_failed_reports_lower_throughput_and_lie_beyond_the_tail():
    import run
    calls = [(True, 0.5)] * 15 + [(False, 0.5)] * 11
    metrics = run._end_to_end([0.25], calls)
    assert metrics["reports_per_s"][0] == pytest.approx(15 / 13.0)
    assert metrics["call_p50_ms"][0] == pytest.approx(500.0)
    assert metrics["call_tail_ms"][0] == float("inf")


def test_run_reports_when_every_report_fails(monkeypatch, capsys):
    import run
    monkeypatch.setattr(run, "_measure_setup", lambda args, clock: [(0.25, 0.25)])
    monkeypatch.setattr(cli, "main", lambda argv: 1)
    assert run.main(["--workload", "pair-flow", "--seed", "0", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    # the 20 timed inputs, the warm-up and the replay
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 22, 22)
    assert result["metrics"]["reports_per_s"]["value"] == 0
    assert result["metrics"]["call_tail_ms"]["value"] is None
