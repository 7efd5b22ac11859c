"""Closed-loop benchmark of degint with one client.

One process issues one scenario report at a time through the public entry
point ``degint.cli.main(argv)``, in process, writing CSV and JSON to a
temporary directory under ``.perfbench/``.  Run from the repository root:

    python3 perfbench/run.py --workload pair-flow --seed 0 --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, with times
rescaled to a reference machine speed (``measure.ReferenceClock``);
``--trace 1`` prints the per-layer metrics of a traced run (see README.md).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

if __name__ == "__main__":
    # Before numpy loads, here and in every child: one process, one compute thread.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ.pop("DEGINT_THREADS", None)

import measure  # noqa: E402
from layers import LayerTracer, layer_metrics  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, make_inputs, report_argv  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUP_SAMPLES = 15


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_probe(args):
    """Child process: import degint, build the inputs, print the clock."""
    sys.path.insert(0, str(SRC))
    import degint.cli  # noqa: F401
    make_inputs(WORKLOADS[args.workload], args.seed, args.seconds)
    print(repr(time.perf_counter()))


def _measure_setup(args, clock) -> list:
    """Seconds from interpreter start to inputs ready, once per child, as
    (measured, rescaled) pairs.

    ``perf_counter`` reads the system-wide monotonic clock, so the child's
    reading and the parent's start are on one time line.
    """
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        seconds = float(out.stdout.split()[-1]) - t0
        times.append((seconds, clock.rescale(seconds)))
    return times


class Client:
    """Issues one report at a time and applies the correctness gate."""

    def __init__(self, cli, workload, workdir: Path, clock):
        self.cli = cli
        self.clock = clock
        self.workload = workload
        self.csv = workdir / "report.csv"
        self.json = workdir / "report.json"
        self.first = None           # (scenario seed, (csv bytes, json bytes))
        self.attempted = self.failed = 0

    def issue(self, scenario_seed: int):
        """One report; returns (passed, seconds, rescaled seconds, output bytes)."""
        argv = report_argv(self.workload, scenario_seed, str(self.csv), str(self.json))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:
                rc = traceback.format_exc()
            seconds = time.perf_counter() - t0
        rescaled = self.clock.rescale(seconds)
        outputs, problem = None, None
        if rc != 0:
            problem = f"exit {rc}"
        else:
            outputs = (self.csv.read_bytes(), self.json.read_bytes())
            flags = json.loads(outputs[1])["flags"]
            if flags:
                problem = f"flags {flags}"
            elif self.first is None:
                self.first = (scenario_seed, outputs)
            elif self.first[0] == scenario_seed and self.first[1] != outputs:
                problem = "outputs differ from the first run of this input"
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"report failed: {' '.join(argv)}: {problem}\n{sink.getvalue()}",
                  file=sys.stderr)
        return problem is None, seconds, rescaled, outputs

    def run(self, seeds) -> list:
        """Issue every input in order; returns (passed, seconds, rescaled
        seconds) per report."""
        return [self.issue(s)[:3] for s in seeds]


def _end_to_end(setup, calls) -> dict:
    """Failed reports count against those attempted: their time is spent but
    completes no report, and they lie beyond the tail."""
    passed = sum(ok for ok, _ in calls)
    times = [seconds if ok else math.inf for ok, seconds in calls]
    tail_s = measure.tail(times)[0]
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "reports_per_s": (passed / sum(seconds for _, seconds in calls), "1/s", len(times)),
        "call_p50_ms": (statistics.median(times) * 1e3, "ms", len(times)),
        "call_tail_ms": (tail_s * 1e3, "ms", len(times)),
        "peak_rss_mb": (measure.peak_rss_mb(), "MB", 1),
    }


def _per_layer(client, seeds, workload_name, seed) -> dict:
    """Each input untraced, then traced; layer metrics per traced report.

    Alternating per input keeps machine drift out of ``trace.overhead``.
    """
    rec = SpanRecorder()
    untraced = traced = 0.0
    for s in seeds:
        untraced += client.issue(s)[2]
        with LayerTracer(rec):
            _, _, rescaled, outputs = client.issue(s)
        traced += rescaled
        if outputs:
            rec.counts["cli.bytes_written"] += sum(len(b) for b in outputs)
    rec.write(str(WORKDIR / f"spans-{workload_name}-seed{seed}.npz"))
    metrics = {name: (value, unit, len(seeds))
               for name, (value, unit) in layer_metrics(rec, len(seeds)).items()}
    metrics["trace.overhead"] = (traced / untraced, "ratio", len(seeds))
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    if not (SRC / "degint" / "__init__.py").is_file():
        print(f"no degint sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]

    load_start = os.getloadavg()
    clock = measure.ReferenceClock()
    setup = [] if args.trace else _measure_setup(args, clock)
    sys.path.insert(0, str(SRC))
    from degint import cli
    env = measure.environment()
    seeds = make_inputs(workload, args.seed, args.seconds)

    WORKDIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        client = Client(cli, workload, tmp, clock)
        client.issue(seeds[0])                      # warm-up, not timed
        if args.trace:
            metrics = _per_layer(client, seeds, workload.name, args.seed)
        else:
            calls = client.run(seeds)
        client.issue(seeds[0])                      # replay: rerun contract
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    load_end = os.getloadavg()
    probes = clock.probes
    print("env " + " ".join(f"{k}={v}" for k, v in env.items())
          + f" loadavg_start={load_start[0]:.2f} loadavg_end={load_end[0]:.2f}")
    print(f"env.probe_ms start={probes[0]:.2f} end={probes[-1]:.2f} "
          f"median={statistics.median(probes):.2f} samples={len(probes)}")
    print(f"workload {workload.name} seed={args.seed} inputs={len(seeds)}: "
          + " ".join(workload.argv))
    if args.trace:
        metrics["env.probe_ms"] = (statistics.median(probes), "ms", len(probes))
    else:
        metrics = _end_to_end([r for _, r in setup], [(ok, r) for ok, _, r in calls])
        measured = _end_to_end([m for m, _ in setup], [(ok, m) for ok, m, _ in calls])
        _, pct, beyond = measure.tail([rescaled for *_, rescaled in calls])
        print(f"call_tail_ms is p{pct:.1f}: {beyond} of {len(calls)} calls lie beyond it")
        print(f"times rescaled to probe_ms = {measure.PROBE_REF_MS} ms; as measured: "
              + " ".join(f"{k}={v:.6g}" for k, (v, _, _) in measured.items()))
    for name, (value, unit, samples) in sorted(metrics.items()):
        print(f"  {name:<40} {value:>14.6g} {unit:<6} samples={samples}")
    print(f"reports attempted={client.attempted} failed={client.failed}")
    out = {}
    for m in wanted:
        value, unit, _ = metrics[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {unit} but BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": value if math.isfinite(value) else None,
                          "unit": unit}
    print(json.dumps({"correct": client.failed == 0, "attempted": client.attempted,
                      "failed": client.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
