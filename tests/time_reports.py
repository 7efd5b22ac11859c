"""Time the benchmark workloads' reports in this tree against another
checkout, in interleaved pairs in one process.  Run by hand from the
repository root, with the path of a checkout of the commit to compare
against:

    python tests/time_reports.py ../degint-parent --pairs 160

It times each workload that ``BENCHMARK.json`` lists, in that order, or
only the one that ``--workload`` names.

Both trees' ``src/degint`` are copied into a temporary directory as two
packages, ``degint_other`` and ``degint_this``, and imported into one
process, so that the two sides of a pair share the host's state as closely
as two runs can.  Pair i runs the workload's argv, read from
``perfbench/workloads.py``, at its pool seed ``SEED_STRIDE * (i mod 20)``
in both trees: the other tree first in even pairs, this tree first in odd
ones.  One untimed report per tree comes first.  The output is one line
per workload: the summed time ratio (this / other), the median pair ratio
and the pairs this tree won, then each tree's median and quartiles of
report seconds, and the difference of the medians beside the other tree's
interquartile spread.  The line ends with a verdict: ``gain`` when this
tree wins at least nine tenths of the pairs and its median is below the
other's by more than that spread; ``slower beyond the bound`` when this
tree's reports per second, 1 / its median, fall below the other's by more
than the ``reports_per_s`` bound of ``BENCHMARK.json``; ``unresolved``
otherwise.  The reports' seeds vary their work, so the spread holds the
seeds' spread too.

A report that exits nonzero or writes a flag fails, and failing fast
would read as fast.  So the line also gives each tree's failed reports,
and when the two counts differ it says the comparison is invalid.  It
only times: ``tests/compare_reports.py`` compares the outputs.  Host speed
drifts, so only pairs compare: no single time printed here is a
measurement of either tree.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = 20
NAMES = ("other", "this")


def load_trees(other: Path, tmp: Path) -> dict:
    """The ``cli`` module of each tree, imported from its copy in ``tmp``."""
    sys.path.insert(0, str(tmp))
    clis = {}
    for name, tree in zip(NAMES, (other, ROOT)):
        shutil.copytree(tree / "src" / "degint", tmp / f"degint_{name}")
        clis[name] = importlib.import_module(f"degint_{name}.cli")
    return clis


def report(cli, argv, out: Path):
    """Seconds of one report through ``cli.main``, writing its CSV and JSON,
    and whether it failed: exited nonzero or wrote a flag."""
    argv = [*argv, "--out-csv", str(out.with_suffix(".csv")),
            "--out-json", str(out.with_suffix(".json"))]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    return seconds, code != 0 or bool(json.loads(out.with_suffix(".json").read_text())["flags"])


def verdict(quartiles, won, pairs, bound) -> str:
    """The verdict of the module docstring, from each tree's quartiles of
    report seconds and the pairs this tree won."""
    other, this = quartiles["other"], quartiles["this"]
    if won >= 0.9 * pairs and other[1] - this[1] > other[2] - other[0]:
        return "gain"
    if 1.0 / this[1] < (1.0 - bound) / other[1]:
        return "slower beyond the bound"
    return "unresolved"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("other", type=Path, help="checkout to compare against")
    p.add_argument("--workload", help="time only this workload")
    p.add_argument("--pairs", type=int, default=160)
    args = p.parse_args()
    os.environ["OPENBLAS_NUM_THREADS"] = "1"    # before numpy loads, as perfbench runs
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import SEED_STRIDE, WORKLOADS

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [args.workload] if args.workload else [w["name"] for w in benchmark["workloads"]]
    bound = next(m["bound"] for m in benchmark["end_to_end"] if m["name"] == "reports_per_s")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        clis = load_trees(args.other.resolve(), tmp)
        for workload in names:
            argvs = [[*WORKLOADS[workload].argv, "--seed", str(SEED_STRIDE * (i % SEEDS))]
                     for i in range(args.pairs)]
            for name in NAMES:
                report(clis[name], argvs[0], tmp / name)
            seconds, failed = {name: [] for name in NAMES}, dict.fromkeys(NAMES, 0)
            for i, argv in enumerate(argvs):
                for name in (NAMES if i % 2 == 0 else NAMES[::-1]):
                    t, fail = report(clis[name], argv, tmp / name)
                    seconds[name].append(t)
                    failed[name] += fail
            other, this = seconds["other"], seconds["this"]
            ratios = [b / a for a, b in zip(other, this)]
            won = sum(r < 1 for r in ratios)
            quartiles = {name: statistics.quantiles(seconds[name], n=4) for name in NAMES}
            spread = quartiles["other"][2] - quartiles["other"][0]
            print(f"{workload}, {args.pairs} pairs: summed {sum(this) / sum(other) - 1:+.1%}, "
                  f"median pair ratio {statistics.median(ratios):.3f}, "
                  f"this tree faster in {won}/{args.pairs}; "
                  "report ms, median [quartiles]: " + ", ".join(
                      f"{name} {1e3 * q[1]:.2f} [{1e3 * q[0]:.2f}, {1e3 * q[2]:.2f}]"
                      for name, q in quartiles.items())
                  + f"; medians differ by {1e3 * (quartiles['other'][1] - quartiles['this'][1]):.2f}"
                  f" against the other's interquartile spread {1e3 * spread:.2f}; "
                  f"failed reports: other {failed['other']}, this {failed['this']}; "
                  + ("comparison invalid: the trees' failed reports differ"
                     if failed["other"] != failed["this"]
                     else f"verdict: {verdict(quartiles, won, args.pairs, bound)}"), flush=True)


if __name__ == "__main__":
    main()
