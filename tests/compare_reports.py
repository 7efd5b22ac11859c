"""Compare the record of every run of one argv list between this tree and
another checkout.  Run by hand from the repository root, with the path of a
checkout of the commit to compare against:

    python tests/compare_reports.py ../degint-parent

The list: the 8 scenarios at their defaults at seeds 0-39; the argv of each
``BENCHMARK.json`` workload, read from ``perfbench/workloads.py``, at its
first 30 pool seeds; ``EXTREME_ARGVS`` and ``EXTREME_PAIRS`` of
``tests/test_cli.py``; and ``PASS_ARGVS`` at seeds 0-4, whose sweep passes
reach 256 KiB per table.  Each tree runs the whole list in one subprocess with
``PYTHONPATH=<tree>/src``, both at once, and prints the ``record`` of
``tests/test_report_corpus.py`` of each run.  Each run whose records differ
is printed with each moved leaf, ``path: old -> new``, a leaf that is a
float on both sides followed by its relative change |new - old| / |old|,
and a summary ends the output: the runs moved, how many of them moved only
in float leaves (besides the digest of the JSON file, which moves with
them), and per part of a record (exit code, stderr, JSON report, file
digests, CSV column and SVG polyline digests) the runs where it moved.  So
a move at roundoff reads as one.  The exit status is 1 when any run moved.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# rank-1 sweeps at n = 8 in passes of 256 and 44 samples
PASS_ARGVS = [["--scenario", "ruijsenaars-rational", "--n", "8", "--samples", "300",
               "--kappa-im", "0.1"],
              ["--scenario", "relativistic-ruijsenaars", "--n", "8", "--samples", "300",
               "--q-im", "0.15"]]


def argv_list() -> list:
    """The compared argvs, built from this tree."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from degint import cli
    from test_cli import EXTREME_ARGVS, EXTREME_PAIRS
    from workloads import SEED_STRIDE, WORKLOADS

    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    return ([["--scenario", scenario, "--seed", str(seed)]
             for scenario in sorted(cli._SCENARIOS) for seed in range(40)]
            + [[*WORKLOADS[name].argv, "--seed", str(SEED_STRIDE * i)]
               for name in names for i in range(30)]
            + EXTREME_ARGVS + EXTREME_PAIRS
            + [[*argv, "--seed", str(seed)] for argv in PASS_ARGVS for seed in range(5)])


def relative_change(old, new):
    """|new - old| / |old| of two leaf texts that are both JSON floats, None
    otherwise."""
    old, new = (None if text is None else json.loads(text) for text in (old, new))
    if not (isinstance(old, float) and isinstance(new, float)):
        return None
    return abs(new - old) / abs(old) if old else math.inf


def launch(tree: Path, argvs) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--child"],
                            env=env, text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    proc.stdin.write(json.dumps(argvs))
    proc.stdin.close()
    return proc


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("other", nargs="?", type=Path, help="checkout to compare against")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.child:
        from test_report_corpus import cli, record   # cli: the tree of PYTHONPATH
        print(json.dumps([record(cli, argv) for argv in json.load(sys.stdin)]))
        return 0
    if args.other is None:
        p.error("the path of the other checkout is required")
    argvs = argv_list()
    from test_report_corpus import leaves, moved   # after argv_list, which puts src on the path
    procs = [launch(tree, argvs) for tree in (args.other.resolve(), ROOT)]
    theirs, ours = (json.loads(proc.stdout.read() or "null") for proc in procs)
    if any(proc.wait() for proc in procs):
        sys.exit("a tree's runs did not finish")
    parts = {"exit_code": 0, "stderr": 0, "report": 0, "sha256": 0, "csv_columns": 0,
             "svg_polylines": 0}
    runs_moved = floats_only = 0
    for argv, old, new in zip(argvs, theirs, ours):
        lines = moved(old, new)
        for part in {re.match(r"/(\w+)", line)[1] for line in lines}:
            parts[part] += 1
        if lines:
            runs_moved += 1
            olds, news = leaves(old), leaves(new)
            paths = [line.split(": ", 1)[0] for line in lines]
            changes = [relative_change(olds.get(path), news.get(path)) for path in paths]
            floats = sum(change is not None for change in changes)
            floats_only += 0 < floats == len(paths) - ("/sha256/json" in paths)
            print(f"moved: {' '.join(argv)}", *(
                line if change is None else f"{line}  (relative {change:.2e})"
                for line, change in zip(lines, changes)), sep="\n  ")
    print(f"{len(argvs)} runs: {len(argvs) - runs_moved} identical, {runs_moved} moved, "
          f"{floats_only} of them in float leaves alone ("
          + ", ".join(f"{part} {count}" for part, count in parts.items()) + ")")
    return 1 if runs_moved else 0


if __name__ == "__main__":
    sys.exit(main())
