"""Compare every report of one argv list between this tree and another
checkout, run by run.  Run by hand from the repository root, with the path
of a checkout of the commit to compare against:

    python tests/compare_reports.py ../degint-parent

The list: the 8 scenarios at their defaults at seeds 0-39; the argv of each
``BENCHMARK.json`` workload, read from ``perfbench/workloads.py``, at its
first 30 pool seeds; and ``EXTREME_ARGVS`` and ``EXTREME_PAIRS`` of
``tests/test_cli.py``.  Each tree runs the whole list in one subprocess with
``PYTHONPATH=<tree>/src``, both at once, every run writing its CSV, JSON and
SVG afresh.  A run moved when its exit code, its stderr or the bytes of one
of its three files differ.  Each moved run is printed with what moved, and
a one-line summary ends the output; the exit status is 1 when any run moved.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("csv", "json", "svg")
PARTS = ("exit code", "stderr") + KINDS


def argv_list() -> list:
    """The compared argvs, built from this tree."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    from degint import cli
    from test_cli import EXTREME_ARGVS, EXTREME_PAIRS
    from workloads import SEED_STRIDE, WORKLOADS

    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    return ([["--scenario", scenario, "--seed", str(seed)]
             for scenario in sorted(cli._SCENARIOS) for seed in range(40)]
            + [[*WORKLOADS[name].argv, "--seed", str(SEED_STRIDE * i)]
               for name in names for i in range(30)]
            + EXTREME_ARGVS + EXTREME_PAIRS)


def run_all(argvs) -> list:
    """In the child: each argv through ``cli.main`` in a scratch directory,
    as (exit code, stderr, digest of each file or None)."""
    from degint import cli

    src = str(Path(cli.__file__).resolve().parents[1])
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for argv in argvs:
            for kind in KINDS:
                Path(f"r.{kind}").unlink(missing_ok=True)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("always")
                code = cli.main([*argv, *(f"--out-{kind}=r.{kind}" for kind in KINDS)])
            files = [Path(f"r.{kind}") for kind in KINDS]
            records.append([code, err.getvalue().replace(src, "<src>"),
                            *(hashlib.sha256(f.read_bytes()).hexdigest() if f.exists() else None
                              for f in files)])
    return records


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
        print(json.dumps(run_all(json.load(sys.stdin))))
        return 0
    if args.other is None:
        p.error("the path of the other checkout is required")
    argvs = argv_list()
    procs = [launch(tree, argvs) for tree in (args.other.resolve(), ROOT)]
    theirs, ours = (json.loads(proc.stdout.read() or "null") for proc in procs)
    if any(proc.wait() for proc in procs):
        sys.exit("a tree's runs did not finish")
    moved = {part: 0 for part in PARTS}
    runs_moved = 0
    for argv, old, new in zip(argvs, theirs, ours):
        parts = [part for part, a, b in zip(PARTS, old, new) if a != b]
        for part in parts:
            moved[part] += 1
        if parts:
            runs_moved += 1
            detail = "".join(f"; {part} {old[i]!r} -> {new[i]!r}"
                             for i, part in enumerate(PARTS[:2]) if part in parts)
            print(f"moved: {' '.join(argv)}: {', '.join(parts)}{detail}")
    print(f"{len(argvs)} runs: {len(argvs) - runs_moved} identical, {runs_moved} moved ("
          + ", ".join(f"{part} {count}" for part, count in moved.items()) + ")")
    return 1 if runs_moved else 0


if __name__ == "__main__":
    sys.exit(main())
