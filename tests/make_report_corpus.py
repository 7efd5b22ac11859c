"""Write ``report_corpus.json``: for each run of ``ARGVS``, its exit code,
its JSON report and the SHA-256 of its CSV and SVG files, with the numpy
and BLAS versions that wrote them.

``tests/test_report_corpus.py`` re-runs the list and compares every run bit
for bit.  A change that moves reported values regenerates the file from the
repository root,

    python tests/make_report_corpus.py

so that ``git diff tests/report_corpus.json`` shows each moved value.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from degint import cli  # noqa: E402

CORPUS = Path(__file__).resolve().with_name("report_corpus.json")

# Every scenario at its defaults: seeds 0-4, and verify-brackets, the
# slowest by far, at seed 0 only.
ARGVS = [["--scenario", scenario, "--seed", str(seed)] for scenario in sorted(cli._SCENARIOS)
         for seed in range(1 if scenario == "verify-brackets" else 5)]


def versions() -> dict:
    """The numpy version and the BLAS numpy was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def record(argv) -> dict:
    """One run of ``cli.main`` with every output written to a fresh
    directory: its argv, exit code, parsed JSON report and output digests."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {kind: Path(tmp) / f"report.{kind}" for kind in ("csv", "json", "svg")}
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, *(arg for kind, path in paths.items()
                                      for arg in (f"--out-{kind}", str(path)))])
        read = {kind: path.read_bytes() if path.exists() else None
                for kind, path in paths.items()}
    return {"argv": argv, "exit_code": code,
            "report": read["json"] and json.loads(read["json"]),
            "sha256": {kind: read[kind] and hashlib.sha256(read[kind]).hexdigest()
                       for kind in ("csv", "svg")}}


def dumps(value) -> str:
    """The corpus's text form; equal text means equal values, bit for bit,
    since every float is written in its shortest round-trip form."""
    return json.dumps(value, indent=1, sort_keys=True)


if __name__ == "__main__":
    CORPUS.write_text(dumps({"versions": versions(), "runs": [record(a) for a in ARGVS]}) + "\n")
