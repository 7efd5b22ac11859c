"""The report corpus: each run of ``ARGVS`` records what
``report_corpus.json`` recorded for it.

A record of a run holds its argv, exit code, stderr, parsed JSON report,
the SHA-256 of its CSV, JSON and SVG files, that of each CSV column and
that of each SVG polyline, so that a moved cell names its column and a
moved series its label.  The rule: every leaf of a
record compares exactly, floats bit for bit, and ``moved`` names each leaf
that differs.  ``tests/compare_reports.py`` compares the same records
between two trees.  A change that moves outputs regenerates the corpus from
the repository root,

    python tests/test_report_corpus.py

so that ``git diff tests/report_corpus.json`` shows each moved value, and
says why in CHANGES.md.
"""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":
    # Only here: imported by a child of compare_reports.py, this module must
    # leave first place to the tree that the child's PYTHONPATH names.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from degint import cli  # noqa: E402

CORPUS = Path(__file__).resolve().with_name("report_corpus.json")
KINDS = ("csv", "json", "svg")

# Every scenario at its defaults: seeds 0-4, and verify-brackets, the
# slowest by far, at seed 0 only.
ARGVS = [["--scenario", scenario, "--seed", str(seed)] for scenario in sorted(cli._SCENARIOS)
         for seed in range(1 if scenario == "verify-brackets" else 5)]


def versions() -> dict:
    """The numpy version and the BLAS numpy was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def record(cli, argv) -> dict:
    """One run of ``cli.main`` in a fresh working directory, writing each
    file under a fixed relative name, so that a message naming one reads the
    same in every run and tree.  Its argv, exit code, stderr (every warning
    shown, the package directory read as ``<src>``), parsed JSON report, the
    digest of each file, None for a file not written, per CSV header name
    the digest of that column's cells, one per line, None without a CSV,
    and per SVG series label the digest of its polyline's points, None
    without an SVG; stdout is dropped.  The writer never quotes a cell, so a
    line's cells are its text split at each ","."""
    src, here, err = str(Path(cli.__file__).resolve().parents[1]), os.getcwd(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("always")
                # to this stderr, past a recorder such as pytest's
                warnings.showwarning = lambda *w: sys.stderr.write(warnings.formatwarning(*w[:4]))
                code = cli.main([*argv, *(f"--out-{kind}=report.{kind}" for kind in KINDS)])
            read = {kind: Path(f"report.{kind}").read_bytes()
                    if Path(f"report.{kind}").exists() else None for kind in KINDS}
        finally:
            os.chdir(here)
    return {"argv": argv, "exit_code": code, "stderr": err.getvalue().replace(src, "<src>"),
            "report": None if read["json"] is None else json.loads(read["json"]),
            "sha256": {kind: None if data is None else hashlib.sha256(data).hexdigest()
                       for kind, data in read.items()},
            "csv_columns": None if read["csv"] is None else {
                column[0]: hashlib.sha256("\n".join(column[1:]).encode()).hexdigest()
                for column in zip(*(line.split(",") for line in
                                    read["csv"].decode().splitlines()))},
            "svg_polylines": None if read["svg"] is None else {
                label: hashlib.sha256(points.encode()).hexdigest() for points, label in
                re.findall(r'<polyline points="([^"]*)".*\n<text [^>]*>([^<]*)</text>',
                           read["svg"].decode())}}


def leaves(value, path=""):
    """Path -> JSON text of every leaf of a parsed JSON value; a list of
    numbers or strings is one leaf.  Equal text means equal values, bit for
    bit, since every float is written in its shortest round-trip form."""
    if isinstance(value, dict) and value:
        items = value.items()
    elif isinstance(value, list) and any(isinstance(item, (dict, list)) for item in value):
        items = enumerate(value)
    else:
        return {path or "/": json.dumps(value)}
    return {leaf: text for key, item in items
            for leaf, text in leaves(item, f"{path}/{key}").items()}


def moved(old, new) -> list:
    """One ``path: old -> new`` line per differing leaf of two records; a
    leaf that one side lacks reads None there."""
    old, new = leaves(old), leaves(new)
    return [f"{path}: {old.get(path)} -> {new.get(path)}"
            for path in sorted(old.keys() | new.keys()) if old.get(path) != new.get(path)]


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def test_the_corpus_holds_every_run_of_the_list(corpus):
    assert [run["argv"] for run in corpus["runs"]] == ARGVS


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_a_run_writes_what_the_corpus_recorded(corpus, argv):
    lines = moved(corpus["runs"][ARGVS.index(argv)], record(cli, argv))
    note = ("" if versions() == corpus["versions"] else
            f"\nthe corpus was written with {corpus['versions']}, this run has {versions()}")
    assert not lines, "\n".join(lines) + note


class TestRecordAndDiff:
    """Negative controls: ``moved`` is silent on equal records and names
    exactly the leaf that changed, and a record keeps a run's warnings."""

    ARGV = ["--scenario", "cm-rational", "--seed", "0"]

    @pytest.fixture(scope="class")
    def run(self):
        return record(cli, self.ARGV)

    def test_equal_records_move_nothing(self, run):
        assert moved(run, record(cli, self.ARGV)) == []
        assert moved(run, copy.deepcopy(run)) == []

    @pytest.mark.parametrize("path,edit", [
        ("/report/oracle_residuals/0/value",
         lambda r: r["report"]["oracle_residuals"][0].update(value=1e-300)),
        ("/report/flags", lambda r: r["report"]["flags"].append("tolerance-failure")),
        ("/stderr", lambda r: r.update(stderr="a warning\n")),
        ("/sha256/csv", lambda r: r["sha256"].update(csv="0" * 64)),
        ("/sha256/json", lambda r: r["sha256"].update(json=None)),
        ("/csv_columns/re(inv2)", lambda r: r["csv_columns"].update({"re(inv2)": "0" * 64})),
        ("/svg_polylines/re(inv1)",
         lambda r: r["svg_polylines"].update({"re(inv1)": "0" * 64})),
        ("/exit_code", lambda r: r.update(exit_code=2))])
    def test_one_changed_leaf_is_named_alone(self, run, path, edit):
        new = copy.deepcopy(run)
        edit(new)
        assert moved(run, new) == [f"{path}: {leaves(run)[path]} -> {leaves(new)[path]}"]

    def test_a_leaf_one_side_lacks_reads_none(self, run):
        new = copy.deepcopy(run)
        del new["report"]["parameters"]["h-cm"]
        assert moved(run, new) == [
            f"/report/parameters/h-cm: {leaves(run)['/report/parameters/h-cm']} -> None"]

    def test_a_runtime_warning_is_recorded_not_raised(self, run, monkeypatch):
        spec = cli._SCENARIOS["cm-rational"]

        def overflowing(cfg):
            np.float64(1e300) * np.float64(1e300)
            return spec.run(cfg)

        monkeypatch.setitem(cli._SCENARIOS, "cm-rational",
                            dataclasses.replace(spec, run=overflowing))
        warned = record(cli, self.ARGV)
        assert "RuntimeWarning: overflow encountered in scalar multiply" in warned["stderr"]
        assert moved(run, warned) == [f"/stderr: \"\" -> {json.dumps(warned['stderr'])}"]


if __name__ == "__main__":
    CORPUS.write_text(json.dumps({"versions": versions(),
                                  "runs": [record(cli, a) for a in ARGVS]}, indent=1,
                                 sort_keys=True) + "\n")
