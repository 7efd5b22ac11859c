"""The report corpus: each run of ``make_report_corpus.ARGVS`` writes what
``report_corpus.json`` recorded for it.

The rule: the exit code, every name, flag and value of the JSON report, and
the SHA-256 of the CSV and SVG files compare exactly, floats bit for bit.
A change that moves outputs regenerates the corpus with
``python tests/make_report_corpus.py`` and says why in CHANGES.md.
"""

import json

import pytest

from make_report_corpus import ARGVS, CORPUS, dumps, record, versions

RECORDED = json.loads(CORPUS.read_text())
RUNS = {" ".join(run["argv"]): run for run in RECORDED["runs"]}


def _leaves(value, path=""):
    """Path -> text of every leaf of a parsed JSON value; a list of numbers
    or strings is one leaf."""
    if isinstance(value, dict) and value:
        items = value.items()
    elif isinstance(value, list) and any(isinstance(item, (dict, list)) for item in value):
        items = enumerate(value)
    else:
        return {path or "/": dumps(value)}
    return {leaf: text for key, item in items
            for leaf, text in _leaves(item, f"{path}/{key}").items()}


def test_the_corpus_holds_every_run_of_the_list():
    assert [run["argv"] for run in RECORDED["runs"]] == ARGVS


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_a_run_writes_what_the_corpus_recorded(argv):
    want, got = _leaves(RUNS[" ".join(argv)]), _leaves(record(argv))
    moved = [f"{path}: {want.get(path)} -> {got.get(path)}"
             for path in sorted(set(want) | set(got)) if want.get(path) != got.get(path)]
    here = versions()
    note = ("" if here == RECORDED["versions"] else
            f"\nthe corpus was written with {RECORDED['versions']}, this run has {here}")
    assert not moved, "\n".join(moved) + note
