"""The tolerance record holds only thresholds the package reads."""

import dataclasses
import re
from pathlib import Path

import degint
from degint.config import Tolerances


def test_every_tolerance_has_a_reader():
    """Each ``Tolerances`` field is read as ``TOL.<field>`` somewhere in the
    package, and every such read names a field."""
    source = "".join(path.read_text() for path in Path(degint.__file__).parent.rglob("*.py"))
    read = set(re.findall(r"\bTOL\.(\w+)", source))
    assert read == {f.name for f in dataclasses.fields(Tolerances)}
