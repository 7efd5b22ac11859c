"""The tolerance record holds only thresholds the package reads, and
``errors`` only exception types the package raises."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import degint
from degint import errors
from degint.config import Tolerances

PACKAGE = Path(degint.__file__).parent


def test_every_tolerance_has_a_reader():
    """Each ``Tolerances`` field is read as ``TOL.<field>`` somewhere in the
    package, and every such read names a field."""
    source = "".join(path.read_text() for path in PACKAGE.rglob("*.py"))
    read = set(re.findall(r"\bTOL\.(\w+)", source))
    assert read == {f.name for f in dataclasses.fields(Tolerances)}


def test_every_exception_type_is_raised():
    """Each class of ``errors`` is raised by another package module, as
    ``raise X(...)`` or as the type passed to ``calogero._raise_first``,
    itself or through one of its subclasses."""
    raised = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == "errors":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                error = node.exc.func
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "_raise_first"):
                error = node.args[1]
            else:
                continue
            if isinstance(error, ast.Name):
                raised.add(error.id)
    defined = {name: cls for name, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__}
    assert {name for name, cls in defined.items() if not any(
        issubclass(defined[r], cls) for r in raised & defined.keys())} == set()
