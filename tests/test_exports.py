"""The package exports only what a scenario or an acceptance criterion runs."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import degint

PACKAGE = Path(degint.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def _defined_name(top):
    """The name a top-level statement defines: a function's or a class's, an
    assignment's first target, or None."""
    if isinstance(top, (ast.Assign, ast.AnnAssign)):
        top = top.targets[0] if isinstance(top, ast.Assign) else top.target
    return getattr(top, "name", getattr(top, "id", None))


def _reads(path: Path) -> set:
    """(name, site, whether it is an attribute) of every name or attribute
    read in the file, outside annotations.  The site is the name the
    top-level statement defines (or None) and, inside a class, the method in
    its body (or None)."""
    tree = ast.parse(path.read_text())
    annotations = [a for node in ast.walk(tree) for a in (
        getattr(node, "annotation", None), getattr(node, "returns", None)) if a is not None]
    skip = {id(node) for a in annotations for node in ast.walk(a)}
    method = {id(node): stmt.name for top in tree.body if isinstance(top, ast.ClassDef)
              for stmt in top.body if isinstance(stmt, ast.FunctionDef)
              for node in ast.walk(stmt)}
    return {(node.id if isinstance(node, ast.Name) else node.attr,
              (_defined_name(top), method.get(id(node))), isinstance(node, ast.Attribute))
            for top in tree.body for node in ast.walk(top) if id(node) not in skip
            and (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                 or isinstance(node, ast.Attribute))}


def _public(module) -> dict:
    """The functions and classes ``module`` defines under a name without a
    leading underscore."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__}


def test_every_export_has_a_reader():
    """Each public function or class of a module is read by a src
    definition other than its own, or by ``tests/test_acceptance.py``.
    There are no exemptions."""
    reads = {(name, (stem, top)) for stem in MODULES
             for name, (top, _), _ in _reads(PACKAGE / f"{stem}.py")}
    acceptance = {name for name, _, _ in _reads(ACCEPTANCE)}
    unread = set()
    for stem in MODULES:
        module = importlib.import_module(f"degint.{stem}")
        for name in _public(module):
            if name in acceptance:
                continue
            if not any(read == name and site != (stem, name) for read, site in reads):
                unread.add(f"{stem}.{name}")
    assert unread == set()


def test_every_private_definition_has_a_reader():
    """Each module-level ``_``-prefixed function, class and constant of a src
    module is read by a src definition other than its own, in any module.
    There are no exemptions: a private name only tests read belongs in the
    tests."""
    reads = {(name, (stem, top)) for stem in MODULES
             for name, (top, _), _ in _reads(PACKAGE / f"{stem}.py")}
    unread = set()
    for stem in MODULES:
        for top in ast.parse((PACKAGE / f"{stem}.py").read_text()).body:
            name = _defined_name(top)
            if name and name.startswith("_") and not name.startswith("__") and not any(
                    read == name and site != (stem, name) for read, site in reads):
                unread.add(f"{stem}.{name}")
    assert unread == set()


def test_every_member_has_a_reader():
    """Each dataclass field, public method and property of a public class
    of a module is read as an attribute by src code outside that
    method's own body, or by ``tests/test_acceptance.py``; a field its
    class's own methods read counts as read.  There are no exemptions."""
    reads = {(name, (stem, *site)) for stem in MODULES
             for name, site, attribute in _reads(PACKAGE / f"{stem}.py") if attribute}
    acceptance = {name for name, _, attribute in _reads(ACCEPTANCE) if attribute}
    unread = set()
    for stem in MODULES:
        module = importlib.import_module(f"degint.{stem}")
        for cls in filter(inspect.isclass, _public(module).values()):
            fields = dataclasses.fields(cls) if dataclasses.is_dataclass(cls) else ()
            members = [f.name for f in fields] + [
                name for name, value in vars(cls).items() if not name.startswith("_")
                and (inspect.isfunction(value) or isinstance(value, (property, classmethod)))]
            for member in members:
                site = (stem, cls.__name__, member)
                if member not in acceptance and not any(
                        read == member and where != site for read, where in reads):
                    unread.add(".".join(site))
    assert unread == set()


def test_public_means_no_leading_underscore():
    """No module lists its public names in ``__all__``, and the package
    re-exports nothing: a name is public by its spelling alone."""
    for stem in MODULES:
        assert not hasattr(importlib.import_module(f"degint.{stem}"), "__all__"), stem
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def test_cli_reads_monitor_only_in_flow_report():
    """Every monitored scenario builds its drifts, caps, flags and metrics
    through ``cli._flow_report``, the one place ``cli.py`` reads ``monitor``."""
    sites = {site for name, site, _ in _reads(PACKAGE / "cli.py") if name == "monitor"}
    assert sites == {("_flow_report", None)}


def test_no_src_line_exceeds_99_characters():
    """Every line of every module of the package fits in 99 characters."""
    long = [f"{path.name}:{i}" for path in sorted(PACKAGE.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 99]
    assert long == []


def test_acceptance_reads_only_public_names():
    """``tests/test_acceptance.py`` imports no ``_``-prefixed name from
    ``degint`` and reads no ``_``-prefixed attribute of what it imports from
    it: the acceptance criteria run the public API alone."""
    tree = ast.parse(ACCEPTANCE.read_text())
    imports = [alias for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module.split(".")[0] == "degint" for alias in node.names]
    bound = {alias.asname or alias.name for alias in imports}
    private = [alias.name for alias in imports if alias.name.startswith("_")] + [
        ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)
        and node.attr.startswith("_") and ast.unparse(node.value).split(".")[0] in bound]
    assert bound and private == []
