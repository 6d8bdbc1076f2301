"""The package's modules import each other without a cycle, every error class is
raised somewhere, and every private name is used somewhere.

Every intra-package import counts, at module level or inside a function: a
function-level import that closes a cycle runs only when the function is
first called, so it hides the cycle from a plain `import m4extremes`."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "m4extremes"


def package_imports(path: Path) -> set[str]:
    """The package modules that the module at `path` imports, anywhere in it, by file
    stem (`__init__` for the package itself)."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom):  # from .x import y, from . import x
            names = [f"m4extremes.{node.module or alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            top, _, rest = name.partition(".")
            if top == "m4extremes":
                imported.add(rest.partition(".")[0] or "__init__")
    return imported


def import_graph(package: Path = PACKAGE) -> dict[str, set[str]]:
    """Each module of `package` and the other modules of it that it imports."""
    paths = {path.stem: path for path in package.glob("*.py")}
    return {name: package_imports(path) & set(paths) - {name} for name, path in paths.items()}


def test_the_graph_reads_every_module():
    graph = import_graph()
    assert {"__init__", "cli", "estimate", "simulate", "stations"} <= set(graph)
    assert graph["stations"] >= {"estimate", "simulate"}
    assert graph["estimate"] >= {"simulate", "dependence"}


def test_imports_form_no_cycle():
    graph = import_graph()
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as error:
        pytest.fail(f"import cycle: {' -> '.join(error.args[1])}")
    assert set(order) == set(graph)


def test_a_cycle_is_found(tmp_path):
    # a function-level import that closes a cycle, as a check of the check
    (tmp_path / "a.py").write_text("from .b import f\n")
    (tmp_path / "b.py").write_text("def f():\n    from .a import g\n")
    assert import_graph(tmp_path) == {"a": {"b"}, "b": {"a"}}
    with pytest.raises(CycleError):
        list(TopologicalSorter(import_graph(tmp_path)).static_order())


def raised_names(package: Path = PACKAGE) -> set[str]:
    """The names that a `raise` in `package` calls or raises: `raise X(...)`, `raise X`."""
    names = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def error_classes(package: Path = PACKAGE) -> list[str]:
    """The classes that `errors.py` defines, but the base `M4Error`."""
    tree = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    return [node.name for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name != "M4Error"]


def test_every_error_class_is_raised():
    classes = error_classes()
    assert {"ArgumentError", "ParseError", "UnknownStationError"} <= set(classes)
    assert not set(classes) - raised_names(), "error classes that nothing raises"


def test_a_dead_error_class_is_found(tmp_path):
    # a class defined in errors.py that no raise names, as a check of the check
    (tmp_path / "errors.py").write_text(
        "class M4Error(Exception): ...\nclass Used(M4Error): ...\nclass Dead(M4Error): ...\n")
    (tmp_path / "a.py").write_text("def f():\n    raise Used('x')\n")
    assert error_classes(tmp_path) == ["Used", "Dead"]
    assert set(error_classes(tmp_path)) - raised_names(tmp_path) == {"Dead"}


def private_names(package: Path = PACKAGE) -> set[str]:
    """The private names that `package` defines: each `_name` (function, class or
    assignment) of a module's body or of a class body, so each `_method` too."""
    names = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        members = [node for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body]
        for node in tree.body + members:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(name.id for target in targets for name in ast.walk(target)
                             if isinstance(name, ast.Name))
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def loaded_names(package: Path = PACKAGE) -> set[str]:
    """The names that `package` loads: a name read, an attribute, an imported name."""
    names = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_private_name_is_used():
    defined = private_names()
    assert {"_Rows", "_hold", "_holder", "_rank_rows", "_CACHE_ELEMENTS"} <= defined
    assert defined - loaded_names() == set(), "private names that nothing loads"


def test_a_dead_private_name_is_found(tmp_path):
    # a constant, a helper, a class attribute and a method that nothing loads, as a
    # check of the check
    (tmp_path / "a.py").write_text(
        "_USED, _DEAD = 1, 2\ndef _helper(): ...\ndef _dead(): ...\n"
        "class _K:\n    _tag = 0\n    def _m(self): ...\n    def _gone(self): ...\n"
        "    def __init__(self): ...\n")
    (tmp_path / "b.py").write_text("from .a import _helper\nx = _USED\n_K()._m()\n")
    assert private_names(tmp_path) == {"_USED", "_DEAD", "_helper", "_dead", "_K", "_tag", "_m",
                                       "_gone"}
    assert private_names(tmp_path) - loaded_names(tmp_path) == {"_DEAD", "_dead", "_tag", "_gone"}
