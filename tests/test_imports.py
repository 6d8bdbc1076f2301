"""The package's modules import each other without a cycle, and every error
class is raised somewhere.

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
