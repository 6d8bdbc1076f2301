"""The README's library example runs and gives the values its comments
state, its command-line examples run, its lists of the public names and
of the package's files are whole, and the signatures it gives are the code's."""

import ast
import inspect
import re
import shlex
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

import m4extremes
from m4extremes.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = README.parent / "src" / "m4extremes"


def section(title: str) -> str:
    """The README's `## title` section, up to the next `## ` heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else None]


def library_example() -> str:
    return re.search(r"```python\n(.*?)```", section("Library example"), re.S).group(1)


def expression_values(source: str) -> dict[int, object]:
    """Run `source`, returning the value of each top-level expression
    statement by its line number."""
    namespace: dict = {}
    values = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "<README>", "eval")
            values[node.lineno] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "<README>", "exec"), namespace)
    return values


def test_library_example_values():
    source = library_example()
    values = expression_values(source)
    comments = {
        lineno: line.split("#", 1)[1].strip()
        for lineno, line in enumerate(source.splitlines(), start=1)
        if lineno in values
    }
    assert list(comments.values()) == [
        "Fraction(47, 10)",
        "Fraction(66, 31)",
        "~4.5",
        "~2.2, next to the exact 66/31",
    ]
    closed_ci, closed_si, plug_in_ci, plug_in_si = values.values()
    assert type(closed_ci) is Fraction and closed_ci == Fraction(47, 10)
    assert type(closed_si) is Fraction and closed_si == Fraction(66, 31)
    assert plug_in_ci == pytest.approx(4.5, abs=0.1)
    assert plug_in_si == pytest.approx(2.2, abs=0.1)


def cli_examples() -> list[list[str]]:
    """The argument lists of the commands in the README's `## Command line` block."""
    block = re.search(r"```sh\n(.*?)```", section("Command line"), re.S).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    examples = cli_examples()
    assert [argv[:2] for argv in examples] == [
        ["m4extremes", command]
        for command in ("preset", "validate", "exact", "simulate", "estimate",
                        "mc-study", "ingest", "report")
    ]
    shutil.copytree(Path(__file__).parent / "data", tmp_path / "tests" / "data")
    monkeypatch.chdir(tmp_path)
    codes = [main(argv[1:]) for argv in examples]
    assert codes == [0] * len(examples), capsys.readouterr().err


def public_names() -> list[str]:
    """The names that the README's `## Public names` section lists, one a bullet."""
    return re.findall(r"^- `(\w+)", section("Public names"), re.M)


def test_public_names_are_all():
    names = public_names()
    assert len(names) == len(set(names))
    assert sorted(names) == m4extremes.__all__


def test_public_signatures_match_the_code():
    # a bullet with parentheses lists the parameters, the `*` marker and the defaults
    bullets = re.findall(r"^- `(\w+)\(([^`]*)\)`", section("Public names"), re.M)
    assert {"from_json_dict", "FieldSample", "ingest_stations"} <= dict(bullets).keys()
    for name, params in bullets:
        namespace: dict = {}
        exec(f"def {name}({params}): ...", namespace)
        code = inspect.signature(getattr(m4extremes, name))
        bare = [p.replace(annotation=p.empty) for p in code.parameters.values()]
        assert inspect.signature(namespace[name]) == code.replace(
            parameters=bare, return_annotation=code.empty), name


def test_layout_names_every_module():
    block = re.search(r"```\n(.*?)```", section("Layout"), re.S).group(1)
    named = re.findall(r"^  (\S+\.py) ", block, re.M)
    assert sorted(named) == sorted(path.name for path in PACKAGE.iterdir() if path.is_file())
