"""The package exports exactly the names its documented users take from it.

The demos, the README's Python examples and the benchmark under
``perfbench/`` are read as source text, never imported or changed.  Every
name they import from ``dsvolterra`` or read off it as an attribute
(submodules aside) must be exported, and nothing else may be, so the public
API cannot grow without a user that shows it.  Tests take everything else
from the submodules.  The README's examples also run here, in order.
"""

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import dsvolterra

ROOT = Path(__file__).resolve().parent.parent


def _readme_blocks():
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def _trees():
    for path in sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py")):
        yield ast.parse(path.read_text(), filename=str(path))
    for block in _readme_blocks():
        yield ast.parse(block, filename="README.md")


def _used_names():
    trees = list(_trees())
    # names bound to the package: ``import dsvolterra as dv`` in one benchmark
    # file is read as ``dv`` by another that imports it from there
    aliases = {"dsvolterra"} | {
        alias.asname
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "dsvolterra" and alias.asname
    }
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "dsvolterra":
                names.update(alias.name for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                names.add(node.attr)
    return {
        name
        for name in names
        if not name.startswith("__") and importlib.util.find_spec(f"dsvolterra.{name}") is None
    }


def test_all_is_what_the_demos_readme_and_benchmark_use():
    assert sorted(dsvolterra.__all__) == sorted(_used_names())


def test_namespace_holds_only_the_exported_names_and_submodules():
    public = {
        name
        for name, value in vars(dsvolterra).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(dsvolterra.__all__)


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    # each block continues the one before it, as a reader would run them,
    # and none writes a file
    monkeypatch.chdir(tmp_path)
    namespace = {}
    blocks = _readme_blocks()
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert blocks and list(tmp_path.iterdir()) == []
    assert "[]" in capsys.readouterr().out.splitlines()
