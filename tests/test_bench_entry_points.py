"""The benchmark under ``perfbench/`` drives the library through named entry
points.  Its files are read here as source text, never imported or changed,
so a renamed function or a changed call signature fails this suite rather
than the benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import dsvolterra

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
#: names the benchmark files bind to the library and its modules
ALIASES = {
    "dv": dsvolterra,
    "cli": importlib.import_module("dsvolterra.cli"),
    "harness": importlib.import_module("dsvolterra.harness"),
    "volterra": importlib.import_module("dsvolterra.volterra"),
}


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _traced():
    for node in ast.walk(_tree("spans.py")):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TRACED")


def _library_uses(name):
    """``(alias, attribute, call)`` for each ``alias.attribute`` in the file,
    with the call node when the attribute is called."""
    tree = _tree(name)
    calls = {
        id(node.func): node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    return [
        (node.value.id, node.attr, calls.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ALIASES
    ]


@pytest.mark.parametrize("qualified", _traced())
def test_traced_name_resolves(qualified):
    module_name, function_name = qualified.split(".")
    module = importlib.import_module(f"dsvolterra.{module_name}")
    assert callable(getattr(module, function_name, None)), qualified


@pytest.mark.parametrize("name", ["workloads.py", "make_reference.py"])
def test_library_names_resolve_and_accept_their_calls(name):
    uses = _library_uses(name)
    assert any(alias == "dv" for alias, _, _ in uses)
    for alias, attribute, call in uses:
        where = f"perfbench/{name}: {alias}.{attribute}"
        assert hasattr(ALIASES[alias], attribute), where
        if call is None or any(isinstance(a, ast.Starred) for a in call.args):
            continue
        if any(k.arg is None for k in call.keywords):
            continue
        target = getattr(ALIASES[alias], attribute)
        try:
            inspect.signature(target).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"{where}: the call does not fit the signature: {exc}")
