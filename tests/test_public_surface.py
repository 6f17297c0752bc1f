"""The public surface: every exported name resolves, and the package root
exports only what it imports, once."""

import ast
import importlib
import inspect
import pkgutil

import colltherm


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(colltherm.__path__):
        module = importlib.import_module(f"colltherm.{info.name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"colltherm.{info.name}.__all__ names missing {missing}"
    exported = colltherm.__all__
    assert len(set(exported)) == len(exported), "colltherm.__all__ repeats a name"
    tree = ast.parse(inspect.getsource(colltherm))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(exported) - {"__version__"} <= imported
    assert all(hasattr(colltherm, name) for name in exported)
