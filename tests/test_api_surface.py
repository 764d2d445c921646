"""The package's exported names: every export resolves, and the top-level
package re-exports only names its modules export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import factoidlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(factoidlab.__path__))


def _package_imports() -> list[tuple[str, str]]:
    """(module, name) for every name factoidlab/__init__.py imports from
    one of its own modules."""
    tree = ast.parse(Path(factoidlab.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves(module_name):
    module = importlib.import_module(f"factoidlab.{module_name}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_package_imports_only_exported_names():
    imports = _package_imports()
    assert imports
    unexported = []
    for module_name, name in imports:
        module = importlib.import_module(f"factoidlab.{module_name}")
        if name not in getattr(module, "__all__", ()):
            unexported.append(f"{module_name}.{name}")
    assert unexported == []
