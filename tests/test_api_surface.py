"""The package's exported names: every export resolves, the top-level
package re-exports only names its modules export, and the test-side
references in tests/literal.py are not library names."""

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


def test_test_side_references_are_not_library_names():
    # entry points nothing in the library calls live on in tests/literal.py
    # as references; none of them may come back as a library name
    tree = ast.parse((Path(__file__).parent / "literal.py").read_text(encoding="utf-8"))
    references = [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert "posterior_fact_marginal" in references
    defined = [
        f"{module_name}.{name}"
        for module_name in MODULES
        for name in references
        if hasattr(importlib.import_module(f"factoidlab.{module_name}"), name)
    ]
    assert defined == []
