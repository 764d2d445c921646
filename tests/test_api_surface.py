"""The package's exported names: every export resolves, the top-level
package re-exports only names its modules export, every export is used
by the library itself (bar a commented allowlist), and the test-side
references in tests/literal.py are not library names. With no linter at
hand, two dead-code checks run here too: no library module imports a
name it never loads, and every private module-level function or class is
loaded by some library module."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import factoidlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(factoidlab.__path__))

#: Exported names that no library module loads, each kept for the reason
#: beside it. Anything else the library exports and never uses belongs
#: in tests/literal.py or nowhere.
UNUSED_EXPORTS_ALLOWED = {
    "sample_iid",  # perfbench's posterior_exhaustive draws its sample with it
    "run_multi_type_experiment",  # perfbench's multi_type workload runs it
    "run_trial",  # the public one-trial entry point: run_experiment's scoring on a batch of one
    "dist_from_weights",  # perfbench's concentration workload builds its p with it
    "verify_markov_step",  # ROADMAP item 1: its rows are to join run's aggregate.json
    "analyze_regularity",  # ROADMAP item 8: the systematic-facts verdict reads it
}


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


#: every library module outside __init__.py, which only re-exports
LIBRARY_TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(Path(factoidlab.__file__).parent.glob("*.py"))
    if path.name != "__init__.py"
}


def _loads(tree: ast.AST) -> set[str]:
    """Every name a module loads, as a bare name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _loaded_names() -> set[str]:
    """Every name a library module outside __init__.py loads."""
    return set().union(*map(_loads, LIBRARY_TREES.values()))


def test_every_export_is_used_by_the_library():
    loaded = _loaded_names()
    exported = {
        name
        for module_name in MODULES
        for name in getattr(importlib.import_module(f"factoidlab.{module_name}"), "__all__", ())
    }
    assert sorted(exported - loaded - UNUSED_EXPORTS_ALLOWED) == []
    # an allowlisted name that gains a library caller leaves the list
    assert sorted(UNUSED_EXPORTS_ALLOWED - (exported - loaded)) == []


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


def test_no_library_module_imports_a_name_it_never_loads():
    unused = []
    for file, tree in LIBRARY_TREES.items():
        module = importlib.import_module(f"factoidlab.{Path(file).stem}")
        used = _loads(tree) | set(getattr(module, "__all__", ()))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{file}: {name}")
    assert unused == []


def test_every_private_function_and_class_is_loaded_by_the_library():
    loaded = _loaded_names()
    dead = [
        f"{file}: {node.name}"
        for file, tree in LIBRARY_TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in loaded
    ]
    assert dead == []
