"""The package's exported names: the top-level package binds nothing but
its version, every export resolves and is defined in the module that
exports it, every export is used by the library itself (bar a commented
allowlist), and the test-side references in tests/literal.py are not
library names. With no linter at hand, four dead-code checks run here
too: no library module imports a name it never loads, every private
module-level function, class or constant is loaded by some library
module, and every public method or property of a library class is
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
    "verify_markov_step",  # ROADMAP item 2: its rows are to join run's aggregate.json
    "analyze_regularity",  # ROADMAP item 11: the systematic-facts verdict reads it
}


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves(module_name):
    module = importlib.import_module(f"factoidlab.{module_name}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


#: every library module outside __init__.py, which binds only __version__
LIBRARY_TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(Path(factoidlab.__file__).parent.glob("*.py"))
    if path.name != "__init__.py"
}


def test_package_binds_only_its_version():
    # every name is imported from the module that defines it; the package
    # holds its docstring and the version each run's manifest.json records
    tree = ast.parse(Path(factoidlab.__file__).read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    statements = tree.body[1:]
    assert [type(node) for node in statements] == [ast.Assign]
    assert [ast.unparse(target) for target in statements[0].targets] == ["__version__"]


def _defined(tree: ast.Module) -> set[str]:
    """Every name a module's top level binds by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return names


def test_every_export_is_defined_in_its_module():
    # a name exported by a module that only imports it has two import paths
    foreign = []
    for file, tree in LIBRARY_TREES.items():
        module = importlib.import_module(f"factoidlab.{Path(file).stem}")
        defined = _defined(tree)
        foreign += [f"{file}: {name}" for name in getattr(module, "__all__", ()) if name not in defined]
    assert foreign == []


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


def test_every_private_module_constant_is_loaded_by_the_library():
    # a limit, table or message constant left unread once its last reader is gone
    loaded = _loaded_names()
    dead = [
        f"{file}: {target.id}"
        for file, tree in LIBRARY_TREES.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
        and target.id.startswith("_")
        and not target.id.startswith("__")
        and target.id not in loaded
    ]
    assert dead == []


def test_every_public_method_and_property_is_loaded_by_the_library():
    loaded = _loaded_names()
    dead = [
        f"{file}: {cls.name}.{node.name}"
        for file, tree in LIBRARY_TREES.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in loaded
    ]
    assert dead == []
