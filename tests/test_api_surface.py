"""The package's exported names: the top-level package binds nothing but
its version, every export resolves and is defined in the module that
exports it, every export is used by the library itself (bar a commented
allowlist), and the test-side references in tests/literal.py are not
library names. With no linter at hand, five dead-code checks run here
too: no library module imports a name it never loads, every private
module-level function, class or constant is loaded by some library
module, every public method or property of a library class is loaded by
some library module, and every parameter of a library function is read
in its body (bar a commented allowlist). No library module reads every
atom's weight through weights_at(np.arange(...)): dist._dense_weights is
the one route to a per-atom table. No library module hands math.fsum a
.tolist() of an array, directly or star-unpacked in a list: fsum reads
the array's buffer through memoryview instead. No library module but
dist.py writes a distribution's inverse-CDF table: dist lays it out and
is the one place that hands a table to a distribution."""

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
    "analyze_regularity",  # ROADMAP item 13: the systematic-facts verdict reads it
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


#: Parameters no library function body reads, each kept for the reason
#: beside it. Anything else a function takes and never reads goes.
UNREAD_PARAMETERS_ALLOWED = {
    # perfbench's posterior_exhaustive passes both positionally (ROADMAP item 1)
    "bounds.py: verify_theorem_main_mc(samples)",
    "bounds.py: verify_theorem_main_mc(rng)",
}


def test_every_parameter_is_read_by_its_function():
    # self and cls excepted; a nested function's reads count for the
    # function that holds it
    unread = set()
    for file, tree in LIBRARY_TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                name.id
                for statement in body
                for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread |= {
                f"{file}: {name}({param})"
                for param in params
                if param not in read and param not in ("self", "cls")
            }
    assert sorted(unread - UNREAD_PARAMETERS_ALLOWED) == []
    # an allowlisted parameter that gains a reader leaves the list
    assert sorted(UNREAD_PARAMETERS_ALLOWED - unread) == []


def test_no_library_module_reads_every_atom_through_weights_at():
    # a table of every atom's weight is dist._dense_weights, one scatter;
    # weights_at(np.arange(...)) would run a sorted-key search per atom
    calls = [
        f"{file}:{node.lineno}"
        for file, tree in LIBRARY_TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "weights_at"
        and any(
            isinstance(arg, ast.Call) and ast.unparse(arg.func).split(".")[-1] == "arange"
            for arg in node.args
        )
    ]
    assert calls == []


def _is_tolist(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "tolist"
    )


def test_no_library_module_hands_fsum_a_list_of_an_array():
    # math.fsum(memoryview(a)) reads the same floats off a's buffer; a
    # .tolist() first builds a Python float per weight, about half the cost
    calls = [
        f"{file}:{node.lineno}"
        for file, tree in LIBRARY_TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1] == "fsum"
        and any(
            _is_tolist(arg)
            or isinstance(arg, ast.List)
            and any(isinstance(e, ast.Starred) and _is_tolist(e.value) for e in arg.elts)
            for arg in node.args
        )
    ]
    assert calls == []


def _names_inverse_cdf(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Constant) and n.value == "_inverse_cdf" for n in ast.walk(node))


def _writes_inverse_cdf(node: ast.AST) -> bool:
    """Whether a node assigns an _inverse_cdf: as an attribute, through a
    setattr, or as a key of an instance dict (a __dict__ or vars())."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        return node.attr == "_inverse_cdf"
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
        target = ast.unparse(node.value)
        return (target.endswith("__dict__") or target.startswith("vars(")) and _names_inverse_cdf(
            node.slice
        )
    if isinstance(node, ast.Call):
        func = ast.unparse(node.func)
        setattr_call = func.split(".")[-1].strip("_") == "setattr"
        if setattr_call or "__dict__." in func or func.startswith("vars("):
            return any(map(_names_inverse_cdf, node.args)) or any(
                k.arg == "_inverse_cdf" for k in node.keywords
            )
    return False


def test_only_dist_writes_an_inverse_cdf_table():
    # a world model shares one table among its draws through
    # dist._share_inverse_cdf; no other module lays out or sets a table
    writes = [
        f"{file}:{node.lineno}"
        for file, tree in LIBRARY_TREES.items()
        for node in ast.walk(tree)
        if _writes_inverse_cdf(node)
    ]
    assert [w for w in writes if not w.startswith("dist.py:")] == []
    # the rule sees the one write it allows
    assert len(writes) == 1
