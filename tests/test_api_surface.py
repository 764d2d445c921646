"""The package's exported names: the top-level package binds nothing but
its version, every export resolves and is defined in the module that
exports it, every export is used by the library itself (bar a commented
allowlist), and the test-side references in tests/literal.py are not
library names. With no linter at hand, six dead-code checks run here
too: no library module imports a name it never loads, every private
module-level function, class or constant is loaded by some library
module, every public method or property of a library class is loaded as
an attribute by some library module, every parameter of a library
function is read in its body and every field of a library dataclass is
read as an attribute or named in a string by some library module (the
three bar a commented allowlist). No library module reads every
atom's weight through weights_at(np.arange(...)): dist._dense_weights is
the one route to a per-atom table. No library module hands math.fsum a
.tolist() of an array, directly or star-unpacked in a list: fsum reads
the array's buffer through memoryview instead. No library module but
dist.py writes a distribution's inverse-CDF table: dist lays it out and
is the one place that hands a table to a distribution. The unchecked
builds of a distribution and a training sample are called only at their
named call sites, and nothing else calls __new__ around the checks."""

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


def _loaded_attributes() -> set[str]:
    """Every attribute name a library module outside __init__.py loads."""
    return {
        node.attr
        for tree in LIBRARY_TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


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


#: Public methods and properties no library module loads as an attribute,
#: each kept for the reason beside it. Anything else nothing reads goes.
UNREAD_METHODS_ALLOWED = {
    "rng.py: SeededRng.key",  # the stream identity tests name a failing trial by
}


def test_every_public_method_and_property_is_loaded_by_the_library():
    """A method or property counts as read only when some library module
    loads it as an attribute. The check cannot know types: it matches
    names, so a member whose name another object's attribute also has
    (.n, .k_types, .universe_size, .passed) passes whether or not
    anything reads it. Such a member is found dead only by reading the
    code."""
    loaded = _loaded_attributes()
    dead = {
        f"{file}: {cls.name}.{node.name}"
        for file, tree in LIBRARY_TREES.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in loaded
    }
    assert sorted(dead - UNREAD_METHODS_ALLOWED) == []
    # an allowlisted member that gains a reader leaves the list
    assert sorted(UNREAD_METHODS_ALLOWED - dead) == []


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


#: Dataclass fields no library module reads, each kept for the reason
#: beside it. Anything else a dataclass holds and nothing reads goes.
UNREAD_FIELDS_ALLOWED = {
    "bounds.py: TheoremMainCheck.marginals_ok",  # perfbench's posterior_exhaustive reads it (ROADMAP item 1)
    # a violation's content; brute-force prints only the count
    "bounds.py: LemmaMeatViolation.partition_blocks",
    "bounds.py: LemmaMeatViolation.subset",
    # the regularity verdict AC11 reads
    "worlds.py: RegularityReport.r_facts",
    "worlds.py: RegularityReport.r_probs",
    "harness.py: MultiTypeReport.types",  # perfbench's multi_type reads it (ROADMAP item 1)
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(ast.unparse(d).split("(")[0].split(".")[-1] == "dataclass" for d in cls.decorator_list)


def test_every_dataclass_field_is_read_by_the_library():
    """A field counts as read when some library module loads it as an
    attribute or holds its name in a string constant, alone or as a step
    of a dotted path: the getattr, attrgetter and dict-key routes name a
    field as a string. The check cannot know types: it matches names, so
    a field whose name another object's attribute also has (.n,
    .k_types, .passed) passes whether or not anything reads it."""
    strings = {
        part
        for tree in LIBRARY_TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for part in node.value.split(".")
    }
    read = _loaded_attributes() | strings
    unread = {
        f"{file}: {cls.name}.{node.target.id}"
        for file, tree in LIBRARY_TREES.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for node in cls.body
        if isinstance(node, ast.AnnAssign)
        and isinstance(node.target, ast.Name)
        and node.target.id not in read
    }
    assert sorted(unread - UNREAD_FIELDS_ALLOWED) == []
    # an allowlisted field that gains a reader leaves the list
    assert sorted(UNREAD_FIELDS_ALLOWED - unread) == []


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


#: The call sites, as "module: enclosing function", of every __new__ call
#: in the library: the two unchecked builds, each on the one type it
#: builds, and the seeded streams' children, assembled from checked seeds.
NEW_CALLS_ALLOWED = {
    "dist.py: _valid_dist",
    "estimators.py: _counted",
    "rng.py: children",
}

#: Each unchecked build and the call sites allowed to use it, each of which
#: builds on arrays it made valid itself: dist_from_arrays's normalization
#: of checked input, a template world draw, and a counted row of the
#: chunked draw route.
UNCHECKED_BUILDS_ALLOWED = {
    "_valid_dist": {"dist.py: dist_from_arrays", "worlds.py: _template_world", "worlds.py: sample_world"},
    "_counted": {"harness.py: _drawn"},
}


def _calls_by_site(names: set[str]) -> dict[str, set[str]]:
    """Per called name among names (a bare name or an attribute), the
    "module: innermost enclosing function" of each library call to it."""
    sites: dict[str, set[str]] = {name: set() for name in names}

    def visit(file: str, node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(file, child, child.name)
                continue
            if isinstance(child, ast.Call):
                called = ast.unparse(child.func).split(".")[-1]
                if called in names:
                    sites[called].add(f"{file}: {function}")
            visit(file, child, function)

    for file, tree in LIBRARY_TREES.items():
        visit(file, tree, "<module>")
    return sites


def test_unchecked_builds_run_only_at_their_named_call_sites():
    # a FactoidDist or TrainingSample built without its checks must be
    # built from arrays the library made valid, never from outside input:
    # a new caller of either build, or a new __new__ around the checks,
    # is a visible edit to these lists
    sites = _calls_by_site(set(UNCHECKED_BUILDS_ALLOWED) | {"__new__"})
    assert sites.pop("__new__") == NEW_CALLS_ALLOWED
    assert sites == UNCHECKED_BUILDS_ALLOWED


#: dist's sampling table and the helpers that read it: the table itself,
#: its type, the counter of drawn rows and the guided inversion
TABLE_NAMES = {"_inverse_cdf", "_InverseCdf", "_count_rows", "_guided_slots"}


def _names_a_table(node: ast.AST) -> str | None:
    """The name of TABLE_NAMES a node loads, imports or spells as a string
    (as getattr would take it), else None."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.alias):
        name = node.name
    elif isinstance(node, ast.Constant):
        name = node.value
    else:
        return None
    return name if name in TABLE_NAMES else None


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
    # nor reads one: every sample is drawn and counted by
    # dist._counted_samples and its missing mass read by dist._SlotMasses,
    # so no other module fetches a table, names its type or inverts and
    # counts draws through one
    uses = {
        file: sorted({name for node in ast.walk(tree) if (name := _names_a_table(node))})
        for file, tree in LIBRARY_TREES.items()
    }
    assert {file: names for file, names in uses.items() if names and file != "dist.py"} == {}
    # the rule sees dist's own uses
    assert uses["dist.py"] == sorted(TABLE_NAMES)
