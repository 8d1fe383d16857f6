"""Every console script that ``pyproject.toml`` declares can be imported,
the package imports nothing at run time beyond the standard library and
numpy, imports no name it never uses, every name the benchmark's span tracer
wraps exists, every error class is raised somewhere in the package or is
the base of one that is, and every public function, class and method has a
caller in the package or its benchmark."""

import ast
import importlib
import importlib.util
import sys
import tomllib
from pathlib import Path

import pytest

from sowa import errors

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
RUNTIME_MODULES = set(sys.stdlib_module_names) | {"numpy", "sowa"}


def test_declared_script_targets_import():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    for name, target in project.get("scripts", {}).items():
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"script {name!r}: {target} is not callable"


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted((ROOT / "src" / "sowa").glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {n}" for n in names
                        if n.partition(".")[0] not in RUNTIME_MODULES]
    assert foreign == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted((ROOT / "src" / "sowa").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                for alias in node.names:  # ``import a.b`` binds ``a``
                    imported[(alias.asname or alias.name).partition(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_traced_site_resolves():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    absent = []
    for layer, (_, sites) in tracer.LAYERS.items():
        for module_name, path in sites:
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                absent.append(f"{layer}: {module_name}.{path}")
    assert absent == []


def test_every_error_class_is_raised_or_is_the_base_of_one_that_is():
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and cls.__module__ == errors.__name__}
    raised = set()
    for path in sorted((ROOT / "src" / "sowa").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc).rpartition(".")[2])
    live = {base for name in raised & classes.keys() for base in classes[name].__mro__}
    assert sorted(name for name, cls in classes.items() if cls not in live) == []


# Public names that nothing in ``src/`` or ``perfbench/`` calls yet, each
# with the ROADMAP item that gives it a caller or deletes it. The list may
# only shrink: an entry that gains a caller fails the test too.
NO_CALLER_YET = {
    "config.RunConfig.to_dict": "item 6",
    "model.SowaModel.save_checkpoint": "item 6",
    "model.SowaModel.load_checkpoint": "item 6",
    "training.optimizer_tensors": "item 6",
    "training.restore_optimizer": "item 6",
    # read only by the benchmark's tracer sites, which wrap but never call them
    "fusion.anomaly_map": "item 2a",
    "metrics.pro": "item 14",
    # the float64 mode's switch, which only tests turn
    "numerics.precision": "item 14",
}
PACKAGE = ROOT / "src" / "sowa"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _public_names(tree):
    """(name, node) of every public module-level function and class, and of
    every public method as ``Class.method``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _references(tree, module):
    """The names ``tree`` reads from ``module`` of the package: imported from
    it or read as attributes of a name bound to it, and every attribute name
    it reads, since a method is called on an instance."""
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    aliases = {a.asname or a.name for node in imports
               if (node.level, node.module) in ((1, None), (0, "sowa"))
               for a in node.names if a.name == module}
    names = {a.name for node in imports
             if (node.level, node.module) in ((1, module), (0, f"sowa.{module}"))
             for a in node.names}
    attrs = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    names |= {node.attr for node in attrs
              if isinstance(node.value, ast.Name) and node.value.id in aliases}
    return names, {node.attr for node in attrs}


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_public_name_has_a_caller_in_the_package(module):
    """A public function, class or method that only tests call is dead
    weight: the package and its benchmark are its callers. In its own module
    a function or class is called where its name is read outside its own
    definition (``autodiff.take`` by ``Var.__getitem__``); a method is
    called wherever an attribute of its name is read."""
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    public = dict(_public_names(tree))
    called = set()
    for name, node in public.items():
        own = {id(inner) for inner in ast.walk(node)}
        kind, field = (ast.Attribute, "attr") if "." in name else (ast.Name, "id")
        if any(isinstance(ref, kind) and getattr(ref, field) == name.rpartition(".")[2]
               and id(ref) not in own for ref in ast.walk(tree)):
            called.add(name)
    for other in CALLERS:
        if other != path:
            names, attrs = _references(ast.parse(other.read_text(encoding="utf-8"), str(other)),
                                       module)
            called |= {name for name in public
                       if name.rpartition(".")[2] in (attrs if "." in name else names)}
    allowed = sorted(name.partition(".")[2] for name in NO_CALLER_YET
                     if name.partition(".")[0] == module)
    assert sorted(public.keys() - called) == allowed
