"""Every console script that ``pyproject.toml`` declares can be imported,
the package imports nothing at run time beyond the standard library and
numpy, imports no name it never uses, every name the benchmark's span tracer
wraps exists, every error class is raised somewhere in the package or is
the base of one that is, and every public function of ``autodiff`` has a
caller in the package."""

import ast
import importlib
import importlib.util
import sys
import tomllib
from pathlib import Path

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


def test_every_public_autodiff_function_has_a_caller_in_the_package():
    """An op only tests call is dead weight: the package's own formulas set
    the op set (``take`` is called by ``Var.__getitem__``)."""
    package = ROOT / "src" / "sowa"
    tree = ast.parse((package / "autodiff.py").read_text(encoding="utf-8"))
    public = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    called = set()
    for node in public:  # inside autodiff: a reference from outside the function's own body
        own = {id(inner) for inner in ast.walk(node)}
        if any(isinstance(ref, ast.Name) and ref.id == node.name and id(ref) not in own
               for ref in ast.walk(tree)):
            called.add(node.name)
    for path in sorted(package.glob("*.py")):
        if path.name == "autodiff.py":
            continue
        module = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imports = [node for node in ast.walk(module)
                   if isinstance(node, ast.ImportFrom) and node.level == 1]
        aliases = {a.asname or a.name for node in imports if node.module is None
                   for a in node.names if a.name == "autodiff"}
        called |= {a.name for node in imports if node.module == "autodiff" for a in node.names}
        called |= {node.attr for node in ast.walk(module) if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id in aliases}
    assert sorted(node.name for node in public if node.name not in called) == []
