"""Every console script that ``pyproject.toml`` declares can be imported,
and the package imports nothing at run time beyond the standard library and
numpy."""

import ast
import importlib
import sys
import tomllib
from pathlib import Path

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
