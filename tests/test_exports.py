"""Every exported name resolves: each module's ``__all__`` and every name the
package imports, so a deleted function cannot leave a stale entry behind.  Every
name a module imports is used there or exported, so a deletion cannot leave a
stale import behind either."""

import ast
import importlib
from pathlib import Path

import pytest

import strongrev

MODULES = sorted(
    path.stem for path in Path(strongrev.__file__).parent.glob("*.py") if path.stem != "__init__"
)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_name_in_all(name):
    module = importlib.import_module(f"strongrev.{name}")
    namespace = {}
    exec(f"from strongrev.{name} import *", namespace)
    assert [n for n in module.__all__ if n not in namespace] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(strongrev.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"strongrev.{node.module}")
        for alias in node.names:
            assert getattr(strongrev, alias.name) is getattr(module, alias.name)


def _bound_names(node) -> list[str]:
    """The names an import statement binds in its module."""
    if isinstance(node, ast.ImportFrom):
        if node.module == "__future__":
            return []
        return [alias.asname or alias.name for alias in node.names]
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used_or_exported(name):
    path = Path(strongrev.__file__).parent / f"{name}.py"
    tree = ast.parse(path.read_text())
    imported = [
        bound
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for bound in _bound_names(node)
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(importlib.import_module(f"strongrev.{name}").__all__)
    assert [n for n in imported if n not in used and n not in exported] == []
