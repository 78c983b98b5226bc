"""Every exported name resolves: each module's ``__all__`` and every name the
package imports, so a deleted function cannot leave a stale entry behind."""

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
