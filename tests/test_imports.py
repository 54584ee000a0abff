"""Every module of the package and of the tests uses each name it imports, as a linter's F401 check would require.

An import on a line marked ``# noqa: F401`` is loaded on purpose, and a relative import in ``__init__.py`` re-exports.
"""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_MODULES = sorted([*(_ROOT / "src" / "pi0rand").glob("*.py"), *(_ROOT / "tests").glob("*.py")])


def _unused_imports(path: Path) -> list:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and (node.module == "__future__" or node.level and path.name == "__init__.py"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: str(path.relative_to(_ROOT)))
def test_every_imported_name_is_used(path):
    assert _unused_imports(path) == []


def test_an_unused_import_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nimport sys  # noqa: F401\nfrom math import pi, tau as t\n\nprint(pi)\n")
    assert _unused_imports(module) == ["module.py:1: os", "module.py:3: t"]
