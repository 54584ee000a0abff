"""No module of the package calls BLAS, as README "Start-up" states: ``pi0rand/__init__.py`` loads OpenBLAS without
its thread pool, and ``_tableio._workers`` forks on the ground that the parent then has one OS thread.

A module fails on a matrix product ``@`` or ``@=`` (``ast.MatMult``), on a call to a function named ``dot``,
``matmul``, ``einsum``, ``inner`` or ``tensordot``, and on a call or import that goes through ``linalg``.
"""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_MODULES = sorted((_ROOT / "src" / "pi0rand").glob("*.py"))
_BLAS_NAMES = {"dot", "matmul", "einsum", "inner", "tensordot"}


def _dotted(node) -> list:
    """The names of ``a.b.c`` as ``["a", "b", "c"]``; a part that is not a plain name ends the chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts[::-1]


def _blas_uses(path: Path) -> list:
    uses = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            parts = _dotted(node.func)
            if parts and (parts[-1] in _BLAS_NAMES or "linalg" in parts):
                uses.append((node.lineno, ".".join(parts)))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            if any(part in _BLAS_NAMES or part == "linalg" for name in names for part in name.split(".")):
                uses.append((node.lineno, "import"))
    return [f"{path.name}:{line}: {what}" for line, what in sorted(uses)]


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: str(path.relative_to(_ROOT)))
def test_no_blas_call(path):
    assert _blas_uses(path) == []


def test_a_blas_call_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\nfrom numpy.linalg import solve\n\n"
        "a = np.ones((2, 2))\nb = a @ a\nb @= a\nnp.dot(a, a)\na.dot(a)\nnp.linalg.norm(a)\nnp.einsum('ij->', a)\n"
        "np.inner(a, a)\nnp.tensordot(a, a)\nnp.matmul(a, a)\nnp.multiply(a, a)\nsolve(a, a)\n"
    )
    assert _blas_uses(module) == [
        "module.py:2: import", "module.py:5: @", "module.py:6: @", "module.py:7: np.dot", "module.py:8: a.dot",
        "module.py:9: np.linalg.norm", "module.py:10: np.einsum", "module.py:11: np.inner",
        "module.py:12: np.tensordot", "module.py:13: np.matmul",
    ]
