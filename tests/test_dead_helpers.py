"""Every module-level private name in the package is read somewhere in it,
so a helper that a refactor leaves without a caller fails here."""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "wdn_lipschitz"


def _private_names(stmt: ast.stmt) -> list[str]:
    """The _-prefixed (not dunder) names a module-level def, class or
    assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _read_names(stmt: ast.stmt) -> set[str]:
    """The names a statement reads, bare or as an attribute."""
    return ({node.id for node in ast.walk(stmt)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)})


def test_every_private_module_name_is_read_elsewhere():
    statements = [(path.name, stmt) for path in sorted(SOURCE.glob("*.py"))
                  for stmt in ast.parse(path.read_text(), filename=str(path)).body]
    reads = [_read_names(stmt) for _, stmt in statements]
    assert len(statements) > 100
    unread = [f"{module}: {name}"
              for i, (module, stmt) in enumerate(statements)
              for name in _private_names(stmt)
              if not any(name in names for j, names in enumerate(reads) if j != i)]
    assert unread == []
