"""Static checks on the package source: import placement and ``__all__``."""

import ast
from pathlib import Path

import lattice_frames

PACKAGE_DIR = Path(lattice_frames.__file__).resolve().parent
MODULES = sorted(PACKAGE_DIR.rglob("*.py"))
FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _top_level_names(tree):
    """Names bound by the module's own top-level statements."""
    names = set()
    todo = list(tree.body)
    while todo:
        stmt = todo.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in stmt.names)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for t in targets:
                names.update(n.id for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(stmt, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                todo.extend(getattr(stmt, block, []))
            for handler in getattr(stmt, "handlers", []):
                todo.extend(handler.body)
    return names


def _declared_all(tree):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    return []


def test_no_intra_package_import_inside_a_function():
    offenders = []
    for path in MODULES:
        for fn in ast.walk(_parse(path)):
            if not isinstance(fn, FUNCTION_NODES):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and (
                        node.level or (node.module or "").startswith("lattice_frames")):
                    offenders.append(f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}")
    assert offenders == []


def test_every_exported_name_is_defined():
    missing = []
    for path in MODULES:
        tree = _parse(path)
        defined = _top_level_names(tree)
        missing += [f"{path.relative_to(PACKAGE_DIR)}: {name}"
                    for name in _declared_all(tree) if name not in defined]
    assert missing == []
