import ast
from pathlib import Path

import gwpskit

ROOT = Path(__file__).resolve().parents[1]


def test_public_names_exist():
    """Every exported name is defined, so a star import succeeds and binds them all."""
    missing = [name for name in gwpskit.__all__ if not hasattr(gwpskit, name)]
    assert missing == []
    namespace = {}
    exec("from gwpskit import *", namespace)
    assert set(gwpskit.__all__) <= set(namespace)


def _unused_imports(path: Path) -> list[str]:
    """The names that a module imports and never reads: not as a name, not
    as the base of an attribute, not in a string annotation and not in
    `__all__`.  `from __future__` and an import statement with a
    `# noqa: F401` line are skipped."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or any(
                    "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AnnAssign)):
            # A quoted annotation, such as "WeightedSpace", reads its names.
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            for quoted in ast.walk(note) if note else ():
                if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(quoted.value, mode="eval"))
                                if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    """A stdlib scan in place of a linter: no module of src/, tests/ or
    demos/ imports a name it does not use."""
    files = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
    assert files
    assert [entry for p in files for entry in _unused_imports(p)] == []
