"""No module of the package or of the test suite imports a name it never
uses; a name listed in ``__all__`` counts as used (a re-export)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "jetsym").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source):
    """(line, name) of each name that source imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_unused_and_reexported_names():
    assert unused_imports("import os\nimport a.b\nfrom x import y as z, w\nw()\n") == [
        (1, "os"), (2, "a"), (3, "z")]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES for line, name in unused_imports(path.read_text())]
    assert found == []
