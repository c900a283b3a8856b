import ast
from pathlib import Path

import theta2

PACKAGE = Path(theta2.__file__).parent


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_no_unused_top_level_imports():
    # package __init__ modules import names only to re-export them
    modules = [p for p in sorted(PACKAGE.rglob("*.py")) if p.name != "__init__.py"]
    assert modules
    unused = {str(p.relative_to(PACKAGE)): _unused_imports(p) for p in modules}
    assert {m: names for m, names in unused.items() if names} == {}
