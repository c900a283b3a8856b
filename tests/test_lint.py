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


def _function_local_imports(path):
    tree = ast.parse(path.read_text())
    lines = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(
                node.lineno
                for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            )
    return sorted(lines)


def test_no_function_local_imports():
    # every import sits at the top of its module, where a reader looks for it
    found = {
        str(p.relative_to(PACKAGE)): _function_local_imports(p)
        for p in sorted(PACKAGE.rglob("*.py"))
    }
    assert {m: lines for m, lines in found.items() if lines} == {}
