import ast
from collections import defaultdict
from pathlib import Path

import theta2

PACKAGE = Path(theta2.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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


def _names(nodes):
    """Names read, called or looked up as attributes anywhere in ``nodes``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for node in nodes
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_no_unreferenced_top_level_names():
    # every top-level function and class is used somewhere besides its own
    # body; an import, such as a re-export in a package __init__, is not a use
    trees = {
        p: ast.parse(p.read_text())
        for root in (PACKAGE, ROOT / "tests", ROOT / "perfbench")
        for p in sorted(root.rglob("*.py"))
    }
    files_using = defaultdict(set)
    for path, tree in trees.items():
        for name in _names([tree]):
            files_using[name].add(path)
    unreferenced = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if files_using[node.name] - {path}:
                continue
            if node.name not in _names(n for n in tree.body if n is not node):
                unreferenced.append(f"{path.relative_to(PACKAGE)}:{node.name}")
    assert unreferenced == []
