import ast
import os
import subprocess
import sys
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


def test_no_trial_degeneracy_search_in_src():
    # every ambient reads its degeneracies off its runs (theta.reedy_runs);
    # the search over elementary degeneracies is the tests' oracle only
    calls = [
        f"{p.relative_to(PACKAGE)}:{node.lineno}"
        for p in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Call) and "elementary_degeneracies" in _names([node.func])
    ]
    assert calls == []


def test_gluing_squares_read_one_table():
    # a square reads its images' ids off one table per step; acting on each
    # face again, or testing images for degeneracy, is the tests' reference
    calls = [
        f"anodyne/gluing.py:{node.lineno}"
        for node in ast.walk(ast.parse((PACKAGE / "anodyne" / "gluing.py").read_text()))
        if isinstance(node, ast.Call) and {"act", "is_nondegenerate"} & _names([node.func])
    ]
    assert calls == []


_TRACED_RUN = """
import sys
sys.path.insert(0, "perfbench")
from tracer import Tracer

tracer = Tracer()
tracer.install([])
from theta2.anodyne import horiz_equiv, lift_check, replay, spine_anodyne, vert_equiv
from theta2.cellset import from_simplicial
from theta2.sset import J
from theta2.theta import ThetaShape

assert replay(vert_equiv(ThetaShape((0, 1)), 1, 3))["ok"]
assert replay(spine_anodyne(ThetaShape((0, 0))))["ok"]
assert replay(horiz_equiv(ThetaShape((0,)), 2))["ok"]
assert lift_check(from_simplicial(J, 3), "inner", 3)["unfilled"] == 0
# a replay decides box membership without listing cells; ask for a list
assert vert_equiv(ThetaShape((0, 1)), 1, 3).ambient.cells(ThetaShape((0,)))
for key, count in sorted(tracer.calls.items()):
    print(key, count)
# reads every theta cache's statistics: one that stops being an lru_cache fails
tracer.metrics()
"""

# wrapped methods and functions that the traced run above must reach
_TRACED_KEYS = (
    "boxprod.BoxCellSet._act",
    "boxprod.BoxCellSet._compute_cells",
    "cellset.FromSimplicial._act",
    "cellset.ProductCellSet._act",
    "cellset.Subobject.contains",
    "cellset.Subobject.generated",
    "cellset.Subobject.pullback_along",
    "cellset.TruncatedCellularSet.act",
    "cellset.TruncatedCellularSet.is_nondegenerate",
    "cellset.TruncatedCellularSet.nd_cells",
    "cellset.TruncatedCellularSet.nd_decompose",
    "cellset.Representable.nd_decompose",
    "sset.SimplicialSet.act",
    "theta.compose_cellular",
    "theta.faces_into",
    "theta.reedy_factor",
    "anodyne.gluing.verify_gluing_square",
    "anodyne.gluing.image_subobject",
    "anodyne.lifting.find_filler",
)


def test_benchmark_tracer_installs_and_counts():
    # the benchmark's tracer wraps methods by name: a rename in src/ must
    # fail here, not only when the benchmark runs
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    counts = dict(line.rsplit(" ", 1) for line in proc.stdout.splitlines())
    assert {key: int(counts.get(key, 0)) > 0 for key in _TRACED_KEYS} == dict.fromkeys(
        _TRACED_KEYS, True
    )
