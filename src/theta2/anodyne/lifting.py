"""Right-lifting-property checks against the named horn families.

A map from a horn domain into a cellular set is an assignment on the
nondegenerate member cells compatible with the action; a filler is a
single cell restricting to the assignment.  Every face factors through a
hyperface, so both are decided by a boundary table: the target's cells
keyed by their hyperface images.  Everything is enumerated within the
truncation, so verdicts are certified only up to the bound.
"""

from __future__ import annotations

from functools import cache, partial

from ..boxprod import horn
from ..cellset import Cell
from ..delta import shuffles
from ..theta import hyperfaces, shapes_upto


def boundary_table(target, shape):
    """The target's cells at a shape, grouped by their images under hyperfaces(shape)."""
    table = {}
    for payload in target.cells(shape):
        cell = Cell(shape, payload)
        key = tuple(target.act(cell, h) for _, h in hyperfaces(shape))
        table.setdefault(key, []).append(cell)
    return table


def subobject_maps(dom, tables):
    """All natural maps from a subobject of a representable into the target.

    In dimension order, a cell's candidates are the entry of its boundary
    table ``tables(cell.shape)`` keyed by the images of its hyperfaces.
    """
    nd_cells = list(dom.iter_nd())
    maps = [{}]
    for cell in nd_cells:
        faces = [dom.ambient.act(cell, h) for _, h in hyperfaces(cell.shape)]
        table = tables(cell.shape)
        maps = [
            {**assignment, cell: cand}
            for assignment in maps
            for cand in table.get(tuple(assignment[f] for f in faces), ())
        ]
        if not maps:
            break
    return nd_cells, maps


def find_filler(shape, assignment, tables):
    """A target cell at the horn's shape agreeing with the assignment on the
    hyperfaces the horn contains; they generate the horn."""
    want = [
        (i, assignment[Cell(h.src, h)])
        for i, (_, h) in enumerate(hyperfaces(shape))
        if Cell(h.src, h) in assignment
    ]
    for key, cells in tables(shape).items():
        if all(key[i] == img for i, img in want):
            return cells[0]
    return None


def _family_instances(family, max_dim):
    for shape in shapes_upto(max_dim):
        n = shape.n
        if family in ("inner-h", "inner"):
            for k in range(1, n):
                yield shape, *horn(shape, k)
        if family in ("inner-v", "inner"):
            for k in range(1, n + 1):
                for i in range(1, shape.q(k)):
                    yield shape, *horn(shape, k, i=i)
        if family == "alt-h":
            for k in range(1, n):
                for shf in shuffles(shape.q(k), shape.q(k + 1)):
                    yield shape, *horn(shape, k, shf=shf)


def lift_check(target, family, bound):
    """Search fillers for every horn instance with shape dim <= bound - 1."""
    results = []
    tables = cache(partial(boundary_table, target))
    for shape, tag, inc in _family_instances(family, bound - 1):
        _, maps = subobject_maps(inc.domain, tables)
        missing = []
        for assignment in maps:
            if find_filler(shape, assignment, tables) is None:
                missing.append(sorted(str(img.payload) for img in assignment.values()))
        results.append(
            {
                "shape": str(shape),
                "horn": tag,
                "maps": len(maps),
                "filled": len(maps) - len(missing),
                "missing": missing,
            }
        )
    return {
        "family": family,
        "bound": bound,
        "instances": results,
        "unfilled": sum(len(r["missing"]) for r in results),
    }


def compare_generating_sets(target, bound):
    """Lifting verdicts for the two inner-horn generating sets side by side.

    The two sets interchange the multi-face horizontal horns with the
    single-face alternative ones (vertical horns belong to both); on any
    finite input their all-filled verdicts should agree.
    """
    oury = {
        "inner-h": lift_check(target, "inner-h", bound),
        "inner-v": lift_check(target, "inner-v", bound),
    }
    alt = {
        "alt-h": lift_check(target, "alt-h", bound),
        "inner-v": oury["inner-v"],
    }
    oury_ok = all(rep["unfilled"] == 0 for rep in oury.values())
    alt_ok = all(rep["unfilled"] == 0 for rep in alt.values())
    return {
        "bound": bound,
        "oury": oury,
        "alternative": alt,
        "oury_fills": oury_ok,
        "alternative_fills": alt_ok,
        "agree": oury_ok == alt_ok,
    }
