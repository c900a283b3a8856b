"""Right-lifting-property checks against the named horn families.

A map from a horn domain into a cellular set is an assignment on the
nondegenerate member cells compatible with the action; a filler is a
single cell restricting to the assignment.  Everything is enumerated
within the truncation, so verdicts are certified only up to the bound.
"""

from __future__ import annotations

from ..boxprod import horn_h, horn_h_alt, horn_v
from ..cellset import Cell
from ..delta import shuffles
from ..theta import faces_into, shapes_upto


def subobject_maps(dom, target):
    """All natural maps from a subobject of a representable into target.

    Assignments are built nondegenerate cell by cell, in dimension order,
    checking face compatibility against what is already placed.
    """
    nd_cells = sorted(dom.iter_nd(), key=lambda c: (c.shape.dim, c.shape, c.payload))
    amb = dom.ambient
    maps = [{}]
    for cell in nd_cells:
        constraints = []
        for g in faces_into(cell.shape):
            if g.src == cell.shape and g.is_identity():
                continue
            sub, deg = amb.nd_decompose(amb.act(cell, g))
            constraints.append((g, sub, deg))
        new_maps = []
        for assignment in maps:
            for cand in target.cells(cell.shape):
                cand_cell = Cell(cell.shape, cand)
                good = True
                for g, sub, deg in constraints:
                    want = target.act(assignment[sub], deg)
                    if target.act(cand_cell, g) != want:
                        good = False
                        break
                if good:
                    nxt = dict(assignment)
                    nxt[cell] = cand_cell
                    new_maps.append(nxt)
        maps = new_maps
        if not maps:
            break
    return nd_cells, maps


def find_filler(shape, assignment, target):
    """A cell of target at the horn's shape restricting to the assignment."""
    for cand in target.cells(shape):
        cand_cell = Cell(shape, cand)
        if all(
            target.act(cand_cell, cell.payload) == img
            for cell, img in assignment.items()
        ):
            return cand_cell
    return None


def _family_instances(family, max_dim):
    for shape in shapes_upto(max_dim):
        n = shape.n
        if family in ("inner-h", "inner"):
            for k in range(1, n):
                yield shape, {"family": "horn-h", "k": k}, horn_h(shape, k)
        if family in ("inner-v", "inner"):
            for k in range(1, n + 1):
                for i in range(1, shape.q(k)):
                    yield shape, {"family": "horn-v", "k": k, "i": i}, horn_v(shape, k, i)
        if family == "alt-h":
            for k in range(1, n):
                for shf in shuffles(shape.q(k), shape.q(k + 1)):
                    yield shape, {
                        "family": "horn-h-alt",
                        "k": k,
                        "shuffle": str(shf),
                    }, horn_h_alt(shape, k, shf)


def lift_check(target, family, bound):
    """Search fillers for every horn instance with shape dim <= bound - 1."""
    results = []
    for shape, tag, inc in _family_instances(family, bound - 1):
        nd_cells, maps = subobject_maps(inc.domain, target)
        filled = 0
        missing = []
        for assignment in maps:
            z = find_filler(shape, assignment, target)
            if z is not None:
                filled += 1
            else:
                missing.append(
                    sorted(str(img.payload) for img in assignment.values())
                )
        results.append(
            {
                "shape": str(shape),
                "horn": tag,
                "maps": len(maps),
                "filled": filled,
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
