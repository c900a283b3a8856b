"""Gluing-square verification.

A gluing step attaches either a single representable cell or a whole
cellular-set map onto a running subobject.  The square is certified by
three checks: the brute-force pullback of the running subobject equals
the expected attachment locus, the attachment map is injective outside
that locus, and the nondegenerate cells the attachment adds are exactly
the images of the source cells outside that locus.

Every step is a map out of a source (a cell step: the map out of
``representable(cell.shape)`` acting by the cell), and all three checks
read one table, the ``nd_id`` of each nondegenerate source cell's image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..cellset import Cell, Subobject
from ..theta import ThetaError


@dataclass
class GluingStep:
    """Attach ``cell``, or ``source`` through ``map_fn``, onto ``before``.

    Replay scripts leave ``ambient`` and ``before`` unset; the runner fills
    them in with the script's ambient and the running subobject.
    """

    expected_w: Subobject
    ambient: object = None
    before: Optional[Subobject] = None
    cell: Optional[Cell] = None
    source: object = None
    map_fn: Optional[Callable] = None
    horn: Optional[dict] = None
    label: str = ""
    # the truncation bound.  A cell at the bound is glued but not certified:
    # its attachment locus may miss cells whose parents exceed the bound.  A
    # cell above it is a margin attachment, pure coverage and never checked.
    # A map step compares its pullback only on shapes of dimension <= bound.
    bound: Optional[int] = None

    def __post_init__(self):
        if (self.cell is None) == (self.source is None):
            raise ValueError("a gluing step attaches either a cell or a map")


def image_subobject(step, table):
    """The closure of the images of the step's source cells."""
    down = step.ambient.nd_index().down
    mask = 0
    for j in set(table):
        mask |= down[j]
    return Subobject._of(step.ambient, mask)


def verify_gluing_square(step):
    """Run the three checks; returns a report dict with an ``ok`` verdict."""
    report = {"label": step.label, "horn": step.horn, "checks": {}}
    # the table: per nondegenerate source cell, in index order, the nd_id of
    # its image; a cell step's pullback builds it inside the traced span
    if step.cell is not None:
        trivial = step.before.contains(step.cell)
        report.update(cell=str(step.cell.payload), shape=str(step.cell.shape), trivial=trivial)
        w = step.before.pullback_along(step.cell)
        table = step.ambient._pullback_table(step.cell)
    else:
        report.update(cell="(map)", shape=None, trivial=False)
        table = [step.ambient.nd_id(step.map_fn(c)) for c in step.source.nd_index().cells]
        w = step.before.pullback(step.source, table)
    index = step.ambient.nd_index()
    if len(index.cells) in table:
        raise ThetaError(f"an image lies above the truncation bound {step.ambient.bound}")
    compare_dim = step.bound if step.cell is None else None
    if compare_dim is None:
        report["checks"]["pullback"] = w.same_cells(step.expected_w)
    else:
        report["checks"]["pullback"] = w.equals_up_to(step.expected_w, compare_dim)
        report["compare_dim"] = compare_dim

    # outside cells with their images' ids; an action keeps the shape, so an
    # image is degenerate exactly when its nondegenerate part has another shape
    outside = [
        (c, j, index.cells[j].shape != c.shape)
        for i, (c, j) in enumerate(zip(w.ambient.nd_index().cells, table))
        if not step.expected_w.mask >> i & 1
    ]
    seen = {}
    for c, j, degenerate in outside:
        if degenerate:
            report["violations"] = [f"degenerate image of {c.payload}"]
        elif j in seen:
            report["violations"] = [f"collision {c.payload} vs {seen[j]}"]
        elif step.before.mask >> j & 1:
            report["violations"] = [f"image of outside cell {c.payload} already present"]
        else:
            seen[j] = c.payload
            continue
        break
    report["checks"]["injective"] = "violations" not in report

    after = step.before.union(image_subobject(step, table))
    added = after.mask & ~step.before.mask
    attached = 0
    for c, j, degenerate in outside:
        if compare_dim is None or c.shape.dim <= compare_dim:
            # a degenerate image sets the padding bit, which no added cell has
            attached |= 1 << (len(index.cells) if degenerate else j)
    if compare_dim is not None:
        added &= index.upto(compare_dim)
    report["checks"]["cover"] = added == attached
    report["new_nd"] = after.nd_count() - step.before.nd_count()

    report["ok"] = all(report["checks"].values())
    return report, after
