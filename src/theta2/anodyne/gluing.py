"""Gluing-square verification.

A gluing step attaches either a single representable cell or a whole
cellular-set map onto a running subobject.  The square is certified by
three checks: the brute-force pullback of the running subobject equals
the expected attachment locus, the attachment map is injective outside
that locus, and the nondegenerate cells the attachment adds are exactly
the images of the source cells outside that locus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..cellset import Cell, Subobject
from ..theta import faces_into


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


def _map_images(step):
    """Each nondegenerate source cell of a map step with its image, in source order."""
    src = step.source
    return [
        (cell, step.map_fn(cell))
        for shape in src.shapes()
        for cell in (Cell(shape, c) for c in src.nd_cells(shape))
    ]


def _source_pullback(step, images):
    """The attachment locus computed by brute force."""
    if step.cell is not None:
        return step.before.pullback_along(step.cell)
    image_of = dict(images)
    return Subobject.where(step.source, lambda c: step.before.contains(image_of[c]))


def _outside_images(step, images):
    """Images of the nondegenerate source cells outside the expected locus."""
    if step.cell is None:
        return [(c, img) for c, img in images if not step.expected_w.contains(c)]
    return [
        (Cell(f.src, f), step.ambient.act(step.cell, f))
        for f in faces_into(step.cell.shape)
        if not step.expected_w.contains(Cell(f.src, f))
    ]


def image_subobject(step, images=None):
    """The closure of the attached cell, or of the map's images."""
    if step.cell is not None:
        return Subobject.generated(step.ambient, [step.cell])
    return Subobject.generated(step.ambient, [img for _, img in images])


def verify_gluing_square(step):
    """Run the three checks; returns a report dict with an ``ok`` verdict."""
    report = {
        "label": step.label,
        "horn": step.horn,
        "checks": {},
    }
    if step.cell is not None:
        report["cell"] = str(step.cell.payload)
        report["shape"] = str(step.cell.shape)
        trivial = step.before.contains(step.cell)
    else:
        report["cell"] = "(map)"
        report["shape"] = None
        trivial = False
    report["trivial"] = trivial

    images = None if step.cell is not None else _map_images(step)
    w = _source_pullback(step, images)
    compare_dim = step.bound if step.cell is None else None
    if compare_dim is None:
        report["checks"]["pullback"] = w.same_cells(step.expected_w)
    else:
        report["checks"]["pullback"] = w.equals_up_to(step.expected_w, compare_dim)
        report["compare_dim"] = compare_dim

    outside = _outside_images(step, images)
    injective = True
    seen = {}
    for src_cell, img in outside:
        if not step.ambient.is_nondegenerate(img):
            injective = False
            report.setdefault("violations", []).append(
                f"degenerate image of {src_cell.payload}"
            )
            break
        key = (img.shape, img.payload)
        if key in seen:
            injective = False
            report.setdefault("violations", []).append(
                f"collision {src_cell.payload} vs {seen[key]}"
            )
            break
        if step.before.contains(img):
            injective = False
            report.setdefault("violations", []).append(
                f"image of outside cell {src_cell.payload} already present"
            )
            break
        seen[key] = src_cell.payload
    report["checks"]["injective"] = injective

    after = step.before.union(image_subobject(step, images))
    index = step.ambient.nd_index()
    added = after.mask & ~step.before.mask
    attached = {img for _, img in outside}
    if compare_dim is not None:
        added &= index.upto(compare_dim)
        attached = {c for c in attached if c.shape.dim <= compare_dim}
    report["checks"]["cover"] = set(index.members(added)) == attached
    report["new_nd"] = after.nd_count() - step.before.nd_count()

    report["ok"] = all(report["checks"].values())
    return report, after
