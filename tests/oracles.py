"""Reference implementations that the library's fast paths are tested against."""

import itertools

from theta2.boxprod import BoxCellSet
from theta2.cellset import Cell, Subobject, TruncatedCellularSet
from theta2.sset import standard_simplex
from theta2.theta import (
    CellularOperator,
    compose_cellular,
    elementary_degeneracies,
    faces_into,
    identity_cellular,
    interval_index,
)


class TrialSearch:
    """Mixin: decompose a cell by the trial-degeneracy search.

    For each elementary degeneracy, act by its section and then by the
    degeneracy; when that gives the cell back, recurse on the lower cell.
    The library reads the same decomposition off the cell's runs
    (``theta.reedy_runs``).
    """

    def nd_decompose(self, cell):
        """The unique (nondegenerate cell, degeneracy) pair presenting the cell."""
        key = cell
        hit = self._nd_memo.get(key)
        if hit is not None:
            return hit
        result = None
        for deg, sec in elementary_degeneracies(cell.shape):
            lower = self.act(cell, sec)
            if self.act(lower, deg) == cell:
                nd, rest = self.nd_decompose(lower)
                result = (nd, compose_cellular(deg, rest))
                break
        if result is None:
            result = (cell, identity_cellular(cell.shape))
        self._nd_memo[key] = result
        return result

    def is_nondegenerate(self, cell):
        return self.nd_decompose(cell)[0] == cell

    def _compute_nd_cells(self, shape):
        # filter every cell by the trial search, whatever the ambient builds
        return tuple(c for c in self.cells(shape) if self.is_nondegenerate(Cell(shape, c)))


class TrialOracle(TrialSearch, TruncatedCellularSet):
    """An ambient's cells and action, decomposed by the trial search."""

    def __init__(self, ambient):
        super().__init__(ambient.bound)
        self.ambient = ambient

    def _compute_cells(self, shape):
        return self.ambient.cells(shape)

    def _act(self, cell, op):
        return self.ambient._act(cell, op)


# -- the representable as a box ------------------------------------------------


def box_representable(shape, bound=None):
    """box(id; Delta[q1],...,Delta[qn]), isomorphic to the representable."""
    if bound is None:
        bound = shape.dim
    return BoxCellSet(standard_simplex(shape.n), [standard_simplex(q) for q in shape.qs], bound)


def box_cell_to_operator(box, cell, shape_codomain):
    """Transport a cell of box(id; Delta[q*]) to an operator into [n;q]."""
    return CellularOperator(cell.shape, shape_codomain, *cell.payload)


def operator_to_box_cell(f):
    """Inverse transport: an operator into [n;q] as a box cell payload."""
    return Cell(f.src, (f.x, f.comps))


# -- gluing squares by the where/contains path ----------------------------------
#
# The library checks a square by one table of nondegenerate ids per step
# (``anodyne.gluing``); this is the earlier path it replaced: the pullback
# by ``Subobject.where`` and ``contains``, the outside images by ``act`` and
# ``is_nondegenerate``, and the cover by comparing cell sets.


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


def _image_subobject(step, images=None):
    """The closure of the attached cell, or of the map's images."""
    if step.cell is not None:
        return Subobject.generated(step.ambient, [step.cell])
    return Subobject.generated(step.ambient, [img for _, img in images])


def reference_square(step):
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

    after = step.before.union(_image_subobject(step, images))
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


# -- faces by the jointly-monic chain search ------------------------------------
#
# The library builds the faces into a shape as the closure of its identity
# under hyperfaces (``theta.faces_into``); this is the search it replaced: a
# face is a monic horizontal map whose components over each interval are
# jointly monic.


def _jointly_monic_families(p, qs):
    """All jointly monic tuples of operators [p] -> [q] for q in qs, as values.

    Equivalently the strictly increasing (p+1)-chains in the product
    poset; enumerated directly so large shapes stay tractable.
    """
    points = list(itertools.product(*(range(q + 1) for q in qs)))
    out = []
    chain = []

    def extend():
        if len(chain) == p + 1:
            out.append(tuple(zip(*chain)))
            return
        last = chain[-1]
        for nxt in points:
            if nxt != last and all(a <= b for a, b in zip(last, nxt)):
                chain.append(nxt)
                extend()
                chain.pop()

    for start in points:
        chain = [start]
        extend()
    return out


def jointly_monic_faces(src, dst):
    """All face operators src -> dst (monic horizontal, jointly monic parts)."""
    out = []
    m, n = src.n, dst.n
    if m > n:
        return ()
    for a in itertools.combinations(range(n + 1), m + 1):
        pools = []
        for l in range(1, m + 1):
            ks = range(a[l - 1] + 1, a[l] + 1)
            pools.append(_jointly_monic_families(src.q(l), tuple(dst.q(k) for k in ks)))
        for families in itertools.product(*pools):
            comps = tuple(c for fam in families for c in fam)
            out.append(CellularOperator(src, dst, a, comps))
    out.sort()
    return tuple(out)


# -- the free nerve as operators ------------------------------------------------


def free_nerve_cell_to_operator(target_shape, cell):
    """The canonical bijection from free-shape nerve cells to operators.

    The object chain is the horizontal part; the hom chains record each
    component's values through the product-poset coordinates.
    """
    objs, paths = cell.payload
    comps = []
    for k in range(objs[0] + 1, objs[-1] + 1):
        i = interval_index(objs, k)
        comps.append(tuple([f[3][k - objs[i - 1] - 1] for f in paths[i - 1][0]]))
    return CellularOperator(cell.shape, target_shape, objs, comps)
