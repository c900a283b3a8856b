"""Dimension-truncated cellular sets and their subobjects.

A truncated cellular set stores, for every shape of dimension <= bound,
a finite cell set together with the contravariant operator action, and
gives each cell's runs (``_runs``: a label per vertex and the rows over
each interval), off which ``nd_decompose`` reads its Reedy factorisation
with ``theta.reedy_runs``.

Every ambient numbers its nondegenerate cells once, in (shape, payload)
order, and keeps per cell the bitmask of its downset: the cell and every
nondegenerate cell below it (``TruncatedCellularSet.nd_index``).  A
downset ORs the downsets of the cell's hyperface images; an image is
looked up by id and decomposed only when it is degenerate.  On a
representable the nondegenerate cells are the faces, and a face of a
face is a face, so no image is ever decomposed there.

A subobject is its ambient and the bitmask of its nondegenerate members.
Closure ORs downsets, membership tests the bit of a cell's ``nd_id`` (the
id of its nondegenerate part, or the index size above the bound), the
lattice operations are integer operations, and a pullback reads bits
through a table of ``nd_id``s, cached per cell for ``pullback_along``.  The
differential tests in ``tests/test_cellset.py`` check all of this against
a closure by decomposition of hyperface images.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import ne

from .sset import standard_simplex
from .theta import (
    CellularOperator,
    ThetaError,
    ThetaShape,
    cellular_ops,
    compose_cellular,
    faces_between,
    hyperfaces,
    identity_cellular,
    interval_rows,
    reedy_factor,
    reedy_runs,
    shapes_upto,
)

Cell = namedtuple("Cell", ["shape", "payload"])


class NdIndex(namedtuple("NdIndex", ["cells", "ids", "down", "sizes"])):
    """Nondegenerate cells numbered in (shape, payload) order.

    ``ids`` maps a cell to its position, ``down[i]`` is the bitmask of the
    downset of cell i, and ``sizes[d]`` counts the cells of dimension <= d.
    """

    def members(self, mask):
        """The cells whose bits are set in the mask, in index order."""
        cells = self.cells
        return [cells[i] for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]

    def upto(self, dim):
        """The bitmask of the cells of dimension <= dim."""
        if dim < 0:
            return 0
        return (1 << self.sizes[min(dim, len(self.sizes) - 1)]) - 1


class TruncatedCellularSet:
    """Base class: finite cells per shape plus a pure action function.

    Values are immutable once built; the lazy caches below memoize pure
    computations, so concurrent readers can at worst repeat work.
    """

    def __init__(self, bound):
        if bound < 0:
            raise ThetaError("truncation bound must be non-negative")
        self.bound = bound
        self._nd_memo = {}
        self._cells_memo = {}
        self._nd_cells_memo = {}
        self._nd_index = None
        self._nd_ids = None
        self._pullback_tables = {}

    def shapes(self):
        return shapes_upto(self.bound)

    def cells(self, shape):
        if shape not in self._cells_memo:
            if shape.dim > self.bound:
                raise ThetaError(f"{shape} exceeds truncation bound {self.bound}")
            self._cells_memo[shape] = tuple(sorted(self._compute_cells(shape)))
        return self._cells_memo[shape]

    def _compute_cells(self, shape):
        raise NotImplementedError

    def act(self, cell, op):
        """Image of the cell under an operator into its shape."""
        if op.dst != cell.shape:
            raise ThetaError(f"operator {op} does not act on a cell at {cell.shape}")
        return self._act(cell, op)

    def _act(self, cell, op):
        raise NotImplementedError

    def contains_cell(self, cell):
        if cell.shape.dim > self.bound:
            return False
        return cell.payload in self.cells(cell.shape)

    # -- nondegenerate decomposition ---------------------------------------

    def _runs(self, cell):
        raise NotImplementedError

    def nd_decompose(self, cell):
        """The unique (nondegenerate cell, degeneracy) pair presenting the cell."""
        hit = self._nd_memo.get(cell)
        if hit is None:
            sigma, deg_comps, mid_qs, starts, firsts = reedy_runs(*self._runs(cell))
            mid = ThetaShape(mid_qs)
            nd = cell
            if mid_qs != cell.shape.qs:
                nd = self._act(cell, CellularOperator(mid, cell.shape, starts, firsts))
            hit = self._nd_memo[cell] = (nd, CellularOperator(cell.shape, mid, sigma, deg_comps))
        return hit

    def is_nondegenerate(self, cell):
        labels, families = self._runs(cell)
        # equal neighbouring labels already collapse an interval
        return all(map(ne, labels, labels[1:])) and reedy_runs(labels, families)[2] == cell.shape.qs

    def nd_cells(self, shape):
        if shape not in self._nd_cells_memo:
            if shape.dim > self.bound:
                raise ThetaError(f"{shape} exceeds truncation bound {self.bound}")
            self._nd_cells_memo[shape] = self._compute_nd_cells(shape)
        return self._nd_cells_memo[shape]

    def _compute_nd_cells(self, shape):
        return tuple(c for c in self.cells(shape) if self.is_nondegenerate(Cell(shape, c)))

    # -- the nondegenerate-cell index --------------------------------------

    def nd_index(self):
        """The nondegenerate cells of dimension <= bound, numbered, with downsets."""
        if self._nd_index is None:
            cells, sizes = [], [0] * (self.bound + 1)
            for shape in self.shapes():  # sorted by dimension first
                cells.extend(Cell(shape, c) for c in self.nd_cells(shape))
                sizes[shape.dim] = len(cells)
            # the ids are complete before the downsets, which look images up
            self._nd_ids = {cell: i for i, cell in enumerate(cells)}
            down = []
            for i, cell in enumerate(cells):
                mask = 1 << i
                for _, h in hyperfaces(cell.shape):
                    mask |= down[self.nd_id(self._act(cell, h))]
                down.append(mask)
            self._nd_index = NdIndex(tuple(cells), self._nd_ids, down, sizes)
        return self._nd_index

    def nd_id(self, cell):
        """The index id of the cell's nondegenerate part; the index size when
        that part lies above the bound."""
        ids = self._nd_ids
        if ids is None:
            ids = self.nd_index().ids
        j = ids.get(cell)
        if j is None:
            j = ids.get(self.nd_decompose(cell)[0], len(ids))
        return j

    def _pullback_table(self, cell):
        """Per face g of ``representable(cell.shape)``, in index order, ``nd_id(cell . g)``."""
        table = self._pullback_tables.get(cell)
        if table is None:
            table = self._pullback_tables[cell] = tuple(
                self.nd_id(self._act(cell, g.payload))
                for g in representable(cell.shape).nd_index().cells
            )
        return table


class Representable(TruncatedCellularSet):
    """The presheaf represented by a shape; cells are operators into it."""

    def __init__(self, shape, bound=None):
        super().__init__(shape.dim if bound is None else bound)
        self.shape = shape

    def _compute_cells(self, shape):
        return cellular_ops(shape, self.shape)

    def _compute_nd_cells(self, shape):
        # the nondegenerate cells are the faces, sorted like ``cells``
        return faces_between(shape, self.shape)

    def _act(self, cell, op):
        return Cell(op.src, compose_cellular(op, cell.payload))

    def contains_cell(self, cell):
        # avoid materializing the cell sets of large representables
        return (
            isinstance(cell.payload, CellularOperator)
            and cell.payload.src == cell.shape
            and cell.payload.dst == self.shape
        )

    def _runs(self, cell):
        return cell.payload.x, interval_rows(cell.payload.x, cell.payload.comps)

    def nd_decompose(self, cell):
        deg, face = reedy_factor(cell.payload)
        return Cell(face.src, face), deg

    def top_cell(self):
        return Cell(self.shape, identity_cellular(self.shape))

    def __repr__(self):
        return f"Representable({self.shape}, bound={self.bound})"


@lru_cache(maxsize=None)
def representable(shape, bound=None):
    return Representable(shape, bound)


class FromSimplicial(TruncatedCellularSet):
    """A simplicial set viewed as a cellular set through the horizontal part."""

    def __init__(self, sset, bound):
        super().__init__(bound)
        self.sset = sset

    def _compute_cells(self, shape):
        return self.sset.level(shape.n)

    def _act(self, cell, op):
        return Cell(op.src, self.sset.act(cell.payload, op.horizontal))

    def _runs(self, cell):
        # simplices act by reindexing: runs of equal vertices are degeneracies
        return cell.payload, tuple([((0,) * (q + 1),) for q in cell.shape.qs])

    def __repr__(self):
        return f"FromSimplicial({self.sset!r}, bound={self.bound})"


def from_simplicial(sset, bound):
    return FromSimplicial(sset, bound)


class ProductCellSet(TruncatedCellularSet):
    """The product, truncated at the smaller of the factors' bounds."""

    def __init__(self, left, right):
        super().__init__(min(left.bound, right.bound))
        self.left = left
        self.right = right

    def _compute_cells(self, shape):
        return tuple(
            (x, y) for x in self.left.cells(shape) for y in self.right.cells(shape)
        )

    def _act(self, cell, op):
        x, y = cell.payload
        nx = self.left.act(Cell(cell.shape, x), op).payload
        ny = self.right.act(Cell(cell.shape, y), op).payload
        return Cell(op.src, (nx, ny))

    def _runs(self, cell):
        # a pair collapses exactly what both of its factors collapse
        x, y = cell.payload
        x_labels, x_rows = self.left._runs(Cell(cell.shape, x))
        y_labels, y_rows = self.right._runs(Cell(cell.shape, y))
        return tuple(zip(x_labels, y_labels)), tuple([a + b for a, b in zip(x_rows, y_rows)])

    def __repr__(self):
        return f"ProductCellSet({self.left!r}, {self.right!r}, bound={self.bound})"


def terminal_cellset(bound):
    return FromSimplicial(standard_simplex(0), bound)


# -- subobjects -------------------------------------------------------------


class Subobject:
    """A cellular subset: the bitmask of its nondegenerate members over the
    ambient's ``nd_index``.

    ``Subobject(ambient, nd)`` takes the members as shape -> payloads.
    Binary operations need both sides in the same ambient.
    """

    __slots__ = ("ambient", "mask")

    def __init__(self, ambient, nd):
        ids = ambient.nd_index().ids
        mask = 0
        for shape, payloads in nd.items():
            for payload in payloads:
                i = ids.get(Cell(shape, payload))
                if i is None:
                    raise ThetaError(
                        f"{payload} at {shape} is not a nondegenerate cell of the ambient"
                    )
                mask |= 1 << i
        self.ambient = ambient
        self.mask = mask

    @classmethod
    def _of(cls, ambient, mask):
        sub = object.__new__(cls)
        sub.ambient = ambient
        sub.mask = mask
        return sub

    @classmethod
    def empty(cls, ambient):
        return cls._of(ambient, 0)

    @classmethod
    def full(cls, ambient):
        return cls._of(ambient, (1 << len(ambient.nd_index().cells)) - 1)

    @classmethod
    def where(cls, ambient, pred):
        """The nondegenerate cells of the ambient on which ``pred`` holds.

        This selects cells; it does not close them under faces.
        """
        bits = "".join("1" if pred(cell) else "0" for cell in ambient.nd_index().cells)
        return cls._of(ambient, int(bits[::-1] or "0", 2))

    @classmethod
    def generated(cls, ambient, cells):
        """Smallest action-closed subset containing the given cells."""
        index = ambient.nd_index()
        mask = 0
        for cell in cells:
            if not ambient.contains_cell(cell):
                raise ThetaError(f"generator {cell} is not a cell of the ambient")
            i = ambient.nd_id(cell)
            if i == len(index.cells):
                raise ThetaError(
                    f"generator {cell} lies above the truncation bound {ambient.bound}"
                )
            mask |= index.down[i]
        return cls._of(ambient, mask)

    def contains(self, cell):
        # a nondegenerate part above the bound reads the padding bit, never set
        return bool(self.mask >> self.ambient.nd_id(cell) & 1)

    @property
    def nd(self):
        """The nondegenerate members by shape: shape -> frozenset of payloads."""
        nd = {}
        for cell in self.iter_nd():
            nd.setdefault(cell.shape, []).append(cell.payload)
        return {s: frozenset(v) for s, v in nd.items()}

    def iter_nd(self):
        return iter(self.ambient.nd_index().members(self.mask))

    def nd_count(self):
        return self.mask.bit_count()

    def _check_ambient(self, other):
        if self.ambient is not other.ambient:
            raise ThetaError("subobjects live in different ambient cellular sets")

    def union(self, other):
        self._check_ambient(other)
        return Subobject._of(self.ambient, self.mask | other.mask)

    def intersection(self, other):
        self._check_ambient(other)
        return Subobject._of(self.ambient, self.mask & other.mask)

    def issubset(self, other):
        self._check_ambient(other)
        return not self.mask & ~other.mask

    def same_cells(self, other):
        self._check_ambient(other)
        return self.mask == other.mask

    def restricted(self, max_dim):
        return Subobject._of(self.ambient, self.mask & self.ambient.nd_index().upto(max_dim))

    def equals_up_to(self, other, max_dim):
        self._check_ambient(other)
        return not (self.mask ^ other.mask) & self.ambient.nd_index().upto(max_dim)

    def is_full(self):
        return self.same_cells(Subobject.full(self.ambient))

    def pullback(self, source, table):
        """Pull the subobject back along a map out of ``source``, given as
        ``table``: per nondegenerate source cell, in index order, the
        ``nd_id`` of its image."""
        # bit j of the result is bit table[j] of this subobject; the padding
        # bit past the index answers for parts above the bound
        width = len(self.ambient.nd_index().cells) + 1
        bits = f"{self.mask:0{width}b}"[::-1]
        hits = "".join(bits[t] for t in reversed(table))
        return Subobject._of(source, int(hits or "0", 2))

    def pullback_along(self, cell):
        """Pull the subobject back along a cell, landing in a representable."""
        return self.pullback(representable(cell.shape), self.ambient._pullback_table(cell))

    def __repr__(self):
        return f"Subobject({self.ambient!r}, {self.nd_count()} nd cells)"


# -- serialization ----------------------------------------------------------


def payload_id(payload):
    if isinstance(payload, tuple):
        return "(" + ",".join(payload_id(p) for p in payload) + ")"
    return str(payload)


def subobject_to_json(sub):
    nd = sub.nd
    return {
        "bound": sub.ambient.bound,
        "shapes": [
            {"shape": str(s), "cells": sorted(payload_id(c) for c in nd[s])}
            for s in sorted(nd)
        ],
    }
