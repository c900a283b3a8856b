"""Dimension-truncated cellular sets and their subobjects.

A truncated cellular set stores, for every shape of dimension <= bound,
a finite cell set together with the contravariant operator action.
Subobjects are represented by their nondegenerate member cells; closure,
membership, lattice operations and pullbacks all reduce to finite
bookkeeping through the unique nondegenerate decomposition.

Representables are indexed.  The nondegenerate cells of Theta[shape] are
exactly its faces, and a face of a face is a face, so each representable
numbers its faces once (``Representable.face_index``) and keeps, per
face, the bitmask of its downset.  On a representable ambient a subobject
also carries the bitmask of its nondegenerate cells: closure ORs downsets,
membership of a face tests one bit, and the pullback along a face reads
bits through a cached table of face ids.  Every other ambient, and every
degenerate cell, takes the generic path through ``nd_decompose`` and the
action; that path is the reference the differential tests in
``tests/test_cellset.py`` check the index against.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import lru_cache

from .sset import standard_simplex
from .theta import (
    CellularOperator,
    ThetaError,
    cellular_ops,
    compose_cellular,
    elementary_degeneracies,
    faces_between,
    faces_into,
    hyperfaces,
    identity_cellular,
    reedy_factor,
    shapes_upto,
)

Cell = namedtuple("Cell", ["shape", "payload"])

# faces in dimension order, face -> position, and per face the bitmask of
# its downset (the face and every face of it)
FaceIndex = namedtuple("FaceIndex", ["faces", "ids", "down"])


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

    def nd_cells(self, shape):
        if shape not in self._nd_cells_memo:
            if shape.dim > self.bound:
                raise ThetaError(f"{shape} exceeds truncation bound {self.bound}")
            self._nd_cells_memo[shape] = self._compute_nd_cells(shape)
        return self._nd_cells_memo[shape]

    def _compute_nd_cells(self, shape):
        return tuple(c for c in self.cells(shape) if self.is_nondegenerate(Cell(shape, c)))


class Representable(TruncatedCellularSet):
    """The presheaf represented by a shape; cells are operators into it."""

    def __init__(self, shape, bound=None):
        super().__init__(shape.dim if bound is None else bound)
        self.shape = shape
        self._face_index = None
        self._pullback_tables = {}

    def _compute_cells(self, shape):
        return cellular_ops(shape, self.shape)

    def _compute_nd_cells(self, shape):
        # the nondegenerate cells are the faces, sorted like ``cells``
        return faces_between(shape, self.shape)

    def face_index(self):
        """The faces of dimension <= bound, numbered, with their downsets."""
        if self._face_index is None:
            faces = tuple(f for f in faces_into(self.shape) if f.src.dim <= self.bound)
            ids = {f: i for i, f in enumerate(faces)}
            down = []
            for i, f in enumerate(faces):
                mask = 1 << i
                for _, h in hyperfaces(f.src):
                    mask |= down[ids[compose_cellular(h, f)]]
                down.append(mask)
            self._face_index = FaceIndex(faces, ids, down)
        return self._face_index

    def _pullback_table(self, face):
        """Ids of ``face ∘ g`` for the faces g of ``representable(face.src)``."""
        table = self._pullback_tables.get(face)
        if table is None:
            ids = self.face_index().ids
            table = tuple(
                ids[compose_cellular(g, face)]
                for g in representable(face.src).face_index().faces
            )
            self._pullback_tables[face] = table
        return table

    def _act(self, cell, op):
        return Cell(op.src, compose_cellular(op, cell.payload))

    def contains_cell(self, cell):
        # avoid materializing the cell sets of large representables
        return (
            isinstance(cell.payload, CellularOperator)
            and cell.payload.src == cell.shape
            and cell.payload.dst == self.shape
        )

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

    def __repr__(self):
        return f"FromSimplicial({self.sset!r}, bound={self.bound})"


def from_simplicial(sset, bound):
    return FromSimplicial(sset, bound)


class ProductCellSet(TruncatedCellularSet):
    def __init__(self, left, right, bound=None):
        if bound is None:
            bound = min(left.bound, right.bound)
        if bound > min(left.bound, right.bound):
            raise ThetaError("product bound exceeds a factor's truncation")
        super().__init__(bound)
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

    def __repr__(self):
        return f"ProductCellSet({self.left!r}, {self.right!r}, bound={self.bound})"


def terminal_cellset(bound):
    return FromSimplicial(standard_simplex(0), bound)


# -- subobjects -------------------------------------------------------------


class Subobject:
    """A cellular subset, stored by its nondegenerate members per shape.

    On a representable ambient ``_mask`` caches the same members as a
    bitmask over the ambient's face index.
    """

    __slots__ = ("ambient", "nd", "_mask")

    def __init__(self, ambient, nd):
        self.ambient = ambient
        self.nd = {s: frozenset(v) for s, v in nd.items() if v}
        self._mask = None

    @classmethod
    def _from_mask(cls, ambient, mask):
        faces = ambient.face_index().faces
        nd = {}
        for i, bit in enumerate(reversed(f"{mask:b}")):
            if bit == "1":
                nd.setdefault(faces[i].src, []).append(faces[i])
        sub = cls(ambient, nd)
        sub._mask = mask
        return sub

    def _bits(self):
        """The member bitmask over the face index of a representable ambient."""
        if self._mask is None:
            # cells above the truncation bound are not indexed; no face tests them
            ids = self.ambient.face_index().ids
            self._mask = sum(1 << ids[f] for v in self.nd.values() for f in v if f in ids)
        return self._mask

    @classmethod
    def empty(cls, ambient):
        return cls(ambient, {})

    @classmethod
    def full(cls, ambient):
        return cls(ambient, {s: ambient.nd_cells(s) for s in ambient.shapes()})

    @classmethod
    def where(cls, ambient, pred):
        """The nondegenerate cells of the ambient on which ``pred`` holds.

        This selects cells; it does not close them under faces.
        """
        return cls(
            ambient,
            {
                s: [c for c in ambient.nd_cells(s) if pred(Cell(s, c))]
                for s in ambient.shapes()
            },
        )

    @classmethod
    def generated(cls, ambient, cells):
        """Smallest action-closed subset containing the given cells."""
        cells = list(cells)
        for cell in cells:
            if not ambient.contains_cell(cell):
                raise ThetaError(f"generator {cell} is not a cell of the ambient")
        if isinstance(ambient, Representable):
            index = ambient.face_index()
            mask = 0
            for cell in cells:
                i = index.ids.get(cell.payload)
                if i is None:
                    i = index.ids.get(ambient.nd_decompose(cell)[0].payload)
                    if i is None:  # a face above the bound is not indexed
                        break
                mask |= index.down[i]
            else:
                return cls._from_mask(ambient, mask)
        # generic closure: decompose each hyperface image of each new cell
        nd = {}
        stack = []
        for cell in cells:
            base, _ = ambient.nd_decompose(cell)
            if base.payload not in nd.setdefault(base.shape, set()):
                nd[base.shape].add(base.payload)
                stack.append(base)
        while stack:
            cell = stack.pop()
            for _, face in hyperfaces(cell.shape):
                lower, _ = ambient.nd_decompose(ambient.act(cell, face))
                bucket = nd.setdefault(lower.shape, set())
                if lower.payload not in bucket:
                    bucket.add(lower.payload)
                    stack.append(lower)
        return cls(ambient, nd)

    def _face_id(self, cell):
        """The face-index id of a face cell of a representable ambient, else None."""
        if not isinstance(self.ambient, Representable):
            return None
        i = self.ambient.face_index().ids.get(cell.payload)
        if i is None or cell.payload.src != cell.shape:
            return None
        return i

    def contains(self, cell):
        i = self._face_id(cell)
        if i is not None:
            return bool(self._bits() >> i & 1)
        base, _ = self.ambient.nd_decompose(cell)
        return base.payload in self.nd.get(base.shape, frozenset())

    def nd_at(self, shape):
        return self.nd.get(shape, frozenset())

    def iter_nd(self):
        for shape in sorted(self.nd):
            for payload in sorted(self.nd[shape]):
                yield Cell(shape, payload)

    def nd_count(self):
        return sum(len(v) for v in self.nd.values())

    def _check_ambient(self, other):
        if self.ambient is not other.ambient:
            raise ThetaError("subobjects live in different ambient cellular sets")

    def union(self, other):
        self._check_ambient(other)
        nd = {s: set(v) for s, v in self.nd.items()}
        for s, v in other.nd.items():
            nd.setdefault(s, set()).update(v)
        return Subobject(self.ambient, nd)

    def intersection(self, other):
        self._check_ambient(other)
        nd = {}
        for s in set(self.nd) & set(other.nd):
            common = self.nd[s] & other.nd[s]
            if common:
                nd[s] = common
        return Subobject(self.ambient, nd)

    def issubset(self, other):
        self._check_ambient(other)
        return all(v <= other.nd.get(s, frozenset()) for s, v in self.nd.items())

    def same_cells(self, other):
        return self.nd == other.nd

    def __eq__(self, other):
        return (
            isinstance(other, Subobject)
            and self.ambient is other.ambient
            and self.nd == other.nd
        )

    def __hash__(self):
        return hash((id(self.ambient), frozenset(self.nd.items())))

    def restricted(self, max_dim):
        return Subobject(
            self.ambient, {s: v for s, v in self.nd.items() if s.dim <= max_dim}
        )

    def equals_up_to(self, other, max_dim):
        self._check_ambient(other)
        return self.restricted(max_dim).nd == other.restricted(max_dim).nd

    def is_full(self):
        return self.same_cells(Subobject.full(self.ambient))

    def pullback_along(self, cell):
        """Pull the subobject back along a cell, landing in a representable."""
        amb = representable(cell.shape)
        if self._face_id(cell) is not None:
            # bit j of the result is bit table[j] of this subobject
            table = self.ambient._pullback_table(cell.payload)
            width = len(self.ambient.face_index().faces)
            bits = f"{self._bits():0{width}b}"[::-1]
            hits = "".join(bits[t] for t in reversed(table))
            return Subobject._from_mask(amb, int(hits or "0", 2))
        return Subobject.where(amb, lambda c: self.contains(self.ambient.act(cell, c.payload)))

    def __repr__(self):
        return f"Subobject({self.ambient!r}, {self.nd_count()} nd cells)"


# -- serialization ----------------------------------------------------------


def payload_id(payload):
    if isinstance(payload, tuple):
        return "(" + ",".join(payload_id(p) for p in payload) + ")"
    return str(payload)


def cellset_to_json(x):
    doc = {"bound": x.bound, "shapes": [], "action": "representable"}
    for shape in x.shapes():
        doc["shapes"].append(
            {"shape": str(shape), "cells": [payload_id(c) for c in x.cells(shape)]}
        )
    if isinstance(x, Representable):
        return doc
    table = []
    for shape in x.shapes():
        # generating operators INTO each shape: its hyperfaces, plus the
        # elementary degeneracies of the one-higher shapes that land here
        gens = [op for _, op in hyperfaces(shape)]
        for upper in x.shapes():
            if upper.dim != shape.dim + 1:
                continue
            gens.extend(
                deg for deg, _ in elementary_degeneracies(upper) if deg.dst == shape
            )
        for payload in x.cells(shape):
            for op in gens:
                res = x.act(Cell(shape, payload), op)
                table.append(
                    {
                        "cell": payload_id(payload),
                        "op": str(op),
                        "result": payload_id(res.payload),
                    }
                )
    doc["action"] = table
    return doc


def subobject_to_json(sub):
    return {
        "bound": sub.ambient.bound,
        "shapes": [
            {"shape": str(s), "cells": sorted(payload_id(c) for c in sub.nd_at(s))}
            for s in sorted(sub.nd)
        ],
    }


def dump_json(doc):
    return json.dumps(doc, indent=2, sort_keys=True)
