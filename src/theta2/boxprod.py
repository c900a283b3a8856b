"""Box products over a base simplex, the Leibniz construction, and the
named inclusion families: boundaries, horns, spines, and the equivalence
extensions built from the chaotic-nerve interval.

The Leibniz boundary, the Leibniz horns and the vertical equivalence
extension Psi^k c Phi^k are one construction: the Leibniz box of the
boundaries of [n] and of every [q_j], with the base's pair or one hom
slot's pair replaced (a horn of [n], a horn of [q_k], or the endpoint
{diamond} c J in slot k).

A box cell at [m;p] is a pair (x, comps): x is an m-simplex of the base
(a value tuple over [n]) and comps has one p_i-simplex of the fiber S_j
for every covered index x(0) < j <= x(m), where i is the interval index
of j.  This is the cell data of ``theta``: operators act, and cells
Reedy-factor, through its value kernels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import eq, ne

from .cellset import (
    Cell,
    ProductCellSet,
    Subobject,
    TruncatedCellularSet,
    from_simplicial,
    representable,
)
from .delta import shuffles
from .sset import (
    DIAMOND,
    DIAMOND_POINT,
    FILLED,
    J,
    boundary_sset,
    horn_sset,
    standard_simplex,
)
from .theta import (
    HyperfaceLabel,
    ThetaError,
    act_values,
    hlabel,
    hyperface_operator,
    hyperfaces,
    interval_index,
    interval_rows,
    vertebrae,
    vlabel,
)


class BoxCellSet(TruncatedCellularSet):
    """Realization of a base over Delta[n] with n fiber simplicial sets."""

    def __init__(self, base, fibers, bound):
        super().__init__(bound)
        self.base = base
        self.fibers = tuple(fibers)
        self.n = len(self.fibers)
        self._nd_rows_memo = {}

    def fiber(self, j):
        return self.fibers[j - 1]

    def _compute_cells(self, shape):
        out = []
        for x in self.base.level(shape.n):
            covered = range(x[0] + 1, x[-1] + 1)
            pools = [self.fiber(j).level(shape.q(interval_index(x, j))) for j in covered]
            for comps in itertools.product(*pools):
                out.append((x, comps))
        return out

    def _compute_nd_cells(self, shape):
        # the cells on which reedy_runs collapses nothing: x has no equal
        # neighbours, and no joint column over an interval repeats the one before
        out = []
        for x in self.base.level(shape.n):
            if any(map(eq, x, x[1:])):
                continue
            parts = [self._nd_rows(a, b, p) for a, b, p in zip(x, x[1:], shape.qs)]
            for rows in itertools.product(*parts):
                out.append((x, tuple(itertools.chain.from_iterable(rows))))
        return tuple(sorted(out))

    def _nd_rows(self, a, b, p):
        """The rows over an interval (a, b] of a nondegenerate cell at level p:
        a p-simplex of each fiber S_j, a < j <= b, whose joint columns never
        repeat their neighbour."""
        rows = self._nd_rows_memo.get((a, b, p))
        if rows is None:
            rows = self._nd_rows_memo[a, b, p] = []
            for r in itertools.product(*[self.fiber(j).level(p) for j in range(a + 1, b + 1)]):
                cols = tuple(zip(*r))
                if all(map(ne, cols, cols[1:])):
                    rows.append(r)
        return rows

    def contains_cell(self, cell):
        # decided by the base and the fibers, without the cell tuple: the base
        # simplex at level n, then one row of length q + 1 per covered index
        shape, (x, comps) = cell.shape, cell.payload
        if shape.dim > self.bound or len(x) != shape.n + 1 or not self.base.contains(x):
            return False
        if len(comps) != x[-1] - x[0]:
            return False
        return all(
            len(y) == shape.q(interval_index(x, j)) + 1 and self.fiber(j).contains(y)
            for j, y in enumerate(comps, x[0] + 1)
        )

    def _act(self, cell, op):
        return Cell(op.src, act_values(op, *cell.payload))

    def _runs(self, cell):
        x, comps = cell.payload
        return x, interval_rows(x, comps)

    def __repr__(self):
        fibs = ",".join(f.name for f in self.fibers)
        return f"BoxCellSet(n={self.n}, base={self.base.name}, fibers=[{fibs}], bound={self.bound})"


# -- Leibniz construction ---------------------------------------------------


@dataclass(frozen=True)
class Inclusion:
    """A cellular subset inclusion with the name its reports print."""

    domain: Subobject
    name: str = "inclusion"

    @property
    def codomain(self):
        return self.domain.ambient


def slot_component(payload, slot):
    """The fiber component of a box cell at hom slot ``slot``; None if uncovered."""
    x, comps = payload
    if x[0] < slot <= x[-1]:
        return comps[slot - x[0] - 1]
    return None


def leibniz_box(base_pair, fiber_pairs, bound):
    """Leibniz box of monomorphisms: (A c W over Delta[n]; B_j c S_j).

    The codomain is the box of the big arguments; the domain is the union
    of the non-terminal corner boxes, i.e. the cells that restrict into at
    least one small argument.
    """
    sub_base, big_base = base_pair
    codomain = BoxCellSet(big_base, [big for _, big in fiber_pairs], bound)

    def in_domain(cell):
        # union of the non-terminal corners: the cell must restrict into at
        # least one small argument; an uncovered fiber slot restricts vacuously
        if sub_base.contains(cell.payload[0]):
            return True
        for j, (small, _) in enumerate(fiber_pairs, 1):
            y = slot_component(cell.payload, j)
            if y is None or small.contains(y):
                return True
        return False

    return Inclusion(Subobject.where(codomain, in_domain), name="leibniz-box")


def _boundary_box(name, shape, bound, base=None, slot=None):
    """The Leibniz box of the boundaries of [n] and of every [q_j].

    ``base`` replaces the base's small argument; ``slot = (k, small, big)``
    replaces the pair of hom slot k.
    """
    if bound is None:
        bound = shape.dim
    pairs = [(boundary_sset(q), standard_simplex(q)) for q in shape.qs]
    if slot is not None:
        k, small, big = slot
        pairs[k - 1] = (small, big)
    base_pair = (base or boundary_sset(shape.n), standard_simplex(shape.n))
    return Inclusion(leibniz_box(base_pair, pairs, bound).domain, name=name)


def boundary_leibniz(shape, bound=None):
    return _boundary_box(f"leibniz-boundary{shape}", shape, bound)


def horn_h_leibniz(shape, k, bound=None):
    if not 0 <= k <= shape.n:
        raise ThetaError(f"horizontal horn index {k} out of range for {shape}")
    return _boundary_box(f"leibniz-horn-h^{k}{shape}", shape, bound, base=horn_sset(shape.n, k))


def horn_v_leibniz(shape, k, i, bound=None):
    if not (1 <= k <= shape.n and shape.q(k) >= 1 and 0 <= i <= shape.q(k)):
        raise ThetaError(f"vertical horn ({k};{i}) out of range for {shape}")
    slot = (k, horn_sset(shape.q(k), i), standard_simplex(shape.q(k)))
    return _boundary_box(f"leibniz-horn-v^{{{k};{i}}}{shape}", shape, bound, slot=slot)


# -- named subobjects of representables --------------------------------------


def face_closure(shape, ops):
    """The subobject of the representable generated by faces into the shape."""
    return Subobject.generated(representable(shape), [Cell(op.src, op) for op in ops])


@lru_cache(maxsize=None)
def boundary(shape):
    """All hyperfaces; equivalently everything of lower dimension."""
    return Inclusion(lambda_subobject(shape, ()), name=f"boundary{shape}")


@lru_cache(maxsize=None)
def horn_h(shape, k):
    """All hyperfaces except the k-th horizontal ones; inner iff 1<=k<=n-1."""
    if not 0 <= k <= shape.n:
        raise ThetaError(f"horizontal horn index {k} out of range for {shape}")
    if k == 0:
        skip = [HyperfaceLabel(HyperfaceLabel.H0)]
    elif k == shape.n:
        skip = [HyperfaceLabel(HyperfaceLabel.HN, k=k)]
    else:
        skip = [hlabel(k, shf) for shf in shuffles(shape.q(k), shape.q(k + 1))]
    return Inclusion(lambda_subobject(shape, skip), name=f"horn-h^{k}{shape}")


@lru_cache(maxsize=None)
def horn_v(shape, k, i):
    """All hyperfaces except the (k;i)-th vertical one."""
    if not (1 <= k <= shape.n and shape.q(k) >= 1 and 0 <= i <= shape.q(k)):
        raise ThetaError(f"vertical horn ({k};{i}) out of range for {shape}")
    return Inclusion(lambda_subobject(shape, [vlabel(k, i)]), name=f"horn-v^{{{k};{i}}}{shape}")


@lru_cache(maxsize=None)
def horn_h_alt(shape, k, shf):
    """All hyperfaces except the single k-th horizontal one at the shuffle."""
    skip = hlabel(k, shf)
    if skip not in {lbl for lbl, _ in hyperfaces(shape)}:
        raise ThetaError(f"{skip} is not a hyperface of {shape}")
    return Inclusion(lambda_subobject(shape, [skip]), name=f"horn-h-alt^{{{k};{shf}}}{shape}")


def horn(shape, k, i=None, shf=None):
    """A horn of ``shape`` with its report tag: ``(tag, Inclusion)``.

    The horn is vertical at ``(k; i)`` when ``i`` is given, the alternative
    horizontal horn at ``(k; shf)`` when ``shf`` is given, and the k-th
    horizontal horn otherwise.  The tag is ``{"family", "k"}`` plus ``"i"``
    or ``"shuffle"``, in that key order.
    """
    if i is not None:
        return {"family": "horn-v", "k": k, "i": i}, horn_v(shape, k, i)
    if shf is not None:
        return {"family": "horn-h-alt", "k": k, "shuffle": str(shf)}, horn_h_alt(shape, k, shf)
    return {"family": "horn-h", "k": k}, horn_h(shape, k)


@lru_cache(maxsize=None)
def spine_subobject(shape):
    return face_closure(shape, vertebrae(shape))


def spine(shape):
    return Inclusion(spine_subobject(shape), name=f"spine{shape}")


def sigma_subobject(shape, labels):
    """Spine together with a set of hyperfaces (given by labels)."""
    sub = spine_subobject(shape)
    if labels:
        sub = sub.union(
            face_closure(shape, [hyperface_operator(shape, lbl) for lbl in labels])
        )
    return sub


def upsilon_subobject(shape, labels):
    """All outer hyperfaces together with the labelled faces."""
    outer = [op for lbl, op in hyperfaces(shape) if not lbl.is_inner(shape)]
    extra = [hyperface_operator(shape, lbl) for lbl in labels]
    return face_closure(shape, outer + extra)


def lambda_subobject(shape, labels):
    """All hyperfaces except those in the labelled set."""
    labels = set(labels)
    keep = [op for lbl, op in hyperfaces(shape) if lbl not in labels]
    return face_closure(shape, keep)


# -- equivalence extensions ---------------------------------------------------


def equiv_vert(shape, k, bound):
    """The vertical equivalence extension (Psi^k, Phi^k, inclusion).

    Psi^k c Phi^k is the Leibniz box of the boundaries of [n] and of every
    [q_j], j != k, with the endpoint {diamond} c J in hom slot k (q_k = 0).
    """
    if not (1 <= k <= shape.n and shape.q(k) == 0):
        raise ThetaError(f"vertical extension needs q_{k} = 0 in {shape}")
    inc = _boundary_box(f"equiv-v^{k}{shape}", shape, bound, slot=(k, DIAMOND_POINT, J))
    return inc.domain, inc.codomain, inc


def theta_corner_contains(payload, k):
    """Membership in the representable corner (no filled vertex in slot k)."""
    y = slot_component(payload, k)
    return y is None or FILLED not in y


def theta_corner(ambient, k):
    """The cells of a box with no filled interval vertex in hom slot k.

    In Phi^k this is the representable sitting at the diamond corner.
    """
    return Subobject.where(ambient, lambda c: theta_corner_contains(c.payload, k))


def equiv_horiz(shape, bound):
    """Leibniz product of the interval endpoint with the boundary inclusion.

    Codomain J x cell[n;q]; domain (diamond x cell[n;q]) u (J x boundary).
    """
    amb = ProductCellSet(from_simplicial(J, bound), representable(shape, bound))
    bd = boundary(shape).domain

    def in_domain(cell):
        u, f = cell.payload
        if all(v == DIAMOND for v in u):
            return True
        return bd.contains(Cell(f.src, f))

    return Inclusion(Subobject.where(amb, in_domain), name=f"equiv-h{shape}")
