"""Objects and morphisms of the 2-cell category, with its Reedy structure.

An object [n;q1,...,qn] is a shape; a morphism [alpha;alpha_k] carries a
horizontal operator [m] -> [n] and one vertical component [p_l] -> [q_k]
for each covered index alpha(0) < k <= alpha(m), where l is the unique
index with alpha(l-1) < k <= alpha(l).

A morphism is stored as its cell data: a cell at [m;p] is a pair
(x, comps), where x is the value tuple of the horizontal part and comps
holds one value tuple per covered index, in order.  Operators, box cells
and free-nerve cells all use this convention, so the value kernels below
act, compose and Reedy-factor once for all of them.  Reedy factorisation
reads runs (``reedy_runs``), which every cellular set gives for its cells.
The faces into a shape are built, not searched for: they are the closure
of its identity under hyperfaces, run on cell data, which keeps each
face's hyperface images as ids (``face_table``; ``faces_into`` is its
faces).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import lru_cache
from operator import attrgetter

from .delta import CompositionError, SimplicialOperator, shuffles


class ThetaError(ValueError):
    """Malformed cellular data."""


class ThetaShape:
    """A shape [n; q1,...,qn]; the terminal shape [0] has n = 0."""

    __slots__ = ("n", "qs", "_hash")

    def __init__(self, qs=()):
        qs = tuple(qs)
        if any(q < 0 for q in qs):
            raise ThetaError(f"negative hom size in {qs}")
        object.__setattr__(self, "qs", qs)
        object.__setattr__(self, "n", len(qs))
        object.__setattr__(self, "_hash", hash(qs))

    def __setattr__(self, name, value):
        raise AttributeError("ThetaShape is immutable")

    @property
    def dim(self):
        return self.n + sum(self.qs)

    def q(self, k):
        """1-indexed hom size, matching the q_k of the bracket notation."""
        return self.qs[k - 1]

    def __eq__(self, other):
        return isinstance(other, ThetaShape) and self.qs == other.qs

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self.dim, self.n, self.qs) < (other.dim, other.n, other.qs)

    def __repr__(self):
        return f"ThetaShape({self.qs})"

    def __str__(self):
        if self.n == 0:
            return "[0]"
        return "[" + str(self.n) + ";" + ",".join(str(q) for q in self.qs) + "]"


TERMINAL = ThetaShape(())


@lru_cache(maxsize=None)
def shapes_upto(d):
    """All shapes of dimension <= d, sorted by (dim, n, qs)."""
    out = [TERMINAL] if d >= 0 else []
    for n in range(1, d + 1):
        budget = d - n
        for qs in itertools.product(range(budget + 1), repeat=n):
            if sum(qs) <= budget:
                out.append(ThetaShape(qs))
    return tuple(sorted(out))


def interval_index(values, k):
    """The unique l with values[l-1] < k <= values[l] of a monotone value tuple."""
    for l in range(1, len(values)):
        if values[l - 1] < k <= values[l]:
            return l
    raise ThetaError(f"index {k} not covered by {values}")


def act_values(op, x, comps):
    """The cell data (x, comps) restricted along the operator ``op``."""
    beta = op.x
    nx = tuple([x[v] for v in beta])
    ncomps = []
    for j in range(nx[0] + 1, nx[-1] + 1):
        y = comps[j - x[0] - 1]
        c = op.comps[interval_index(x, j) - beta[0] - 1]
        ncomps.append(tuple([y[v] for v in c]))
    return nx, tuple(ncomps)


def interval_rows(x, comps):
    """The components of the cell data (x, comps), one tuple per interval of x."""
    x0 = x[0]
    return [comps[a - x0 : b - x0] for a, b in itertools.pairwise(x)]


def reedy_runs(labels, families):
    """The Reedy degeneracy of a cell, read off its runs.

    ``labels`` has one entry per vertex of [n], and ``families[l - 1]`` the
    rows (of length q_l + 1) over interval l.  Equal neighbouring labels
    collapse an interval horizontally, runs of equal joint columns
    vertically.  Returns (sigma, deg_comps, mid_qs, starts, firsts): the
    degeneracy onto [w; mid_qs] and its section through the first vertex
    of each run and the first column of each vertical run.
    """
    sigma, starts, deg_comps, firsts = [0], [0], [], []
    collapsed = 0
    for l in range(1, len(labels)):
        if labels[l - 1] == labels[l]:
            collapsed += 1
        else:
            first, deg, prev = [], [], None
            for t, col in enumerate(zip(*families[l - 1])):
                if col != prev:
                    first.append(t)
                    prev = col
                deg.append(len(first) - 1)
            starts.append(l)
            deg_comps.append(tuple(deg))
            firsts += [(0,) * len(first)] * collapsed + [tuple(first)]
            collapsed = 0
        sigma.append(len(starts) - 1)
    mid_qs = tuple([deg[-1] for deg in deg_comps])
    return tuple(sigma), tuple(deg_comps), mid_qs, tuple(starts), tuple(firsts)


def reedy_values(x, comps):
    """Reedy factorization of the cell data (x, comps) by ``reedy_runs``: the
    data (sigma, deg_comps, mid_qs, alpha, face_comps) of both factors."""
    families = interval_rows(x, comps)
    sigma, deg_comps, mid_qs, starts, firsts = reedy_runs(x, families)
    face = [tuple([r[t] for t in firsts[k - 1]]) for k in starts[1:] for r in families[k - 1]]
    return sigma, deg_comps, mid_qs, tuple([x[v] for v in starts]), tuple(face)


def _is_map(values, m, n):
    """Whether ``values`` are those of an order-preserving map [m] -> [n]."""
    return (
        len(values) == m + 1
        and values[0] >= 0
        and values[-1] <= n
        and list(values) == sorted(values)
    )


def _ids(qs):
    """The value tuples of the identities of [q] for q in qs."""
    return tuple([tuple(range(q + 1)) for q in qs])


def _skip(i, n):
    """The values of the elementary face [n-1] -> [n] whose image omits i."""
    return tuple([v for v in range(n + 1) if v != i])


class CellularOperator:
    """A morphism of the 2-cell category, [alpha; components] : src -> dst.

    It is held as its cell data: ``x`` is the value tuple of the horizontal
    part alpha : [m] -> [n], and ``comps[j]`` that of the vertical
    component [p_l] -> [q_k] at covered index k = x[0] + 1 + j.
    """

    __slots__ = ("src", "dst", "x", "comps", "_hash")

    def __init__(self, src, dst, x, comps):
        x = tuple(x)
        comps = tuple([tuple(c) for c in comps])
        if not _is_map(x, src.n, dst.n):
            raise ThetaError(f"horizontal part {x} is not a map [{src.n}]->[{dst.n}]")
        if len(comps) != x[-1] - x[0]:
            raise ThetaError(
                f"expected {x[-1] - x[0]} components for {x}, got {len(comps)}"
            )
        l = 1
        for k, c in enumerate(comps, x[0] + 1):
            while x[l] < k:
                l += 1
            if not _is_map(c, src.qs[l - 1], dst.qs[k - 1]):
                raise ThetaError(
                    f"component at {k} must be [{src.qs[l - 1]}]->[{dst.qs[k - 1]}], got {c}"
                )
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "comps", comps)
        object.__setattr__(self, "_hash", hash((src, dst, x, comps)))

    def __setattr__(self, name, value):
        raise AttributeError("CellularOperator is immutable")

    @property
    def horizontal(self):
        return SimplicialOperator(self.x, self.dst.n)

    @property
    def components(self):
        qs = self.dst.qs[self.x[0] :]
        return tuple(SimplicialOperator(c, q) for c, q in zip(self.comps, qs))

    def component_at(self, k):
        a = self.x
        if not a[0] < k <= a[-1]:
            raise ThetaError(f"index {k} not covered by {self}")
        return self.comps[k - a[0] - 1]

    def __eq__(self, other):
        return (
            isinstance(other, CellularOperator)
            and self.src == other.src
            and self.dst == other.dst
            and self.x == other.x
            and self.comps == other.comps
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        key = (self.src, self.dst, self.x, self.comps)
        return key < (other.src, other.dst, other.x, other.comps)

    def __repr__(self):
        return f"CellularOperator({self.src!r}, {self.dst!r}, {self.horizontal!r}, {self.components!r})"

    def __str__(self):
        comps = ",".join("!" if c.dst == 0 else c.short() for c in self.components)
        return f"[{self.horizontal.short()};{comps}]:{self.src}->{self.dst}"

    # -- classification ---------------------------------------------------

    def is_face(self):
        """A face is an operator whose Reedy degeneracy is the identity."""
        return reedy_values(self.x, self.comps)[2] == self.src.qs

    def is_degeneracy(self):
        return self.horizontal.is_epi() and all(c.is_epi() for c in self.components)

    def is_inner(self):
        return self.horizontal.preserves_endpoints() and all(
            c.preserves_endpoints() for c in self.components
        )

    def is_horizontal(self):
        return all(c.is_epi() for c in self.components)

    def is_vertical(self):
        return self.x == tuple(range(self.dst.n + 1))

    def is_inert(self):
        return self.horizontal.is_inert() and all(c.is_inert() for c in self.components)


def identity_cellular(shape):
    return CellularOperator(shape, shape, range(shape.n + 1), _ids(shape.qs))


def compose_cellular(g, f):
    """The composite f ∘ g of g : [k;r] -> [m;p] followed by f : [m;p] -> [n;q]."""
    if g.dst != f.src:
        raise CompositionError(f"cannot compose {g} then {f}: endpoint mismatch")
    x, comps = act_values(g, f.x, f.comps)
    return CellularOperator(g.src, f.dst, x, comps)


def classify_cellular(f):
    face = f.is_face()
    out = {
        "face": face,
        "degeneracy": f.is_degeneracy(),
        "horizontal": f.is_horizontal(),
        "vertical": f.is_vertical(),
        "inert": f.is_inert(),
    }
    # inner/outer is a dichotomy on face maps only
    out["inner"] = face and f.is_inner()
    out["outer"] = face and not f.is_inner()
    return out


def codim(f):
    if not f.is_face():
        raise ThetaError(f"{f} is not a face operator")
    return f.dst.dim - f.src.dim


# -- hyperfaces -----------------------------------------------------------


class HyperfaceLabel:
    """Symbolic name for a codimension-1 face of a representable shape."""

    __slots__ = ("variant", "k", "i", "shuffle", "_hash")

    H0 = "H0"
    HN = "Hn"
    HK = "Hk"
    V = "V"

    def __init__(self, variant, k=None, i=None, shuffle=None):
        if variant not in (self.H0, self.HN, self.HK, self.V):
            raise ThetaError(f"unknown hyperface variant {variant}")
        if variant == self.HK and (k is None or shuffle is None):
            raise ThetaError("horizontal hyperface needs k and a shuffle")
        if variant == self.V and (k is None or i is None):
            raise ThetaError("vertical hyperface needs k and i")
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "shuffle", shuffle)
        object.__setattr__(self, "_hash", hash(self._key()))

    def __setattr__(self, name, value):
        raise AttributeError("HyperfaceLabel is immutable")

    def __eq__(self, other):
        return isinstance(other, HyperfaceLabel) and (
            self.variant,
            self.k,
            self.i,
            self.shuffle,
        ) == (other.variant, other.k, other.i, other.shuffle)

    def __hash__(self):
        return self._hash

    def _key(self):
        # free of None, whose hash (before Python 3.12) differs by process
        shf = self.shuffle.alpha.values if self.shuffle is not None else ()
        return (self.variant, self.k or 0, self.i or 0, shf)

    def __lt__(self, other):
        return self._key() < other._key()

    def __repr__(self):
        return f"HyperfaceLabel({self.variant!r}, k={self.k}, i={self.i}, shuffle={self.shuffle!r})"

    def __str__(self):
        if self.variant == self.H0:
            return "dh^0"
        if self.variant == self.HN:
            return f"dh^{self.k}"
        if self.variant == self.HK:
            return f"dh^{{{self.k};{self.shuffle}}}"
        return f"dv^{{{self.k};{self.i}}}"

    def is_inner(self, shape):
        if self.variant == self.HK:
            return True
        if self.variant == self.V:
            return 1 <= self.i <= shape.q(self.k) - 1
        return False


def vlabel(k, i):
    """The label dv^{k;i} of the (k;i)-th vertical hyperface."""
    return HyperfaceLabel(HyperfaceLabel.V, k=k, i=i)


def hlabel(k, shf):
    """The label dh^{k;shf} of the k-th horizontal hyperface at a shuffle."""
    return HyperfaceLabel(HyperfaceLabel.HK, k=k, shuffle=shf)


def horizontal_face_0(shape):
    """The 0th horizontal face [n-1;q2,...,qn] -> shape (any codimension)."""
    n = shape.n
    if n < 1:
        raise ThetaError("[0] has no horizontal faces")
    src = ThetaShape(shape.qs[1:])
    return CellularOperator(src, shape, _skip(0, n), _ids(src.qs))


def horizontal_face_n(shape):
    """The n-th horizontal face [n-1;q1,...,q_{n-1}] -> shape."""
    n = shape.n
    if n < 1:
        raise ThetaError("[0] has no horizontal faces")
    src = ThetaShape(shape.qs[:-1])
    return CellularOperator(src, shape, _skip(n, n), _ids(src.qs))


def horizontal_hyperface(shape, k, shf):
    """The k-th horizontal hyperface indexed by a (q_k, q_{k+1})-shuffle."""
    n = shape.n
    if not 1 <= k <= n - 1:
        raise ThetaError(f"horizontal hyperface index {k} out of range for {shape}")
    if (shf.m, shf.n) != (shape.q(k), shape.q(k + 1)):
        raise ThetaError(f"shuffle {shf} does not fit {shape} at position {k}")
    qs = shape.qs[: k - 1] + (shape.q(k) + shape.q(k + 1),) + shape.qs[k + 1 :]
    comps = list(_ids(shape.qs))
    comps[k - 1 : k + 1] = shf.alpha.values, shf.alpha_prime.values
    return CellularOperator(ThetaShape(qs), shape, _skip(k, n), comps)


def vertical_hyperface(shape, k, i):
    """The (k;i)-th vertical hyperface, q_k >= 1 and 0 <= i <= q_k."""
    if not (1 <= k <= shape.n and shape.q(k) >= 1 and 0 <= i <= shape.q(k)):
        raise ThetaError(f"no vertical hyperface ({k};{i}) of {shape}")
    qs = shape.qs[: k - 1] + (shape.q(k) - 1,) + shape.qs[k:]
    comps = list(_ids(shape.qs))
    comps[k - 1] = _skip(i, shape.q(k))
    return CellularOperator(ThetaShape(qs), shape, range(shape.n + 1), comps)


def hyperface_operator(shape, label):
    if label.variant == HyperfaceLabel.H0:
        return horizontal_face_0(shape)
    if label.variant == HyperfaceLabel.HN:
        return horizontal_face_n(shape)
    if label.variant == HyperfaceLabel.HK:
        return horizontal_hyperface(shape, label.k, label.shuffle)
    return vertical_hyperface(shape, label.k, label.i)


@lru_cache(maxsize=None)
def hyperfaces(shape):
    """All codimension-1 faces of the shape, with their labels."""
    out = []
    n = shape.n
    if n == 0:
        return ()
    if shape.q(1) == 0:
        out.append((HyperfaceLabel(HyperfaceLabel.H0), horizontal_face_0(shape)))
    if shape.q(n) == 0:
        out.append((HyperfaceLabel(HyperfaceLabel.HN, k=n), horizontal_face_n(shape)))
    for k in range(1, n):
        for shf in shuffles(shape.q(k), shape.q(k + 1)):
            out.append((hlabel(k, shf), horizontal_hyperface(shape, k, shf)))
    for k in range(1, n + 1):
        if shape.q(k) >= 1:
            for i in range(shape.q(k) + 1):
                out.append((vlabel(k, i), vertical_hyperface(shape, k, i)))
    return tuple(out)


def inner_hyperface_labels(shape):
    return tuple(lbl for lbl, _ in hyperfaces(shape) if lbl.is_inner(shape))


def outer_hyperface_order(shape):
    """Existing outer hyperfaces in the total order used by the gluing scripts.

    dv^{1;0} < ... < dv^{n;0} < dh^0 < dh^n < dv^{1;q1} < ... < dv^{n;qn}.
    """
    n = shape.n
    chain = []
    for k in range(1, n + 1):
        if shape.q(k) >= 1:
            chain.append(vlabel(k, 0))
    if n >= 1 and shape.q(1) == 0:
        chain.append(HyperfaceLabel(HyperfaceLabel.H0))
    if n >= 1 and shape.q(n) == 0:
        chain.append(HyperfaceLabel(HyperfaceLabel.HN, k=n))
    for k in range(1, n + 1):
        if shape.q(k) >= 1:
            chain.append(vlabel(k, shape.q(k)))
    return tuple(chain)


# -- enumeration ----------------------------------------------------------


def _maps(m, n):
    """The value tuples of all operators [m] -> [n], lexicographically."""
    return itertools.combinations_with_replacement(range(n + 1), m + 1)


@lru_cache(maxsize=None)
def cellular_ops(src, dst):
    """All operators src -> dst, lexicographic on (horizontal, components)."""
    out = []
    for a in _maps(src.n, dst.n):
        covered = range(a[0] + 1, a[-1] + 1)
        pools = [_maps(src.q(interval_index(a, k)), dst.q(k)) for k in covered]
        for comps in itertools.product(*pools):
            out.append(CellularOperator(src, dst, a, comps))
    out.sort()
    return tuple(out)


class FaceTable(namedtuple("FaceTable", ["faces", "hf", "parents"])):
    """The faces into a shape, numbered, with their hyperface images by id.

    ``faces`` is sorted like operators.  ``hf[i]`` holds the ids of the
    images of face i under ``hyperfaces(faces[i].src)``, in that order, and
    ``parents[i]`` one pair (k, a) with ``hf[k][a] == i``; the identity,
    which comes last, has none.  A parent always comes after its face.
    """


@lru_cache(maxsize=None)
def face_table(dst):
    """The closure of the identity of dst under hyperfaces, run on cell data.

    It holds only faces, since a face of a face is a face, and it holds
    every face, since every face other than the identity factors through
    a hyperface.  Each face gets an id when it is first found; the ids are
    remapped once after sorting, and each face becomes an operator once.
    """
    keys = [(dst, tuple(range(dst.n + 1)), _ids(dst.qs))]
    found = {keys[0]: 0}
    hf, parents = [], [None]
    for i, (src, x, comps) in enumerate(keys):  # keys grows as faces are found
        row = []
        for a, (_, h) in enumerate(hyperfaces(src)):
            key = (h.src, *act_values(h, x, comps))
            j = found.get(key)
            if j is None:
                j = found[key] = len(keys)
                keys.append(key)
                parents.append((i, a))
            row.append(j)
        hf.append(row)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    new = [0] * len(order)
    for k, i in enumerate(order):
        new[i] = k
    return FaceTable(
        tuple([CellularOperator(keys[i][0], dst, keys[i][1], keys[i][2]) for i in order]),
        tuple([tuple([new[j] for j in hf[i]]) for i in order]),
        tuple([None if i == 0 else (new[parents[i][0]], parents[i][1]) for i in order]),
    )


@lru_cache(maxsize=None)
def faces_into(dst):
    """All face operators into dst, from every shape of dimension <= dim(dst):
    the faces of ``face_table(dst)``, sorted by source shape first, and
    shapes by dimension first."""
    return face_table(dst).faces


@lru_cache(maxsize=None)
def faces_between(src, dst):
    """All face operators src -> dst (monic horizontal, jointly monic parts):
    the run of ``faces_into(dst)`` whose source is src."""
    faces = faces_into(dst)
    source = attrgetter("src")
    lo = bisect_left(faces, src, key=source)
    return faces[lo : bisect_right(faces, src, lo, key=source)]


@lru_cache(maxsize=None)
def degeneracies_between(src, dst):
    return tuple(f for f in cellular_ops(src, dst) if f.is_degeneracy())


@lru_cache(maxsize=None)
def elementary_degeneracies(shape):
    """Codimension-1 degeneracies out of the shape, each with a chosen section."""
    out = []
    n = shape.n
    ids = _ids(shape.qs)
    for k in range(1, n + 1):
        q = shape.q(k)
        if q >= 1:
            tgt = ThetaShape(shape.qs[: k - 1] + (q - 1,) + shape.qs[k:])
            for i in range(q):
                sigma = tuple([v if v <= i else v - 1 for v in range(q + 1)])
                deg_comps = ids[: k - 1] + (sigma,) + ids[k:]
                sec_comps = ids[: k - 1] + (_skip(i, q),) + ids[k:]
                deg = CellularOperator(shape, tgt, range(n + 1), deg_comps)
                out.append((deg, CellularOperator(tgt, shape, range(n + 1), sec_comps)))
    for k in range(n):
        # collapsing objects k, k+1 drops hom k+1; codim 1 forces q_{k+1} = 0
        if shape.q(k + 1) != 0:
            continue
        tgt = ThetaShape(shape.qs[:k] + shape.qs[k + 1 :])
        sigma = tuple([v if v <= k else v - 1 for v in range(n + 1)])
        deg = CellularOperator(shape, tgt, sigma, _ids(tgt.qs))
        a = _skip(k + 1, n)
        sec_comps = [
            (0,) * (tgt.q(k + 1) + 1) if j == k + 1 else ids[j - 1]
            for j in range(a[0] + 1, a[-1] + 1)
        ]
        out.append((deg, CellularOperator(tgt, shape, a, sec_comps)))
    return tuple(out)


# -- Reedy factorization --------------------------------------------------


def reedy_factor(f):
    """The unique (degeneracy, face) pair with f = face ∘ degeneracy.

    Both come from ``reedy_values`` on the operator's cell data.
    """
    sigma, deg_comps, mid_qs, alpha, face_comps = reedy_values(f.x, f.comps)
    mid = ThetaShape(mid_qs)
    return (
        CellularOperator(f.src, mid, sigma, deg_comps),
        CellularOperator(mid, f.dst, alpha, face_comps),
    )


def face_factors_through(f, g):
    """Return the face h with f = g ∘ h, or None.

    Both f and g must be faces into the same shape; h is unique when it
    exists because faces are monomorphisms.
    """
    if f.dst != g.dst:
        raise ThetaError(f"{f} and {g} do not share a codomain")
    g_pos = {v: i for i, v in enumerate(g.x)}
    if any(v not in g_pos for v in f.x):
        return None
    hx = tuple([g_pos[v] for v in f.x])
    comps = []
    for j in range(hx[0] + 1, hx[-1] + 1):
        ks = range(g.x[j - 1] + 1, g.x[j] + 1)
        r = f.src.q(interval_index(hx, j))
        f_rows = [tuple(f.component_at(k)[y] for k in ks) for y in range(r + 1)]
        g_rows = [tuple(g.component_at(k)[y] for k in ks) for y in range(g.src.q(j) + 1)]
        if any(t not in g_rows for t in f_rows):
            return None
        vals = [g_rows.index(t) for t in f_rows]
        if vals != sorted(vals):
            return None
        comps.append(vals)
    h = CellularOperator(f.src, g.src, hx, comps)
    if compose_cellular(h, g) != f:
        return None
    return h


# -- dualities ------------------------------------------------------------


def co_dual(f):
    """Reverse 2-cells: dualize each component, keep shapes and order."""
    qs = f.dst.qs[f.x[0] :]
    comps = [tuple([q - v for v in reversed(c)]) for c, q in zip(f.comps, qs)]
    return CellularOperator(f.src, f.dst, f.x, comps)


def op_dual_shape(shape):
    return ThetaShape(tuple(reversed(shape.qs)))


def op_dual_theta(f):
    """Reverse 1-cells: dualize the horizontal part and reverse the q-lists.

    Components are reindexed k |-> n - k + 1 but individually unchanged.
    """
    n = f.dst.n
    return CellularOperator(
        op_dual_shape(f.src),
        op_dual_shape(f.dst),
        [n - v for v in reversed(f.x)],
        reversed(f.comps),
    )


# -- vertebrae and spines --------------------------------------------------


def vertebrae(shape):
    """The minimal edge cells generating the spine."""
    if shape.n == 0:
        return (identity_cellular(shape),)
    out = []
    for k in range(1, shape.n + 1):
        if shape.q(k) == 0:
            out.append(CellularOperator(ThetaShape((0,)), shape, (k - 1, k), ((0,),)))
        else:
            for i in range(1, shape.q(k) + 1):
                out.append(CellularOperator(ThetaShape((1,)), shape, (k - 1, k), ((i - 1, i),)))
    return tuple(out)


def is_mono_vertebral(shape):
    return shape in (TERMINAL, ThetaShape((0,)), ThetaShape((1,)))
