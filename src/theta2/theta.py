"""Objects and morphisms of the 2-cell category, with its Reedy structure.

An object [n;q1,...,qn] is a shape; a morphism [alpha;alpha_k] carries a
horizontal operator [m] -> [n] and one vertical component [p_l] -> [q_k]
for each covered index alpha(0) < k <= alpha(m), where l is the unique
index with alpha(l-1) < k <= alpha(l).

The value kernels below work on the same data without operators: a cell
at [m;p] is a pair (x, comps), where x is the value tuple of the
horizontal part and comps holds one value tuple per covered index, in
order.  Operators into a shape, box cells and free-nerve cells all use
this convention, so acting, composing and Reedy-factoring are done once.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .delta import (
    CompositionError,
    SimplicialOperator,
    all_monos,
    all_operators,
    delta_op,
    identity,
    op_dual_simplicial,
    shuffles,
    sigma_op,
)


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


def operator_values(f):
    """The cell data (x, comps) of an operator."""
    return f.horizontal.values, tuple([c.values for c in f.components])


def operator_from_values(src, dst, x, comps):
    """The operator src -> dst whose cell data is (x, comps)."""
    parts = [SimplicialOperator(c, dst.qs[x[0] + j]) for j, c in enumerate(comps)]
    return CellularOperator(src, dst, SimplicialOperator(x, dst.n), parts)


def act_values(op, x, comps):
    """The cell data (x, comps) restricted along the operator ``op``."""
    beta = op.horizontal.values
    nx = tuple([x[v] for v in beta])
    ncomps = []
    for j in range(nx[0] + 1, nx[-1] + 1):
        y = comps[j - x[0] - 1]
        c = op.components[interval_index(x, j) - beta[0] - 1].values
        ncomps.append(tuple([y[v] for v in c]))
    return nx, tuple(ncomps)


def reedy_values(x, comps):
    """Reedy factorization of the cell data (x, comps).

    Returns (sigma, deg_comps, mid_qs, alpha, face_comps): the data of the
    degeneracy onto [w; mid_qs] and of the nondegenerate cell there.
    Runs of equal vertices, and runs of equal joint component tuples over
    an interval, collapse; runs also factor non-monotone data like (0,1,0).
    """
    sigma, alpha = [], []
    for v in x:
        if not alpha or alpha[-1] != v:
            alpha.append(v)
        sigma.append(len(alpha) - 1)
    deg_comps, mid_qs, face_comps = [], [], []
    for l in range(1, len(x)):
        family = comps[x[l - 1] - x[0] : x[l] - x[0]]
        if not family:
            continue  # the interval collapses horizontally
        runs, deg = [], []
        for t in zip(*family):
            if not runs or runs[-1] != t:
                runs.append(t)
            deg.append(len(runs) - 1)
        deg_comps.append(tuple(deg))
        mid_qs.append(len(runs) - 1)
        face_comps.extend(zip(*runs))
    return tuple(sigma), tuple(deg_comps), tuple(mid_qs), tuple(alpha), tuple(face_comps)


class CellularOperator:
    """A morphism of the 2-cell category, [alpha; components] : src -> dst.

    ``components[j]`` is the vertical operator at covered index
    k = alpha(0) + 1 + j, of type [p_l] -> [q_k].
    """

    __slots__ = ("src", "dst", "horizontal", "components", "_hash")

    def __init__(self, src, dst, horizontal, components):
        components = tuple(components)
        if horizontal.src != src.n or horizontal.dst != dst.n:
            raise ThetaError(
                f"horizontal part {horizontal} does not match {src} -> {dst}"
            )
        a = horizontal.values
        covered = range(a[0] + 1, a[-1] + 1)
        if len(components) != len(covered):
            raise ThetaError(
                f"expected {len(covered)} components for {horizontal}, got {len(components)}"
            )
        for j, k in enumerate(covered):
            comp = components[j]
            l = interval_index(a, k)
            if comp.src != src.q(l) or comp.dst != dst.q(k):
                raise ThetaError(
                    f"component at {k} must be [{src.q(l)}]->[{dst.q(k)}], got {comp}"
                )
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "horizontal", horizontal)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_hash", hash((src, dst, horizontal, components)))

    def __setattr__(self, name, value):
        raise AttributeError("CellularOperator is immutable")

    def component_at(self, k):
        a = self.horizontal.values
        if not a[0] < k <= a[-1]:
            raise ThetaError(f"index {k} not covered by {self}")
        return self.components[k - a[0] - 1]

    def __eq__(self, other):
        return (
            isinstance(other, CellularOperator)
            and self.src == other.src
            and self.dst == other.dst
            and self.horizontal == other.horizontal
            and self.components == other.components
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (
            self.src,
            self.dst,
            self.horizontal.values,
            tuple(c.values for c in self.components),
        ) < (
            other.src,
            other.dst,
            other.horizontal.values,
            tuple(c.values for c in other.components),
        )

    def __repr__(self):
        return f"CellularOperator({self.src!r}, {self.dst!r}, {self.horizontal!r}, {self.components!r})"

    def __str__(self):
        comps = ",".join("!" if c.dst == 0 else c.short() for c in self.components)
        return f"[{self.horizontal.short()};{comps}]:{self.src}->{self.dst}"

    # -- classification ---------------------------------------------------

    def is_face(self):
        if not self.horizontal.is_mono():
            return False
        a = self.horizontal.values
        for l in range(1, self.src.n + 1):
            ks = range(a[l - 1] + 1, a[l] + 1)
            comps = [self.component_at(k) for k in ks]
            p = self.src.q(l)
            for i in range(p):
                if not any(c.values[i] < c.values[i + 1] for c in comps):
                    return False  # family at interval l not jointly monic
        return True

    def is_degeneracy(self):
        return self.horizontal.is_epi() and all(c.is_epi() for c in self.components)

    def is_inner(self):
        return self.horizontal.preserves_endpoints() and all(
            c.preserves_endpoints() for c in self.components
        )

    def is_horizontal(self):
        return all(c.is_epi() for c in self.components)

    def is_vertical(self):
        return self.horizontal == identity(self.dst.n)

    def is_inert(self):
        return self.horizontal.is_inert() and all(c.is_inert() for c in self.components)


def identity_cellular(shape):
    return CellularOperator(
        shape,
        shape,
        identity(shape.n),
        tuple(identity(q) for q in shape.qs),
    )


def compose_cellular(g, f):
    """The composite f ∘ g of g : [k;r] -> [m;p] followed by f : [m;p] -> [n;q]."""
    if g.dst != f.src:
        raise CompositionError(f"cannot compose {g} then {f}: endpoint mismatch")
    x, comps = act_values(g, *operator_values(f))
    return operator_from_values(g.src, f.dst, x, comps)


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
        object.__setattr__(self, "_hash", hash((variant, k, i, shuffle)))

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

    def __lt__(self, other):
        def key(lbl):
            shf = lbl.shuffle.alpha.values if lbl.shuffle is not None else ()
            return (lbl.variant, lbl.k or 0, lbl.i or 0, shf)

        return key(self) < key(other)

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


def horizontal_face_0(shape):
    """The 0th horizontal face [n-1;q2,...,qn] -> shape (any codimension)."""
    n = shape.n
    if n < 1:
        raise ThetaError("[0] has no horizontal faces")
    src = ThetaShape(shape.qs[1:])
    comps = tuple(identity(shape.q(k)) for k in range(2, n + 1))
    return CellularOperator(src, shape, delta_op(0, n), comps)


def horizontal_face_n(shape):
    """The n-th horizontal face [n-1;q1,...,q_{n-1}] -> shape."""
    n = shape.n
    if n < 1:
        raise ThetaError("[0] has no horizontal faces")
    src = ThetaShape(shape.qs[:-1])
    comps = tuple(identity(shape.q(k)) for k in range(1, n))
    return CellularOperator(src, shape, delta_op(n, n), comps)


def horizontal_hyperface(shape, k, shf):
    """The k-th horizontal hyperface indexed by a (q_k, q_{k+1})-shuffle."""
    n = shape.n
    if not 1 <= k <= n - 1:
        raise ThetaError(f"horizontal hyperface index {k} out of range for {shape}")
    if (shf.m, shf.n) != (shape.q(k), shape.q(k + 1)):
        raise ThetaError(f"shuffle {shf} does not fit {shape} at position {k}")
    qs = shape.qs[: k - 1] + (shape.q(k) + shape.q(k + 1),) + shape.qs[k + 1 :]
    src = ThetaShape(qs)
    comps = []
    for j in range(1, n + 1):
        if j < k:
            comps.append(identity(shape.q(j)))
        elif j == k:
            comps.append(shf.alpha)
        elif j == k + 1:
            comps.append(shf.alpha_prime)
        else:
            comps.append(identity(shape.q(j)))
    return CellularOperator(src, shape, delta_op(k, n), comps)


def vertical_hyperface(shape, k, i):
    """The (k;i)-th vertical hyperface, q_k >= 1 and 0 <= i <= q_k."""
    if not (1 <= k <= shape.n and shape.q(k) >= 1 and 0 <= i <= shape.q(k)):
        raise ThetaError(f"no vertical hyperface ({k};{i}) of {shape}")
    qs = shape.qs[: k - 1] + (shape.q(k) - 1,) + shape.qs[k:]
    src = ThetaShape(qs)
    comps = tuple(
        delta_op(i, shape.q(j)) if j == k else identity(shape.q(j))
        for j in range(1, shape.n + 1)
    )
    return CellularOperator(src, shape, identity(shape.n), comps)


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
            out.append(
                (
                    HyperfaceLabel(HyperfaceLabel.HK, k=k, shuffle=shf),
                    horizontal_hyperface(shape, k, shf),
                )
            )
    for k in range(1, n + 1):
        if shape.q(k) >= 1:
            for i in range(shape.q(k) + 1):
                out.append(
                    (HyperfaceLabel(HyperfaceLabel.V, k=k, i=i), vertical_hyperface(shape, k, i))
                )
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
            chain.append(HyperfaceLabel(HyperfaceLabel.V, k=k, i=0))
    if n >= 1 and shape.q(1) == 0:
        chain.append(HyperfaceLabel(HyperfaceLabel.H0))
    if n >= 1 and shape.q(n) == 0:
        chain.append(HyperfaceLabel(HyperfaceLabel.HN, k=n))
    for k in range(1, n + 1):
        if shape.q(k) >= 1:
            chain.append(HyperfaceLabel(HyperfaceLabel.V, k=k, i=shape.q(k)))
    return tuple(chain)


# -- enumeration ----------------------------------------------------------


@lru_cache(maxsize=None)
def cellular_ops(src, dst):
    """All operators src -> dst, lexicographic on (horizontal, components)."""
    out = []
    for alpha in all_operators(src.n, dst.n):
        a = alpha.values
        covered = range(a[0] + 1, a[-1] + 1)
        pools = [all_operators(src.q(interval_index(a, k)), dst.q(k)) for k in covered]
        for comps in itertools.product(*pools):
            out.append(CellularOperator(src, dst, alpha, comps))
    out.sort()
    return tuple(out)


def _jointly_monic_families(p, qs):
    """All jointly monic tuples of operators [p] -> [q] for q in qs.

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
    return [
        tuple(SimplicialOperator(vals, q) for vals, q in zip(valss, qs))
        for valss in out
    ]


@lru_cache(maxsize=None)
def faces_between(src, dst):
    """All face operators src -> dst (monic horizontal, jointly monic parts)."""
    out = []
    m, n = src.n, dst.n
    if m > n:
        return ()
    for alpha in all_monos(m, n):
        pools = []
        for l in range(1, m + 1):
            ks = range(alpha.values[l - 1] + 1, alpha.values[l] + 1)
            pools.append(
                _jointly_monic_families(src.q(l), tuple(dst.q(k) for k in ks))
            )
        for families in itertools.product(*pools):
            comps = tuple(op for fam in families for op in fam)
            out.append(CellularOperator(src, dst, alpha, comps))
    out.sort()
    return tuple(out)


@lru_cache(maxsize=None)
def faces_into(dst):
    """All face operators into dst, from every shape of dimension <= dim(dst)."""
    out = []
    for src in shapes_upto(dst.dim):
        out.extend(faces_between(src, dst))
    return tuple(out)


@lru_cache(maxsize=None)
def degeneracies_between(src, dst):
    return tuple(f for f in cellular_ops(src, dst) if f.is_degeneracy())


@lru_cache(maxsize=None)
def elementary_degeneracies(shape):
    """Codimension-1 degeneracies out of the shape, each with a chosen section."""
    out = []
    n = shape.n
    for k in range(1, n + 1):
        q = shape.q(k)
        if q >= 1:
            tgt = ThetaShape(shape.qs[: k - 1] + (q - 1,) + shape.qs[k:])
            for i in range(q):
                comps = tuple(
                    sigma_op(i, q - 1) if j == k else identity(shape.q(j))
                    for j in range(1, n + 1)
                )
                deg = CellularOperator(shape, tgt, identity(n), comps)
                sec_comps = tuple(
                    delta_op(i, q) if j == k else identity(shape.q(j))
                    for j in range(1, n + 1)
                )
                sec = CellularOperator(tgt, shape, identity(n), sec_comps)
                out.append((deg, sec))
    for k in range(n):
        # collapsing objects k, k+1 drops hom k+1; codim 1 forces q_{k+1} = 0
        if shape.q(k + 1) != 0:
            continue
        tgt = ThetaShape(shape.qs[:k] + shape.qs[k + 1 :])
        comps = []
        for j in range(1, n):
            l = j if j <= k else j + 1
            comps.append(identity(shape.q(l)))
        deg = CellularOperator(shape, tgt, sigma_op(k, n - 1), comps)
        sec_alpha = delta_op(k + 1, n)
        sec_comps = []
        for j in range(sec_alpha.values[0] + 1, sec_alpha.values[-1] + 1):
            if j == k + 1:
                sec_comps.append(SimplicialOperator([0] * (tgt.q(k + 1) + 1), 0))
            else:
                sec_comps.append(identity(shape.q(j)))
        sec = CellularOperator(tgt, shape, sec_alpha, sec_comps)
        out.append((deg, sec))
    return tuple(out)


# -- Reedy factorization --------------------------------------------------


def reedy_factor(f):
    """The unique (degeneracy, face) pair with f = face ∘ degeneracy.

    Both come from ``reedy_values`` on the operator's cell data.
    """
    sigma, deg_comps, mid_qs, alpha, face_comps = reedy_values(*operator_values(f))
    mid = ThetaShape(mid_qs)
    return (
        operator_from_values(f.src, mid, sigma, deg_comps),
        operator_from_values(mid, f.dst, alpha, face_comps),
    )


def face_factors_through(f, g):
    """Return the face h with f = g ∘ h, or None.

    Both f and g must be faces into the same shape; h is unique when it
    exists because faces are monomorphisms.
    """
    if f.dst != g.dst:
        raise ThetaError(f"{f} and {g} do not share a codomain")
    h_alpha_vals = []
    g_pos = {v: i for i, v in enumerate(g.horizontal.values)}
    for v in f.horizontal.values:
        if v not in g_pos:
            return None
        h_alpha_vals.append(g_pos[v])
    h_alpha = SimplicialOperator(h_alpha_vals, g.src.n)
    comps = []
    for j in range(h_alpha.values[0] + 1, h_alpha.values[-1] + 1):
        i = interval_index(h_alpha.values, j)
        ks = range(g.horizontal.values[j - 1] + 1, g.horizontal.values[j] + 1)
        r = f.src.q(i)
        s = g.src.q(j)
        vals = []
        for x in range(r + 1):
            target = tuple(f.component_at(k).values[x] for k in ks)
            y = next(
                (
                    y
                    for y in range(s + 1)
                    if tuple(g.component_at(k).values[y] for k in ks) == target
                ),
                None,
            )
            if y is None:
                return None
            vals.append(y)
        if any(vals[x] > vals[x + 1] for x in range(r)):
            return None
        comps.append(SimplicialOperator(vals, s))
    h = CellularOperator(f.src, g.src, h_alpha, comps)
    if compose_cellular(h, g) != f:
        return None
    return h


# -- dualities ------------------------------------------------------------


def co_dual(f):
    """Reverse 2-cells: dualize each component, keep shapes and order."""
    return CellularOperator(
        f.src,
        f.dst,
        f.horizontal,
        tuple(op_dual_simplicial(c) for c in f.components),
    )


def op_dual_shape(shape):
    return ThetaShape(tuple(reversed(shape.qs)))


def op_dual_theta(f):
    """Reverse 1-cells: dualize the horizontal part and reverse the q-lists.

    Components are reindexed k |-> n - k + 1 but individually unchanged.
    """
    return CellularOperator(
        op_dual_shape(f.src),
        op_dual_shape(f.dst),
        op_dual_simplicial(f.horizontal),
        tuple(reversed(f.components)),
    )


# -- vertebrae and spines --------------------------------------------------


def vertebrae(shape):
    """The minimal edge cells generating the spine."""
    if shape.n == 0:
        return (identity_cellular(shape),)
    out = []
    for k in range(1, shape.n + 1):
        edge = SimplicialOperator([k - 1, k], shape.n)
        if shape.q(k) == 0:
            out.append(
                CellularOperator(
                    ThetaShape((0,)), shape, edge, (SimplicialOperator([0], 0),)
                )
            )
        else:
            for i in range(1, shape.q(k) + 1):
                out.append(
                    CellularOperator(
                        ThetaShape((1,)),
                        shape,
                        edge,
                        (SimplicialOperator([i - 1, i], shape.q(k)),),
                    )
                )
    return tuple(out)


def is_mono_vertebral(shape):
    return shape in (TERMINAL, ThetaShape((0,)), ThetaShape((1,)))
