import itertools
from functools import lru_cache

import pytest

from theta2 import cellset, theta
from theta2.cellset import (
    Cell,
    FromSimplicial,
    ProductCellSet,
    Representable,
    Subobject,
    TruncatedCellularSet,
    from_simplicial,
    representable,
    subobject_to_json,
)
from theta2.boxprod import equiv_horiz, equiv_vert
from theta2.sset import J, SimplicialSet, boundary_sset, standard_simplex
from theta2.theta import (
    CellularOperator,
    ThetaError,
    ThetaShape,
    cellular_ops,
    compose_cellular,
    degeneracies_between,
    face_factors_through,
    face_table,
    faces_between,
    faces_into,
    hyperfaces,
    identity_cellular,
    shapes_upto,
    vertebrae,
    vertical_hyperface,
)
from theta2.twocat import (
    Finite2Category,
    chaotic_2cat,
    free_cell_2cat,
    nerve,
    suspension_of_chaotic,
)

from oracles import TrialOracle, TrialSearch, box_representable


def terminal_cellset(bound):
    return FromSimplicial(standard_simplex(0), bound)


def shape(*qs):
    return ThetaShape(qs)


def hyperface_cells(s):
    return [Cell(op.src, op) for _, op in hyperfaces(s)]


def test_representable_of_terminal():
    r = representable(shape(), 2)
    for sh in shapes_upto(2):
        assert len(r.cells(sh)) == 1


def test_representable_nd_cells_of_globe():
    r = representable(shape(1,))
    total = [c for sh in shapes_upto(2) for c in r.nd_cells(sh)]
    assert len(total) == 5


def test_representable_cell_count_matches_operator_enumeration():
    s = shape(0, 2)
    r = representable(s)
    from theta2.theta import cellular_ops

    for sh in shapes_upto(3):
        assert r.cells(sh) == cellular_ops(sh, s)


def test_action_functorial():
    # x . (f o g) == (x . f) . g, exhaustively at low dimension
    s = shape(1, 1)
    r = representable(s)
    from theta2.theta import cellular_ops, compose_cellular

    shs = shapes_upto(2)
    x = Cell(s, identity_cellular(s))
    for mid in shs:
        for f in cellular_ops(mid, s):
            xf = r.act(x, f)
            for low in shs:
                for g in cellular_ops(low, mid):
                    assert r.act(x, compose_cellular(g, f)) == r.act(xf, g)


def test_ez_decomposition_unique_presheaf_level():
    # brute force: every cell has exactly one (nondegenerate, degeneracy) split
    for amb in (
        representable(shape(1, 1)),
        from_simplicial(J, 3),
        ProductCellSet(from_simplicial(J, 2), representable(shape(0,), 2)),
        box_representable(shape(0, 1), 3),
        equiv_vert(shape(0, 1), 1, 3)[1],
    ):
        for sh in amb.shapes():
            if sh.dim > 3:
                continue
            for payload in amb.cells(sh):
                cell = Cell(sh, payload)
                splits = []
                for low in shapes_upto(sh.dim):
                    for deg in degeneracies_between(sh, low):
                        for y in amb.cells(low):
                            ylow = Cell(low, y)
                            if amb.is_nondegenerate(ylow) and amb.act(ylow, deg) == cell:
                                splits.append((ylow, deg))
                nd, deg = amb.nd_decompose(cell)
                assert splits == [(nd, deg)]


def test_subobject_closure_examples():
    s = shape(0, 2)
    r = representable(s)
    bd = Subobject.generated(r, hyperface_cells(s))
    assert not bd.contains(r.top_cell())
    # generated by the identity cell: the whole representable
    full = Subobject.generated(r, [r.top_cell()])
    assert full.is_full()
    # spine of [2;1,1] misses the lower vertical hyperface
    t = shape(1, 1)
    rt = representable(t)
    sp = Subobject.generated(rt, [Cell(v.src, v) for v in vertebrae(t)])
    dv = vertical_hyperface(t, 1, 0)
    assert not sp.contains(Cell(dv.src, dv))


def test_member_degeneracies_and_vertex():
    s = shape(0, 2)
    r = representable(s)
    bd = Subobject.generated(r, hyperface_cells(s))
    vertex = CellularOperator(shape(), s, (0,), ())
    assert bd.contains(Cell(vertex.src, vertex))
    # a degeneracy of a member is a member
    from theta2.theta import elementary_degeneracies

    for _, op in hyperfaces(s):
        base = Cell(op.src, op)
        for deg, sec in elementary_degeneracies(op.src):
            # y with y . deg living one level up
            img = r.act(base, sec)
            assert bd.contains(img)


def test_horn_misses_named_face():
    t = shape(1, 1)
    rt = representable(t)
    keep = [
        Cell(op.src, op)
        for lbl, op in hyperfaces(t)
        if lbl.variant == "V"
    ]
    horn = Subobject.generated(rt, keep)
    f = CellularOperator(shape(1,), t, (0, 2), ((0, 1), (0, 1)))
    assert not horn.contains(Cell(f.src, f))


def test_lattice_laws():
    s = shape(1, 1)
    r = representable(s)
    subs = []
    hfs = hyperface_cells(s)
    for k in range(1, len(hfs) + 1):
        subs.append(Subobject.generated(r, hfs[:k]))
    empty = Subobject.empty(r)
    full = Subobject.full(r)
    for a in subs:
        assert a.union(a).same_cells(a)
        assert a.intersection(a).same_cells(a)
        assert a.union(empty).same_cells(a)
        assert a.intersection(full).same_cells(a)
        for b in subs:
            assert a.union(b).same_cells(b.union(a))
            assert a.intersection(b).same_cells(b.intersection(a))
            assert a.intersection(a.union(b)).same_cells(a)
            for c in subs:
                lhs = a.union(b.intersection(c))
                rhs = a.union(b).intersection(a.union(c))
                assert lhs.same_cells(rhs)


def test_closure_idempotent_monotone():
    s = shape(0, 2)
    r = representable(s)
    hfs = hyperface_cells(s)
    small = Subobject.generated(r, hfs[:2])
    big = Subobject.generated(r, hfs)
    assert small.issubset(big)
    again = Subobject.generated(r, list(small.iter_nd()))
    assert again.same_cells(small)


def test_pullback_of_spine_along_inert_face():
    # inert faces pull spines back to spines, across all shapes of dim <= 4
    for s in shapes_upto(4):
        rt = representable(s)
        sp = Subobject.generated(rt, [Cell(v.src, v) for v in vertebrae(s)])
        for src in shapes_upto(s.dim):
            for f in faces_between(src, s):
                if not f.is_inert():
                    continue
                pb = sp.pullback_along(Cell(f.src, f))
                src_spine = Subobject.generated(
                    representable(src), [Cell(v.src, v) for v in vertebrae(src)]
                )
                assert pb.same_cells(src_spine), (s, f)


def test_pullback_of_full_is_full():
    s = shape(0, 2)
    r = representable(s)
    full = Subobject.full(r)
    for _, op in hyperfaces(s):
        pb = full.pullback_along(Cell(op.src, op))
        assert pb.is_full()


def test_from_simplicial_j_counts():
    jc = from_simplicial(J, 3)
    for sh in shapes_upto(3):
        assert len(jc.cells(sh)) == 2 ** (sh.n + 1)


def test_product_with_terminal():
    s = shape(1,)
    r = representable(s, 2)
    p = ProductCellSet(r, terminal_cellset(2))
    for sh in shapes_upto(2):
        assert len(p.cells(sh)) == len(r.cells(sh))


def test_product_with_j_edges():
    p = ProductCellSet(from_simplicial(J, 2), representable(shape(0,), 2))
    edge_shape = shape(0,)
    nd = [c for c in p.nd_cells(edge_shape)]
    # four edges whose representable part is the identity
    ids = [c for c in nd if c[1] == identity_cellular(edge_shape)]
    assert len(ids) == 4


def test_generator_outside_ambient_rejected():
    r = representable(shape(0,))
    t = representable(shape(1,))
    with pytest.raises((ThetaError, Exception)):
        Subobject.generated(r, [t.top_cell()])


def test_serialization_shapes():
    r = representable(shape(1,))
    sub = Subobject.generated(r, hyperface_cells(shape(1,)))
    sdoc = subobject_to_json(sub)
    assert sdoc["shapes"]


# -- the index against a reference closure ---------------------------------


def ref_contains(ambient, nd, cell):
    """Membership through the cell's nondegenerate part."""
    base, _ = ambient.nd_decompose(cell)
    return base.payload in nd.get(base.shape, frozenset())


def ref_closure(ambient, cells):
    """The closure by search: decompose each hyperface image of each new cell."""
    nd, stack = {}, []

    def add(cell):
        base, _ = ambient.nd_decompose(cell)
        bucket = nd.setdefault(base.shape, set())
        if base.payload not in bucket:
            bucket.add(base.payload)
            stack.append(base)

    for cell in cells:
        add(cell)
    while stack:
        cell = stack.pop()
        for _, h in hyperfaces(cell.shape):
            add(ambient.act(cell, h))
    return {sh: frozenset(v) for sh, v in nd.items()}


def ref_pullback(ambient, nd, cell):
    """The faces f of the cell's shape with ``cell . f`` a member."""
    out = {}
    for sh in shapes_upto(cell.shape.dim):
        hits = frozenset(
            f for f in faces_between(sh, cell.shape)
            if ref_contains(ambient, nd, ambient.act(cell, f))
        )
        if hits:
            out[sh] = hits
    return out


def ref_union(a, b):
    return {sh: a.get(sh, frozenset()) | b.get(sh, frozenset()) for sh in set(a) | set(b)}


def ref_intersection(a, b):
    common = {sh: a[sh] & b[sh] for sh in set(a) & set(b)}
    return {sh: v for sh, v in common.items() if v}


def ref_issubset(a, b):
    return all(v <= b.get(sh, frozenset()) for sh, v in a.items())


def _assert_matches_reference(amb, ref, generators, pull_cells, probe_cells):
    """Closures, pullbacks, membership and the lattice operations on ``amb``
    against the reference over ``ref``, the same cellular set; returns the
    number of pullbacks compared."""
    pullbacks = 0
    subs = []
    for gens in generators:
        got = Subobject.generated(amb, gens)
        want = ref_closure(ref, gens)
        assert got.nd == want, gens
        for cell in pull_cells:
            assert got.pullback_along(cell).nd == ref_pullback(ref, want, cell), (gens, cell)
            pullbacks += 1
        # a subobject built from its cells has the same bitmask
        rebuilt = Subobject(amb, want)
        assert rebuilt.mask == got.mask
        for cell in probe_cells:
            assert got.contains(cell) == ref_contains(ref, want, cell), (gens, cell)
        subs.append((got, want))
    for a, a_nd in subs:
        for b, b_nd in subs:
            assert a.union(b).nd == ref_union(a_nd, b_nd)
            assert a.intersection(b).nd == ref_intersection(a_nd, b_nd)
            assert a.issubset(b) == ref_issubset(a_nd, b_nd)
    return pullbacks


class OperatorOracle(TrialSearch, TruncatedCellularSet):
    """Theta[shape] decomposed by the trial-degeneracy search."""

    def __init__(self, shape, bound=None):
        super().__init__(shape.dim if bound is None else bound)
        self.shape = shape

    def _compute_cells(self, sh):
        return cellular_ops(sh, self.shape)

    def _act(self, cell, op):
        return Cell(op.src, compose_cellular(op, cell.payload))


def _assert_index_matches_oracle(s, bound=None, generators=None):
    """Compare nd_cells, closures, pullbacks and membership on Theta[s]."""
    rep, oracle = representable(s, bound), OperatorOracle(s, bound)
    for sh in rep.shapes():
        assert rep.nd_cells(sh) == oracle.nd_cells(sh), (s, sh)
    hfs = hyperface_cells(s)
    if generators is None:
        generators = [hfs]
        generators += [[c] for c in hfs]
        generators += [hfs[:i] + hfs[i + 1 :] for i in range(len(hfs))]
    faces = [Cell(f.src, f) for f in faces_into(s) if f.src.dim <= rep.bound]
    ops = [Cell(sh, op) for sh in rep.shapes() for op in cellular_ops(sh, s)]
    return _assert_matches_reference(rep, oracle, generators, faces, ops)


def test_face_index_matches_generic_path_up_to_dim_4():
    pullbacks = sum(_assert_index_matches_oracle(s) for s in shapes_upto(4))
    assert pullbacks == 3010


def test_face_index_matches_generic_path_off_the_shape_bound():
    # above the shape's dimension, as the horizontal equivalence ambient has it
    _assert_index_matches_oracle(shape(0, 0), bound=4)
    # below it: cells above the bound are not indexed and do not generate
    s = shape(1, 0)
    _assert_index_matches_oracle(s, bound=2)
    top = Cell(s, identity_cellular(s))
    for gens in ([top], hyperface_cells(s) + [top]):
        with pytest.raises(ThetaError):
            Subobject.generated(representable(s, 2), gens)


# representables whose id tables are checked against the act path: every
# shape of dim <= 5, one bound above its shape's dimension and one below
ID_TABLE_REPRESENTABLES = [(s, None) for s in shapes_upto(5)] + [
    (shape(0, 0), 4),
    (shape(1, 0), 2),
]


def test_face_table_ids_match_act_path():
    tables = 0
    for s, bound in ID_TABLE_REPRESENTABLES:
        rep = Representable(s, bound)
        # the generic listing and ids, before the index reads the table
        cells, sizes = TruncatedCellularSet._index_cells(rep)
        ids = {cell: i for i, cell in enumerate(cells)}
        hf = face_table(s).hf
        for i, cell in enumerate(cells):
            want = [ids[rep._act(cell, h)] for _, h in hyperfaces(cell.shape)]
            assert list(hf[i]) == want, (s, cell)
        index = rep.nd_index()
        assert (index.cells, index.sizes) == (cells, sizes), (s, bound)
        for cell in cells:
            act_path = TruncatedCellularSet._compute_pullback_table(rep, cell)
            assert rep._pullback_table(cell) == act_path, (s, cell)
            tables += 1
    assert tables == 1293


def test_degenerate_cell_takes_act_path():
    s = shape(1, 1)
    rep = Representable(s)
    # count the ambient's actions through an instance attribute
    calls, act = [], rep._act
    rep._act = lambda cell, op: calls.append(op) or act(cell, op)
    faces = rep.nd_index().cells
    for cell in faces:
        rep._pullback_table(cell)
    assert calls == []
    degenerate = [
        Cell(sh, op) for sh in shapes_upto(3) for op in cellular_ops(sh, s) if not op.is_face()
    ]
    assert len(degenerate) == 157
    for cell in degenerate:
        n = len(calls)
        table = rep._pullback_table(cell)
        assert len(calls) - n == len(table)
        assert table == TruncatedCellularSet._compute_pullback_table(rep, cell)


def test_face_tables_compose_no_operator(monkeypatch):
    # a cold index and every pullback table of Theta[2;1,1] read the closure's
    # ids: a composition brought back fails here, not only in a traced run
    calls = []

    def counting(g, f):
        calls.append((g, f))
        return compose_cellular(g, f)

    cold = lru_cache(maxsize=None)(face_table.__wrapped__)
    for module in (theta, cellset):
        monkeypatch.setattr(module, "compose_cellular", counting)
        monkeypatch.setattr(module, "face_table", cold)
    s = shape(1, 1)
    rep = Representable(s)
    boundary = Subobject.generated(rep, hyperface_cells(s))
    for cell in rep.nd_index().cells:
        boundary.pullback_along(cell)
    assert calls == []
    # the tables were built cold, one per shape of a face
    assert cold.cache_info().currsize == len({c.shape for c in rep.nd_index().cells})
    rep.act(rep.top_cell(), hyperfaces(s)[0][1])
    assert len(calls) == 1


class Sphere2(SimplicialSet):
    """Delta[2] with its boundary collapsed to the point (-1, ..., -1).

    Every face of the 2-simplex is degenerate, so its downset reaches the
    point only through a nondegenerate decomposition.
    """

    name = "S2"

    def level(self, n):
        simplices = itertools.combinations_with_replacement(range(3), n + 1)
        onto = [x for x in simplices if set(x) == {0, 1, 2}]
        return ((-1,) * (n + 1), *onto)

    def act(self, x, alpha):
        y = super().act(x, alpha)
        return y if set(y) == {0, 1, 2} else (-1,) * len(y)


# the ambients besides representables that replays close, pull back and test
# in, and a sphere whose hyperface images are all degenerate
INDEXED_AMBIENTS = {
    "vertical[2;0,0]k1": lambda: equiv_vert(shape(0, 0), 1, 4)[1],
    "J x [1;0]": lambda: equiv_horiz(shape(0,), 3).codomain,
    "J": lambda: from_simplicial(J, 3),
    "S2": lambda: from_simplicial(Sphere2(), 3),
}


@pytest.mark.parametrize("name", sorted(INDEXED_AMBIENTS))
def test_index_matches_reference_on_other_ambients(name):
    amb = INDEXED_AMBIENTS[name]()
    nd = [Cell(sh, c) for sh in amb.shapes() for c in amb.nd_cells(sh)]
    assert list(amb.nd_index().cells) == nd
    generators = [[c] for c in nd]
    generators += [[Cell(sh, c) for c in amb.nd_cells(sh)] for sh in amb.shapes()]
    every_cell = [Cell(sh, c) for sh in amb.shapes() for c in amb.cells(sh)]
    assert len(every_cell) > len(nd)
    assert _assert_matches_reference(amb, amb, generators, nd, every_cell) == len(
        generators
    ) * len(nd)


def test_generator_above_bound_rejected():
    s = shape(1, 0)
    with pytest.raises(ThetaError):
        Subobject.generated(representable(s, 2), [Cell(s, identity_cellular(s))])
    big = equiv_vert(shape(0, 0), 1, 3)[1]
    cell = next(Cell(sh, c) for sh in big.shapes() if sh.dim == 3 for c in big.nd_cells(sh))
    with pytest.raises(ThetaError):
        Subobject.generated(equiv_vert(shape(0, 0), 1, 2)[1], [cell])


def test_face_index_downsets():
    s = shape(1, 1)
    index = representable(s).nd_index()
    faces = [c.payload for c in index.cells]
    assert len(faces) == len(faces_into(s))
    for i, f in enumerate(faces):
        below = {g for g in faces if face_factors_through(g, f) is not None}
        assert {faces[j] for j in range(len(faces)) if index.down[i] >> j & 1} == below


def idempotent_2cat():
    """One object, an idempotent endo 1-cell e, and on each 1-cell one
    idempotent non-identity endo 2-cell, so not locally thin.

    A 2-cell is named by its 1-cell and a flag, 1 when it is not an
    identity; both compositions OR the flags.
    """
    one_cells = {"1": ("*", "*"), "e": ("*", "*")}
    two_cells = {f + flag: (f, f) for f in one_cells for flag in "01"}
    hcomp1 = {(g, f): "1" if g == f == "1" else "e" for g in one_cells for f in one_cells}
    vcomp = {(b, a): a[0] + max(a[1], b[1]) for b in two_cells for a in two_cells if a[0] == b[0]}
    hcomp2 = {(b, a): hcomp1[(b[0], a[0])] + max(a[1], b[1]) for b in two_cells for a in two_cells}
    id2 = {f: f + "0" for f in one_cells}
    cat = Finite2Category(("*",), one_cells, two_cells, {"*": "1"}, id2, hcomp1, vcomp, hcomp2)
    assert cat.validate()
    return cat


def _product_with_j(s):
    return ProductCellSet(from_simplicial(J, 4), representable(s, 4))


# every ambient class that reads its runs off a payload other than an
# operator's or a box cell's: simplicial sets, products and nerves
RUNS_AMBIENTS = {
    "J": lambda: from_simplicial(J, 4),
    "S2": lambda: from_simplicial(Sphere2(), 4),
    "terminal": lambda: terminal_cellset(3),
    **{
        f"J x {s}": lambda s=s: _product_with_j(s)
        for s in (shape(0), shape(0, 0), shape(1), shape(2))
    },
    "J x (J x [1;0])": lambda: ProductCellSet(from_simplicial(J, 4), _product_with_j(shape(0))),
    "chaotic(2)": lambda: nerve(chaotic_2cat(), 4),
    "chaotic(3)": lambda: nerve(chaotic_2cat("abc"), 4),
    "suspension": lambda: nerve(suspension_of_chaotic(), 4),
    **{
        f"free{s}": lambda s=s: nerve(free_cell_2cat(s), 4)
        for s in (shape(1), shape(0, 1), shape(2))
    },
    "idempotent": lambda: nerve(idempotent_2cat(), 4),
}


@pytest.mark.parametrize("name", sorted(RUNS_AMBIENTS))
def test_runs_kernel_matches_trial_search(name):
    amb = RUNS_AMBIENTS[name]()
    oracle = TrialOracle(amb)
    degenerate = 0
    for sh in amb.shapes():
        for payload in amb.cells(sh):
            cell = Cell(sh, payload)
            want = oracle.nd_decompose(cell)
            assert amb.nd_decompose(cell) == want, cell
            assert amb.is_nondegenerate(cell) == (want[0] == cell), cell
            degenerate += want[0] != cell
    assert degenerate
