import pytest

from theta2.boxprod import BoxCellSet
from theta2.cellset import Cell, from_simplicial, representable
from theta2.sset import J, standard_simplex
from theta2.theta import (
    ThetaError,
    ThetaShape,
    elementary_degeneracies,
    hyperfaces,
    shapes_upto,
)
from theta2.twocat import (
    Finite2Category,
    chaotic_2cat,
    format_2cat,
    free_cell_2cat,
    locally_thin_2cat,
    nerve,
    parse_2cat_text,
    suspension_of_chaotic,
)


def shape(*qs):
    return ThetaShape(qs)


@pytest.mark.parametrize("qs", [(), (0,), (1,), (0, 2), (1, 1)])
def test_free_2cat_validates(qs):
    free_cell_2cat(shape(*qs)).validate()


def test_free_2cat_homs():
    c = free_cell_2cat(shape(1,))
    assert c.objects == (0, 1)
    assert len(c.one_cells_between(0, 1)) == 2
    between = [
        t
        for t, (f, g) in c.two_cells.items()
        if c.one_cells[f] == (0, 1) and f != g
    ]
    assert len(between) == 1

    c = free_cell_2cat(shape(0, 2))
    # hom(0,2) = [0] x [2], a three-object chain
    assert len(c.one_cells_between(0, 2)) == 3


def test_terminal_free_2cat():
    c = free_cell_2cat(shape())
    assert c.objects == (0,)
    assert list(c.one_cells) == [c.id1[0]]


def _explicit_nerve_iso(s, bound):
    """Nerve cells of the free 2-category as operators, via the hom chains."""
    from theta2.theta import CellularOperator

    n = nerve(free_cell_2cat(s), bound)

    def to_operator(sh, payload):
        objs, paths = payload
        comps = []
        for k in range(objs[0] + 1, objs[-1] + 1):
            i = next(i for i in range(1, sh.n + 1) if objs[i - 1] < k <= objs[i])
            fs, _ = paths[i - 1]
            lo = objs[i - 1]
            comps.append(tuple(f[3][k - lo - 1] for f in fs))
        return CellularOperator(sh, s, objs, tuple(comps))

    return n, to_operator


@pytest.mark.parametrize("qs", [(0,), (1,), (2,), (0, 2), (1, 1), (0, 0, 0)])
def test_nerve_of_free_is_representable(qs):
    s = shape(*qs)
    bound = s.dim + 1
    n, to_operator = _explicit_nerve_iso(s, bound)
    r = representable(s, bound)
    for sh in shapes_upto(bound):
        ops = sorted(to_operator(sh, c) for c in n.cells(sh))
        assert ops == sorted(r.cells(sh)), (s, sh)


def test_nerve_action_compatible_with_representable():
    s = shape(0, 2)
    bound = s.dim
    n, to_operator = _explicit_nerve_iso(s, bound)
    r = representable(s, bound)
    from theta2.theta import compose_cellular

    into = {sh: [op for _, op in hyperfaces(sh)] for sh in shapes_upto(bound)}
    for upper in shapes_upto(bound):
        for deg, _ in elementary_degeneracies(upper):
            into[deg.dst].append(deg)
    for sh in shapes_upto(bound):
        for c in n.cells(sh):
            f = to_operator(sh, c)
            for g in into[sh]:
                moved = n.act(Cell(sh, c), g)
                assert to_operator(moved.shape, moved.payload) == compose_cellular(g, f)


def test_chaotic_nerve_is_interval():
    c = chaotic_2cat()
    c.validate()
    n = nerve(c, 3)
    jc = from_simplicial(J, 3)
    for sh in shapes_upto(3):
        assert len(n.cells(sh)) == len(jc.cells(sh))
        assert len(n.nd_cells(sh)) == len(jc.nd_cells(sh))


def test_one_object_chaotic_nerve_sits_inside_chaotic_nerve():
    # the domain of {d} inside J, read as nerves of chaotic 2-categories
    small = nerve(chaotic_2cat(("d",)), 3)
    big = nerve(chaotic_2cat(), 3)
    into = {sh: [op for _, op in hyperfaces(sh)] for sh in shapes_upto(3)}
    for upper in shapes_upto(3):
        for deg, _ in elementary_degeneracies(upper):
            into[deg.dst].append(deg)
    for sh in shapes_upto(3):
        cells = small.cells(sh)
        assert set(cells) <= set(big.cells(sh)), sh
        for c in cells:
            for op in into[sh]:
                assert small.act(Cell(sh, c), op) == big.act(Cell(sh, c), op)


def test_locally_thin_builder_rejects_parallel_2cells():
    with pytest.raises(ThetaError, match="not locally thin"):
        locally_thin_2cat(
            ("a",),
            {"1": ("a", "a")},
            {"x": ("1", "1"), "y": ("1", "1")},
            {"a": "1"},
            {("1", "1"): "1"},
        )


def test_suspension_nerve_is_interval_box():
    cat = suspension_of_chaotic()
    cat.validate()
    n = nerve(cat, 4)
    b = BoxCellSet(standard_simplex(1), [J], 4)
    for sh in shapes_upto(4):
        assert len(n.cells(sh)) == len(b.cells(sh)), sh
        assert len(n.nd_cells(sh)) == len(b.nd_cells(sh)), sh


def test_nerve_respects_functors_spot():
    # collapse functor from the free walking 2-cell to the free arrow
    src = free_cell_2cat(shape(1,))
    dst = free_cell_2cat(shape(0,))

    def on_cells(payload):
        # squash every hom coordinate to 0
        objs, paths = payload
        new_paths = []
        for fs, ts in paths:
            nfs = tuple(("f", f[1], f[2], tuple(0 for _ in f[3])) for f in fs)
            nts = tuple(
                ("t", t[1], t[2], tuple(0 for _ in t[3]), tuple(0 for _ in t[4]))
                for t in ts
            )
            new_paths.append((nfs, nts))
        return (objs, tuple(new_paths))

    ns = nerve(src, 2)
    nd = nerve(dst, 2)
    for sh in shapes_upto(2):
        for c in ns.cells(sh):
            img = on_cells(c)
            assert img in nd.cells(sh)
            for _, face in hyperfaces(sh):
                lhs = on_cells(ns.act(Cell(sh, c), face).payload)
                rhs = nd.act(Cell(sh, img), face).payload
                assert lhs == rhs


def test_text_format_roundtrip():
    cat = chaotic_2cat()
    text = format_2cat(cat)
    back = parse_2cat_text(text)
    back.validate()
    assert len(back.objects) == len(cat.objects)
    assert len(back.one_cells) == len(cat.one_cells)
    assert len(back.two_cells) == len(cat.two_cells)
    n1 = nerve(cat, 2)
    n2 = nerve(back, 2)
    for sh in shapes_upto(2):
        assert len(n1.cells(sh)) == len(n2.cells(sh))


def test_invalid_tables_caught():
    # break a vertical unit: compose-with-identity no longer returns itself
    cat = free_cell_2cat(shape(2,))
    t = ("t", 0, 1, (0,), (1,))
    unit = cat.id2[("f", 0, 1, (0,))]
    assert cat.vcomp[(t, unit)] == t
    cat.vcomp[(t, unit)] = unit
    with pytest.raises(ThetaError):
        cat.validate()
