import pytest
from oracles import TrialSearch, box_cell_to_operator, box_representable, operator_to_box_cell

from theta2.boxprod import (
    BoxCellSet,
    Inclusion,
    boundary,
    boundary_leibniz,
    equiv_horiz,
    equiv_vert,
    horn_h,
    horn_h_alt,
    horn_h_leibniz,
    horn_v,
    horn_v_leibniz,
    lambda_subobject,
    sigma_subobject,
    spine,
    spine_subobject,
    theta_corner,
    upsilon_subobject,
)
from theta2.cellset import Cell, Subobject, representable
from theta2.delta import SimplicialOperator, shuffles
from theta2.sset import DIAMOND, FILLED, J, boundary_sset, horn_sset, standard_simplex
from theta2.theta import (
    CellularOperator,
    HyperfaceLabel,
    ThetaError,
    ThetaShape,
    codim,
    faces_into,
    hyperfaces,
    inner_hyperface_labels,
    shapes_upto,
)


def shape(*qs):
    return ThetaShape(qs)


def transport(inc, target_shape):
    """Move a box-subobject to operator language for comparisons."""
    out = {}
    for sh, cells in inc.domain.nd.items():
        out[sh] = frozenset(
            box_cell_to_operator(inc.codomain, Cell(sh, c), target_shape)
            for c in cells
        )
    return out


@pytest.mark.parametrize("qs", [(0,), (2,), (0, 2), (1, 1), (0, 0, 0)])
def test_box_representable_bijection(qs):
    s = shape(*qs)
    b = box_representable(s)
    r = representable(s)
    for sh in shapes_upto(s.dim):
        ops = sorted(
            box_cell_to_operator(b, Cell(sh, c), s) for c in b.cells(sh)
        )
        assert ops == sorted(r.cells(sh))


def test_box_action_matches_operator_composition():
    s = shape(0, 2)
    b = box_representable(s)
    r = representable(s)
    from theta2.theta import compose_cellular

    for sh in shapes_upto(3):
        for c in b.cells(sh):
            op = box_cell_to_operator(b, Cell(sh, c), s)
            for _, face in hyperfaces(sh):
                moved = b.act(Cell(sh, c), face)
                assert box_cell_to_operator(
                    b, moved, s
                ) == compose_cellular(face, op)


def test_operator_to_box_roundtrip():
    s = shape(1, 1)
    b = box_representable(s)
    for sh in shapes_upto(s.dim):
        for f in representable(s).cells(sh):
            cell = operator_to_box_cell(f)
            assert box_cell_to_operator(b, cell, s) == f


def test_suspension_of_interval():
    # box over the arrow with the interval fiber: two points and the
    # alternating strings at every level
    b = BoxCellSet(standard_simplex(1), [J], 4)
    assert len(b.nd_cells(shape())) == 2
    for p in range(4):
        nd = b.nd_cells(shape(p,))
        assert len(nd) == 2


class TrialBox(TrialSearch, BoxCellSet):
    """The same box, decomposed by the trial-degeneracy search."""


# the representable boxes, the interval-replay ambients, the interval edge
# of the vertical extension, the Leibniz boundary codomains, and a box over
# a horn with mixed fibers, whose base is not a standard simplex
KERNEL_BOXES = {
    **{f"representable{s}": lambda s=s: box_representable(s, 6) for s in shapes_upto(4)},
    **{
        f"vertical{shape(*qs)}k{k}": lambda qs=qs, k=k: equiv_vert(shape(*qs), k, 6)[1]
        for qs, k in [((0,), 1), ((0, 0), 1), ((0, 0), 2), ((0, 1), 1), ((0, 2), 1)]
    },
    "interval-edge": lambda: BoxCellSet(standard_simplex(1), [J], 6),
    **{f"leibniz{s}": lambda s=s: boundary_leibniz(s).codomain for s in shapes_upto(4)},
    "horn-base": lambda: BoxCellSet(
        horn_sset(3, 1), [J, boundary_sset(2), standard_simplex(1)], 5
    ),
}


@pytest.mark.parametrize("name", sorted(KERNEL_BOXES))
def test_box_reedy_kernel_matches_trial_search(name):
    box = KERNEL_BOXES[name]()
    trial = TrialBox(box.base, box.fibers, box.bound)
    for sh in box.shapes():
        for payload in box.cells(sh):
            cell = Cell(sh, payload)
            want = trial.nd_decompose(cell)
            assert box.nd_decompose(cell) == want, (sh, payload)
        assert box.nd_cells(sh) == trial.nd_cells(sh), sh


def _broken_payloads(payload):
    """Payloads that each break one rule of box membership."""
    x, comps = payload
    out = {"short x": (x[:-1], comps), "base value": ((-1, *x[1:]), comps)}
    if comps:
        y = comps[0]
        out["missing component"] = (x, comps[:-1])
        out["long row"] = (x, (y + y[-1:], *comps[1:]))
        out["fiber value"] = (x, ((-1, *y[1:]), *comps[1:]))
    return out


@pytest.mark.parametrize("name", sorted(KERNEL_BOXES))
def test_box_contains_cell_matches_cell_scan(name):
    # membership is decided without the cell tuple, and agrees with the
    # generic scan of it (a set here, which holds the same payloads)
    box, ref = KERNEL_BOXES[name](), KERNEL_BOXES[name]()
    broken = set()
    for sh in ref.shapes():
        members = set(ref.cells(sh))
        candidates = list(members)
        for other in ref.shapes():
            if other.n == sh.n and other != sh:
                candidates += ref.nd_cells(other)
        for payload in ref.nd_cells(sh):
            for kind, bad in _broken_payloads(payload).items():
                assert not box.contains_cell(Cell(sh, bad)), (kind, sh, payload)
                broken.add(kind)
        for payload in candidates:
            assert box.contains_cell(Cell(sh, payload)) == (payload in members), (sh, payload)
    assert box._cells_memo == {}
    kinds = set(_broken_payloads(((0, 1), ((0,),))))
    assert broken == (kinds if box.n else {"short x", "base value"})
    # a shape above the bound holds no cell, degenerate or not
    top = ref.shapes()[-1]
    assert not box.contains_cell(Cell(ThetaShape((*top.qs, 0)), ((0,) * (top.n + 2), ())))


@pytest.mark.parametrize("qs", [(0, 2), (1, 1), (2,), (0, 0, 0)])
def test_leibniz_boundary_equals_closure(qs):
    s = shape(*qs)
    left = transport(boundary_leibniz(s), s)
    right = dict(boundary(s).domain.nd)
    assert left == right


@pytest.mark.parametrize("qs,k", [((0, 2), 1), ((1, 1), 1), ((0, 0, 0), 2)])
def test_leibniz_horn_h_equals_closure(qs, k):
    s = shape(*qs)
    left = transport(horn_h_leibniz(s, k), s)
    right = dict(horn_h(s, k).domain.nd)
    assert left == right


@pytest.mark.parametrize("qs,k,i", [((0, 2), 2, 1), ((2,), 1, 0), ((1, 1), 2, 1)])
def test_leibniz_horn_v_equals_closure(qs, k, i):
    s = shape(*qs)
    left = transport(horn_v_leibniz(s, k, i), s)
    right = dict(horn_v(s, k, i).domain.nd)
    assert left == right


def test_boundary_is_lower_dimensional_part():
    s = shape(0, 2)
    bd = boundary(s).domain
    for f in faces_into(s):
        cell = Cell(f.src, f)
        assert bd.contains(cell) == (codim(f) > 0)


def test_horn_examples_202():
    s = shape(0, 2)
    h = horn_h(s, 1)
    gens = {str(lbl) for lbl, op in hyperfaces(s)} - {"dh^{1;<{0,0,0},{0,1,2}>}"}
    got = horn_h_alt(s, 1, shuffles(0, 2)[0])
    assert h.domain.same_cells(got.domain)
    hv = horn_v(s, 2, 1)
    missing = [op for lbl, op in hyperfaces(s) if str(lbl) == "dv^{2;1}"][0]
    assert not hv.domain.contains(Cell(missing.src, missing))


def test_upsilon_contains_spine_for_polyvertebral():
    for qs in [(2,), (0, 0), (1, 1), (0, 2)]:
        s = shape(*qs)
        up = upsilon_subobject(s, frozenset())
        assert spine_subobject(s).issubset(up)


def test_upsilon_with_all_inner_but_one_is_vertical_horn():
    s = shape(0, 2)
    inner = set(inner_hyperface_labels(s))
    skip = HyperfaceLabel(HyperfaceLabel.V, k=2, i=1)
    labels = frozenset(inner - {skip})
    assert upsilon_subobject(s, labels).same_cells(horn_v(s, 2, 1).domain)


def test_lambda_singleton_is_alt_horn():
    s = shape(1, 1)
    for shf in shuffles(1, 1):
        lbl = HyperfaceLabel(HyperfaceLabel.HK, k=1, shuffle=shf)
        assert lambda_subobject(s, frozenset([lbl])).same_cells(
            horn_h_alt(s, 1, shf).domain
        )


def test_spine_iff_monovertebral_is_full():
    for q in range(4):
        s = shape(q,)
        assert spine(s).domain.is_full() == (q <= 1)


def test_equiv_vert_psi_phi():
    s = shape(0,)
    psi, phi, inc = equiv_vert(s, 1, 3)
    corner = theta_corner(phi, 1)
    # base case: the domain is exactly the representable corner
    assert psi.same_cells(corner)
    # suspension target has two nondegenerate cells per level
    for p in range(3):
        assert len(phi.nd_cells(shape(p,))) == 2

    s = shape(0, 1)
    psi, phi, inc = equiv_vert(s, 1, 4)
    corner = theta_corner(phi, 1)
    assert corner.issubset(psi)
    full = Subobject.full(phi)
    assert psi.nd_count() < full.nd_count()
    # psi membership agrees with the unless-clause on nondegenerate cells
    for sh in phi.shapes():
        for c in phi.nd_cells(sh):
            x, comps = c
            surj = set(x) == set(range(s.n + 1))
            if surj:
                for j, y in zip(range(x[0] + 1, x[-1] + 1), comps):
                    if j != 1 and set(y) != set(range(s.q(j) + 1)):
                        surj = False
            filled = any(
                FILLED in y
                for j, y in zip(range(x[0] + 1, x[-1] + 1), comps)
                if j == 1
            )
            assert psi.contains(Cell(sh, c)) == (not (surj and filled))


def test_equiv_vert_needs_zero_hom():
    with pytest.raises(ThetaError):
        equiv_vert(shape(1,), 1, 3)


def _outside_psi(payload, s, k):
    """The unless-clause: base and every slot but k surjective, FILLED in slot k."""
    x, comps = payload
    if set(x) != set(range(s.n + 1)):
        return False
    for j, y in zip(range(x[0] + 1, x[-1] + 1), comps):
        if j != k and set(y) != set(range(s.q(j) + 1)):
            return False
    return FILLED in comps[k - 1 - x[0]]


# four hand-picked cases, then every other (shape, k) with q_k = 0 and dim <= 4
_PSI_CASES = [((0,), 1), ((0, 1), 1), ((0, 0), 2), ((1, 0), 2)]
_PSI_CASES += [
    (s.qs, k)
    for s in shapes_upto(4)
    for k in range(1, s.n + 1)
    if s.q(k) == 0 and (s.qs, k) not in _PSI_CASES
]


@pytest.mark.parametrize("qs,k", _PSI_CASES)
def test_equiv_vert_domain_is_leibniz(qs, k):
    # the Leibniz box over (bd[n] c [n]; bd[q_j] c [q_j], j != k; {diamond} c J
    # at k) against the membership rule of the extension's definition
    s = shape(*qs)
    psi, phi, _ = equiv_vert(s, k, s.dim + 2)
    assert phi.base == standard_simplex(s.n)
    assert phi.fibers == tuple(
        J if j == k else standard_simplex(q) for j, q in enumerate(s.qs, 1)
    )
    for sh in phi.shapes():
        for c in phi.nd_cells(sh):
            assert psi.contains(Cell(sh, c)) == (not _outside_psi(c, s, k)), (sh, c)


def test_equiv_horiz_domain():
    s = shape(0,)
    inc = equiv_horiz(s, 3)
    amb = inc.codomain
    # the diamond corner and the interval-times-boundary part are inside
    for sh in amb.shapes():
        for c in amb.nd_cells(sh):
            u, f = c
            const = all(v == DIAMOND for v in u)
            in_bd = boundary(s).domain.contains(Cell(f.src, f))
            assert inc.domain.contains(Cell(sh, c)) == (const or in_bd)


def test_pushout_product_smoke():
    # binary-product Leibniz of an inner horn with a boundary inclusion:
    # levelwise injective, and the complement pairs both "new" directions
    from theta2.cellset import ProductCellSet

    a = shape(0, 0)
    b = shape(0,)
    bound = 3
    amb = ProductCellSet(representable(a, bound), representable(b, bound))
    horn = horn_h(a, 1).domain
    bd = boundary(b).domain

    def in_domain(payload):
        x, y = payload
        return horn.contains(Cell(x.src, x)) or bd.contains(Cell(y.src, y))

    dom_nd = {}
    for sh in amb.shapes():
        hits = {c for c in amb.nd_cells(sh) if in_domain(c)}
        if hits:
            dom_nd[sh] = hits
    dom = Subobject(amb, dom_nd)
    comp = [
        (sh, c)
        for sh in amb.shapes()
        for c in amb.nd_cells(sh)
        if not dom.contains(Cell(sh, c))
    ]
    assert comp
    for sh, (x, y) in comp:
        assert not horn.contains(Cell(x.src, x))
        assert not bd.contains(Cell(y.src, y))
