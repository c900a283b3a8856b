import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import theta2
from theta2.delta import shuffles
from theta2.theta import (
    CellularOperator,
    HyperfaceLabel,
    ThetaError,
    ThetaShape,
    cellular_ops,
    classify_cellular,
    co_dual,
    codim,
    compose_cellular,
    degeneracies_between,
    elementary_degeneracies,
    face_factors_through,
    faces_between,
    faces_into,
    horizontal_face_0,
    horizontal_face_n,
    horizontal_hyperface,
    hyperface_operator,
    hyperfaces,
    identity_cellular,
    inner_hyperface_labels,
    is_mono_vertebral,
    op_dual_shape,
    op_dual_theta,
    outer_hyperface_order,
    reedy_factor,
    shapes_upto,
    vertebrae,
    vertical_hyperface,
)

from oracles import jointly_monic_faces


def shape(*qs):
    return ThetaShape(qs)


def test_shape_basics():
    assert shape().dim == 0
    assert shape(0, 2).dim == 4
    assert str(shape(0, 2)) == "[2;0,2]"
    assert str(shape()) == "[0]"
    with pytest.raises(ThetaError):
        shape(-1)


def test_shapes_upto_count():
    # one shape per subset-composition; 2^d shapes of dimension <= d
    for d in range(7):
        assert len(shapes_upto(d)) == 2**d
    assert shapes_upto(-1) == ()


def test_operator_wellformedness():
    s, t = shape(1,), shape(0, 2)
    with pytest.raises(ThetaError):
        CellularOperator(s, t, (0, 2), ())  # missing components
    with pytest.raises(ThetaError):
        CellularOperator(s, t, (0, 2), ((0,), (0, 1)))


@pytest.mark.parametrize(
    "src, x, comps",
    [
        ((0, 0), (0, 2, 1), ((0,),)),
        ((1,), (0, 3), ((0, 0), (0, 1), (0, 1))),
        ((1,), (0, 1), ((0, 0), (0, 1))),
        ((1,), (0, 2), ((0, 0), (0, 1, 2))),
        ((1,), (0, 2), ((0, 0), (0, 3))),
        ((1,), (0, 2), ((0, 0), (2, 1))),
    ],
    ids=[
        "x-not-non-decreasing",
        "x-out-of-range",
        "wrong-component-count",
        "component-wrong-length",
        "component-out-of-range",
        "component-not-non-decreasing",
    ],
)
def test_operator_rejects_malformed_cell_data(src, x, comps):
    # into [2;0,2]; each input breaks exactly one condition on the values
    with pytest.raises(ThetaError):
        CellularOperator(shape(*src), shape(0, 2), x, comps)


def test_is_face_matches_faces_between():
    for a in shapes_upto(3):
        for b in shapes_upto(3):
            faces = set(faces_between(a, b))
            for f in cellular_ops(a, b):
                assert f.is_face() == (f in faces), f


def test_identity_and_composition_unit():
    for s in shapes_upto(3):
        i = identity_cellular(s)
        for t in shapes_upto(3):
            for f in cellular_ops(s, t):
                assert compose_cellular(i, f) == f
                assert compose_cellular(f, identity_cellular(t)) == f


def test_compose_componentwise_example():
    # [d^2;id] after the identity-like inclusion equals itself
    f = CellularOperator(shape(0,), shape(0, 2), (0, 1), ((0,),))
    i = identity_cellular(shape(0,))
    assert compose_cellular(i, f) == f


def test_associativity_small():
    shs = shapes_upto(2)
    for a, b, c, d in itertools.product(shs, repeat=4):
        for f in cellular_ops(a, b):
            for g in cellular_ops(b, c):
                for h in cellular_ops(c, d):
                    lhs = compose_cellular(compose_cellular(f, g), h)
                    rhs = compose_cellular(f, compose_cellular(g, h))
                    assert lhs == rhs


def test_classify_table_rows():
    t = shape(0, 2)
    dh0 = horizontal_face_0(t)
    c = classify_cellular(dh0)
    assert c["face"] and c["outer"] and c["horizontal"] and c["inert"]
    assert not c["vertical"]

    dh1 = horizontal_hyperface(t, 1, shuffles(0, 2)[0])
    c = classify_cellular(dh1)
    assert c["face"] and c["inner"] and c["horizontal"] and not c["inert"]

    dv21 = vertical_hyperface(t, 2, 1)
    c = classify_cellular(dv21)
    assert c["face"] and c["inner"] and c["vertical"] and not c["inert"]
    assert not c["horizontal"]


def test_codim():
    t = shape(1, 1)
    f = CellularOperator(shape(1,), t, (0, 2), ((0, 1), (0, 1)))
    assert codim(f) == 2
    assert codim(identity_cellular(t)) == 0
    assert codim(horizontal_face_0(shape(0, 2))) == 1
    degen = CellularOperator(shape(1,), shape(0,), (0, 1), ((0, 0),))
    with pytest.raises(ThetaError):
        codim(degen)


def test_hyperface_enumeration():
    t = shape(0, 2)
    hfs = hyperfaces(t)
    assert len(hfs) == 5
    labels = {str(lbl) for lbl, _ in hfs}
    assert labels == {
        "dh^0",
        "dh^{1;<{0,0,0},{0,1,2}>}",
        "dv^{2;0}",
        "dv^{2;1}",
        "dv^{2;2}",
    }
    assert all(codim(op) == 1 for _, op in hfs)

    assert [str(lbl) for lbl, _ in hyperfaces(shape(2,))] == [
        "dv^{1;0}",
        "dv^{1;1}",
        "dv^{1;2}",
    ]
    assert hyperfaces(shape()) == ()


def test_hyperface_count_formula():
    for s in shapes_upto(5):
        n = s.n
        expected = 0
        if n >= 1:
            expected += 1 if s.q(1) == 0 else 0
            expected += 1 if s.q(n) == 0 else 0
            expected += sum(
                len(shuffles(s.q(k), s.q(k + 1))) for k in range(1, n)
            )
            expected += sum(s.q(k) + 1 for k in range(1, n + 1) if s.q(k) >= 1)
        assert len(hyperfaces(s)) == expected


def test_faces_into_matches_jointly_monic_search():
    # the hyperface closure gives the search's faces, in the search's order
    for s in shapes_upto(6):
        search = tuple(f for src in shapes_upto(s.dim) for f in jointly_monic_faces(src, s))
        assert faces_into(s) == search, s


def test_hyperfaces_are_exactly_codim_one_faces():
    # oracle: enumerate all faces with dimension drop exactly 1
    for s in shapes_upto(4):
        brute = set()
        for src in shapes_upto(s.dim):
            if src.dim == s.dim - 1:
                brute.update(faces_between(src, s))
        assert brute == {op for _, op in hyperfaces(s)}


def test_hyperfaces_are_maximal_proper_faces():
    for s in shapes_upto(4):
        ops = [op for _, op in hyperfaces(s)]
        for f in ops:
            for g in ops:
                if f != g:
                    assert face_factors_through(f, g) is None
        # pairwise non-isomorphic over the slice: distinct operators suffice here
        assert len(set(ops)) == len(ops)


def test_every_positive_codim_face_factors_through_hyperface():
    for s in shapes_upto(4):
        hfs = [op for _, op in hyperfaces(s)]
        for f in faces_into(s):
            if codim(f) == 0:
                continue
            assert any(face_factors_through(f, h) is not None for h in hfs)


def test_outer_faces_factor_through_outer_hyperfaces():
    for s in shapes_upto(4):
        outer_hfs = [
            op for lbl, op in hyperfaces(s) if not lbl.is_inner(s)
        ]
        for f in faces_into(s):
            if codim(f) == 0 or f.is_inner():
                continue
            assert any(face_factors_through(f, h) is not None for h in outer_hfs)


def test_face_factors_through_examples():
    t = shape(0, 2)
    vertex0 = CellularOperator(shape(), t, (0,), ())
    dh2_face = CellularOperator(shape(0,), t, (0, 1), ((0,),))
    assert face_factors_through(vertex0, dh2_face) is not None
    f = horizontal_face_0(t)
    assert face_factors_through(f, f) == identity_cellular(f.src)


def test_face_factors_through_matches_search_oracle():
    # constructive division agrees with exhaustive search over candidate faces
    for s in shapes_upto(3):
        fs = faces_into(s)
        for f in fs:
            for g in fs:
                brute = [
                    h
                    for h in faces_between(f.src, g.src)
                    if compose_cellular(h, g) == f
                ]
                h = face_factors_through(f, g)
                if brute:
                    assert h == brute[0] and len(brute) == 1
                else:
                    assert h is None


def test_reedy_factor_trivial_cases():
    t = shape(1, 1)
    for _, op in hyperfaces(t):
        deg, face = reedy_factor(op)
        assert deg == identity_cellular(op.src)
        assert face == op
    for deg_op, _ in [e for s in shapes_upto(3) for e in elementary_degeneracies(s)]:
        d, f = reedy_factor(deg_op)
        assert f == identity_cellular(deg_op.dst)
        assert d == deg_op


def test_reedy_factor_example():
    f = CellularOperator(shape(0, 1), shape(1,), (0, 0, 1), ((0, 1),))
    deg, face = reedy_factor(f)
    assert compose_cellular(deg, face) == f
    assert face == identity_cellular(shape(1,))
    assert deg == f


def test_reedy_factor_unique_brute_force():
    shs = shapes_upto(3)
    for a in shs:
        for b in shs:
            for f in cellular_ops(a, b):
                splits = []
                for mid in shapes_upto(min(a.dim, b.dim)):
                    for d in degeneracies_between(a, mid):
                        for g in faces_between(mid, b):
                            if compose_cellular(d, g) == f:
                                splits.append((d, g))
                assert splits == [reedy_factor(f)]


def test_duality_involutions():
    shs = shapes_upto(3)
    for a in shs:
        for b in shs:
            for f in cellular_ops(a, b):
                assert co_dual(co_dual(f)) == f
                assert op_dual_theta(op_dual_theta(f)) == f


def _random_op(draw, max_dim=4):
    shs = shapes_upto(max_dim)
    a = draw(st.sampled_from(shs))
    b = draw(st.sampled_from(shs))
    return draw(st.sampled_from(cellular_ops(a, b)))


random_ops = st.composite(_random_op)()


@given(random_ops)
def test_reedy_factor_recomposes(f):
    deg, face = reedy_factor(f)
    assert compose_cellular(deg, face) == f
    assert deg.is_degeneracy() and face.is_face()


@given(random_ops)
def test_duals_commute_with_reedy_classes(f):
    # the dualities preserve the face/degeneracy taxonomy
    for dual in (co_dual, op_dual_theta):
        g = dual(f)
        assert g.is_face() == f.is_face()
        assert g.is_degeneracy() == f.is_degeneracy()
        assert g.is_inert() == f.is_inert()


def test_dualities_are_functors():
    shs = shapes_upto(2)
    for a, b, c in itertools.product(shs, repeat=3):
        for f in cellular_ops(a, b):
            for g in cellular_ops(b, c):
                fg = compose_cellular(f, g)
                assert co_dual(fg) == compose_cellular(co_dual(f), co_dual(g))
                assert op_dual_theta(fg) == compose_cellular(
                    op_dual_theta(f), op_dual_theta(g)
                )


def test_co_dual_fixes_example():
    t = shape(0, 2)
    dh1 = horizontal_hyperface(t, 1, shuffles(0, 2)[0])
    assert co_dual(dh1) == dh1


def test_op_dual_on_vertical_hyperface():
    # horizontal part reverses, components keep their own values
    f = vertical_hyperface(shape(0, 2), 2, 0)
    g = op_dual_theta(f)
    assert g.dst == shape(2, 0)
    assert g == vertical_hyperface(shape(2, 0), 1, 0)


def test_vertebrae():
    assert [str(v) for v in vertebrae(shape(0, 2))] == [
        "[{0,1};!]:[1;0]->[2;0,2]",
        "[{1,2};{0,1}]:[1;1]->[2;0,2]",
        "[{1,2};{1,2}]:[1;1]->[2;0,2]",
    ]
    assert vertebrae(shape(1,)) == (identity_cellular(shape(1,)),)
    assert [v.component_at(1) for v in vertebrae(shape(3,))] == [
        (0, 1),
        (1, 2),
        (2, 3),
    ]
    assert is_mono_vertebral(shape())
    assert is_mono_vertebral(shape(0,))
    assert is_mono_vertebral(shape(1,))
    assert not is_mono_vertebral(shape(2,))
    assert not is_mono_vertebral(shape(0, 0))


def test_outer_hyperface_order():
    assert [str(l) for l in outer_hyperface_order(shape(0, 2))] == [
        "dv^{2;0}",
        "dh^0",
        "dv^{2;2}",
    ]
    assert [str(l) for l in outer_hyperface_order(shape(0,))] == ["dh^0", "dh^1"]
    assert outer_hyperface_order(shape()) == ()
    # the chain lists exactly the outer hyperfaces
    for s in shapes_upto(5):
        chain = outer_hyperface_order(s)
        assert set(chain) == {lbl for lbl, _ in hyperfaces(s) if not lbl.is_inner(s)}


def test_elementary_degeneracy_sections():
    for s in shapes_upto(4):
        for deg, sec in elementary_degeneracies(s):
            assert deg.is_degeneracy()
            assert deg.dst.dim == s.dim - 1
            assert compose_cellular(sec, deg) == identity_cellular(deg.dst)


def test_inert_face_spine_pullback():
    # inert faces send vertebra indices into vertebra indices
    for s in shapes_upto(4):
        for f in faces_into(s):
            if not f.is_inert() or f.src.n == 0:
                continue
            for v in vertebrae(f.src):
                img = compose_cellular(v, f)
                assert any(
                    face_factors_through(img, w) is not None for w in vertebrae(s)
                )


_LABEL_SET_ORDER = """
from theta2.theta import ThetaShape, inner_hyperface_labels
for qs in ((0, 0, 0, 0, 0), (2, 2), (1, 0, 1)):
    print([str(lbl) for lbl in frozenset(inner_hyperface_labels(ThetaShape(qs)))])
"""


def test_label_sets_iterate_alike_in_every_process():
    # a label hashes no None, whose hash before Python 3.12 is its address
    env = {
        **os.environ,
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(Path(theta2.__file__).parents[1]),
    }
    runs = [
        subprocess.run(
            [sys.executable, "-c", _LABEL_SET_ORDER],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert len(runs[0].splitlines()) == 3
