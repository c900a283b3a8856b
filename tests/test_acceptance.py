"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything here is exact (combinatorial); the stated wall-clock budgets
are asserted.  Run with `pytest tests/test_acceptance.py -v -s` to see
the per-criterion lines.
"""

import itertools
import math
import time

import numpy as np
import pytest

from theta2.anodyne import (
    GluingStep,
    horiz_equiv,
    lift_check,
    oury_from_alt,
    replay,
    run_claims_suite,
    sigma_s,
    spine_anodyne,
    upsilon_full,
    upsilon_vertical,
    verify_gluing_square,
    vert_equiv,
    alt_trivial,
)
from theta2.anodyne.admissible import enumerate_admissible_sets
from theta2.boxprod import (
    boundary,
    boundary_leibniz,
    horn_h,
    horn_h_leibniz,
    horn_v,
    horn_v_leibniz,
    spine_subobject,
)
from theta2.cellset import Cell, Subobject, from_simplicial, representable
from theta2.delta import (
    all_operators,
    compose_simplicial,
    identity,
    shuffle_corners,
    shuffle_covers,
    shuffle_leq,
    shuffles,
)
from theta2.sset import J
from theta2.theta import (
    CellularOperator,
    HyperfaceLabel,
    ThetaShape,
    cellular_ops,
    codim,
    compose_cellular,
    degeneracies_between,
    face_factors_through,
    faces_between,
    faces_into,
    hyperfaces,
    identity_cellular,
    outer_hyperface_order,
    reedy_factor,
    shapes_upto,
    vertical_hyperface,
)
from theta2.twocat import free_cell_2cat, nerve

from oracles import box_cell_to_operator, box_representable, free_nerve_cell_to_operator


def report(num, name, t0, budget):
    dt = time.time() - t0
    print(f"\nACCEPT-{num:02d} {name}: PASS ({dt:.1f}s / budget {budget}s)")
    assert dt < budget, f"criterion {num} exceeded its time budget"


# -- 1. category laws -----------------------------------------------------------


def _ops_array(a, b):
    return np.array(
        list(itertools.combinations_with_replacement(range(b + 1), a + 1)),
        dtype=np.uint8,
    )


def _assoc_model_exhaustive(n_max, max_elems=3 * 10**7):
    """Vectorized triple check over all endpoints <= n_max; returns count."""
    checked = 0
    for b in range(n_max + 1):
        for c in range(n_max + 1):
            g_arr = _ops_array(b, c)
            idxg = np.arange(g_arr.shape[0])[:, None, None]
            for d in range(n_max + 1):
                h_arr = _ops_array(c, d)
                hg = h_arr[:, g_arr]
                for a in range(n_max + 1):
                    f_arr = _ops_array(a, b)
                    gf = g_arr[:, f_arr]
                    per_h = g_arr.shape[0] * f_arr.shape[0] * (a + 1)
                    chunk = max(1, max_elems // max(per_h, 1))
                    for lo in range(0, h_arr.shape[0], chunk):
                        lhs = hg[lo : lo + chunk][:, idxg, f_arr]
                        rhs = h_arr[lo : lo + chunk][:, gf]
                        assert np.array_equal(lhs, rhs)
                        checked += (lhs.shape[0]) * g_arr.shape[0] * f_arr.shape[0]
    return checked


def test_criterion_01_category_laws():
    t0 = time.time()
    # identity laws, exhaustive over all operators with endpoints <= 6
    for a in range(7):
        for b in range(7):
            for f in all_operators(a, b):
                assert compose_simplicial(identity(a), f) == f
                assert compose_simplicial(f, identity(b)) == f
    # associativity of the implementation, exhaustive with endpoints <= 3;
    # all pair composites are tabulated once, so a triple is two lookups
    pair = {}
    for a, b, c in itertools.product(range(4), repeat=3):
        for f in all_operators(a, b):
            for g in all_operators(b, c):
                pair[(f, g)] = compose_simplicial(f, g)
    for a, b, c, d in itertools.product(range(4), repeat=4):
        for f in all_operators(a, b):
            for g in all_operators(b, c):
                fg = pair[(f, g)]
                for h in all_operators(c, d):
                    assert pair[(fg, h)] == pair[(f, pair[(g, h)])]
    # the vectorized mirror agrees with the implementation on pairs <= 3 ...
    for a, b, c in itertools.product(range(4), repeat=3):
        g_arr = _ops_array(a, b)
        f_arr = _ops_array(b, c)
        table = f_arr[:, g_arr]  # [f, g] -> values of f o g
        fs = all_operators(b, c)
        gs = all_operators(a, b)
        for i, f in enumerate(fs):
            for j, g in enumerate(gs):
                assert compose_simplicial(g, f).values == tuple(table[i, j])
    # ... and its triple associativity is exhausted through endpoints <= 5
    checked = _assoc_model_exhaustive(5)
    assert checked == 613_453_093

    # cellular laws: identity and associativity, shapes of dimension <= 3
    shs = shapes_upto(3)
    for s in shs:
        i = identity_cellular(s)
        for t in shs:
            for f in cellular_ops(s, t):
                assert compose_cellular(i, f) == f
                assert compose_cellular(f, identity_cellular(t)) == f
    # the operators of each hom are numbered, and each pair's composite is
    # tabulated as its number in the composite's hom (a composite outside
    # that hom raises), so a triple is checked by list indexing
    ids = {(a, b): {f: i for i, f in enumerate(cellular_ops(a, b))} for a in shs for b in shs}
    ctable = {
        (a, b, c): [
            [ids[(a, c)][compose_cellular(f, g)] for g in cellular_ops(b, c)]
            for f in cellular_ops(a, b)
        ]
        for a, b, c in itertools.product(shs, repeat=3)
    }
    triples = 0
    for a, b, c, d in itertools.product(shs, repeat=4):
        f_g, g_h = ctable[(a, b, c)], ctable[(b, c, d)]
        fg_h, f_gh = ctable[(a, c, d)], ctable[(a, b, d)]
        for f, row in enumerate(f_g):
            for g, fg in enumerate(row):
                assert fg_h[fg] == [f_gh[f][gh] for gh in g_h[g]], (a, b, c, d, f, g)
                triples += len(g_h[g])
    assert triples == 4_164_023
    report(1, "category laws", t0, 60)


# -- 2. shuffle lattice ----------------------------------------------------------


def test_criterion_02_shuffle_lattice():
    t0 = time.time()
    for m in range(6):
        for n in range(6):
            assert len(shuffles(m, n)) == math.comb(m + n, m)
    # the square-grid lattice, nodes and cover edges as drawn
    nodes = [s.alpha.values for s in shuffles(2, 2)]
    assert nodes == [
        (0, 0, 0, 1, 2),
        (0, 0, 1, 1, 2),
        (0, 0, 1, 2, 2),
        (0, 1, 1, 1, 2),
        (0, 1, 1, 2, 2),
        (0, 1, 2, 2, 2),
    ]
    edges = {
        (s.alpha.values, t.alpha.values)
        for s in shuffles(2, 2)
        for t in shuffle_covers(s)[1]
    }
    assert edges == {
        ((0, 0, 0, 1, 2), (0, 0, 1, 1, 2)),
        ((0, 0, 1, 1, 2), (0, 0, 1, 2, 2)),
        ((0, 0, 1, 1, 2), (0, 1, 1, 1, 2)),
        ((0, 0, 1, 2, 2), (0, 1, 1, 2, 2)),
        ((0, 1, 1, 1, 2), (0, 1, 1, 2, 2)),
        ((0, 1, 1, 2, 2), (0, 1, 2, 2, 2)),
    }
    # covers from the order coincide with covers from the corners
    for m in range(5):
        for n in range(5):
            elems = shuffles(m, n)
            order_covers = set()
            for s in elems:
                for t in elems:
                    if s != t and shuffle_leq(s, t) and not any(
                        u != s and u != t and shuffle_leq(s, u) and shuffle_leq(u, t)
                        for u in elems
                    ):
                        order_covers.add((s, t))
            corner_covers = set()
            for s in elems:
                lower, upper = shuffle_corners(s)
                preds, succs = shuffle_covers(s)
                assert len(preds) == len(lower) and len(succs) == len(upper)
                corner_covers.update((p, s) for p in preds)
                corner_covers.update((s, t) for t in succs)
            assert order_covers == corner_covers
    report(2, "shuffle lattice", t0, 60)


# -- 3. unique Reedy factorization ------------------------------------------------


def test_criterion_03_ez_uniqueness():
    t0 = time.time()
    shs = shapes_upto(4)
    for a in shs:
        for b in shs:
            splits = {}
            for mid in shs:
                for d in degeneracies_between(a, mid):
                    for g in faces_between(mid, b):
                        splits.setdefault(compose_cellular(d, g), []).append((d, g))
            for f in cellular_ops(a, b):
                assert splits.get(f) == [reedy_factor(f)], f
    report(3, "unique degeneracy-face factorization", t0, 300)


# -- 4. hyperface propositions -----------------------------------------------------


def test_criterion_04_hyperface_props():
    t0 = time.time()
    for s in shapes_upto(5):
        hfs = hyperfaces(s)
        outer_hfs = [op for lbl, op in hfs if not lbl.is_inner(s)]
        all_hfs = [op for _, op in hfs]
        for f in faces_into(s):
            if codim(f) == 0:
                continue
            assert any(face_factors_through(f, h) is not None for h in all_hfs), f
            if not f.is_inner():
                assert any(
                    face_factors_through(f, h) is not None for h in outer_hfs
                ), f
    report(4, "hyperface factorization propositions", t0, 300)


# -- 5. boundary and horn coherence -------------------------------------------------


def _transport(inc, target_shape):
    return {
        sh: frozenset(
            box_cell_to_operator(inc.codomain, Cell(sh, c), target_shape)
            for c in cells
        )
        for sh, cells in inc.domain.nd.items()
    }


def test_criterion_05_boundary_horn_coherence():
    t0 = time.time()
    for s in shapes_upto(5):
        assert _transport(boundary_leibniz(s), s) == dict(boundary(s).domain.nd)
        # the hyperface-closure identification is an inner-horn statement:
        # at outer k the box with an empty fiber keeps the uncovered cells
        for k in range(1, s.n):
            assert _transport(horn_h_leibniz(s, k), s) == dict(
                horn_h(s, k).domain.nd
            ), (s, k)
        for k in range(1, s.n + 1):
            for i in range(1, s.q(k)):
                assert _transport(horn_v_leibniz(s, k, i), s) == dict(
                    horn_v(s, k, i).domain.nd
                ), (s, k, i)
    # a face lies outside the k-th horizontal horn iff it is a k-th
    # horizontal face (horizontal: every component epi)
    for s in shapes_upto(5):
        for k in range(1, s.n):
            horn = horn_h(s, k).domain
            dk = tuple(v for v in range(s.n + 1) if v != k)
            for f in faces_into(s):
                if codim(f) == 0:
                    continue
                is_kth = f.horizontal.values == dk and f.is_horizontal()
                assert horn.contains(Cell(f.src, f)) == (not is_kth), (s, k, f)
    # in particular the codimension-2 face of the double globe chain
    s = ThetaShape((1, 1))
    missing = CellularOperator(ThetaShape((1,)), s, (0, 2), ((0, 1), (0, 1)))
    assert codim(missing) == 2
    assert not horn_h(s, 1).domain.contains(Cell(missing.src, missing))
    report(5, "leibniz boundaries and horns match closures", t0, 300)


# -- 6. box and nerve against the representable --------------------------------------


def test_criterion_06_box_and_nerve():
    t0 = time.time()
    from theta2.theta import elementary_degeneracies

    bound = 6
    into = {sh: [op for _, op in hyperfaces(sh)] for sh in shapes_upto(bound)}
    for upper in shapes_upto(bound):
        for deg, _ in elementary_degeneracies(upper):
            into[deg.dst].append(deg)
    for s in shapes_upto(4):
        b = box_representable(s, bound)
        r = representable(s, bound)
        n = nerve(free_cell_2cat(s), bound)
        for sh in shapes_upto(bound):
            ops = sorted(box_cell_to_operator(b, Cell(sh, c), s) for c in b.cells(sh))
            assert ops == sorted(r.cells(sh)), (s, sh)
            nops = sorted(
                free_nerve_cell_to_operator(s, Cell(sh, c)) for c in n.cells(sh)
            )
            assert nops == sorted(r.cells(sh)), (s, sh)
        # the bijections commute with the generating operators (hyperfaces
        # and elementary degeneracies) on the nondegenerate cells
        for sh in shapes_upto(4):
            for c in b.nd_cells(sh):
                op = box_cell_to_operator(b, Cell(sh, c), s)
                for g in into[sh]:
                    moved = b.act(Cell(sh, c), g)
                    assert box_cell_to_operator(b, moved, s) == compose_cellular(g, op)
            for c in n.nd_cells(sh):
                op = free_nerve_cell_to_operator(s, Cell(sh, c))
                for g in into[sh]:
                    moved = n.act(Cell(sh, c), g)
                    assert free_nerve_cell_to_operator(s, moved) == compose_cellular(
                        g, op
                    )
    report(6, "box product and nerve realize the representables", t0, 600)


# -- 7. claims oracle suite ------------------------------------------------------------


def test_criterion_07_claims_suite():
    t0 = time.time()
    rep = run_claims_suite(max_n=3, max_q=2)
    assert rep["ok"], rep["failures"][:5]
    assert rep["total"] >= 1200
    report(7, f"claims oracle suite ({rep['total']} checks)", t0, 600)


# -- 8. replay certificates -------------------------------------------------------------


def _vertical_index_sets(shape):
    out = []
    for k in range(1, shape.n + 1):
        inner = range(1, shape.q(k))
        for r in range(1, len(inner) + 1):
            for combo in itertools.combinations(inner, r):
                out.append(
                    frozenset(
                        HyperfaceLabel(HyperfaceLabel.V, k=k, i=i) for i in combo
                    )
                )
    return out


def _upward_closed_shuffle_sets(shape):
    out = []
    for k in range(1, shape.n):
        pool = shuffles(shape.q(k), shape.q(k + 1))
        for r in range(1, len(pool) + 1):
            for combo in itertools.combinations(pool, r):
                if all(
                    (t in combo) or not shuffle_leq(s, t)
                    for s in combo
                    for t in pool
                ):
                    out.append(
                        (
                            k,
                            frozenset(
                                HyperfaceLabel(HyperfaceLabel.HK, k=k, shuffle=s)
                                for s in combo
                            ),
                        )
                    )
    return out


def _alt_trivial_params(shape):
    out = []
    for k in range(1, shape.n):
        pool = shuffles(shape.q(k), shape.q(k + 1))
        for base in pool:
            up = [s for s in pool if shuffle_leq(base, s)]
            for r in range(1, len(up) + 1):
                for combo in itertools.combinations(up, r):
                    if all(
                        (t in combo) or not shuffle_leq(t, s)
                        for s in combo
                        for t in up
                    ):
                        out.append((k, base, frozenset(combo)))
    return out


def test_criterion_08_replay_certificates():
    t0 = time.time()
    squares = 0
    for s in shapes_upto(4):
        rep = replay(spine_anodyne(s))
        assert rep["ok"], ("spine", s)
        squares += len(rep["steps"])
        chain = outer_hyperface_order(s)
        from theta2.theta import is_mono_vertebral

        for r in range(len(chain) + 1):
            rep = replay(sigma_s(s, chain[:r]))
            assert rep["ok"], ("sigma", s, r)
            # the predicted loci are downward closed with |T| <= |S'|;
            # mono-vertebral shapes break the count (one pullback closure
            # can hit two endpoint labels) while every square still holds
            if not is_mono_vertebral(s):
                assert not rep["notes"], ("sigma", s, r, rep["notes"])
            squares += len(rep["steps"])
        for labels in enumerate_admissible_sets(s):
            if any(l.variant != HyperfaceLabel.V for l in labels):
                continue
            rep = replay(upsilon_vertical(s, labels))
            assert rep["ok"], ("upsilon-v", s, sorted(map(str, labels)))
            assert not rep["notes"]
            squares += len(rep["steps"])
        for labels in enumerate_admissible_sets(s):
            rep = replay(upsilon_full(s, labels))
            assert rep["ok"], ("upsilon-full", s, sorted(map(str, labels)))
            # every predicted locus set is admissible
            assert not rep["notes"]
            squares += len(rep["steps"])
        for labels in _vertical_index_sets(s):
            rep = replay(oury_from_alt(s, labels))
            assert rep["ok"], ("oury-v", s, sorted(map(str, labels)))
            squares += len(rep["steps"])
        for _, labels in _upward_closed_shuffle_sets(s):
            rep = replay(oury_from_alt(s, labels))
            assert rep["ok"], ("oury-h", s, sorted(map(str, labels)))
            squares += len(rep["steps"])
        for k, base, i_set in _alt_trivial_params(s):
            rep = replay(alt_trivial(s, k, base, i_set))
            assert rep["ok"], ("alt-trivial", s, k, str(base))
            squares += len(rep["steps"])
    report(8, f"replay certificates ({squares} squares)", t0, 600)


# -- 9. truncated interval replays ---------------------------------------------------------


def test_criterion_09_interval_replays():
    t0 = time.time()
    params = [
        ((0,), 1, 5),
        ((0, 0), 1, 5),
        ((0, 0), 2, 5),
        ((0, 1), 1, 5),
        ((0, 2), 1, 5),
    ]
    for qs, k, bound in params:
        rep = replay(vert_equiv(ThetaShape(qs), k, bound))
        assert rep["ok"], ("vert-equiv", qs, k)
        assert rep["final"]["certified_dim"] == bound - 1
        tail = [
            st
            for st in rep["steps"]
            + [x for f in rep.get("forks", {}).values() for x in f["steps"]]
            if st.get("uncertified_tail") or st.get("margin_only")
        ]
        if qs in ((0, 1), (0, 2)):
            assert tail, "expected an explicitly reported uncertified tail"
    for qs, bound in [((0,), 4), ((1,), 4), ((0, 0), 4)]:
        rep = replay(horiz_equiv(ThetaShape(qs), bound))
        assert rep["ok"], ("horiz-equiv", qs)
        assert rep["final"]["certified_dim"] == bound - 1
    report(9, "truncated interval replays", t0, 600)


# -- 10. lifting and engineered failures ------------------------------------------------------


def test_criterion_10_lifting_and_mutations():
    t0 = time.time()
    # the interval fills every inner horn within the bound; the middle-horn
    # map count is the chaotic-composition oracle (one map per vertex tuple)
    rep = lift_check(from_simplicial(J, 4), "inner", 4)
    assert rep["unfilled"] == 0
    inst = next(
        r
        for r in rep["instances"]
        if r["shape"] == "[2;0,0]" and r["horn"]["family"] == "horn-h"
    )
    assert inst["maps"] == 2**3

    # engineered failure: pullback check
    s = ThetaShape((3,))
    amb = representable(s)
    top = vertical_hyperface(s, 1, 3)
    good = GluingStep(
        ambient=amb,
        before=spine_subobject(s),
        expected_w=spine_subobject(top.src),
        cell=Cell(top.src, top),
        label="good",
    )
    rep_good, _ = verify_gluing_square(good)
    assert rep_good["ok"]
    mutated = {sh: set(v) for sh, v in spine_subobject(top.src).nd.items()}
    victim = max(mutated, key=lambda sh: sh.dim)
    mutated[victim].pop()
    bad = GluingStep(
        ambient=amb,
        before=spine_subobject(s),
        expected_w=Subobject(representable(top.src), mutated),
        cell=Cell(top.src, top),
        label="bad",
    )
    rep_bad, _ = verify_gluing_square(bad)
    assert not rep_bad["checks"]["pullback"]

    # engineered failure: injectivity check (a folded, degenerate attachment)
    fold = CellularOperator(ThetaShape((1,)), ThetaShape((1,)), (0, 1), ((0, 0),))
    amb1 = representable(ThetaShape((1,)))
    rep_fold, _ = verify_gluing_square(
        GluingStep(
            ambient=amb1,
            before=Subobject.empty(amb1),
            expected_w=Subobject.empty(representable(ThetaShape((1,)))),
            cell=Cell(ThetaShape((1,)), fold),
            label="fold",
        )
    )
    assert not rep_fold["checks"]["injective"]

    # engineered failure: final-union check (a dropped generator / step)
    script = spine_anodyne(ThetaShape((2,)))
    script.steps = script.steps[:-1]
    rep_missing = replay(script)
    assert not rep_missing["ok"]
    assert not rep_missing["final"]["equals_target"]

    # engineered failure: lifting reports unfilled horns for a boundary-only set
    from theta2.boxprod import boundary as _boundary

    s2 = ThetaShape((2,))
    bd = _boundary(s2).domain
    amb2 = representable(s2, 4)

    class BoundaryOnly:
        bound = 4

        def cells(self, sh):
            return tuple(p for p in amb2.cells(sh) if bd.contains(Cell(sh, p)))

        def act(self, cell, op):
            return amb2.act(cell, op)

        def nd_decompose(self, cell):
            return amb2.nd_decompose(cell)

        def is_nondegenerate(self, cell):
            return amb2.is_nondegenerate(cell)

    rep_bd = lift_check(BoundaryOnly(), "inner-v", 4)
    assert rep_bd["unfilled"] > 0
    report(10, "lifting smoke tests and engineered failures", t0, 300)


# -- 11. the known vert_equiv failures, pinned -------------------------------------------------

# (shape, k): the cases of dim <= 6 whose vert_equiv replay fails at bound 3
# (ROADMAP item 1).  The test pins how they fail; a mend changes it on purpose.
_VERT_EQUIV_FAILURES = [
    ((0, 0, 2), 1),
    ((0, 0, 3), 1),
    ((0, 0, 1, 1), 1),
    ((0, 0, 2, 0), 1),
    ((0, 0, 0, 2), 1),
    ((0, 0, 0, 2), 2),
    ((2, 0, 0), 3),
    ((3, 0, 0), 3),
    ((0, 2, 0, 0), 4),
    ((1, 1, 0, 0), 4),
    ((2, 0, 0, 0), 4),
]


def _step_passes(st):
    # margin-only steps carry no checks
    return all(st.get("checks", {}).values())


def test_criterion_11_vert_equiv_failures_pinned():
    t0 = time.time()
    for qs, k in _VERT_EQUIV_FAILURES:
        rep = replay(vert_equiv(ThetaShape(qs), k, 3))
        case = (qs, k)
        assert not rep["ok"], case
        assert all(_step_passes(st) for st in rep["steps"]), case
        fork_steps = [(name, st) for name, f in rep["forks"].items() for st in f["steps"]]
        failing = [(name, st) for name, st in fork_steps if not _step_passes(st)]
        assert len(failing) == 1, case
        name, st = failing[0]
        assert (name, st["index"], st["label"]) == (
            "psi",
            0,
            "glue the lower extension along its own domain",
        ), case
        assert st["checks"] == {"pullback": False, "injective": True, "cover": False}, case
        assert rep["forks"]["psi"]["final"]["equals_target"], case
    report(11, f"vert_equiv failures pinned ({len(_VERT_EQUIV_FAILURES)} cases)", t0, 60)
