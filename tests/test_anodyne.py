import pytest

from theta2.anodyne import (
    GluingStep,
    scripts,
    is_admissible,
    lift_check,
    pullback_hyperface,
    replay,
    sigma_s,
    spine_anodyne,
    upsilon_full,
    upsilon_vertical,
    oury_from_alt,
    alt_trivial,
    vert_equiv,
    horiz_equiv,
    verify_gluing_square,
)
from theta2.anodyne.admissible import enumerate_admissible_sets
from theta2.anodyne.claims import label_closure
from theta2.anodyne.lifting import _family_instances
from theta2.boxprod import boundary, horn_v, spine_subobject, sigma_subobject
from theta2.cellset import Cell, Subobject, from_simplicial, representable
from theta2.delta import shuffles
from theta2.grammar import parse_hyperface_label, parse_shuffle
from theta2.sset import J
from theta2.theta import (
    CellularOperator,
    HyperfaceLabel,
    ThetaError,
    ThetaShape,
    faces_into,
    hyperface_operator,
    hyperfaces,
    inner_hyperface_labels,
    outer_hyperface_order,
    shapes_upto,
    vertical_hyperface,
)
from theta2.twocat import chaotic_2cat, free_cell_2cat, nerve, suspension_of_chaotic

from oracles import reference_square


def shape(*qs):
    return ThetaShape(qs)


def V(k, i):
    return HyperfaceLabel(HyperfaceLabel.V, k=k, i=i)


def H(k, s):
    return HyperfaceLabel(HyperfaceLabel.HK, k=k, shuffle=s)


# -- admissibility -----------------------------------------------------------


def test_admissible_empty():
    assert is_admissible(shape(2,), [])[0]


def test_admissible_rejects_all_inner():
    s = shape(2,)
    assert not is_admissible(s, [V(1, 1)])[0]  # the only inner hyperface


def test_admissible_mixed():
    s = shape(1, 1)
    lo, hi = shuffles(1, 1)
    ok, k_s = is_admissible(s, [H(1, lo)])
    assert ok and k_s == 1
    ok, k_s = is_admissible(s, [H(1, hi)])
    assert not ok  # upward singleton is not downward closed
    ok, k_s = is_admissible(s, [H(1, lo), H(1, hi)])
    assert not ok  # that is every inner hyperface of [2;1,1]


def test_admissible_requires_inner():
    with pytest.raises(ThetaError):
        is_admissible(shape(2,), [V(1, 0)])


def test_admissible_single_partial_level():
    s = shape(1, 1, 1)
    lo1, hi1 = shuffles(1, 1)
    ok, k_s = is_admissible(s, [H(1, lo1), H(2, lo1)])
    assert not ok  # two partial levels
    ok, k_s = is_admissible(s, [H(1, lo1), H(1, hi1), H(2, lo1)])
    assert ok and k_s == 2


# -- gluing squares -----------------------------------------------------------


def _spine_step(q):
    s = shape(q,)
    amb = representable(s)
    top = vertical_hyperface(s, 1, q)
    return GluingStep(
        ambient=amb,
        before=spine_subobject(s),
        expected_w=spine_subobject(top.src),
        cell=Cell(top.src, top),
        label="test",
    )


def test_gluing_square_spine_example():
    report, after = verify_gluing_square(_spine_step(3))
    assert report["ok"]
    assert after.nd_count() > spine_subobject(shape(3,)).nd_count()


def test_gluing_square_noop_attachment():
    s = shape(1,)
    amb = representable(s)
    full = Subobject.full(amb)
    step = GluingStep(
        ambient=amb,
        before=full,
        expected_w=Subobject.full(representable(s)),
        cell=amb.top_cell(),
        label="noop",
    )
    report, after = verify_gluing_square(step)
    assert report["trivial"]
    assert report["ok"]
    assert after.same_cells(full)


def test_gluing_square_wrong_w_fails():
    step = _spine_step(3)
    # drop one generator from the expected attachment locus
    wrong = {s: set(v) for s, v in step.expected_w.nd.items()}
    victim = max(wrong, key=lambda s: s.dim)
    wrong[victim] = set(list(wrong[victim])[1:])
    step.expected_w = Subobject(step.expected_w.ambient, wrong)
    report, _ = verify_gluing_square(step)
    assert not report["checks"]["pullback"]
    assert not report["ok"]


def test_gluing_square_oversized_w_fails():
    step = _spine_step(3)
    step.expected_w = Subobject.full(representable(shape(2,)))
    report, _ = verify_gluing_square(step)
    assert not report["checks"]["pullback"]


def test_gluing_square_injectivity_fails_on_folded_map():
    # a degenerate attachment: the cell collapses two faces together
    s = shape(1,)
    amb = representable(s)
    from theta2.theta import CellularOperator

    fold = CellularOperator(s, s, (0, 1), ((0, 0),))
    cell = Cell(s, fold)  # a degenerate cell of the representable
    step = GluingStep(
        ambient=amb,
        before=Subobject.empty(amb),
        expected_w=Subobject.empty(representable(s)),
        cell=cell,
        label="fold",
    )
    report, _ = verify_gluing_square(step)
    assert not report["checks"]["injective"]


def test_gluing_square_cover_fails_on_unnatural_map():
    # the edge of [1;0] goes to {0,2} but its last vertex to 1: the locus and
    # injectivity hold, yet the attachment adds vertex 2, the image of no cell
    from theta2.theta import CellularOperator

    target = shape(0, 0)
    amb = representable(target)
    source = representable(shape(0,))
    image_of = {(0,): (0,), (1,): (1,), (0, 1): (0, 2)}

    def map_fn(cell):
        values = image_of[cell.payload.x]
        comps = tuple((0,) for _ in range(values[-1] - values[0]))
        return Cell(cell.shape, CellularOperator(cell.shape, target, values, comps))

    step = GluingStep(
        ambient=amb,
        before=Subobject.empty(amb),
        expected_w=Subobject.empty(source),
        source=source,
        map_fn=map_fn,
        label="unnatural",
    )
    report, _ = verify_gluing_square(step)
    assert report["checks"]["pullback"]
    assert report["checks"]["injective"]
    assert not report["checks"]["cover"]
    assert not report["ok"]


def test_gluing_square_maps_each_source_cell_once():
    import dataclasses

    script = vert_equiv(shape(0, 0), 1, 3)
    calls = {}

    def counted(idx, map_fn):
        def wrapped(cell):
            calls[idx, cell] = calls.get((idx, cell), 0) + 1
            return map_fn(cell)

        return wrapped

    map_steps = []
    for steps in [script.steps] + [fork.steps for fork in script.forks]:
        for i, step in enumerate(steps):
            if getattr(step, "source", None) is not None:
                steps[i] = dataclasses.replace(step, map_fn=counted(len(map_steps), step.map_fn))
                map_steps.append(step)
    assert map_steps
    assert replay(script)["ok"]
    for idx, step in enumerate(map_steps):
        nd = [Cell(s, c) for s in step.source.shapes() for c in step.source.nd_cells(s)]
        assert {cell: calls.get((idx, cell)) for cell in nd} == dict.fromkeys(nd, 1)


# -- the square path against the where/contains reference ---------------------


def _engineered_steps():
    """One step per injectivity violation, by the message's first words."""
    edge = shape(0,)
    amb = representable(edge)
    # each vertex of [1;0] goes to itself, the edge to the degenerate edge at 0
    image_of = {(0,): (0,), (1,): (1,), (0, 1): (0, 0)}

    def map_fn(cell):
        values = image_of[cell.payload.x]
        comps = tuple((0,) for _ in range(values[-1] - values[0]))
        return Cell(cell.shape, CellularOperator(cell.shape, edge, values, comps))

    square = representable(shape(1,))
    fold = CellularOperator(shape(1,), shape(1,), (0, 1), ((0, 0),))
    return {
        "degenerate image": GluingStep(
            ambient=amb,
            before=Subobject.empty(amb),
            expected_w=Subobject.empty(amb),
            source=amb,
            map_fn=map_fn,
            label="degenerate edge",
        ),
        "collision": GluingStep(
            ambient=square,
            before=Subobject.empty(square),
            expected_w=Subobject.empty(square),
            cell=Cell(shape(1,), fold),
            label="fold",
        ),
        "already present": GluingStep(
            ambient=amb,
            before=Subobject.full(amb),
            expected_w=Subobject.empty(amb),
            cell=amb.top_cell(),
            label="empty locus into a full subobject",
        ),
    }


@pytest.mark.parametrize(
    "kind, message",
    [
        ("degenerate image", "degenerate image of [{0,1};!]:[1;0]->[1;0]"),
        ("collision", "collision [{0,1};{1}]:[1;0]->[1;1] vs [{0,1};{0}]:[1;0]->[1;1]"),
        ("already present", "image of outside cell [{0};]:[0]->[1;0] already present"),
    ],
)
def test_gluing_square_names_injectivity_violation(kind, message):
    report, _ = verify_gluing_square(_engineered_steps()[kind])
    assert not report["checks"]["injective"] and not report["ok"]
    assert report["violations"] == [message]


def test_gluing_square_rejects_image_above_bound():
    # the top cell of [1;1] lies above the bound of its bound-1 representable
    amb = representable(shape(1,), 1)
    step = GluingStep(
        ambient=amb,
        before=Subobject.empty(amb),
        expected_w=Subobject.empty(representable(shape(1,))),
        cell=amb.top_cell(),
        label="above the bound",
    )
    with pytest.raises(ThetaError):
        verify_gluing_square(step)


def _assert_matches_reference(step):
    report, after = verify_gluing_square(step)
    ref_report, ref_after = reference_square(step)
    assert report == ref_report, step.label
    assert after.ambient is ref_after.ambient and after.mask == ref_after.mask, step.label
    return report, after


def _differential_scripts(family):
    shapes = shapes_upto(4)
    if family == "spine_anodyne":
        return [spine_anodyne(s) for s in shapes]
    if family == "sigma_s":
        return [
            sigma_s(s, outer_hyperface_order(s)[:r])
            for s in shapes
            for r in range(len(outer_hyperface_order(s)) + 1)
        ]
    if family == "upsilon_full":
        return [upsilon_full(s, labels) for s in shapes for labels in enumerate_admissible_sets(s)]
    return [
        vert_equiv(shape(0, 0), 1, 3),
        vert_equiv(shape(0, 1), 1, 3),
        horiz_equiv(shape(0,), 3),
    ]


@pytest.mark.parametrize("family", ["spine_anodyne", "sigma_s", "upsilon_full", "equiv"])
def test_gluing_square_matches_reference_on_replays(family, monkeypatch):
    # every square a replay checks, against the where/contains path it replaced
    steps = []

    def checked(step):
        steps.append(step)
        return _assert_matches_reference(step)

    monkeypatch.setattr(scripts, "verify_gluing_square", checked)
    for script in _differential_scripts(family):
        assert replay(script)["ok"]
    assert steps
    if family == "equiv":
        # the edge step of both vert_equiv replays and the face_map step of [2;0,0]
        assert sum(step.cell is None for step in steps) == 3


def test_gluing_square_matches_reference_on_engineered_steps():
    for step in _engineered_steps().values():
        assert not _assert_matches_reference(step)[0]["ok"]


# -- pullback oracles ----------------------------------------------------------


def test_pullback_vertical_cases():
    # pullback of dv^(l;0) along dv^(k;0), l < k, is dv^(l;0) of the source
    s = shape(1, 1)
    pb = pullback_hyperface(s, V(1, 0), V(2, 0))
    src = vertical_hyperface(s, 2, 0).src
    assert pb.same_cells(label_closure(src, V(1, 0)))


def test_pullback_case_4b_point():
    # pullback of dv^(1;0) along dv^(1;1) on [2;1,1]: generated by the
    # leading horizontal hyperface of the source and the initial point
    from theta2.anodyne.claims import face_closure
    from theta2.theta import CellularOperator, horizontal_face_0

    s = shape(1, 1)
    pb = pullback_hyperface(s, V(1, 0), V(1, 1))
    src = vertical_hyperface(s, 1, 1).src
    point = CellularOperator(shape(), src, (0,), ())
    want = face_closure(src, [horizontal_face_0(src), point])
    assert pb.same_cells(want)


def test_pullback_singleton_preimage():
    s = shape(2, 1)
    shf = next(
        x for x in shuffles(2, 1) if x.alpha.values == (0, 1, 2, 2)
    )
    pb = pullback_hyperface(s, V(1, 1), H(1, shf))
    src = hyperface_operator(s, H(1, shf)).src
    assert pb.same_cells(label_closure(src, V(1, 1)))


# -- replays -------------------------------------------------------------------


def test_spine_anodyne_trivial_cases():
    for qs in [(), (0,), (1,)]:
        rep = replay(spine_anodyne(shape(*qs)))
        assert rep["trivial"] and rep["ok"]


@pytest.mark.parametrize("qs", [(2,), (3,), (0, 0), (1, 1), (0, 2), (0, 0, 0)])
def test_spine_anodyne(qs):
    rep = replay(spine_anodyne(shape(*qs)))
    assert rep["ok"], rep


def test_sigma_s_all_prefixes():
    for qs in [(2,), (1, 1), (0, 2)]:
        s = shape(*qs)
        chain = outer_hyperface_order(s)
        for r in range(len(chain) + 1):
            rep = replay(sigma_s(s, chain[:r]))
            assert rep["ok"], (s, r)


def test_sigma_s_rejects_non_prefix():
    s = shape(0, 2)
    chain = outer_hyperface_order(s)
    with pytest.raises(ThetaError):
        sigma_s(s, chain[1:2])


def test_upsilon_vertical():
    s = shape(3,)
    for labels in enumerate_admissible_sets(s):
        if any(l.variant != HyperfaceLabel.V for l in labels):
            continue
        rep = replay(upsilon_vertical(s, labels))
        assert rep["ok"], sorted(map(str, labels))


def test_upsilon_full_small():
    for qs in [(1, 1), (0, 2)]:
        s = shape(*qs)
        for labels in enumerate_admissible_sets(s):
            rep = replay(upsilon_full(s, labels))
            assert rep["ok"], (s, sorted(map(str, labels)))


def test_upsilon_rejects_inadmissible():
    s = shape(2,)
    with pytest.raises(ThetaError):
        upsilon_vertical(s, [V(1, 1)])


def test_oury_from_alt_vertical():
    s = shape(3,)
    for i_set in [{1}, {2}, {1, 2}]:
        rep = replay(oury_from_alt(s, {V(1, i) for i in i_set}))
        assert rep["ok"], i_set


def test_oury_from_alt_horizontal():
    s = shape(1, 1)
    lo, hi = shuffles(1, 1)
    for labels in [{H(1, hi)}, {H(1, lo), H(1, hi)}]:
        rep = replay(oury_from_alt(s, labels))
        assert rep["ok"], sorted(map(str, labels))


def test_oury_from_alt_rejects_downward_only():
    s = shape(1, 1)
    lo, hi = shuffles(1, 1)
    with pytest.raises(ThetaError):
        oury_from_alt(s, {H(1, lo)})  # not upward closed


def test_alt_trivial():
    s = shape(1, 1)
    lo, hi = shuffles(1, 1)
    rep = replay(alt_trivial(s, 1, lo, {lo}))
    assert rep["ok"]
    rep = replay(alt_trivial(s, 1, hi, {hi}))
    assert rep["ok"]


def test_alt_trivial_rejects_bad_index_set():
    s = shape(1, 1)
    lo, hi = shuffles(1, 1)
    with pytest.raises(ThetaError):
        alt_trivial(s, 1, lo, {hi})  # not downward closed in the up-set
    with pytest.raises(ThetaError):
        alt_trivial(s, 1, lo, set())


def _upsilon_case(qs, texts):
    s = shape(*qs)
    return lambda: upsilon_full(s, {parse_hyperface_label(t, s) for t in texts})


def _alt_case(qs, k, base):
    shf = parse_shuffle(base)
    return lambda: alt_trivial(shape(*qs), k, shf, {shf})


@pytest.mark.parametrize(
    "build",
    [
        _upsilon_case((4,), ["dv^{1;1}", "dv^{1;2}"]),
        _upsilon_case((1, 1, 0), ["dh^{1;<{0,0,1},{0,1,1}>}", "dh^{2;<{0,1},{0,0}>}"]),
        _upsilon_case((2, 0, 0), ["dh^{2;<{0},{0}>}", "dv^{1;1}"]),
        _upsilon_case((0, 0, 2), ["dh^{1;<{0},{0}>}", "dv^{3;1}"]),
        _alt_case((0, 1, 1), 2, "<{0,0,1},{0,1,1}>"),
        _alt_case((1, 2), 1, "<{0,0,0,1},{0,1,2,2}>"),
        _alt_case((2, 2), 1, "<{0,1,1,1,2},{0,0,1,2,2}>"),
        _alt_case((2, 1, 1), 2, "<{0,0,1},{0,1,1}>"),
    ],
    ids=[
        "several-verticals",
        "T1-upper-level",
        "T3-below-k",
        "T3-above-k+1",
        "alt-base",
        "alt-upper-corners",
        "alt-agreeing-lower-corners",
        "alt-other-hom-verticals",
    ],
)
def test_predicted_locus_branches(build):
    # each case runs a branch of the predicted loci that no other test runs
    rep = replay(build())
    assert rep["ok"] and rep["notes"] == []


def test_vert_equiv_base_case():
    rep = replay(vert_equiv(shape(0,), 1, 3))
    assert rep["ok"]
    assert rep["forks"]["psi"]["final"]["equals_target"]


def test_vert_equiv_branch_b():
    rep = replay(vert_equiv(shape(0, 0), 1, 3))
    assert rep["ok"]


def test_vert_equiv_dual_parameter():
    rep = replay(vert_equiv(shape(0, 0), 2, 3))
    assert rep["ok"]
    assert rep["params"].get("via_op_dual")


def test_vert_equiv_branch_a_small():
    rep = replay(vert_equiv(shape(0, 1), 1, 4))
    assert rep["ok"]


def test_vert_equiv_middle_slot_three_objects():
    # a middle-hom extension exercises the pushout branch with a genuinely
    # smaller extension as its attachment source
    rep = replay(vert_equiv(shape(0, 0, 0), 2, 4))
    assert rep["ok"]


def test_vert_equiv_rejects_positive_hom():
    with pytest.raises(ThetaError):
        vert_equiv(shape(1,), 1, 3)


def test_horiz_equiv_small():
    rep = replay(horiz_equiv(shape(0,), 3))
    assert rep["ok"]


def test_horiz_equiv_rejects_terminal():
    with pytest.raises(ThetaError):
        horiz_equiv(shape(), 3)


@pytest.mark.parametrize("bound", [-1, 0])
def test_equiv_replays_reject_bound_below_1(bound):
    # such a bound would certify cells below dimension 0, which is nothing
    with pytest.raises(ThetaError, match="bound >= 1"):
        vert_equiv(shape(0, 0), 1, bound)
    with pytest.raises(ThetaError, match="bound >= 1"):
        horiz_equiv(shape(0,), bound)


def test_horiz_equiv_cut_index_well_defined():
    # every nondegenerate cell outside the domain but without the terminal
    # filled vertex has a unique index where the interval part drops
    from theta2.boxprod import boundary, equiv_horiz
    from theta2.sset import DIAMOND, FILLED

    s = shape(1,)
    inc = equiv_horiz(s, 3)
    amb = inc.codomain
    for sh in amb.shapes():
        for c in amb.nd_cells(sh):
            u, f = c
            if inc.domain.contains(Cell(sh, c)):
                continue
            if any(
                u[v] == FILLED and f.horizontal.values[v] == s.n
                for v in range(len(u))
            ):
                continue
            ks = [
                k
                for k in range(1, len(u))
                if u[k - 1] == FILLED and all(x == DIAMOND for x in u[k:])
            ]
            assert len(ks) == 1, (sh, c)


def test_replay_report_schema():
    rep = replay(spine_anodyne(shape(1, 1)))
    assert set(rep) >= {"script", "params", "bound", "steps", "final", "ok"}
    assert set(rep["final"]) == {"equals_target", "certified_dim"}
    for st in rep["steps"]:
        assert {"index", "cell", "shape", "horn", "checks"} <= set(st)
        assert set(st["checks"]) == {"pullback", "cover", "injective"}
    horn_steps = [st for st in rep["steps"] if st["horn"]]
    assert horn_steps
    assert {"family", "k", "shape"} <= set(horn_steps[0]["horn"])
    # reports serialize to JSON as-is
    import json

    json.dumps(rep)


# sha256 of each report's sorted-key JSON; a change to any step's order,
# label, horn metadata, margin flags, notes or verdict changes the digest
GOLDEN_REPORTS = {
    "spine": "42f9f02c6ad06c9f1ab2fec499135171091671fe1deb24c17fb5952374aceece",
    "sigma": "884fc8e949963a506b0f0ffc3d304640e06af66cc7499b5b70f87051f8063be9",
    "upsilon-vertical": "5a2c44f0c5175bdaeaf7af2cbe5db66c3e14ec5ff04ea8d10255eb3d95ba1a89",
    "upsilon-full": "9a4eecc14a44a5730ea126eed517dc070dc89388181cd89316435fbd62896517",
    "oury-vertical": "096c98df7adca5aad4beb58658207bb5e0d5520c77feddd4de83d80a2e1a3b47",
    "oury-horizontal": "d83d0c000ab5a451c29c7d3b417dde4fdbc2ac7f72d18cb7138444c355d6f8f3",
    "alt-trivial": "e9c352732528e4f095adf10ada5fbedbecbb2056d8157b420949c43a2b62ad71",
    "vert-equiv": "bc615d28ac0ae97f0372031d5e40c5ffdb55e4bacf9a4ba1eb538f76432aa61d",
    "vert-equiv-face-map": "8c597f8167e13aef65424931e220a649719254c7f9bbe6584c346cc4c507ea4c",
    "horiz-equiv": "048e4754fafc1983ae491fbcc1f4874d0cb3fd5954ec2148af20d03931434e73",
}


def _golden_script(name):
    lo, hi = shuffles(1, 1)
    if name == "spine":
        return spine_anodyne(shape(1, 1, 0))
    if name == "sigma":
        return sigma_s(shape(1, 1), outer_hyperface_order(shape(1, 1)))
    if name == "upsilon-vertical":
        return upsilon_vertical(shape(3,), {V(1, 2)})
    if name == "upsilon-full":
        sets = enumerate_admissible_sets(shape(1, 2))
        return upsilon_full(shape(1, 2), next(l for l in sets if len(l) == 3 and V(2, 1) in l))
    if name == "oury-vertical":
        return oury_from_alt(shape(3,), {V(1, 1), V(1, 2)})
    if name == "oury-horizontal":
        return oury_from_alt(shape(1, 1), {H(1, lo), H(1, hi)})
    if name == "alt-trivial":
        return alt_trivial(shape(1, 1), 1, lo, {lo})
    if name == "vert-equiv":
        return vert_equiv(shape(0, 1), 1, 4)
    if name == "vert-equiv-face-map":
        # the psi fork attaches the lower extension by a map with a bound
        return vert_equiv(shape(0, 0), 1, 4)
    return horiz_equiv(shape(1,), 3)


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_replay_report_golden(name):
    import hashlib
    import json

    rep = replay(_golden_script(name))
    assert rep["ok"]
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_REPORTS[name]


def test_replay_deterministic():
    import json

    a = replay(spine_anodyne(shape(1, 1)))
    b = replay(spine_anodyne(shape(1, 1)))
    assert json.dumps(a, sort_keys=True, default=str) == json.dumps(
        b, sort_keys=True, default=str
    )


def test_replay_detects_corrupted_step():
    # shrink one step's expected locus: the replay must fail
    script = spine_anodyne(shape(3,))
    bad = script.steps[-1]
    assert bad.horn is not None
    corrupted = bad.expected_w.intersection(spine_subobject(shape(3,)))
    assert not corrupted.same_cells(bad.expected_w)
    bad.expected_w = corrupted
    rep = replay(script)
    assert not rep["ok"]


def test_replay_detects_missing_step():
    script = spine_anodyne(shape(2,))
    assert script.steps
    script.steps = script.steps[:-1]
    rep = replay(script)
    assert not rep["ok"]
    assert not rep["final"]["equals_target"]


@pytest.mark.parametrize(
    "build, later, check",
    [
        (lambda: vert_equiv(shape(0, 1), 1, 4), "stage 3 glue", "stage 2 content"),
        (lambda: vert_equiv(shape(0, 0, 0), 2, 4), "stage 2 glue", "stage 1 content"),
        (lambda: horiz_equiv(shape(1,), 3), "stage 2 glue", "stage 1 content"),
    ],
    ids=["vert-[2;0,1]", "vert-[3;0,0,0]", "horiz-[1;1]"],
)
def test_replay_stage_check_fails_on_early_step(build, later, check):
    # glue a later stage's first cell before an earlier stage's content
    # check: the check must fail by name and abort the replay
    script = build()
    steps = script.steps
    at = next(i for i, st in enumerate(steps) if st.label == check)
    moved = next(i for i, st in enumerate(steps) if st.label.startswith(later))
    steps.insert(at, steps.pop(moved))
    rep = replay(script)
    assert not rep["ok"]
    last = rep["steps"][-1]
    assert last["label"] == check
    assert last["checks"] == {"stage": False}
    assert last["aborted"]


# -- lifting -------------------------------------------------------------------


def test_lift_interval_fills_inner_horns():
    rep = lift_check(from_simplicial(J, 4), "inner", 4)
    assert rep["unfilled"] == 0
    assert any(r["maps"] for r in rep["instances"])


def test_lift_composable_pairs_oracle():
    # maps from the middle horizontal horn of the 2-simplex shape into the
    # nerve of the poset count composable pairs, and each has a filler
    target = representable(shape(0, 0, 0), 3)
    rep = lift_check(target, "inner-h", 3)
    inst = next(
        r
        for r in rep["instances"]
        if r["shape"] == "[2;0,0]" and r["horn"]["k"] == 1
    )
    pairs = sum(
        1
        for a in range(4)
        for b in range(a, 4)
        for c in range(b, 4)
    )
    assert inst["maps"] == pairs
    assert inst["filled"] == inst["maps"]


class BoundaryOnly:
    """The boundary of the walking 2-cell as a standalone cellular set."""

    bound = 4

    def __init__(self):
        self.amb = representable(shape(2,), 4)
        self.bd = boundary(shape(2,)).domain

    def cells(self, sh):
        return tuple(p for p in self.amb.cells(sh) if self.bd.contains(Cell(sh, p)))

    def act(self, cell, op):
        return self.amb.act(cell, op)


def test_lift_reports_missing_fillers():
    # the boundary of the walking 2-cell has an unfillable inner vertical horn
    rep = lift_check(BoundaryOnly(), "inner-v", 4)
    inst = next(r for r in rep["instances"] if r["shape"] == "[1;2]")
    assert inst["maps"] > 0
    assert inst["missing"]


def test_compare_generating_sets_agree():
    from theta2.anodyne import compare_generating_sets

    rep = compare_generating_sets(from_simplicial(J, 3), 3)
    assert rep["agree"] and rep["oury_fills"]
    rep = compare_generating_sets(nerve(free_cell_2cat(shape(0, 0)), 3), 3)
    assert rep["agree"] and rep["oury_fills"]


class Counting:
    """A target proxy counting ``act`` calls and recording enumerated levels."""

    def __init__(self, target):
        self.target = target
        self.bound = target.bound
        self.acts = 0
        self.levels = set()

    def cells(self, sh):
        self.levels.add(sh)
        return self.target.cells(sh)

    def act(self, cell, op):
        self.acts += 1
        return self.target.act(cell, op)


def _brute_lift_check(target, family, bound):
    """Reference search: every candidate cell against every proper face."""
    instances = []
    for sh, tag, inc in _family_instances(family, bound - 1):
        amb = inc.domain.ambient
        maps = [{}]
        for cell in sorted(inc.domain.iter_nd(), key=lambda c: (c.shape.dim, c.shape, c.payload)):
            constraints = [
                (g, *amb.nd_decompose(amb.act(cell, g)))
                for g in faces_into(cell.shape)
                if g.src != cell.shape  # the only face of a shape onto itself is the identity
            ]
            maps = [
                {**a, cell: Cell(cell.shape, c)}
                for a in maps
                for c in target.cells(cell.shape)
                if all(
                    target.act(Cell(cell.shape, c), g) == target.act(a[sub], deg)
                    for g, sub, deg in constraints
                )
            ]
            if not maps:
                break
        missing = [
            sorted(str(img.payload) for img in a.values())
            for a in maps
            if not any(
                all(target.act(Cell(sh, z), c.payload) == img for c, img in a.items())
                for z in target.cells(sh)
            )
        ]
        instances.append(
            {
                "shape": str(sh),
                "horn": tag,
                "maps": len(maps),
                "filled": len(maps) - len(missing),
                "missing": missing,
            }
        )
    return {
        "family": family,
        "bound": bound,
        "instances": instances,
        "unfilled": sum(len(r["missing"]) for r in instances),
    }


_LIFT_TARGETS = {
    "J": lambda b: from_simplicial(J, b),
    "suspension": lambda b: nerve(suspension_of_chaotic(), b),
    "chaotic": lambda b: nerve(chaotic_2cat(), b),
    "free[1;1]": lambda b: nerve(free_cell_2cat(shape(1, 1)), b),
}


@pytest.mark.parametrize("bound", [2, 3])
@pytest.mark.parametrize("family", ["inner", "alt-h"])
@pytest.mark.parametrize("name", sorted(_LIFT_TARGETS))
def test_lift_matches_face_by_face_search(name, family, bound):
    fast = Counting(_LIFT_TARGETS[name](bound))
    brute = Counting(_LIFT_TARGETS[name](bound))
    assert lift_check(fast, family, bound) == _brute_lift_check(brute, family, bound)
    assert fast.levels <= brute.levels


def test_lift_matches_face_by_face_search_on_boundary_only():
    rep = lift_check(BoundaryOnly(), "inner-v", 4)
    assert rep == _brute_lift_check(BoundaryOnly(), "inner-v", 4)
    assert rep["unfilled"] > 0


@pytest.mark.parametrize(
    "make",
    [
        lambda: from_simplicial(J, 4),
        lambda: nerve(chaotic_2cat(), 4),
        lambda: nerve(free_cell_2cat(shape(1, 1)), 4),
    ],
    ids=["J", "chaotic", "free[1;1]"],
)
def test_lift_acts_once_per_cell_and_hyperface(make):
    # each target cell meets each hyperface of its shape once, in its
    # boundary table; the search itself makes no act call
    target = Counting(make())
    rep = lift_check(target, "inner", 4)
    assert rep["unfilled"] == 0
    budget = sum(len(target.target.cells(s)) * len(hyperfaces(s)) for s in target.levels)
    assert 0 < target.acts <= budget


def test_lift_vacuous_family_at_low_bound():
    # the vertical inner horn lives at dim 3, so a bound of 2 asks nothing
    rep = lift_check(from_simplicial(J, 2), "inner-v", 2)
    assert all(r["shape"] != "[1;2]" for r in rep["instances"])
    assert rep["unfilled"] == 0
