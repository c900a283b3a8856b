"""Replay scripts: each one re-enacts a gluing decomposition step by step.

A script fixes an ambient cellular set, an initial subobject, an ordered
list of attachments with their predicted attachment loci, and a target.
The runner executes the list, verifies every square, and compares the
final union against the target up to the certified dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable, Optional

from ..boxprod import (
    BoxCellSet,
    equiv_horiz,
    equiv_vert,
    face_closure,
    horn,
    lambda_subobject,
    sigma_subobject,
    slot_component,
    spine_subobject,
    theta_corner,
    upsilon_subobject,
    theta_corner_contains,
)
from ..cellset import Cell, Subobject, representable
from ..delta import shuffle_corners, shuffle_leq, shuffles
from ..sset import DIAMOND, FILLED, J, standard_simplex
from ..theta import (
    HyperfaceLabel,
    ThetaError,
    ThetaShape,
    faces_into,
    hlabel,
    horizontal_face_0,
    horizontal_face_n,
    hyperface_operator,
    identity_cellular,
    inner_hyperface_labels,
    interval_index,
    is_mono_vertebral,
    op_dual_shape,
    outer_hyperface_order,
    vertical_hyperface,
    vlabel,
)
from .admissible import is_admissible, is_downward_closed, shuffle_slice
from .gluing import GluingStep, verify_gluing_square


@dataclass
class StageCheck:
    """A check on the running subobject; ``check_fn`` returns (ok, detail)."""

    label: str
    check_fn: Callable


@dataclass
class Fork:
    name: str
    steps: list
    target: Subobject
    certified_dim: int


@dataclass
class ReplayScript:
    name: str
    params: dict
    ambient: object
    initial: Subobject
    steps: list
    target: Optional[Subobject]
    certified_dim: int
    forks: list = field(default_factory=list)
    trivial: bool = False
    notes: list = field(default_factory=list)


def _run_steps(ambient, y, steps, out_steps):
    """Run the step list, aborting at the first failed certified check."""
    for idx, step in enumerate(steps):
        if isinstance(step, StageCheck):
            good, detail = step.check_fn(y)
            out_steps.append(
                {
                    "index": idx,
                    "cell": None,
                    "shape": None,
                    "horn": None,
                    "checks": {"stage": bool(good)},
                    "label": step.label,
                    "detail": detail,
                }
            )
            if not good:
                out_steps[-1]["aborted"] = True
                return False, y
            continue
        step = replace(step, ambient=ambient, before=y)
        # how far a cell step's dimension exceeds its truncation bound
        excess = -1
        if step.cell is not None and step.bound is not None:
            excess = step.cell.shape.dim - step.bound
        if excess > 0:
            y = y.union(Subobject.generated(ambient, [step.cell]))
            out_steps.append(
                {"index": idx, "label": step.label, "margin_only": True}
            )
            continue
        report, y = verify_gluing_square(step)
        report["index"] = idx
        tail = excess == 0
        if tail:
            report["uncertified_tail"] = True
        out_steps.append(report)
        if not tail and not report["ok"]:
            report["aborted"] = True
            return False, y
    return True, y


def replay(script):
    """Execute a script; returns a machine-readable report."""
    report = {
        "script": script.name,
        "params": script.params,
        "bound": script.ambient.bound if script.ambient is not None else None,
        "trivial": script.trivial,
        "steps": [],
        "notes": list(script.notes),
    }
    ok, y = _run_steps(script.ambient, script.initial, script.steps, report["steps"])

    if script.forks:
        report["forks"] = {}
        for fork in script.forks:
            fsteps = []
            if ok:
                fok, fy = _run_steps(script.ambient, y, fork.steps, fsteps)
                equals = fy.equals_up_to(fork.target, fork.certified_dim)
            else:
                fok, equals = False, False
            report["forks"][fork.name] = {
                "steps": fsteps,
                "final": {
                    "equals_target": equals,
                    "certified_dim": fork.certified_dim,
                },
            }
            ok = ok and fok and equals
        report["final"] = {"equals_target": ok, "certified_dim": script.certified_dim}
    else:
        equals = y.equals_up_to(script.target, script.certified_dim)
        report["final"] = {
            "equals_target": equals,
            "certified_dim": script.certified_dim,
        }
        ok = ok and equals
    report["ok"] = ok
    return report


# -- helpers ------------------------------------------------------------------


def _face_step(label, op, expected_w):
    """Glue the face ``op`` of the ambient representable along ``expected_w``."""
    return GluingStep(label=label, cell=Cell(op.src, op), expected_w=expected_w)


def _horn_step(label, cell, k, i=None, shf=None, bound=None):
    """Glue ``cell`` along the horn ``boxprod.horn(cell.shape, k, i, shf)``.

    ``bound`` is the step's truncation bound: the runner glues a cell at the
    bound as an uncertified tail and a cell above it as a margin attachment,
    which carries no locus.
    """
    shape = cell.shape
    if bound is not None and shape.dim > bound:
        return GluingStep(label=label, cell=cell, expected_w=None, bound=bound)
    tag, inc = horn(shape, k, i=i, shf=shf)
    tag["shape"] = str(shape)
    return GluingStep(label=label, cell=cell, expected_w=inc.domain, horn=tag, bound=bound)


def _horn_stage(ambient, stage, stage_of, bound, key=None):
    """One horn step per nondegenerate cell that ``stage_of`` glues at ``stage``.

    ``stage_of(payload)`` is a script's stage classifier: the first stage
    that holds the cell, and the ``_horn_step`` horn index, ``(k,)`` or
    ``(k, i)``, of a cell glued at that stage (None otherwise).  Cells are
    glued in ``key`` order (dimension, shape, payload by default).
    """

    def glued(cell):
        at, horn = stage_of(cell.payload)
        return at == stage and horn is not None

    cells = sorted(
        Subobject.where(ambient, glued).iter_nd(),
        key=key or (lambda cell: (cell.shape.dim, cell.shape, cell.payload)),
    )
    return [
        _horn_step(
            f"stage {stage} glue {cell.payload}",
            cell,
            *stage_of(cell.payload)[1],
            bound=bound,
        )
        for cell in cells
    ]


# -- spine decomposition -------------------------------------------------------


def spine_anodyne(shape):
    """Stagewise decomposition of the spine inclusion into horn gluings."""
    params = {"shape": str(shape)}
    if is_mono_vertebral(shape):
        amb = representable(shape)
        return ReplayScript(
            name="spine_anodyne",
            params=params,
            ambient=amb,
            initial=Subobject.full(amb),
            steps=[],
            target=Subobject.full(amb),
            certified_dim=shape.dim,
            trivial=True,
            notes=["mono-vertebral shape: spine inclusion is the identity"],
        )
    amb = representable(shape)
    steps = []
    n = shape.n
    if n == 1:
        q = shape.q(1)
        top = vertical_hyperface(shape, 1, q)
        bottom = vertical_hyperface(shape, 1, 0)
        steps.append(
            _face_step("glue dv^{1;q} along lower spine", top, spine_subobject(top.src))
        )
        steps.append(
            _face_step(
                "glue dv^{1;0} along dagger stage",
                bottom,
                sigma_subobject(bottom.src, frozenset([vlabel(1, q - 1)])),
            )
        )
        for f in faces_into(shape):
            if f.comps and {0, 1, q} <= set(f.comps[0]):
                label = f"glue [id;{f.components[0].short()}] along horn-v^(1;1)"
                steps.append(_horn_step(label, Cell(f.src, f), 1, i=1))
    else:
        dh_n = horizontal_face_n(shape)
        dh_0 = horizontal_face_0(shape)
        prime = spine_subobject(dh_0.src).union(
            face_closure(dh_0.src, [horizontal_face_n(dh_0.src)])
        )
        steps.append(
            _face_step("glue dh^n face along lower spine", dh_n, spine_subobject(dh_n.src))
        )
        steps.append(_face_step("glue dh^0 face along primed stage", dh_0, prime))
        for f in faces_into(shape):
            if {0, 1, n} <= set(f.x):
                steps.append(_horn_step(f"glue {f} along horn-h^1", Cell(f.src, f), 1))
    return ReplayScript(
        name="spine_anodyne",
        params=params,
        ambient=amb,
        initial=spine_subobject(shape),
        steps=steps,
        target=Subobject.full(amb),
        certified_dim=shape.dim,
    )


# -- outer-hyperface stage -----------------------------------------------------


def _sigma_case_t(shape, label):
    """The predicted locus for attaching one outer hyperface to a sigma stage.

    Returns (source shape, T labels) following the outer case analysis.
    """
    n = shape.n
    op = hyperface_operator(shape, label)
    src = op.src

    def p(l):
        return src.q(l)

    if label.variant == HyperfaceLabel.V and label.i == 0:
        k = label.k
        t = {vlabel(l, 0) for l in range(1, k) if p(l) >= 1}
    elif label.variant == HyperfaceLabel.V:
        # dv^{k;q_k}: its source has p_k = q_k - 1.  The cases q_k = 1 need
        # no branch of their own: p_k = 0 drops dv^{k;0} by the condition
        # p_l >= 1, and adds dh^0 when k = 1 or dh^n when k = n by the
        # conditions on p_1 and p_n
        k = label.k
        t = {vlabel(l, 0) for l in range(1, n + 1) if p(l) >= 1}
        t |= {vlabel(l, p(l)) for l in range(1, k) if p(l) >= 1}
        if p(1) == 0:
            t.add(HyperfaceLabel(HyperfaceLabel.H0))
        if p(n) == 0:
            t.add(HyperfaceLabel(HyperfaceLabel.HN, k=n))
    else:
        t = {vlabel(l, 0) for l in range(1, src.n + 1) if p(l) >= 1}
        if label.variant == HyperfaceLabel.HN and src.n >= 1 and p(1) == 0:
            t.add(HyperfaceLabel(HyperfaceLabel.H0))
    return src, frozenset(t)


def sigma_s(shape, labels):
    """Attach a downward-closed set of outer hyperfaces onto the spine."""
    chain = outer_hyperface_order(shape)
    labels = list(labels)
    if labels != list(chain[: len(labels)]):
        raise ThetaError("sigma_s needs a downward-closed prefix of the outer order")
    amb = representable(shape)
    steps = []
    notes = []
    for idx, label in enumerate(labels):
        src, t = _sigma_case_t(shape, label)
        order = outer_hyperface_order(src)
        positions = [order.index(l) for l in t]
        if sorted(positions) != list(range(len(t))):
            notes.append(f"T at {label} is not downward closed")
        if len(t) > idx:
            notes.append(f"|T| > |S'| at {label}")
        op = hyperface_operator(shape, label)
        steps.append(_face_step(f"glue outer {label}", op, sigma_subobject(src, t)))
    return ReplayScript(
        name="sigma_s",
        params={"shape": str(shape), "labels": [str(l) for l in labels]},
        ambient=amb,
        initial=spine_subobject(shape),
        steps=steps,
        target=sigma_subobject(shape, frozenset(labels)),
        certified_dim=shape.dim,
        notes=notes,
    )


# -- inner-hyperface stages ----------------------------------------------------


def upsilon_vertical(shape, labels):
    """Attach admissible inner vertical hyperfaces onto the outer stage."""
    labels = set(labels)
    if any(l.variant != HyperfaceLabel.V for l in labels):
        raise ThetaError("upsilon_vertical expects vertical labels only")
    script = upsilon_full(shape, labels)
    script.name = "upsilon_vertical"
    script.params["labels"] = [str(l) for l in sorted(labels, key=lambda l: (l.k, l.i))]
    return script


def _singleton_preimages(k, shf, at_k, at_k1):
    """The labels (k; j) with j the only preimage of an index of ``at_k``
    under the shuffle's alpha, or of an index of ``at_k1`` under alpha'."""
    t = set()
    for values, indices in ((shf.alpha.values, at_k), (shf.alpha_prime.values, at_k1)):
        for i in indices:
            pre = [j for j, v in enumerate(values) if v == i]
            if len(pre) == 1:
                t.add(vlabel(k, pre[0]))
    return t


def _horizontal_stage_t(shape, k, shf, stage_labels):
    """The seven-piece locus for attaching one horizontal hyperface.

    ``stage_labels`` is the stage set including the current face.
    """
    n = shape.n
    src = hyperface_operator(shape, hlabel(k, shf)).src
    before = set(stage_labels) - {hlabel(k, shf)}
    t = set()
    # T1: fully-attached lower horizontal levels transfer wholesale
    for ell in range(1, k):
        if shuffle_slice(stage_labels, ell) == set(shuffles(shape.q(ell), shape.q(ell + 1))):
            for g in shuffles(src.q(ell), src.q(ell + 1)):
                t.add(hlabel(ell, g))
    for ell in range(k + 1, n):
        if shuffle_slice(stage_labels, ell) == set(shuffles(shape.q(ell), shape.q(ell + 1))):
            for g in shuffles(src.q(ell - 1), src.q(ell)):
                t.add(hlabel(ell - 1, g))
    # T2: lower corners of the attached shuffle
    lower, _ = shuffle_corners(shf)
    for j in lower:
        t.add(vlabel(k, j))
    # T3 and its shift
    verticals = [lbl for lbl in before if lbl.variant == HyperfaceLabel.V]
    for lbl in verticals:
        if lbl.k < k:
            t.add(vlabel(lbl.k, lbl.i))
        elif lbl.k > k + 1:
            t.add(vlabel(lbl.k - 1, lbl.i))
    # T4/T4': singleton preimages of attached verticals at k and k+1
    t |= _singleton_preimages(
        k,
        shf,
        [lbl.i for lbl in verticals if lbl.k == k],
        [lbl.i for lbl in verticals if lbl.k == k + 1],
    )
    return src, frozenset(t)


def _horizontal_attach_order(shape, labels):
    """Groups of horizontal labels: full levels ascending, partial level last."""
    horiz = [l for l in labels if l.variant == HyperfaceLabel.HK]
    ks = sorted({l.k for l in horiz})
    partial = []
    full = []
    for k in ks:
        sl = shuffle_slice(horiz, k)
        if sl == set(shuffles(shape.q(k), shape.q(k + 1))):
            full.append(k)
        else:
            partial.append(k)
    order = []
    for k in full + partial:
        group = sorted(
            (l for l in horiz if l.k == k), key=lambda l: l.shuffle.alpha.values
        )
        order.extend(group)
    return order


def upsilon_full(shape, labels):
    """Attach an admissible mixed set of inner hyperfaces onto the outer stage."""
    labels = set(labels)
    ok, _ = is_admissible(shape, labels)
    if not ok:
        raise ThetaError(f"set is not admissible for {shape}")
    amb = representable(shape)
    verticals = sorted(
        (l for l in labels if l.variant == HyperfaceLabel.V), key=lambda l: (l.k, l.i)
    )
    horizontals = _horizontal_attach_order(shape, labels)
    steps = []
    notes = []
    attached = []
    for label in verticals:
        op = hyperface_operator(shape, label)
        # verticals attach in (k, i) order: an earlier label at hom k has a
        # smaller i, so like one at another hom it keeps its index in op.src
        t = frozenset(attached)
        t_ok, _ = is_admissible(op.src, t)
        if not t_ok:
            notes.append(f"T at {label} is not admissible")
        if len(t) != len(attached):
            notes.append(f"|T| != |S'| at {label}")
        steps.append(
            _face_step(f"glue inner vertical {label}", op, upsilon_subobject(op.src, t))
        )
        attached.append(label)
    for label in horizontals:
        stage = set(attached) | {label}
        src, t = _horizontal_stage_t(shape, label.k, label.shuffle, stage)
        t_ok, _ = is_admissible(src, t)
        if not t_ok:
            notes.append(f"T at {label} is not admissible")
        op = hyperface_operator(shape, label)
        steps.append(
            _face_step(f"glue inner horizontal {label}", op, upsilon_subobject(src, t))
        )
        attached.append(label)
    return ReplayScript(
        name="upsilon_full",
        params={"shape": str(shape), "labels": sorted(str(l) for l in labels)},
        ambient=amb,
        initial=upsilon_subobject(shape, frozenset()),
        steps=steps,
        target=upsilon_subobject(shape, frozenset(labels)),
        certified_dim=shape.dim,
        notes=notes,
    )


# -- alternative horns ---------------------------------------------------------


def oury_from_alt(shape, labels):
    """Decompose a multi-hyperface horn into elementary (alternative) horns."""
    labels = set(labels)
    if not labels:
        raise ThetaError("oury_from_alt needs a non-empty excluded set")
    variants = {l.variant for l in labels}
    amb = representable(shape)
    top_cell = Cell(shape, identity_cellular(shape))
    steps = []
    notes = []
    if variants == {HyperfaceLabel.V}:
        ks = {l.k for l in labels}
        if len(ks) != 1:
            raise ThetaError("vertical excluded set must sit at a single hom")
        k = ks.pop()
        remaining = sorted(l.i for l in labels)
        for l in labels:
            if not 1 <= l.i <= shape.q(k) - 1:
                raise ThetaError("excluded verticals must be inner")
        while len(remaining) >= 2:
            i = remaining[-1]
            op = hyperface_operator(shape, vlabel(k, i))
            t = {vlabel(k, j) for j in remaining if j < i}
            t |= {vlabel(k, j - 1) for j in remaining if j > i}
            steps.append(
                _face_step(f"glue dv^({k};{i})", op, lambda_subobject(op.src, frozenset(t)))
            )
            remaining = remaining[:-1]
        i0 = remaining[0]
        steps.append(
            _horn_step(f"fill elementary horn-v^({k};{i0})", top_cell, k, i=i0)
        )
    elif variants == {HyperfaceLabel.HK}:
        ks = {l.k for l in labels}
        if len(ks) != 1:
            raise ThetaError("horizontal excluded set must sit at a single level")
        k = ks.pop()
        shfs = {l.shuffle for l in labels}
        pool = shuffles(shape.q(k), shape.q(k + 1))
        if not is_downward_closed(shfs, pool, leq=lambda a, b: shuffle_leq(b, a)):
            raise ThetaError("horizontal excluded set must be upward closed")
        remaining = sorted(shfs, key=lambda s: s.alpha.values)
        while len(remaining) >= 2:
            shf = remaining[0]
            op = hyperface_operator(shape, hlabel(k, shf))
            _, upper = shuffle_corners(shf)
            t = {vlabel(k, j) for j in upper}
            steps.append(
                _face_step(f"glue dh^({k};{shf})", op, lambda_subobject(op.src, frozenset(t)))
            )
            remaining = remaining[1:]
        last = remaining[0]
        steps.append(
            _horn_step(f"fill elementary alt horn at {last}", top_cell, k, shf=last)
        )
    else:
        raise ThetaError("excluded set must be all-vertical or all-horizontal")
    return ReplayScript(
        name="oury_from_alt",
        params={"shape": str(shape), "labels": sorted(str(l) for l in labels)},
        ambient=amb,
        initial=lambda_subobject(shape, frozenset(labels)),
        steps=steps,
        target=Subobject.full(amb),
        certified_dim=shape.dim,
        notes=notes,
    )


def _alt_stage_t(shape, k, base, shf):
    """The six-piece locus for the upward-closed alternative-horn lemma."""
    src = hyperface_operator(shape, hlabel(k, shf)).src
    t = set()
    for ell in range(1, src.n):
        for g in shuffles(src.q(ell), src.q(ell + 1)):
            t.add(hlabel(ell, g))
    lower, upper = shuffle_corners(shf)
    for j in upper:
        t.add(vlabel(k, j))
    for m in range(1, src.n + 1):
        if m == k:
            continue
        for j in range(1, src.q(m)):
            t.add(vlabel(m, j))
    t |= _singleton_preimages(k, shf, range(1, shape.q(k)), range(1, shape.q(k + 1)))
    for j in lower:
        if shf.alpha.values[j] == base.alpha.values[j]:
            t.add(vlabel(k, j))
    return src, frozenset(t)


def alt_trivial(shape, k, base_shf, i_set):
    """Upward-closed alternative-horn decomposition above a fixed shuffle."""
    if not 1 <= k <= shape.n - 1:
        raise ThetaError(f"horizontal hyperface index {k} out of range for {shape}")
    pool = shuffles(shape.q(k), shape.q(k + 1))
    up = [s for s in pool if shuffle_leq(base_shf, s)]
    i_set = set(i_set)
    if not i_set or not i_set <= set(up):
        raise ThetaError("index set must be a non-empty subset of the up-set")
    if not is_downward_closed(i_set, up):
        raise ThetaError("index set must be downward closed in the up-set")
    amb = representable(shape)
    all_labels = frozenset(hlabel(k, s) for s in up)
    stilde = frozenset(
        l for l in inner_hyperface_labels(shape) if l not in all_labels
    )

    def base_check(y):
        want = upsilon_subobject(shape, stilde)
        return y.same_cells(want), "lambda over the up-set equals the upsilon form"

    steps = [StageCheck("base identity", base_check)]
    notes = []
    to_attach = sorted(
        (s for s in up if s not in i_set), key=lambda s: s.alpha.values, reverse=True
    )
    for shf in to_attach:
        src, t = _alt_stage_t(shape, k, base_shf, shf)
        t_ok, _ = is_admissible(src, t)
        if not t_ok:
            notes.append(f"T at {shf} is not admissible")
        op = hyperface_operator(shape, hlabel(k, shf))
        steps.append(_face_step(f"glue dh^({k};{shf})", op, upsilon_subobject(src, t)))
    return ReplayScript(
        name="alt_trivial",
        params={
            "shape": str(shape),
            "k": k,
            "base": str(base_shf),
            "i_set": sorted(str(s) for s in i_set),
        },
        ambient=amb,
        initial=lambda_subobject(shape, all_labels),
        steps=steps,
        target=lambda_subobject(shape, frozenset(hlabel(k, s) for s in i_set)),
        certified_dim=shape.dim,
        notes=notes,
    )


# -- vertical equivalence extensions -------------------------------------------


def _surjective_comp(y, q):
    return y is not None and set(y) == set(range(q + 1))


def _check_equiv_bound(bound):
    # the replay certifies cells of dim < bound, so a bound below 1 certifies nothing
    if bound < 1:
        raise ThetaError(f"an equivalence-extension replay needs bound >= 1, got {bound}")


def vert_equiv(shape, k, bound):
    """Stagewise replay of the vertical equivalence extension."""
    _check_equiv_bound(bound)
    n = shape.n
    if not (1 <= k <= n and shape.q(k) == 0):
        raise ThetaError(f"vertical extension needs q_{k} = 0 in {shape}")
    params = {"shape": str(shape), "k": k, "bound": bound}
    if n == 1:
        psi, phi, _ = equiv_vert(shape, 1, bound)
        corner = theta_corner(phi, 1)

        def corner_check(y):
            return psi.same_cells(corner), "domain is the representable corner"

        return ReplayScript(
            name="vert_equiv",
            params=params,
            ambient=phi,
            initial=corner,
            steps=[StageCheck("interval base case", corner_check)],
            target=None,
            certified_dim=bound - 1,
            forks=[Fork(name="psi", steps=[], target=psi, certified_dim=bound - 1)],
            notes=["base case: the whole inclusion is the elementary extension"],
        )
    if k == n:
        dual = vert_equiv(op_dual_shape(shape), 1, bound)
        dual.params = params | {"via_op_dual": True}
        dual.notes.append("replayed on the reversed shape via the 1-cell duality")
        return dual

    # cells up to bound-1 certify; the two extra levels exist only so that
    # their closures cover the certified region (deep parents)
    work = bound + 2
    psi, phi, _ = equiv_vert(shape, k, work)
    corner = theta_corner(phi, k)
    # the base values of the identity and of the k-th face of [n]
    id_vals = tuple(range(n + 1))
    delta_vals = tuple(v for v in range(n + 1) if v != k)

    edge = BoxCellSet(standard_simplex(1), [J], work)

    def edge_map(cell):
        x, comps = cell.payload
        nx = tuple(v + k - 1 for v in x)
        return Cell(cell.shape, (nx, comps))

    steps = [
        GluingStep(
            label="glue the interval edge at hom k",
            source=edge,
            map_fn=edge_map,
            expected_w=theta_corner(edge, 1),
        )
    ]

    def stage4_horn(payload):
        # the horn (k; j) of a cell the psi fork glues, or None; the fork
        # glues horns only when hom k+1 has positive dimension.  A
        # nondegenerate cell over delta_vals that reaches stage 4 has a
        # filled vertex in slot k (else stage 0 holds it), every other slot
        # surjective (else stage 3), so each slot alone in its interval is
        # the identity, and no two equal neighbouring (slot k, slot k+1)
        # columns
        if payload[0] != delta_vals or shape.q(k + 1) == 0:
            return None
        ak = slot_component(payload, k)
        ak1 = slot_component(payload, k + 1)
        i_a = ak1[max(j for j, v in enumerate(ak) if v == FILLED)]
        if i_a >= 1:
            j_a = min(j for j, v in enumerate(ak1) if v == i_a)
        else:
            j_a = max(j for j, v in enumerate(ak1) if v == 0)
        return (k, j_a) if ak[j_a] == DIAMOND else None

    @cache
    def stage_of(payload):
        # stages 0-3 are disjoint; stage 4, the psi fork, takes the rest
        x = payload[0]
        if theta_corner_contains(payload, k) or set(x) <= {k - 1, k}:
            return 0, None
        if x[0] < k - 1 and x[-1] == k:
            return 1, ((len(x) - 2,) if x[-2] == k - 1 else None)
        if x[0] <= k - 1 and x[-1] > k and x not in (id_vals, delta_vals):
            i = next((i for i in range(1, len(x) - 1) if x[i] == k), None)
            return 2, (None if i is None else (i,))
        if x in (id_vals, delta_vals) and any(
            not _surjective_comp(slot_component(payload, slot), shape.q(slot))
            for slot in range(x[0] + 1, x[-1] + 1)
            if slot != k
        ):
            return 3, ((k,) if x == id_vals else None)
        return 4, stage4_horn(payload)

    def x0_check(y):
        want = Subobject.where(phi, lambda c: stage_of(c.payload)[0] == 0)
        return y.same_cells(want), "stage 0 equals corner plus edge image"

    steps.append(StageCheck("stage 0 content", x0_check))
    for stage in (1, 2, 3):
        steps += _horn_stage(phi, stage, stage_of, bound)
        label = f"stage {stage} content"
        steps.append(_stage_check(phi, label, stage_of, stage, bound))

    if shape.q(k + 1) >= 1:
        psi_fork_steps = _horn_stage(
            phi,
            4,
            stage_of,
            bound,
            key=lambda cell: (
                cell.shape.dim,
                sum(1 for v in slot_component(cell.payload, k) if v == FILLED),
                cell.payload,
            ),
        )
    else:
        sub_shape = ThetaShape(shape.qs[:k] + shape.qs[k + 1 :])
        sub_psi, sub_phi, _ = equiv_vert(sub_shape, k, work)

        def face_map(cell):
            x, comps = cell.payload
            nx = tuple(v if v < k else v + 1 for v in x)
            ncomps = []
            for j in range(nx[0] + 1, nx[-1] + 1):
                if j == k + 1:
                    ncomps.append((0,) * (cell.shape.q(interval_index(nx, j)) + 1))
                elif j <= k:
                    ncomps.append(comps[j - x[0] - 1])
                else:
                    ncomps.append(comps[j - 1 - x[0] - 1])
            return Cell(cell.shape, (nx, tuple(ncomps)))

        psi_fork_steps = [
            GluingStep(
                label="glue the lower extension along its own domain",
                source=sub_phi,
                map_fn=face_map,
                expected_w=sub_psi,
                bound=bound,
            )
        ]

    return ReplayScript(
        name="vert_equiv",
        params=params,
        ambient=phi,
        initial=corner,
        steps=steps,
        target=None,
        certified_dim=bound - 1,
        forks=[
            Fork(name="psi", steps=psi_fork_steps, target=psi, certified_dim=bound - 1)
        ],
        notes=[
            "the ambient side of the extension is meta-level (right cancellation)"
        ],
    )


def _stage_check(ambient, label, stage_of, stage, bound):
    """Soundness check for a stage: nothing outside the stages was attached.

    The stages so far hold the cells whose ``stage_of`` stage is at most
    ``stage``.  Full stage content is only reachable through parents of
    unbounded dimension, so coverage is reported as the largest certified
    level rather than asserted at the truncation bound.
    """

    def check(y):
        gens = Subobject.where(ambient, lambda c: stage_of(c.payload)[0] <= stage)
        want = Subobject.generated(ambient, gens.iter_nd())
        sound = y.issubset(want)
        covered = -1
        for d in range(bound):
            if y.equals_up_to(want, d):
                covered = d
            else:
                break
        return sound, f"stage coverage certified through dim {covered}"

    return StageCheck(label, check)


# -- horizontal equivalence extensions ------------------------------------------


def horiz_equiv(shape, bound):
    """Stagewise replay of the interval-times-boundary extension."""
    _check_equiv_bound(bound)
    if shape.n == 0:
        raise ThetaError("the terminal shape has its own one-line argument")
    inc = equiv_horiz(shape, bound)
    amb = inc.codomain
    n = shape.n

    @cache
    def stage_of(payload):
        # stage 0 is the domain; a cell outside it is at stage 2 when a
        # filled interval vertex lies over the object n, else at stage 1.
        # Stage 1 glues along the horn just after the last filled vertex,
        # stage 2 along the horn at the first vertex over n.
        u, f = payload
        vals = f.x
        if inc.domain.contains(Cell(f.src, payload)):
            return 0, None
        if not any(u[v] == FILLED and vals[v] == n for v in range(len(u))):
            cut = 1 + max(v for v in range(len(u)) if u[v] == FILLED)
            return 1, ((cut,) if vals[cut] == vals[cut - 1] else None)
        cut = vals.index(n)
        return 2, ((cut,) if u[cut] == DIAMOND else None)

    steps = _horn_stage(
        amb,
        1,
        stage_of,
        bound,
        key=lambda cell: (
            cell.shape.dim,
            sum(1 for v in cell.payload[0] if v == FILLED),
            cell.payload,
        ),
    )
    steps.append(_stage_check(amb, "stage 1 content", stage_of, 1, bound))
    steps += _horn_stage(amb, 2, stage_of, bound)
    return ReplayScript(
        name="horiz_equiv",
        params={"shape": str(shape), "bound": bound},
        ambient=amb,
        initial=inc.domain,
        steps=steps,
        target=Subobject.full(amb),
        certified_dim=bound - 1,
    )
