"""Pullback oracles for the horizontal-hyperface claims.

Each claim predicts, in closed form, the pullback of one hyperface
closure along a k-th horizontal hyperface.  The suite recomputes every
pullback by brute force over faces and compares.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from ..boxprod import face_closure, upsilon_subobject
from ..cellset import Cell
from ..delta import shuffle_corners, shuffle_covers, shuffle_leq, shuffles
from ..theta import (
    ThetaShape,
    hlabel,
    hyperface_operator,
    hyperfaces,
    vlabel,
)


@lru_cache(maxsize=None)
def label_closure(shape, label):
    return face_closure(shape, [hyperface_operator(shape, label)])


@lru_cache(maxsize=None)
def _pullback(shape, target, along):
    along_op = hyperface_operator(shape, along)
    sub = label_closure(shape, target)
    return sub.pullback_along(Cell(along_op.src, along_op))


def pullback_hyperface(shape, target, along):
    """Brute-force pullback of one hyperface closure along another."""
    existing = {lbl for lbl, _ in hyperfaces(shape)}
    if target not in existing or along not in existing:
        raise ValueError(f"labels must be hyperfaces of {shape}")
    return _pullback(shape, target, along)


def _along(shape, k, shf):
    op = hyperface_operator(shape, hlabel(k, shf))
    return op, Cell(op.src, op)


def check_claim0(shape, k, shf):
    """Pullback of the outer-hyperface closure is the source's outer closure."""
    op, cell = _along(shape, k, shf)
    got = upsilon_subobject(shape, frozenset()).pullback_along(cell)
    want = upsilon_subobject(op.src, frozenset())
    return {"claim": "0", "ok": got.same_cells(want)}


def check_claim1(shape, k, shf, dual=False):
    """Level-l horizontal hyperfaces correspond across the pullback."""
    op, cell = _along(shape, k, shf)
    src = op.src
    ok = True
    ells = range(1, k) if not dual else range(k + 1, shape.n)
    for ell in ells:
        src_ell = ell if not dual else ell - 1
        all_src = face_closure(
            src,
            [
                hyperface_operator(src, hlabel(src_ell, g))
                for g in shuffles(src.q(src_ell), src.q(src_ell + 1))
            ],
        )
        for beta in shuffles(shape.q(ell), shape.q(ell + 1)):
            pb = _pullback(shape, hlabel(ell, beta), hlabel(k, shf))
            if not pb.issubset(all_src):
                ok = False
        for gamma in shuffles(src.q(src_ell), src.q(src_ell + 1)):
            covered = any(
                label_closure(src, hlabel(src_ell, gamma)).issubset(
                    _pullback(shape, hlabel(ell, beta), hlabel(k, shf))
                )
                for beta in shuffles(shape.q(ell), shape.q(ell + 1))
            )
            if not covered:
                ok = False
    return {"claim": "1" if not dual else "1-dual", "ok": ok}


def check_claim2(shape, k, shf, upward=False):
    """Non-dominating same-index shuffles land inside corner verticals.

    With ``upward`` the roles flip: shuffles not below, and upper corners.
    """
    op, cell = _along(shape, k, shf)
    src = op.src
    lower, upper = shuffle_corners(shf)
    corners = upper if upward else lower
    preds, succs = shuffle_covers(shf)
    neighbours = succs if upward else preds
    ok = True
    for beta in shuffles(shape.q(k), shape.q(k + 1)):
        bad = (
            not shuffle_leq(beta, shf) if upward else not shuffle_leq(shf, beta)
        )
        if not bad:
            continue
        pb = _pullback(shape, hlabel(k, beta), hlabel(k, shf))
        if not any(
            pb.issubset(label_closure(src, vlabel(k, j))) for j in corners
        ):
            ok = False
    for j in sorted(corners):
        want = label_closure(src, vlabel(k, j))
        found = any(
            _pullback(shape, hlabel(k, nb), hlabel(k, shf)).same_cells(want)
            for nb in neighbours
        )
        if not found:
            ok = False
    return {"claim": "2'" if upward else "2", "ok": ok}


def check_claim3(shape, k, shf):
    """Remote inner verticals pull back to themselves (with an index shift)."""
    op, cell = _along(shape, k, shf)
    src = op.src
    ok = True
    for ell in range(1, shape.n + 1):
        if ell in (k, k + 1):
            continue
        for i in range(1, shape.q(ell)):
            pb = pullback_hyperface(shape, vlabel(ell, i), hlabel(k, shf))
            src_ell = ell if ell < k else ell - 1
            want = label_closure(src, vlabel(src_ell, i))
            if not pb.same_cells(want):
                ok = False
    return {"claim": "3", "ok": ok}


def check_claim4(shape, k, shf, upward=False):
    """Verticals at k and k+1 pull back to singleton-preimage verticals."""
    op, cell = _along(shape, k, shf)
    src = op.src
    alpha = shf.alpha
    alpha_p = shf.alpha_prime
    lower, upper = shuffle_corners(shf)
    corners = upper if upward else lower
    ok = True
    for side, comp in ((k, alpha), (k + 1, alpha_p)):
        q = shape.q(side)
        for i in range(1, q):
            pb = pullback_hyperface(shape, vlabel(side, i), hlabel(k, shf))
            pre = [j for j, v in enumerate(comp.values) if v == i]
            if len(pre) == 1:
                want = label_closure(src, vlabel(k, pre[0]))
                if not pb.same_cells(want):
                    ok = False
            else:
                if not any(
                    pb.issubset(label_closure(src, vlabel(k, j))) for j in corners
                ):
                    ok = False
    return {"claim": "4'" if upward else "4", "ok": ok}


def check_claim5(shape, k, base_shf, shf):
    """The leftover lower-corner verticals come from non-dominating shuffles.

    ``base_shf`` plays the role of the fixed minimum; ``shf`` must lie
    strictly above it.
    """
    op, cell = _along(shape, k, shf)
    src = op.src
    lower, _ = shuffle_corners(shf)
    ok = True
    for gamma in shuffles(shape.q(k), shape.q(k + 1)):
        if shuffle_leq(base_shf, gamma):
            continue
        pb = _pullback(shape, hlabel(k, gamma), hlabel(k, shf))
        witnesses = [
            j
            for j in range(1, src.q(k))
            if (j not in lower or shf.alpha.values[j] == base_shf.alpha.values[j])
            and pb.issubset(label_closure(src, vlabel(k, j)))
        ]
        if not witnesses:
            ok = False
    for j in sorted(lower):
        if shf.alpha.values[j] != base_shf.alpha.values[j]:
            continue
        want = label_closure(src, vlabel(k, j))
        found = any(
            _pullback(shape, hlabel(k, gamma), hlabel(k, shf)).same_cells(want)
            for gamma in shuffles(shape.q(k), shape.q(k + 1))
            if not shuffle_leq(base_shf, gamma)
        )
        if not found:
            ok = False
    return {"claim": "5", "ok": ok}


def run_claims_suite(max_n=3, max_q=2):
    """Claims 0-4 and their upward duals plus claim 5, over the whole grid."""
    failures = []
    total = 0
    for n in range(2, max_n + 1):
        for qs in itertools.product(range(max_q + 1), repeat=n):
            shape = ThetaShape(qs)
            for k in range(1, n):
                for shf in shuffles(shape.q(k), shape.q(k + 1)):
                    checks = [
                        check_claim0(shape, k, shf),
                        check_claim1(shape, k, shf),
                        check_claim1(shape, k, shf, dual=True),
                        check_claim2(shape, k, shf),
                        check_claim2(shape, k, shf, upward=True),
                        check_claim3(shape, k, shf),
                        check_claim4(shape, k, shf),
                        check_claim4(shape, k, shf, upward=True),
                    ]
                    for base in shuffles(shape.q(k), shape.q(k + 1)):
                        if base != shf and shuffle_leq(base, shf):
                            checks.append(check_claim5(shape, k, base, shf))
                    total += len(checks)
                    for c in checks:
                        if not c["ok"]:
                            c.update(shape=str(shape), k=k, shuffle=str(shf))
                            failures.append(c)
    return {"total": total, "failures": failures, "ok": not failures}
