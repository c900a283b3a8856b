"""The four workloads: inputs made from a seed, verification items, verdict gates.

Library functions are called through this module's globals, which the
tracer rebinds like any other binding, so traced runs see these calls.
Each workload has an `<name>_inputs(seed, expected)` function that builds
its inputs (set-up a user also pays: enumerating what to verify) and an
`<name>_execute(inputs, tracer)` function that drives the public library
functions and returns per-item latencies, the verdict tally and the count
of certified units.
The gates check verdicts and counts, never report bytes, so that adding
a named check to a report does not invalidate the benchmark.

Certified units (the numerator of `checks_per_s`): claims checks on
`claims_grid`, gluing squares on `replay_all`, replay steps other than
margin-only ones (forks included) on `interval_equiv`, and horn maps
checked on `lift_fill`.
"""

from __future__ import annotations

import random
import time

from theta2 import twocat
from theta2.anodyne import (
    horiz_equiv,
    lift_check,
    replay,
    run_claims_suite,
    sigma_s,
    spine_anodyne,
    upsilon_full,
    vert_equiv,
)
from theta2.anodyne.admissible import enumerate_admissible_sets
from theta2.cellset import from_simplicial
from theta2.sset import J
from theta2.theta import ThetaShape, outer_hyperface_order, shapes_upto

# expected verdict counts at the seed commit
EXPECTED = {
    "claims_grid": {"checks": 820},
    "replay_all": {"replays": 306, "squares": 734},
    "interval_equiv": {},
    "lift_fill": {
        "J/inner": 300,
        "J/alt-h": 280,
        "suspension/inner": 232,
        "chaotic/inner": 300,
        "free[1;1]/inner": 192,
    },
}


class Tally:
    """Items attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)

    def count_gate(self, name, got, want):
        """A workload-level count that differs counts as one more failed item."""
        if got != want:
            self.failed += 1
            self.reasons.append(f"{name}: got {got}, expected {want}")


def _timed_items(items, tracer, tally, check):
    """Run (label, meta, thunk) items in order, timing each and gating its verdict.

    An item that raises counts as failed; the run goes on with the next one.
    """
    latencies = []
    clock = time.perf_counter
    for label, meta, thunk in items:
        if tracer:
            tracer.begin_item(label)
        t0 = clock()
        try:
            result = thunk()
        except Exception as exc:  # a raising item is a failed verdict, not a crash
            result, error = None, exc
        else:
            error = None
        latencies.append(clock() - t0)
        if tracer:
            tracer.end_item()
        if error is not None:
            tally.check(False, f"{label}: raised {error!r}")
        else:
            check(label, meta, result)
    return latencies


def _steps(rep):
    return rep["steps"] + [st for fork in rep.get("forks", {}).values() for st in fork["steps"]]


def _is_square(step):
    return "checks" in step and "stage" not in step["checks"]


# -- claims_grid ---------------------------------------------------------------


def claims_grid_inputs(seed, expected):
    return {"max_n": 2, "max_q": 3, "expected": expected}


def claims_grid_execute(inp, tracer):
    """One `run_claims_suite` call: a single item, as `theta2 verify claims` is."""
    tally = Tally()
    rep = None

    def check(label, meta, result):
        nonlocal rep
        rep = result
        tally.attempted += rep["total"]
        tally.failed += len(rep["failures"])
        tally.reasons += [
            f"claim {f['claim']} at {f['shape']} k={f['k']} {f['shuffle']}"
            for f in rep["failures"]
        ]
        tally.count_gate("checks", rep["total"], inp["expected"]["checks"])
        tally.count_gate("ok flag", rep["ok"], not rep["failures"])

    item = ("claims suite", None, lambda: run_claims_suite(max_n=inp["max_n"], max_q=inp["max_q"]))
    latencies = _timed_items([item], tracer, tally, check)
    return latencies, tally, rep["total"] if rep else 0


# -- replay_all ----------------------------------------------------------------


def replay_all_inputs(seed, expected):
    """The `theta2 verify all --max-dim 5` replay set, in a seeded order."""
    items = []
    for shape in shapes_upto(5):
        items.append(("spine_anodyne", shape, None))
        chain = outer_hyperface_order(shape)
        for r in range(len(chain) + 1):
            items.append(("sigma_s", shape, tuple(chain[:r])))
        for labels in enumerate_admissible_sets(shape):
            items.append(("upsilon_full", shape, labels))
    random.Random(seed).shuffle(items)
    return {"items": items, "expected": expected}


_BUILDERS = {
    "spine_anodyne": lambda shape, arg: spine_anodyne(shape),
    "sigma_s": lambda shape, arg: sigma_s(shape, arg),
    "upsilon_full": lambda shape, arg: upsilon_full(shape, arg),
}


def replay_all_execute(inp, tracer):
    tally = Tally()
    squares = 0

    def check(label, meta, rep):
        nonlocal squares
        squares += sum(1 for st in _steps(rep) if _is_square(st))
        tally.check(rep["ok"], f"{label}: not ok")

    items = [
        (
            f"{kind} {shape} #{i}",
            None,
            lambda kind=kind, shape=shape, arg=arg: replay(_BUILDERS[kind](shape, arg)),
        )
        for i, (kind, shape, arg) in enumerate(inp["items"])
    ]
    latencies = _timed_items(items, tracer, tally, check)
    tally.count_gate("replays", len(items), inp["expected"]["replays"])
    tally.count_gate("squares", squares, inp["expected"]["squares"])
    return latencies, tally, squares


# -- interval_equiv ------------------------------------------------------------

_TAIL_SHAPES = {(0, 1), (0, 2)}


def interval_equiv_inputs(seed, expected):
    """The truncated interval replays: vert_equiv at bound 5, horiz_equiv at 4."""
    vert = (((0,), 1), ((0, 0), 1), ((0, 0), 2), ((0, 1), 1), ((0, 2), 1))
    items = [("vert_equiv", qs, k, 5) for qs, k in vert]
    items += [("horiz_equiv", qs, None, 4) for qs in ((0,), (1,), (0, 0))]
    random.Random(seed).shuffle(items)
    return {"items": items, "expected": expected}


def interval_equiv_execute(inp, tracer):
    tally = Tally()
    steps = 0

    def check(label, item, rep):
        nonlocal steps
        kind, qs, _, bound = item
        steps += sum(1 for st in _steps(rep) if not st.get("margin_only"))
        ok = rep["ok"] and rep["final"]["certified_dim"] == bound - 1
        if kind == "vert_equiv" and qs in _TAIL_SHAPES:
            ok = ok and any(
                st.get("uncertified_tail") or st.get("margin_only") for st in _steps(rep)
            )
        tally.check(ok, f"{label}: verdict, certified_dim or uncertified tail differs")

    items = []
    for item in inp["items"]:
        kind, qs, k, bound = item
        shape = ThetaShape(qs)
        if kind == "vert_equiv":
            thunk = lambda shape=shape, k=k, bound=bound: replay(vert_equiv(shape, k, bound))
        else:
            thunk = lambda shape=shape, bound=bound: replay(horiz_equiv(shape, bound))
        items.append((f"{kind} {shape} k={k} bound={bound}", item, thunk))
    latencies = _timed_items(items, tracer, tally, check)
    return latencies, tally, steps


# -- lift_fill -----------------------------------------------------------------


def _targets():
    return {
        "J": lambda: from_simplicial(J, 5),
        "suspension": lambda: twocat.nerve(twocat.suspension_of_chaotic(), 5),
        "chaotic": lambda: twocat.nerve(twocat.chaotic_2cat(), 5),
        "free[1;1]": lambda: twocat.nerve(twocat.free_cell_2cat(ThetaShape((1, 1))), 4),
    }


def lift_fill_inputs(seed, expected):
    """Horn filling: interval J and three 2-category nerves."""
    items = [
        ("J", "inner", 5),
        ("J", "alt-h", 5),
        ("suspension", "inner", 5),
        ("chaotic", "inner", 5),
        ("free[1;1]", "inner", 4),
    ]
    random.Random(seed).shuffle(items)
    return {"items": items, "expected": expected}


def lift_fill_execute(inp, tracer):
    tally = Tally()
    maps = 0
    targets = _targets()

    def check(label, meta, rep):
        nonlocal maps
        got = sum(r["maps"] for r in rep["instances"])
        maps += got
        want = inp["expected"][label]
        tally.check(
            rep["unfilled"] == 0 and got == want,
            f"{label}: unfilled {rep['unfilled']}, maps {got} (expected 0, {want})",
        )

    items = [
        (
            f"{name}/{family}",
            None,
            lambda name=name, family=family, bound=bound: lift_check(
                targets[name](), family, bound
            ),
        )
        for name, family, bound in inp["items"]
    ]
    latencies = _timed_items(items, tracer, tally, check)
    return latencies, tally, maps


WORKLOADS = {
    "claims_grid": (claims_grid_inputs, claims_grid_execute),
    "replay_all": (replay_all_inputs, replay_all_execute),
    "interval_equiv": (interval_equiv_inputs, interval_equiv_execute),
    "lift_fill": (lift_fill_inputs, lift_fill_execute),
}
