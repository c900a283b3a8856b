"""Print one ``name sha256`` line per report of a fixed corpus, or check
the reports against the committed ledger ``tests/report_digests.txt``.

    python tests/report_digests.py > tests/report_digests.txt  # rewrite
    python tests/report_digests.py --check           # every report
    python tests/report_digests.py --check --slice   # the Tier-1 slice

``--check`` names each changed, added or missing report and exits 1 on any
drift.  ``--slice`` keeps the reports on a shape of dim <= 3 and the lift
reports.  A change that alters a report on purpose rewrites the ledger.

The digest is the sha256 of ``json.dumps(report, sort_keys=True)``.  Label
sets are hashed in iteration order, so the script re-runs itself under
``PYTHONHASHSEED=0`` when that is not already set.  The corpus:

- the 306 replays of ``theta2 verify all --max-dim 5``;
- the 8 interval replays: ``vert_equiv`` at bound 5, ``horiz_equiv`` at 4;
- ``run_claims_suite(2, 3)``;
- the 5 ``lift_check`` reports on J and three 2-category nerves;
- ``vert_equiv`` for every (shape, k) with q_k = 0 and dim <= 6, at bound 3,
  which takes in the 11 failing cases that ACCEPT-11 pins (all of dim 5 or 6);
- ``horiz_equiv`` for every shape with n >= 1 and dim <= 3, at bound 3;
- ``spine_anodyne`` for every shape of dim 6 and 7;
- ``alt_trivial`` for every (shape, k, base) of dim <= 5 and every index
  set that is downward closed in the up-set of base;
- ``oury_from_alt`` for every valid excluded set of a shape of dim <= 5:
  a non-empty set of inner verticals at one hom, or a non-empty upward
  closed set of horizontals at one level.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from pathlib import Path

if os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from theta2 import twocat  # noqa: E402
from theta2.anodyne import (  # noqa: E402
    alt_trivial,
    horiz_equiv,
    lift_check,
    oury_from_alt,
    replay,
    run_claims_suite,
    sigma_s,
    spine_anodyne,
    upsilon_full,
    vert_equiv,
)
from theta2.anodyne.admissible import enumerate_admissible_sets  # noqa: E402
from theta2.cellset import from_simplicial  # noqa: E402
from theta2.delta import shuffle_leq, shuffles  # noqa: E402
from theta2.grammar import parse_shape  # noqa: E402
from theta2.sset import J  # noqa: E402
from theta2.theta import (  # noqa: E402
    ThetaShape,
    hlabel,
    outer_hyperface_order,
    shapes_upto,
    vlabel,
)


LEDGER = Path(__file__).with_name("report_digests.txt")


def _subsets(pool):
    """The non-empty subsets of ``pool``, by size, then in pool order."""
    for r in range(1, len(pool) + 1):
        yield from itertools.combinations(pool, r)


def _closed(subset, pool, leq):
    """Whether ``subset`` holds every element of ``pool`` below one of its own."""
    return all(t in subset or not leq(t, s) for s in subset for t in pool)


def corpus():
    """(name, thunk) pairs, one per report, in a fixed order."""
    for shape in shapes_upto(5):
        yield f"spine_anodyne {shape}", lambda s=shape: replay(spine_anodyne(s))
        chain = outer_hyperface_order(shape)
        for r in range(len(chain) + 1):
            yield f"sigma_s {shape} r={r}", lambda s=shape, c=chain[:r]: replay(sigma_s(s, c))
        for labels in enumerate_admissible_sets(shape):
            name = f"upsilon_full {shape} {sorted(map(str, labels))}"
            yield name, lambda s=shape, ls=labels: replay(upsilon_full(s, ls))
    for qs, k in (((0,), 1), ((0, 0), 1), ((0, 0), 2), ((0, 1), 1), ((0, 2), 1)):
        shape = ThetaShape(qs)
        yield f"vert_equiv {shape} k={k} bound=5", lambda s=shape, k=k: replay(
            vert_equiv(s, k, 5)
        )
    for qs in ((0,), (1,), (0, 0)):
        shape = ThetaShape(qs)
        yield f"horiz_equiv {shape} bound=4", lambda s=shape: replay(horiz_equiv(s, 4))
    yield "claims 2 3", lambda: run_claims_suite(max_n=2, max_q=3)
    targets = {
        "J": lambda: from_simplicial(J, 5),
        "suspension": lambda: twocat.nerve(twocat.suspension_of_chaotic(), 5),
        "chaotic": lambda: twocat.nerve(twocat.chaotic_2cat(), 5),
        "free[1;1]": lambda: twocat.nerve(twocat.free_cell_2cat(ThetaShape((1, 1))), 4),
    }
    for name, family, bound in (
        ("J", "inner", 5),
        ("J", "alt-h", 5),
        ("suspension", "inner", 5),
        ("chaotic", "inner", 5),
        ("free[1;1]", "inner", 4),
    ):
        yield f"lift {name}/{family} bound={bound}", lambda t=targets[name], f=family, b=bound: (
            lift_check(t(), f, b)
        )
    for shape in shapes_upto(6):
        for k in range(1, shape.n + 1):
            if shape.q(k) == 0:
                yield f"vert_equiv {shape} k={k} bound=3", lambda s=shape, k=k: replay(
                    vert_equiv(s, k, 3)
                )
    for shape in shapes_upto(3):
        if shape.n >= 1:
            yield f"horiz_equiv {shape} bound=3", lambda s=shape: replay(horiz_equiv(s, 3))
    for shape in shapes_upto(7):
        if shape.dim >= 6:
            yield f"spine_anodyne {shape}", lambda s=shape: replay(spine_anodyne(s))
    for shape in shapes_upto(5):
        for k in range(1, shape.n):
            pool = shuffles(shape.q(k), shape.q(k + 1))
            for base in pool:
                up = [s for s in pool if shuffle_leq(base, s)]
                for i_set in _subsets(up):
                    if _closed(i_set, up, shuffle_leq):
                        name = f"alt_trivial {shape} k={k} base={base} {[str(s) for s in i_set]}"
                        yield name, lambda s=shape, k=k, b=base, i=i_set: replay(
                            alt_trivial(s, k, b, set(i))
                        )
    for shape in shapes_upto(5):
        excluded = []
        for k in range(1, shape.n + 1):
            excluded += _subsets([vlabel(k, i) for i in range(1, shape.q(k))])
        for k in range(1, shape.n):
            pool = shuffles(shape.q(k), shape.q(k + 1))
            excluded += (
                [hlabel(k, s) for s in shfs]
                for shfs in _subsets(pool)
                if _closed(shfs, pool, lambda a, b: shuffle_leq(b, a))
            )
        for labels in excluded:
            name = f"oury_from_alt {shape} {[str(l) for l in labels]}"
            yield name, lambda s=shape, ls=labels: replay(oury_from_alt(s, set(ls)))


def in_slice(name):
    """Whether the report is a lift report or one on a shape of dim <= 3."""
    kind, arg = name.split(" ")[:2]
    return kind == "lift" or (arg.startswith("[") and parse_shape(arg).dim <= 3)


def digest(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def check(reports, want):
    """Compare (name, thunk) reports with the ledger's digests; the drift count."""
    drift, seen = 0, set()
    for name, thunk in reports:
        seen.add(name)
        if name not in want:
            print("added", name, flush=True)
        elif digest(thunk()) != want[name]:
            print("changed", name, flush=True)
        else:
            continue
        drift += 1
    for name in want.keys() - seen:
        print("missing", name)
        drift += 1
    print(f"{len(seen)} reports, {drift} drifted from {LEDGER.name}")
    return drift


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help=f"compare with {LEDGER.name}")
    parser.add_argument("--slice", action="store_true", help="dim <= 3 and the lift reports")
    args = parser.parse_args()
    reports = [(n, t) for n, t in corpus() if not args.slice or in_slice(n)]
    if not args.check:
        for name, thunk in reports:
            print(name, digest(thunk()), flush=True)
        return 0
    want = dict(line.rsplit(" ", 1) for line in LEDGER.read_text().splitlines())
    if args.slice:
        want = {n: d for n, d in want.items() if in_slice(n)}
    return 1 if check(reports, want) else 0


if __name__ == "__main__":
    sys.exit(main())
