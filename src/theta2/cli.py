"""Command-line front door: construct, enumerate, verify, report.

Exit status: 0 on success, 1 on verification failure, 2 on usage errors.
Reports are deterministic; set THETA2_REPORT_DIR to also write them to
disk as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import boxprod, twocat
from .anodyne import (
    alt_trivial,
    horiz_equiv,
    lift_check,
    oury_from_alt,
    replay,
    run_claims_suite,
    sigma_s,
    spine_anodyne,
    upsilon_full,
    upsilon_vertical,
    vert_equiv,
)
from .anodyne.admissible import enumerate_admissible_sets
from .cellset import from_simplicial, representable, subobject_to_json
from .delta import DeltaError, shuffle_covers, shuffles
from .grammar import (
    ParseError,
    parse_cellular,
    parse_hyperface_label,
    parse_shape,
    parse_shuffle,
)
from .sset import J
from .theta import (
    ThetaError,
    classify_cellular,
    hyperfaces,
    outer_hyperface_order,
    shapes_upto,
)


def _emit(args, doc, text_lines):
    if args.format == "json":
        out = json.dumps(doc, indent=2, sort_keys=True)
    elif args.format == "dot":
        out = doc["dot"]
    else:
        out = "\n".join(text_lines)
    try:
        print(out, flush=True)
    except BrokenPipeError:
        # the reader closed the pipe early, which does not change the verdict;
        # stdout goes to devnull so that the flush at exit raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    report_dir = os.environ.get("THETA2_REPORT_DIR")
    if report_dir:
        os.makedirs(report_dir, exist_ok=True)
        name = doc.get("report_name", "report")
        path = os.path.join(report_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)


def cmd_shuffles(args):
    elems = shuffles(args.m, args.n)
    doc = {
        "report_name": f"shuffles-{args.m}-{args.n}",
        "m": args.m,
        "n": args.n,
        "count": len(elems),
        "shuffles": [str(s) for s in elems],
    }
    lines = [str(s) for s in elems]
    if args.format == "dot":
        edges = []
        for s in elems:
            for t in shuffle_covers(s)[1]:
                edges.append((str(s), str(t)))
        dot = ["digraph shuffles {"]
        for s in elems:
            dot.append(f'  "{s}";')
        for a, b in edges:
            dot.append(f'  "{a}" -> "{b}";')
        dot.append("}")
        doc["dot"] = "\n".join(dot)
    _emit(args, doc, lines)
    return 0


def cmd_hyperfaces(args):
    shape = parse_shape(args.shape)
    hfs = hyperfaces(shape)
    doc = {
        "report_name": f"hyperfaces-{shape}",
        "shape": str(shape),
        "count": len(hfs),
        "hyperfaces": [{"label": str(l), "operator": str(op)} for l, op in hfs],
    }
    lines = [f"{l} = {op}" for l, op in hfs]
    _emit(args, doc, lines)
    return 0


def cmd_classify(args):
    op = parse_cellular(args.operator)
    flags = classify_cellular(op)
    doc = {"report_name": "classify", "operator": str(op), "flags": flags}
    lines = [f"{k}: {v}" for k, v in sorted(flags.items())]
    _emit(args, doc, lines)
    return 0


def cmd_enumerate(args):
    shape = parse_shape(args.shape)
    at = parse_shape(args.at)
    amb = representable(shape)
    cells = amb.cells(at)
    doc = {
        "report_name": f"enumerate-{shape}-at-{at}",
        "shape": str(shape),
        "at": str(at),
        "count": len(cells),
        "cells": [str(c) for c in cells],
    }
    _emit(args, doc, [str(c) for c in cells])
    return 0


def _domain_command(args, inclusion):
    doc = {
        "report_name": inclusion.name.replace(" ", "-"),
        "inclusion": inclusion.name,
        "generators": [
            str(c.payload) for c in inclusion.domain.iter_nd()
        ],
        "nd_count": inclusion.domain.nd_count(),
    }
    doc["domain"] = subobject_to_json(inclusion.domain)
    lines = [str(c.payload) for c in inclusion.domain.iter_nd()]
    _emit(args, doc, lines)
    return 0


def cmd_boundary(args):
    return _domain_command(args, boxprod.boundary(parse_shape(args.shape)))


def cmd_spine(args):
    return _domain_command(args, boxprod.spine(parse_shape(args.shape)))


def _require(args, name):
    """Reject a missing option that the chosen family or script needs."""
    if getattr(args, name) is None:
        raise ParseError(f"missing --{name}")


def cmd_horn(args):
    shape = parse_shape(args.shape)
    if args.family == "h":
        inc = boxprod.horn_h(shape, args.k)
    elif args.family == "v":
        _require(args, "i")
        inc = boxprod.horn_v(shape, args.k, args.i)
    else:
        _require(args, "shuffle")
        inc = boxprod.horn_h_alt(shape, args.k, parse_shuffle(args.shuffle))
    return _domain_command(args, inc)


def cmd_named_set(args):
    shape = parse_shape(args.shape)
    labels = frozenset(parse_hyperface_label(t, shape) for t in args.set or ())
    if args.which == "sigma-s":
        sub = boxprod.sigma_subobject(shape, labels)
        name = f"sigma-s{shape}"
    elif args.which == "upsilon-s":
        sub = boxprod.upsilon_subobject(shape, labels)
        name = f"upsilon-s{shape}"
    else:
        sub = boxprod.lambda_subobject(shape, labels)
        name = f"lambda-s{shape}"
    return _domain_command(args, boxprod.Inclusion(sub, name=name))


def cmd_equiv(args):
    shape = parse_shape(args.shape)
    if args.which == "equiv-v":
        _, _, inc = boxprod.equiv_vert(shape, args.k, args.bound)
    else:
        inc = boxprod.equiv_horiz(shape, args.bound)
    return _domain_command(args, inc)


def cmd_nerve(args):
    if args.source == "free":
        shape = parse_shape(args.shape)
        cat = twocat.free_cell_2cat(shape)
    elif args.source == "chaotic":
        cat = twocat.chaotic_2cat()
    elif args.source == "suspension":
        cat = twocat.suspension_of_chaotic()
    else:
        cat = twocat.parse_2cat_file(args.source)
    cat.validate()
    nerve = twocat.nerve(cat, args.bound)
    doc = {
        "report_name": "nerve",
        "bound": args.bound,
        "levels": [
            {"shape": str(s), "cells": len(nerve.cells(s))}
            for s in shapes_upto(args.bound)
        ],
    }
    lines = [f"{s}: {len(nerve.cells(s))} cells" for s in shapes_upto(args.bound)]
    _emit(args, doc, lines)
    return 0


def cmd_lift(args):
    if args.x == "J":
        target = from_simplicial(J, args.bound)
    elif args.x.startswith("representable:"):
        target = representable(parse_shape(args.x.split(":", 1)[1]), args.bound)
    elif args.x.startswith("nerve:"):
        cat = twocat.parse_2cat_file(args.x.split(":", 1)[1])
        cat.validate()
        target = twocat.nerve(cat, args.bound)
    else:
        raise ParseError(f"unknown lifting target {args.x!r}")
    rep = lift_check(target, args.family, args.bound)
    if not rep["instances"]:
        # an empty search certifies nothing
        raise ThetaError(f"no {args.family} horn has dimension below bound {args.bound}")
    rep["report_name"] = f"lift-{args.family}"
    lines = [
        f"{r['shape']} {r['horn']}: {r['filled']}/{r['maps']} filled"
        for r in rep["instances"]
    ]
    lines.append(f"unfilled: {rep['unfilled']}")
    _emit(args, rep, lines)
    return 0 if rep["unfilled"] == 0 else 1


def _script_from_args(args):
    _require(args, "shape")
    shape = parse_shape(args.shape)
    labels = frozenset(
        parse_hyperface_label(t, shape) for t in (args.set or ())
    )
    if args.script == "spine-anodyne":
        return spine_anodyne(shape)
    if args.script == "sigma-s":
        chain = outer_hyperface_order(shape)
        inner = labels - set(chain)
        if inner:
            raise ParseError(f"sigma-s attaches outer hyperfaces only; {min(inner)} is inner")
        want = [l for l in chain if l in labels] if labels else list(chain)
        return sigma_s(shape, want)
    if args.script == "upsilon-vertical":
        return upsilon_vertical(shape, labels)
    if args.script == "upsilon-full":
        return upsilon_full(shape, labels)
    if args.script == "oury-from-alt":
        return oury_from_alt(shape, labels)
    if args.script == "alt-trivial":
        _require(args, "shuffle")
        return alt_trivial(
            shape, args.k, parse_shuffle(args.shuffle), {parse_shuffle(args.shuffle)}
            if not args.set
            else {parse_hyperface_label(t, shape).shuffle for t in args.set},
        )
    if args.script == "vert-equiv":
        return vert_equiv(shape, args.k, args.bound)
    if args.script == "horiz-equiv":
        return horiz_equiv(shape, args.bound)
    raise ParseError(f"unknown script {args.script!r}")


def cmd_verify(args):
    if args.script == "claims":
        rep = run_claims_suite(max_n=args.max_n, max_q=args.max_q)
        if not rep["total"]:
            # an empty verification certifies nothing
            raise ThetaError(f"no claim to check with --max-n {args.max_n} --max-q {args.max_q}")
        rep["report_name"] = "claims"
        lines = [f"claims checked: {rep['total']}", f"failures: {len(rep['failures'])}"]
        _emit(args, rep, lines)
        return 0 if rep["ok"] else 1
    if args.script == "all":
        return _verify_all(args)
    rep = replay(_script_from_args(args))
    rep["report_name"] = f"{rep['script']}-{rep['params'].get('shape', '')}"
    lines = _replay_lines(rep)
    _emit(args, rep, lines)
    return 0 if rep["ok"] else 1


def _replay_lines(rep):
    lines = [f"script: {rep['script']}  params: {rep['params']}"]
    for st in rep["steps"]:
        if st.get("margin_only"):
            continue
        checks = st.get("checks", {})
        status = "ok" if all(checks.values()) else "FAIL"
        if st.get("uncertified_tail"):
            status += " (uncertified tail)"
        lines.append(f"  [{st['index']}] {st.get('label', st.get('cell'))}: {status}")
    for name, fork in rep.get("forks", {}).items():
        lines.append(f"  fork {name}: target match = {fork['final']['equals_target']}")
    lines.append(
        f"final: equals_target={rep['final']['equals_target']} "
        f"certified_dim={rep['final']['certified_dim']}"
    )
    lines.append("status: " + ("certified" if rep["ok"] else "FAILED"))
    return lines


def _verify_all(args):
    if not shapes_upto(args.max_dim):
        raise ThetaError(f"no shape has dimension <= {args.max_dim}")
    failures = []
    count = 0
    for shape in shapes_upto(args.max_dim):
        count += 1
        rep = replay(spine_anodyne(shape))
        if not rep["ok"]:
            failures.append(("spine-anodyne", str(shape)))
        chain = outer_hyperface_order(shape)
        for r in range(len(chain) + 1):
            if not replay(sigma_s(shape, chain[:r]))["ok"]:
                failures.append(("sigma-s", str(shape), r))
        for labels in enumerate_admissible_sets(shape):
            if not replay(upsilon_full(shape, labels))["ok"]:
                failures.append(("upsilon-full", str(shape), sorted(map(str, labels))))
    doc = {
        "report_name": "verify-all",
        "max_dim": args.max_dim,
        "shapes": count,
        "failures": failures,
    }
    _emit(args, doc, [f"shapes: {count}", f"failures: {len(failures)}"])
    return 0 if not failures else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="theta2",
        description="Combinatorics engine for the 2-cell category and cellular sets",
    )
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("shuffles", help="enumerate the shuffle lattice")
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.set_defaults(fn=cmd_shuffles)

    sp = sub.add_parser("hyperfaces", help="list the codimension-1 faces")
    sp.add_argument("shape")
    sp.set_defaults(fn=cmd_hyperfaces)

    sp = sub.add_parser("classify", help="classify a cellular operator")
    sp.add_argument("operator")
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("enumerate", help="cells of a representable at a shape")
    sp.add_argument("--shape", required=True)
    sp.add_argument("--at", required=True)
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("boundary", help="boundary generators")
    sp.add_argument("shape")
    sp.set_defaults(fn=cmd_boundary)

    sp = sub.add_parser("spine", help="spine generators")
    sp.add_argument("shape")
    sp.set_defaults(fn=cmd_spine)

    sp = sub.add_parser("horn", help="horn domain generators")
    sp.add_argument("shape")
    sp.add_argument("--family", choices=["h", "v", "h-alt"], required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--i", type=int)
    sp.add_argument("--shuffle")
    sp.set_defaults(fn=cmd_horn)

    for which in ("sigma-s", "upsilon-s", "lambda-s"):
        sp = sub.add_parser(which, help=f"{which} domain generators")
        sp.add_argument("shape")
        sp.add_argument("--set", action="append", help="hyperface label (repeatable)")
        sp.set_defaults(fn=cmd_named_set, which=which)

    for which in ("equiv-v", "equiv-h"):
        sp = sub.add_parser(which, help=f"{which} domain generators")
        sp.add_argument("shape")
        sp.add_argument("--k", type=int, default=1)
        sp.add_argument("--bound", type=int, default=4)
        sp.set_defaults(fn=cmd_equiv, which=which)

    sp = sub.add_parser("nerve", help="levelwise cell counts of a nerve")
    sp.add_argument("source", help="free|chaotic|suspension|<path to 2cat file>")
    sp.add_argument("--shape", default="[1;1]")
    sp.add_argument("--bound", type=int, default=4)
    sp.set_defaults(fn=cmd_nerve)

    sp = sub.add_parser("lift", help="search horn fillers in a cellular set")
    sp.add_argument("--x", required=True, help="J|representable:[n;q]|nerve:path")
    sp.add_argument("--family", default="inner", choices=["inner", "inner-h", "inner-v", "alt-h"])
    sp.add_argument("--bound", type=int, default=4)
    sp.set_defaults(fn=cmd_lift)

    sp = sub.add_parser("verify", help="replay a gluing decomposition")
    sp.add_argument(
        "script",
        choices=[
            "spine-anodyne",
            "sigma-s",
            "upsilon-vertical",
            "upsilon-full",
            "oury-from-alt",
            "alt-trivial",
            "vert-equiv",
            "horiz-equiv",
            "claims",
            "all",
        ],
    )
    sp.add_argument("--shape")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--shuffle")
    sp.add_argument("--set", action="append", help="hyperface label (repeatable)")
    sp.add_argument("--bound", type=int, default=4)
    sp.add_argument("--max-dim", type=int, default=3)
    sp.add_argument("--max-n", type=int, default=2)
    sp.add_argument("--max-q", type=int, default=2)
    sp.set_defaults(fn=cmd_verify)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "dot" and args.command != "shuffles":
        print(f"error: --format dot draws only shuffles, not {args.command}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (DeltaError, ParseError, ThetaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
