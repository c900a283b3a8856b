"""Text grammar for shapes, operators, shuffles and hyperface labels.

Printers and parsers round-trip exactly:

    shape              [2;0,2]          [0]
    simplicial op      {0,2}:[1]->[2]   ({0,2} when endpoints are clear)
    cellular op        [{0,2};!,{0,1,2}]:[1;2]->[2;0,2]
    shuffle            <{0,0,1},{0,1,1}>
    hyperface label    dh^0  dh^2  dh^{1;<{0,0,0},{0,1,2}>}  dv^{2;1}
"""

from __future__ import annotations

import re

from .delta import Shuffle, SimplicialOperator
from .theta import (
    CellularOperator,
    HyperfaceLabel,
    ThetaShape,
    hlabel,
    hyperfaces,
    interval_index,
    vlabel,
)


class ParseError(ValueError):
    pass


_SHAPE_RE = re.compile(r"^\[(\d+)(?:;([\d,]*))?\]$")


def parse_shape(text):
    m = _SHAPE_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad shape: {text!r}")
    n = int(m.group(1))
    if n == 0:
        if m.group(2):
            raise ParseError("the terminal shape is written [0]")
        return ThetaShape(())
    if m.group(2) is None:
        raise ParseError(f"shape {text!r} is missing its hom sizes")
    qs = tuple(int(x) for x in m.group(2).split(","))
    if len(qs) != n:
        raise ParseError(f"shape {text!r} lists {len(qs)} homs, expected {n}")
    return ThetaShape(qs)


def _parse_values(text):
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"bad value list: {text!r}")
    body = text[1:-1].strip()
    if not body:
        raise ParseError(f"empty value list: {text!r}")
    return tuple(int(x) for x in body.split(","))


def parse_simplicial(text, src=None, dst=None):
    text = text.strip()
    if ":" in text:
        body, arrow = text.split(":", 1)
        m = re.match(r"^\[(\d+)\]->\[(\d+)\]$", arrow.strip())
        if not m:
            raise ParseError(f"bad operator endpoints: {arrow!r}")
        src, dst = int(m.group(1)), int(m.group(2))
    else:
        body = text
    vals = _parse_values(body)
    if dst is None:
        dst = max(vals)
    if src is not None and len(vals) != src + 1:
        raise ParseError(f"operator {text!r} has source [{len(vals) - 1}], expected [{src}]")
    return SimplicialOperator(vals, dst)


_CELLULAR_RE = re.compile(r"^\[(\{[\d,]*\})\s*;\s*(.*)\]$")


def parse_cellular(text):
    text = text.strip()
    if ":" not in text:
        raise ParseError("cellular operators need explicit endpoints :[m;p]->[n;q]")
    body, arrow = text.split(":", 1)
    m = re.match(r"^(\[[^\]]*\])->(\[[^\]]*\])$", arrow.strip())
    if not m:
        raise ParseError(f"bad cellular endpoints: {arrow!r}")
    src = parse_shape(m.group(1))
    dst = parse_shape(m.group(2))
    mm = _CELLULAR_RE.match(body.strip())
    if not mm:
        raise ParseError(f"bad cellular operator body: {body!r}")
    a = _parse_values(mm.group(1))
    if len(a) != src.n + 1 or a[-1] > dst.n or list(a) != sorted(a):
        raise ParseError(f"horizontal part of {text!r} is not a map [{src.n}]->[{dst.n}]")
    comp_text = mm.group(2).strip()
    comps = []
    if comp_text:
        depth = 0
        token = ""
        tokens = []
        for ch in comp_text:
            if ch == "," and depth == 0:
                tokens.append(token)
                token = ""
                continue
            if ch == "{":
                depth += 1
            if ch == "}":
                depth -= 1
            token += ch
        tokens.append(token)
        covered = list(range(a[0] + 1, a[-1] + 1))
        if len(tokens) != len(covered):
            raise ParseError(
                f"operator {text!r} lists {len(tokens)} components, expected {len(covered)}"
            )
        for tok, k in zip(tokens, covered):
            tok = tok.strip()
            if tok != "!":
                comps.append(_parse_values(tok))
            elif dst.q(k) == 0:
                comps.append((0,) * (src.q(interval_index(a, k)) + 1))
            else:
                raise ParseError(f"component {k} of {text!r} is ! but [{dst.q(k)}] is not [0]")
    return CellularOperator(src, dst, a, comps)


def parse_shuffle(text):
    text = text.strip()
    if not (text.startswith("<") and text.endswith(">")):
        raise ParseError(f"bad shuffle: {text!r}")
    body = text[1:-1]
    depth = 0
    split = None
    for i, ch in enumerate(body):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == "," and depth == 0:
            split = i
            break
    if split is None:
        raise ParseError(f"bad shuffle: {text!r}")
    a_vals = _parse_values(body[:split])
    b_vals = _parse_values(body[split + 1 :])
    m = max(a_vals)
    n = max(b_vals)
    if len(a_vals) != m + n + 1 or any(
        a + b != i for i, (a, b) in enumerate(zip(a_vals, b_vals))
    ):
        raise ParseError(f"not a shuffle: {text!r}")
    return Shuffle(m, n, SimplicialOperator(a_vals, m))


def _parse_label(text):
    m = re.match(r"^dh\^(\d+)$", text)
    if m:
        k = int(m.group(1))
        if k == 0:
            return HyperfaceLabel(HyperfaceLabel.H0)
        return HyperfaceLabel(HyperfaceLabel.HN, k=k)
    m = re.match(r"^dh\^\{(\d+);(<.*>)\}$", text)
    if m:
        return hlabel(int(m.group(1)), parse_shuffle(m.group(2)))
    m = re.match(r"^dv\^\{(\d+);(\d+)\}$", text)
    if m:
        return vlabel(int(m.group(1)), int(m.group(2)))
    raise ParseError(f"bad hyperface label: {text!r}")


def parse_hyperface_label(text, shape):
    """Parse a printed hyperface label; it must name a hyperface of the shape."""
    text = text.strip()
    label = _parse_label(text)
    if label not in dict(hyperfaces(shape)):
        raise ParseError(f"{text!r} is not a hyperface of {shape}")
    return label
