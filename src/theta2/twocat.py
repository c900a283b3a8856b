"""Finite strict 2-categories given by explicit tables, and their nerves.

Cells of the nerve at [n;q] are 2-functors out of the free shape: an
object chain plus, for each hom slot, a path of q_k composable 2-cells.
These validate the representables and the interval suspension against
their categorical descriptions.
"""

from __future__ import annotations

import itertools

from .cellset import Cell, TruncatedCellularSet
from .theta import ThetaError


class Finite2Category:
    """A strict 2-category with finite tables.

    one_cells: name -> (src_obj, dst_obj)
    two_cells: name -> (src_1cell, dst_1cell)   (parallel)
    hcomp1[(g, f)] = g after f                  (f: a->b, g: b->c)
    vcomp[(beta, alpha)] = beta after alpha     (alpha: f=>g, beta: g=>h)
    hcomp2[(beta, alpha)] = beta * alpha        (whiskered alongside hcomp1)
    """

    def __init__(self, objects, one_cells, two_cells, id1, id2, hcomp1, vcomp, hcomp2):
        self.objects = tuple(objects)
        self.one_cells = dict(one_cells)
        self.two_cells = dict(two_cells)
        self.id1 = dict(id1)
        self.id2 = dict(id2)
        self.hcomp1 = dict(hcomp1)
        self.vcomp = dict(vcomp)
        self.hcomp2 = dict(hcomp2)

    def one_cells_between(self, a, b):
        return sorted(f for f, (s, t) in self.one_cells.items() if (s, t) == (a, b))

    def two_cells_from(self, f):
        return sorted(t for t, (s, _) in self.two_cells.items() if s == f)

    def validate(self):
        """Check the finite-table axioms; raises ThetaError on the first failure."""
        try:
            return self._check_axioms()
        except KeyError as exc:
            raise ThetaError(f"2-category has no table entry for {exc.args[0]!r}") from None

    def _check_axioms(self):
        for x in self.objects:
            if self.id1[x] not in self.one_cells:
                raise ThetaError(f"missing identity 1-cell at {x}")
        for f, (a, b) in self.one_cells.items():
            i = self.id2[f]
            if self.two_cells[i] != (f, f):
                raise ThetaError(f"id2[{f}] is not an endo 2-cell")
            if self.hcomp1[(f, self.id1[a])] != f or self.hcomp1[(self.id1[b], f)] != f:
                raise ThetaError(f"1-cell unit law fails at {f}")
        # associativity and unit of vertical composition
        for b, (f, g) in self.two_cells.items():
            if self.vcomp[(b, self.id2[f])] != b or self.vcomp[(self.id2[g], b)] != b:
                raise ThetaError(f"vertical unit law fails at {b}")
        for b1, (f1, g1) in self.two_cells.items():
            for b2, (f2, g2) in self.two_cells.items():
                if g1 != f2:
                    continue
                for b3, (f3, g3) in self.two_cells.items():
                    if g2 != f3:
                        continue
                    lhs = self.vcomp[(b3, self.vcomp[(b2, b1)])]
                    rhs = self.vcomp[(self.vcomp[(b3, b2)], b1)]
                    if lhs != rhs:
                        raise ThetaError("vertical associativity fails")
        # horizontal associativity on 1-cells
        for f, (a, b) in self.one_cells.items():
            for g, (b2, c) in self.one_cells.items():
                if b != b2:
                    continue
                for h, (c2, d) in self.one_cells.items():
                    if c != c2:
                        continue
                    if self.hcomp1[(h, self.hcomp1[(g, f)])] != self.hcomp1[
                        (self.hcomp1[(h, g)], f)
                    ]:
                        raise ThetaError("horizontal associativity fails")
        # interchange
        for b1, (f1, g1) in self.two_cells.items():
            a, b = self.one_cells[f1]
            for b2, (f2, g2) in self.two_cells.items():
                if self.one_cells[f2][0] != b:
                    continue
                for c1, (h1, k1) in self.two_cells.items():
                    if h1 != g1:
                        continue
                    for c2, (h2, k2) in self.two_cells.items():
                        if h2 != g2:
                            continue
                        lhs = self.hcomp2[
                            (self.vcomp[(c2, b2)], self.vcomp[(c1, b1)])
                        ]
                        rhs = self.vcomp[
                            (self.hcomp2[(c2, c1)], self.hcomp2[(b2, b1)])
                        ]
                        if lhs != rhs:
                            raise ThetaError("interchange fails")
        return True


def locally_thin_2cat(objects, one_cells, two_cells, id1, hcomp1):
    """A 2-category with at most one 2-cell between any two 1-cells.

    Its identity 2-cells and both compositions of 2-cells are forced, since
    each is the unique 2-cell between its ends, so they are derived here.
    """
    between = {ends: t for t, ends in two_cells.items()}
    if len(between) != len(two_cells):
        raise ThetaError("two 2-cells share their ends; the 2-category is not locally thin")
    id2 = {f: between[(f, f)] for f in one_cells}
    vcomp = {}
    hcomp2 = {}
    for t1, (f1, g1) in two_cells.items():
        for t2, (f2, g2) in two_cells.items():
            if g1 == f2:
                vcomp[(t2, t1)] = between[(f1, g2)]
            if (f2, f1) in hcomp1:
                hcomp2[(t2, t1)] = between[(hcomp1[(f2, f1)], hcomp1[(g2, g1)])]
    return Finite2Category(objects, one_cells, two_cells, id1, id2, hcomp1, vcomp, hcomp2)


def free_cell_2cat(shape):
    """The free 2-category on the shape: hom(k,l) is a product poset."""
    objects = tuple(range(shape.n + 1))
    one_cells = {}
    two_cells = {}
    for k in objects:
        for l in objects[k:]:
            points = list(itertools.product(*(range(q + 1) for q in shape.qs[k:l])))
            for x in points:
                one_cells[("f", k, l, x)] = (k, l)
                for y in points:
                    if all(a <= b for a, b in zip(x, y)):
                        two_cells[("t", k, l, x, y)] = (("f", k, l, x), ("f", k, l, y))
    id1 = {k: ("f", k, k, ()) for k in objects}
    hcomp1 = {
        (g, f): ("f", a, c, f[3] + g[3])
        for f, (a, b) in one_cells.items()
        for g, (b2, c) in one_cells.items()
        if b == b2
    }
    return locally_thin_2cat(objects, one_cells, two_cells, id1, hcomp1)


def chaotic_2cat(objects=("d", "f")):
    """The chaotic category on a set, viewed as a locally discrete 2-category."""
    objects = tuple(objects)
    one_cells = {("f", a, b): (a, b) for a in objects for b in objects}
    two_cells = {("t", a, b): (f, f) for f, (a, b) in one_cells.items()}
    id1 = {a: ("f", a, a) for a in objects}
    triples = itertools.product(objects, repeat=3)
    hcomp1 = {(("f", b, c), ("f", a, b)): ("f", a, c) for a, b, c in triples}
    return locally_thin_2cat(objects, one_cells, two_cells, id1, hcomp1)


def suspension_of_chaotic():
    """Two objects 0 -> 1 with hom(0,1) the chaotic category on two 1-cells.

    The nerve of this 2-category is the interval suspension.
    """
    objects = (0, 1)
    one_cells = {
        ("i", 0): (0, 0),
        ("i", 1): (1, 1),
        ("f", "d"): (0, 1),
        ("f", "f"): (0, 1),
    }
    two_cells = {
        ("t", f, g): (f, g)
        for f in one_cells
        for g in one_cells
        if f == g or f[0] == g[0] == "f"
    }
    id1 = {0: ("i", 0), 1: ("i", 1)}
    # every composable pair has an identity side
    hcomp1 = {(f, id1[a]): f for f, (a, _) in one_cells.items()}
    hcomp1.update({(id1[b], f): f for f, (_, b) in one_cells.items()})
    return locally_thin_2cat(objects, one_cells, two_cells, id1, hcomp1)


class Nerve(TruncatedCellularSet):
    """Cells at [n;q]: an object chain plus per-slot 2-cell paths.  Its runs
    give each hom one row counting its non-identity 2-cells, and a label
    that steps unless the hom reduces to its identity 1-cell."""

    def __init__(self, cat, bound):
        super().__init__(bound)
        self.cat = cat
        self._path_memo = {}

    def _paths(self, a, b, length):
        """Paths of `length` composable 2-cells in hom(a, b), as
        (one_cells tuple, two_cells tuple)."""
        key = (a, b, length)
        if key in self._path_memo:
            return self._path_memo[key]
        out = []
        for f0 in self.cat.one_cells_between(a, b):
            stack = [((f0,), ())]
            while stack:
                fs, ts = stack.pop()
                if len(ts) == length:
                    out.append((fs, ts))
                    continue
                for t in self.cat.two_cells_from(fs[-1]):
                    g = self.cat.two_cells[t][1]
                    stack.append((fs + (g,), ts + (t,)))
        result = tuple(sorted(out))
        self._path_memo[key] = result
        return result

    def _compute_cells(self, shape):
        out = []
        chains = itertools.product(self.cat.objects, repeat=shape.n + 1)
        for objs in chains:
            pools = [
                self._paths(objs[k - 1], objs[k], shape.q(k))
                for k in range(1, shape.n + 1)
            ]
            for paths in itertools.product(*pools):
                out.append((objs, tuple(paths)))
        return out

    def _vcompose(self, f_path, t_path, lo, hi):
        """Vertical composite of the subpath between positions lo <= hi."""
        if lo == hi:
            return self.cat.id2[f_path[lo]]
        acc = t_path[lo]
        for i in range(lo + 1, hi):
            acc = self.cat.vcomp[(t_path[i], acc)]
        return acc

    def _act(self, cell, op):
        objs, paths = cell.payload
        a = op.x
        new_objs = tuple(objs[v] for v in a)
        new_paths = []
        for i in range(1, op.src.n + 1):
            lo, hi = a[i - 1], a[i]
            p = op.src.q(i)
            # horizontal composite across slots lo+1..hi of vertical composites
            fs, ts = [], []
            for step in range(p + 1):
                two = None
                for j in range(lo + 1, hi + 1):
                    comp = op.component_at(j)
                    f_path, t_path = paths[j - 1]
                    if step == 0:
                        piece = self.cat.id2[f_path[comp[0]]]
                    else:
                        piece = self._vcompose(f_path, t_path, comp[step - 1], comp[step])
                    two = piece if two is None else self.cat.hcomp2[(piece, two)]
                if two is None:
                    ident = self.cat.id1[objs[lo]]
                    two = self.cat.id2[ident]
                src1, dst1 = self.cat.two_cells[two]
                if step == 0:
                    fs.append(src1)
                else:
                    fs.append(dst1)
                    ts.append(two)
            new_paths.append((tuple(fs), tuple(ts)))
        return Cell(op.src, (new_objs, tuple(new_paths)))

    def _runs(self, cell):
        objs, paths = cell.payload
        labels, rows = [0], []
        for a, (fs, ts) in zip(objs, paths):
            steps = (t != self.cat.id2[f] for f, t in zip(fs, ts))
            row = tuple(itertools.accumulate(steps, initial=0))
            labels.append(labels[-1] + (row[-1] > 0 or fs[0] != self.cat.id1[a]))
            rows.append((row,))
        return labels, rows

    def __repr__(self):
        return f"Nerve(bound={self.bound})"


def nerve(cat, bound):
    return Nerve(cat, bound)


# -- text format ----------------------------------------------------------


def parse_2cat_text(text):
    """Parse the line-oriented 2-category format.

    objects a b
    onecell f : a -> b
    id1 a = f
    twocell t : f => g
    id2 f = t
    comp1 g . f = h          (g after f)
    vcomp b . a = c          (b after a)
    comp2 b * a = c          (b alongside a)
    """
    objects = []
    one_cells = {}
    two_cells = {}
    id1 = {}
    id2 = {}
    hcomp1 = {}
    vcomp = {}
    hcomp2 = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "objects":
                objects.extend(rest.split())
            elif head == "onecell":
                name, arrow = rest.split(":", 1)
                src, dst = arrow.split("->")
                one_cells[name.strip()] = (src.strip(), dst.strip())
            elif head == "twocell":
                name, arrow = rest.split(":", 1)
                src, dst = arrow.split("=>")
                two_cells[name.strip()] = (src.strip(), dst.strip())
            elif head == "id1":
                obj, name = rest.split("=")
                id1[obj.strip()] = name.strip()
            elif head == "id2":
                cell, name = rest.split("=")
                id2[cell.strip()] = name.strip()
            elif head in ("comp1", "vcomp", "comp2"):
                lhs, result = rest.split("=")
                sep = "." if head in ("comp1", "vcomp") else "*"
                later, earlier = lhs.split(sep)
                key = (later.strip(), earlier.strip())
                if head == "comp1":
                    hcomp1[key] = result.strip()
                elif head == "vcomp":
                    vcomp[key] = result.strip()
                else:
                    hcomp2[key] = result.strip()
            else:
                raise ValueError(head)
        except ValueError:
            raise ThetaError(f"line {lineno}: cannot parse {line!r}") from None
    return Finite2Category(objects, one_cells, two_cells, id1, id2, hcomp1, vcomp, hcomp2)


def parse_2cat_file(path):
    try:
        with open(path) as fh:
            return parse_2cat_text(fh.read())
    except OSError as exc:
        raise ThetaError(f"cannot read 2-category file {path}: {exc.strerror}") from None
    except ValueError as exc:  # a parse error, or bytes that are not text
        raise ThetaError(f"{path}: {exc}") from None


def format_2cat(cat):
    """Serialize with generated identifiers (internal names may be tuples)."""
    obj = {x: f"o{i}" for i, x in enumerate(cat.objects)}
    one = {f: f"f{i}" for i, f in enumerate(sorted(cat.one_cells, key=str))}
    two = {t: f"t{i}" for i, t in enumerate(sorted(cat.two_cells, key=str))}
    lines = ["objects " + " ".join(obj[x] for x in cat.objects)]
    for f, (a, b) in sorted(cat.one_cells.items(), key=str):
        lines.append(f"onecell {one[f]} : {obj[a]} -> {obj[b]}")
    for x, f in sorted(cat.id1.items(), key=str):
        lines.append(f"id1 {obj[x]} = {one[f]}")
    for t, (f, g) in sorted(cat.two_cells.items(), key=str):
        lines.append(f"twocell {two[t]} : {one[f]} => {one[g]}")
    for f, t in sorted(cat.id2.items(), key=str):
        lines.append(f"id2 {one[f]} = {two[t]}")
    for (g, f), h in sorted(cat.hcomp1.items(), key=str):
        lines.append(f"comp1 {one[g]} . {one[f]} = {one[h]}")
    for (b, a), c in sorted(cat.vcomp.items(), key=str):
        lines.append(f"vcomp {two[b]} . {two[a]} = {two[c]}")
    for (b, a), c in sorted(cat.hcomp2.items(), key=str):
        lines.append(f"comp2 {two[b]} * {two[a]} = {two[c]}")
    return "\n".join(lines) + "\n"
