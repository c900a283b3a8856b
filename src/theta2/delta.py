"""The category of finite ordinals and the (m,n)-shuffle lattice.

A simplicial operator [m] -> [n] is an order-preserving map, stored by its
value list {a(0),...,a(m)}.  Shuffles are the surjections [m+n] ->> [m],
ordered pointwise; their grid-path corners index the cover relations.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


class DeltaError(ValueError):
    """Malformed simplicial data."""


class CompositionError(DeltaError):
    """Endpoint mismatch in a composition."""


class SimplicialOperator:
    """An order-preserving map [m] -> [n] given by its images.

    ``values`` has length m+1 and is non-decreasing with entries in [0, n].
    Instances are immutable and hashable.
    """

    __slots__ = ("values", "src", "dst", "_hash")

    def __init__(self, values, dst):
        values = tuple(values)
        if not values:
            raise DeltaError("operator needs at least one value (source [m], m >= 0)")
        if any(v < 0 or v > dst for v in values):
            raise DeltaError(f"values {values} out of range for codomain [{dst}]")
        if any(values[i] > values[i + 1] for i in range(len(values) - 1)):
            raise DeltaError(f"values {values} are not non-decreasing")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "src", len(values) - 1)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "_hash", hash((values, dst)))

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialOperator is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialOperator)
            and self.values == other.values
            and self.dst == other.dst
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self.src, self.dst, self.values) < (other.src, other.dst, other.values)

    def __repr__(self):
        return f"SimplicialOperator({self.values}, {self.dst})"

    def __str__(self):
        body = "{" + ",".join(str(v) for v in self.values) + "}"
        return f"{body}:[{self.src}]->[{self.dst}]"

    def short(self):
        return "{" + ",".join(str(v) for v in self.values) + "}"

    @property
    def image(self):
        return set(self.values)

    def is_mono(self):
        return all(self.values[i] < self.values[i + 1] for i in range(self.src))

    def is_epi(self):
        return self.image == set(range(self.dst + 1))

    def is_inert(self):
        return all(self.values[i + 1] == self.values[i] + 1 for i in range(self.src))

    def preserves_endpoints(self):
        return self.values[0] == 0 and self.values[-1] == self.dst


def identity(n):
    return SimplicialOperator(range(n + 1), n)


def delta_op(i, n):
    """The elementary face [n-1] -> [n] whose image omits i."""
    if not 0 <= i <= n or n < 1:
        raise DeltaError(f"no face operator delta^{i} into [{n}]")
    return SimplicialOperator([v for v in range(n + 1) if v != i], n)


def sigma_op(i, n):
    """The elementary degeneracy [n+1] -> [n] repeating i."""
    if not 0 <= i <= n:
        raise DeltaError(f"no degeneracy operator sigma^{i} out of [{n + 1}]")
    return SimplicialOperator([min(v, i) if v <= i else v - 1 for v in range(n + 2)], n)


def compose_simplicial(g, f):
    """The composite f ∘ g of g : [k] -> [m] followed by f : [m] -> [n]."""
    if g.dst != f.src:
        raise CompositionError(f"cannot compose {g} then {f}: endpoint mismatch")
    return SimplicialOperator((f.values[v] for v in g.values), f.dst)


def classify_simplicial(f):
    return {
        "mono": f.is_mono(),
        "epi": f.is_epi(),
        "inert": f.is_inert(),
        "preserves_endpoints": f.preserves_endpoints(),
    }


def op_dual_simplicial(f):
    """The dual operator i |-> n - f(m - i); an involution."""
    m, n = f.src, f.dst
    return SimplicialOperator((n - f.values[m - i] for i in range(m + 1)), n)


def ez_factor_delta(f):
    """Unique epi-mono factorization f = mono ∘ epi in the ordinal category."""
    distinct = sorted(set(f.values))
    rank = {v: r for r, v in enumerate(distinct)}
    epi = SimplicialOperator((rank[v] for v in f.values), len(distinct) - 1)
    mono = SimplicialOperator(distinct, f.dst)
    return epi, mono


@lru_cache(maxsize=None)
def all_operators(m, n):
    """All operators [m] -> [n], lexicographically ordered by values."""
    return tuple(
        SimplicialOperator(vs, n)
        for vs in itertools.combinations_with_replacement(range(n + 1), m + 1)
    )


class Shuffle:
    """An (m,n)-shuffle, keyed by the surjection alpha : [m+n] ->> [m].

    The partner alpha'(i) = i - alpha(i) is derived.  Shuffles of fixed
    (m, n) are ordered pointwise on alpha.
    """

    __slots__ = ("m", "n", "alpha", "_hash")

    def __init__(self, m, n, alpha):
        if alpha.src != m + n or alpha.dst != m:
            raise DeltaError(f"shuffle alpha must be [{m + n}]->[{m}], got {alpha}")
        if not alpha.is_epi():
            raise DeltaError(f"shuffle alpha must be surjective, got {alpha}")
        # surjectivity forces unit steps, so alpha' is automatically monotone
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "_hash", hash((m, n, alpha)))

    def __setattr__(self, name, value):
        raise AttributeError("Shuffle is immutable")

    @property
    def alpha_prime(self):
        return SimplicialOperator(
            (i - self.alpha.values[i] for i in range(self.m + self.n + 1)), self.n
        )

    def __eq__(self, other):
        return (
            isinstance(other, Shuffle)
            and (self.m, self.n) == (other.m, other.n)
            and self.alpha == other.alpha
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self.m, self.n, self.alpha.values) < (other.m, other.n, other.alpha.values)

    def __repr__(self):
        return f"Shuffle({self.m}, {self.n}, {self.alpha!r})"

    def __str__(self):
        return f"<{self.alpha.short()},{self.alpha_prime.short()}>"


@lru_cache(maxsize=None)
def shuffles(m, n):
    """All (m,n)-shuffles, lexicographically ordered by alpha values."""
    if m < 0 or n < 0:
        raise DeltaError("shuffle grid sides must be non-negative")
    out = []
    # alpha is determined by the set of indices where it steps up
    for up in itertools.combinations(range(1, m + n + 1), m):
        vals = [0] * (m + n + 1)
        for i in range(1, m + n + 1):
            vals[i] = vals[i - 1] + (1 if i in up else 0)
        out.append(Shuffle(m, n, SimplicialOperator(vals, m)))
    out.sort()
    return tuple(out)


def shuffle_corners(s):
    """Lower and upper corner index sets of the grid path."""
    a = s.alpha.values
    lower, upper = set(), set()
    for i in range(1, s.m + s.n):
        if a[i + 1] == a[i] == a[i - 1] + 1:
            lower.add(i)
        elif a[i + 1] == a[i] + 1 == a[i - 1] + 1:
            upper.add(i)
    return frozenset(lower), frozenset(upper)


def shuffle_leq(s, t):
    if (s.m, s.n) != (t.m, t.n):
        raise DeltaError("cannot compare shuffles of different grids")
    return all(x <= y for x, y in zip(s.alpha.values, t.alpha.values))


def _flip(s, i, down):
    vals = list(s.alpha.values)
    vals[i] += -1 if down else 1
    return Shuffle(s.m, s.n, SimplicialOperator(vals, s.m))


def shuffle_covers(s):
    """Immediate predecessors and successors in the shuffle lattice.

    Predecessors biject with the lower corners, successors with the upper
    ones; the flipped shuffle agrees with s away from the corner index.
    """
    lower, upper = shuffle_corners(s)
    preds = tuple(sorted(_flip(s, i, down=True) for i in lower))
    succs = tuple(sorted(_flip(s, i, down=False) for i in upper))
    return preds, succs


LOWER_CORNER = "lower_corner"
UPPER_CORNER = "upper_corner"
ALPHA_SINGLETON = "alpha_singleton"
ALPHA_PRIME_SINGLETON = "alphaprime_singleton"


def point_classification(s, i):
    """Classify interior index i of the shuffle path; exactly one tag applies."""
    if not 1 <= i <= s.m + s.n - 1:
        raise DeltaError(f"index {i} out of range for ({s.m},{s.n})-shuffle")
    lower, upper = shuffle_corners(s)
    if i in lower:
        return LOWER_CORNER
    if i in upper:
        return UPPER_CORNER
    a = s.alpha.values
    if a.count(a[i]) == 1:
        return ALPHA_SINGLETON
    ap = s.alpha_prime.values
    if ap.count(ap[i]) == 1:
        return ALPHA_PRIME_SINGLETON
    raise AssertionError(f"point {i} of {s} escaped the four-way classification")
