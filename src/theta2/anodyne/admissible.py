"""Admissibility of sets of inner hyperfaces.

A vertical set is admissible when it is not the whole set of inner
hyperfaces.  A mixed set additionally needs at most one index with a
proper nonempty shuffle slice, and that slice downward closed.
"""

from __future__ import annotations

import itertools

from ..delta import shuffle_leq, shuffles
from ..theta import HyperfaceLabel, ThetaError, inner_hyperface_labels


def shuffle_slice(labels, k):
    return {l.shuffle for l in labels if l.variant == HyperfaceLabel.HK and l.k == k}


def is_downward_closed(shfs, pool, leq=shuffle_leq):
    """Whether ``shfs`` holds every element of ``pool`` below one of its own.

    Upward closedness is downward closedness under the reversed order.
    """
    return all(t in shfs or not leq(t, s) for s in shfs for t in pool)


def is_admissible(shape, labels):
    """Return (admissible, k_S); k_S is None when no proper slice exists."""
    labels = set(labels)
    inner = set(inner_hyperface_labels(shape))
    bad = [l for l in labels if l not in inner]
    if bad:
        raise ThetaError(f"not inner hyperfaces of {shape}: {sorted(map(str, bad))}")
    if labels == inner:
        return False, None
    k_s = None
    for k in range(1, shape.n):
        sl = shuffle_slice(labels, k)
        full = set(shuffles(shape.q(k), shape.q(k + 1)))
        if sl and sl != full:
            if k_s is not None:
                return False, None
            k_s = k
    if k_s is not None:
        sl = shuffle_slice(labels, k_s)
        if not is_downward_closed(sl, shuffles(shape.q(k_s), shape.q(k_s + 1))):
            return False, k_s
    return True, k_s


def enumerate_admissible_sets(shape):
    """All admissible label sets, for the desk-scale acceptance sweeps."""
    inner = inner_hyperface_labels(shape)
    out = []
    for r in range(len(inner) + 1):
        for combo in itertools.combinations(inner, r):
            ok, _ = is_admissible(shape, combo)
            if ok:
                out.append(frozenset(combo))
    return out
