import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta2.delta import (
    CompositionError,
    DeltaError,
    Shuffle,
    SimplicialOperator,
    all_operators,
    compose_simplicial,
    identity,
    shuffle_corners,
    shuffle_covers,
    shuffle_leq,
    shuffles,
)


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


def op(values, dst):
    return SimplicialOperator(values, dst)


def operators_strategy(max_n=6):
    def build(draw):
        n = draw(st.integers(0, max_n))
        m = draw(st.integers(0, max_n))
        vals = sorted(draw(st.lists(st.integers(0, n), min_size=m + 1, max_size=m + 1)))
        return SimplicialOperator(vals, n)

    return st.composite(build)()


# -- operators -------------------------------------------------------------


def test_validation():
    with pytest.raises(DeltaError):
        op([], 1)
    with pytest.raises(DeltaError):
        op([0, 2, 1], 2)
    with pytest.raises(DeltaError):
        op([0, 3], 2)


def test_compose_identity_neutral():
    f = op([0, 2], 2)
    assert compose_simplicial(identity(1), f) == f
    assert compose_simplicial(f, identity(2)) == f


def test_compose_pointwise():
    # oracle: result(i) = f(g(i))
    f = op([0, 2], 2)
    g = op([0, 0, 1], 1)
    assert compose_simplicial(g, f) == op([0, 0, 2], 2)
    f = op([0, 1, 1, 2], 2)
    g = op([1, 2], 3)
    assert compose_simplicial(g, f) == op([1, 1], 2)


def test_compose_arity_error():
    with pytest.raises(CompositionError):
        compose_simplicial(op([0, 1], 2), op([0, 1], 1))


def test_classify():
    c = classify_simplicial(op([0, 2], 2))
    assert c == {"mono": True, "epi": False, "inert": False, "preserves_endpoints": True}
    c = classify_simplicial(op([1, 2], 3))
    assert c["mono"] and c["inert"] and not c["preserves_endpoints"]
    c = classify_simplicial(op([0, 0, 1], 1))
    assert c["epi"] and not c["mono"] and c["preserves_endpoints"]


def test_op_dual_values():
    assert op_dual_simplicial(op([0, 2], 2)) == op([0, 2], 2)
    assert op_dual_simplicial(op([0, 0, 1], 1)) == op([0, 1, 1], 1)
    assert op_dual_simplicial(identity(3)) == identity(3)


@given(operators_strategy())
def test_op_dual_involution(f):
    assert op_dual_simplicial(op_dual_simplicial(f)) == f


@given(st.data())
def test_op_dual_contravariant_compatible(data):
    # dual(f . g) = dual(f) . dual(g) for the pointwise duals
    a = data.draw(st.integers(0, 4))
    b = data.draw(st.integers(0, 4))
    c = data.draw(st.integers(0, 4))
    g = data.draw(st.sampled_from(all_operators(a, b)))
    f = data.draw(st.sampled_from(all_operators(b, c)))
    lhs = op_dual_simplicial(compose_simplicial(g, f))
    rhs = compose_simplicial(op_dual_simplicial(g), op_dual_simplicial(f))
    assert lhs == rhs


def test_ez_factor_examples():
    epi, mono = ez_factor_delta(op([0, 0, 2], 2))
    assert epi == op([0, 0, 1], 1)
    assert mono == op([0, 2], 2)
    f = op([0, 2, 3], 3)
    assert ez_factor_delta(f) == (identity(2), f)
    g = op([0, 0, 1], 1)
    assert ez_factor_delta(g) == (g, identity(1))


def test_ez_factor_unique_exhaustive():
    # brute-force oracle: the (epi, mono) split is the only one, for m,n <= 5
    for m in range(5):
        for n in range(5):
            for f in all_operators(m, n):
                splits = []
                for k in range(min(m, n) + 1):
                    for e in all_operators(m, k):
                        if not e.is_epi():
                            continue
                        for mo in all_operators(k, n):
                            if mo.is_mono() and compose_simplicial(e, mo) == f:
                                splits.append((e, mo))
                assert splits == [ez_factor_delta(f)]


# -- shuffles ---------------------------------------------------------------


def test_shuffle_counts():
    for m in range(6):
        for n in range(6):
            assert len(shuffles(m, n)) == math.comb(m + n, m)
    assert len(shuffles(0, 3)) == 1
    assert len(shuffles(3, 2)) == 10


def test_sh22_matches_hasse_figure():
    alphas = sorted(s.alpha.values for s in shuffles(2, 2))
    assert alphas == [
        (0, 0, 0, 1, 2),
        (0, 0, 1, 1, 2),
        (0, 0, 1, 2, 2),
        (0, 1, 1, 1, 2),
        (0, 1, 1, 2, 2),
        (0, 1, 2, 2, 2),
    ]


def sh(m, n, vals):
    return Shuffle(m, n, op(vals, m))


def test_corners_example():
    s = sh(3, 2, [0, 0, 1, 2, 2, 3])
    assert s.alpha_prime == op([0, 1, 1, 1, 2, 2], 2)
    lower, upper = shuffle_corners(s)
    assert lower == {3}
    assert upper == {1, 4}
    minimum = sh(2, 2, [0, 0, 0, 1, 2])
    assert shuffle_corners(minimum) == (frozenset(), frozenset({2}))


def test_maximum_shuffle_has_no_upper_corner():
    for m in range(5):
        for n in range(5):
            top = max(shuffles(m, n), key=lambda s: s.alpha.values)
            assert shuffle_corners(top)[1] == frozenset()


def test_leq_reflexive_and_cover_example():
    s = sh(2, 2, [0, 0, 1, 1, 2])
    assert shuffle_leq(s, s)
    preds, succs = shuffle_covers(s)
    assert [t.alpha.values for t in succs] == [(0, 0, 1, 2, 2), (0, 1, 1, 1, 2)]


def covers_oracle(m, n):
    """Cover pairs computed from the order alone."""
    elems = shuffles(m, n)
    pairs = set()
    for s in elems:
        for t in elems:
            if s != t and shuffle_leq(s, t):
                if not any(
                    u != s and u != t and shuffle_leq(s, u) and shuffle_leq(u, t)
                    for u in elems
                ):
                    pairs.add((s, t))
    return pairs


def test_cover_relation_matches_corners():
    for m in range(4):
        for n in range(4):
            oracle = covers_oracle(m, n)
            from_corners = set()
            for s in shuffles(m, n):
                preds, succs = shuffle_covers(s)
                assert len(preds) == len(shuffle_corners(s)[0])
                assert len(succs) == len(shuffle_corners(s)[1])
                for p in preds:
                    from_corners.add((p, s))
                for t in succs:
                    from_corners.add((s, t))
            assert oracle == from_corners


def test_predecessor_agrees_on_deleted_index():
    # flipping at a lower corner i only changes the path at i
    for s in shuffles(3, 2):
        lower, _ = shuffle_corners(s)
        preds, _ = shuffle_covers(s)
        for i in sorted(lower):
            matches = [
                b
                for b in preds
                if all(b.alpha.values[j] == s.alpha.values[j] for j in range(6) if j != i)
            ]
            assert len(matches) == 1


def test_point_classification_example():
    s = sh(3, 2, [0, 0, 1, 2, 2, 3])
    assert point_classification(s, 3) == LOWER_CORNER
    assert point_classification(s, 2) == ALPHA_SINGLETON
    assert point_classification(s, 1) == UPPER_CORNER
    assert point_classification(s, 4) == UPPER_CORNER
    with pytest.raises(DeltaError):
        point_classification(s, 0)


def test_point_classification_partitions():
    for m in range(5):
        for n in range(5):
            for s in shuffles(m, n):
                lower, upper = shuffle_corners(s)
                assert lower.isdisjoint(upper)
                for i in range(1, m + n):
                    tag = point_classification(s, i)
                    assert tag in {
                        LOWER_CORNER,
                        UPPER_CORNER,
                        ALPHA_SINGLETON,
                        ALPHA_PRIME_SINGLETON,
                    }
                    # exactly one: check the excluded predicates do not hold
                    if tag == LOWER_CORNER:
                        assert i in lower and i not in upper
                    if tag == UPPER_CORNER:
                        assert i in upper and i not in lower
                    if tag in (ALPHA_SINGLETON, ALPHA_PRIME_SINGLETON):
                        assert i not in lower and i not in upper


def test_degenerate_grids_have_unique_shuffle():
    assert len(shuffles(0, 0)) == 1
    assert len(shuffles(0, 4)) == 1
    assert len(shuffles(4, 0)) == 1


def test_elementary_ops():
    assert delta_op(1, 2) == op([0, 2], 2)
    assert sigma_op(0, 1) == op([0, 0, 1], 1)
    assert compose_simplicial(delta_op(0, 1), sigma_op(0, 0)) == identity(0)
