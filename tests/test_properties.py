"""Randomized property suites: axiom fuzzing, exact-division witnesses,
rotation invariants on large trees."""

from collections import defaultdict
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (bracket_vector, compose_sparse, mary_poly_sparse, mirror,
                     tree_poly_sparse, validate_sparse)
from tamari.compose import compose, decompose
from tamari.intervalposet import (IntervalPosetError, dec_forest, inc_forest,
                                  lower_tree, make_interval, upper_tree,
                                  validate)
from tamari.mtamari import LEAF, MAryTree, _mary_children, mary_tamari_poly
from tamari.poly import (B, ONE, Polynomial, X, _sized_fold, _to_polynomial,
                         delta, tamari_poly, tamari_poly_bivar,
                         tamari_poly_mirror)
from tamari.trees import EMPTY, BinaryTree, _postfix, rotate_right_at


# --- interval-poset axiom fuzzing -----------------------------------------

def naive_is_interval_poset(n, pairs):
    """Independent checker: DFS closure plus a full triple scan."""
    adj = defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)

    def reach(v):
        seen, stack = set(), [v]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    closed = {(a, b) for a in range(1, n + 1) for b in reach(a)}
    if any((v, v) in closed for v in range(1, n + 1)):
        return False
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for c in range(b + 1, n + 1):
                if (a, c) in closed and (b, c) not in closed:
                    return False
                if (c, a) in closed and (b, a) not in closed:
                    return False
    return True


@st.composite
def relation_sets(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    if n < 2:
        return n, []
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(
        lambda ab: ab[0] != ab[1])
    return n, draw(st.lists(pairs, max_size=12))


@settings(max_examples=300)
@given(relation_sets())
def test_validate_agrees_with_naive_scan(case):
    n, pairs = case
    expected = naive_is_interval_poset(n, pairs)
    try:
        poset = validate(n, pairs)
    except IntervalPosetError as err:
        assert not expected
        if err.axiom != "antisymmetry":
            # the reported witness must be a genuine violation
            a, b, c = err.witness
            assert a < b < c
            relations = {(p, q) for p in range(1, n + 1)
                         for q in _dfs_closure(pairs, p)}
            if err.axiom == "increasing-closure":
                assert (a, c) in relations and (b, c) not in relations
            else:
                assert (c, a) in relations and (b, a) not in relations
    else:
        assert expected
        # relations must be closed and contain the input pairs
        assert set(pairs) <= poset.relations


@st.composite
def raw_relation_sets(draw):
    """Pairs on 1..n with reflexive pairs and cycles allowed, and now and
    then one pair out of range."""
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                          max_size=14)) if n else []
    if n == 0 or draw(st.integers(0, 7)) == 0:
        stray = draw(st.tuples(st.integers(0, n + 1), st.integers(0, n + 1)))
        pairs.insert(draw(st.integers(0, len(pairs))), stray)
    return n, pairs


def _outcome(check, n, pairs):
    try:
        return "ok", check(n, pairs)
    except IntervalPosetError as err:
        return "axiom", err.axiom, err.witness, str(err)
    except ValueError as err:
        return "range", str(err)


@settings(max_examples=500)
@given(raw_relation_sets())
def test_validate_matches_sparse_reference(case):
    n, pairs = case
    outcome = _outcome(validate, n, pairs)
    if outcome[0] == "ok":
        outcome = "ok", outcome[1].relations
    assert outcome == _outcome(validate_sparse, n, pairs)


def _dfs_closure(pairs, start):
    adj = defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
    seen, stack = set(), [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


# --- exact division witness for the slope operator ------------------------

exponents = st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(0, 3))
polynomials = st.dictionaries(exponents, st.integers(-9, 9), max_size=8).map(
    Polynomial)


@settings(deadline=None)
@given(polynomials)
def test_delta_division_witness(g):
    assert (X - ONE) * delta(g) == g - g.subs(x=1)


@given(polynomials)
def test_polynomial_rendering_roundtrip(g):
    from tamari.poly import parse_polynomial
    assert parse_polynomial(str(g)) == g


@given(polynomials, polynomials)
def test_delta_is_linear(f, g):
    assert delta(f + g) == delta(f) + delta(g)


@given(polynomials, polynomials)
def test_bivariate_form_collapses_at_b_one(f, g):
    from tamari.poly import bilinear_B, bilinear_B_bivar
    assert bilinear_B_bivar(f, g).subs(b=1) == \
        bilinear_B(f.subs(b=1), g.subs(b=1))


@settings(max_examples=60)
@given(st.integers(1, 3), st.data())
def test_chained_form_is_multilinear(m, data):
    from helpers import multilinear_Bm
    args = [data.draw(polynomials) for _ in range(m + 1)]
    slot = data.draw(st.integers(0, m))
    f, g = data.draw(polynomials), data.draw(polynomials)
    with_sum, with_f, with_g = list(args), list(args), list(args)
    with_sum[slot] = f + g
    with_f[slot] = f
    with_g[slot] = g
    assert multilinear_Bm(with_sum) == \
        multilinear_Bm(with_f) + multilinear_Bm(with_g)


# --- rotation invariants on random trees ----------------------------------

@st.composite
def random_trees(draw, max_size=64, min_size=1):
    size = draw(st.integers(min_value=min_size, max_value=max_size))

    def build(k):
        if k == 0:
            return EMPTY
        left = draw(st.integers(0, k - 1))
        return BinaryTree(build(left), build(k - 1 - left))

    return build(size)


def rotate_left_at(tree, label):
    """Inverse rewrite x(A,y(B,C)) -> y(x(A,B),C), for round-trip checks."""

    def go(t, lo):
        root = lo + t.left.size
        if label < root:
            new_left = go(t.left, lo)
            return None if new_left is None else BinaryTree(new_left, t.right)
        if label > root:
            new_right = go(t.right, root + 1)
            return None if new_right is None else BinaryTree(t.left, new_right)
        if not t.right:
            return None
        y = t.right
        return BinaryTree(BinaryTree(t.left, y.left), y.right)

    return go(tree, 1)


@settings(max_examples=150)
@given(random_trees(), st.data())
def test_rotation_preserves_size_and_is_invertible(tree, data):
    label = data.draw(st.integers(1, tree.size))
    rotated = rotate_right_at(tree, label)
    if rotated is None:
        # no left subtree at that node; nothing to check
        return
    assert rotated.size == tree.size
    assert rotated != tree
    # some left rotation undoes it, so the rewrite was local and lossless
    assert any(rotate_left_at(rotated, k) == tree
               for k in range(1, tree.size + 1))


# --- interval endpoints on trees beyond the exhaustive sizes --------------

def naive_reduction(relations):
    """The pairs of a closed relation implied through no third vertex."""
    vertices = {v for pair in relations for v in pair}
    return {(a, b) for a, b in relations
            if not any((a, c) in relations and (c, b) in relations
                       for c in vertices)}


@settings(max_examples=100)
@given(random_trees(max_size=40), st.data())
def test_make_interval_keeps_its_endpoints(tree, data):
    upper = tree
    for _ in range(data.draw(st.integers(1, 6))):
        label = data.draw(st.integers(1, upper.size))
        upper = rotate_right_at(upper, label) or upper
    poset = make_interval(tree, upper)
    assert poset is not None
    assert lower_tree(poset) == tree and upper_tree(poset) == upper
    # the nearest-successor test agrees with closing the forests' union
    assert poset == validate(tree.size, dec_forest(tree).relations
                             | inc_forest(upper).relations)
    assert set(poset.covers()) == naive_reduction(poset.relations)
    if upper != tree:
        assert make_interval(upper, tree) is None
        with pytest.raises(IntervalPosetError):
            validate(tree.size, dec_forest(upper).relations
                     | inc_forest(tree).relations)
    assert lower_tree(dec_forest(tree)) == tree
    assert upper_tree(inc_forest(tree)) == tree


@settings(max_examples=100, deadline=None)
@given(random_trees(max_size=40), st.data())
def test_bracket_vectors_agree_with_make_interval(tree, data):
    upper = tree
    for _ in range(data.draw(st.integers(0, 6))):
        label = data.draw(st.integers(1, upper.size))
        upper = rotate_right_at(upper, label) or upper
    other = data.draw(random_trees(min_size=tree.size, max_size=tree.size))
    assert all(map(le, bracket_vector(tree), bracket_vector(upper)))
    for t, u in ((tree, upper), (upper, tree), (tree, other), (other, tree)):
        assert all(map(le, bracket_vector(t), bracket_vector(u))) \
            == (make_interval(t, u) is not None)


# --- packed tree polynomials against the sparse fold ----------------------

@settings(max_examples=100, deadline=None)
@given(random_trees(max_size=40))
def test_tree_polynomials_match_sparse_fold(tree):
    assert tamari_poly(tree) == tree_poly_sparse(tree)
    assert tamari_poly_mirror(tree) == tree_poly_sparse(mirror(tree))
    assert tamari_poly_mirror(tree) == tamari_poly(mirror(tree))
    assert tamari_poly_bivar(tree) == tree_poly_sparse(tree, weight=B)


@st.composite
def random_mary_trees(draw, max_size=40):
    arity = draw(st.integers(2, 4))

    def build(k):
        if k == 0:
            return LEAF
        cuts = sorted(draw(st.integers(0, k - 1)) for _ in range(arity - 1))
        sizes = [hi - lo for lo, hi in zip([0] + cuts, cuts + [k - 1])]
        return MAryTree(tuple(build(s) for s in sizes))

    return build(draw(st.integers(0, max_size)))


@settings(max_examples=100, deadline=None)
@given(random_mary_trees())
def test_mary_tamari_poly_matches_sparse_fold(tree):
    assert mary_tamari_poly(tree) == mary_poly_sparse(tree)


# --- the sized fold below its threshold: the same values, and moments that
# bound them -----------------------------------------------------------------

def sized_fold(code):
    """The root's value in the sized fold of a code of any size, as a
    polynomial, and its mu_0 bound."""
    power, packed, width, _, _, mu0, *_ = _sized_fold(code, 2 ** 16, False)
    return _to_polynomial([packed], width, power), mu0


@settings(max_examples=150)
@given(random_trees(max_size=60, min_size=0))
def test_moment_bound_covers_the_tree_counts(tree):
    below, above = tamari_poly(tree), tamari_poly_mirror(tree)
    for code, value in ((_postfix(tree), below),
                        (_postfix(mirror(tree)), above)):
        polynomial, bound = sized_fold(code)
        assert polynomial == X * value
        assert bound >= value.subs(x=1).constant()


@settings(max_examples=150)
@given(random_mary_trees())
def test_moment_bound_covers_the_path_counts(tree):
    below = mary_tamari_poly(tree)
    code = _postfix(tree, _mary_children)
    polynomial, bound = sized_fold(code)
    nodes = len(code) - code.count(0)
    assert polynomial * Polynomial.monomial(1, ey=nodes) == below
    assert bound >= below.subs(x=1, y=1).constant()


# --- incremental compose against the sparse reference ---------------------

@st.composite
def random_intervals(draw, max_size=30):
    lower = upper = draw(random_trees(max_size=max_size, min_size=0))
    for _ in range(draw(st.integers(0, 6)) if lower.size else 0):
        label = draw(st.integers(1, upper.size))
        upper = rotate_right_at(upper, label) or upper
    return make_interval(lower, upper)


@settings(max_examples=100)
@given(random_intervals(), random_intervals())
def test_compose_matches_sparse_reference_on_large_posets(i1, i2):
    terms = compose(i1, i2)
    assert [(t.n, t.relations) for t in terms] == compose_sparse(
        i1.n, i1.relations, i2.n, i2.relations)
    # each term adds the new vertex k1 + 1 below one more run of rows
    new = 1 << i1.n
    for before, after in zip(terms, terms[1:]):
        changed = [w for w, (a, b) in enumerate(zip(before, after))
                   if a != b]
        assert changed == list(range(changed[0], changed[-1] + 1))
        assert all(not before[w] & new
                   and after[w] == before[w] | new for w in changed)
    assert all(decompose(t) == (i1, i2) for t in terms)
