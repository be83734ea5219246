from functools import cache
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (bracket_vector, oracle_trees_in_interval,
                     sylvester_classes, tree_leq_pairs, tree_upsets)
from tamari.compose import (compose, decompose, enumerate_interval_posets,
                            initial_interval_sum)
from tamari.intervalposet import (IntervalPoset, IntervalPosetError,
                                  _lower_vector, _upper_vector, dec_forest,
                                  inc_forest, interval_contains,
                                  interval_literals, intersect,
                                  is_decreasing_refinement,
                                  is_increasing_refinement, linear_extensions,
                                  lower_tree, make_interval, stat_monomial,
                                  trees_in_interval, upper_tree, validate)
from tamari.order import CapacityError, coinv, format_permutation, weak_leq
from tamari.poly import Polynomial, chapoton_count, parse_polynomial
from tamari.trees import enumerate_trees, format_tree, parse_tree

PAIR4_LOWER = parse_tree("[[[_,[_,_]],_],_]")
PAIR4_UPPER = parse_tree("[_,[[_,_],[_,_]]]")
TREE10 = parse_tree("[[_,[[_,_],[_,_]]],[[_,_],[[_,_],[_,_]]]]")
TREE11 = parse_tree("[[[_,_],[[_,_],[_,_]]],[_,[[_,_],[_,[_,_]]]]]")
LEFT_COMB_3 = parse_tree("[[[_,_],_],_]")
RIGHT_COMB_3 = parse_tree("[_,[_,[_,_]]]")


@cache
def all_posets(n):
    return enumerate_interval_posets(n)


def test_every_producer_returns_a_poset_sized_by_its_rows():
    # the tracer counts posets by isinstance; len(p) is the size
    tree = parse_tree("[[_,_],[_,[_,_]]]")
    pair = make_interval(PAIR4_LOWER, PAIR4_UPPER)
    produced = [IntervalPoset(0), IntervalPoset(4, [(2, 1), (2, 3)]),
                IntervalPoset.from_text("n=3\n1<2"), validate(3, [(2, 1)]),
                pair, inc_forest(tree), dec_forest(tree),
                intersect(pair, pair), *compose(pair, pair),
                *decompose(pair), *enumerate_interval_posets(0),
                *enumerate_interval_posets(4), *initial_interval_sum(tree)]
    for poset in produced:
        assert type(poset) is IntervalPoset
        assert len(poset) == poset.n
    assert [p.n for p in decompose(pair)] == [0, 3]


def test_a_poset_is_a_value_of_its_rows_alone():
    p, q = all_posets(3)[:2]
    twin = validate(3, p.relations)
    assert p == twin and hash(p) == hash(twin) and p is not twin
    assert len({p, twin, q}) == 2 and p != q
    assert p != tuple(p) and tuple(p) != p and not p == tuple(p)
    with pytest.raises(TypeError):
        sorted([p, q])
    empty = IntervalPoset(0)
    assert bool(empty) and len(empty) == 0  # test emptiness with len


def test_validate_accepts_four_node_pair_poset():
    poset = validate(4, [(2, 1), (2, 3)])
    assert poset.relations == {(2, 1), (2, 3)}
    assert poset.to_text() == "n=4\n2<1,2<3"


def test_validate_rejects_violations():
    with pytest.raises(IntervalPosetError) as err:
        validate(3, [(1, 3)])
    assert err.value.axiom == "increasing-closure"
    assert err.value.witness == (1, 2, 3)
    with pytest.raises(IntervalPosetError) as err:
        validate(3, [(3, 1)])
    assert err.value.axiom == "decreasing-closure"
    assert err.value.witness == (1, 2, 3)
    with pytest.raises(IntervalPosetError) as err:
        validate(2, [(1, 2), (2, 1)])
    assert err.value.axiom == "antisymmetry"
    assert err.value.witness == (1, 2)
    with pytest.raises(IntervalPosetError) as err:
        IntervalPoset.from_text("n=3\n1<2,2<1")
    assert err.value.witness == (1, 2)
    assert "cycle through 1 and 2" in str(err.value)
    with pytest.raises(ValueError):
        validate(2, [(1, 3)])


@pytest.mark.parametrize("call, message", [
    (lambda: validate(-1, ()), "size must be non-negative"),
    (lambda: IntervalPoset(-2), "size must be non-negative"),
    (lambda: interval_contains(IntervalPoset(2), IntervalPoset(3)),
     "posets must have the same size"),
], ids=["validate", "constructor", "interval_contains"])
def test_size_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("n, relations, text", [
    (0, (), "<IntervalPoset n=0 >"),
    (3, [(1, 2)], "<IntervalPoset n=3 1<2>"),
    (4, [(2, 1), (2, 3)], "<IntervalPoset n=4 2<1,2<3>"),
])
def test_poset_repr(n, relations, text):
    assert repr(IntervalPoset(n, relations)) == text


def test_validate_empty_poset():
    poset = validate(0, [])
    assert poset.n == 0 and not poset.relations


def test_text_format_roundtrip():
    for n in range(5):
        for poset in all_posets(n):
            assert IntervalPoset.from_text(poset.to_text()) == poset
    with pytest.raises(ValueError):
        IntervalPoset.from_text("2<1")
    with pytest.raises(ValueError):
        IntervalPoset.from_text("n=3\n2-1")
    with pytest.raises(ValueError, match="one line of relations, got 2"):
        IntervalPoset.from_text("n=3\n1<2\n2<3")


@pytest.mark.parametrize("text", [
    "n=1_0", "n=+2", "n= 3", "n=-1", "n=٣", "n=3\n٢<1",
    "n=3\n1<٢", "n=3\n+3<1", "n=3\n1_2<3", "n=3\n1< 2", "n=3\n²<1",
], ids=["underscore", "plus", "space", "minus", "arabic-indic-n",
        "arabic-indic-left", "arabic-indic-right", "plus-relation",
        "underscore-relation", "space-relation", "superscript"])
def test_from_text_rejects_what_int_would_guess(text):
    with pytest.raises(ValueError, match="'n=<int>' line|malformed relation"):
        IntervalPoset.from_text(text)


def test_inc_forest_ten_node_tree():
    forest = inc_forest(TREE10)
    assert forest.covers() == [(1, 5), (2, 3), (3, 5), (4, 5), (6, 7), (8, 9)]
    assert all(a < b for a, b in forest.relations)


def test_inc_forest_eleven_node_tree():
    forest = inc_forest(TREE11)
    assert forest.covers() == [(1, 2), (2, 6), (3, 4), (4, 6), (5, 6), (8, 9)]
    # greedy check of the coinversion-maximal extension
    from helpers import greedy_max_extension
    assert greedy_max_extension(11, forest.relations) == \
        (11, 10, 8, 9, 7, 5, 3, 4, 1, 2, 6)


def test_inc_forest_single_node():
    forest = inc_forest(parse_tree("[_,_]"))
    assert forest.n == 1 and not forest.relations


def test_dec_forest_examples():
    forest = dec_forest(TREE10)
    assert forest.covers() == [(2, 1), (3, 1), (4, 3), (6, 5), (7, 5),
                               (8, 7), (9, 7), (10, 9)]
    assert all(a > b for a, b in forest.relations)
    # only the left comb has no decreasing relations (no node has a
    # non-empty right subtree); the right comb gives the full chain
    assert not dec_forest(LEFT_COMB_3).relations
    assert dec_forest(RIGHT_COMB_3).relations == {(2, 1), (3, 1), (3, 2)}
    assert dec_forest(PAIR4_LOWER).relations == {(2, 1)}


def test_directed_parts_are_forests():
    # within each directed part, every vertex has at most one cover parent
    def cover_parents_unique(pairs):
        covers = {(a, b) for a, b in pairs
                  if not any((a, c) in pairs and (c, b) in pairs
                             for c in range(1, 12))}
        children = [a for a, _ in covers]
        return len(children) == len(set(children))

    for n in range(6):
        for poset in all_posets(n):
            relations = poset.relations
            assert cover_parents_unique({(a, b) for a, b in relations if a > b})
            assert cover_parents_unique({(a, b) for a, b in relations if a < b})


def test_directed_parts_split_the_relations():
    # the increasing relations are the upper tree's increasing forest and
    # the decreasing ones the lower tree's decreasing forest
    for n in range(7):
        for poset in all_posets(n):
            relations = poset.relations
            assert {(a, b) for a, b in relations if a < b} == \
                inc_forest(upper_tree(poset)).relations
            assert {(a, b) for a, b in relations if a > b} == \
                dec_forest(lower_tree(poset)).relations


def test_prec_membership():
    # bit b-1 of row a-1 is set iff a precedes b
    poset = validate(4, [(2, 1), (2, 3)])
    assert list(poset) == [0, 0b101, 0, 0]
    assert {(2, 1), (2, 3)} == poset.relations


def test_forests_are_valid_interval_posets():
    for n in range(7):
        for t in enumerate_trees(n):
            for forest in (inc_forest(t), dec_forest(t)):
                assert validate(forest.n, forest.relations) == forest


def test_make_interval_four_node_pair():
    poset = make_interval(PAIR4_LOWER, PAIR4_UPPER)
    assert poset is not None
    assert poset.relations == {(2, 1), (2, 3)}


def test_make_interval_identity_gives_bst_poset():
    t = PAIR4_LOWER
    poset = make_interval(t, t)
    assert poset is not None
    assert poset.relations == dec_forest(t).relations | inc_forest(t).relations


def test_make_interval_incomparable():
    assert make_interval(RIGHT_COMB_3, LEFT_COMB_3) is None
    with pytest.raises(ValueError):
        make_interval(LEFT_COMB_3, parse_tree("[_,_]"))


def test_make_interval_defined_iff_oracle_leq():
    for n in range(7):
        leq = tree_leq_pairs(n)
        for t in enumerate_trees(n):
            for u in enumerate_trees(n):
                poset = make_interval(t, u)
                assert (poset is not None) == ((t, u) in leq)


def test_lower_upper_tree_roundtrip():
    for n in range(7):
        for t, u in tree_leq_pairs(n):
            poset = make_interval(t, u)
            assert lower_tree(poset) == t
            assert upper_tree(poset) == u


def test_lower_tree_of_relation_free_poset():
    # the unique tree with an empty decreasing forest is the left comb,
    # the Tamari minimum; the empty increasing forest gives the right comb
    poset = IntervalPoset(3)
    assert lower_tree(poset) == LEFT_COMB_3
    assert upper_tree(poset) == RIGHT_COMB_3


def test_intersect():
    for n in range(5):
        for poset in all_posets(n):
            assert intersect(poset, poset) == poset
    # [T, max] meet [min, T] is [T, T]
    for n in range(5):
        trees = enumerate_trees(n)
        leq = tree_leq_pairs(n)
        bottom = next(t for t in trees if all((t, u) in leq for u in trees))
        top = next(t for t in trees if all((u, t) in leq for u in trees))
        for t in trees:
            upper_half = make_interval(t, top)
            lower_half = make_interval(bottom, t)
            met = intersect(upper_half, lower_half)
            assert met is not None
            assert lower_tree(met) == t and upper_tree(met) == t
    # disjoint singleton intervals meet in nothing
    a, b = enumerate_trees(3)[0], enumerate_trees(3)[1]
    assert intersect(make_interval(a, a), make_interval(b, b)) is None
    with pytest.raises(ValueError):
        intersect(IntervalPoset(2), IntervalPoset(3))


def test_interval_contains_matches_tamari_semantics():
    for n in range(5):
        leq = tree_leq_pairs(n)
        posets = all_posets(n)
        ends = {p: (lower_tree(p), upper_tree(p)) for p in posets}
        for outer in posets:
            for inner in posets:
                expected = ((ends[outer][0], ends[inner][0]) in leq
                            and (ends[inner][1], ends[outer][1]) in leq)
                assert interval_contains(outer, inner) == expected
        assert all(interval_contains(p, p) for p in posets)
    full = IntervalPoset(3)
    for t in enumerate_trees(3):
        assert interval_contains(full, make_interval(t, t))


def test_refinements_match_endpoint_semantics():
    for n in range(5):
        leq = tree_leq_pairs(n)
        posets = all_posets(n)
        ends = {p: (lower_tree(p), upper_tree(p)) for p in posets}
        for base in posets:
            assert is_decreasing_refinement(base, base)
            assert is_increasing_refinement(base, base)
            for refined in posets:
                dec_expected = (ends[base][1] == ends[refined][1]
                                and (ends[base][0], ends[refined][0]) in leq)
                inc_expected = (ends[base][0] == ends[refined][0]
                                and (ends[refined][1], ends[base][1]) in leq)
                assert is_decreasing_refinement(base, refined) == dec_expected
                assert is_increasing_refinement(base, refined) == inc_expected


def test_linear_extensions_four_node_pair():
    poset = make_interval(PAIR4_LOWER, PAIR4_UPPER)
    got = [format_permutation(p) for p in linear_extensions(poset)]
    assert got == ["2134", "2143", "2314", "2341", "2413", "2431",
                   "4213", "4231"]


def test_linear_extensions_edge_cases():
    assert len(linear_extensions(IntervalPoset(3))) == 6
    full = make_interval(PAIR4_LOWER, PAIR4_LOWER)
    bst5_tree = parse_tree("[[[_,_],[_,_]],[_,_]]")
    bst = make_interval(bst5_tree, bst5_tree)
    assert linear_extensions(bst) == sorted(sylvester_classes(5)[bst5_tree])
    assert len(linear_extensions(full)) == len(sylvester_classes(4)[PAIR4_LOWER])
    with pytest.raises(CapacityError):
        linear_extensions(IntervalPoset(8))


@cache  # the oracles are slow, and the posets share their permutations
def by_coinversions(p):
    return len(coinv(p)), p


weak_leq_cached = cache(weak_leq)


def assert_sorted_ends_are_weak_order_ends(poset):
    # interval --extensions tags the first and last extensions listed,
    # which come in lexicographic order without repeats
    extensions = linear_extensions(poset)
    assert extensions == sorted(set(extensions))
    assert extensions[0] == min(extensions, key=by_coinversions)
    assert extensions[-1] == max(extensions, key=by_coinversions)
    return extensions


@pytest.mark.parametrize("n", range(7))
def test_linear_extensions_form_a_weak_order_interval(n):
    for poset in all_posets(n):
        extensions = assert_sorted_ends_are_weak_order_ends(poset)
        if n <= 5:
            low, high = extensions[0], extensions[-1]
            assert extensions == [
                q for q in permutations(range(1, n + 1))
                if weak_leq_cached(low, q) and weak_leq_cached(q, high)]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, chapoton_count(7) - 1))
def test_sorted_extension_ends_at_seven(index):
    assert_sorted_ends_are_weak_order_ends(all_posets(7)[index])


def test_trees_in_interval():
    t = PAIR4_LOWER
    assert trees_in_interval(make_interval(t, t)) == [t]
    assert len(trees_in_interval(IntervalPoset(3))) == 5
    six_node_tree = parse_tree("[[[_,[_,_]],_],[[_,_],_]]")
    bottom = parse_tree("[[[[[[_,_],_],_],_],_],_]")
    inside = trees_in_interval(make_interval(bottom, six_node_tree))
    assert len(inside) == 6
    ups = tree_upsets(6)
    assert set(inside) == {u for u in enumerate_trees(6) if six_node_tree in ups[u]}


def test_trees_in_interval_is_the_rotation_closure_filter():
    posets = [p for n in range(7) for p in all_posets(n)]
    assert len(posets) == 3015
    for poset in posets:
        assert trees_in_interval(poset) == oracle_trees_in_interval(poset)


@pytest.mark.parametrize("n", [7, 8])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_large_trees_in_interval_is_the_rotation_closure_filter(n, data):
    poset = data.draw(st.sampled_from(all_posets(n)))
    assert trees_in_interval(poset) == oracle_trees_in_interval(poset)


def test_end_vectors_are_the_end_trees_vectors():
    # the end trees come from the end vectors, so the check starts from
    # the trees
    pairs = [pair for n in range(8) for pair in tree_leq_pairs(n)]
    assert len(pairs) == 19980
    for t, u in pairs:
        poset = make_interval(t, u)
        assert _lower_vector(poset) == bracket_vector(t)
        assert _upper_vector(poset) == bracket_vector(u)


def test_interval_literals_format_the_listed_trees():
    for n in range(7):
        for poset in all_posets(n):
            assert interval_literals(poset) == [
                format_tree(t) for t in trees_in_interval(poset)]


@pytest.mark.parametrize("n, caps, cap", [
    (9, {}, 8), (4, {"max_n": 3}, 3), (1, {"max_n": 0}, 0)])
def test_both_listings_refuse_the_same_sizes(n, caps, cap):
    messages = set()
    for listing in (trees_in_interval, interval_literals):
        with pytest.raises(CapacityError) as refused:
            listing(IntervalPoset(n), **caps)
        messages.add(str(refused.value))
    assert messages == {f"interval tree listing capped at n={cap}"}


def test_stat_monomial():
    i1 = IntervalPoset(3, [(3, 2)])
    i2 = IntervalPoset(3, [(1, 2), (3, 2)])
    assert stat_monomial(i1) == parse_polynomial("x^2*y^3*b")
    assert stat_monomial(i2) == parse_polynomial("x^2*y^3*b")
    assert stat_monomial(IntervalPoset(0)) == Polynomial.monomial(1)


def sparse_stat(poset):
    """The statistic recounted from the relation pairs: a decreasing root
    is a vertex with no decreasing relation out of it."""
    decreasing = {(a, b) for a, b in poset.relations if a > b}
    roots = poset.n - len({a for a, _ in decreasing})
    return roots, poset.n, len({b for _, b in decreasing})


def test_stat_monomial_matches_sparse_recount():
    shared = {}
    for n in range(8):
        for poset in all_posets(n):
            key = sparse_stat(poset)
            mono = stat_monomial(poset)
            assert mono == Polynomial.monomial(1, *key)
            # equal statistics give one shared monomial
            assert shared.setdefault(key, mono) is mono
    with pytest.raises(ValueError):
        Polynomial.monomial(1, ex=-1)
    with pytest.raises(ValueError):
        Polynomial.monomial(1, eb=-2)


def test_stat_monomial_exponents_match_lower_tree():
    from tamari.trees import left_border_count
    from test_poly import right_subtree_nodes
    for n in range(6):
        for t, u in tree_leq_pairs(n):
            mono = stat_monomial(make_interval(t, u))
            ((ex, ey, eb), coeff), = mono.terms()
            assert coeff == 1 and ey == n
            assert ex == left_border_count(t)
            assert eb == right_subtree_nodes(t)
