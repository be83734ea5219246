import hashlib
import random
from collections import Counter

import pytest

from helpers import (compose_sparse, contact_count, decompose_sparse,
                     pack_poset, tree_upsets, unpack_relations)
from tamari.compose import (_decode_sorted, _posets_of_size, _terms, compose,
                            count_interval_posets, decompose,
                            enumerate_interval_posets, initial_interval_sum)
from tamari.intervalposet import (IntervalPoset, inc_forest, lower_tree,
                                  stat_monomial, upper_tree, validate)
from tamari.poly import (Polynomial, bilinear_B, bilinear_B_bivar,
                         chapoton_count, parse_polynomial, tamari_poly,
                         tamari_poly_bivar)
from tamari.order import count_intervals_bruteforce
from tamari.trees import enumerate_trees, parse_tree

FACTOR_A = IntervalPoset(3, [(3, 2)])
FACTOR_B = IntervalPoset(3, [(1, 2), (3, 2)])
TREE6 = parse_tree("[[[_,[_,_]],_],[[_,_],_]]")


def test_compose_worked_instance():
    terms = compose(FACTOR_A, FACTOR_B)
    base = {(3, 2), (1, 4), (2, 4), (3, 4), (5, 6), (7, 6)}
    assert [t.relations for t in terms] == [
        frozenset(base),
        frozenset(base | {(5, 4)}),
        frozenset(base | {(5, 4), (6, 4), (7, 4)}),
    ]


def test_compose_terms_are_decreasing_refinements():
    # each extra absorbed root only adds decreasing relations
    from tamari.intervalposet import is_decreasing_refinement
    terms = compose(FACTOR_A, FACTOR_B)
    assert is_decreasing_refinement(terms[0], terms[1])
    assert is_decreasing_refinement(terms[0], terms[2])
    assert is_decreasing_refinement(terms[1], terms[2])
    assert not is_decreasing_refinement(terms[2], terms[0])


def test_compose_empty_inputs():
    empty = IntervalPoset(0)
    terms = compose(empty, empty)
    assert len(terms) == 1
    assert terms[0].n == 1 and not terms[0].relations


def test_compose_statistic_homomorphism_worked_instance():
    terms = compose(FACTOR_A, FACTOR_B)
    total = sum((stat_monomial(t) for t in terms), Polynomial())
    assert total.subs(b=1) == bilinear_B(stat_monomial(FACTOR_A).subs(b=1),
                                         stat_monomial(FACTOR_B).subs(b=1))
    assert total == parse_polynomial("y^7*x^5*b^2 + y^7*x^4*b^3 + y^7*x^3*b^3")


def test_compose_outputs_are_valid_and_term_count():
    for k1 in range(4):
        for k2 in range(4 - k1):
            for i1 in enumerate_interval_posets(k1):
                for i2 in enumerate_interval_posets(k2):
                    terms = compose(i1, i2)
                    for term in terms:
                        assert validate(term.n, term.relations) == term
                    # one term per absorbable decreasing-forest prefix
                    mono, = stat_monomial(i2).terms()
                    assert len(terms) == mono[0][0] + 1


def test_compose_statistic_homomorphism_exhaustive():
    for k1 in range(4):
        for k2 in range(4 - k1):
            for i1 in enumerate_interval_posets(k1):
                for i2 in enumerate_interval_posets(k2):
                    total = sum((stat_monomial(t) for t in compose(i1, i2)),
                                Polynomial())
                    assert total == bilinear_B_bivar(stat_monomial(i1),
                                                     stat_monomial(i2))


def test_compose_no_cross_relations():
    for k1 in range(4):
        for i1 in enumerate_interval_posets(k1):
            for i2 in enumerate_interval_posets(3 - k1):
                new = k1 + 1
                for term in compose(i1, i2):
                    for a, b in term.relations:
                        # nothing ties the two sides except through the new
                        # vertex, and the new vertex precedes nothing
                        assert not (a <= k1 and b > new)
                        assert not (a > new and b <= k1)
                        assert a != new


def test_decompose_worked_instance():
    for term in compose(FACTOR_A, FACTOR_B):
        assert decompose(term) == (FACTOR_A, FACTOR_B)
    single = compose(IntervalPoset(0), IntervalPoset(0))[0]
    assert decompose(single) == (IntervalPoset(0), IntervalPoset(0))
    with pytest.raises(ValueError):
        decompose(IntervalPoset(0))


def test_contact_counts_match_the_closed_form():
    for n in range(1, 9):
        contacts = Counter(stat_monomial(p).terms()[0][0][0]
                           for p in enumerate_interval_posets(n))
        assert contacts == {k: contact_count(n, k) for k in range(1, n + 1)}


def test_decompose_compose_roundtrip():
    # three in four splits leave a side empty, which decompose returns as
    # a shared poset: equal to IntervalPoset(0) and hashing like it
    empty = IntervalPoset(0)
    for n in range(1, 8):
        for poset in enumerate_interval_posets(n):
            i1, i2 = decompose(poset)
            assert poset in compose(i1, i2)
            for part in (i1, i2):
                assert type(part) is IntervalPoset
                if not len(part):
                    assert part == empty and hash(part) == hash(empty)


def test_unique_decomposition():
    for n in range(1, 6):
        seen = Counter()
        for k1 in range(n):
            for i1 in enumerate_interval_posets(k1):
                for i2 in enumerate_interval_posets(n - 1 - k1):
                    seen.update(compose(i1, i2))
        assert set(seen) == set(enumerate_interval_posets(n))
        assert all(count == 1 for count in seen.values())


def test_enumerated_posets_match_forest_construction():
    # every composition-generated poset equals the closure of its own
    # endpoint forests
    from tamari.intervalposet import make_interval
    for n in range(6):
        for poset in enumerate_interval_posets(n):
            assert make_interval(lower_tree(poset), upper_tree(poset)) == poset


def test_enumeration_is_trusted_but_still_valid():
    # the generator skips re-validation; check it against validate at a
    # size beyond the exhaustive algebra suites
    for poset in enumerate_interval_posets(6):
        assert validate(poset.n, poset.relations) == poset
    keys = [sorted(p.relations) for p in enumerate_interval_posets(6)]
    assert keys == sorted(keys)


def test_decompose_splits_at_the_upper_root():
    # the split vertex is the root of the upper tree, and the parts carry
    # its two subtrees
    for n in range(1, 8):
        for poset in enumerate_interval_posets(n):
            upper = upper_tree(poset)
            root = upper.left.size + 1  # the root's in-order label
            i1, i2 = decompose(poset)
            assert i1.n + 1 == root
            assert upper_tree(i1) == upper.left
            assert upper_tree(i2) == upper.right


def test_packed_key_orders_like_sorted_relations():
    # n = 0 stays in, where the rows' struct has zero length; every poset
    # up to n = 7, and a shuffled sample of n = 8's 118,668
    rng = random.Random(7)
    for n in range(9):
        everything = _posets_of_size(n)
        packed = rng.sample(everything, min(len(everything), 25_000))
        expected = sorted(sorted(unpack_relations(r, 16)) for r in packed)
        ordered = _decode_sorted(n, [packed])
        assert [sorted(p.relations) for p in ordered] == expected
        assert all(p.n == n for p in ordered)
        assert (not ordered[0].relations) == (0 in packed)


def test_sizes_past_the_packing_width_are_refused():
    # a size past 16 would start a run that cannot finish (about 1.25e13
    # posets at n = 17), so it is refused before any work
    for entry in (enumerate_interval_posets, count_interval_posets):
        for n in (17, 65):
            with pytest.raises(ValueError, match="up to size 16"):
                entry(n)
        with pytest.raises(ValueError, match="^size must be non-negative$"):
            entry(-1)


def test_packed_terms_match_compose():
    # compose() on objects is the reference for the packed kernel: given
    # the smaller sizes, each split's terms are those of compose()
    def level(k):
        return [IntervalPoset(k, unpack_relations(r, 16))
                for r in _posets_of_size(k)]
    for n in range(1, 8):
        for k1 in range(n):
            packed = _terms(n, k1, _posets_of_size(k1))
            expected = [pack_poset(t.relations, 16)
                        for i1 in level(k1) for i2 in level(n - 1 - k1)
                        for t in compose(i1, i2)]
            assert sorted(packed) == sorted(expected), (n, k1)


def test_packed_count_matches_the_formula():
    assert [count_interval_posets(n) for n in range(10)] == \
        [chapoton_count(n) for n in range(10)]
    with pytest.raises(ValueError):
        count_interval_posets(-1)


def test_compose_matches_sparse_reference():
    for k1 in range(7):
        for k2 in range(7 - k1):
            for i1 in enumerate_interval_posets(k1):
                for i2 in enumerate_interval_posets(k2):
                    assert [(t.n, t.relations) for t in compose(i1, i2)] == \
                        compose_sparse(k1, i1.relations, k2, i2.relations)


def test_decompose_matches_sparse_reference():
    for n in range(1, 8):
        for poset in enumerate_interval_posets(n):
            i1, i2 = decompose(poset)
            assert ((i1.n, i1.relations), (i2.n, i2.relations)) == \
                decompose_sparse(n, poset.relations)


# sha256 of the enumeration's text, recorded from the frozenset
# implementation (n = 8 from the string sort key); it pins both the
# canonical order and covers()
ENUMERATION_TEXT_SHA256 = {
    0: "3574b3ebe35735889de217b3d8e3e3a4c10718a326c9139df0c4e6fb0e1153bd",
    1: "097fda1929fc1bf17e752cb9c639b5796651162ff2c00af5d4c82e40a155cb86",
    2: "d218ff9a7fe7c8a349420bf3f473df54cccc2da2e142cb9fb6c5f70ccef24c37",
    3: "11bcaddaffd28a38edb8a18e54e5a6ddabb57656acb2edfa424a1a194ca8404e",
    4: "91e1db2818f91c835903179c8357c53405724d398130b09840bb4b15353e6ae3",
    5: "34676ae5cc1b879273f398bce77a3aa065dc603ac5c5752dac123ae563b01fb1",
    6: "7461e4345b80401aebd05d86066763f6aae0baa6ff421fb7731861bd001ed475",
    7: "ef6546c1eefb73d3923557c25bbfd9a5793ee0cdc951047fd115cd8fe47c94be",
    8: "64c18f65c6d6aeb23c14ea2b13f80ceb0e59ef22c93c038529d380da62e256ea",
}


def test_enumeration_text_is_pinned():
    for n, digest in ENUMERATION_TEXT_SHA256.items():
        text = "\n\n".join(p.to_text() for p in enumerate_interval_posets(n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n


def test_enumerate_interval_posets_counts():
    assert [len(enumerate_interval_posets(n)) for n in range(5)] == \
        [1, 1, 3, 13, 68]
    for n in range(6):
        assert len(enumerate_interval_posets(n)) == count_intervals_bruteforce(n)
    for n in range(9):
        assert len(enumerate_interval_posets(n)) == chapoton_count(n)


def test_initial_interval_sum_six_node_tree():
    terms = initial_interval_sum(TREE6)
    assert len(terms) == 6
    base = {(1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (5, 6)}
    expected = {frozenset(base | extra) for extra in (
        set(), {(2, 1)}, {(5, 4)}, {(2, 1), (5, 4)},
        {(5, 4), (6, 4)}, {(2, 1), (5, 4), (6, 4)})}
    assert {t.relations for t in terms} == expected


def test_initial_interval_sum_single_node():
    terms = initial_interval_sum(parse_tree("[_,_]"))
    assert len(terms) == 1 and terms[0].n == 1 and not terms[0].relations


def test_initial_interval_sum_matches_oracle():
    for n in range(7):
        ups = tree_upsets(n)
        trees = enumerate_trees(n)
        for t in trees:
            terms = initial_interval_sum(t)
            for term in terms:
                assert upper_tree(term) == t
                assert {(a, b) for a, b in term.relations if a < b} == \
                    inc_forest(t).relations
            lowers = sorted(repr(lower_tree(p)) for p in terms)
            expected = sorted(repr(u) for u in trees if t in ups[u])
            assert lowers == expected


def test_initial_interval_sum_statistic_equals_tamari_poly():
    # the tree polynomials through compose, not through the tree fold
    for n in range(8):
        for t in enumerate_trees(n):
            total = sum((stat_monomial(p).subs(y=1)
                         for p in initial_interval_sum(t)), Polynomial())
            assert total == tamari_poly_bivar(t), t
            assert total.subs(b=1) == tamari_poly(t), t
