from itertools import permutations
from operator import le

import pytest

from helpers import bracket_vector, sylvester_classes, tree_upsets
from tamari.order import (CapacityError, coinv, count_intervals_bruteforce,
                          format_permutation, linear_extensions_of_relation,
                          parse_permutation, sylvester_class,
                          tamari_leq_oracle, weak_leq)
from tamari.trees import enumerate_trees, parse_tree

LEFT_COMB_4 = parse_tree("[[[[_,_],_],_],_]")
RIGHT_COMB_4 = parse_tree("[_,[_,[_,[_,_]]]]")


def test_coinv():
    assert coinv((1, 2, 3)) == frozenset()
    assert coinv((3, 1, 2)) == {(3, 1), (3, 2)}
    # enumerate index pairs by hand for 4231
    assert coinv((4, 2, 3, 1)) == {(4, 2), (4, 3), (4, 1), (2, 1), (3, 1)}
    with pytest.raises(ValueError):
        coinv((1, 1, 2))


def test_weak_leq():
    assert weak_leq((2, 1, 3, 4), (4, 2, 3, 1))
    assert weak_leq((3, 1, 2), (3, 1, 2))
    assert not weak_leq((3, 2, 1), (1, 2, 3))
    with pytest.raises(ValueError):
        weak_leq((1, 2), (1, 2, 3))


def test_sylvester_class_examples():
    assert sylvester_class(parse_tree("[[_,_],[_,_]]")) == {(1, 3, 2), (3, 1, 2)}
    assert sylvester_class(parse_tree("[_,_]")) == {(1,)}
    bst5 = parse_tree("[[[_,_],[_,_]],[_,_]]")
    got = {format_permutation(p) for p in sylvester_class(bst5)}
    assert got == {"13254", "31254", "13524", "31524",
                   "15324", "35124", "51324", "53124"}
    assert max(sylvester_class(bst5), key=lambda p: len(coinv(p))) == (5, 3, 1, 2, 4)


def test_sylvester_classes_partition_permutations():
    for n in range(1, 7):
        classes = list(sylvester_classes(n).values())
        union = set().union(*classes)
        assert union == set(permutations(range(1, n + 1)))
        assert sum(len(c) for c in classes) == len(union)


def test_sylvester_class_is_weak_order_interval():
    for n in range(1, 6):
        for cls in sylvester_classes(n).values():
            low = min(cls, key=lambda p: len(coinv(p)))
            high = max(cls, key=lambda p: len(coinv(p)))
            interval = {p for p in permutations(range(1, n + 1))
                        if weak_leq(low, p) and weak_leq(p, high)}
            assert cls == interval


def test_sylvester_capacity():
    with pytest.raises(CapacityError):
        sylvester_class(parse_tree("N" * 8 + "E" * 8))


@pytest.mark.parametrize("pair", [(1, 4), (0, 2)])
def test_linear_extensions_refuse_pairs_outside_the_labels(pair):
    with pytest.raises(ValueError):
        linear_extensions_of_relation(3, [pair])


def test_tamari_leq_oracle():
    assert tamari_leq_oracle(LEFT_COMB_4, RIGHT_COMB_4)
    assert not tamari_leq_oracle(RIGHT_COMB_4, LEFT_COMB_4)
    assert tamari_leq_oracle(LEFT_COMB_4, LEFT_COMB_4)
    with pytest.raises(ValueError):
        tamari_leq_oracle(LEFT_COMB_4, parse_tree("[_,_]"))
    pairs = sum(tamari_leq_oracle(t, u)
                for t in enumerate_trees(3) for u in enumerate_trees(3))
    assert pairs == 13


def test_bracket_vectors_match_oracle():
    for n in range(7):
        trees = enumerate_trees(n)
        for t in trees:
            for u in trees:
                assert all(map(le, bracket_vector(t), bracket_vector(u))) \
                    == tamari_leq_oracle(t, u)


def test_oracle_is_a_partial_order():
    for n in range(1, 6):
        ups = tree_upsets(n)
        trees = enumerate_trees(n)
        for t in trees:
            assert t in ups[t]
            for u in trees:
                if u in ups[t] and t in ups[u]:
                    assert t == u
                if u in ups[t]:
                    assert ups[u] <= ups[t]


def test_count_intervals_bruteforce():
    assert [count_intervals_bruteforce(n) for n in range(5)] == [1, 1, 3, 13, 68]
    with pytest.raises(CapacityError):
        count_intervals_bruteforce(9)


def test_permutation_strings():
    assert format_permutation((2, 1, 3, 4)) == "2134"
    assert parse_permutation("2134") == (2, 1, 3, 4)
    long = tuple(range(1, 11))
    assert parse_permutation(format_permutation(long)) == long
    with pytest.raises(ValueError):
        parse_permutation("1224")
    with pytest.raises(ValueError):
        parse_permutation("12a")
    # ASCII digit runs only, where str.isdigit and int() would guess
    for text in ("\u066312", "1, 2,3", "+1,2", "\u00b21"):
        with pytest.raises(ValueError, match="not a permutation string"):
            parse_permutation(text)
