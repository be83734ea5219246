import pytest

from helpers import (bracket_vector, left_comb, mirror, right_comb,
                     rotation_cover_edges, tree_leq_pairs)
from tamari.compose import enumerate_interval_posets
from tamari.intervalposet import dec_forest, lower_tree, stat_monomial
from tamari.mtamari import enumerate_ballot_paths
from tamari.poly import Polynomial
from tamari.trees import (EMPTY, BinaryTree, _bracket_vectors, canonical_key,
                          enumerate_trees, format_tree, format_trees,
                          from_dyck, left_border_count, parse_tree,
                          rotate_right_at, tamari_cover_edges,
                          tamari_covers_up, to_dyck)

TREE6 = "[[[_,[_,_]],_],[[_,_],_]]"  # root 4, left subtree {1,2,3}, right {5,6}
TREE6_DYCK = "NNEENENNENEE"

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def test_size():
    assert EMPTY.size == 0
    assert BinaryTree(EMPTY, EMPTY).size == 1
    assert parse_tree(TREE6).size == 6


@pytest.mark.parametrize("left, right", [(EMPTY, None), (None, EMPTY)])
def test_a_node_takes_two_subtrees(left, right):
    with pytest.raises(ValueError, match="use EMPTY, not None"):
        BinaryTree(left, right)


def test_border_counts():
    assert left_border_count(EMPTY) == 0
    assert left_border_count(left_comb(3)) == 3
    assert left_border_count(right_comb(3)) == 1
    assert left_border_count(mirror(right_comb(3))) == 3
    assert left_border_count(mirror(left_comb(3))) == 1


def test_rotate_smallest_cases():
    # the only rotation on the size-2 left comb produces the right comb
    assert rotate_right_at(left_comb(2), 2) == right_comb(2)
    assert rotate_right_at(BinaryTree(EMPTY, EMPTY), 1) is None
    with pytest.raises(ValueError):
        rotate_right_at(left_comb(2), 3)
    with pytest.raises(ValueError):
        rotate_right_at(left_comb(2), 0)


def test_size3_cover_edges_match_hand_count():
    # five cover edges of the size-3 lattice, identified by literals
    expected = {
        ("[[[_,_],_],_]", "[[_,_],[_,_]]"),
        ("[[[_,_],_],_]", "[[_,[_,_]],_]"),
        ("[[_,[_,_]],_]", "[_,[[_,_],_]]"),
        ("[_,[[_,_],_]]", "[_,[_,[_,_]]]"),
        ("[[_,_],[_,_]]", "[_,[_,[_,_]]]"),
    }
    edges = {(format_tree(t), format_tree(u))
             for t in enumerate_trees(3) for u in tamari_covers_up(t)}
    assert edges == expected


def test_size4_cover_edge_total():
    # hand count of the size-4 lattice diagram: 14 vertices, 21 edges
    assert len(enumerate_trees(4)) == 14
    assert sum(len(tamari_covers_up(t)) for t in enumerate_trees(4)) == 21
    assert len(tamari_covers_up(left_comb(4))) == 3


@pytest.mark.parametrize("n", range(9))
def test_bracket_vector_covers_are_the_rotations(n):
    assert _bracket_vectors(n) == tuple(tuple(bracket_vector(t))
                                        for t in enumerate_trees(n))
    edges = tamari_cover_edges(n)
    assert edges == rotation_cover_edges(n)
    assert len(edges) == max(n - 1, 0) * CATALAN[n] // 2


def test_cover_edges_reject_a_negative_size():
    with pytest.raises(ValueError, match="^size must be non-negative$"):
        tamari_cover_edges(-1)


@pytest.mark.parametrize("n", range(9))
def test_format_trees_formats_each_enumerated_tree(n):
    assert format_trees(n) == [format_tree(t) for t in enumerate_trees(n)]


def test_format_trees_rejects_a_negative_size():
    with pytest.raises(ValueError, match="^size must be non-negative$"):
        format_trees(-1)


def test_covers_of_empty():
    assert tamari_covers_up(EMPTY) == []


def test_covers_are_distinct():
    # rotations at distinct labels give distinct trees, so none is repeated
    for n in range(8):
        for t in enumerate_trees(n):
            covers = tamari_covers_up(t)
            assert len(set(covers)) == len(covers)


def test_enumerate_trees_catalan():
    assert enumerate_trees(0) == [EMPTY]
    with pytest.raises(ValueError, match="^size must be non-negative$"):
        enumerate_trees(-1)
    for n, expected in enumerate(CATALAN):
        assert len(enumerate_trees(n)) == expected
    for n in range(10):
        trees = enumerate_trees(n)
        assert len(set(trees)) == len(trees)
        assert [canonical_key(t) for t in trees] == sorted(
            canonical_key(t) for t in trees)


def test_enumerated_trees_read_the_dyck_paths_in_order():
    for n in range(10):
        assert [to_dyck(t) for t in enumerate_trees(n)] == [
            p.steps for p in enumerate_ballot_paths(1, n)]


def test_to_dyck_examples():
    assert to_dyck(parse_tree(TREE6)) == TREE6_DYCK
    assert to_dyck(EMPTY) == ""
    assert to_dyck(BinaryTree(EMPTY, EMPTY)) == "NE"


def test_dyck_roundtrip_exhaustive():
    for n in range(7):
        for t in enumerate_trees(n):
            assert from_dyck(to_dyck(t)) == t


def test_from_dyck_rejects_bad_words():
    assert from_dyck("NNEENENNENEE") == parse_tree(TREE6)
    assert from_dyck("") == EMPTY
    assert from_dyck("NE") == BinaryTree(EMPTY, EMPTY)
    with pytest.raises(ValueError) as err:
        from_dyck("EN")
    assert str(err.value) == "invalid Dyck word: E-surplus at position 0"
    with pytest.raises(ValueError) as err:
        from_dyck("NNE")
    assert str(err.value) == "invalid Dyck word: unequal N and E counts"
    with pytest.raises(ValueError) as err:
        from_dyck("NX")
    assert str(err.value) == "Dyck word may only contain N and E, got {'X'}"


def test_literal_roundtrip_and_errors():
    for n in range(6):
        for t in enumerate_trees(n):
            assert parse_tree(format_tree(t)) == t
    assert parse_tree(" [ _ , _ ] ") == BinaryTree(EMPTY, EMPTY)
    messages = {
        "": "empty tree literal",
        "[_,_": "expected ']' at position 4",
        "[_]": "expected ',' at position 2",
        "[_,_]]": "trailing characters at position 5",
        "[_,_]_": "trailing characters at position 5",
        "x": "unrecognized character at position 0: 'x'",
        "[": "unexpected end of literal at position 1",
        "[_,": "unexpected end of literal at position 3",
        "[[_,_]": "expected ',' at position 6",
        "[x": "expected '_' or '[' at position 1, got 'x'",
        "EN": "invalid Dyck word: E-surplus at position 0",
    }
    for bad, message in messages.items():
        with pytest.raises(ValueError) as err:
            parse_tree(bad)
        assert str(err.value) == message


def test_rotation_preserves_size_and_order():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            for label in range(1, n + 1):
                u = rotate_right_at(t, label)
                if u is not None:
                    assert u.size == t.size
                    assert u != t
                    assert (t, u) in tree_leq_pairs(n)


def test_left_border_equals_decreasing_components():
    for n in range(7):
        for t in enumerate_trees(n):
            assert stat_monomial(dec_forest(t)).subs(b=1) == \
                Polynomial.monomial(1, ex=left_border_count(t), ey=n)
        for p in enumerate_interval_posets(n):
            border = left_border_count(lower_tree(p))
            assert stat_monomial(p).subs(b=1) == \
                Polynomial.monomial(1, ex=border, ey=n)
