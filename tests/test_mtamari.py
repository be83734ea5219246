from itertools import combinations
from math import comb

import pytest

from helpers import (fuss_catalan, mary_to_path_prefix, mtamari_interval_count,
                     multilinear_Bm, path_count, path_downset_sizes,
                     path_upsets, phi_m_series_fixed_point, tree_leq_pairs)
from tamari import mtamari
from tamari.mtamari import (LEAF, BallotPath, MAryTree, enumerate_ballot_paths,
                            mary_tamari_poly, parse_ballot_path, path_counts,
                            path_rotation_covers, path_to_mary_prefix,
                            path_upset, phi_m_series)
from tamari.poly import X, chapoton_count, parse_polynomial, phi_series
from tamari.trees import from_dyck, to_dyck


def test_ballot_path_validation():
    BallotPath(1, "NE")
    BallotPath(2, "NEENEE")
    BallotPath(1, "")
    with pytest.raises(ValueError):
        BallotPath(1, "EN")
    with pytest.raises(ValueError):
        BallotPath(2, "NNEE")
    with pytest.raises(ValueError):
        BallotPath(0, "")
    with pytest.raises(ValueError):
        BallotPath(1, "NX")


def test_path_text_roundtrip():
    for m in (1, 2):
        for p in enumerate_ballot_paths(m, 3):
            q = parse_ballot_path(p.to_text())
            assert q == p and hash(q) == hash(p)
    with pytest.raises(ValueError):
        parse_ballot_path("NE")


@pytest.mark.parametrize("text", [
    "m=٣:NEEE", "m= 3:NEEE", "m=+3:NEEE", "m=3_0:N" + "E" * 30, "m=²:NEE",
])
def test_parse_ballot_path_rejects_what_int_would_guess(text):
    with pytest.raises(ValueError, match="'m=<int>:<word>'"):
        parse_ballot_path(text)


def test_ballot_path_repr():
    assert repr(BallotPath(2, "NENEEE")) == "<BallotPath m=2:NENEEE>"
    assert repr(BallotPath(1, "")) == "<BallotPath m=1:>"


@pytest.mark.parametrize("m, n, message", [
    (0, 3, "slope parameter m must be at least 1"),
    (2, -1, "series order must be non-negative"),
])
def test_phi_m_series_refuses_bad_arguments(m, n, message):
    with pytest.raises(ValueError, match=message):
        phi_m_series(m, n)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_mary_trees_hash_by_shape(m):
    trees = [path_to_mary_prefix(p) for p in enumerate_ballot_paths(m, 3)]
    again = [path_to_mary_prefix(p) for p in enumerate_ballot_paths(m, 3)]
    assert all(a is not b and hash(a) == hash(b) for a, b in zip(trees, again))
    assert len(set(trees) | set(again)) == len(trees)


def test_enumerate_ballot_paths():
    assert len(enumerate_ballot_paths(1, 3)) == 5
    assert enumerate_ballot_paths(1, 0) == [BallotPath(1, "")]
    assert {p.steps for p in enumerate_ballot_paths(2, 2)} == \
        {"NNEEEE", "NENEEE", "NEENEE"}


def test_enumeration_lists_afresh_from_one_table():
    listed = enumerate_ballot_paths(2, 3)
    expected = list(listed)
    listed[0] = BallotPath(2, "NNNEEEEEE")
    listed.append(BallotPath(2, ""))
    again = enumerate_ballot_paths(2, 3)
    assert again == expected and again is not listed
    # the paths themselves are built once, so upset lookups share keys
    assert all(p is q for p, q in zip(again, expected))
    for m, n in ((0, 2), (1, -1)):
        with pytest.raises(ValueError, match=r"^need m >= 1 and n >= 0$"):
            enumerate_ballot_paths(m, n)


@pytest.mark.parametrize("m, n", [(1, 0), (2, 0), (1, 5), (2, 4), (3, 4),
                                  (3, 5), (2, 7), (5, 5)])
def test_enumeration_lists_every_ballot_word_in_order(m, n):
    # the north steps' positions, in lexicographic order, list the words
    # in N-before-E order; a word is a ballot word when the i-th north
    # step (from 0) has at most m*i east steps before it
    words = []
    for norths in combinations(range((m + 1) * n), n):
        if all(p - i <= m * i for i, p in enumerate(norths)):
            steps = ["E"] * ((m + 1) * n)
            for p in norths:
                steps[p] = "N"
            words.append("".join(steps))
    assert [p.steps for p in enumerate_ballot_paths(m, n)] == words


def test_enumeration_at_a_large_slope():
    paths = enumerate_ballot_paths(300, 2)
    assert len(paths) == 301
    words = [p.steps for p in paths]
    assert words == sorted(words, key=lambda w: w.replace("N", "0"))
    assert all(p == BallotPath(300, p.steps) for p in paths)


def test_path_counts_match_lattice_point_recursion():
    for m in (1, 2, 3):
        for n in range(6):
            assert len(enumerate_ballot_paths(m, n)) == fuss_catalan(m, n)


def test_rotation_covers():
    # a path with no east step before a north step is maximal
    assert path_rotation_covers(BallotPath(1, "NNEE")) == set()
    assert path_rotation_covers(BallotPath(1, "NENE")) == {BallotPath(1, "NNEE")}
    chain = {p.steps: {q.steps for q in path_rotation_covers(p)}
             for p in enumerate_ballot_paths(2, 2)}
    assert chain == {"NEENEE": {"NENEEE"}, "NENEEE": {"NNEEEE"}, "NNEEEE": set()}


def test_rotation_outputs_are_valid_paths():
    # the generator and the rotation build their paths unchecked; each must
    # equal the validated path of its word
    for m in (1, 2, 3):
        for n in range(6):
            for p in enumerate_ballot_paths(m, n):
                for q in (p, *path_rotation_covers(p)):
                    checked = BallotPath(m, q.steps)
                    assert (q.m, q.steps, hash(q), q.n) == \
                        (checked.m, checked.steps, hash(checked), n)


def test_m1_covers_transport_to_tree_rotations():
    from tamari.trees import tamari_covers_up
    for n in range(6):
        for p in enumerate_ballot_paths(1, n):
            tree = from_dyck(p.steps)
            got = {q.steps for q in path_rotation_covers(p)}
            expected = {to_dyck(u) for u in tamari_covers_up(tree)}
            assert got == expected


def test_path_leq():
    # the order is membership in the upset
    p = BallotPath(2, "NEENEE")
    assert p in path_upset(p)
    assert BallotPath(2, "NNEEEE") in path_upset(p)
    assert p not in path_upset(BallotPath(2, "NNEEEE"))
    assert BallotPath(1, "NE") not in path_upset(BallotPath(2, "NEE"))
    paths = enumerate_ballot_paths(1, 3)
    assert sum(q in path_upset(p) for p in paths for q in paths) == 13


def test_m1_order_agrees_with_tree_oracle():
    for n in range(6):
        leq = tree_leq_pairs(n)
        for p in enumerate_ballot_paths(1, n):
            for q in enumerate_ballot_paths(1, n):
                assert (q in path_upset(p)) == \
                    ((from_dyck(p.steps), from_dyck(q.steps)) in leq)


def test_prefix_reading_roundtrip():
    assert path_to_mary_prefix(BallotPath(1, "")) == LEAF
    for m in (1, 2, 3):
        for n in range(5):
            for p in enumerate_ballot_paths(m, n):
                tree = path_to_mary_prefix(p)
                assert mary_to_path_prefix(tree, m) == p


def test_prefix_reading_differs_from_postfix():
    # the two binary-tree readings of a Dyck path disagree in general
    def binary_to_mary(t):
        if not t:
            return LEAF
        return MAryTree((binary_to_mary(t.left), binary_to_mary(t.right)))

    disagreements = 0
    for p in enumerate_ballot_paths(1, 3):
        if path_to_mary_prefix(p) != binary_to_mary(from_dyck(p.steps)):
            disagreements += 1
    assert disagreements > 0


def test_multilinear_form():
    assert multilinear_Bm([X]) == parse_polynomial("x^2*y")
    assert multilinear_Bm([X, X]) == parse_polynomial("x^2*y")
    assert multilinear_Bm([X, X, X]) == parse_polynomial("x^2*y")
    f = parse_polynomial("x^2 + x")
    g = parse_polynomial("x^3")
    h = parse_polynomial("x + 1")
    for slot in range(3):
        args = [f, g, h]
        left, right = list(args), list(args)
        left[slot] = f
        right[slot] = g
        both = list(args)
        both[slot] = f + g
        assert multilinear_Bm(both) == \
            multilinear_Bm(left) + multilinear_Bm(right)
    with pytest.raises(ValueError):
        multilinear_Bm([])


def test_phi_m_series_m1_matches_interval_series():
    # the slope-1 series is x times the tree-interval series
    phi1 = phi_m_series(1, 4)
    assert phi1 == (X * phi_series(4)).truncate_y(4)
    assert [phi1.y_coefficient(k).subs(x=1).constant() for k in range(5)] == \
        [1, 1, 3, 13, 68]
    assert phi1.y_coefficient(0) == X


def test_phi_m_series_matches_brute_force_interval_counts():
    for m in (1, 2, 3):
        phi = phi_m_series(m, 3)
        for n in range(4):
            brute = sum(path_downset_sizes(m, n).values())
            assert phi.y_coefficient(n).subs(x=1).constant() == brute


def test_phi_m_series_matches_fixed_point():
    for m in (1, 2, 3, 4):
        reference = phi_m_series_fixed_point(m, 6)
        for n in range(7):
            assert phi_m_series(m, n) == reference.truncate_y(n)


def test_phi_m_series_matches_closed_form():
    assert [mtamari_interval_count(1, n) for n in range(11)] == \
        [chapoton_count(n) for n in range(11)]
    for m in (1, 2, 3, 4):
        phi = phi_m_series(m, 10)
        for n in range(11):
            assert phi.y_coefficient(n).subs(x=1).constant() == \
                mtamari_interval_count(m, n)


def test_mary_tamari_poly_leaf():
    assert mary_tamari_poly(LEAF) == X


def test_mary_poly_counts_lower_paths():
    for m in (1, 2, 3):
        for n in range(5):
            downs = path_downset_sizes(m, n)
            for p in enumerate_ballot_paths(m, n):
                tree = path_to_mary_prefix(p)
                value = mary_tamari_poly(tree).subs(x=1, y=1).constant()
                assert value == downs[p]


@pytest.mark.parametrize("m, top, intervals", [(2, 6, 146_916),
                                               (3, 5, 91_881)])
def test_path_polynomials_sum_to_the_interval_count(m, top, intervals):
    # each path's polynomial counts the paths below it, so the sum over
    # all paths counts the intervals, past the brute force's reach
    phi = phi_m_series(m, top)
    for n in range(top + 1):
        total = sum(mary_tamari_poly(path_to_mary_prefix(p)).subs(
            x=1, y=1).constant() for p in enumerate_ballot_paths(m, n))
        assert total == mtamari_interval_count(m, n) == \
            phi.y_coefficient(n).subs(x=1).constant()
    assert total == intervals


def test_m1_prefix_postfix_polynomials_agree_at_one():
    from tamari.poly import tamari_poly
    for n in range(6):
        for p in enumerate_ballot_paths(1, n):
            prefix_value = mary_tamari_poly(
                path_to_mary_prefix(p)).subs(x=1, y=1).constant()
            postfix_value = tamari_poly(from_dyck(p.steps)).subs(x=1).constant()
            assert prefix_value == postfix_value


def test_m1_path_lattice_isomorphic_to_tree_lattice():
    for n in range(6):
        ups = path_upsets(1, n)
        leq = tree_leq_pairs(n)
        trees = {p: from_dyck(p.steps) for p in enumerate_ballot_paths(1, n)}
        for p, tp in trees.items():
            for q, tq in trees.items():
                assert (q in ups[p]) == ((tp, tq) in leq)


@pytest.mark.parametrize("m, n", [(m, n) for m in (1, 2, 3) for n in range(5)]
                         + [(1, 5), (1, 6)])
def test_shared_fold_counts_match_every_route(m, n):
    table = path_counts(m, n)
    paths = enumerate_ballot_paths(m, n)
    assert sorted(table) == sorted(p.steps for p in paths)
    downs = path_downset_sizes(m, n)
    for p in paths:
        value = mary_tamari_poly(path_to_mary_prefix(p))
        assert table[p.steps] == path_count(p) == downs[p] == \
            value.subs(x=1, y=1).constant()


@pytest.mark.parametrize("m, n", [(2, 5), (3, 5), (4, 4), (5, 4), (5, 5),
                                  (50, 3), (300, 2), (1500, 1)])
def test_shared_fold_matches_the_fold_of_each_path(m, n):
    # m = 5 is the largest slope mtamari-verify takes (cli.SLOPE_CAP)
    table = path_counts(m, n)
    paths = enumerate_ballot_paths(m, n)
    assert len(table) == len(paths)
    assert table == {p.steps: path_count(p) for p in paths}


@pytest.mark.parametrize("m, n", [(1, 7), (2, 5), (3, 5), (4, 4), (300, 2)])
def test_shared_fold_reaches_its_width_at_the_top(m, n):
    # the top path has every path below it; each of these counts needs a
    # wider slot than the paths of one size less
    top = path_counts(m, n)["N" * n + "E" * (m * n)]
    assert top == fuss_catalan(m, n)
    assert top.bit_length() > 8 >= fuss_catalan(m, n - 1).bit_length()


@pytest.mark.parametrize("m", [1, 2, 300])
def test_shared_fold_of_size_zero(m):
    assert path_counts(m, 0) == {"": 1}


def test_shared_fold_rejects_bad_sizes():
    with pytest.raises(ValueError, match="need m >= 1 and n >= 0"):
        path_counts(0, 2)
    with pytest.raises(ValueError, match="need m >= 1 and n >= 0"):
        path_counts(2, -1)


def chain_count(m, j, s):
    """Sequences of j trees with s nodes of m+1 children between them:
    j / ((m+1)s + j) * C((m+1)s + j, s), by Lagrange inversion."""
    return j * comb((m + 1) * s + j, s) // ((m + 1) * s + j)


@pytest.mark.parametrize("m, n", [(1, 1), (1, 6), (2, 4), (3, 5), (5, 4),
                                  (40, 2)])
def test_shared_fold_forms_each_chain_once(monkeypatch, m, n):
    # one product per chain over j >= 2 children of s < n nodes, except
    # when the first child holds all s nodes and the rest is x: D(x) = 1
    products = []
    times_slope = mtamari._times_slope

    def counting(*args):
        products.append(args)
        return times_slope(*args)

    monkeypatch.setattr(mtamari, "_times_slope", counting)
    path_counts(m, n)
    assert len(products) == sum(
        chain_count(m, j, s) - chain_count(m, 1, s)
        for s in range(n) for j in range(2, m + 2))
