"""The packed kernels at the edge of their slot widths.

Every fold packs coefficients into slots whose width comes from a bound on
the largest coefficient it can form.  The inputs here reach those bounds:
the top of each lattice has every element below it, so its polynomial's
coefficients sum to the whole lattice, and the series is checked at its top
degree, next to the one its width is computed for.  Random trees, combs,
caterpillars and paths on both sides of the sized fold's threshold check
its narrower slots.
"""

import random
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (bracket_vector, fuss_catalan, left_comb,
                     mary_poly_sparse, mirror, mtamari_interval_count,
                     path_count, random_ballot, right_comb, tree_poly_sparse)
from tamari import poly
from tamari.mtamari import (BallotPath, _mary_children,
                            enumerate_ballot_paths, mary_tamari_poly,
                            path_to_mary_prefix, phi_m_series)
from tamari.poly import (B, Polynomial, _degree_product, _repack,
                         _root_bound, _slope, _slot_sum, _slot_width,
                         _times_slope, _to_polynomial, delta, tamari_poly,
                         tamari_poly_bivar, tamari_poly_mirror)
from tamari.trees import BinaryTree, _postfix, enumerate_trees, from_dyck


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def pack(coeffs, width):
    return sum(c << (i * width) for i, c in enumerate(coeffs))


def sparse(coeffs):
    return Polynomial({(i, 0, 0): c for i, c in enumerate(coeffs)})


@pytest.mark.parametrize("n", range(61))
def test_top_tree_polynomials(n):
    top, bottom = right_comb(n), left_comb(n)
    plain = tamari_poly(top)
    assert plain == tree_poly_sparse(top)
    assert plain.subs(x=1).constant() == catalan(n)
    assert tamari_poly_mirror(bottom) == plain
    if n <= 30 or n % 10 == 0:  # the sparse b-refined fold is slow
        bivar = tamari_poly_bivar(top)
        assert bivar == tree_poly_sparse(top, weight=B)
        assert bivar.subs(x=1, b=1).constant() == catalan(n)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_top_path_polynomials(m):
    for n in range(0, 61 // m):
        path = BallotPath(m, "N" * n + "E" * (m * n))
        value = mary_tamari_poly(path_to_mary_prefix(path))
        assert value == mary_poly_sparse(path_to_mary_prefix(path))
        assert value.subs(x=1, y=1).constant() == fuss_catalan(m, n)
        assert path_count(path) == fuss_catalan(m, n)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_phi_m_series_top_degree(m):
    for top in (0, 1, 2, 5, 12, 24):
        layer = phi_m_series(m, top).y_coefficient(top)
        assert layer.subs(x=1).constant() == mtamari_interval_count(m, top)


@pytest.fixture
def sized_folds(monkeypatch):
    """The sizes of the codes that take the sized fold."""
    sizes, fold = [], poly._sized_fold

    def spy(code, root_width, bivar, mirror=False):
        sizes.append(len(code))
        return fold(code, root_width, bivar, mirror)

    monkeypatch.setattr(poly, "_sized_fold", spy)
    return sizes


@pytest.mark.parametrize("seed", range(5))
def test_large_tree_polynomials(seed, sized_folds):
    rng = random.Random(seed)
    tree = from_dyck(random_ballot(rng, 1, rng.randint(200, 400)))
    assert tamari_poly(tree) == tree_poly_sparse(tree)
    assert tamari_poly_mirror(tree) == tree_poly_sparse(mirror(tree))
    assert sized_folds == [2 * tree.size + 1] * 2


# the b-refined fold switches at two fifths of the bits, 89: at 48, 58 and
# 70 nodes (58, 85 and 78 bits) it does not, from 60 (90 bits) on it does;
# the plain fold switches at none of these (at most 202 bits, at 140)
BIVAR_SIZED = {48: 0, 58: 0, 60: 1, 70: 0, 119: 1, 140: 1}


@pytest.mark.parametrize("n", BIVAR_SIZED)
def test_large_bivar_polynomial(n, sized_folds):
    tree = from_dyck(random_ballot(random.Random(7), 1, n))
    assert tamari_poly_bivar(tree) == tree_poly_sparse(tree, weight=B)
    assert tamari_poly(tree) == tree_poly_sparse(tree)
    assert sized_folds == [2 * n + 1] * BIVAR_SIZED[n]


# paths' trees switch at 336 bits: 264, 327 and 335 bits below at 100, 123
# and 126 nodes (m = 2), 280, 325 and 335 at 90, 104 and 107 (m = 3); 338
# bits above at 127 and 108, 341 at 128 and 109, and 401 and 377 at 150
# and 120
@pytest.mark.parametrize("m, n, sized", [(2, 100, False), (2, 123, False),
                                         (2, 126, False), (2, 127, True),
                                         (2, 128, True), (2, 150, True),
                                         (2, 200, True), (3, 90, False),
                                         (3, 104, False), (3, 107, False),
                                         (3, 108, True), (3, 109, True),
                                         (3, 120, True), (3, 240, True)])
def test_large_path_polynomial(m, n, sized, sized_folds, monkeypatch):
    path = BallotPath(m, random_ballot(random.Random(2), m, n))
    tree = path_to_mary_prefix(path)
    value = mary_tamari_poly(tree)
    assert value == mary_poly_sparse(tree)
    assert path_count(path) == value.subs(x=1, y=1).constant()
    assert sized_folds == ([(m + 1) * n + 1] if sized else []) * 2
    # the other fold, forced, agrees
    monkeypatch.setattr(poly, "_SIZED_FOLD_BITS", 10 ** 6 if sized else 0)
    assert mary_tamari_poly(tree) == value
    assert len(sized_folds) == (2 if sized else 1)


@pytest.mark.parametrize("n", [100, 120, 140])
def test_fixed_and_sized_folds_agree_on_trees(n, sized_folds, monkeypatch):
    rng = random.Random(n)
    trees = (from_dyck(random_ballot(rng, 1, n)), caterpillar(rng, n))
    folds = (tamari_poly, tamari_poly_mirror, tamari_poly_bivar)
    values = []
    for bits in (10 ** 6, 0):  # every fold fixed, then every fold sized
        monkeypatch.setattr(poly, "_SIZED_FOLD_BITS", bits)
        values.append([fold(tree) for tree in trees for fold in folds])
    assert values[0] == values[1]
    assert sized_folds == [2 * n + 1] * 6


def test_small_trees_skip_the_sized_fold(sized_folds):
    # up to 224 bits: 146 nodes (224 bits), or 63 (87 bits, of 89) when
    # b-refined
    for n in (0, 1, 14, 60, 146):
        tree = from_dyck(random_ballot(random.Random(n), 1, n))
        assert tamari_poly(tree) == tree_poly_sparse(tree)
    for n in (14, 63):
        tree = from_dyck(random_ballot(random.Random(n), 1, n))
        assert tamari_poly_bivar(tree) == tree_poly_sparse(tree, weight=B)
    assert tamari_poly(left_comb(1000)) == Polynomial.monomial(1, ex=1000)
    assert tamari_poly_mirror(right_comb(1000)) == \
        Polynomial.monomial(1, ex=1000)
    assert tamari_poly(right_comb(114)) == tree_poly_sparse(right_comb(114))
    assert sized_folds == []


# --- the sized fold against the sparse folds, on both sides of the threshold

def caterpillar(rng, n):
    """A spine of nodes, each turning left or right at random, with a leaf
    node or nothing on its other side."""
    tree, size = BinaryTree(), 0
    while size < n:
        leg = BinaryTree(BinaryTree(), BinaryTree()) \
            if size + 2 <= n and rng.random() < 0.5 else BinaryTree()
        pair = (tree, leg) if rng.random() < 0.5 else (leg, tree)
        tree, size = BinaryTree(*pair), size + 1 + leg.size
    return tree


@settings(max_examples=12, deadline=None)
@given(st.integers(60, 400), st.randoms(use_true_random=False))
@example(80, random.Random(1)).via("below the threshold")
@example(300, random.Random(1)).via("above it")
def test_sized_fold_on_random_trees(n, rng):
    tree = from_dyck(random_ballot(rng, 1, n))
    plain, above = tamari_poly(tree), tamari_poly_mirror(tree)
    assert plain == tree_poly_sparse(tree)
    assert above == tree_poly_sparse(mirror(tree))
    for value in (plain, above):
        assert 1 <= value.subs(x=1).constant() <= catalan(n)


@settings(max_examples=8, deadline=None)
@given(st.integers(80, 200), st.randoms(use_true_random=False))
def test_sized_fold_on_combs_and_caterpillars(n, rng):
    top = right_comb(n)
    assert tamari_poly(top) == tree_poly_sparse(top)
    assert tamari_poly(top).subs(x=1).constant() == catalan(n)
    assert tamari_poly_mirror(mirror(top)).subs(x=1).constant() == catalan(n)
    tree = caterpillar(rng, n)
    assert tree.size == n
    plain, above = tamari_poly(tree), tamari_poly_mirror(tree)
    assert plain == tree_poly_sparse(tree)
    assert above == tree_poly_sparse(mirror(tree))
    for value in (plain, above):
        assert 1 <= value.subs(x=1).constant() <= catalan(n)


@settings(max_examples=4, deadline=None)
@given(st.integers(60, 100), st.randoms(use_true_random=False))
@example(60, random.Random(1)).via("the smallest sized b-refined comb")
def test_sized_fold_on_bivar_combs_and_caterpillars(n, rng):
    # all of these take the sized fold; on the combs the count bound, not
    # mu_0, gives most chains their width.  Smaller than the plain sizes,
    # as the sparse b-refined fold takes seconds on a 100-node comb.
    top, tree = right_comb(n), caterpillar(rng, n)
    assert tamari_poly_bivar(top) == tree_poly_sparse(top, weight=B)
    assert tamari_poly_bivar(top).subs(x=1, b=1).constant() == catalan(n)
    value = tamari_poly_bivar(tree)
    assert value == tree_poly_sparse(tree, weight=B)
    assert 1 <= value.subs(x=1, b=1).constant() <= catalan(n)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([(2, 120, 220), (3, 150, 260)]),
       st.randoms(use_true_random=False), st.data())
def test_sized_fold_on_paths(sizes, rng, data):
    m, low, high = sizes
    n = data.draw(st.integers(low, high))
    tree = path_to_mary_prefix(BallotPath(m, random_ballot(rng, m, n)))
    value = mary_tamari_poly(tree)
    assert value == mary_poly_sparse(tree)
    assert 1 <= value.subs(x=1, y=1).constant() <= fuss_catalan(m, n)


def _with_vectors(tree, image=None):
    """A binary tree's code, with its bracket vector and that of its mirror
    image, ``image`` if given (a deep comb's, which helpers.mirror would
    build by recursion)."""
    image = mirror(tree) if image is None else image
    return _postfix(tree), (bracket_vector(tree), bracket_vector(image))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.builds(lambda rng, n: _with_vectors(
        from_dyck(random_ballot(rng, 1, n))),
        st.randoms(use_true_random=False), st.integers(0, 400)),
    st.builds(lambda n, top: _with_vectors(right_comb(n), left_comb(n))
              if top else _with_vectors(left_comb(n), right_comb(n)),
              st.integers(0, 2000), st.booleans()),
    st.builds(lambda rng, m, n: (_postfix(path_to_mary_prefix(BallotPath(
        m, random_ballot(rng, m, n))), _mary_children), None),
        st.randoms(use_true_random=False), st.integers(1, 5),
        st.integers(0, 120))), st.booleans(), st.integers(0, 300))
@example(([0], ([], [])), False, 0).via("the empty tree")
def test_root_bound_is_the_count_or_the_degree_product(drawn, mirrored,
                                                       screen):
    code, vectors = drawn
    mirrored = mirrored and vectors is not None  # only binary codes mirror
    nodes, arity = len(code) - code.count(0), max(code)
    if vectors or arity == 2:  # a binary tree, or a path of slope 1
        # each factor is at most N + 1, so this cap never stops the pass
        product = _degree_product(code, mirrored, (nodes + 1) ** nodes)
    if vectors:
        assert product == prod(v + 1 for v in vectors[mirrored])
    if not mirrored:  # test_mirrored_root_bound relates the mirrored bound
        bare = bytes(code).count(bytes((0, arity))) if 1 < arity < 256 \
            else 0
        count = comb(arity * nodes, nodes) // ((arity - 1) * nodes + 1)
        power = (nodes + 1) ** ((arity - 1) * nodes - bare)
        bound = _root_bound(code, nodes, arity, screen)
        # the pass runs on binary codes only, and only past ``screen`` bits
        if arity == 2 and min(count, power).bit_length() > screen:
            assert product <= power
            assert bound == min(count, product)
        else:
            assert bound == min(count, power)


def test_root_bound_bounds_the_value_at_one():
    # the value at x = y = b = 1 counts the trees or paths below
    for n in range(9):
        for tree in enumerate_trees(n):
            code = _postfix(tree)
            for mirrored, image in ((False, tree), (True, mirror(tree))):
                value = tree_poly_sparse(image).subs(x=1).constant()
                assert _degree_product(code, mirrored, 2 ** 64) >= value
                assert _root_bound(code, n, max(code), 0, mirrored) >= value
    for m in range(1, 6):
        for n in range(5):
            for path in enumerate_ballot_paths(m, n):
                tree = path_to_mary_prefix(path)
                value = mary_poly_sparse(tree).subs(x=1, y=1).constant()
                code = _postfix(tree, _mary_children)
                assert _root_bound(code, n, max(code), 0) >= value


@given(st.integers(1, 64), st.integers(1, 64), st.data())
def test_repack_moves_every_slot(size, new_size, data):
    width, new_width = 8 * size, 8 * new_size
    top = 2 ** min(width, new_width) - 1
    coeffs = data.draw(st.lists(st.integers(0, top), max_size=80))
    packed = _repack(pack(coeffs, width), width, new_width)
    assert packed == pack(coeffs, new_width)
    assert _to_polynomial([packed], new_width) == sparse(coeffs)


# slot sizes in bytes around the struct format's one- and many-byte cases;
# a slot value of FULL or more stands for the full slot, 2^w - 1, at each
FULL = 2 ** 1000
SLOT_BYTES = (1, 2, 3, 7, 8, 9, 64, 65, 125)
slots = st.one_of(st.just(0), st.integers(0, 2 ** 70), st.just(FULL))


def full_slots(test):
    """Examples of full slots between zero slots and zero layers, at every
    size of SLOT_BYTES."""
    for size in SLOT_BYTES:
        test = example([], [[FULL, 0, 0, FULL], [], [0], [0, FULL, 0, 0]],
                       2, size).via(f"full {size}-byte slots")(test)
    return test


@given(st.lists(st.integers(0, 2 ** 70), max_size=40),
       st.lists(st.lists(slots, max_size=12), max_size=5), st.integers(0, 3),
       st.sampled_from(SLOT_BYTES))
@example([], [[5, 0, 0, 7], [], [0, 0], [0, 3, 0]], 1, 9).via(
    "zero layers between non-zero ones, and interior zero slots")
@example([], [[], [0, 0], [0]], 0, 1).via("zero layers only")
@full_slots
def test_pack_unpack_and_slope(coeffs, layers, shift, size):
    width = _slot_width(sum(coeffs) + 1)
    packed = pack(coeffs, width)
    assert _to_polynomial([packed], width) == sparse(coeffs)
    assert _to_polynomial([0, packed], width, shift=3) == \
        sparse(coeffs) * Polynomial.monomial(1, ex=3, ey=1)
    assert _to_polynomial([_slope(packed, width)], width) == \
        delta(sparse(coeffs))
    # _to_polynomial builds its Polynomial without __init__'s zero filter;
    # the slots are clamped to their width, so full ones are common
    layer_width, top = 8 * size, 2 ** (8 * size) - 1
    layers = [[min(c, top) for c in layer] for layer in layers]
    for by_b in (False, True):
        value = _to_polynomial([pack(layer, layer_width) for layer in layers],
                               layer_width, shift, by_b)
        assert value == Polynomial({
            (ex, 0, d) if by_b else (ex, d, 0): c
            for d, layer in enumerate(layers)
            for ex, c in enumerate(layer, shift)})
        assert all(c for _, c in value.terms())


@given(st.integers(0, 2 ** 300), st.integers(1, 6), st.integers(0, 2 ** 300),
       st.integers(1, 20))
@example(3, 1, 2 ** 16 + 5, 1).via("power 1: the chain is not shifted")
def test_times_slope_is_the_product_by_the_slope(lower, power, chain, size):
    width = 8 * size
    assert _times_slope(lower, power, chain, width) == \
        lower * _slope(chain << power * width, width)


@pytest.mark.parametrize("width", [8, 16, 64, 216])
def test_slot_sum_at_the_top_of_its_range(width):
    # slot sums of 2^width - 1 leave no remainder modulo 2^width - 1
    top = 2 ** width - 1
    for coeffs in ([top], [1, top - 1], [0, top - 5, 2, 3], [0, 0, top]):
        assert _slot_sum(pack(coeffs, width), width) == top
    assert _slot_sum(pack([0, top - 1], width), width) == top - 1
    assert _slot_sum(0, width) == 0


@given(st.integers(1, 32), st.data())
def test_slot_sum_is_the_value_at_one(size, data):
    width = 8 * size
    top = 2 ** width - 1
    total = data.draw(st.one_of(st.just(top), st.integers(0, top)))
    cuts = sorted(data.draw(st.lists(st.integers(0, total), max_size=40)))
    coeffs = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    assert _slot_sum(pack(coeffs, width), width) == total


def test_slot_widths_are_whole_bytes():
    assert [_slot_width(v) for v in (1, 255, 256, 2 ** 64 - 1, 2 ** 64)] == \
        [8, 8, 16, 64, 72]
