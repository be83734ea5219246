"""The packed kernels at the edge of their slot widths.

Every fold packs coefficients into slots whose width comes from a bound on
the largest coefficient it can form.  The inputs here reach those bounds:
the top of each lattice has every element below it, so its polynomial's
coefficients sum to the whole lattice, and the series is checked at its top
degree, next to the one its width is computed for.  Random trees and paths
large enough for the factorial-moment bound check its narrower slots.
"""

import random
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (left_comb, mary_poly_sparse, mirror,
                     mtamari_interval_count, random_ballot, right_comb,
                     tree_poly_sparse)
from tamari import poly
from tamari.mtamari import (BallotPath, fuss_catalan, mary_tamari_poly,
                            path_to_mary_prefix, phi_m_series)
from tamari.poly import (B, Polynomial, _slope, _slot_width, _to_polynomial,
                         delta, tamari_poly, tamari_poly_bivar,
                         tamari_poly_mirror)
from tamari.trees import from_dyck


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


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_phi_m_series_top_degree(m):
    for top in (0, 1, 2, 5, 12, 24):
        layer = phi_m_series(m, top).y_coefficient(top)
        assert layer.subs(x=1).constant() == mtamari_interval_count(m, top)


@pytest.fixture
def moment_passes(monkeypatch):
    """The sizes of the codes the factorial-moment bound is taken for."""
    sizes, bound = [], poly._moment_bound

    def spy(code):
        sizes.append(len(code))
        return bound(code)

    monkeypatch.setattr(poly, "_moment_bound", spy)
    return sizes


@pytest.mark.parametrize("seed", range(5))
def test_large_tree_polynomials(seed, moment_passes):
    rng = random.Random(seed)
    tree = from_dyck(random_ballot(rng, 1, rng.randint(200, 400)))
    assert tamari_poly(tree) == tree_poly_sparse(tree)
    assert tamari_poly_mirror(tree) == tree_poly_sparse(mirror(tree))
    assert moment_passes == [2 * tree.size + 1] * 2


def test_large_bivar_polynomial(moment_passes):
    tree = from_dyck(random_ballot(random.Random(7), 1, 140))
    assert tamari_poly_bivar(tree) == tree_poly_sparse(tree, weight=B)
    assert moment_passes == [281]


def test_large_path_polynomial(moment_passes):
    path = BallotPath(2, random_ballot(random.Random(2), 2, 150))
    tree = path_to_mary_prefix(path)
    assert mary_tamari_poly(tree) == mary_poly_sparse(tree)
    assert moment_passes == [451]


def test_small_trees_skip_the_moment_pass(moment_passes):
    for n in (0, 1, 14, 60):
        tree = from_dyck(random_ballot(random.Random(n), 1, n))
        assert tamari_poly(tree) == tree_poly_sparse(tree)
    assert tamari_poly(left_comb(1000)) == Polynomial.monomial(1, ex=1000)
    assert moment_passes == []


@given(st.lists(st.integers(0, 2 ** 70), max_size=40))
def test_pack_unpack_and_slope(coeffs):
    width = _slot_width(sum(coeffs) + 1)
    packed = pack(coeffs, width)
    assert _to_polynomial([packed], width) == sparse(coeffs)
    assert _to_polynomial([0, packed], width, shift=3) == \
        sparse(coeffs) * Polynomial.monomial(1, ex=3, ey=1)
    assert _to_polynomial([_slope(packed, width)], width) == \
        delta(sparse(coeffs))


def test_slot_widths_are_whole_bytes():
    assert [_slot_width(v) for v in (1, 255, 256, 2 ** 64 - 1, 2 ** 64)] == \
        [8, 8, 16, 64, 72]
