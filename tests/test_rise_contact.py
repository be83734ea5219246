"""The rise-contact symmetry as a check on the series' x-refinement.

Over Tamari intervals [S, T], and over m-Tamari intervals of ballot paths,
the contacts (x in Phi: the lower tree's left border, or the decreasing
components of the interval-poset) and the initial rise of the upper end
(the upper tree's right border, or the leading N steps of the upper path)
have a symmetric joint distribution (Pons, "The rise-contact involution on
Tamari intervals", Electron. J. Combin., 2019).  So Phi's x-refinement can
be rebuilt from plain counts placed by the rise, with no oracle, and the
tree polynomials' x-refinement must be symmetric against the rise.
"""

from collections import Counter

import pytest

from helpers import mirror
from tamari.compose import enumerate_interval_posets
from tamari.intervalposet import stat_monomial, upper_tree
from tamari.mtamari import path_counts, phi_m_series
from tamari.poly import Polynomial, phi_series, tamari_poly
from tamari.trees import enumerate_trees, left_border_count


def is_symmetric(joint):
    return joint == {(b, a): count for (a, b), count in joint.items()}


@pytest.mark.parametrize("n", range(8))
def test_contacts_and_rise_are_jointly_symmetric(n):
    joint = Counter((contacts, left_border_count(mirror(upper_tree(p))))
                    for p in enumerate_interval_posets(n)
                    for (contacts, _, _), _ in stat_monomial(p).terms())
    assert is_symmetric(joint)
    assert n < 2 or any(a != b for a, b in joint)  # not symmetric term by term


@pytest.mark.parametrize("n", range(9))
def test_tree_polynomials_by_rise_are_symmetric(n):
    # route B: sum over T of z^rb(T) * B_T(x), with no oracle
    joint = Counter()
    for t in enumerate_trees(n):
        rise = left_border_count(mirror(t))
        for (ex, _, _), count in tamari_poly(t).terms():
            joint[ex, rise] += count
    assert is_symmetric(joint)


def test_phi_from_counts_by_rise():
    # route A: [y^n] Phi = sum over T of B_T(1) * x^rb(T)
    phi = phi_series(8)
    for n in range(9):
        by_rise = sum((Polynomial.monomial(tamari_poly(t).subs(x=1).constant(),
                                           ex=left_border_count(mirror(t)))
                       for t in enumerate_trees(n)), Polynomial())
        assert phi.y_coefficient(n) == by_rise, n


@pytest.mark.parametrize("m, max_n", [(2, 6), (3, 5)])
def test_phi_m_from_path_counts_by_rise(m, max_n):
    # [y^n] Phi_m = sum over paths q of (paths below q) * x^(rise(q) + 1)
    phi = phi_m_series(m, max_n)
    for n in range(max_n + 1):
        by_rise = Counter()
        for word, count in path_counts(m, n).items():
            by_rise[len(word) - len(word.lstrip("N")) + 1] += count
        assert phi.y_coefficient(n) == Polynomial(
            {(ex, 0, 0): count for ex, count in by_rise.items()}), (m, n)
