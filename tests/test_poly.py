import pytest

from helpers import (chapoton_count_factorial, contact_count, mirror,
                     phi_series_fixed_point, tree_downsets, tree_poly_sparse,
                     tree_upsets)
from tamari.poly import (ONE, B, X, Polynomial, bilinear_B, bilinear_B_bivar,
                         chapoton_count, delta, parse_polynomial, phi_series,
                         tamari_poly, tamari_poly_bivar, tamari_poly_mirror)
from tamari.trees import EMPTY, enumerate_trees, left_border_count, parse_tree

TREE6 = parse_tree("[[[_,[_,_]],_],[[_,_],_]]")


def poly_of(text):
    return parse_polynomial(text)


def test_polynomial_arithmetic_and_rendering():
    p = 2 * X + Polynomial.monomial(3, ex=2) - X
    assert str(p) == "x + 3*x^2"
    assert p.coefficient(ex=2) == 3
    assert str(Polynomial()) == "0"
    assert str(ONE) == "1"
    assert str(X - ONE) == "-1 + x"
    q = parse_polynomial(str(p))
    assert q == p
    assert parse_polynomial("x^3 + 2*x^4 + 2*x^5 + x^6") == \
        Polynomial({(3, 0, 0): 1, (4, 0, 0): 2, (5, 0, 0): 2, (6, 0, 0): 1})
    with pytest.raises(ValueError):
        parse_polynomial("x + z")
    negative = -3 * X * X + 2 * Polynomial.monomial(1, ey=1, eb=2) - ONE
    assert str(negative) == "-1 - 3*x^2 + 2*y*b^2"
    assert parse_polynomial(str(negative)) == negative


@pytest.mark.parametrize("text", [
    "x^-1",     # once read as -1 + x
    "1+",       # once accepted as 1
    "",
    "+x",
    "x + + y",
    "x - ",
    "x^",
    "x*",
    "*x",
    "2**x",
    "x y",
    "1 2",
    "x^2^3",
    "xy",
    "x^٣",      # non-ASCII digits were once read as 3
    "٣*x",
    "x^²",
])
def test_parse_polynomial_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_polynomial(text)


@pytest.mark.parametrize("text, terms", [
    ("x ^ 2 * y", {(2, 1, 0): 1}),
    ("- x + 1", {(1, 0, 0): -1, (0, 0, 0): 1}),
    ("x\u2003+\u00a01", {(1, 0, 0): 1, (0, 0, 0): 1}),  # Unicode whitespace
    ("x\n+\ny", {(1, 0, 0): 1, (0, 1, 0): 1}),
    ("x*x*2*3", {(2, 0, 0): 6}),
    ("0*x + 1", {(0, 0, 0): 1}),
    ("x^0", {(0, 0, 0): 1}),
    ("x + x", {(1, 0, 0): 2}),
])
def test_parse_polynomial_accepts_spaced_and_repeated_factors(text, terms):
    assert parse_polynomial(text) == Polynomial(terms)


def test_subs_and_constant():
    p = poly_of("x^2*y + 3*x*y*b")
    assert p.subs(x=1, b=1) == poly_of("4*y")
    assert p.subs(x=2, y=1, b=0).constant() == 4
    with pytest.raises(ValueError):
        p.constant()


def test_constant_polynomials_hash_as_their_integers():
    for value in (0, 1, 3, -7, 2 ** 100):
        constant = Polynomial.monomial(value)
        assert constant == value and hash(constant) == hash(value)
        assert len({value, constant}) == 1
    assert len({0, Polynomial()}) == 1
    assert hash(X) == hash(poly_of("x")) and X != 1


@pytest.mark.parametrize("value, text", [
    (X + 1, "1 + x"), (X - 1, "-1 + x"), (1 - X, "1 - x"),
])
def test_integers_mix_into_polynomial_arithmetic(value, text):
    assert value == poly_of(text)
    assert repr(value) == f"Polynomial({text})"


@pytest.mark.parametrize("value, truth", [
    (Polynomial(), False), (X - X, False), (ONE, True), (X, True),
])
def test_a_polynomial_is_true_when_not_zero(value, truth):
    assert bool(value) is truth


@pytest.mark.parametrize("other", ["a", 1.5, None])
def test_polynomials_add_no_other_type(other):
    with pytest.raises(TypeError):
        X + other


def test_delta():
    assert delta(poly_of("x^2")) == poly_of("1 + x")
    assert delta(ONE) == Polynomial()
    # 3(1+x+x^2) + 1, checked by multiplying back below
    assert delta(poly_of("3*x^3 + x")) == poly_of("4 + 3*x + 3*x^2")
    g = poly_of("3*x^3 + x")
    assert (X - ONE) * delta(g) == g - g.subs(x=1)


def test_bilinear_B():
    assert bilinear_B(ONE, ONE) == poly_of("x*y")
    assert bilinear_B(poly_of("x^2*y^3"), poly_of("x^2*y^3")) == \
        poly_of("x^5*y^7 + x^4*y^7 + x^3*y^7")
    assert bilinear_B(X, X) == poly_of("x^2*y + x^3*y")
    # the size-2 layer of the series assembles from both nestings
    assert bilinear_B(bilinear_B(ONE, ONE), ONE) + \
        bilinear_B(ONE, bilinear_B(ONE, ONE)) == poly_of("x*y^2 + 2*x^2*y^2")


def test_bilinear_B_bivar():
    f = poly_of("y^3*x^2*b")
    assert bilinear_B_bivar(f, f) == poly_of("y^7*x^5*b^2 + y^7*x^4*b^3 + y^7*x^3*b^3")
    assert bilinear_B_bivar(ONE, ONE) == poly_of("x*y")
    # collapses to the plain form at b=1
    g = poly_of("x^2*y + x*y")
    h = poly_of("x*y + y")
    assert bilinear_B_bivar(g, h).subs(b=1) == bilinear_B(g, h)


def test_tamari_poly_six_node_tree():
    # node-by-node values from the worked six-node example
    assert tamari_poly(parse_tree("[_,_]")) == poly_of("x")
    assert tamari_poly(parse_tree("[_,[_,_]]")) == poly_of("x + x^2")
    assert tamari_poly(parse_tree("[[_,[_,_]],_]")) == poly_of("x^2 + x^3")
    assert tamari_poly(parse_tree("[[_,_],_]")) == poly_of("x^2")
    assert tamari_poly(TREE6) == poly_of("x^3 + 2*x^4 + 2*x^5 + x^6")
    assert tamari_poly(EMPTY) == ONE
    assert tamari_poly(TREE6).subs(x=1).constant() == 6


def test_tamari_poly_counts_smaller_trees():
    for n in range(7):
        downs = tree_downsets(n)
        for t in enumerate_trees(n):
            p = tamari_poly(t)
            assert p.subs(x=1).constant() == len(downs[t])
            for j in range(n + 2):
                expected = sum(1 for u in downs[t] if left_border_count(u) == j)
                assert p.coefficient(ex=j) == expected


def test_tamari_poly_max_degree_coefficient_is_one():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            p = tamari_poly(t)
            top = max(ex for (ex, _, _), _ in p.terms())
            assert p.coefficient(ex=top) == 1


def test_tamari_poly_mirror():
    assert tamari_poly_mirror(EMPTY) == ONE
    assert tamari_poly_mirror(parse_tree("[[[_,_],_],_]")).subs(x=1).constant() == 5
    for n in range(7):
        ups = tree_upsets(n)
        for t in enumerate_trees(n):
            p = tamari_poly_mirror(t)
            assert p.subs(x=1).constant() == len(ups[t])
            for j in range(n + 2):
                expected = sum(1 for u in ups[t]
                               if left_border_count(mirror(u)) == j)
                assert p.coefficient(ex=j) == expected


def test_tamari_poly_bivar():
    assert tamari_poly_bivar(parse_tree("[_,_]")) == poly_of("x")
    for n in range(7):
        for t in enumerate_trees(n):
            bivar = tamari_poly_bivar(t)
            # the sparse fold shares no code with the packed one
            assert bivar == tree_poly_sparse(t, weight=B)
            assert bivar.subs(b=1) == tamari_poly(t)


def right_subtree_nodes(tree):
    if not tree:
        return 0
    return (right_subtree_nodes(tree.left) + right_subtree_nodes(tree.right)
            + (1 if tree.right else 0))


def test_tamari_poly_bivar_counts_right_subtree_statistic():
    for n in range(6):
        downs = tree_downsets(n)
        for t in enumerate_trees(n):
            p = tamari_poly_bivar(t)
            for j in range(n + 1):
                for k in range(n + 1):
                    expected = sum(1 for u in downs[t]
                                   if left_border_count(u) == j
                                   and right_subtree_nodes(u) == k)
                    assert p.coefficient(ex=j, eb=k) == expected


def test_phi_series():
    assert phi_series(3) == poly_of(
        "1 + x*y + x*y^2 + 2*x^2*y^2 + 3*x*y^3 + 5*x^2*y^3 + 5*x^3*y^3")
    assert phi_series(0) == ONE
    phi = phi_series(4)
    assert [phi.y_coefficient(k).subs(x=1).constant() for k in range(5)] == \
        [1, 1, 3, 13, 68]


def test_phi_series_refuses_a_negative_order():
    with pytest.raises(ValueError, match="series order must be non-negative"):
        phi_series(-1)


def test_phi_series_matches_fixed_point():
    reference = phi_series_fixed_point(12)
    for n in range(13):
        assert phi_series(n) == reference.truncate_y(n)


def test_phi_series_matches_the_contact_closed_form():
    # every x-slot of Phi through y^60, where the fixed point stops at 12
    phi = phi_series(60)
    for n in range(1, 61):
        assert phi.y_coefficient(n) == sum(
            (Polynomial.monomial(contact_count(n, k), ex=k)
             for k in range(1, n + 1)), Polynomial()), n


def test_phi_series_matches_tree_sums():
    phi = phi_series(6)
    for n in range(7):
        total = Polynomial()
        for t in enumerate_trees(n):
            total = total + tamari_poly(t)
        assert phi.y_coefficient(n) == total


def test_chapoton_count():
    assert [chapoton_count(n) for n in range(5)] == [1, 1, 3, 13, 68]
    with pytest.raises(ValueError):
        chapoton_count(-1)


def test_chapoton_count_matches_the_factorial_form():
    for n in [*range(300), 1000, 4321]:
        assert chapoton_count(n) == chapoton_count_factorial(n), n
