"""Exact sparse polynomials in x, y, b and the Tamari counting machinery.

The three variables have fixed meanings throughout the package: y grades by
size (number of nodes / poset vertices), x by the left-border statistic of
the lower tree, and b by its number of nodes with a non-empty right subtree.
Coefficients are exact Python integers; zero coefficients are never stored.

Rendering lists terms by ascending (y-degree, x-degree, b-degree); each term
prints as ``c*x^a*y^b*b^c`` with unit coefficients and exponents elided, and
the output parses back with :func:`parse_polynomial`.

The tree polynomials and the series work on packed ints (see the kernels
below) and convert to :class:`Polynomial` only on return.  One solver serves
both series, degree by degree: the m-Tamari equation for every slope m, of
which Chapoton's equation Phi = B(Phi, Phi) + 1 is the m = 1 case.
"""

from __future__ import annotations

import re
from math import comb, factorial
from operator import mul

from .trees import BinaryTree, _fold, _postfix

Key = tuple[int, int, int]  # (x-degree, y-degree, b-degree)


class Polynomial:
    """Immutable sparse polynomial in x, y, b with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Key, int] | None = None):
        self._terms = clean = {}
        for key, coeff in terms.items() if terms else ():
            if coeff:
                ex, ey, eb = key
                if ex < 0 or ey < 0 or eb < 0:
                    raise ValueError(f"negative exponent in {key}")
                clean[key] = coeff

    @staticmethod
    def monomial(coeff: int, ex: int = 0, ey: int = 0, eb: int = 0) -> Polynomial:
        return Polynomial({(ex, ey, eb): coeff})

    def terms(self) -> list[tuple[Key, int]]:
        """Term list in canonical order (ascending y, x, b degrees)."""
        return sorted(self._terms.items(),
                      key=lambda item: (item[0][1], item[0][0], item[0][2]))

    def coefficient(self, ex: int = 0, ey: int = 0, eb: int = 0) -> int:
        return self._terms.get((ex, ey, eb), 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Polynomial.monomial(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._terms.keys() <= {(0, 0, 0)}:  # equal to an int: hash as one
            return hash(self.coefficient())
        return hash(frozenset(self._terms.items()))

    def __add__(self, other) -> Polynomial:
        if isinstance(other, int):
            other = Polynomial.monomial(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            terms[key] = terms.get(key, 0) + coeff
        return Polynomial(terms)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial({key: -c for key, c in self._terms.items()})

    def __sub__(self, other) -> Polynomial:
        return self + (-other if isinstance(other, Polynomial)
                       else Polynomial.monomial(-other))

    def __rsub__(self, other) -> Polynomial:
        return Polynomial.monomial(other) - self

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, int):
            return Polynomial({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms: dict[Key, int] = {}
        for (x1, y1, b1), c1 in self._terms.items():
            for (x2, y2, b2), c2 in other._terms.items():
                key = (x1 + x2, y1 + y2, b1 + b2)
                terms[key] = terms.get(key, 0) + c1 * c2
        return Polynomial(terms)

    __rmul__ = __mul__

    def subs(self, x: int | None = None, y: int | None = None,
             b: int | None = None) -> Polynomial:
        """Substitute integer values for any of the variables."""
        terms: dict[Key, int] = {}
        for (ex, ey, eb), coeff in self._terms.items():
            if x is not None:
                coeff *= x ** ex
                ex = 0
            if y is not None:
                coeff *= y ** ey
                ey = 0
            if b is not None:
                coeff *= b ** eb
                eb = 0
            key = (ex, ey, eb)
            terms[key] = terms.get(key, 0) + coeff
        return Polynomial(terms)

    def constant(self) -> int:
        """The value of a constant polynomial."""
        if self._terms.keys() - {(0, 0, 0)}:
            raise ValueError(f"polynomial is not constant: {self}")
        return self._terms.get((0, 0, 0), 0)

    def truncate_y(self, max_degree: int) -> Polynomial:
        """Drop terms of y-degree greater than ``max_degree``."""
        return Polynomial({k: c for k, c in self._terms.items()
                           if k[1] <= max_degree})

    def y_coefficient(self, degree: int) -> Polynomial:
        """The coefficient of y^degree, as a polynomial in x and b."""
        return Polynomial({(ex, 0, eb): c
                           for (ex, ey, eb), c in self._terms.items()
                           if ey == degree})

    def max_x_degree(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no degree")
        return max(ex for ex, _, _ in self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        rendered = []
        for (ex, ey, eb), coeff in self.terms():
            parts = []
            for name, exp in (("x", ex), ("y", ey), ("b", eb)):
                if exp == 1:
                    parts.append(name)
                elif exp > 1:
                    parts.append(f"{name}^{exp}")
            magnitude = abs(coeff)
            if magnitude != 1 or not parts:
                parts.insert(0, str(magnitude))
            rendered.append((coeff < 0, "*".join(parts)))
        first_neg, first = rendered[0]
        pieces = [("-" if first_neg else "") + first]
        for negative, text in rendered[1:]:
            pieces.append(("- " if negative else "+ ") + text)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


ZERO = Polynomial()
ONE = Polynomial.monomial(1)
X = Polynomial.monomial(1, ex=1)
Y = Polynomial.monomial(1, ey=1)
B = Polynomial.monomial(1, eb=1)


_VARIABLES = ("x", "y", "b")


def parse_polynomial(text: str) -> Polynomial:
    """Inverse of ``str(polynomial)``.

    Accepts terms separated by ``+`` or ``-``, the first one optionally
    negated; a term is ``*``-separated factors, each an integer or one of
    x, y, b with an optional ``^<integer>``.  Whitespace between tokens is
    ignored.  Anything else raises ValueError.
    """
    tokens = re.findall(r"[0-9]+|\S", text) + [""]  # "" ends the text
    terms: dict[Key, int] = {}
    pos, sign = (1, -1) if tokens[0] == "-" else (0, 1)
    while True:
        coeff, exps = sign, [0, 0, 0]
        while True:
            token = tokens[pos]
            pos += 1
            if token.isdecimal():
                coeff *= int(token)
            elif token in _VARIABLES:
                power = 1
                if tokens[pos] == "^":
                    if not tokens[pos + 1].isdecimal():
                        raise ValueError(f"expected an exponent after '^' in "
                                         f"{text!r}")
                    power, pos = int(tokens[pos + 1]), pos + 2
                exps[_VARIABLES.index(token)] += power
            else:
                raise ValueError(f"expected a number or one of x, y, b at "
                                 f"token {token!r} of {text!r}")
            if tokens[pos] != "*":
                break
            pos += 1
        key = (exps[0], exps[1], exps[2])
        terms[key] = terms.get(key, 0) + coeff
        separator = tokens[pos]
        pos += 1
        if not separator:
            return Polynomial(terms)
        if separator not in ("+", "-"):
            raise ValueError(f"expected '+' or '-' at token {separator!r} "
                             f"of {text!r}")
        sign = 1 if separator == "+" else -1


def delta(g: Polynomial) -> Polynomial:
    """The slope operator (g - g|x=1) / (x - 1), exact on polynomials.

    Acts on x only: a term x^k maps to 1 + x + ... + x^(k-1); y and b ride
    along as coefficients.
    """
    terms: dict[Key, int] = {}
    for (ex, ey, eb), coeff in g._terms.items():
        for i in range(ex):
            key = (i, ey, eb)
            terms[key] = terms.get(key, 0) + coeff
    return Polynomial(terms)


def bilinear_B(f: Polynomial, g: Polynomial) -> Polynomial:
    """The interval-composition form xy * f * (x*g - g|x=1) / (x - 1)."""
    return X * Y * f * (g + delta(g))


def bilinear_B_bivar(f: Polynomial, g: Polynomial) -> Polynomial:
    """The b-refined form y*(xb*f*(x*g - g|x=1)/(x-1) - bxfg + xfg).

    Algebraically equal to y * x * f * (g + b*delta(g)); at b=1 it collapses
    to :func:`bilinear_B`.
    """
    return Y * X * f * (g + B * delta(g))


# Packed kernels (Kronecker substitution, arXiv:0712.4046): a polynomial in
# x is one int with coefficient i at bits i*width.  + and * stay exact while
# no coefficient outgrows its slot, so each fold proves a bound for them.

def _slot_width(bound: int) -> int:
    """Bits per slot for coefficients up to ``bound``, a multiple of 8."""
    return -(-bound.bit_length() // 8) * 8


def _slope(packed: int, width: int) -> int:
    """delta on a packed polynomial: slot i becomes the sum of the slots
    above it, by shift-and-add doubling, whose partial sums stay below it."""
    out = packed >> width
    step = width
    while out >> step:
        out += out >> step
        step <<= 1
    return out


def _to_polynomial(layers: list[int], width: int, shift: int = 0,
                   by_b: bool = False) -> Polynomial:
    """The polynomial with slot i of layers[d] on x^(i+shift) * y^d, or on
    x^(i+shift) * b^d when ``by_b``."""
    size = width // 8
    terms = {}
    for d, packed in enumerate(layers):
        data = packed.to_bytes(-(-packed.bit_length() // width) * size, "little")
        for ex, i in enumerate(range(0, len(data), size), shift):
            if coeff := int.from_bytes(data[i:i + size], "little"):
                terms[(ex, 0, d) if by_b else (ex, d, 0)] = coeff
    return Polynomial(terms)


def tamari_poly(tree: BinaryTree) -> Polynomial:
    """Polynomial in x counting the trees below ``tree`` by left border.

    Recursion: the empty tree gives 1, and a node with subtree polynomials
    L and R gives x * L * (x*R - R(1)) / (x - 1).
    """
    return _chain_poly(_postfix(tree))


def tamari_poly_mirror(tree: BinaryTree) -> Polynomial:
    """Left/right-swapped recursion: counts trees above by right border."""
    return _chain_poly(_postfix(tree, lambda t: (t.right, t.left) if t.size
                                else ()))


def tamari_poly_bivar(tree: BinaryTree) -> Polynomial:
    """Two-variable refinement in x and b; b marks lower-tree nodes that
    carry a right subtree.  Setting b=1 recovers :func:`tamari_poly`."""
    return _chain_poly(_postfix(tree), bivar=True)


def _chain_poly(code: list[int], bivar: bool = False,
                mary: bool = False) -> Polynomial:
    """Fold the chained form x * f_1 * D(f_2 * D(... * D(f_k))) over the
    children of each node of a postfix code, with x on each leaf, where
    D(x*h) = h + b*delta(h) and b = 1 unless ``bivar``.  On a binary tree
    that is x * (x*L) * D(x*R): x times the tree polynomial, which is
    returned; with ``mary``, the value times y^(number of nodes).

    A power of x stays an exponent until its chain is differentiated, and
    D(x) = 1 passes the next child on, so a comb costs one increment per
    node.  Width: every chain c is divisible by x, so D(c)(1) >= c(1) at
    b = 1 and values grow toward the root, whose value at x = b = 1 counts
    the trees below (above, if mirrored) or the paths below: at most the
    Fuss-Catalan number C((m+1)N, N) / (mN+1) for N nodes of m+1 children.
    As D(x) = 1 and D(c)(1) <= deg(c) * c(1) <= (N+1) * c(1), it is also at
    most (N+1)^s, s = mN less the nodes whose last child is a leaf (0, m+1).
    """
    nodes, arity = len(code) - code.count(0), max(code)
    bare = bytes(code).count(bytes((0, arity))) if 1 < arity < 256 else 0
    width = _slot_width(min(comb(arity * nodes, nodes),
                            (nodes + 1) ** ((arity - 1) * nodes - bare)))

    def times_slope(lower, power, chain):  # lower * D(x^power * chain)
        return lower * _slope(chain << power * width, width)

    def times_slope_b(lower, power, chain):  # the same on lists by b-degree
        upper = [layer << (power - 1) * width for layer in chain]
        factor = [g + _slope(h, width) for g, h in zip(upper + [0], [0] + upper)]
        product = [0] * (len(lower) + len(upper))
        for i, a in enumerate(lower):
            for j, c in enumerate(factor, i):
                product[j] += a * c
        return product

    step = times_slope_b if bivar else times_slope
    leaf = (1, [1] if bivar else 1)

    def node(*children):
        value = children[-1]
        for f in children[-2::-1]:
            if value is not leaf:  # else D(x) = 1 leaves f as the chain
                f = f[0], step(f[1], *value)
            value = f
        return value[0] + 1, value[1]

    power, packed = _fold(code, leaf, node)
    if mary:
        return _to_polynomial([0] * nodes + [packed], width, power)
    return _to_polynomial(packed if bivar else [packed], width, power - 1,
                          by_b=True)


def _series_layers(m: int, max_degree: int) -> tuple[list[int], int]:
    """Phi_m / x through y^max_degree, as packed x-polynomials per
    y-degree, and their slot width.

    The m-Tamari series Phi_m = x + B_m(Phi_m, ..., Phi_m) becomes
    Psi = 1 + xy * Psi * S_m for Psi = Phi_m / x, because delta(x*g) =
    g + delta(g); here S_1 = Psi + delta(Psi) and S_(j+1) = Psi*S_j +
    delta(Psi*S_j).  Degree n of Psi, then of S_1..S_m, needs only lower
    degrees of Psi.  At m = 1, Psi is Chapoton's Phi.

    Width: Psi_0 = 1 gives Psi_n <= S_1[n] <= ... <= S_m[n] <= Psi_(n+1) / x
    coefficientwise, so no coefficient formed exceeds Psi_(N+1)(1), the
    m-Tamari intervals of size N+1: C((m+1)^2 (N+1) + m, N) bounds it.
    """
    width = _slot_width(comb((m + 1) ** 2 * (max_degree + 1) + m,
                             max_degree))
    layers = [1]
    slopes = [[1] for _ in range(m)]  # S_1 .. S_m, each 1 at degree 0
    for n in range(1, max_degree + 1):
        chain = sum(map(mul, layers, reversed(slopes[-1]))) << width
        layers.append(chain)
        for j, slope in enumerate(slopes):
            if j:
                chain = sum(map(mul, layers, reversed(slopes[j - 1])))
            slope.append(chain + _slope(chain, width))
    return layers, width


def phi_series(max_degree: int) -> Polynomial:
    """The interval generating function Phi(x, y) through y^max_degree.

    Phi = B(Phi, Phi) + 1 is the m = 1 case of the m-Tamari equation, so
    the shared solver gives it: the coefficient of y^0 is 1, and that of y^n
    is x * sum_k P_k * (P_(n-1-k) + delta(P_(n-1-k))).
    """
    if max_degree < 0:
        raise ValueError("series order must be non-negative")
    return _to_polynomial(*_series_layers(1, max_degree))


def chapoton_count(n: int) -> int:
    """Closed-form interval count 2*(4n+1)! / ((n+1)!*(3n+2)!)."""
    if n < 0:
        raise ValueError("size must be non-negative")
    return 2 * factorial(4 * n + 1) // (factorial(n + 1) * factorial(3 * n + 2))
