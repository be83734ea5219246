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
from math import comb, log2
from operator import mul

from .trees import BinaryTree, _fold, _parse_code, _postfix

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


ONE = Polynomial.monomial(1)
X = Polynomial.monomial(1, ex=1)
Y = Polynomial.monomial(1, ey=1)
B = Polynomial.monomial(1, eb=1)


_VARIABLES = ("x", "y", "b")
_is_number = re.compile(r"[0-9]+").fullmatch  # ASCII digits, unlike isdecimal


def parse_polynomial(text: str) -> Polynomial:
    """Inverse of ``str(polynomial)``.

    Accepts terms separated by ``+`` or ``-``, the first one optionally
    negated; a term is ``*``-separated factors, each an integer or one of
    x, y, b with an optional ``^<integer>``, integers being runs of ASCII
    digits.  Whitespace between tokens is ignored.  Anything else raises
    ValueError.
    """
    tokens = re.findall(r"[0-9]+|\S", text) + [""]  # "" ends the text
    terms: dict[Key, int] = {}
    pos, sign = (1, -1) if tokens[0] == "-" else (0, 1)
    while True:
        coeff, exps = sign, [0, 0, 0]
        while True:
            token = tokens[pos]
            pos += 1
            if _is_number(token):
                coeff *= int(token)
            elif token in _VARIABLES:
                power = 1
                if tokens[pos] == "^":
                    if not _is_number(tokens[pos + 1]):
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
    above it, by shift-and-add doubling, one shift per step (adding the
    value shifted by 1, 2, 4, ... slots), whose partial sums stay below
    it.  The loop ends at the first shift that leaves nothing."""
    out = packed >> width
    step = width
    while shifted := out >> step:
        out += shifted
        step <<= 1
    return out


def _slot_sum(packed: int, width: int) -> int:
    """The sum of the slots of a packed polynomial, its value at x = 1,
    given that the sum is below 2^width.  As 2^width is 1 modulo
    2^width - 1, ``packed`` is its slot sum modulo 2^width - 1, and in
    0 .. 2^width - 1 only 0 and 2^width - 1 share a residue.  The slots
    are non-negative, so the sum is 0 only when ``packed`` is."""
    mask = (1 << width) - 1
    residue = packed % mask
    return residue if residue or not packed else mask


def _to_polynomial(layers: list[int], width: int, shift: int = 0,
                   by_b: bool = False) -> Polynomial:
    """The polynomial with slot i of layers[d] on x^(i+shift) * y^d, or on
    x^(i+shift) * b^d when ``by_b``.  Its keys are never negative and its
    zero slots are dropped, so it is built without __init__'s checks."""
    size = width // 8
    terms = {}
    for d, packed in enumerate(layers):
        if not packed:
            continue
        data = packed.to_bytes(-(-packed.bit_length() // width) * size,
                               "little")
        slots = [int.from_bytes(data[i:i + size], "little")
                 for i in range(0, len(data), size)]
        ey, eb = (0, d) if by_b else (d, 0)
        terms.update({(ex, ey, eb): c for ex, c in enumerate(slots, shift)
                      if c})
    out = Polynomial.__new__(Polynomial)
    out._terms = terms
    return out


def tamari_poly(tree: BinaryTree) -> Polynomial:
    """Polynomial in x counting the trees below ``tree`` by left border.

    Recursion: the empty tree gives 1, and a node with subtree polynomials
    L and R gives x * L * (x*R - R(1)) / (x - 1).
    """
    return _chain_poly(_postfix(tree))


def tamari_poly_mirror(tree: BinaryTree) -> Polynomial:
    """Left/right-swapped recursion: counts trees above by right border."""
    return _chain_poly(_postfix(tree), mirror=True)


def tamari_poly_bivar(tree: BinaryTree) -> Polynomial:
    """Two-variable refinement in x and b; b marks lower-tree nodes that
    carry a right subtree.  Setting b=1 recovers :func:`tamari_poly`."""
    return _chain_poly(_postfix(tree), bivar=True)


def text_tamari_poly(text: str, variant: str = "standard") -> Polynomial:
    """The polynomial of ``variant`` (``standard``, ``mirror`` or ``bivar``)
    of the tree a literal or Dyck word reads: :func:`tamari_poly`,
    :func:`tamari_poly_mirror` or :func:`tamari_poly_bivar` of
    :func:`~tamari.trees.parse_tree`, folded from the parsed code without
    building the tree."""
    if variant not in ("standard", "mirror", "bivar"):
        raise ValueError(f"unknown polynomial variant {variant!r}")
    return _chain_poly(_parse_code(text), bivar=variant == "bivar",
                       mirror=variant == "mirror")


# _chain_fold takes the sized fold when the bound on its values has more than
# _SIZED_FOLD_BITS bits on a binary tree, two fifths of that on the b-refined
# fold, whose products cost more, and 1.5 times that on a path of slope 2 or
# more: the sized fold pays a fixed cost per product to narrow it.  On a
# 2-core x86_64 machine (Python 3.11) the folds break even on random binary
# trees of 115-121 nodes (226-238 bits), b-refined trees of 47-49 (91-95
# bits) and random paths of 109-116 nodes whatever the slope: about 305 bits
# at slope 2, 350 at slope 3, 415 at slope 4.  On random 300-node trees the
# sized fold takes about 0.75 of the time of one width from the moments.
_SIZED_FOLD_BITS = 232


def _chain_poly(code: bytes | list[int], bivar: bool = False,
                mirror: bool = False) -> Polynomial:
    """The tree polynomial of a binary tree's postfix code: the value of
    :func:`_chain_fold` divided by x, its packed layers by b-degree."""
    power, packed, width = _chain_fold(code, bivar, mirror)
    return _to_polynomial(packed if bivar else [packed], width, power - 1,
                          by_b=True)


def _chain_fold(code: bytes | list[int], bivar: bool = False,
                mirror: bool = False) -> tuple:
    """Fold the chained form x * f_1 * D(f_2 * D(... * D(f_k))) over the
    children of each node of a postfix code, with x on each leaf, where
    D(x*h) = h + b*delta(h) and b = 1 unless ``bivar``.  On a binary tree
    that is x * (x*L) * D(x*R), x times the tree polynomial.  The value
    is returned as (power, packed, width): x^power times the packed
    polynomial whose slots are ``width`` bits wide, or with ``bivar``, a
    list of those by b-degree.  With ``mirror``, which only a binary
    tree's code takes, each node's two children are swapped: that is the
    fold of its mirror image's code.  The code is a list of child counts,
    or those counts as bytes as the parsers yield.

    Each node is a right fold of one link over its children, link(f, v) =
    f * D(v), and then one top step that multiplies by the node's x (see
    :func:`_combine`): a binary node is top(link(left, right)).  A power
    of x stays an exponent until its chain is differentiated, and D(x) = 1
    makes the link pass f on unchanged, so a comb costs one increment per
    node.  Width: every chain c is divisible by x, so D(c)(1) >= c(1) at
    b = 1 and values grow toward the root, whose value at x = b = 1 counts
    the trees below (above, if mirrored) or the paths below: at most the
    Fuss-Catalan number C((m+1)N, N) / (mN+1) for N nodes of m+1 children.
    As D(x) = 1 and D(c)(1) <= deg(c) * c(1) <= (N+1) * c(1), it is also at
    most (N+1)^s, s = mN less the nodes whose last child is a leaf (0, m+1).
    All coefficients are non-negative, so that bound on the root's value
    bounds every coefficient of every chain, and of every partial sum that
    :func:`_slope` forms, which adds consecutive coefficients of one chain.
    Up to _SIZED_FOLD_BITS bits it gives the one width of the whole fold;
    past them, :func:`_sized_fold` narrows each chain's slots.
    """
    nodes, arity = len(code) - code.count(0), max(code)
    bound = _root_bound(code, nodes, arity, mirror)
    width = _slot_width(bound)
    limit = _SIZED_FOLD_BITS * (3 if arity > 2 else 2) // (5 if bivar else 2)
    if bound.bit_length() > limit:
        power, packed, width = _sized_fold(code, width, bivar, mirror)[:3]
    else:
        leaf = (1, [1] if bivar else 1)

        def link(f, value):  # f * D(value); D(x) = 1
            if value is leaf:
                return f
            power, chain = value
            if bivar:
                return f[0], _times_slope_b(f[1], power, chain, width)
            return f[0], f[1] * _slope(chain << power * width, width)

        def top(value):
            return value[0] + 1, value[1]

        power, packed = _fold(code, leaf, _combine(link, top, arity, mirror))
    return power, packed, width


def _combine(link, top, arity: int, mirror: bool):
    """The combine that :func:`~tamari.trees._fold` calls on a node's
    children c_1 .. c_k: top(link(c_1, link(c_2, ... link(c_(k-1), c_k)))).
    A binary node is one link of its two values, with no argument tuple,
    and ``mirror`` swaps them; only binary codes are mirrored."""
    if arity == 2:
        if mirror:
            return lambda left, right: top(link(right, left))
        return lambda left, right: top(link(left, right))

    def node(*children):
        value = children[-1]
        for f in children[-2::-1]:
            value = link(f, value)
        return top(value)

    return node


def _root_bound(code: bytes | list[int], nodes: int, arity: int,
                mirror: bool = False) -> int:
    """min(C(aN, N), (N+1)^s) for :func:`_chain_fold`'s code of N nodes of
    arity a, the binomial taken only when it can be the smaller: a power
    below 2^N is below C(aN, N) >= 2^N for a >= 2, and both are 1 for a < 2.
    A node is bare when its chain ends on a leaf: its last child, or its
    first if ``mirror``.  A binary tree's N + 1 empty subtrees are each a
    left or a right child, so mirrored, N + 1 less the bare nodes are bare."""
    bare = bytes(code).count(bytes((0, arity))) if 1 < arity < 256 else 0
    if mirror:
        bare = nodes + 1 - bare if arity == 2 else 0
    bound = (nodes + 1) ** ((arity - 1) * nodes - bare)
    if bound.bit_length() > nodes:
        bound = min(bound, comb(arity * nodes, nodes))
    return bound


def _times_slope(lower: int, power: int, chain: int, width: int) -> int:
    """lower * D(x^power * chain) on packed ints."""
    return lower * _slope(chain << power * width, width)


def _times_slope_b(lower: list[int], power: int, chain: list[int],
                   width: int) -> list[int]:
    """The same on lists of packed ints by b-degree."""
    upper = [layer << (power - 1) * width for layer in chain]
    factor = [g + _slope(h, width) for g, h in zip(upper + [0], [0] + upper)]
    product = [0] * (len(lower) + len(upper))
    for i, a in enumerate(lower):
        for j, c in enumerate(factor, i):
            product[j] += a * c
    return product


def _repack(packed: int, width: int, new_width: int) -> int:
    """The packed polynomial moved from ``width``-bit to ``new_width``-bit
    slots, both multiples of 8 that its coefficients fit in: one byte of
    every slot per strided slice copy, between one to_bytes and one
    from_bytes."""
    count = -(-packed.bit_length() // width)
    size, new_size = width // 8, new_width // 8
    data = packed.to_bytes(count * size, "little")
    out = bytearray(count * new_size)
    for k in range(min(size, new_size)):
        out[k::new_size] = data[k::size]
    return int.from_bytes(out, "little")


def _round_width(bits: int) -> int:
    """A slot width for ``bits``-bit coefficients: a multiple of 8, and past
    64 bits rounded up to four significant bits, so that chains of similar
    size share a width and seldom need repacking.  Against plain multiples
    of 8 it repacks half the bits on random 300-node trees and a fourteenth
    on a 1,000-node comb, and folds them 3-7% faster."""
    shift = max(bits.bit_length() - 4, 3)
    return -(-bits >> shift) << shift


def _sized_fold(code: bytes | list[int], root_width: int, bivar: bool,
                mirror: bool = False) -> tuple:
    """:func:`_chain_fold`'s fold with each chain packed at its own width,
    each node's children taken right to left if ``mirror``.

    A value is (power, packed, width, s, d, mu_0, mu_1, mu_2, mu_3): the
    chain x^power * packed, its slot width, the nodes s of the subtrees it
    was formed from, and bounds on its degree d and on its first four
    factorial moments mu_j = c^(j)(1) / j! (its Taylor coefficients at
    x = 1).  The root's value is returned.

    The product P = f * D(x^p * c) of children i..k of a node is packed at
    the smallest of three widths, each that of a bound on P(1) at b = 1.
    All coefficients are non-negative and f(1) >= 1, D(c)(1) >= c(1), so
    P(1) bounds every coefficient of P, of f and of x^p * c, and every
    partial sum that :func:`_slope` forms, which adds consecutive
    coefficients of x^p * c.  The bounds:

    - the root's value (``root_width``), as values grow toward the root
      (see :func:`_chain_fold`);
    - mu_0 of P: x has degree 1 and moments (1, 1, 0, 0); a product
      convolves them, truncated to four; times x maps mu_j to
      mu_j + mu_(j-1); D at b = 1 is delta, which shifts them down one
      place and lowers the degree, the moment shifted in bounded through
      C(i, 4) = C(i, 3)(i-3)/4 as mu_4 <= floor(mu_3 (d-3) / 4), mu_4 being
      an integer.  Each rule maps upper bounds to upper bounds;
    - C(a(s+1), s+1) for arity a, where s counts the nodes below children
      i..k: with leaves for children 1..i-1 and those children, the node
      is the root of a tree of s + 1 nodes.  Its value x * c_1, where
      c_i = P and c_j = x * D(c_(j+1)), is at least P(1) at x = 1, as
      D(c)(1) >= c(1); and it counts the trees or paths below that tree,
      at most C(a(s+1), s+1) < (a^a / (a-1)^(a-1))^(s+1).

    mu_0 is loose on combs and the count on random trees, hence both.  An
    operand packed at another width is repacked first; it fits, since its
    coefficients are at most P(1).
    """
    arity = max(code)
    # bits per node of the count bound, which is 1 below arity 2
    rate = (arity * log2(arity) - (arity - 1) * log2(arity - 1)
            if arity > 1 else 0)
    if bivar:
        step = _times_slope_b

        def repack(layers, width, new_width):
            return [_repack(layer, width, new_width) for layer in layers]
    else:
        step, repack = _times_slope, _repack
    leaf = (1, [1] if bivar else 1, 8, 0, 1, 1, 1, 0, 0)

    def link(f, value):  # f * D(value); D(x) = 1
        if value is leaf:
            return f
        power, chain, width, s, d, _, a1, a2, a3 = value
        p, lower, v, t, e, b0, b1, b2, b3 = f
        a4 = a3 * (d - 3) // 4 if d > 3 else 0
        mu0, s = b0 * a1, s + t
        # one bit more than the count needs absorbs float rounding
        bits = min(mu0.bit_length(), int((s + 1) * rate) + 2)
        w = min(_round_width(bits), root_width)
        if width != w:
            chain = repack(chain, width, w)
        if v != w:
            lower = repack(lower, v, w)
        return (p, step(lower, power, chain, w), w, s, e + d - 1, mu0,
                b0 * a2 + b1 * a1, b0 * a3 + b1 * a2 + b2 * a1,
                b0 * a4 + b1 * a3 + b2 * a2 + b3 * a1)

    def top(value):
        power, chain, width, s, d, a0, a1, a2, a3 = value
        return (power + 1, chain, width, s + 1, d + 1, a0, a1 + a0, a2 + a1,
                a3 + a2)

    return _fold(code, leaf, _combine(link, top, arity, mirror))


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
    """Closed-form interval count 2*(4n+1)! / ((n+1)!*(3n+2)!), computed
    as 2*C(4n+1, n+1) / ((3n+1)*(3n+2)): one binomial, no factorials."""
    if n < 0:
        raise ValueError("size must be non-negative")
    return 2 * comb(4 * n + 1, n + 1) // ((3 * n + 1) * (3 * n + 2))
