"""Acceptance suite: every criterion checks exact equality of quantities
computed along independent routes, and prints one PASS/FAIL line (visible
with ``pytest -s`` or in the failure output)."""

import random
from collections import Counter
from itertools import permutations

from helpers import (mirror, path_downset_sizes, path_upsets,
                     sylvester_classes, tree_downsets, tree_leq_pairs,
                     tree_upsets)
from tamari.compose import (compose, decompose, enumerate_interval_posets,
                            initial_interval_sum)
from tamari.intervalposet import (IntervalPoset, IntervalPosetError,
                                  linear_extensions, lower_tree,
                                  make_interval, stat_monomial,
                                  trees_in_interval, upper_tree, validate)
from tamari.mtamari import (enumerate_ballot_paths, mary_tamari_poly,
                            path_to_mary_prefix)
from tamari.order import coinv, count_intervals_bruteforce
from tamari.poly import (ONE, Polynomial, X, bilinear_B, bilinear_B_bivar,
                         chapoton_count, delta, parse_polynomial, phi_series,
                         tamari_poly, tamari_poly_mirror)
from tamari.trees import (EMPTY, BinaryTree, enumerate_trees, from_dyck,
                          left_border_count, parse_tree, rotate_right_at)

TREE6 = parse_tree("[[[_,[_,_]],_],[[_,_],_]]")


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"[criterion {number}] {status}: {description}{suffix}", flush=True)
    assert ok, f"criterion {number} failed: {description} {suffix}"


def test_criterion_1_interval_counts_four_ways():
    known_counts = [1, 1, 3, 13, 68]
    failures = []
    for n in range(6):
        routes = {
            "formula": chapoton_count(n),
            "enumerate": len(enumerate_interval_posets(n)),
            "bruteforce": count_intervals_bruteforce(n),
            "series": phi_series(n).y_coefficient(n).subs(x=1).constant(),
        }
        if len(set(routes.values())) != 1:
            failures.append((n, routes))
        if n <= 4 and routes["formula"] != known_counts[n]:
            failures.append((n, routes))
    for n in range(9):
        if chapoton_count(n) != len(enumerate_interval_posets(n)):
            failures.append((n, "formula vs enumeration"))
    report(1, "interval counts agree along four routes (n<=5) and "
              "formula matches enumeration (n<=8)", not failures,
           str(failures[:2]))


def test_criterion_2_refined_series():
    expected = parse_polynomial(
        "1 + x*y + x*y^2 + 2*x^2*y^2 + 3*x*y^3 + 5*x^2*y^3 + 5*x^3*y^3")
    ok = phi_series(3) == expected
    detail = ""
    phi = phi_series(6)
    for n in range(7):
        tree_sum = sum((tamari_poly(t) for t in enumerate_trees(n)),
                       Polynomial())
        poset_sum = sum((stat_monomial(p).subs(b=1, y=1)
                         for p in enumerate_interval_posets(n)), Polynomial())
        layer = phi.y_coefficient(n)
        if not (layer == tree_sum == poset_sum):
            ok = False
            detail = f"n={n}"
    report(2, "series through y^3 is exact and every layer equals both "
              "statistic sums (n<=6)", ok, detail)


def test_criterion_3_counting_theorem_exhaustive():
    failures = 0
    for n in range(7):
        downs, ups = tree_downsets(n), tree_upsets(n)
        for t in enumerate_trees(n):
            poly = tamari_poly(t)
            mirror_poly = tamari_poly_mirror(t)
            if poly.subs(x=1).constant() != len(downs[t]):
                failures += 1
            if mirror_poly.subs(x=1).constant() != len(ups[t]):
                failures += 1
            for j in range(n + 2):
                if poly.coefficient(ex=j) != sum(
                        1 for u in downs[t] if left_border_count(u) == j):
                    failures += 1
                if mirror_poly.coefficient(ex=j) != sum(
                        1 for u in ups[t]
                        if left_border_count(mirror(u)) == j):
                    failures += 1
    report(3, "tree polynomials count lower sets by left border and mirror "
              "polynomials count upper sets by right border (n<=6)",
           failures == 0, f"{failures} mismatches")


def test_criterion_4_six_node_worked_example():
    ok = tamari_poly(TREE6) == parse_polynomial("x^3 + 2*x^4 + 2*x^5 + x^6")
    bottom = parse_tree("[[[[[[_,_],_],_],_],_],_]")
    interval = make_interval(bottom, TREE6)
    inside = trees_in_interval(interval)
    ok &= len(inside) == 6
    terms = initial_interval_sum(TREE6)
    base = {(1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (5, 6)}
    expected_posets = {frozenset(base | extra) for extra in (
        set(), {(2, 1)}, {(5, 4)}, {(2, 1), (5, 4)},
        {(5, 4), (6, 4)}, {(2, 1), (5, 4), (6, 4)})}
    ok &= {p.relations for p in terms} == expected_posets
    ok &= len(terms) == 6
    ok &= sorted(repr(lower_tree(p)) for p in terms) == \
        sorted(repr(t) for t in inside)
    ok &= all(upper_tree(p) == TREE6 for p in terms)
    report(4, "six-node worked example end to end: polynomial, interval "
              "contents, and the six generated interval-posets", ok)


def test_criterion_5_composition_algebra():
    ok = True
    detail = ""
    for k1 in range(5):
        for k2 in range(5 - k1):
            for i1 in enumerate_interval_posets(k1):
                for i2 in enumerate_interval_posets(k2):
                    terms = compose(i1, i2)
                    total = sum((stat_monomial(p) for p in terms),
                                Polynomial())
                    if total != bilinear_B_bivar(stat_monomial(i1),
                                                 stat_monomial(i2)):
                        ok, detail = False, f"bivar stat at {k1},{k2}"
                    plain = sum((stat_monomial(p).subs(b=1) for p in terms),
                                Polynomial())
                    if plain != bilinear_B(stat_monomial(i1).subs(b=1),
                                           stat_monomial(i2).subs(b=1)):
                        ok, detail = False, f"plain stat at {k1},{k2}"
                    if any(decompose(p) != (i1, i2) for p in terms):
                        ok, detail = False, f"decompose at {k1},{k2}"
    for n in range(1, 6):
        seen = Counter()
        for k1 in range(n):
            for i1 in enumerate_interval_posets(k1):
                for i2 in enumerate_interval_posets(n - 1 - k1):
                    seen.update(compose(i1, i2))
        if set(seen) != set(enumerate_interval_posets(n)) or \
                any(c != 1 for c in seen.values()):
            ok, detail = False, f"uniqueness at n={n}"
    i1 = IntervalPoset(3, [(3, 2)])
    i2 = IntervalPoset(3, [(1, 2), (3, 2)])
    terms = compose(i1, i2)
    base = {(3, 2), (1, 4), (2, 4), (3, 4), (5, 6), (7, 6)}
    if [p.relations for p in terms] != [frozenset(base),
                                        frozenset(base | {(5, 4)}),
                                        frozenset(base | {(5, 4), (6, 4), (7, 4)})]:
        ok, detail = False, "printed composition instance"
    if sum((stat_monomial(p) for p in terms), Polynomial()) != \
            parse_polynomial("y^7*x^5*b^2 + y^7*x^4*b^3 + y^7*x^3*b^3"):
        ok, detail = False, "printed bivariate value"
    report(5, "composition is a statistic homomorphism with unique "
              "decomposition (combined size <= 5), worked instance included",
           ok, detail)


def test_criterion_6_linear_extension_semantics():
    ok = True
    detail = ""
    for n in range(6):
        classes = sylvester_classes(n)
        all_perms = set(permutations(range(1, n + 1)))
        for poset in enumerate_interval_posets(n):
            extensions = linear_extensions(poset)  # lexicographic
            union = set()
            for t in trees_in_interval(poset):
                union |= classes[t]
            if extensions != sorted(union):
                ok, detail = False, f"class union at n={n}"
            low_class = classes[lower_tree(poset)]
            high_class = classes[upper_tree(poset)]
            low = min(low_class, key=lambda p: len(coinv(p)))
            high = max(high_class, key=lambda p: len(coinv(p)))
            low_coinv, high_coinv = coinv(low), coinv(high)
            weak_interval = {p for p in all_perms
                             if low_coinv <= coinv(p) <= high_coinv}
            if extensions != sorted(weak_interval):
                ok, detail = False, f"weak interval at n={n}"
    four_node_pair = make_interval(parse_tree("[[[_,[_,_]],_],_]"),
                                   parse_tree("[_,[[_,_],[_,_]]]"))
    got = ["".join(map(str, p)) for p in linear_extensions(four_node_pair)]
    if got != ["2134", "2143", "2314", "2341", "2413", "2431", "4213", "4231"]:
        ok, detail = False, "four-node example"
    report(6, "linear extensions equal sylvester-class unions and "
              "co-inversion weak-order intervals (n<=5)", ok, detail)


def test_criterion_7_ballot_path_verification():
    ok = True
    detail = ""
    for m in (1, 2, 3):
        for n in range(5):
            downs = path_downset_sizes(m, n)
            for path in enumerate_ballot_paths(m, n):
                tree = path_to_mary_prefix(path)
                value = mary_tamari_poly(tree).subs(x=1, y=1).constant()
                if value != downs[path]:
                    ok, detail = False, f"claim at m={m} n={n}"
    for n in range(6):
        for path in enumerate_ballot_paths(1, n):
            prefix_value = mary_tamari_poly(
                path_to_mary_prefix(path)).subs(x=1, y=1).constant()
            postfix_value = tamari_poly(
                from_dyck(path.steps)).subs(x=1).constant()
            if prefix_value != postfix_value:
                ok, detail = False, f"prefix/postfix at n={n}"
        ups = path_upsets(1, n)
        leq = tree_leq_pairs(n)
        paths = enumerate_ballot_paths(1, n)
        for p in paths:
            for q in paths:
                if (q in ups[p]) != \
                        ((from_dyck(p.steps), from_dyck(q.steps)) in leq):
                    ok, detail = False, f"isomorphism at n={n}"
    report(7, "prefix-tree polynomials count weakly lower ballot paths "
              "(m<=3, n<=4) and the slope-1 lattice matches the tree "
              "lattice (n<=5)", ok, detail)


def test_criterion_8_property_suites():
    rng = random.Random(118668)
    ok = True
    detail = ""

    # axiom fuzzing against an independent triple scan
    from test_properties import naive_is_interval_poset
    for _ in range(400):
        n = rng.randint(0, 6)
        pairs = []
        if n >= 2:
            for _ in range(rng.randint(0, 10)):
                a, b = rng.sample(range(1, n + 1), 2)
                pairs.append((a, b))
        expected = naive_is_interval_poset(n, pairs)
        try:
            validate(n, pairs)
            accepted = True
        except IntervalPosetError:
            accepted = False
        if accepted != expected:
            ok, detail = False, f"fuzz {n} {pairs}"

    # exact-division witness for the slope operator
    for _ in range(200):
        terms = {(rng.randint(0, 6), rng.randint(0, 3), rng.randint(0, 3)):
                 rng.randint(-9, 9) for _ in range(rng.randint(0, 8))}
        g = Polynomial(terms)
        if (X - ONE) * delta(g) != g - g.subs(x=1):
            ok, detail = False, "delta witness"

    # rotations on random trees up to size 64
    def random_tree(k):
        if k == 0:
            return EMPTY
        left = rng.randint(0, k - 1)
        return BinaryTree(random_tree(left), random_tree(k - 1 - left))

    for _ in range(200):
        tree = random_tree(rng.randint(1, 64))
        label = rng.randint(1, tree.size)
        rotated = rotate_right_at(tree, label)
        if rotated is not None and (rotated.size != tree.size
                                    or rotated == tree):
            ok, detail = False, "rotation invariant"

    report(8, "randomized suites: axiom fuzzing, slope-operator division "
              "witness, rotation invariants up to size 64", ok, detail)
