"""The three seeded workloads and the independent check of every answer.

A workload is a list of passes; a pass is a list of operations.  The run
repeats passes until the timed work reaches the requested seconds, so the
timed phase always ends on a pass boundary and every run measures whole
passes of the same composition.  The seed chooses the inputs and their
order; the number and kind of operations in a pass are fixed, so two seeds
measure the same mix of work.

Each operation is timed around ``run`` only.  ``prepare`` builds its
argument before the clock starts, and ``digest`` and ``expect`` turn the
answer and the second route into comparable values after it stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter, namedtuple

# Tamari interval counts, OEIS A000260 (Chapoton 2006), independent of the
# package.
INTERVAL_COUNTS = (1, 1, 3, 13, 68, 399, 2530, 16965, 118668)

CliResult = namedtuple("CliResult", "code out err")


class Op:
    """One timed call into the library and the check of its answer."""

    __slots__ = ("key", "run", "digest", "expect", "prepare")

    def __init__(self, key, run, expect, digest=None, prepare=None):
        self.key = key  # canonical text of the inputs; also the label
        self.run = run
        self.expect = expect
        self.digest = digest or (lambda arg, answer: answer)
        self.prepare = prepare


class Workload:
    def __init__(self, name, warmup, passes, nominal_pass_s, between=None,
                 min_passes=1):
        self.name = name
        self.warmup = warmup
        self.passes = passes
        # pass length on the reference machine (2-core x86-64, Python
        # 3.11); it only sizes the traced run
        self.nominal_pass_s = nominal_pass_s
        # called after every operation, before its check
        self.between = between or (lambda: None)
        # a run never stops before this many passes
        self.min_passes = min_passes

    def trace_passes(self, seconds: float) -> int:
        """Passes for each half of a traced run: untraced, then traced."""
        return max(1, round(seconds / 2 / self.nominal_pass_s))


# -- closed forms and random objects ---------------------------------------

def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def fuss_catalan(m: int, n: int) -> int:
    return math.comb((m + 1) * n, n) // (m * n + 1)


def mtamari_interval_count(m: int, n: int) -> int:
    """Bousquet-Melou, Fusy and Preville-Ratelle, arXiv:1106.1498:
    (m+1)/(n(mn+1)) * C((m+1)^2 n + m, n-1)."""
    if n == 0:
        return 1
    count, rest = divmod((m + 1) * math.comb((m + 1) ** 2 * n + m, n - 1),
                         n * (m * n + 1))
    if rest:
        raise ArithmeticError(f"interval formula not integral at m={m} n={n}")
    return count


def random_ballot(rng: random.Random, m: int, n: int) -> str:
    """Uniform m-ballot word with n north steps (Raney's lemma).

    Shuffle n steps of +m and mn+1 steps of -1, then rotate to start just
    after the first minimum: every proper prefix is then >= 0, and dropping
    the final -1 leaves the word."""
    steps = [m] * n + [-1] * (m * n + 1)
    rng.shuffle(steps)
    height = low = cut = 0
    for i, step in enumerate(steps):
        height += step
        if height < low:
            low, cut = height, i + 1
    steps = steps[cut:] + steps[:cut]
    return "".join("N" if s > 0 else "E" for s in steps[:-1])


def random_dyck(rng: random.Random, n: int) -> str:
    """Uniform Dyck word with n north steps, so a Catalan-uniform tree."""
    return random_ballot(rng, 1, n)


def strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k sizes, one drawn uniformly from each of k equal slices of lo..hi."""
    width = (hi - lo + 1) / k
    return [rng.randint(lo + int(i * width), lo + int((i + 1) * width) - 1)
            for i in range(k)]


def mirror(tree_class, tree):
    """Left-right mirror image, built here rather than by the package."""
    if not tree:
        return tree
    return tree_class(mirror(tree_class, tree.right),
                      mirror(tree_class, tree.left))


def clear_caches(lib) -> None:
    for cached in lib.caches:
        cached.cache_clear()


def _series_counts(series, top):
    """(largest y-degree, [value at x=1 of each y^k coefficient])."""
    degree = max(key[1] for key, _ in series.terms())
    return degree, [series.y_coefficient(k).subs(x=1).constant()
                    for k in range(top + 1)]


# -- series ----------------------------------------------------------------

# Trees and paths come as (count, smallest, largest) strata.  The series
# calls have fixed sizes, so their share of the time is the same for every
# seed.  Of the 65 calls in a pass, four always take longest (phi_series 15
# and 17, the two large trees) and the next four form a band of equal cost
# (phi_series 14 twice, phi_m_series 2 10 and 3 8), so the 90th percentile,
# 6.5 calls from the top, falls inside that band for every seed.
SERIES = {
    False: dict(phi=(5, 9, 13, 14, 14, 15, 17),
                phi_m=((2, 4), (2, 7), (2, 9), (2, 10), (3, 3), (3, 6),
                       (3, 7), (3, 8)),
                trees={"tamari_poly": ((10, 20, 120), (1, 280, 320)),
                       "tamari_poly_mirror": ((10, 20, 120), (1, 280, 320)),
                       "tamari_poly_bivar": ((11, 10, 45),)},
                mary1=(10, 20, 80), mary=((2, 3), (2, 4), (2, 5), (2, 6),
                                          (3, 2), (3, 3), (3, 4)),
                passes=16, nominal_pass_s=1.0),
    True: dict(phi=(3, 5), phi_m=((2, 3), (3, 2)),
               trees={"tamari_poly": ((2, 5, 20),),
                      "tamari_poly_mirror": ((2, 5, 20),),
                      "tamari_poly_bivar": ((2, 4, 12),)},
               mary1=(1, 4, 8), mary=((2, 3), (3, 2)), passes=1,
               nominal_pass_s=0.05),
}


def build_series(lib, seed: int, tiny: bool = False) -> Workload:
    spec = SERIES[tiny]
    rng = random.Random(f"series-{seed}")
    poly, mtamari, trees = lib.poly, lib.mtamari, lib.trees
    tree_class = trees.BinaryTree
    below = {}

    def paths_below(m, n):
        """Number of paths under each path, by rotation closure."""
        if (m, n) not in below:
            memo = {}

            def upset(p):
                if p not in memo:
                    closure = {p}
                    for q in mtamari.path_rotation_covers(p):
                        closure |= upset(q)
                    memo[p] = closure
                return memo[p]

            counts = Counter()
            for q in mtamari.enumerate_ballot_paths(m, n):
                for p in upset(q):
                    counts[p.steps] += 1
            below[(m, n)] = counts
        return below[(m, n)]

    def phi_op(n):
        return Op(f"phi_series {n}", lambda _: poly.phi_series(n),
                  digest=lambda _, s: _series_counts(s, n),
                  expect=lambda: (n, [poly.chapoton_count(k)
                                      for k in range(n + 1)]))

    def phi_m_op(m, n):
        return Op(f"phi_m_series {m} {n}",
                  lambda _: mtamari.phi_m_series(m, n),
                  digest=lambda _, s: _series_counts(s, n),
                  expect=lambda: (n, [mtamari_interval_count(m, k)
                                      for k in range(n + 1)]))

    def tree_op(kind, word):
        tree = trees.from_dyck(word)
        if kind == "tamari_poly":
            return Op(f"tamari_poly {word}", lambda _: poly.tamari_poly(tree),
                      expect=lambda: poly.tamari_poly_mirror(
                          mirror(tree_class, tree)))
        if kind == "tamari_poly_mirror":
            return Op(f"tamari_poly_mirror {word}",
                      lambda _: poly.tamari_poly_mirror(tree),
                      expect=lambda: poly.tamari_poly(
                          mirror(tree_class, tree)))
        return Op(f"tamari_poly_bivar {word}",
                  lambda _: poly.tamari_poly_bivar(tree),
                  digest=lambda _, p: p.subs(b=1),
                  expect=lambda: poly.tamari_poly(tree))

    def mary_op(m, word):
        path = mtamari.BallotPath(m, word)

        def run(_):
            return mtamari.mary_tamari_poly(mtamari.path_to_mary_prefix(path))

        if m == 1:
            # a binary prefix tree's chained form is x*y^n times the Tamari
            # polynomial of the same shape
            def as_binary(t):
                if t.is_leaf:
                    return trees.EMPTY
                return tree_class(as_binary(t.children[0]),
                                  as_binary(t.children[1]))

            def expect():
                shape = as_binary(mtamari.path_to_mary_prefix(path))
                return (poly.Polynomial.monomial(1, ex=1, ey=path.n)
                        * poly.tamari_poly(shape))
            return Op(f"mary_tamari_poly m=1:{word}", run, expect=expect)
        return Op(f"mary_tamari_poly m={m}:{word}", run,
                  digest=lambda _, p: p.subs(x=1, y=1).constant(),
                  expect=lambda: paths_below(m, path.n)[word])

    def one_pass():
        ops = [phi_op(n) for n in spec["phi"]]
        ops += [phi_m_op(m, n) for m, n in spec["phi_m"]]
        for kind, sizes in spec["trees"].items():
            ops += [tree_op(kind, random_dyck(rng, n))
                    for k, lo, hi in sizes for n in strata(rng, lo, hi, k)]
        k, lo, hi = spec["mary1"]
        ops += [mary_op(1, random_ballot(rng, 1, n))
                for n in strata(rng, lo, hi, k)]
        ops += [mary_op(m, random_ballot(rng, m, n)) for m, n in spec["mary"]]
        rng.shuffle(ops)
        return ops

    warmup = [phi_op(4), phi_m_op(2, 3), tree_op("tamari_poly", "NNEE"),
              tree_op("tamari_poly_mirror", "NNEE"),
              tree_op("tamari_poly_bivar", "NNEE"), mary_op(2, "NEE")]
    passes = [one_pass() for _ in range(spec["passes"])]
    return Workload("series", warmup, passes, spec["nominal_pass_s"])


# -- enumerate -------------------------------------------------------------

# A pass takes 7-11 s here, so a 10-second run would end after one pass or
# two depending on the machine's speed; the first pass is the slower one
# (the collector's thresholds are still low), so every run makes two.
ENUMERATE = {
    False: dict(sizes=tuple(range(1, 9)), chunk=1000, iis=40,
                iis_sizes=(8, 10), passes=3, min_passes=2,
                nominal_pass_s=10.4),
    True: dict(sizes=(1, 2, 3, 4), chunk=20, iis=3, iis_sizes=(4, 5),
               passes=1, min_passes=1, nominal_pass_s=0.05),
}


def build_enumerate(lib, seed: int, tiny: bool = False) -> Workload:
    spec = ENUMERATE[tiny]
    rng = random.Random(f"enumerate-{seed}")
    compose, intervalposet, poly = lib.compose, lib.intervalposet, lib.poly
    top = max(spec["sizes"])
    # the b-refined series: the posets of size n sum to its y^n layer
    series = poly.ONE
    for _ in range(top + 1):
        series = (poly.bilinear_B_bivar(series, series)
                  + poly.ONE).truncate_y(top)
    layers = {n: {key: c for key, c in series.terms() if key[1] == n}
              for n in spec["sizes"]}
    held = {}  # posets of the running group, shuffled, and their stat sum

    def enum_op(n):
        def digest(_, posets):
            held[n] = (posets, Counter())
            return len(posets), len(set(posets))

        return Op(f"enumerate_interval_posets {n}",
                  lambda _: compose.enumerate_interval_posets(n),
                  digest=digest,
                  expect=lambda: (INTERVAL_COUNTS[n], INTERVAL_COUNTS[n]))

    def chunk_op(n, index, count):
        start, stop = index * spec["chunk"], (index + 1) * spec["chunk"]
        last = index == count - 1

        def run(chunk):
            return [(p, compose.decompose(p), intervalposet.stat_monomial(p))
                    for p in chunk]

        def digest(_, answer):
            stat_sum = held[n][1]
            unmatched = 0
            for p, (left, right), monomial in answer:
                unmatched += p not in compose.compose(left, right)
                for key, c in monomial.terms():
                    stat_sum[key] += c
            if not last:
                return unmatched, None
            del held[n]
            return unmatched, dict(stat_sum) == layers[n]

        return Op(f"decompose+stat_monomial {n} chunk {index + 1}/{count}",
                  run, digest=digest,
                  expect=lambda: (0, True if last else None),
                  prepare=lambda: held[n][0][start:stop])

    def iis_op(word):
        tree = lib.trees.from_dyck(word)
        return Op(f"initial_interval_sum {word}",
                  lambda _: compose.initial_interval_sum(tree),
                  digest=lambda _, posets: len(posets),
                  expect=lambda: poly.tamari_poly(tree).subs(x=1).constant())

    def group(n):
        count = -(-INTERVAL_COUNTS[n] // spec["chunk"])
        return [enum_op(n)] + [chunk_op(n, i, count) for i in range(count)]

    def one_pass():
        sizes = list(spec["sizes"])
        rng.shuffle(sizes)
        groups = [group(n) for n in sizes]
        lo, hi = spec["iis_sizes"]
        # initial_interval_sum calls sit between groups, so no group's
        # posets are live while they run
        gaps = [[] for _ in range(len(groups) + 1)]
        for i in range(spec["iis"]):
            n = lo + i % (hi - lo + 1)
            gaps[rng.randrange(len(gaps))].append(iis_op(random_dyck(rng, n)))
        ops = gaps[0]
        for g, gap in zip(groups, gaps[1:]):
            ops += g + gap
        return ops

    warmup = [op for n in (1, 2, 3) for op in group(n)]
    warmup.append(iis_op("NNENEE"))
    passes = [one_pass() for _ in range(spec["passes"])]
    return Workload("enumerate", warmup, passes, spec["nominal_pass_s"],
                    between=lambda: clear_caches(lib),
                    min_passes=spec["min_passes"])


# -- queries ---------------------------------------------------------------

# operations per pass of each kind; sizes and inputs vary with the seed
QUERIES = {
    False: dict(interval=83, poly=62, count=(0, 1, 2, 3, 4, 5, 6, 5, 6, 6),
                phi=((None, 1), (None, 4), (None, 7), (None, 10), (1, 3),
                     (1, 6), (1, 9), (2, 2), (2, 5), (2, 8), (3, 3), (3, 6)),
                lattice=(1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6),
                mtamari=((1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2),
                         (3, 3), (3, 4)),
                malformed=10, deep=3, deep_depth=(1100, 3000), passes=6,
                warmup=40, nominal_pass_s=0.55),
    True: dict(interval=6, poly=6, count=(3,), phi=((None, 3), (2, 2)),
               lattice=(3,), mtamari=((2, 2),), malformed=2, deep=1,
               deep_depth=(1100, 1200), passes=1, warmup=4,
               nominal_pass_s=0.05),
}

MALFORMED = (
    lambda r: ["poly", "[_," + "[_,_]" * r.randint(0, 2)],
    lambda r: ["poly", "N" * r.randint(2, 5) + "E"],
    lambda r: ["poly", "[_,_]]"],
    lambda r: ["poly", "NEX"],
    lambda r: ["interval", "[_,_]", "[[_,_],_]"],
    lambda r: ["count", str(r.randint(9, 12)), "--method", "enumerate"],
    lambda r: ["phi", str(r.randint(31, 40))],
    lambda r: ["lattice", str(r.randint(9, 12))],
    lambda r: ["mtamari-verify", "--m", "2", "--n", str(r.randint(6, 8))],
    lambda r: ["count", "six"],
    lambda r: ["poly", "[_,_]", "--mirror", "--bivar"],
    lambda r: ["interval", "NE"],
)


def run_cli(cli, argv: list[str]) -> CliResult:
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def right_subtree_nodes(tree) -> int:
    if not tree:
        return 0
    return (right_subtree_nodes(tree.left) + right_subtree_nodes(tree.right)
            + bool(tree.right))


class Oracle:
    """Order data from the package's brute-force routes, computed while the
    workload is generated; the package caches are cleared afterwards."""

    def __init__(self, lib):
        self.lib = lib
        self._sorted_upsets = {}
        self._extensions = {}

    def upset(self, tree):
        return self.lib.order.tamari_upset(tree)

    def sorted_upset(self, tree):
        word = self.lib.trees.to_dyck(tree)
        if word not in self._sorted_upsets:
            self._sorted_upsets[word] = sorted(
                self.upset(tree), key=self.lib.trees.canonical_key)
        return self._sorted_upsets[word]

    def interval(self, lower, upper):
        """Trees between lower and upper, in canonical order."""
        return [t for t in self.lib.trees.enumerate_trees(lower.size)
                if t in self.upset(lower) and upper in self.upset(t)]

    def downset(self, tree):
        return [u for u in self.lib.trees.enumerate_trees(tree.size)
                if tree in self.upset(u)]

    def extensions(self, trees_inside):
        """Union of the sylvester classes of the trees in an interval."""
        perms = set()
        for t in trees_inside:
            word = self.lib.trees.to_dyck(t)
            if word not in self._extensions:
                self._extensions[word] = self.lib.order.sylvester_class(t)
            perms |= self._extensions[word]
        return sorted(perms)


def build_queries(lib, seed: int, tiny: bool = False) -> Workload:
    spec = QUERIES[tiny]
    rng = random.Random(f"queries-{seed}")
    cli, trees, poly, order = lib.cli, lib.trees, lib.poly, lib.order
    oracle = Oracle(lib)
    tree_class = trees.BinaryTree

    def cli_op(argv, expect, digest):
        return Op("tamari " + " ".join(argv), lambda _: run_cli(cli, argv),
                  expect=lambda: expect,
                  digest=lambda _, result: digest(result))

    def text(tree):
        # trees reach the CLI half as literals and half as Dyck words
        return (trees.format_tree(tree) if rng.random() < 0.5
                else trees.to_dyck(tree))

    def interval_op():
        flags = rng.choice([[], [], [], ["--poset"], ["--trees"],
                            ["--extensions"], ["--poset", "--trees"],
                            ["--trees", "--extensions"]])
        n = rng.randint(1, 7 if set(flags) <= {"--poset"} else 6)
        lower = trees.from_dyck(random_dyck(rng, n))
        if rng.random() < 0.7:
            upper = rng.choice(oracle.sorted_upset(lower))
        else:
            upper = trees.from_dyck(random_dyck(rng, n))
        argv = ["interval", text(lower), text(upper)] + flags
        show_trees, show_ext = "--trees" in flags, "--extensions" in flags
        show_poset = "--poset" in flags or not (show_trees or show_ext)
        if upper not in oracle.upset(lower):
            expect = (1,)
        else:
            inside = (oracle.interval(lower, upper)
                      if show_trees or show_ext else [])
            ext_lines = None
            if show_ext:
                perms = oracle.extensions(inside)
                low = min(perms, key=lambda p: (len(order.coinv(p)), p))
                high = max(perms, key=lambda p: (len(order.coinv(p)), p))
                ext_lines = [order.format_permutation(p)
                             + (" (min)" if p == low else
                                " (max)" if p == high else "") for p in perms]
            expect = (0,
                      trees.format_tree(lower) if show_poset else None,
                      trees.format_tree(upper) if show_poset else None,
                      [trees.format_tree(t) for t in inside] if show_trees
                      else None, ext_lines)

        def digest(result):
            if result.code != 0:
                return (result.code,)
            lines = result.out.splitlines()
            lo = up = None
            if show_poset:
                # the relation line is left out when there are no relations
                size = 2 if len(lines) > 1 and "<" in lines[1] else 1
                poset = lib.intervalposet.IntervalPoset.from_text(
                    "\n".join(lines[:size]))
                lo = trees.format_tree(lib.intervalposet.lower_tree(poset))
                up = trees.format_tree(lib.intervalposet.upper_tree(poset))
                lines = lines[size:]
            listed = None
            if show_trees:
                listed = [s for s in lines if s[:1] in "[_"]
                lines = lines[len(listed):]
            return (0, lo, up, listed, lines if show_ext else None)

        return cli_op(argv, expect, digest)

    def poly_op():
        variant = rng.choice(["standard", "standard", "mirror", "bivar"])
        n = rng.randint(1, 6 if variant == "bivar" else 14)
        tree = trees.from_dyck(random_dyck(rng, n))
        if variant == "standard":
            expected = poly.tamari_poly_mirror(mirror(tree_class, tree))
        elif variant == "mirror":
            expected = poly.tamari_poly(mirror(tree_class, tree))
        else:
            expected = sum((poly.Polynomial.monomial(
                1, ex=trees.left_border_count(u), eb=right_subtree_nodes(u))
                for u in oracle.downset(tree)), poly.Polynomial())
        flags = {"standard": [], "mirror": ["--mirror"],
                 "bivar": ["--bivar"]}[variant]
        at_one = rng.random() < 0.3
        as_json = rng.random() < 0.2
        flags += ["--at-one"] * at_one + ["--json"] * as_json
        value = expected.subs(x=1, b=1).constant()
        if as_json:
            payload = {"tree": trees.format_tree(tree), "variant": variant,
                       "polynomial": str(expected), "command": "poly"}
            if at_one:
                payload["at_one"] = value
            expect = (0, payload)
        else:
            expect = (0, f"{value if at_one else expected}\n")
        return cli_op(["poly", text(tree)] + flags, expect,
                      lambda r: (r.code, json.loads(r.out) if as_json and
                                 r.code == 0 else r.out))

    def deep_op():
        # left comb for poly, right comb for poly --mirror: both give x^depth
        depth = rng.randint(*spec["deep_depth"])
        if rng.random() < 0.5:
            tree_text = rng.choice(["NE" * depth,
                                    "[" * depth + "_" + ",_]" * depth])
            argv = ["poly", tree_text]
        else:
            tree_text = rng.choice(["N" * depth + "E" * depth,
                                    "[_," * depth + "_" + "]" * depth])
            argv = ["poly", tree_text, "--mirror"]
        return Op(f"tamari {argv[0]} <comb depth {depth}: {tree_text[:8]}...>"
                  f" {' '.join(argv[2:])}", lambda _: run_cli(cli, argv),
                  expect=lambda: (0, f"x^{depth}\n"),
                  digest=lambda _, r: (r.code, r.out))

    def count_op(n):
        counts = {m: INTERVAL_COUNTS[n]
                  for m in ("formula", "enumerate", "bruteforce", "series")}
        if rng.random() < 0.3:
            return cli_op(["count", str(n), "--all-methods", "--json"],
                          (0, {"n": n, "counts": counts, "match": True,
                               "command": "count"}),
                          lambda r: (r.code, json.loads(r.out) if r.code == 0
                                     else r.out))
        lines = [f"{m}: {v}" for m, v in sorted(counts.items())] + ["MATCH"]
        return cli_op(["count", str(n), "--all-methods"],
                      (0, "\n".join(lines) + "\n"), lambda r: (r.code, r.out))

    def phi_op(m, n):
        argv = ["phi", str(n)] + ([] if m is None else ["--m", str(m)])
        counts = [poly.chapoton_count(k) if m is None
                  else mtamari_interval_count(m, k) for k in range(n + 1)]

        def digest(r):
            if r.code != 0:
                return (r.code,)
            series = poly.parse_polynomial(r.out.strip())
            return (0, *_series_counts(series, n))
        return cli_op(argv, (0, n, counts), digest)

    def lattice_op(n):
        def digest(r):
            lines = r.out.splitlines()
            return (r.code, lines[0], sum("[label=" in s for s in lines),
                    sum("->" in s for s in lines), lines[-1])
        return cli_op(["lattice", str(n)],
                      (0, f"digraph tamari_{n} {{", catalan(n),
                       (n - 1) * catalan(n) // 2, "}"), digest)

    def mtamari_op(m, n):
        k = fuss_catalan(m, n)

        def digest(r):
            lines = r.out.splitlines()
            return (r.code, sum(s.startswith("PASS ") for s in lines),
                    sum(s.startswith("FAIL ") for s in lines), lines[-1])
        return cli_op(["mtamari-verify", "--m", str(m), "--n", str(n)],
                      (0, k, 0, f"OK {k} paths checked"), digest)

    def malformed_op():
        return cli_op(rng.choice(MALFORMED)(rng), (2,), lambda r: (r.code,))

    def one_pass():
        ops = [interval_op() for _ in range(spec["interval"])]
        ops += [poly_op() for _ in range(spec["poly"])]
        ops += [count_op(n) for n in spec["count"]]
        ops += [phi_op(m, n) for m, n in spec["phi"]]
        ops += [lattice_op(n) for n in spec["lattice"]]
        ops += [mtamari_op(m, n) for m, n in spec["mtamari"]]
        ops += [malformed_op() for _ in range(spec["malformed"])]
        ops += [deep_op() for _ in range(spec["deep"])]
        rng.shuffle(ops)
        return ops

    passes = [one_pass() for _ in range(spec["passes"])]
    return Workload("queries", passes[0][:spec["warmup"]], passes,
                    spec["nominal_pass_s"])


BUILDERS = {"series": build_series, "enumerate": build_enumerate,
            "queries": build_queries}
