"""Command-line front end: counting, polynomials, intervals, lattices.

All commands are deterministic; ``--json`` switches any of them to a stable
machine-readable schema (one JSON object on stdout).  Exit codes: 0 on
success and full agreement, 1 when a computation reports a failure
(count mismatch, incomparable trees, failed verification), 2 for bad input
or an exceeded capacity cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from itertools import chain
from operator import attrgetter

from . import intervalposet, mtamari, order, poly, trees
from .compose import count_interval_posets

TREE_LATTICE_CAP = 8
PATH_LATTICE_CAP = 5
ENUMERATION_CAP = 8
SERIES_CAP = 30
SLOPE_CAP = 5


class CommandError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _emit(args, lines: list[str], payload: dict) -> None:
    if args.json:
        payload["command"] = args.command
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(lines))


def _gate(args, n: int, default: int, what: str, name: str = "n") -> int:
    """The cap in force for ``what``: ``default``, or --max-n when that is
    higher.  Raises when n, the parameter ``name``, exceeds it.  Only the
    first cap that --max-n raises warns, so a command warns at most once."""
    cap = default if args.max_n is None else max(default, args.max_n)
    if cap > default and not args.warned:
        print(f"warning: raising capacity cap to {cap}", file=sys.stderr)
        args.warned = True
    if n > cap:
        raise CommandError(f"{what} capped at {name}={cap} "
                           "(override with --max-n)")
    return cap


def _count_one(method: str, n: int, args) -> int:
    if method == "formula":
        try:
            return poly.chapoton_count(n)
        except OverflowError:  # math.comb refuses sizes past sys.maxsize
            raise CommandError(f"n={n} is too large for the formula") from None
    if method == "enumerate":
        _gate(args, n, ENUMERATION_CAP, "enumerate is")
        return count_interval_posets(n)
    if method == "bruteforce":
        cap = _gate(args, n, order.TREE_ORACLE_CAP, "bruteforce is")
        return order.count_intervals_bruteforce(n, max_n=cap)
    _gate(args, n, SERIES_CAP, "series is")
    return poly.phi_series(n).y_coefficient(n).subs(x=1).constant()


def _count_text(n: int, value: int) -> str:
    """``str(value)``; a count past the interpreter's limit on converting
    integers to text (which every caller in the process shares) is an
    error that names n and the limit."""
    try:
        return str(value)
    except ValueError:
        raise CommandError(
            f"the count for n={n} has more than {sys.get_int_max_str_digits()}"
            " digits, the limit for converting an integer to text") from None


def cmd_count(args) -> int:
    n = args.n
    if args.all_methods:
        counts = {method: _count_one(method, n, args)
                  for method in ("formula", "enumerate", "bruteforce", "series")}
        disagree = sorted(method for method, value in counts.items()
                          if value != counts["formula"])
        lines = [f"{method}: {_count_text(n, value)}"
                 for method, value in sorted(counts.items())]
        payload = {"n": n, "counts": counts, "match": not disagree}
        if disagree:
            lines.append(f"MISMATCH: {', '.join(disagree)} differ from formula")
            payload["disagree"] = disagree
        else:
            lines.append("MATCH")
        _emit(args, lines, payload)
        return 1 if disagree else 0
    value = _count_one(args.method, n, args)
    _emit(args, [_count_text(n, value)],
          {"n": n, "method": args.method, "count": value})
    return 0


def cmd_poly(args) -> int:
    variant = ("mirror" if args.mirror else "bivar" if args.bivar
               else "standard")
    p = poly.text_tamari_poly(args.tree, variant)
    shown = p.subs(x=1, b=1).constant() if args.at_one else p
    if args.json:  # text output shows neither the variant nor the tree
        payload = {"variant": variant, "polynomial": str(p),
                   "tree": trees.normal_literal(args.tree)}
        if args.at_one:
            payload["at_one"] = shown
        _emit(args, [], payload)
    else:
        _emit(args, [str(shown)], {})
    return 0


def cmd_interval(args) -> int:
    lower = trees.parse_tree(args.lower)
    upper = trees.parse_tree(args.upper)
    poset = intervalposet.make_interval(lower, upper)
    if poset is None:
        raise CommandError("not a Tamari interval", code=1)
    show_trees = args.trees
    show_extensions = args.extensions
    show_poset = args.poset or not (show_trees or show_extensions)

    lines: list[str] = []
    payload: dict = {}
    if args.json:  # text output shows neither the two trees nor n
        payload = {"lower": trees.format_tree(lower),
                   "upper": trees.format_tree(upper), "n": poset.n}
    if show_poset:
        text = poset.to_text()
        lines.extend(text.splitlines())
        payload["poset"] = text
    if show_trees:
        cap = _gate(args, poset.n, order.TREE_ORACLE_CAP, "trees are")
        literals = intervalposet.interval_literals(poset, max_n=cap)
        lines.extend(literals)
        payload["trees"] = literals
    if show_extensions:
        cap = _gate(args, poset.n, order.PERM_CAP, "extensions are")
        texts = [order.format_permutation(p) for p in
                 intervalposet.linear_extensions(poset, max_n=cap)]
        # a weak-order interval: its min and max are first and last in
        # lexicographic order
        low, high = texts[0], texts[-1]
        for text in texts:
            tag = " (min)" if text == low else " (max)" if text == high else ""
            lines.append(text + tag)
        payload.update(extensions=texts, min=low, max=high)
    _emit(args, lines, payload)
    return 0


def _dot(name: str, labels: list[str], edges: list[tuple[int, int]]) -> list[str]:
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i, label in enumerate(labels):
        lines.append(f'  v{i} [label="{label}"];')
    for a, b in edges:
        lines.append(f"  v{a} -> v{b};")
    lines.append("}")
    return lines


def cmd_lattice(args) -> int:
    n = args.n
    if (m := args.mtamari) is not None:
        _gate(args, n, PATH_LATTICE_CAP, "ballot path lattices are")
        _gate(args, m, SLOPE_CAP, "slopes are", "m")
        elements = mtamari.enumerate_ballot_paths(m, n)
        index = {e: i for i, e in enumerate(elements)}
        edges = sorted((index[e], index[f]) for e in elements
                       for f in mtamari.path_rotation_covers(e))
        labels = [p.steps for p in elements]
        name, payload = f"mtamari_{m}_{n}", {"kind": "ballot", "m": m, "n": n}
    else:
        _gate(args, n, TREE_LATTICE_CAP, "tree lattices are")
        labels = trees.format_trees(n)
        edges = trees.tamari_cover_edges(n)
        name, payload = f"tamari_{n}", {"kind": "trees", "n": n}
    if args.json:  # text output is the DOT graph alone
        payload.update(vertices=labels, edges=[list(e) for e in edges])
        _emit(args, [], payload)
    else:
        _emit(args, _dot(name, labels, edges), {})
    return 0


def cmd_phi(args) -> int:
    _gate(args, args.n, SERIES_CAP, "series is")
    if args.m is None:
        series = poly.phi_series(args.n)
    else:
        _gate(args, args.m, SLOPE_CAP, "slopes are", "m")
        series = mtamari.phi_m_series(args.m, args.n)
    text = str(series)
    _emit(args, [text], {"n": args.n, "m": args.m, "series": text})
    return 0


def cmd_mtamari_verify(args) -> int:
    m, n = args.m, args.n
    _gate(args, n, PATH_LATTICE_CAP, "verification is")
    _gate(args, m, SLOPE_CAP, "slopes are", "m")
    paths = mtamari.enumerate_ballot_paths(m, n)
    # the words, hashed in C, stand for the paths of one m and n
    below = Counter(map(attrgetter("steps"),
                        chain.from_iterable(map(mtamari.path_upset, paths))))
    counts = mtamari.path_counts(m, n)
    lines = []
    results = []
    all_ok = True
    for p in paths:
        counted = counts.get(p.steps)
        expected = below[p.steps]
        ok = counted == expected
        all_ok &= ok
        verdict = "PASS" if ok else "FAIL"
        lines.append(f"{verdict} {p.to_text()} polynomial={counted} paths={expected}")
        if args.json:
            results.append({"path": p.to_text(), "polynomial_count": counted,
                            "path_count": expected, "ok": ok})
    lines.append(f"{'OK' if all_ok else 'FAILED'} {len(paths)} paths checked")
    _emit(args, lines, {"m": m, "n": n, "paths": results, "ok": all_ok})
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The argument parser. It is built once per process and shared by
    every ``main`` call, so callers must not modify it."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser,
                        dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="tamari",
        description="Exact Tamari-lattice interval combinatorics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit one JSON object instead of plain text")
        p.add_argument("--max-n", type=int, default=None,
                       help="raise the capacity cap (brute force is exponential)")

    p = sub.add_parser("count", help="count Tamari intervals of size n")
    p.add_argument("n", type=int)
    p.add_argument("--method", default="formula",
                   choices=("formula", "enumerate", "bruteforce", "series"))
    p.add_argument("--all-methods", action="store_true",
                   help="run every method and report MATCH/MISMATCH")
    common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("poly", help="Tamari polynomial of a tree")
    p.add_argument("tree", help="tree literal such as [[_,_],_] or a Dyck word")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--mirror", action="store_true",
                       help="count trees above instead of below")
    group.add_argument("--bivar", action="store_true",
                       help="refine by the right-subtree statistic b")
    p.add_argument("--at-one", action="store_true",
                   help="print the evaluation at x=1 (and b=1)")
    common(p)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("interval", help="inspect the interval between two trees")
    p.add_argument("lower")
    p.add_argument("upper")
    p.add_argument("--poset", action="store_true",
                   help="print the interval-poset (default section)")
    p.add_argument("--trees", action="store_true",
                   help="list the trees inside the interval")
    p.add_argument("--extensions", action="store_true",
                   help="list the linear extensions with min/max marked")
    common(p)
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("lattice", help="cover graph in DOT format")
    p.add_argument("n", type=int)
    p.add_argument("--mtamari", type=int, metavar="M", default=None,
                   help="use the m-Tamari lattice on ballot paths")
    common(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("phi", help="interval generating function through y^N")
    p.add_argument("n", type=int)
    p.add_argument("--m", type=int, default=None,
                   help="m-Tamari series instead of the plain one")
    common(p)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("mtamari-verify",
                       help="check the prefix-tree polynomial count per path")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_mtamari_verify)

    return parser, sub.choices


@functools.cache
def _grammars() -> dict[str, tuple]:
    """What :func:`_exact_parse` reads from each subcommand parser: its
    defaults, its options by exact option string, its positionals, its
    required options and its mutually exclusive groups.  It models the
    actions these parsers use besides help: stores of one word and
    store_true flags, in groups that are not required."""
    grammars = {}
    for name, sub in _parsers()[1].items():
        actions = [a for a in sub._actions
                   if not isinstance(a, argparse._HelpAction)]
        grammars[name] = (
            {a.dest: a.default for a in actions} | sub._defaults,
            {s: a for a in actions for s in a.option_strings},
            [a for a in actions if not a.option_strings],
            [a for a in actions if a.option_strings and a.required],
            [g._group_actions for g in sub._mutually_exclusive_groups])
    return grammars


def _exact_parse(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse builds for a well-formed subcommand line, or
    None for any line this pass does not model: an option string that is
    not exact (help, abbreviations, ``--opt=value``, ``--``, any other word
    starting with ``-``), an option given twice, an option value starting
    with ``-``, missing or extra positionals, a missing required option, a
    group conflict, or a value its ``type`` or ``choices`` refuse."""
    defaults, options, positionals, required, groups = _grammars()[argv[0]]
    given, words = {}, []
    rest = iter(argv[1:])
    for word in rest:
        if word[:1] != "-":
            words.append(word)
        elif (action := options.get(word)) is None or action in given:
            return None
        elif action.nargs == 0:
            given[action] = None
        elif (value := next(rest, "-"))[:1] == "-":
            return None
        else:
            given[action] = value
    if len(words) != len(positionals) or \
            any(a not in given for a in required) or \
            any(sum(a in given for a in group) > 1 for group in groups):
        return None
    given.update(zip(positionals, words))
    args = argparse.Namespace()
    vars(args).update(defaults)
    for action, word in given.items():
        if word is None:
            value = action.const
        else:
            try:
                value = word if action.type is None else action.type(word)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
        setattr(args, action.dest, value)
    args.command = argv[0]
    return args


def _parse_command_line(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with one parse per call.

    A well-formed subcommand line, one that :func:`_exact_parse` models,
    becomes its namespace in one pass over the words, with no argparse
    parse.  Every other line goes to the top-level parser, so every usage
    line, help text and error message comes from argparse."""
    args = _exact_parse(argv) if argv and argv[0] in _grammars() else None
    return build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    args = _parse_command_line(sys.argv[1:] if argv is None else argv)
    args.warned = False  # _gate warns once per invocation
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # order.CapacityError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
