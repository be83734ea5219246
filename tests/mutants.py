"""Mutants of the packed kernels, the series, the composition, the
interval-posets, the tree and path codes and the command line, each with
the tests that must kill it.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each entry names a module of ``src/tamari``, an exact old text that occurs
once in it, the new text, and the test node ids that must fail once the
old text is replaced.  The script copies ``src``, ``tests``, ``perfbench``,
the README and ``pyproject.toml`` to a temporary directory, applies one
mutant at a time to the copy, and runs ``python -m pytest -q
--assert=plain`` on its ids there, so the checkout and its hypothesis
database stay untouched.  ``--assert=plain`` skips pytest's assertion
rewriting, which each run would redo for every test module because no
bytecode is cached; a failing ``assert`` still fails, so no verdict
depends on it.  It loads the ``mutants`` hypothesis profile of
``conftest.py``, which does not shrink a failing example: the kill needs
only the failure.  A mutant is killed only when every one of its ids
fails; otherwise the ids that passed are printed.  It prints each mutant
as killed or survived and exits 1 when any survived or its tests could
not run.  ``SURVIVORS`` lists the known survivors, each with the reason
that no test can kill it; they are not run.  pytest does not collect this
file; ``test_mutants.py`` checks that every old text still occurs exactly
once, that pytest collects every test id, and how a report is read.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
TIMEOUT_S = 600
PROFILE = "mutants"  # a hypothesis profile of conftest.py


class Mutant(NamedTuple):
    module: str  # file name under src/tamari
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = {
    "fixed link tests the wrong operand for the leaf x": Mutant(
        "poly.py",
        "return f if value is leaf else",
        "return f if f is leaf else",
        ("tests/test_packed.py::test_top_path_polynomials[2]",)),
    "fixed binary node tests the wrong operand for the leaf x": Mutant(
        "poly.py",
        "if value is leaf:\n                return f[0] + 1",
        "if f is leaf:\n                return f[0] + 1",
        ("tests/test_packed.py::test_top_tree_polynomials[3]",
         "tests/test_poly.py::"
         "test_tamari_poly_bivar_counts_right_subtree_statistic",
         "tests/test_compose.py::"
         "test_initial_interval_sum_statistic_equals_tamari_poly")),
    "fixed binary node drops its x when the right child is x": Mutant(
        "poly.py",
        "return f[0] + 1, f[1]",
        "return f[0], f[1]",
        ("tests/test_packed.py::test_top_tree_polynomials[3]",
         "tests/test_poly.py::test_tamari_poly_bivar")),
    "sized link tests the wrong operand for the leaf x": Mutant(
        "poly.py",
        "        if value is leaf:\n            return f\n",
        "        if f is leaf:\n            return f\n",
        ("tests/test_packed.py::test_fixed_and_sized_folds_agree_on_trees"
         "[100]",)),
    "fixed mirror takes the children left to right": Mutant(
        "poly.py",
        "lambda left, right: node(right, left)",
        "lambda left, right: node(left, right)",
        ("tests/test_packed.py::test_top_tree_polynomials[3]",)),
    "mirror takes the children left to right": Mutant(
        "poly.py",
        "return lambda left, right: top(link(right, left))",
        "return lambda left, right: top(link(left, right))",
        ("tests/test_packed.py::test_large_tree_polynomials[0]",)),
    "slope shifts by twice the step": Mutant(
        "poly.py",
        "    out = packed >> width\n    step = width\n"
        "    while shifted := out >> step:",
        "    out = packed >> width\n    step = width\n"
        "    while shifted := out >> 2 * step:",
        ("tests/test_packed.py::test_pack_unpack_and_slope",)),
    "product by the slope shifts by twice the step": Mutant(
        "poly.py",
        "    out = chain << (power - 1) * width\n    step = width\n"
        "    while shifted := out >> step:",
        "    out = chain << (power - 1) * width\n    step = width\n"
        "    while shifted := out >> 2 * step:",
        ("tests/test_packed.py::test_times_slope_is_the_product_by_the_slope",
         "tests/test_packed.py::test_top_tree_polynomials[3]")),
    "product by the slope skips the shift down one slot": Mutant(
        "poly.py",
        "out = chain << (power - 1) * width",
        "out = chain << power * width",
        ("tests/test_packed.py::test_times_slope_is_the_product_by_the_slope",
         "tests/test_packed.py::test_top_tree_polynomials[3]")),
    "unpacking keeps zero slots": Mutant(
        "poly.py",
        "enumerate(slots, shift)\n                      if c}",
        "enumerate(slots, shift)}",
        ("tests/test_packed.py::test_pack_unpack_and_slope",)),
    "unpacking reads slots big-endian": Mutant(
        "poly.py",
        'repeat("little")',
        'repeat("big")',
        ("tests/test_packed.py::test_pack_unpack_and_slope",)),
    "unpacking splits one byte too wide": Mutant(
        "poly.py",
        'iter_unpack(f"<{size}s", data)',
        'iter_unpack(f"<{size + 1}s", data)',
        ("tests/test_packed.py::test_pack_unpack_and_slope",)),
    "limit back at 216 bits": Mutant(
        "poly.py",
        "_SIZED_FOLD_BITS = 224",
        "_SIZED_FOLD_BITS = 216",
        ("tests/test_packed.py::test_small_trees_skip_the_sized_fold",)),
    "limit raised to 248 bits": Mutant(
        "poly.py",
        "_SIZED_FOLD_BITS = 224",
        "_SIZED_FOLD_BITS = 248",
        ("tests/test_packed.py::test_large_bivar_polynomial[60]",
         "tests/test_packed.py::test_large_path_polynomial[2-127-True]")),
    "b-refined limit at half the bits": Mutant(
        "poly.py",
        "// (5 if bivar else 2)",
        "// (4 if bivar else 2)",
        ("tests/test_packed.py::test_large_bivar_polynomial[60]",)),
    "Fuss-Catalan count divided by one more": Mutant(
        "poly.py",
        "// ((arity - 1) * nodes + 1)",
        "// ((arity - 1) * nodes + 2)",
        ("tests/test_packed.py::"
         "test_root_bound_is_the_count_or_the_degree_product",
         "tests/test_packed.py::test_root_bound_bounds_the_value_at_one",
         "tests/test_mtamari.py::"
         "test_shared_fold_reaches_its_width_at_the_top")),
    "degree product takes deg(v) + 1": Mutant(
        "poly.py",
        "product *= left if mirror else right",
        "product *= (left if mirror else right) + 1",
        ("tests/test_packed.py::"
         "test_root_bound_is_the_count_or_the_degree_product",)),
    "degree product mirror takes the unswapped child": Mutant(
        "poly.py",
        "product *= left if mirror else right",
        "product *= right",
        ("tests/test_packed.py::"
         "test_root_bound_is_the_count_or_the_degree_product",
         "tests/test_parsed_codes.py::test_mirrored_root_bound")),
    "degree product links at e + d": Mutant(
        "poly.py",
        "degrees[-1] = left + right",
        "degrees[-1] = left + right + 1",
        ("tests/test_packed.py::"
         "test_root_bound_is_the_count_or_the_degree_product",)),
    "degree product screen inverted": Mutant(
        "poly.py",
        "if arity == 2 and bound.bit_length() > screen:",
        "if arity == 2 and bound.bit_length() <= screen:",
        ("tests/test_packed.py::"
         "test_root_bound_is_the_count_or_the_degree_product",
         "tests/test_packed.py::test_large_bivar_polynomial[119]")),
    "slot sum reads a zero residue as zero": Mutant(
        "poly.py",
        "return residue if residue or not packed else mask",
        "return residue",
        ("tests/test_packed.py::test_slot_sum_at_the_top_of_its_range",)),
    "repacking copies one byte of each slot short": Mutant(
        "poly.py",
        "range(min(size, new_size))",
        "range(min(size, new_size) - 1)",
        ("tests/test_packed.py::test_large_tree_polynomials",)),
    "sized link never repacks the lower operand": Mutant(
        "poly.py",
        "        if v != w:\n",
        "        if False:\n",
        ("tests/test_packed.py::test_large_tree_polynomials",
         "tests/test_packed.py::test_large_bivar_polynomial")),
    "sized fold drops the fourth moment": Mutant(
        "poly.py",
        "a4 = a3 * (d - 3) // 4 if d > 3 else 0",
        "a4 = 0",
        ("tests/test_packed.py::test_top_tree_polynomials",
         "tests/test_packed.py::test_large_path_polynomial")),
    "series layers skip the slope": Mutant(
        "poly.py",
        "slope.append(chain + _slope(chain, width))",
        "slope.append(chain)",
        ("tests/test_poly.py::test_phi_series",
         "tests/test_mtamari.py::test_phi_m_series_matches_closed_form")),
    "series width one degree short": Mutant(
        "poly.py",
        "comb((m + 1) ** 2 * (max_degree + 1) + m,\n"
        "                             max_degree)",
        "comb((m + 1) ** 2 * max_degree + m,\n"
        "                             max_degree - 1)",
        ("tests/test_poly.py::test_phi_series",
         "tests/test_packed.py::test_phi_m_series_top_degree")),
    "polynomial grammar loses the leading minus": Mutant(
        "poly.py",
        r'rf"\s*(?:-\s*)?{_TERM}',
        r'rf"\s*{_TERM}',
        ("tests/test_poly.py::test_polynomial_arithmetic_and_rendering",)),
    "parsed variable without a power gets exponent 0": Mutant(
        "poly.py",
        "int(power or 1)",
        "int(power or 0)",
        ("tests/test_poly.py::test_polynomial_arithmetic_and_rendering",
         "tests/test_acceptance.py::test_criterion_2_refined_series")),
    "parsed term ignores its sign": Mutant(
        "poly.py",
        'coeff, exps = -1 if sign == "-" else 1, [0, 0, 0]',
        "coeff, exps = 1, [0, 0, 0]",
        ("tests/test_poly.py::test_polynomial_arithmetic_and_rendering",)),
    "postfix code of a binary node takes its subtrees swapped": Mutant(
        "trees.py",
        "stack += node.left, node.right",
        "stack += node.right, node.left",
        ("tests/test_packed.py::test_top_tree_polynomials[3]",)),
    "cover rule loses the rotated node itself": Mutant(
        "trees.py",
        "w[x] += v[end + 1] + 1",
        "w[x] += v[end + 1]",
        ("tests/test_trees.py::test_bracket_vector_covers_are_the_rotations",
         )),
    "ballot slack one short": Mutant(
        "trees.py",
        "range(m * norths - easts)",
        "range(m * norths - easts - 1)",
        ("tests/test_mtamari.py::test_enumerate_ballot_paths",)),
    "tree step combines its two values swapped": Mutant(
        "trees.py",
        "return combine(left, right), below",
        "return combine(right, left), below",
        ("tests/test_trees.py::test_enumerate_trees_catalan",)),
    "vector tree closes one waiting node per label": Mutant(
        "trees.py",
        "while waiting and waiting[-1][1] == label:",
        "if waiting and waiting[-1][1] == label:",
        ("tests/test_intervalposet.py::test_lower_upper_tree_roundtrip",)),
    "shared path fold takes a power of x for x": Mutant(
        "mtamari.py",
        "        if r[1] != 1 or r[0] != 1:\n",
        "        if r[1] != 1:\n",
        ("tests/test_mtamari.py::"
         "test_shared_fold_matches_the_fold_of_each_path[5-4]",)),
    "shared path fold reads the first child first": Mutant(
        "mtamari.py",
        "r[2] + t[2]",
        "t[2] + r[2]",
        ("tests/test_mtamari.py::"
         "test_shared_fold_matches_the_fold_of_each_path[5-4]",)),
    "shared path fold skips the split with no nodes in the rest": Mutant(
        "mtamari.py",
        "for i in range(s + 1)",
        "for i in range(s)",
        ("tests/test_mtamari.py::"
         "test_shared_fold_matches_the_fold_of_each_path[5-4]",)),
    "shared path fold drops each node's north step": Mutant(
        "mtamari.py",
        '"N" + word',
        "word",
        ("tests/test_mtamari.py::"
         "test_shared_fold_matches_the_fold_of_each_path[5-4]",)),
    "m-ary polynomial one y short": Mutant(
        "mtamari.py",
        "[0] * (len(code) - code.count(0))",
        "[0] * (len(code) - code.count(0) - 1)",
        ("tests/test_packed.py::test_top_path_polynomials[2]",)),
    "axiom check carries no failure from the next row": Mutant(
        "intervalposet.py",
        "(bad[a + 1] | ~succ[a + 1])",
        "~succ[a + 1]",
        ("tests/test_deep_trees.py::"
         "test_increasing_failure_carried_down_the_rows[8]",
         "tests/test_properties.py::test_validate_matches_sparse_reference")),
    "axiom check flags the next label up": Mutant(
        "intervalposet.py",
        "succ[a] >> a + 2 << a + 2",
        "succ[a] >> a + 1 << a + 1",
        ("tests/test_properties.py::test_validate_matches_sparse_reference",)),
    "axiom check starts its upward pass one row lower": Mutant(
        "intervalposet.py",
        "range(n - 3, -1, -1)",
        "range(n - 4, -1, -1)",
        ("tests/test_deep_trees.py::"
         "test_increasing_failure_carried_down_the_rows[8]",
         "tests/test_properties.py::test_validate_matches_sparse_reference")),
    "axiom check flags the next label down": Mutant(
        "intervalposet.py",
        "(1 << a - 1) - 1",
        "(1 << a) - 1",
        ("tests/test_properties.py::test_validate_matches_sparse_reference",)),
    "axiom check tests the second label down": Mutant(
        "intervalposet.py",
        "~succ[a - 1]",
        "~succ[a - 2]",
        ("tests/test_properties.py::test_validate_matches_sparse_reference",)),
    "axiom witness skips the first label between": Mutant(
        "intervalposet.py",
        "b = min(p, q) + 1",
        "b = min(p, q) + 2",
        ("tests/test_deep_trees.py::"
         "test_decreasing_failure_at_the_lowest_row[8]",
         "tests/test_properties.py::test_validate_matches_sparse_reference")),
    "make_interval skips the nearest-parent test": Mutant(
        "intervalposet.py",
        "if any(_through_nearest(succ, v) & ~row",
        "if False and any(_through_nearest(succ, v) & ~row",
        ("tests/test_intervalposet.py::test_make_interval_incomparable",)),
    "a poset equals a plain tuple of its rows": Mutant(
        "intervalposet.py",
        "return isinstance(other, IntervalPoset) and "
        "tuple.__eq__(self, other)",
        "return tuple.__eq__(self, other)",
        ("tests/test_intervalposet.py::"
         "test_a_poset_is_a_value_of_its_rows_alone",)),
    "upper end vector one label long": Mutant(
        "intervalposet.py",
        "(above & -above).bit_length() - 1 if (above",
        "(above & -above).bit_length() if (above",
        ("tests/test_intervalposet.py::test_lower_upper_tree_roundtrip",)),
    "linear extensions take labels in descending order": Mutant(
        "order.py",
        "for v in range(1, n + 1)",
        "for v in range(n, 0, -1)",
        ("tests/test_intervalposet.py::test_linear_extensions_four_node_pair",
         "tests/test_cli.py::test_interval_extensions")),
    "linear extensions invert the precedence test": Mutant(
        "order.py",
        "not preds[v] & ~placed",
        "not preds[v] & placed",
        ("tests/test_intervalposet.py::test_linear_extensions_four_node_pair",
         "tests/test_order.py::test_sylvester_class_examples")),
    "search-tree relation relates the root to itself": Mutant(
        "order.py",
        "range(lo, lo + t.size)\n                         if a != root)",
        "range(lo, lo + t.size))",
        ("tests/test_order.py::test_sylvester_class_examples",
         "tests/test_order.py::test_sylvester_classes_partition_permutations")),
    "sort key drops its tie-break": Mutant(
        "compose.py",
        "\n            - low for part in parts",
        "\n            for part in parts",
        ("tests/test_compose.py::test_packed_key_orders_like_sorted_relations",
         "tests/test_compose.py::test_enumeration_text_is_pinned")),
    "decode keeps the pairs past the end of the list": Mutant(
        "compose.py",
        "keys[i] = (full ^ (key + (low := -key & below)) >> shift) & -low",
        "keys[i] = full ^ (key + (low := -key & below)) >> shift",
        ("tests/test_compose.py::test_packed_key_orders_like_sorted_relations",
         "tests/test_compose.py::test_enumeration_text_is_pinned")),
    "decompose never splits at vertex 1": Mutant(
        "compose.py",
        "k = (poset[0] | 1).bit_length()",
        "k = poset[0].bit_length()",
        ("tests/test_compose.py::test_decompose_worked_instance",
         "tests/test_compose.py::test_decompose_matches_sparse_reference")),
    "decompose takes the left side as empty at k = 2": Mutant(
        "compose.py",
        "if k > 1 else _EMPTY_POSET",
        "if k > 2 else _EMPTY_POSET",
        ("tests/test_compose.py::test_decompose_compose_roundtrip",
         "tests/test_compose.py::test_decompose_matches_sparse_reference")),
    "decompose takes the right side as empty at k = n - 1": Mutant(
        "compose.py",
        "if k < n else _EMPTY_POSET",
        "if k < n - 1 else _EMPTY_POSET",
        ("tests/test_compose.py::test_decompose_compose_roundtrip",
         "tests/test_compose.py::test_decompose_matches_sparse_reference")),
    "compose takes only rows with no successor as roots": Mutant(
        "compose.py",
        "if not row & below:",
        "if not row:",
        ("tests/test_compose.py::test_compose_worked_instance",
         "tests/test_compose.py::test_compose_matches_sparse_reference")),
    "packed roots ignore the carry past column 1": Mutant(
        "compose.py",
        "(i2 & _LOWER) + _SPREAD | i2",
        "(i2 & _LOWER) | _SPREAD | i2",
        ("tests/test_compose.py::test_packed_terms_match_compose",
         "tests/test_compose.py::test_packed_count_matches_the_formula",
         "tests/test_compose.py::test_enumeration_text_is_pinned")),
    "packed stride one bit narrow": Mutant(
        "compose.py",
        "shift = k1 * (_W + 1)",
        "shift = k1 * _W",
        ("tests/test_compose.py::test_packed_terms_match_compose",)),
    "capacity gate refuses a size equal to its cap": Mutant(
        "cli.py",
        "if n > cap:",
        "if n >= cap:",
        ("tests/test_cli.py::test_slope_cap",
         "tests/test_cli.py::test_ballot_commands_at_large_m",
         "tests/test_golden_cli.py::test_cli_transcript_matches_golden"
         "[lattice 8 --json]")),
    "capacity error names the default cap, not the one in force": Mutant(
        "cli.py",
        "capped at {name}={cap} ",
        "capped at {name}={default} ",
        ("tests/test_cli.py::"
         "test_a_raised_cap_still_exceeded_names_the_raised_cap",)),
    "an incomparable pair exits 2": Mutant(
        "cli.py",
        'print("error: not a Tamari interval", file=sys.stderr)\n'
        "        return 1",
        'print("error: not a Tamari interval", file=sys.stderr)\n'
        "        return 2",
        ("tests/test_cli.py::test_interval_incomparable",)),
    "exact parse takes a value outside the option's choices": Mutant(
        "cli.py",
        "if action.choices is not None and value not in action.choices:",
        "if False:",
        ("tests/test_golden_cli.py::"
         "test_one_parse_matches_the_top_level_parse[count 4 --method bogus]",
         )),
}


class Survivor(NamedTuple):
    module: str
    old: str
    new: str
    reason: str


# mutants that no test can kill, each with the reason that it returns the
# same answers; the script does not run them
SURVIVORS = {
    "lower end vector steps one label at a time": Survivor(
        "intervalposet.py",
        "end[a] = end[end[a] + 1]",
        "end[a] = end[a] + 1",
        "the larger labels that precede a are contiguous (decreasing "
        "closure), so stepping over them one by one ends where the jumps "
        "do, only in O(n^2) steps"),
    "sized fold counts no spare bits": Survivor(
        "poly.py",
        "int((s + 1) * rate) + 2",
        "int((s + 1) * rate)",
        "Stirling puts C(a(s+1), s+1) below 2^(rate (s+1)), and the chain "
        "is at most the Fuss-Catalan count, one bit or more below that "
        "binomial, so the slots are wide enough without the two bits"),
}


def not_failed(ids: tuple[str, ...], report: str) -> list[str]:
    """The test ids of ``ids`` that no FAILED or ERROR line of a pytest
    report names: an id names a test, or a test function whose every
    parameter set it stands for, and it failed when any of them did.  A
    parameter id may hold spaces, so a line names an id when it holds the
    id alone, the id then " - " and a message, or the id then a parameter
    set."""
    failed = [line.split(" ", 1)[1] for line in report.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return [i for i in ids
            if not any(line == i or line.startswith((i + " - ", i + "["))
                       for line in failed)]


def run(mutant: Mutant, copy: Path) -> str:
    """Apply ``mutant`` to the copy, run its tests, restore the file, and
    say how the tests ended: killed only when every id failed."""
    target = copy / "src" / "tamari" / mutant.module
    text = target.read_text()
    if text.count(mutant.old) != 1:
        return "not applied: the old text does not occur exactly once"
    target.write_text(text.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--assert=plain", "-p",
             "no:cacheprovider", f"--hypothesis-profile={PROFILE}",
             *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed (timed out)"
    finally:
        target.write_text(text)
    if proc.returncode == 1:
        passed = not_failed(mutant.tests, proc.stdout)
        return f"SURVIVED: passed {', '.join(passed)}" if passed else "killed"
    if proc.returncode == 0:
        return "SURVIVED"
    return f"error: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}"


def main(names: list[str]) -> int:
    unknown = set(names) - MUTANTS.keys()
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for item in COPIED:
            source = ROOT / item
            if source.is_dir():
                shutil.copytree(source, copy / item, ignore=shutil.
                                ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy(source, copy / item)
        for name in names or MUTANTS:
            start = time.perf_counter()
            outcome = run(MUTANTS[name], copy)
            failed += not outcome.startswith("killed")
            print(f"{time.perf_counter() - start:6.1f} s  {name}: {outcome}",
                  flush=True)
    print(f"{failed} of {len(names or MUTANTS)} mutants not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
