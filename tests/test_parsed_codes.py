"""The CLI folds the postfix codes its parsers check, with no tree in between.

``poly`` folds the code of its tree text (``poly.text_tamari_poly``).
``mtamari-verify`` reads each ballot path's count off one fold of every
tree of its size, down to the counts (``mtamari.path_counts``), and folds
no single path's code.  These tests check the command output and those
functions against the library's tree-based routes and against the fold of
each path's own code, the mirror fold against the fold of the mirror
image's code, and that neither command builds a tree object, nor
``mtamari-verify`` a polynomial.  ``lattice`` reads its
covers off bracket vectors (``trees.tamari_cover_edges``), so it builds no
rotated tree either, and its labels off the enumeration's shared subtrees
(``trees.format_trees``), so it formats no single tree; ``interval
--trees`` compares bracket vectors, the ends' read off the poset rows, and
takes its literals from the same per-size table, so it closes no
rotations, builds no end tree and formats no listed tree.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import left_comb, mirror, path_count, random_ballot, right_comb
from tamari import intervalposet, mtamari, order, trees
from tamari.cli import main
from tamari.poly import (Polynomial, _chain_poly, _root_bound, tamari_poly,
                         tamari_poly_bivar, tamari_poly_mirror,
                         text_tamari_poly)
from tamari.trees import _postfix, format_tree, from_dyck, parse_tree

VARIANTS = {"standard": ([], tamari_poly),
            "mirror": (["--mirror"], tamari_poly_mirror),
            "bivar": (["--bivar"], tamari_poly_bivar)}


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@st.composite
def tree_texts(draw, max_size=40):
    """A random tree of at most ``max_size`` nodes as a literal or a Dyck
    word, sometimes with blanks between its characters."""
    n = draw(st.integers(0, max_size))
    rng = draw(st.randoms(use_true_random=False))
    tree = from_dyck(random_ballot(rng, 1, n))
    text = draw(st.sampled_from([format_tree, trees.to_dyck]))(tree)
    if not text or draw(st.booleans()):
        return text or "_"
    return " ".join(text)


@settings(max_examples=150, deadline=None)
@given(tree_texts(), st.sampled_from(sorted(VARIANTS)), st.booleans(),
       st.booleans())
def test_poly_command_folds_the_parsed_code(text, variant, at_one, as_json):
    flags, route = VARIANTS[variant]
    flags = flags + ["--at-one"] * at_one + ["--json"] * as_json
    tree = parse_tree(text)
    p = route(tree)
    shown = p.subs(x=1, b=1).constant() if at_one else p
    code, out = run("poly", text, *flags)
    assert code == 0
    if as_json:
        payload = {"command": "poly", "variant": variant, "polynomial": str(p),
                   "tree": format_tree(tree)}
        if at_one:
            payload["at_one"] = shown
        assert json.loads(out) == payload
    else:
        assert out == f"{shown}\n"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 300), st.randoms(use_true_random=False))
@example(n=20, rng=random.Random(0))
@example(n=300, rng=random.Random(0))
def test_mirror_fold_is_the_fold_of_the_mirror_image(n, rng):
    # 20 and 300 nodes lie on each side of _SIZED_FOLD_BITS
    tree = from_dyck(random_ballot(rng, 1, n))
    code, mirrored = _postfix(tree), _postfix(mirror(tree))
    assert _chain_poly(code, mirror=True) == _chain_poly(mirrored)
    assert _chain_poly(bytes(code), mirror=True) == _chain_poly(mirrored)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 80), st.randoms(use_true_random=False))
@example(n=80, rng=random.Random(0))
def test_mirror_fold_is_the_fold_of_the_mirror_image_bivar(n, rng):
    # the b-refined fold switches to the sized fold at half the bits
    tree = from_dyck(random_ballot(rng, 1, n))
    assert _chain_poly(_postfix(tree), bivar=True, mirror=True) == \
        _chain_poly(_postfix(mirror(tree)), bivar=True)


@pytest.mark.parametrize("comb", [left_comb, right_comb])
@pytest.mark.parametrize("n", [1, 2, 100, 400])
def test_mirror_fold_on_combs(comb, n):
    tree = comb(n)
    code, mirrored = _postfix(tree), _postfix(mirror(tree))
    assert _chain_poly(code, mirror=True) == _chain_poly(mirrored)
    assert _chain_poly(code, mirror=True) == tamari_poly(mirror(tree))


@settings(max_examples=200)
@given(st.integers(0, 120), st.randoms(use_true_random=False))
@example(n=0, rng=random.Random(0))
def test_mirrored_root_bound(n, rng):
    tree = from_dyck(random_ballot(rng, 1, n))
    code, mirrored = _postfix(tree), _postfix(mirror(tree))
    arity = max(code)
    assert _root_bound(code, n, arity, mirror=True) == \
        _root_bound(mirrored, n, arity)


@pytest.fixture
def constructions(monkeypatch):
    """The class of each BinaryTree and MAryTree object built so far."""
    built = []
    for cls in (trees.BinaryTree, mtamari.MAryTree):
        init = cls.__init__

        def counting(self, *args, _init=init, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_the_construction_count_sees_trees(constructions):
    parse_tree("[[_,_],_]")
    mtamari.path_to_mary_prefix(mtamari.BallotPath(2, "NEE"))
    assert trees.BinaryTree in constructions
    assert mtamari.MAryTree in constructions


@pytest.mark.parametrize("text", ["[[_,[_,_]],[[_,_],_]]", "NNENEENNEE", "_"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("extra", [[], ["--at-one"], ["--json"],
                                   ["--at-one", "--json"]])
def test_poly_command_builds_no_tree(constructions, text, variant, extra):
    code, _ = run("poly", text, *VARIANTS[variant][0], *extra)
    assert code == 0
    assert constructions == []


@pytest.mark.parametrize("m, n", [(1, 4), (2, 3), (3, 3)])
def test_mtamari_verify_builds_no_tree(constructions, m, n):
    code, out = run("mtamari-verify", "--m", str(m), "--n", str(n))
    assert code == 0 and out.endswith(" paths checked\n")
    assert constructions == []


def test_text_tamari_poly_rejects_an_unknown_variant():
    with pytest.raises(ValueError, match="unknown polynomial variant"):
        text_tamari_poly("NENE", "twisted")


@pytest.mark.parametrize("m, n", [(1, 4), (1, 5), (2, 3), (2, 4), (3, 3),
                                  (300, 2)])
def test_path_code_folds_to_the_tree_polynomial(m, n):
    # m = 300 takes child counts past one byte; mary_tamari_poly folds
    # the tree's postfix code, which is the path's own code
    for p in mtamari.enumerate_ballot_paths(m, n):
        tree = mtamari.path_to_mary_prefix(p)
        assert mtamari._path_code(p) == _postfix(tree, mtamari._mary_children)
        value = mtamari.mary_tamari_poly(tree)
        assert path_count(p) == value.subs(x=1, y=1).constant()


@pytest.mark.parametrize("n", range(7))
def test_lattice_command_builds_no_tree(constructions, n):
    trees.enumerate_trees(n)  # the enumeration builds its trees once
    constructions.clear()
    code, out = run("lattice", str(n))
    assert code == 0 and out.endswith("}\n")
    assert constructions == []


@pytest.fixture
def spied(monkeypatch):
    """Record each call of a module's function, then make it."""
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def recording(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, recording)
    return spy, calls


def test_the_spy_sees_the_commands_calls(spied):
    spy, calls = spied
    spy(trees, "format_tree")
    spy(order, "tamari_upset")
    code, out = run("interval", "[[_,_],_]", "[_,[_,_]]", "--json")
    order.tamari_leq_oracle(parse_tree("[[_,_],_]"), parse_tree("[_,[_,_]]"))
    assert code == 0 and json.loads(out)["lower"] == "[[_,_],_]"
    assert "format_tree" in calls and "tamari_upset" in calls


@pytest.mark.parametrize("n", range(7))
def test_lattice_command_formats_no_single_tree(spied, n):
    spy, calls = spied
    spy(trees, "format_tree")
    code, out = run("lattice", str(n))
    assert code == 0 and out.endswith("}\n")
    assert calls == []


@pytest.mark.parametrize("lower, upper", [
    ("NENENENENE", "NNNENNEEEE"), ("[[_,_],_]", "[_,[_,_]]"),
    ("[[[_,_],_],_]", "[_,[_,[_,_]]]"),
    ("NENENENENENENENE", "NNNNNNNNEEEEEEEE")])
def test_interval_trees_close_no_rotations(spied, lower, upper):
    """The listing reads its literals off the per-size table and the ends'
    vectors off the poset rows: no rotation, no end tree, no formatting
    beyond the two ends that ``--json`` prints."""
    spy, calls = spied
    spy(order, "tamari_upset")
    spy(trees, "format_tree")
    spy(intervalposet, "lower_tree")
    spy(intervalposet, "upper_tree")
    code, text = run("interval", lower, upper, "--trees")
    assert code == 0 and text.splitlines()
    assert calls == []
    code, out = run("interval", lower, upper, "--trees", "--json")
    assert code == 0 and json.loads(out)["trees"] == text.splitlines()
    assert calls == ["format_tree", "format_tree"]


def test_a_changed_literal_list_leaves_the_table_alone():
    listed = trees.format_trees(3)
    expected = list(listed)
    listed[0] = "[_,_]"
    listed.append("_")
    assert trees.format_trees(3) == expected
    code, out = run("interval", "[[[_,_],_],_]", "[_,[_,[_,_]]]", "--trees")
    assert code == 0 and out.splitlines() == expected


@pytest.mark.parametrize("m, n", [(1, 4), (2, 3), (3, 3)])
def test_mtamari_verify_builds_no_polynomial(monkeypatch, m, n):
    built = []
    init = Polynomial.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counting)
    code, out = run("mtamari-verify", "--m", str(m), "--n", str(n))
    assert code == 0 and out.endswith(" paths checked\n")
    assert built == []


@pytest.mark.parametrize("m, n", [(1, 4), (2, 3), (3, 4)])
def test_mtamari_verify_folds_once_per_call(spied, m, n):
    spy, calls = spied
    spy(mtamari, "path_counts")
    spy(mtamari, "_path_code")
    code, out = run("mtamari-verify", "--m", str(m), "--n", str(n))
    assert code == 0 and out.endswith(" paths checked\n")
    assert calls == ["path_counts"]


@pytest.mark.parametrize("as_json", [False, True])
def test_mtamari_verify_fails_a_path_the_table_lacks(monkeypatch, as_json):
    table = mtamari.path_counts(2, 3)
    below = table.pop("NENEEENEE")  # the count the rotations agree on
    monkeypatch.setattr(mtamari, "path_counts", lambda m, n: dict(table))
    code, out = run("mtamari-verify", "--m", "2", "--n", "3",
                    *["--json"] * as_json)
    assert code == 1
    if as_json:
        payload = json.loads(out)
        failed = [r for r in payload["paths"] if not r["ok"]]
        assert payload["ok"] is False and failed == [
            {"path": "m=2:NENEEENEE", "polynomial_count": None,
             "path_count": below, "ok": False}]
    else:
        lines = out.splitlines()
        assert [s for s in lines if s.startswith("FAIL ")] == [
            f"FAIL m=2:NENEEENEE polynomial=None paths={below}"]
        assert lines[-1] == "FAILED 12 paths checked"
