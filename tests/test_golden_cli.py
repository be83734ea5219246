"""Replay of recorded CLI transcripts.

``golden_cli.json`` maps each invocation below to the sha256 of its
(exit code, stdout, stderr) triple, so any change to the text or JSON a
command prints shows up here.  After a deliberate output change, rewrite
the file with ``PYTHONPATH=src python tests/test_golden_cli.py``.

``main`` shares one argument parser across calls, so the cases are also
replayed back to back in reverse order: state leaking from one call into
the next through the parser would change a later transcript.

``main`` turns a well-formed subcommand line into its namespace in one
exact pass, and hands any other line that starts with a subcommand
straight to that subcommand's parser, so every case, and random command
lines, are also parsed both ways and compared with the top-level parse
that argparse would do.
"""

import argparse
import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamari.cli import _parse_command_line, _parsers, build_parser, main

GOLDEN = Path(__file__).with_name("golden_cli.json")

TREE6 = "[[[_,[_,_]],_],[[_,_],_]]"
LOWER4 = "[[[_,[_,_]],_],_]"
UPPER4 = "[_,[[_,_],[_,_]]]"
COMB8 = "[" * 8 + "_" + ",_]" * 8
COMB9 = "[" * 9 + "_" + ",_]" * 9

CASES = [
    ["count", "4"],
    ["count", "4", "--json"],
    ["count", "0", "--method", "enumerate"],
    ["count", "6", "--method", "enumerate"],
    ["count", "5", "--method", "bruteforce"],
    ["count", "7", "--method", "series"],
    ["count", "5", "--all-methods"],
    ["count", "4", "--all-methods", "--json"],
    ["count", "4", "--all-methods", "--max-n", "12"],
    ["count", "9", "--all-methods"],
    ["count", "9", "--method", "enumerate"],
    ["count", "9", "--method", "bruteforce"],
    ["count", "4", "--method", "bruteforce", "--max-n", "9"],
    ["count", "31", "--method", "series"],
    ["count", "six"],
    ["poly", TREE6],
    ["poly", TREE6, "--json"],
    ["poly", TREE6, "--mirror"],
    ["poly", TREE6, "--bivar"],
    ["poly", TREE6, "--bivar", "--at-one", "--json"],
    ["poly", "NNEENENNENEE", "--at-one"],
    ["poly", "_"],
    ["poly", "[_,_"],
    ["poly", "_", "--mirror", "--bivar"],
    ["interval", LOWER4, UPPER4],
    ["interval", LOWER4, UPPER4, "--poset", "--json"],
    ["interval", LOWER4, UPPER4, "--trees"],
    ["interval", LOWER4, UPPER4, "--extensions"],
    ["interval", LOWER4, UPPER4, "--poset", "--trees", "--extensions",
     "--json"],
    ["interval", LOWER4, UPPER4, "--extensions", "--max-n", "9"],
    ["interval", "[_,_]", "[_,_]", "--trees", "--extensions", "--max-n", "9"],
    ["interval", "[_,[_,[_,_]]]", "[[[_,_],_],_]"],
    ["interval", "[_,_]", "[[_,_],_]"],
    ["interval", COMB8, COMB8, "--extensions"],
    ["interval", COMB9, COMB9, "--trees"],
    ["lattice", "0"],
    ["lattice", "4"],
    ["lattice", "3", "--json"],
    ["lattice", "3", "--mtamari", "2"],
    ["lattice", "2", "--mtamari", "2", "--json"],
    ["lattice", "9"],
    ["lattice", "7"],
    ["lattice", "8", "--json"],
    ["lattice", "6", "--mtamari", "2"],
    ["phi", "3"],
    ["phi", "4", "--json"],
    ["phi", "3", "--m", "2"],
    ["phi", "31"],
    ["phi", "2", "--max-n", "40"],
    ["mtamari-verify", "--m", "1", "--n", "4"],
    ["mtamari-verify", "--m", "2", "--n", "3"],
    ["mtamari-verify", "--m", "2", "--n", "3", "--json"],
    ["mtamari-verify", "--m", "3", "--n", "4"],
    ["mtamari-verify", "--m", "2", "--n", "6"],
    ["mtamari-verify", "--m", "3", "--n", "5"],
    ["mtamari-verify", "--m", "1", "--n", "5", "--json"],
    ["mtamari-verify", "--m", "0", "--n", "2"],
    ["count", "4", "--bogus"],
    ["poly", "NE", "--mir"],
    ["count", "4", "--method=series"],
    ["lattice", "3", "--m", "2"],
    ["frob"],
]


PARSE_ONLY = [[], ["-h"], ["count", "-h"],
              ["poly", "NE", "--mirror", "--json", "--max-n", "3"],
              ["--json", "count", "4"], ["count"], ["count", "--", "4"],
              ["phi", "3", "extra", "words"],
              ["interval", "A", "--json", "B"],
              ["count", "4", "--json", "--json"], ["count", "-1"],
              ["count", "4", "--max-n", "-3"], ["poly", "-"],
              ["count", "4", "--method", "bogus"], ["poly", "-h"]]


def transcript_hash(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def test_golden_file_covers_every_case():
    assert set(json.loads(GOLDEN.read_text())) == {shlex.join(a) for a in CASES}


@pytest.mark.parametrize("argv", CASES, ids=shlex.join)
def test_cli_transcript_matches_golden(argv):
    assert transcript_hash(argv) == json.loads(GOLDEN.read_text())[shlex.join(argv)]


def test_transcripts_survive_a_reversed_replay_in_one_process():
    golden = json.loads(GOLDEN.read_text())
    for argv in reversed(CASES):
        assert transcript_hash(argv) == golden[shlex.join(argv)], argv


def parse_outcome(parse, argv: list[str]):
    """The namespace ``parse`` returns, or its exit code, with what it
    printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", CASES + PARSE_ONLY,
                         ids=lambda argv: shlex.join(argv) or "(empty)")
def test_one_parse_matches_the_top_level_parse(argv):
    assert parse_outcome(_parse_command_line, argv) == \
        parse_outcome(build_parser().parse_args, argv)


WELL_FORMED = {
    "count": ["count", "4", "--method", "series", "--max-n", "9", "--json"],
    "poly": ["poly", "--at-one", "NE", "--bivar", "--json"],
    "interval": ["interval", "NE", "--trees", "NE", "--poset", "--extensions"],
    "lattice": ["lattice", "3", "--mtamari", "2", "--json"],
    "phi": ["phi", "--m", "2", "3", "--max-n", "40"],
    "mtamari-verify": ["mtamari-verify", "--n", "3", "--m", "2", "--json"],
}
OWN_OPTIONS = {name: sorted({option for action in sub._actions
                              for option in action.option_strings})
               for name, sub in _parsers()[1].items()}
OPTIONS = sorted(set().union(*OWN_OPTIONS.values()))
VALUES = ["4", "0", "12", "NE", "_", "[_,_]", "formula", "series", "bogus",
          "٣", " 7", ""]
ODD = ["--mir", "--bi", "--at", "--all", "--me", "--max", "--js", "--mt",
       "--ext", "--method=series", "--max-n=3", "--m=2", "--json=1",
       "-1", "-3", "-", "--"]
WORD = st.sampled_from(sorted(OWN_OPTIONS) + OPTIONS + VALUES + ODD)


@st.composite
def command_lines(draw):
    """A subcommand or any word, then words drawn mostly from that
    subcommand's own options and from values."""
    first = draw(st.one_of(st.sampled_from(sorted(OWN_OPTIONS)), WORD))
    own = st.sampled_from(OWN_OPTIONS.get(first, OPTIONS))
    groups = draw(st.lists(st.one_of(
        st.sampled_from(VALUES).map(lambda value: [value]),
        st.tuples(own, st.sampled_from(VALUES)).map(list),
        own.map(lambda option: [option]),
        WORD.map(lambda word: [word])), max_size=4))
    return [first] + sum(groups, [])


@st.composite
def near_well_formed_lines(draw):
    """A well-formed line, its words after the subcommand perhaps
    reordered, with up to two words inserted, deleted or replaced."""
    first, *rest = draw(st.sampled_from(list(WELL_FORMED.values())))
    if draw(st.booleans()):
        rest = draw(st.permutations(rest))
    for _ in range(draw(st.integers(0, 2))):
        at, word = draw(st.integers(0, len(rest))), draw(WORD)
        rest = draw(st.sampled_from([rest[:at] + [word] + rest[at:],
                                     rest[:at] + rest[at + 1:],
                                     rest[:at] + [word] + rest[at + 1:]]))
    return [first] + rest


@settings(max_examples=500, deadline=None)
@given(st.one_of(command_lines(), near_well_formed_lines()))
def test_parse_matches_the_top_level_parse_on_random_lines(argv):
    assert parse_outcome(_parse_command_line, argv) == \
        parse_outcome(build_parser().parse_args, argv)


def test_the_exact_pass_models_every_action():
    # _grammars models one-word stores and store_true flags, in groups
    # that are not required, and takes defaults as they are, which argparse
    # does too unless a string default has a type to pass through
    for sub in _parsers()[1].values():
        for action in sub._actions:
            assert type(action) in (argparse._HelpAction,
                                    argparse._StoreTrueAction) or \
                type(action) is argparse._StoreAction and action.nargs is None
            assert not isinstance(action.default, str) or action.type is None
        assert not any(g.required for g in sub._mutually_exclusive_groups)


def test_well_formed_lines_skip_argparse(monkeypatch):
    assert set(WELL_FORMED) == set(_parsers()[1])
    expected = {name: build_parser().parse_args(argv)
                for name, argv in WELL_FORMED.items()}
    parsed = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        parsed.append(args)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    for name, argv in WELL_FORMED.items():
        assert _parse_command_line(argv) == expected[name]
    assert parsed == []
    # argparse accepts these too, but the exact pass does not model them
    for argv in (["count", "4", "--json", "--json"], ["count", "-1"],
                 ["count", "4", "--max-n", "-3"], ["poly", "-"]):
        _parse_command_line(argv)
        assert parsed[0] == (argv, None)  # the top-level parse, whole
        parsed.clear()


def test_main_builds_no_parser_per_call(monkeypatch):
    transcript_hash(["count", "1"])  # the first call may build the parser
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["count", "4"], ["phi", "2", "--json"], ["count", "six"]):
        transcript_hash(argv)
    assert built == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({shlex.join(a): transcript_hash(a)
                                  for a in CASES}, indent=1) + "\n")
