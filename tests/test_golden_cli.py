"""Replay of recorded CLI transcripts.

``golden_cli.json`` maps each invocation below to the sha256 of its
(exit code, stdout, stderr) triple, so any change to the text or JSON a
command prints shows up here.  After a deliberate output change, rewrite
the file with ``PYTHONPATH=src python tests/test_golden_cli.py``.

``main`` shares one argument parser across calls, so the cases are also
replayed back to back in reverse order: state leaking from one call into
the next through the parser would change a later transcript.

``main`` hands a command line that starts with a subcommand straight to
that subcommand's parser, so every case is also parsed both ways and
compared with the top-level parse that argparse would do.
"""

import argparse
import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest

from tamari.cli import _parse_command_line, build_parser, main

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
              ["phi", "3", "extra", "words"]]


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
