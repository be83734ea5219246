import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tamari import cli
from tamari.cli import main

TREE6 = "[[[_,[_,_]],_],[[_,_],_]]"
PAIR4_LOWER = "[[[_,[_,_]],_],_]"
PAIR4_UPPER = "[_,[[_,_],[_,_]]]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_formula(capsys):
    code, out, _ = run(capsys, "count", "4", "--method", "formula")
    assert code == 0 and out.strip() == "68"


def test_count_enumerate_zero(capsys):
    code, out, _ = run(capsys, "count", "0", "--method", "enumerate")
    assert code == 0 and out.strip() == "1"


def test_count_all_methods(capsys):
    code, out, _ = run(capsys, "count", "5", "--all-methods")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "MATCH"
    values = {line.split(": ")[1] for line in lines[:-1]}
    assert values == {"399"}


def test_count_all_methods_json(capsys):
    code, out, _ = run(capsys, "count", "3", "--all-methods", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert set(payload["counts"].values()) == {13}


def test_count_capacity(capsys):
    code, _, err = run(capsys, "count", "9", "--method", "bruteforce")
    assert code == 2 and "capped" in err
    code, out, err = run(capsys, "count", "4", "--max-n", "12",
                         "--method", "formula")
    assert (code, out, err) == (0, "68\n", "")  # the formula has no cap


@pytest.mark.parametrize("argv, message", [
    (("count", "12", "--method", "bruteforce", "--max-n", "10"),
     "bruteforce is capped at n=10"),
    (("phi", "1", "--m", "8", "--max-n", "7"), "slopes are capped at m=7"),
], ids=["n", "m"])
def test_a_raised_cap_still_exceeded_names_the_raised_cap(capsys, argv,
                                                          message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"warning: raising capacity cap to {argv[-1]}",
        f"error: {message} (override with --max-n)"]


def test_count_enumerate_past_the_packing_width(capsys):
    # --max-n lifts the CLI's cap, but the library enumerates only up to
    # size 16, so n = 17 ends at once with its message, not in a run of
    # about 1.25e13 posets
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "17", "--method", "enumerate",
                         "--max-n", "17")
    assert (code, out) == (2, "")
    assert err.startswith("warning: raising capacity cap to 17")
    assert err.endswith(
        "\nerror: interval-posets are enumerated up to size 16\n")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("options", [
    (), ("--method", "formula"), ("--method", "enumerate"),
    ("--method", "bruteforce"), ("--method", "series"), ("--all-methods",),
    ("--json",), ("--all-methods", "--json")])
def test_count_huge_n_is_an_error_line(capsys, options):
    code, out, err = run(capsys, "count", "99999999999999999999", *options)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("options", [(), ("--json",)], ids=["text", "json"])
def test_count_past_the_int_to_text_limit_is_an_error_line(capsys, options):
    # 5000 gives a 4,875-digit count; the limit stays the process's own
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "count", "5000", *options)
    assert (code, out) == (2, "")
    assert err == (f"error: the count for n=5000 has more than {limit} "
                   "digits, the limit for converting an integer to text\n")
    assert sys.get_int_max_str_digits() == limit


def test_poly_six_node_tree(capsys):
    code, out, _ = run(capsys, "poly", TREE6)
    assert code == 0 and out.strip() == "x^3 + 2*x^4 + 2*x^5 + x^6"


def test_poly_empty_tree(capsys):
    code, out, _ = run(capsys, "poly", "_")
    assert code == 0 and out.strip() == "1"


def test_poly_at_one(capsys):
    code, out, _ = run(capsys, "poly", TREE6, "--at-one")
    assert code == 0 and out.strip() == "6"


def test_poly_accepts_dyck_words(capsys):
    code, out, _ = run(capsys, "poly", "NNEENENNENEE")
    assert code == 0 and out.strip() == "x^3 + 2*x^4 + 2*x^5 + x^6"


def test_poly_mirror_and_bivar(capsys):
    code, out, _ = run(capsys, "poly", "[[[_,_],_],_]", "--mirror", "--at-one")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "poly", TREE6, "--bivar", "--json")
    payload = json.loads(out)
    assert payload["variant"] == "bivar"


def test_poly_on_deep_combs(capsys):
    depth = 3000
    for argv in (["poly", "[" * depth + "_" + ",_]" * depth],
                 ["poly", "NE" * depth],
                 ["poly", "--mirror", "[_," * depth + "_" + "]" * depth],
                 ["poly", "--mirror", "N" * depth + "E" * depth]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, f"x^{depth}\n", "")


def test_poly_parse_error(capsys):
    code, _, err = run(capsys, "poly", "[_,_")
    assert code == 2 and "position" in err


def test_poly_variant_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as err:
        main(["poly", "_", "--mirror", "--bivar"])
    assert err.value.code == 2


def test_interval_four_node_pair(capsys):
    code, out, _ = run(capsys, "interval", PAIR4_LOWER, PAIR4_UPPER)
    assert code == 0 and out.strip().splitlines() == ["n=4", "2<1,2<3"]


def test_interval_identity(capsys):
    code, out, _ = run(capsys, "interval", "[[_,_],_]", "[[_,_],_]",
                       "--poset", "--trees")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n=2"
    assert lines[-1] == "[[_,_],_]"
    assert len(lines) == 3


def test_interval_extensions(capsys):
    code, out, _ = run(capsys, "interval", PAIR4_LOWER, PAIR4_UPPER,
                       "--extensions")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2134 (min)"
    assert lines[-1] == "4231 (max)"
    assert len(lines) == 8


def test_interval_warns_once_for_two_capped_sections(capsys):
    code, out, err = run(capsys, "interval", "[_,_]", "[_,_]", "--trees",
                         "--extensions", "--max-n", "9")
    assert code == 0 and out.splitlines()[0] == "[_,_]"
    assert err.splitlines() == ["warning: raising capacity cap to 9"]


def test_interval_trees_capacity(capsys):
    comb9 = "[" * 9 + "_" + ",_]" * 9
    code, out, err = run(capsys, "interval", comb9, comb9, "--trees")
    assert (code, out) == (2, "")
    assert err == "error: trees are capped at n=8 (override with --max-n)\n"


def test_count_all_methods_warns_once(capsys):
    for _ in range(2):  # the warned flag belongs to one call, not the parser
        code, out, err = run(capsys, "count", "4", "--all-methods",
                             "--max-n", "12")
        assert code == 0 and out.splitlines()[-1] == "MATCH"
        assert err.splitlines() == ["warning: raising capacity cap to 12"]


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_count_mismatch_names_the_disagreeing_methods(capsys, monkeypatch,
                                                      json_flag):
    count_one = cli._count_one
    monkeypatch.setattr(cli, "_count_one", lambda method, n, args: count_one(
        method, n, args) + (method == "series"))
    code, out, _ = run(capsys, "count", "4", "--all-methods", *json_flag)
    assert code == 1
    if json_flag:
        payload = json.loads(out)
        assert payload["match"] is False and payload["disagree"] == ["series"]
    else:
        assert out.splitlines()[-2:] == [
            "series: 69", "MISMATCH: series differ from formula"]


def test_interval_incomparable(capsys):
    code, _, err = run(capsys, "interval", "[_,[_,[_,_]]]", "[[[_,_],_],_]")
    assert code == 1 and "not a Tamari interval" in err


def test_interval_size_mismatch(capsys):
    code, _, err = run(capsys, "interval", "[_,_]", "[[_,_],_]")
    assert code == 2
    assert err == "error: trees must have the same size\n"  # make_interval's
    code, out, err = run(capsys, "interval", "[_,_]", "[[_,_],_]", "--json")
    assert (code, out, err) == (2, "", "error: trees must have the same size\n")


def test_lattice_sizes(capsys):
    code, out, _ = run(capsys, "lattice", "3")
    assert code == 0
    assert out.count("[label=") == 5
    assert out.count("->") == 5
    code, out, _ = run(capsys, "lattice", "1")
    assert out.count("[label=") == 1 and out.count("->") == 0
    code, out, _ = run(capsys, "lattice", "4")
    assert out.count("[label=") == 14 and out.count("->") == 21


def test_lattice_deterministic(capsys):
    first = run(capsys, "lattice", "4")
    second = run(capsys, "lattice", "4")
    assert first == second


def test_lattice_mtamari_json(capsys):
    code, out, _ = run(capsys, "lattice", "2", "--mtamari", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == ["NNEEEE", "NENEEE", "NEENEE"]
    assert payload["edges"] == [[1, 0], [2, 1]]


def test_lattice_capacity(capsys):
    code, _, err = run(capsys, "lattice", "9")
    assert code == 2 and "capped" in err
    code, _, err = run(capsys, "lattice", "6", "--mtamari", "2")
    assert code == 2 and "capped" in err


def test_ballot_commands_at_large_m(capsys):
    # a ballot path of size 1 has m + 1 steps, beyond the recursion limit
    code, out, _ = run(capsys, "mtamari-verify", "--m", "1500", "--n", "1",
                       "--max-n", "1500")
    assert code == 0 and out.endswith("OK 1 paths checked\n")
    code, out, _ = run(capsys, "lattice", "1", "--mtamari", "1500",
                       "--max-n", "1500")
    assert code == 0 and f'label="N{"E" * 1500}"' in out


@pytest.mark.parametrize("argv", [
    ("phi", "1", "--m", "{m}"),
    ("lattice", "1", "--mtamari", "{m}"),
    ("mtamari-verify", "--m", "{m}", "--n", "1"),
], ids=["phi", "lattice", "mtamari-verify"])
def test_slope_cap(capsys, argv):
    over = cli.SLOPE_CAP + 1
    for m in (over, 100_000_000):
        code, out, err = run(capsys, *(word.format(m=m) for word in argv))
        assert (code, out) == (2, "")
        assert err == (f"error: slopes are capped at m={cli.SLOPE_CAP} "
                       "(override with --max-n)\n")
    code, out, err = run(capsys, *(word.format(m=over) for word in argv),
                         "--max-n", str(over))
    assert code == 0 and out
    assert err.startswith(f"warning: raising capacity cap to {over}")


def test_phi_command(capsys):
    code, out, _ = run(capsys, "phi", "3")
    assert code == 0
    assert out.strip() == ("1 + x*y + x*y^2 + 2*x^2*y^2 + 3*x*y^3 "
                           "+ 5*x^2*y^3 + 5*x^3*y^3")
    code, out, _ = run(capsys, "phi", "2", "--m", "2")
    assert code == 0 and "y^2" in out


def test_mtamari_verify(capsys):
    code, out, _ = run(capsys, "mtamari-verify", "--m", "2", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "OK 3 paths checked"


def test_mtamari_verify_json(capsys):
    code, out, _ = run(capsys, "mtamari-verify", "--m", "1", "--n", "3",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["paths"]) == 5


def test_json_output_is_byte_stable(capsys):
    a = run(capsys, "count", "4", "--all-methods", "--json")
    b = run(capsys, "count", "4", "--all-methods", "--json")
    assert a == b


def test_output_stable_across_hash_seeds():
    # set iteration order must never leak into command output
    def run_seeded(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        return subprocess.run(
            [sys.executable, "-m", "tamari", "lattice", "4", "--json"],
            capture_output=True, text=True, env=env, check=True).stdout

    out = run_seeded("1")
    assert len(json.loads(out)["vertices"]) == 14
    assert out == run_seeded("42")


SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("argv, code, last_line", [
    (["count", "4", "--all-methods"], 0, "MATCH"),
    (["phi", "3"], 0, "1 + x*y + x*y^2 + 2*x^2*y^2 + 3*x*y^3 + 5*x^2*y^3"
                      " + 5*x^3*y^3"),
    (["count", "six"], 2, None),
], ids=["count", "phi", "bad-input"])
def test_python_dash_m_tamari(argv, code, last_line):
    done = subprocess.run([sys.executable, "-m", "tamari", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    if last_line is None:
        assert done.stdout == "" and "invalid int value" in done.stderr
    else:
        assert done.stdout.splitlines()[-1] == last_line
