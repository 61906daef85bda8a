import hashlib
import json
from pathlib import Path

import pytest

from schurlie.cli import main
from schurlie.errors import (DimensionMismatch, IndexOutOfRange,
                             InvalidArgument, ParseError)
from schurlie.freelie import LEAF
from schurlie.parsing import (eval_lie, eval_tensor, format_group_word,
                              format_tensor, parse_expression,
                              parse_group_word, parse_permutation, parse_shape)
from schurlie.words import TensorElement


def test_parse_lie_monomial():
    ast = parse_expression("[x1,[x1,x2]]")
    assert ast == ("bracket", ("gen", 1), ("bracket", ("gen", 1), ("gen", 2)))
    elem = eval_lie(ast, 2)
    assert elem.degree == 3


def test_parse_tensor_word():
    ast = parse_expression("x1.x2.x1")
    assert ast == ("tensor", [("gen", 1), ("gen", 2), ("gen", 1)])
    assert eval_tensor(ast, 2) == TensorElement.from_word((1, 2, 1))


def test_parse_scalars_and_sums():
    ast = parse_expression("3*[x1,x2] - [x2,x1]")
    elem = eval_lie(ast, 2)
    assert elem.coeff((1, 2)) == 4
    assert eval_tensor(parse_expression("2*x1.x2 + x2.x1"), 2) == TensorElement(
        2, {(1, 2): 2, (2, 1): 1})
    neg = eval_lie(parse_expression("-[x1,x2]"), 2)
    assert neg.coeff((1, 2)) == -1


def test_parse_unbalanced_bracket_column():
    with pytest.raises(ParseError) as info:
        parse_expression("[x1,x2")
    assert info.value.column == 7


def test_parse_garbage():
    with pytest.raises(ParseError):
        parse_expression("x1 & x2")
    with pytest.raises(ParseError):
        parse_expression("")


def test_rank_range_check():
    from schurlie.parsing import check_rank
    ast = parse_expression("[x1,x4]")
    with pytest.raises(IndexOutOfRange):
        check_rank(ast, 3)


def test_eval_lie_rejects_tensor():
    with pytest.raises(InvalidArgument):
        eval_lie(parse_expression("x1.x2"), 2)


def test_eval_mixed_degree_sum_rejected():
    with pytest.raises(DimensionMismatch):
        eval_lie(parse_expression("x1 + [x1,x2]"), 2)


def test_parse_group_word():
    assert parse_group_word("x1 x2^-1 x1") == (1, -2, 1)
    assert parse_group_word("x1 x1^-1") == ()
    assert parse_group_word("x2^3") == (2, 2, 2)
    assert format_group_word((1, -2)) == "x1 x2^-1"
    with pytest.raises(InvalidArgument):
        parse_group_word("y1")


def test_parse_permutation():
    assert parse_permutation("(1 2 3)(4 5)") == (2, 3, 1, 5, 4)
    assert parse_permutation("[2,3,1]") == (2, 3, 1)
    assert parse_permutation("(1 2)", size=3) == (2, 1, 3)
    with pytest.raises(InvalidArgument):
        parse_permutation("[2,2,1]")


def test_parse_shape():
    assert parse_shape("[[,],]") == ((LEAF, LEAF), LEAF)
    assert parse_shape("[,[,]]") == (LEAF, (LEAF, LEAF))
    assert parse_shape("") is LEAF
    with pytest.raises(ParseError):
        parse_shape("[,")


def test_format_tensor():
    t = TensorElement(2, {(1, 2): 1, (2, 1): -2})
    assert format_tensor(t) == "x1.x2 - 2*x2.x1"
    assert format_tensor(TensorElement(2)) == "0"


def test_cli_brq(capsys):
    assert main(["brq", "--shape", "[[,],]"]) == 0
    assert capsys.readouterr().out.strip() == "1 - (1 2) - (1 2 3) + (1 3)"
    assert main(["brq", "--shape", "[,[,]]"]) == 0
    assert capsys.readouterr().out.strip() == "1 - (2 3) - (1 3 2) + (1 3)"


def test_cli_normalize(capsys):
    assert main(["normalize", "[x2,x1]"]) == 0
    out = capsys.readouterr().out
    assert "-[x1,x2]" in out
    assert "degree_doubled: 4" in out


def test_cli_parse_error_exit_code(capsys):
    assert main(["normalize", "[x1,x2"]) == 2
    assert "column 7" in capsys.readouterr().err


def test_cli_range_error_exit_code(capsys):
    assert main(["normalize", "[x1,x5]", "--n", "3"]) == 2


def test_cli_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_cli_embed_json(capsys):
    assert main(["embed", "[x1,x2]", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tensor"] == "x1.x2 - x2.x1"


def test_cli_verify_json_deterministic(capsys):
    assert main(["verify", "mccool", "--n", "3", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "mccool", "--n", "3", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["schema"] == 1
    assert report["ok"] is True
    assert report["parameters"]["n"] == 3


def test_cli_verify_seeded_star_laws(capsys):
    args = ["verify", "star-laws", "--n", "2", "--max-degree", "3", "--seed", "7", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv, flag", [
    (["mccool", "--n", "3", "--max-degree", "4"], "--max-degree"),
    (["equivariance", "--n", "2", "--depth", "2"], "--depth"),
    (["pairs", "--n", "3", "--generators", "gamma"], "--generators"),
])
def test_cli_verify_rejects_flag_suite_does_not_take(capsys, argv, flag):
    assert main(["verify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: suite {argv[0]} takes no {flag}\n"


@pytest.mark.parametrize("argv, message", [
    (["verify", "star-laws", "--n", "0"], "--n must be >= 1, got 0"),
    (["verify", "operad", "--n", "0"], "--n must be >= 1, got 0"),
    (["verify", "dimension", "--n", "0"], "--n must be >= 1, got 0"),
    (["verify", "star-laws", "--max-degree", "1"], "--max-degree must be >= 3, got 1"),
    (["verify", "generation", "--max-degree", "0"], "--max-degree must be >= 1, got 0"),
    (["schur-basis", "--n", "2", "--q", "-1"], "--q must be >= 0, got -1"),
    (["schur-basis", "--n", "-1", "--q", "2"], "--n must be >= 1, got -1"),
])
def test_cli_rejects_numeric_flag_out_of_range(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json"
PINNED = [suite for workload in json.loads(WORKLOADS.read_text())["workloads"].values()
          for suite in workload["suites"]]


@pytest.mark.parametrize("suite", PINNED, ids=[" ".join(s["argv"]) for s in PINNED])
def test_cli_verify_matches_benchmark_pin(capsys, suite):
    # the benchmark's seed-0 digests, checked here so that a change to the
    # --json bytes fails the tests and not only the benchmark
    assert main(["verify", *suite["argv"], "--seed", "0", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == suite["sha256_seed0"]


# closure sizes outside the benchmark, pinned to the output of the earlier
# fixed-point closure engine
GENERATION_PINS = {
    "generation --n 3 --max-degree 4 --generators gamma":
        "b135b346b51c696e98a994f72e072fa575835a2f70d95bbb814faae521cce71f",
    "generation --n 2 --max-degree 8":
        "5bbc87966f50d49d48fec6db271b9bfbd692cea29377d71c837b6cdbed90250c",
    "generation --n 2 --max-degree 9":
        "98428bbceb8a0ec84e262cbbe8ea0f31480a516a192c726e62178f3ae7034b49",
}


@pytest.mark.parametrize("command", GENERATION_PINS)
def test_cli_verify_generation_pin(capsys, command):
    assert main(["verify", *command.split(), "--seed", "0", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GENERATION_PINS[command]


# the annihilate-and-fix solver beyond the benchmark's sizes, pinned to the
# output of the solver that applied one basis element per orbit key
LEMMA425_PINS = {
    "lemma425 --n 3 --max-degree 4":
        "f62c355ff7015296d2a2a43403255b0d1a3f602d2ed799b48bf575ea4261162d",
    "lemma425 --n 2 --max-degree 7":
        "33f731ae3a47718843f7576e7deac9f4d82f41d31c6362bf8acf2ce98375315f",
}


@pytest.mark.parametrize("command", LEMMA425_PINS)
def test_cli_verify_lemma425_pin(capsys, command):
    assert main(["verify", *command.split(), "--seed", "0", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LEMMA425_PINS[command]


# the laws suites at degree 6, beyond the benchmark's degree-4 pins: they
# reach 3-part transfers and equivariance checks at q = 5, 6
LAWS_PINS = {
    "star-laws --n 2 --max-degree 6":
        "b7dbbd3bba289551194b370fc6c5e6e6ed6a54fac35f878a0e6781e92d01ce37",
    "equivariance --n 2 --max-degree 6":
        "d750b5cd2c93be7228845ae7e503c6d941543424941facff0430cb20c84e5635",
}


@pytest.mark.parametrize("command", LAWS_PINS)
def test_cli_verify_laws_pin(capsys, command):
    assert main(["verify", *command.split(), "--seed", "0", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LAWS_PINS[command]


def test_cli_schur_roundtrip(capsys):
    element = json.dumps({"n": 2, "q": 1,
                          "entries": [{"u": "1", "key": "2", "coeff": "1"}]})
    assert main(["schur-apply", "--element", element, "--input", "x1 + x2"]) == 0
    assert "x2" in capsys.readouterr().out
    assert main(["star", "--left", element, "--right", element]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["q"] == 2


def test_cli_classify_json(capsys):
    assert main(["classify", "--pair", "1,2:2,1", "--depth", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "free (finite-depth evidence)"
    assert payload["all_nonzero"] and payload["all_match"]
    assert main(["classify", "--pair", "1,2", "--depth", "3"]) == 2


def test_cli_der_bracket(capsys):
    assert main(["der-bracket", "--n", "3",
                 "--left", "[x1,x2];0;0", "--right", "0;[x2,x3];0"]) == 0
    out = capsys.readouterr().out
    assert "-[x1,[x2,x3]]" in out


def test_cli_phi(capsys):
    element = json.dumps({"n": 3, "q": 2,
                          "entries": [{"u": "1.2", "key": "1.2", "coeff": "2"}]})
    assert main(["phi", "--element", element, "--n", "3",
                 "--images", "[x1,x2];0;0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["images"][0] == "2*[x1,x2]"


def test_cli_bad_element_json_exit_two(capsys):
    assert main(["star", "--left", "{broken", "--right", "{}"]) == 2


def _entry(u="1", key="1", coeff="1"):
    return {"u": u, "key": key, "coeff": coeff}


@pytest.mark.parametrize("payload", [
    {"n": 2, "q": 1, "entries": [_entry(key="3")]},
    {"n": "2", "q": 1, "entries": [_entry()]},
    {"n": True, "q": 1, "entries": [_entry()]},
    {"n": 0, "q": 1, "entries": []},
    {"n": 2, "q": -1, "entries": []},
    {"n": 2, "q": 1.0, "entries": [_entry()]},
    {"n": 2, "q": 1},
    {"n": 2, "q": 1, "entries": {"u": "1"}},
    {"n": 2, "q": 1, "entries": [5]},
    {"n": 2, "q": 1, "entries": [_entry(u=1)]},
    {"n": 2, "q": 1, "entries": [_entry(key=None)]},
    {"n": 2, "q": 1, "entries": [_entry(u="1.x")]},
    {"n": 2, "q": 1, "entries": [_entry(coeff=1.5)]},
    {"n": 2, "q": 1, "entries": [_entry(coeff=True)]},
    {"n": 2, "q": 1, "entries": [_entry(coeff="1.5")]},
    {"n": 2, "q": 1, "entries": [_entry(coeff="1"), _entry(coeff="2")]},
], ids=lambda payload: json.dumps(payload))
def test_cli_rejects_malformed_element(capsys, payload):
    assert main(["schur-apply", "--element", json.dumps(payload), "--input", "x1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_element_coefficient_forms(capsys):
    # an int or a decimal string is a coefficient
    for coeff in (3, "3"):
        element = json.dumps({"n": 2, "q": 1, "entries": [_entry(key="2", coeff=coeff)]})
        assert main(["schur-apply", "--element", element, "--input", "x1"]) == 0
        assert "tensor: 3*x2\n" in capsys.readouterr().out


def test_cli_transfer(capsys):
    ident = json.dumps({"n": 2, "q": 1, "entries": [
        {"u": "1", "key": "1", "coeff": "1"}, {"u": "2", "key": "2", "coeff": "1"}]})
    assert main(["transfer", "--parts", "1,1", "--factors", ident, ident]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["q"] == 2
    assert {e["coeff"] for e in payload["entries"]} == {"2"}
    assert main(["transfer", "--parts", "x", "--factors", ident]) == 2


def test_cli_magnus(capsys):
    assert main(["magnus", "x1^-1 x2^-1 x1 x2", "--degree", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    coeffs = {tuple(t["word"]): t["coeff"] for t in payload["terms"]}
    assert coeffs == {(): 1, (1, 2): 1, (2, 1): -1}
    assert main(["magnus", "x1", "--degree", "9"]) == 2


def test_cli_magnus_refuses_long_word(capsys):
    # refused before the factor is expanded into a list of letters
    assert main(["magnus", "x1 x2^100001", "--degree", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "100002 letters" in captured.err
    assert main(["magnus", "x2^100000", "--degree", "2", "--json"]) == 0


def test_cli_generation_guard_exit_two(capsys):
    assert main(["verify", "generation", "--n", "3", "--max-degree", "6"]) == 2
    err = capsys.readouterr().err
    assert "partial" in err


def test_cli_json_identical_across_processes():
    # hash randomization differs per process; output bytes must not
    import subprocess
    import sys as _sys
    cmd = [_sys.executable, "-m", "schurlie.cli", "verify", "star-laws",
           "--n", "2", "--max-degree", "3", "--seed", "3", "--json"]
    runs = [subprocess.run(cmd, capture_output=True, text=True,
                           env={"PATH": "/usr/bin:/bin", "PYTHONPATH": "src",
                                "PYTHONHASHSEED": seed})
            for seed in ("1", "2")]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
