import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from schurlie import schur
from schurlie.cli import main
from schurlie.errors import (DimensionMismatch, IndexOutOfRange,
                             InvalidArgument, ParseError)
from schurlie.freelie import LEAF, generator, lie_bracket
from schurlie.parsing import (eval_lie, eval_tensor, format_tensor,
                              parse_expression, parse_group_word, parse_shape)
from schurlie.words import TensorElement, check_perm, perm_from_cycles, read_int


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


def _eval_lie_recursive(ast, n):
    """The evaluator that brackets in Lyndon coordinates at every node: the
    oracle for eval_lie, which decomposes the tensor expansion once."""
    kind = ast[0]
    if kind == "gen":
        return generator(n, ast[1])
    if kind == "bracket":
        return lie_bracket(_eval_lie_recursive(ast[1], n),
                           _eval_lie_recursive(ast[2], n))
    if kind == "tensor":
        raise InvalidArgument("'.' products are tensors, not Lie elements")
    if kind == "scale":
        return _eval_lie_recursive(ast[2], n).scale(ast[1])
    if kind == "sum":
        parts = [_eval_lie_recursive(e, n).scale(s) for s, e in ast[1]]
        degrees = {p.degree for p in parts}
        if len(degrees) != 1:
            raise DimensionMismatch(f"sum mixes degrees {sorted(degrees)}")
        out = parts[0]
        for p in parts[1:]:
            out = out + p
        return out
    raise InvalidArgument(f"unknown node {kind!r}")


def _random_ast(rng, n, degree, depth=3):
    """A random homogeneous expression tree of the given degree: generators,
    brackets, scales (0 included) and signed sums, some of which cancel."""
    if degree == 1 and (depth == 0 or rng.random() < 0.4):
        return ("gen", rng.randint(1, n))
    kinds = ["scale", "sum"] if depth else []
    if degree > 1:
        kinds.append("bracket")
    if not kinds:
        return ("gen", rng.randint(1, n))
    kind = rng.choice(kinds)
    if kind == "bracket":
        a = rng.randint(1, degree - 1)
        return ("bracket", _random_ast(rng, n, a, depth),
                _random_ast(rng, n, degree - a, depth))
    if kind == "scale":
        return ("scale", rng.randint(0, 3), _random_ast(rng, n, degree, depth - 1))
    terms = [(rng.choice((1, -1)), _random_ast(rng, n, degree, depth - 1))
             for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.2:
        terms.append((-terms[0][0], terms[0][1]))  # cancels the first term
    return ("sum", terms)


def _replace_leaf(ast, new_leaf):
    """ast with its first generator replaced by new_leaf."""
    if ast[0] == "gen":
        return new_leaf
    if ast[0] == "bracket":
        return ("bracket", _replace_leaf(ast[1], new_leaf), ast[2])
    if ast[0] == "scale":
        return ("scale", ast[1], _replace_leaf(ast[2], new_leaf))
    (sign, first), *rest = ast[1]
    return ("sum", [(sign, _replace_leaf(first, new_leaf)), *rest])


@pytest.mark.parametrize("n", [2, 3])
def test_eval_lie_matches_recursive_oracle(n):
    rng = random.Random(n)
    zeros = 0
    for _ in range(150):
        ast = _random_ast(rng, n, rng.randint(1, 4))
        expected = _eval_lie_recursive(ast, n)
        assert eval_lie(ast, n) == expected, ast
        zeros += expected.is_zero()
        # the three rejections: a '.' node, a generator above the rank and
        # a sum of two degrees
        faults = [(_replace_leaf(ast, ("tensor", [("gen", 1), ("gen", 1)])),
                   InvalidArgument),
                  (_replace_leaf(ast, ("gen", n + 1)), InvalidArgument),
                  (("sum", [(1, ast), (1, ("bracket", ast, ("gen", 1)))]),
                   DimensionMismatch)]
        for bad, error in faults:
            with pytest.raises(error):
                _eval_lie_recursive(bad, n)
            with pytest.raises(error):
                eval_lie(bad, n)
    assert zeros  # the draw reaches zero results


def format_group_word(w):
    """The group word w as parse_group_word reads it."""
    if not w:
        return "1"
    return " ".join(f"x{a}" if a > 0 else f"x{-a}^-1" for a in w)


def parse_permutation(text, size=None):
    """A permutation in cycle notation "(1 2 3)(4 5)" or one-line "[2,3,1]"."""
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise InvalidArgument(f"unclosed one-line permutation {text!r}")
        return check_perm(tuple(read_int(a, "permutation entry")
                                for a in text[1:-1].split(",") if a.strip()))
    cycles = []
    rest = text.lstrip()
    while rest:
        if not rest.startswith("("):
            raise InvalidArgument(f"expected '(' in cycle notation: {rest!r}")
        if ")" not in rest:
            raise InvalidArgument(f"unclosed cycle in {text!r}")
        close = rest.index(")")
        cycles.append(tuple(read_int(a, "permutation entry")
                            for a in rest[1:close].replace(",", " ").split()))
        rest = rest[close + 1:].lstrip()
    q = size if size is not None else max((max(c) for c in cycles if c), default=0)
    if q == 0:
        raise InvalidArgument("cannot infer the permutation size; pass it explicitly")
    return perm_from_cycles(cycles, q)


def test_parse_group_word():
    assert parse_group_word("x1 x2^-1 x1") == (1, -2, 1)
    assert parse_group_word("x1 x1^-1") == ()
    assert parse_group_word("x2^3") == (2, 2, 2)
    assert format_group_word((1, -2)) == "x1 x2^-1"
    assert parse_group_word(format_group_word((1, -2, -2, 1))) == (1, -2, -2, 1)
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


@pytest.mark.parametrize("argv", [
    ["star", "--left", "{}", "--right", "{}"],
    ["transfer", "--parts", "1", "--factors", "{}"],
    ["operad-compose", "--theta", "{}", "--args", "{}"],
], ids=["star", "transfer", "operad-compose"])
def test_cli_json_flag_refused_where_output_is_always_json(capsys, argv):
    # these commands print JSON whatever the flags, so --json would do nothing
    with pytest.raises(SystemExit) as info:
        main([*argv, "--json"])
    assert info.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


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
    # values that leave a suite with no instance to check
    (["verify", "lemma425", "--n", "1"],
     "suite lemma425 has no instance to check at n=1, max_degree=3, seed=0"),
    (["verify", "lemma425", "--n", "3", "--max-degree", "1"],
     "suite lemma425 has no instance to check at n=3, max_degree=1, seed=0"),
    (["verify", "prop422", "--n", "1"],
     "suite prop422 has no instance to check at n=1, max_degree=4, seed=0"),
    (["verify", "johnson", "--n", "1"],
     "suite johnson has no instance to check at n=1, seed=0"),
    (["verify", "pairs", "--n", "1"],
     "suite pairs has no instance to check at n=1, depth=3, seed=0"),
    (["verify", "generation", "--n", "2", "--max-degree", "1"],
     "suite generation has no instance to check at "
     "n=2, max_degree=1, seed=0, generators=mtilde"),
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


def test_benchmark_selfcheck_passes():
    # the harness imports src/ as it is, so a refactor there can break it
    result = subprocess.run([sys.executable, "perfbench/selfcheck.py"],
                            cwd=WORKLOADS.parent.parent, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]


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
    # the largest solver size pinned: a different valid integer solution of
    # its Smith solve would change the reported support
    "lemma425 --n 3 --max-degree 5":
        "0ff75c498308f9930e50daa52525d14e6960472432d47ce01496452dea7fe3d6",
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


# the front end's outputs, pinned to the evaluator that bracketed in Lyndon
# coordinates at every node: per argv the exit code and, on exit 0, the
# sha256 of stdout, else the one stderr line after "error: "
_EL2 = json.dumps({"n": 2, "q": 2, "entries": [
    {"u": "1.2", "key": "2.1", "coeff": "3"}, {"u": "1.1", "key": "1.1", "coeff": "-1"}]})
_EL3 = json.dumps({"n": 3, "q": 2, "entries": [
    {"u": "1.2", "key": "1.2", "coeff": "2"}, {"u": "2.3", "key": "3.2", "coeff": "-1"}]})


def _deep(depth):
    """[x1,[x1,...[x1,x2]...]] with depth brackets."""
    return "[x1," * depth + "x2" + "]" * depth


def _alternating(depth):
    """[x1,[x2,[x1,...]]] with depth brackets: its expansion has no
    cancelling neighbours, so it grows about twice per level."""
    return "".join(f"[x{1 + k % 2}," for k in range(depth)) + f"x{1 + depth % 2}" + "]" * depth


def _comb(leaves):
    """The right comb shape [,[,...[,]...]] with the given number of leaves."""
    return "[," * (leaves - 1) + "]" * (leaves - 1)


FRONTEND_PINS = [
    (["normalize", "[x2,x1]"], 0,
     "14e5a8093e7380634b99c1cfd4e1ec95c6c1a3345e00e3f451feba3d9465acf2"),
    (["normalize", "[x1,[x1,x2]] - 2*[[x1,x2],x1] + [x2,[x2,x1]]", "--json"], 0,
     "c90bf175cb6d5bc81c210e1e636945f6f66314782040f24c5a791fa0b99dc9f1"),
    (["normalize", "3*[[x1,x3],[x2,x1]] - [x1,[x2,[x3,x1]]]", "--n", "4"], 0,
     "1ec364d918c0b02147524dd23e505c426ff46acd82d3e172c211d48e49cda63f"),
    (["normalize", "[x1,x2] - [x1,x2]", "--json"], 0,
     "ce4272de6b95dbca4110a6e4322ab99e05585d667eb529cda9c005f6b67a7419"),
    (["normalize", "-x2 + 5*x1"], 0,
     "483d421b6beee87896d66b70f56ee36b7e2f1fcc906c4324934dde9b8db58f9a"),
    (["normalize", "[x1,x1]"], 0,
     "c508c51d68c356798712ce51172269d610319ad31f1a788a6cf3dbe8de3e7bec"),
    (["normalize", "x1.x2"], 2, "'.' products are tensors, not Lie elements"),
    (["normalize", "x1 + [x1,x2]"], 2, "sum mixes degrees [1, 2]"),
    (["normalize", "[x1,x5]", "--n", "3"], 2,
     "generator x5 exceeds the configured rank 3"),
    (["normalize", "[x1,x2"], 2, "expected ']', found end of input (column 7)"),
    (["normalize", "x0"], 2, "generator index must be >= 1, got 0 (column 1)"),
    (["embed", "[x1,[x2,x3]]", "--json"], 0,
     "69f933479bbb5351ff8c76066e184ab87e2afab8d62a05c43302d08223c9e2af"),
    (["embed", "2*x1.x2 - x2.x1 + 3*[x1,x2]"], 0,
     "42ac96c112b3c9b6169c91e3679530b2f9bcdaf34df7a462f1ec8f7748061a19"),
    (["embed", "x1.x2 - x1.x2"], 0,
     "7133d960bc06caf57b1af557a9a88aeafa311cdda2837d5a3528c4f34083c88b"),
    (["embed", "[x1,x4]", "--n", "2"], 2, "generator x4 exceeds the configured rank 2"),
    (["der-bracket", "--n", "3", "--left", "[x1,x2];0;0", "--right", "0;[x2,x3];0"],
     0,
     "8057333943591d012e4b0fa59d32e5e6ee493301c506b1a2e248e975a5081b87"),
    (["der-bracket", "--n", "2", "--left", "[x1,x2];[x2,x1]",
      "--right", "[x1,[x1,x2]];0", "--json"], 0,
     "619aca94beee2e1d413e992b0aad029459f67b3080ea1a27304328d22bdb9505"),
    (["der-bracket", "--n", "2", "--left", "0;0", "--right", "x1;x2"], 2,
     "all images are zero; the degree cannot be inferred"),
    (["der-bracket", "--n", "2", "--left", "x1.x2;0", "--right", "x1;x2"], 2,
     "'.' products are tensors, not Lie elements"),
    (["phi", "--element", _EL3, "--n", "3", "--images", "[x1,x2];0;[x2,x3]",
      "--json"], 0,
     "e60e666b068ffc2617d5fd4c54e541082444bb91b4a0fa2d4b0747b7ca25cb72"),
    (["phi", "--element", _EL2, "--n", "2", "--images", "[x1,x2];[x2,x1]"], 0,
     "a42ed0efb5d89f7fe69318843da12e2d11b08909bcea66305e385a715fc67a3e"),
    (["brq", "--shape", "[[,],]"], 0,
     "a28397414cce03bc0ac131c38aa31fa9d22db13d08f869fb3045bda9f41aa59a"),
    (["brq", "--shape", "[[,[,]],[,]]", "--json"], 0,
     "4b4796191bb4519762aa21a55fc7e10187274557a9099d413a1ba069d2c6ad33"),
    (["brq", "--shape", ""], 0,
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    (["brq", "--shape", "[,"], 2, "expected ']' in shape (column 3)"),
    (["schur-apply", "--element", _EL2, "--input", "x1.x2 + 2*x1.x1 - [x1,x2]"], 0,
     "cc002be376e28b0faa318b2597c1702c284836c9cdb320eed0322d0b2cf239e7"),
    (["schur-apply", "--element", _EL3, "--input", "[x1,x2] + x2.x3", "--json"], 0,
     "5d291f84195e043706e4925be9d859f2f5dca6535d5a63b9261bcfa605df277c"),
    (["schur-apply", "--element", _EL2, "--input", "x1.x3"], 2,
     "generator x3 exceeds the configured rank 2"),
    (["magnus", "x1^-1 x2^-1 x1 x2", "--degree", "3"], 0,
     "b42cd09780aca8859588f7cd3ee72ada6bc58599989249d409f1397fa9da1876"),
    (["magnus", "x1 x2^2 x1^-3", "--degree", "2", "--json"], 0,
     "878ce64bb0c95975e3003b2fc71926a2cd44b104fd4b2233e456123ee7c2cf1d"),
    (["magnus", "x1^-3 x2^2 x1^3 x2^-2", "--degree", "6", "--json"], 0,
     "9a76b5238624a048f93c67d962c35a2b7b7a5405df9b6e1abe625c6ca269c302"),
    (["magnus", "x1 x2^-1 x3 x1^-2 x2", "--degree", "6"], 0,
     "89af0754e387fc1605b26805a2e1ae704b0682ea869260e035ba92f5b674ed6a"),
    (["magnus", "x1 x1^-1"], 0,
     "681059c2b26930a7438adc1345e018bcc9fb8b36fb8720c069e96e9b8dd504d8"),
    (["magnus", "x1", "--degree", "9"], 2, "--degree must be in 1..6"),
    (["magnus", "x0 x1"], 2, "generator index must be >= 1, got 0"),
    (["magnus", "y1"], 2, "bad group-word factor 'y1'"),
    (["transfer", "--parts", "x", "--factors", _EL2], 2,
     "--parts wants integers, got 'x'"),
    (["transfer", "--parts", "2,1.5", "--factors", _EL2], 2,
     "--parts wants integers, got '2,1.5'"),
    (["classify", "--pair", "1,2"], 2, "--pair wants i,j:i',j', got '1,2'"),
    (["classify", "--pair", "1,x:2,1"], 2, "--pair wants i,j:i',j', got '1,x:2,1'"),
    # sums and images of mixed degrees are refused before they are added
    (["embed", "x1 + x1.x2"], 2, "sum mixes degrees [1, 2]"),
    (["der-bracket", "--n", "2", "--left", "x1;[x1,x2]", "--right", "x1;x2"], 2,
     "images of mixed degrees [1, 2]"),
    # size guards: the last accepted input and the first refused one
    (["normalize", "--n", "2", _deep(200)], 0,
     "b2338fd2c86676775286f429968c67cb0d90e3fedc17128a14115a54bf8be97a"),
    (["normalize", _deep(201)], 2, "brackets nested 201 deep at column 801, above 200"),
    (["normalize", _alternating(16)], 2,
     "product of 1 and 902 terms forms 902 term pairs, above 512"),
    (["brq", "--shape", "[," * 201 + "]" * 201], 2,
     "brackets nested 201 deep at column 401, above 200"),
    (["brq", "--json", "--shape", _comb(16)], 0,
     "6559a5d5a6d0c9d9ab8b3c910688d1bb79f8491cffad15737b29e430e77e505d"),
    (["brq", "--shape", _comb(17)], 2, "bracket shape with 17 leaves, above 16"),
    (["schur-basis", "--n", "8", "--q", "8"], 2,
     "basis of degree 8, rank 8 has 10639125640 elements, above 100000"),
]


@pytest.mark.parametrize("argv, code, expected", FRONTEND_PINS,
                         ids=[" ".join(argv)[:60] for argv, _, _ in FRONTEND_PINS])
def test_cli_frontend_pin(capsys, argv, code, expected):
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == expected
    else:
        assert captured.out == ""
        assert captured.err == f"error: {expected}\n"


@pytest.mark.parametrize("patch, refused, accepted, message", [
    (None, ["normalize", _deep(201)], ["normalize", _deep(200)],
     "brackets nested 201 deep at column 801, above 200"),
    (None, ["brq", "--shape", _comb(17)], ["brq", "--shape", _comb(16)],
     "bracket shape with 17 leaves, above 16"),
    # 902 and 500 term pairs in the last bracket
    (None, ["normalize", _alternating(13)], ["normalize", _alternating(12)],
     "product of 1 and 902 terms forms 902 term pairs, above 512"),
    # the bound lowered to the 20-element basis of n = 2, q = 3, so that the
    # accepted input stays small
    ((schur, "SCHUR_BASIS_GUARD", 20), ["schur-basis", "--n", "2", "--q", "4"],
     ["schur-basis", "--n", "2", "--q", "3"],
     "basis of degree 4, rank 2 has 35 elements, above 20"),
], ids=["bracket depth", "shape leaves", "expansion pairs", "schur basis"])
def test_cli_size_guard_refuses_above_bound(capsys, monkeypatch, patch, refused,
                                            accepted, message):
    if patch is not None:
        monkeypatch.setattr(*patch)
        schur.basis.cache_clear()  # the guard runs on a cache miss
    assert main(refused) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert main(accepted) == 0
    assert capsys.readouterr().err == ""


_LONG = "9" * 5000  # past Python's 4300-digit integer-string limit


@pytest.mark.parametrize("argv, what", [
    (["magnus", f"x1^{_LONG}"], "exponent"),
    (["magnus", f"x{_LONG} x1"], "generator index"),
    (["normalize", f"[x{_LONG},x1]"], "generator index"),
    (["normalize", f"{_LONG}*x1"], "scale"),
], ids=["exponent", "group-word index", "generator index", "scale"])
def test_cli_long_digit_string_exits_two(capsys, argv, what):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: {what} must be an integer, got a string of 5000 characters")
    assert captured.err.count("\n") == 1


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


def test_cli_dimension_at_the_oracle_guards(capsys):
    # q = 8 and n^(2q) = 65 536 pass both brute-force guards
    assert main(["verify", "dimension", "--n", "2", "--max-degree", "8", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]
    top = report["instances"][-1]
    assert (top["q"], top["basis_size"], top["bruteforce_dim"]) == (8, 165, 165)
    assert top["pass"]


def test_cli_json_identical_across_processes():
    # hash randomization differs per process; output bytes must not
    cmd = [sys.executable, "-m", "schurlie.cli", "verify", "star-laws",
           "--n", "2", "--max-degree", "3", "--seed", "3", "--json"]
    runs = [subprocess.run(cmd, capture_output=True, text=True,
                           env={"PATH": "/usr/bin:/bin", "PYTHONPATH": "src",
                                "PYTHONHASHSEED": seed})
            for seed in ("1", "2")]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
