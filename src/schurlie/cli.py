"""Command-line front end.

Exit codes: 0 when everything requested passed, 1 when a verification suite
reports failures, 2 on usage or input errors.  With --json the output is a
canonical (sorted-keys) document and is byte-identical across runs for the
same flags and seed; timing is shown only in the human-readable form.
star, transfer and operad-compose always print their element as JSON, so
they take no --json flag.
"""

import argparse
import json
import sys
import time
from functools import lru_cache

from . import __version__
from .errors import InvalidArgument, ResourceGuardExceeded, SchurlieError
from .derivations import Derivation, der_bracket, schur_act
from .freegroup import MAGNUS_TRUNCATION_GUARD, classify_pair, magnus
from .freelie import bracketing_function, zero_lie
from .parsing import (check_rank, eval_lie, eval_tensor, format_tensor,
                      max_generator, parse_expression, parse_group_word,
                      parse_shape)
from .schur import SchurElement, basis
from .suites import SUITES
from .transfer import operad_compose, star, transfer
from .words import read_int


def _load_schur(text):
    try:
        if text.lstrip().startswith(("{", "[")):
            return SchurElement.from_json_dict(json.loads(text))
        with open(text, "r", encoding="utf-8") as fh:
            return SchurElement.from_json_dict(json.load(fh))
    except (OSError, ValueError) as exc:
        raise SchurlieError(f"cannot read element from {text!r}: {exc}") from exc


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _parse_images(text, n):
    """Semicolon-separated generator images; '0' entries are zero."""
    pieces = [p.strip() for p in text.split(";")]
    if len(pieces) != n:
        raise SchurlieError(f"{len(pieces)} images for rank {n}")
    parsed = []
    for piece in pieces:
        if piece == "0":
            parsed.append(None)
        else:
            parsed.append(eval_lie(parse_expression(piece), n))
    degrees = {e.degree for e in parsed if e is not None}
    if not degrees:
        raise SchurlieError("all images are zero; the degree cannot be inferred")
    if len(degrees) > 1:
        raise SchurlieError(f"images of mixed degrees {sorted(degrees)}")
    degree = degrees.pop()
    return Derivation(n, degree,
                      tuple(zero_lie(n, degree) if e is None else e for e in parsed))


def _derivation_payload(D):
    return {"n": D.n, "degree": D.degree, "degree_doubled": 2 * D.degree,
            "images": [str(img) for img in D.images]}


def _infer_rank(args, ast):
    if args.n is not None:
        check_rank(ast, args.n)
        return args.n
    return max_generator(ast)


@lru_cache(maxsize=None)
def _parser():
    """The argument parser, built once per process: parse_args leaves it as
    it was, so one call's flags never reach the next."""
    parser = argparse.ArgumentParser(
        prog="schurlie",
        description="Exact computer algebra for equivariant tensor endomorphisms, "
                    "free Lie algebras and derivation Lie algebras.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="Lyndon coordinates of a Lie expression")
    p.add_argument("expression")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("embed", help="tensor expansion of an expression")
    p.add_argument("expression")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("brq", help="group-ring expansion of a bracket shape")
    p.add_argument("--shape", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("schur-basis", help="orbit-data basis of a degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("schur-apply", help="apply an element to a tensor expression")
    p.add_argument("--element", required=True, help="path or inline JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("star", help="cross-degree product of two elements")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("transfer", help="transversal-summed blockwise product")
    p.add_argument("--parts", required=True, help="composition, e.g. 2,1")
    p.add_argument("--factors", required=True, nargs="+",
                   help="paths or inline JSON documents, one per part")

    p = sub.add_parser("magnus", help="truncated expansion of a group word")
    p.add_argument("word", help="e.g. 'x1 x2^-1 x1'")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("operad-compose", help="operadic composition")
    p.add_argument("--theta", required=True)
    p.add_argument("--args", required=True, nargs="+",
                   help="paths or inline JSON documents, one per operation")

    p = sub.add_parser("der-bracket", help="bracket of two derivations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--left", required=True, help="semicolon-separated images")
    p.add_argument("--right", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("phi", help="act on a derivation by an element")
    p.add_argument("--element", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--images", required=True, help="semicolon-separated images")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify", help="classify a pair of conjugating automorphisms")
    p.add_argument("--pair", required=True, help="i,j:i',j'")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run a packaged verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--generators", choices=["mtilde", "gamma"], default=None)
    p.add_argument("--json", action="store_true")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except SchurlieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _check_minimums(args):
    """Reject numeric flags below the smallest value their command can use."""
    minimums = {"n": 1, "q": 0, "max_degree": 1}
    if getattr(args, "suite", None) == "star-laws":
        # its associativity trials draw three factors of degree >= 1
        minimums["max_degree"] = 3
    for name, low in minimums.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            flag = "--" + name.replace("_", "-")
            raise SchurlieError(f"{flag} must be >= {low}, got {value}")


def _dispatch(args):
    _check_minimums(args)
    if args.command == "normalize":
        ast = parse_expression(args.expression)
        n = _infer_rank(args, ast)
        elem = eval_lie(ast, n)
        _emit({"n": n, "degree": elem.degree, "degree_doubled": 2 * elem.degree,
               "normalized": str(elem)}, args.json)
        return 0

    if args.command == "embed":
        ast = parse_expression(args.expression)
        n = _infer_rank(args, ast)
        t = eval_tensor(ast, n)
        _emit({"n": n, "degree": t.degree, "tensor": format_tensor(t)}, args.json)
        return 0

    if args.command == "brq":
        shape = parse_shape(args.shape)
        element = bracketing_function(shape)
        if args.json:
            payload = {"shape": args.shape, "degree": element.degree,
                       "terms": [{"perm": list(pm), "coeff": c}
                                 for pm, c in element.items()]}
            print(json.dumps(payload, sort_keys=True))
        else:
            print(element)
        return 0

    if args.command == "schur-basis":
        elements = basis(args.n, args.q)
        if args.json:
            print(json.dumps({"n": args.n, "q": args.q, "size": len(elements),
                              "elements": [f.to_json_dict() for f in elements]},
                             sort_keys=True))
        else:
            print(f"basis of degree {args.q}, rank {args.n}: {len(elements)} elements")
            for f in elements:
                print(json.dumps(f.to_json_dict(), sort_keys=True))
        return 0

    if args.command == "schur-apply":
        f = _load_schur(args.element)
        ast = parse_expression(args.input)
        check_rank(ast, f.n)
        t = eval_tensor(ast, f.n)
        result = f.apply(t)
        _emit({"n": f.n, "degree": result.degree, "tensor": format_tensor(result)},
              args.json)
        return 0

    if args.command == "star":
        f = _load_schur(args.left)
        g = _load_schur(args.right)
        print(json.dumps(star(f, g).to_json_dict(), sort_keys=True))
        return 0

    if args.command == "operad-compose":
        theta = _load_schur(args.theta)
        thetas = [_load_schur(piece) for piece in args.args]
        print(json.dumps(operad_compose(theta, thetas).to_json_dict(), sort_keys=True))
        return 0

    if args.command == "transfer":
        try:
            parts = tuple(read_int(a, "--parts entry") for a in args.parts.split(","))
        except InvalidArgument:
            raise SchurlieError(f"--parts wants integers, got {args.parts!r}") from None
        fs = [_load_schur(piece) for piece in args.factors]
        print(json.dumps(transfer(parts, fs).to_json_dict(), sort_keys=True))
        return 0

    if args.command == "magnus":
        if not 1 <= args.degree <= MAGNUS_TRUNCATION_GUARD:
            raise SchurlieError(f"--degree must be in 1..{MAGNUS_TRUNCATION_GUARD}")
        series = magnus(parse_group_word(args.word), args.degree)
        terms = [{"word": list(w), "coeff": c} for w, c in series.items()]
        if args.json:
            print(json.dumps({"truncation": args.degree, "terms": terms},
                             sort_keys=True))
        else:
            for w, c in series.items():
                label = "1" if not w else ".".join(f"X{a}" for a in w)
                print(f"{c:+d} {label}")
        return 0

    if args.command == "der-bracket":
        left = _parse_images(args.left, args.n)
        right = _parse_images(args.right, args.n)
        _emit(_derivation_payload(der_bracket(left, right)), args.json)
        return 0

    if args.command == "phi":
        f = _load_schur(args.element)
        D = _parse_images(args.images, args.n)
        _emit(_derivation_payload(schur_act(f, D)), args.json)
        return 0

    if args.command == "classify":
        try:
            first_text, second_text = args.pair.split(":")
            first = tuple(read_int(a, "--pair entry") for a in first_text.split(","))
            second = tuple(read_int(a, "--pair entry") for a in second_text.split(","))
            if len(first) != 2 or len(second) != 2:
                raise ValueError
        except ValueError:
            raise SchurlieError(f"--pair wants i,j:i',j', got {args.pair!r}") from None
        result = classify_pair(args.n, first, second, args.depth)
        if args.json:
            print(json.dumps(result, sort_keys=True))
        else:
            print(f"pair {first} and {second}: {result['classification']}")
            for entry in result.get("certificate", []):
                print(f"  {entry['word']}: nonzero={entry['nonzero']} "
                      f"matches={entry['matches_derivation_bracket']}")
        return 0

    if args.command == "verify":
        fn = SUITES[args.suite]
        code = fn.__code__  # inspect.signature would cost its import
        accepted = code.co_varnames[:code.co_argcount]
        kwargs = {"seed": args.seed}
        for name in ("n", "max_degree", "depth", "generators"):
            value = getattr(args, name)
            if value is None:
                continue
            if name not in accepted:
                flag = "--" + name.replace("_", "-")
                raise SchurlieError(f"suite {args.suite} takes no {flag}")
            kwargs[name] = value
        started = time.monotonic()
        try:
            report = fn(**kwargs)
        except ResourceGuardExceeded as exc:
            if exc.partial is not None:
                print(json.dumps({"error": str(exc), "partial": exc.partial},
                                 sort_keys=True), file=sys.stderr)
            raise
        elapsed = time.monotonic() - started
        if args.json:
            print(json.dumps(report, sort_keys=True))
        else:
            status = "ok" if report["ok"] else "FAILED"
            print(f"{status} suite {report['suite']}: {report['passed']} passed, "
                  f"{report['failed']} failed ({elapsed:.2f}s)")
            for inst in report["instances"]:
                if not inst["pass"]:
                    print(f"  FAIL {inst['key']}")
        return 0 if report["ok"] else 1

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
